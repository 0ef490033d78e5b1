"""State-space analysis: classifiers, preferences, risk, break-glass, reachability.

Implements the paper's section V state model (good / neutral / bad states
with a safeness metric) and the section VI-B support machinery: state
preference ontologies (ref [14]), risk estimation, break-glass rules
(ref [12]), and next-state anticipation.
"""

from repro.statespace.batch import (
    BatchCompileError,
    BatchSafeness,
    StateMatrix,
    compile_safeness,
    numpy_available,
)
from repro.statespace.breakglass import BreakGlassController, BreakGlassGrant, BreakGlassRule
from repro.statespace.classifier import (
    BoxClassifier,
    BoxRegion,
    CompositeClassifier,
    FunctionClassifier,
    SafenessClassifier,
    ThresholdBand,
    ThresholdClassifier,
)
from repro.statespace.estimation import (
    NoisyChannel,
    StateEstimator,
    estimated_state_reader,
)
from repro.statespace.preferences import StatePreferenceOntology
from repro.statespace.reachability import ReachabilityAnalyzer, ReachableState
from repro.statespace.risk import RiskEstimator, RiskFactor

__all__ = [
    "BatchCompileError",
    "BatchSafeness",
    "BoxClassifier",
    "BoxRegion",
    "BreakGlassController",
    "BreakGlassGrant",
    "BreakGlassRule",
    "CompositeClassifier",
    "FunctionClassifier",
    "NoisyChannel",
    "ReachabilityAnalyzer",
    "ReachableState",
    "RiskEstimator",
    "RiskFactor",
    "SafenessClassifier",
    "StateEstimator",
    "StateMatrix",
    "StatePreferenceOntology",
    "ThresholdBand",
    "ThresholdClassifier",
    "compile_safeness",
    "estimated_state_reader",
    "numpy_available",
]
