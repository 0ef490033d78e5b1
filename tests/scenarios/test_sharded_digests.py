"""Committed sharded-run digests, pinned.

The constants are the digests the committed benchmark artifacts record:
``benchmarks/results/BENCH_F4.json`` (``sharding.trace_digest``; the
audit-chain digest is the same run's) and
``benchmarks/results/BENCH_E22.json`` (``determinism.trace_digest``).
A change to either scenario, the shard harness or the barrier transport
that moves a single trace byte fails here, at one shard and at two.
"""

import pytest

from repro.scenarios.reputation import ReputationScenario
from repro.scenarios.sharded import ShardedScenario

#: F4: 10k devices, seed 7, horizon 24, window 4, 64 communities.
F4_SPEC = dict(seed=7, n_devices=10_000, horizon=24.0, window=4.0,
               n_communities=64)
F4_TRACE = "2c0b7e54fd9e9628ded6ba2b08837e8028261f38d27bdb200b623f3c7687f35b"
F4_AUDIT = "9adb2259626dd9420203dd61c7644aed4247d3b71ef18a18f12eaad0fdac59ce"

#: E22: the default spec (weighted + leased + rogue + partition), seed 11.
E22_TRACE = "d81704c0bc17edf012f0239483ade212ba76b06cee7434f7d6a8c2ac6f32cbba"


@pytest.mark.parametrize("n_shards", [1, 2])
def test_f4_digests_match_the_committed_artifact(n_shards):
    run = ShardedScenario(n_shards=n_shards, **F4_SPEC).run()
    assert run.trace_digest == F4_TRACE
    assert run.audit_digest == F4_AUDIT


@pytest.mark.parametrize("n_shards", [1, 2])
def test_e22_digest_matches_the_committed_artifact(n_shards):
    run = ReputationScenario(seed=11, n_shards=n_shards).run()
    assert run.trace_digest == E22_TRACE
