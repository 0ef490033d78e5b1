"""Ground mule (paper sec II).

"if it sees a suspect convoy, it may call upon a ground mule to intercept
the convoy along the path" — and mules do the earth-moving work behind the
paper's dig-a-hole example, which makes them the indirect-harm device of
experiment E1.
"""

from __future__ import annotations

from typing import Optional

from repro.core.actions import Action, ActionLibrary, Effect
from repro.core.device import Device, Sensor
from repro.core.obligations import Obligation, ObligationOntology
from repro.core.policy import Policy, PolicySet
from repro.core.state import StateSpace, StateVariable
from repro.devices.actuators import (
    make_cooler,
    make_digger,
    make_interceptor,
    make_motor,
    make_radio,
    make_warning_poster,
)
from repro.devices.world import World

MULE_TYPE = "mule"


def mule_state_space(world: World) -> StateSpace:
    return StateSpace([
        StateVariable("x", "float", 0.0, 0.0, world.width),
        StateVariable("y", "float", 0.0, 0.0, world.height),
        StateVariable("fuel", "float", 100.0, 0.0, 100.0),
        StateVariable("temp", "float", 20.0, 0.0, 150.0),
        StateVariable("heat_output", "float", 3.0, 0.0, 30.0),
        StateVariable("heat_output_max", "float", 12.0, 0.0, 30.0),
        StateVariable("cargo", "float", 0.0, 0.0, 100.0),
        StateVariable("mode", "str", "idle",
                      allowed={"idle", "moving", "digging", "intercept"}),
    ])


def mule_actions() -> ActionLibrary:
    return ActionLibrary([
        Action("move", "motor",
               effects=[Effect("fuel", "add", -1.0),
                        Effect("mode", "set", "moving")],
               tags={"movement"},
               description="drive toward a target position"),
        # The interceptor actuator owns the mode transition (intercept while
        # pursuing, idle on capture or when nothing is left to pursue).
        Action("intercept", "interceptor",
               effects=[Effect("fuel", "add", -2.0), Effect("temp", "add", 3.0),
                        Effect("heat_output", "set", 8.0)],
               tags={"movement"},
               description="pursue and intercept a convoy along its path"),
        Action("dig_trench", "digger",
               effects=[Effect("fuel", "add", -3.0), Effect("temp", "add", 5.0),
                        Effect("heat_output", "set", 10.0),
                        Effect("mode", "set", "digging")],
               tags={"digging"}, reversible=False,
               description="dig a trench/hole at the current position"),
        Action("post_warnings", "warning_poster",
               effects=[Effect("mode", "set", "idle")],
               tags={"mitigation"},
               description="post warnings on hazards this device created"),
        Action("cool_down", "cooler",
               effects=[Effect("temp", "scale", 0.5),
                        Effect("heat_output", "set", 1.0),
                        Effect("mode", "set", "idle")],
               tags={"thermal"},
               description="idle and shed heat"),
        Action("report", "radio",
               effects=[],
               tags={"dispatch"},
               description="report status to the requester"),
    ])


def digging_obligation_ontology(actions: ActionLibrary) -> ObligationOntology:
    """The sec VI-A obligation ontology for earth-moving hazards.

    Digging obliges the device to post warnings (the paper's "posting
    notices indicating the hole") shortly after the dig completes.
    """
    ontology = ObligationOntology()
    ontology.declare_hazard("hazardous")
    ontology.declare_hazard("digging", parent="hazardous")
    ontology.attach("digging", Obligation(
        name="post_hole_warnings",
        remedy=actions.get("post_warnings"),
        when="after",
        deadline=5.0,
        hazard="digging",
        description="mark the hole so approaching humans avoid it",
    ))
    return ontology


def builtin_mule_policies(actions: ActionLibrary) -> PolicySet:
    """The mule's management baseline; ids fixed per device, as for
    :func:`~repro.devices.drone.builtin_drone_policies`."""
    return PolicySet([
        Policy.make("timer", "temp > 80", actions.get("cool_down"),
                    priority=10, source="builtin",
                    policy_id="timer:cool_down"),
        Policy.make("net.dispatch", None, actions.get("intercept"),
                    priority=5, source="builtin",
                    policy_id="net.dispatch:intercept"),
        # Pursuit continuation: keep closing on the target every tick while
        # in intercept mode (the actuator stands down when done).
        Policy.make("timer", "mode == 'intercept' and fuel > 5",
                    actions.get("intercept"), priority=6, source="builtin",
                    policy_id="timer:intercept"),
        Policy.make("mgmt.dig", None, actions.get("dig_trench"),
                    priority=20, source="builtin",
                    policy_id="mgmt.dig:dig_trench"),
        Policy.make("mgmt.move", None, actions.get("move"),
                    priority=20, source="builtin",
                    policy_id="mgmt.move:move"),
    ])


def make_mule(
    device_id: str,
    world: World,
    *,
    organization: str = "default",
    x: float = 0.0,
    y: float = 0.0,
    speed: float = 3.0,
    hazard_radius: float = 3.0,
    sensor_range: float = 10.0,
    attributes: Optional[dict] = None,
    with_obligations: bool = True,
    with_builtin_policies: bool = True,
) -> Device:
    """Build a ground mule positioned at (x, y) and bound to ``world``.

    ``with_obligations=False`` produces the E1 baseline mule that digs and
    never posts warnings.
    """
    actions = mule_actions()
    ontology = digging_obligation_ontology(actions) if with_obligations else None
    attrs = {"speed": speed, "sensor_range": sensor_range,
             "capability": "ground", "airborne": False}
    attrs.update(attributes or {})
    device = Device(
        device_id=device_id,
        device_type=MULE_TYPE,
        space=mule_state_space(world),
        organization=organization,
        initial_state={"x": x, "y": y},
        policies=(builtin_mule_policies(actions) if with_builtin_policies
                  else PolicySet()),
        actions=actions,
        obligation_ontology=ontology,
        attributes=attrs,
    )
    device.add_actuator(make_motor(world, speed=speed))
    device.add_actuator(make_interceptor(world, speed=speed * 1.5))
    device.add_actuator(make_digger(world, hazard_radius=hazard_radius))
    device.add_actuator(make_warning_poster(world))
    device.add_actuator(make_cooler())
    device.add_actuator(make_radio())
    device.add_sensor(Sensor(
        "humans_in_range",
        read_fn=lambda: len(world.humans_near(
            float(device.state.get("x")), float(device.state.get("y")),
            sensor_range,
        )),
    ))
    return device
