"""Surveillance/strike drone (paper sec II).

"The personnel in charge of surveillance in both countries rely on a set
of surveillance devices such as drones and mules.  When needed, a device
can call upon and dispatch other devices with additional capabilities,
e.g., a drone sees smoke and calls upon another drone with chemical and
radioactive sensors..."

:func:`make_drone` builds a fully-wired core Device: state space,
actuators bound to the world, an action library, and a small builtin
policy set (patrol, investigate smoke, call support, thermal management,
commanded strike).  Scenarios layer generative and learned policies on
top.
"""

from __future__ import annotations

from typing import Optional

from repro.core.actions import Action, ActionLibrary, Effect
from repro.core.device import Device, Sensor
from repro.core.obligations import ObligationOntology
from repro.core.policy import Policy, PolicySet
from repro.core.state import StateSpace, StateVariable
from repro.devices.actuators import make_cooler, make_motor, make_radio, make_weapon
from repro.devices.world import World

DRONE_TYPE = "drone"


def drone_state_space(world: World) -> StateSpace:
    return StateSpace([
        StateVariable("x", "float", 0.0, 0.0, world.width),
        StateVariable("y", "float", 0.0, 0.0, world.height),
        StateVariable("altitude", "float", 50.0, 0.0, 150.0),
        StateVariable("fuel", "float", 100.0, 0.0, 100.0),
        StateVariable("temp", "float", 20.0, 0.0, 150.0),
        StateVariable("heat_output", "float", 2.0, 0.0, 30.0),
        StateVariable("heat_output_max", "float", 10.0, 0.0, 30.0),
        StateVariable("mode", "str", "patrol",
                      allowed={"idle", "patrol", "investigate", "return", "engaged"}),
        StateVariable("humans_spotted", "int", 0, 0, 100000),
    ])


def drone_actions() -> ActionLibrary:
    return ActionLibrary([
        Action("patrol", "motor",
               effects=[Effect("fuel", "add", -1.0), Effect("temp", "add", 2.0),
                        Effect("heat_output", "set", 4.0),
                        Effect("mode", "set", "patrol")],
               tags={"movement"},
               description="continue the patrol sweep"),
        Action("investigate", "motor",
               effects=[Effect("fuel", "add", -2.0), Effect("temp", "add", 3.0),
                        Effect("heat_output", "set", 6.0),
                        Effect("mode", "set", "investigate")],
               tags={"movement"},
               description="fly to a point of interest"),
        Action("return_to_base", "motor",
               effects=[Effect("fuel", "add", -1.0),
                        Effect("mode", "set", "return")],
               tags={"movement"},
               description="head back to base"),
        Action("strike", "weapon",
               effects=[Effect("temp", "add", 5.0),
                        Effect("mode", "set", "engaged")],
               tags={"kinetic"}, reversible=False,
               description="kinetic strike at the target position"),
        Action("call_support", "radio",
               effects=[],
               tags={"dispatch"},
               description="request a specialist device at this position"),
        Action("cool_down", "cooler",
               effects=[Effect("temp", "scale", 0.5),
                        Effect("heat_output", "set", 1.0),
                        Effect("mode", "set", "idle")],
               tags={"thermal"},
               description="idle and shed heat"),
    ])


def builtin_drone_policies(actions: ActionLibrary) -> PolicySet:
    """The human-written management baseline (sec V 'policy-based management').

    Ids are fixed per device (``<event>:<action>``), not drawn from the
    process-wide policy counter: decisions and crash dumps carry them,
    so a run's stored bytes must not depend on what the process built
    before it.
    """
    return PolicySet([
        Policy.make("timer", "temp > 80", actions.get("cool_down"),
                    priority=10, source="builtin",
                    policy_id="timer:cool_down"),
        Policy.make("timer", "mode == 'patrol' and fuel > 20",
                    actions.get("patrol"), priority=1, source="builtin",
                    policy_id="timer:patrol"),
        Policy.make("timer", "fuel <= 20", actions.get("return_to_base"),
                    priority=5, source="builtin",
                    policy_id="timer:return_to_base"),
        Policy.make("sensor.smoke", "fuel > 10", actions.get("investigate"),
                    priority=5, source="builtin",
                    policy_id="sensor.smoke:investigate"),
        Policy.make("sensor.convoy", None, actions.get("call_support"),
                    priority=5, source="builtin",
                    policy_id="sensor.convoy:call_support"),
        Policy.make("mgmt.strike", None, actions.get("strike"),
                    priority=20, source="builtin",
                    policy_id="mgmt.strike:strike"),
        Policy.make("mgmt.return", None, actions.get("return_to_base"),
                    priority=20, source="builtin",
                    policy_id="mgmt.return:return_to_base"),
    ])


def make_drone(
    device_id: str,
    world: World,
    *,
    organization: str = "default",
    x: float = 0.0,
    y: float = 0.0,
    speed: float = 5.0,
    blast_radius: float = 5.0,
    sensor_range: float = 15.0,
    attributes: Optional[dict] = None,
    obligation_ontology: Optional[ObligationOntology] = None,
    with_builtin_policies: bool = True,
) -> Device:
    """Build a drone positioned at (x, y) and bound to ``world``."""
    actions = drone_actions()
    attrs = {"speed": speed, "sensor_range": sensor_range,
             "capability": "surveillance", "airborne": True}
    attrs.update(attributes or {})
    device = Device(
        device_id=device_id,
        device_type=DRONE_TYPE,
        space=drone_state_space(world),
        organization=organization,
        initial_state={"x": x, "y": y},
        policies=(builtin_drone_policies(actions) if with_builtin_policies
                  else PolicySet()),
        actions=actions,
        obligation_ontology=obligation_ontology,
        attributes=attrs,
    )
    device.add_actuator(make_motor(world, speed=speed))
    device.add_actuator(make_weapon(world, blast_radius=blast_radius))
    device.add_actuator(make_radio())
    device.add_actuator(make_cooler())
    device.add_sensor(Sensor(
        "humans_in_range",
        read_fn=lambda: len(world.humans_near(
            float(device.state.get("x")), float(device.state.get("y")),
            sensor_range,
        )),
    ))
    return device
