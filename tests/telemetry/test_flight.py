"""Flight recorder: ring buffers, crash dumps, and post-restart readback."""

from __future__ import annotations

import itertools

import pytest

import repro.core.policy as policy_module
from repro.scenarios.confrontation import ConfrontationScenario, ThreatConfig
from repro.scenarios.harness import SafeguardConfig
from repro.sim.faults import DeviceCrash, FaultPlan
from repro.sim.simulator import Simulator
from repro.store.stable import StableStorage
from repro.telemetry.flight import FlightRecorder


class TestRingBuffers:
    def _recorded(self, per_device: int = 4):
        sim = Simulator(seed=0)
        storage = StableStorage()
        flight = FlightRecorder(sim, storage, per_device=per_device)
        return sim, storage, flight

    def test_per_device_validation(self):
        sim = Simulator(seed=0)
        with pytest.raises(ValueError):
            FlightRecorder(sim, StableStorage(), per_device=0)

    def test_captures_both_spans_and_trace_events(self):
        sim, _storage, flight = self._recorded()
        sim.telemetry.start_trace("attack.worm", "dev1", 1.0)
        sim.record("engine.decision", "dev1", outcome="vetoed")
        entries = flight.recent("dev1")
        assert [entry["record"] for entry in entries] == ["span", "trace"]
        assert entries[0]["name"] == "attack.worm"
        assert entries[1]["kind"] == "engine.decision"

    def test_ring_is_bounded_per_device(self):
        sim, _storage, flight = self._recorded(per_device=3)
        for index in range(10):
            sim.record("tick", "dev1", index=index)
        entries = flight.recent("dev1")
        assert len(entries) == 3
        assert [entry["detail"]["index"] for entry in entries] == [7, 8, 9]

    def test_rings_are_per_subject(self):
        sim, _storage, flight = self._recorded(per_device=2)
        sim.record("a", "dev1")
        sim.record("b", "dev2")
        assert len(flight.recent("dev1")) == 1
        assert len(flight.recent("dev2")) == 1
        assert flight.recent("dev3") == []

    def test_dump_writes_durable_payload_and_counts(self):
        sim, storage, flight = self._recorded()
        sim.record("engine.decision", "dev1", outcome="executed")
        count = flight.dump("dev1", reason="quarantine")
        assert count == 1
        assert flight.dumps == 1
        assert sim.metrics.counter("flight.dumps").value == 1
        dumps = FlightRecorder.load(storage, "dev1")
        assert len(dumps) == 1
        assert dumps[0]["reason"] == "quarantine"
        assert dumps[0]["device_id"] == "dev1"
        assert len(dumps[0]["entries"]) == 1

    def test_repeated_dumps_append(self):
        sim, storage, flight = self._recorded()
        sim.record("a", "dev1")
        flight.dump("dev1", reason="first")
        sim.record("b", "dev1")
        flight.dump("dev1", reason="second")
        reasons = [dump["reason"]
                   for dump in FlightRecorder.load(storage, "dev1")]
        assert reasons == ["first", "second"]
        assert flight.last_dump("dev1")["reason"] == "second"

    def test_dumped_devices_lists_flight_blobs_only(self):
        sim, storage, flight = self._recorded()
        storage.append("dev9.audit", b"x")      # unrelated blob
        sim.record("a", "dev1")
        flight.dump("dev1", reason="crash")
        assert FlightRecorder.dumped_devices(storage) == ["dev1"]


class TestCrashSurvival:
    def _scenario(self, fault_plan=None) -> ConfrontationScenario:
        # No watchdog: the compromised victim must still be alive when the
        # injected crash lands (a killed device cannot crash again).
        return ConfrontationScenario(
            seed=7,
            config=SafeguardConfig.only(preaction=True, statespace=True,
                                        sealed=True),
            threats=ThreatConfig(worm=True, worm_time=10.0,
                                 worm_initial_targets=2),
            safety_transport="reliable",
            durability="journal",
            fault_plan=fault_plan,
        )

    def test_dump_survives_fault_injector_crash(self):
        """The acceptance: a compromised device crashes mid-incident; its
        flight ring reaches stable storage *before* the crash wipes
        volatile state, and is readable after the restart."""
        probe = self._scenario()
        victim = probe.worm.initial_targets[0]
        plan = FaultPlan([DeviceCrash(device_id=victim, at=12.0,
                                      restart_after=5.0)])
        scenario = self._scenario(fault_plan=plan)
        scenario.run(until=30.0)

        dumps = FlightRecorder.load(scenario.storage, victim)
        crash_dumps = [dump for dump in dumps if dump["reason"] == "crash"]
        assert crash_dumps, "crash produced no flight dump"
        dump = crash_dumps[0]
        assert dump["time"] == 12.0
        assert dump["entries"], "flight ring was empty at crash time"
        # The ring caught the rogue activity leading up to the crash.
        names = {entry.get("name") or entry.get("kind")
                 for entry in dump["entries"]}
        assert any("engine.decision" in name or "attack" in name
                   for name in names), names

        # Readable through a *fresh* recorder over the same storage — the
        # post-restart forensic read path.
        reread = FlightRecorder.load(scenario.storage, victim)
        assert reread == dumps
        assert victim in FlightRecorder.dumped_devices(scenario.storage)

    def test_quarantine_also_dumps(self):
        from repro.sim.faults import NetworkPartition

        probe = self._scenario()
        victim = probe.worm.initial_targets[0]
        plan = FaultPlan([NetworkPartition(at=10.5, heal_at=100.0,
                                           groups=((victim,),))])
        scenario = ConfrontationScenario(
            seed=7,
            config=SafeguardConfig.only(watchdog=True, preaction=True,
                                        statespace=True, sealed=True),
            threats=ThreatConfig(worm=True, worm_time=10.0,
                                 worm_initial_targets=2),
            safety_transport="reliable",
            quarantine_after=3,
            durability="journal",
            fault_plan=plan,
        )
        summary = scenario.run(until=60.0)
        assert summary["quarantines"] >= 1
        dumps = FlightRecorder.load(scenario.storage, victim)
        assert any(dump["reason"] == "quarantine" for dump in dumps)

    def test_no_flight_recorder_without_storage(self):
        scenario = ConfrontationScenario(
            seed=7, config=SafeguardConfig.only(watchdog=True, sealed=True))
        assert scenario.flight is None


class TestRepeatableDumps:
    """Crash dumps carry the policy ids of recent decisions, so ids drawn
    from the process-wide policy counter would make a run's stored bytes
    depend on what else the process built before it."""

    HORIZON = 200.0     # past the first crash after a traced builtin decision

    @staticmethod
    def _storm(seed: int) -> ConfrontationScenario:
        # Every device crashes once a minute, staggered, and restarts 2 s
        # later.
        devices = sorted(f"{org}-{kind}{index}" for org in ("us", "uk")
                         for kind, count in (("drone", 4), ("mule", 2))
                         for index in range(count))
        faults = [DeviceCrash(device_id, start + 1.2 * offset,
                              restart_after=2.0)
                  for start in (5.0, 65.0, 125.0, 185.0)
                  for offset, device_id in enumerate(devices)]
        return ConfrontationScenario(
            seed=seed, config=SafeguardConfig.full(),
            threats=ThreatConfig.all(), durability="journal",
            safety_transport="reliable", signed_commands=True, health=True,
            spans_enabled=True, fault_plan=FaultPlan(faults=tuple(faults)),
            supervision="isolate")

    def test_storm_writes_the_same_bytes_twice_in_one_process(self, monkeypatch):
        written = []
        # The second run starts the policy counter at a different digit
        # count, so any counter-drawn id on the fleet path changes the
        # length of the dumps that carry it.
        for start in (1, 10 ** 6):
            monkeypatch.setattr(policy_module, "_policy_seq",
                                itertools.count(start))
            scenario = self._storm(seed=1)
            scenario.run(until=self.HORIZON)
            assert scenario.flight.dumps > 0
            written.append(scenario.storage.bytes_written)
        assert written[0] == written[1]
