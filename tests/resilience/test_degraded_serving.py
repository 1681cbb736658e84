"""Degraded-mode serving: the silent-UE policy, health/readiness,
deadline jitter, clock skew, and the crash-restart supervisor.

The degradation contract: a UE that stops reporting can slow the fleet
for at most ``silent_after`` forced closes — then it is either dropped
from the watermark (``unsubscribe``) or its last report is replayed
(``hold``) — and a decision-loop crash rolls the engine back to the
last epoch boundary, indistinguishable from that epoch's reports never
having been submitted.
"""

from __future__ import annotations

import asyncio
import pickle

import numpy as np
import pytest

from repro.resilience import FaultPlan, FaultRule
from repro.resilience.supervisor import (
    InjectedCrash,
    SupervisedDecisionService,
)
from repro.serve import DecisionService, Report, ServeClient, ServeServer
from repro.sim import SimulationParameters

pytestmark = pytest.mark.resilience

N_CELLS = SimulationParameters().make_layout().n_cells


def make_report(ue: int, epoch: int) -> Report:
    return Report(
        ue=ue,
        epoch=epoch,
        position_km=(1.0 + 0.01 * ue, 1.0),
        distance_km=0.05 * epoch,
        power_dbw=np.linspace(-120.0 + ue, -70.0, N_CELLS),
    )


def frozen(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# silent-UE policy
# ----------------------------------------------------------------------
class TestSilentPolicy:
    def test_unsubscribe_after_m_missed_forced_closes(self):
        svc = DecisionService(silent_after=2)
        svc.subscribe(0, speed_kmh=10.0)
        svc.subscribe(1, speed_kmh=10.0)
        svc.submit(make_report(0, 0))
        svc.submit(make_report(1, 0))  # watermark close, epoch 0
        assert svc.stats.watermark_closes == 1

        # UE 0 goes dark: two forced closes charge two misses
        svc.submit(make_report(1, 1))
        svc.force_close()
        assert svc.stats.ues_silenced == 0
        assert 0 in svc.scheduler.subscribed
        svc.submit(make_report(1, 2))
        svc.force_close()
        assert svc.stats.ues_silenced == 1
        assert 0 not in svc.scheduler.subscribed

        # the fleet stops waiting on the silent UE: the very next
        # report completes the watermark on its own
        svc.submit(make_report(1, 3))
        assert svc.stats.watermark_closes == 2
        assert svc.stats.epochs_closed == 4

    def test_hold_replays_last_report_and_counts_once(self):
        svc = DecisionService(silent_after=2, silent_policy="hold")
        svc.subscribe(0, speed_kmh=10.0)
        svc.subscribe(5, speed_kmh=10.0)
        svc.submit(make_report(0, 0))
        svc.submit(make_report(5, 0))  # watermark close; last reports cached

        for epoch in (1, 2, 3):
            svc.submit(make_report(5, epoch))
            svc.force_close()
        # silenced exactly once (at the second miss), held at the 2nd
        # and 3rd forced closes
        assert svc.stats.ues_silenced == 1
        assert svc.stats.reports_held == 2
        # hold keeps the UE subscribed — it may come back
        assert 0 in svc.scheduler.subscribed

    def test_hold_with_no_prior_report_holds_nothing(self):
        svc = DecisionService(silent_after=1, silent_policy="hold")
        svc.subscribe(0)
        svc.subscribe(1)
        svc.submit(make_report(1, 0))
        svc.force_close()
        assert svc.stats.ues_silenced == 1
        assert svc.stats.reports_held == 0

    def test_reporting_resets_the_miss_counter(self):
        svc = DecisionService(silent_after=2)
        svc.subscribe(0)
        svc.subscribe(1)
        svc.submit(make_report(1, 0))
        svc.force_close()  # UE 0: miss 1
        svc.submit(make_report(0, 1))
        svc.submit(make_report(1, 1))  # watermark close resets UE 0
        svc.submit(make_report(1, 2))
        svc.force_close()  # UE 0: miss 1 again, not 2
        assert svc.stats.ues_silenced == 0
        assert 0 in svc.scheduler.subscribed

    def test_watermark_closes_never_charge_misses(self):
        svc = DecisionService(silent_after=1)
        svc.subscribe(0)
        svc.subscribe(1)
        for epoch in range(3):
            svc.submit(make_report(0, epoch))
            svc.submit(make_report(1, epoch))
        assert svc.stats.watermark_closes == 3
        assert svc.stats.ues_silenced == 0

    def test_silent_after_validation(self):
        with pytest.raises(ValueError, match="silent_after"):
            DecisionService(silent_after=0)
        with pytest.raises(ValueError, match="silent_policy"):
            DecisionService(silent_after=1, silent_policy="shrug")


# ----------------------------------------------------------------------
# health / readiness
# ----------------------------------------------------------------------
class TestHealth:
    def test_health_flips_ok_to_degraded_on_silencing(self):
        svc = DecisionService(silent_after=1)
        svc.subscribe(0)
        svc.subscribe(1)
        health = svc.health_payload()
        assert health["status"] == "ok" and health["ready"] is True
        assert health["silent_after"] == 1
        assert health["silent_policy"] == "unsubscribe"

        svc.submit(make_report(1, 0))
        svc.force_close()
        health = svc.health_payload()
        assert health["status"] == "degraded"
        assert health["ready"] is True  # degraded still serves
        assert health["ues_silenced"] == 1
        assert health["subscribed"] == 1
        assert health["known_ues"] == 2

    def test_health_policy_none_when_degradation_disabled(self):
        health = DecisionService().health_payload()
        assert health["silent_after"] is None
        assert health["silent_policy"] is None
        assert health["status"] == "ok"

    def test_health_over_the_wire(self):
        async def scenario():
            service = DecisionService(silent_after=3)
            server = ServeServer(service)
            host, port = await server.start()
            try:
                client = await ServeClient(host, port).connect()
                health = await client.health()
                assert health["status"] == "ok"
                assert health["ready"] is True
                assert health["uptime_s"] >= 0.0
                await client.close()
            finally:
                await server.stop()

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# deadline jitter + clock skew: timing-only chaos
# ----------------------------------------------------------------------
JITTER_PLAN = FaultPlan(
    seed=17,
    rules=(
        FaultRule(
            scope="deadline", mode="jitter", magnitude=0.5, repeat=True
        ),
    ),
)


class TestTimingChaos:
    def drive(self, plan):
        """A barriered per-epoch driver: UE 1 reports, UE 0 never does,
        every epoch closes by (possibly jittered) deadline expiry."""
        clock = FakeClock()
        svc = DecisionService(
            epoch_deadline_s=1.0, fault_plan=plan, clock=clock
        )
        listener = svc.attach_listener()
        svc.subscribe(0, speed_kmh=10.0)
        svc.subscribe(1, speed_kmh=10.0)
        waited = []
        for epoch in range(8):
            svc.submit(make_report(1, epoch))
            ticks = 0
            while not svc.deadline_expired():
                clock.now += 0.05
                ticks += 1
                assert ticks < 100, "deadline never fired"
            svc.force_close()
            waited.append(ticks)
        return svc, listener.pop_all(), waited

    def test_jitter_changes_timing_but_not_decisions(self):
        base_svc, base_batches, base_waited = self.drive(None)
        jit_svc, jit_batches, jit_waited = self.drive(JITTER_PLAN)
        # identical decisions and metrics, byte for byte
        assert frozen(jit_batches) == frozen(base_batches)
        assert frozen(jit_svc.metrics()) == frozen(base_svc.metrics())
        # identical close-path counters
        assert jit_svc.stats.forced_closes == base_svc.stats.forced_closes
        assert jit_svc.stats.epochs_closed == base_svc.stats.epochs_closed
        # ... but the watchdog fired at different times
        assert jit_waited != base_waited

    def test_jitter_is_deterministic_per_epoch(self):
        a = DecisionService(epoch_deadline_s=1.0, fault_plan=JITTER_PLAN)
        b = DecisionService(epoch_deadline_s=1.0, fault_plan=JITTER_PLAN)
        deadlines = [a.effective_deadline_s(e) for e in range(12)]
        assert deadlines == [b.effective_deadline_s(e) for e in range(12)]
        assert len(set(deadlines)) > 1
        assert all(0.5 <= d <= 1.5 for d in deadlines)

    def test_effective_deadline_without_plan_is_the_base(self):
        svc = DecisionService(epoch_deadline_s=2.5)
        assert svc.effective_deadline_s() == 2.5
        assert DecisionService().effective_deadline_s() is None

    def test_clock_skew_scales_epoch_age(self):
        clock = FakeClock()
        plan = FaultPlan(
            rules=(FaultRule(scope="clock", mode="skew", magnitude=1.0),)
        )
        svc = DecisionService(
            epoch_deadline_s=10.0, fault_plan=plan, clock=clock
        )
        svc.subscribe(0)
        svc.subscribe(1)
        svc.submit(make_report(0, 0))
        clock.now += 3.0
        # skew magnitude 1.0 doubles elapsed time: 3s looks like 6s
        assert svc.epoch_age_s() == pytest.approx(6.0)
        assert not svc.deadline_expired()
        clock.now += 2.0
        assert svc.epoch_age_s() == pytest.approx(10.0)
        assert svc.deadline_expired()


# ----------------------------------------------------------------------
# the crash-restart supervisor
# ----------------------------------------------------------------------
CRASH_SECOND_EPOCH = FaultPlan(
    seed=3,
    rules=(FaultRule(scope="epoch", mode="crash", after=2),),
)


class TestSupervisor:
    UES = (0, 1, 2)

    def submit_epoch(self, svc, epoch):
        for ue in self.UES:
            svc.submit(make_report(ue, epoch))

    def test_crash_rolls_back_to_epoch_boundary(self):
        svc = SupervisedDecisionService(fault_plan=CRASH_SECOND_EPOCH)
        for ue in self.UES:
            svc.subscribe(ue, speed_kmh=10.0)
        for epoch in range(4):
            self.submit_epoch(svc, epoch)
        assert svc.stats.loop_restarts == 1
        assert svc.stats.reports_dropped_crash == len(self.UES)
        # the crashed epoch is not counted closed; the rest are
        assert svc.stats.epochs_closed == 3
        assert svc.health_payload()["status"] == "degraded"

        # identity: a run where epoch 1's reports never arrived (its
        # close is forced, empty) produces byte-identical metrics
        ref = DecisionService()
        for ue in self.UES:
            ref.subscribe(ue, speed_kmh=10.0)
        self.submit_epoch(ref, 0)
        ref.force_close()  # empty epoch 1
        self.submit_epoch(ref, 2)
        self.submit_epoch(ref, 3)
        assert frozen(svc.metrics()) == frozen(ref.metrics())

    def test_without_supervisor_the_crash_escapes(self):
        svc = SupervisedDecisionService(fault_plan=CRASH_SECOND_EPOCH)
        # the injected fault is real: the unsupervised close raises
        plain = DecisionService(fault_plan=CRASH_SECOND_EPOCH)
        assert isinstance(svc, DecisionService)
        del plain  # the plain service has no epoch-crash wiring at all

        inj = CRASH_SECOND_EPOCH.injector("epoch")
        assert inj.poll() is None
        assert inj.poll() is not None  # the 2nd epoch is the one

    def test_injected_crash_is_catchable_and_typed(self):
        assert issubclass(InjectedCrash, RuntimeError)

    def test_service_keeps_serving_after_restart(self):
        svc = SupervisedDecisionService(fault_plan=CRASH_SECOND_EPOCH)
        for ue in self.UES:
            svc.subscribe(ue, speed_kmh=10.0)
        for epoch in range(6):
            self.submit_epoch(svc, epoch)
        # one crash, every other epoch closed and decided
        assert svc.stats.loop_restarts == 1
        assert svc.stats.epochs_closed == 5
        assert svc.stats.commands_emitted >= 0
        metrics = svc.metrics()
        assert metrics is not None

    def test_subscribes_snapshot_the_engine_at_most_once(self, monkeypatch):
        svc = SupervisedDecisionService(fault_plan=CRASH_SECOND_EPOCH)
        calls = []
        inner = svc.engine.state_dict
        monkeypatch.setattr(
            svc.engine, "state_dict", lambda: calls.append(1) or inner()
        )
        for ue in range(200):
            svc.subscribe(ue, speed_kmh=10.0)
        assert len(calls) <= 1

    def test_a_crash_after_new_subscribes_keeps_them(self):
        """The restore point taken before the crashed sweep holds the
        UEs that subscribed since the last close."""
        svc = SupervisedDecisionService(fault_plan=CRASH_SECOND_EPOCH)
        ref = DecisionService()
        for service in (svc, ref):
            service.subscribe(0, speed_kmh=10.0)
            service.submit(make_report(0, 0))
            for ue in (1, 2):
                service.subscribe(ue, speed_kmh=10.0)
        self.submit_epoch(svc, 1)  # crashes and rolls back
        ref.force_close()  # epoch 1 without its reports
        assert svc.stats.loop_restarts == 1
        assert svc.engine.n_ues == 3
        for service in (svc, ref):
            self.submit_epoch(service, 2)
        assert frozen(svc.metrics()) == frozen(ref.metrics())

    def test_supervised_replay_is_deterministic(self):
        def run():
            svc = SupervisedDecisionService(fault_plan=CRASH_SECOND_EPOCH)
            for ue in self.UES:
                svc.subscribe(ue, speed_kmh=10.0)
            for epoch in range(5):
                self.submit_epoch(svc, epoch)
            return frozen(svc.metrics()), svc.stats.as_dict()

        assert run() == run()
