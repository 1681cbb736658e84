"""Supervised decision serving: restart a crashed decision loop from
the last epoch boundary.

:class:`SupervisedDecisionService` is a drop-in
:class:`~repro.serve.service.DecisionService` that snapshots the
decision engine — its :meth:`~repro.sim.kernel.EpochState.state_dict`
and the UE registry — after every successful epoch close (and before a
sweep that follows registrations), and rolls the engine back to that
snapshot when an epoch sweep raises — whether from a real defect or an
``"epoch"``-scope ``"crash"`` rule in the service's
:class:`~repro.resilience.faults.FaultPlan`.  The crashed epoch's
reports are lost (counted in ``reports_dropped_crash``), the restart is
counted in ``loop_restarts``, and serving continues from the boundary
exactly as if that epoch's reports had never been submitted — the
identity the resilience tests pin.

Injected crashes fire *after* the real engine sweep mutated state, so
the tests prove the rollback actually restores — not that nothing
happened.
"""

from __future__ import annotations

from ..serve.service import DecisionService
from .faults import FaultPlan

__all__ = ["InjectedCrash", "SupervisedDecisionService"]


class InjectedCrash(RuntimeError):
    """Raised by an ``"epoch"``-scope crash rule mid-decision-sweep."""


class SupervisedDecisionService(DecisionService):
    """A :class:`DecisionService` whose decision loop self-heals.

    Accepts every ``DecisionService`` argument.  ``"epoch"``-scope
    ``"crash"`` rules in ``fault_plan`` deterministically crash the
    n-th decision sweep (after its engine mutations), exercising the
    restore path without monkeypatching.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._epoch_injector = (
            self.fault_plan.injector("epoch")
            if self.fault_plan is not None
            else None
        )
        if self._epoch_injector is not None:
            inner = self.engine.step_epoch

            def step_epoch(reports, epoch=None):
                commands = inner(reports, epoch=epoch)
                rule = self._epoch_injector.poll()
                if rule is not None and rule.mode == "crash":
                    # the sweep already mutated engine state — the
                    # supervisor must genuinely roll it back
                    raise InjectedCrash(
                        f"fault plan crashed the decision sweep for "
                        f"epoch {epoch}"
                    )
                return commands

            self.engine.step_epoch = step_epoch  # type: ignore[method-assign]
        # the restore point; None while registrations left it stale
        self._snapshot = None

    # ------------------------------------------------------------------
    def subscribe(self, *args, **kwargs) -> None:
        super().subscribe(*args, **kwargs)
        # nothing else changes the engine before the next sweep, so the
        # restore point is retaken there, once: a snapshot per
        # registration would make N subscribes cost O(N^2)
        self._snapshot = None

    def _close_now(self, watermark: bool) -> int:
        if self._snapshot is None:
            self._snapshot = self.engine.state_dict()
        dropped = self.scheduler.current_report_count()
        try:
            epoch = super()._close_now(watermark)
        except Exception:
            # the scheduler already advanced past the crashed epoch;
            # roll the engine back to the last boundary and keep serving
            self.engine.load_state_dict(self._snapshot)
            self.stats.loop_restarts += 1
            self.stats.reports_dropped_crash += dropped
            self._epoch_opened_at = (
                self._clock()
                if self.scheduler.has_current_reports()
                else None
            )
            return self.scheduler.current_epoch - 1
        self._snapshot = self.engine.state_dict()
        return epoch
