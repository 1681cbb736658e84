"""Per-layer spans for the traced benchmark run.

The program has no spans of its own yet, so this module times calls into
each layer's public entry points from outside: :meth:`Tracer.install`
swaps those attributes for timing wrappers and :meth:`Tracer.uninstall`
puts the originals back.  Spans nest by call stack, and a layer's self
time is its span minus the spans of the wrapped calls it made.  A call
into a layer that is already the innermost open span (a batch generator
calling its per-seed generator, a listener push inside ``submit``) folds
into that span instead of opening a new one.

:data:`LAYER_RATIONALE` names every metric the traced run prints, with
the end-to-end metric and workload it should move.  Later performance
changes cite these names.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict


#: What each per-layer metric of the traced run should move: the
#: end-to-end metric and workload.  Percentages are shares of the traced
#: wall time measured when the benchmark was written (2-vCPU VM, one
#: traced run per workload); "predicted" marks the share the benchmark's
#: design expected where the two differ.  Units and directions are in
#: ``BENCHMARK.json``.
LAYER_RATIONALE: dict[str, str] = {
    "mobility.generate_s": (
        "ue_epochs_per_s on fleet_paper (10%) more than on "
        "fleet_urban_fading (5%); setup_s on the serve workloads"
    ),
    "mobility.densify_s": (
        "ue_epochs_per_s on fleet_paper (36%) about twice as much as on "
        "fleet_urban_fading (16%); ROADMAP hot spot (b)"
    ),
    "mobility.points": (
        "work count for the two mobility times (densified points)"
    ),
    "radio.pathloss_s": (
        "ue_epochs_per_s on fleet_paper (29%) and fleet_urban_fading (10%)"
    ),
    "radio.pathloss_calls": "work count for pathloss_s",
    "radio.fading_s": (
        "ue_epochs_per_s on fleet_urban_fading only (39%, predicted 36%)"
    ),
    "radio.fading_calls": "work count for fading_s",
    "fuzzy.lut_build_s": (
        "setup_s on fleet_paper (the cold LUT build, about 1.5 s, measured "
        "over set-up and the timed phase); hot spot (c)"
    ),
    "fuzzy.lut_builds": (
        "LUT compiles in the process; 1 on fleet_paper, 0 elsewhere"
    ),
    "fuzzy.eval_s": (
        "ue_epochs_per_s on fleet_urban_fading (reference FLC, 16%) and "
        "fleet_paper (LUT bulk plus guard-band re-evaluation, 9%); decision "
        "latency on serve_wire (8%)"
    ),
    "fuzzy.lut_samples": "samples evaluated by the LUT",
    "fuzzy.reference_samples": (
        "samples evaluated by the reference FLC (guard band included)"
    ),
    "core.decide_s": (
        "ue_epochs_per_s on fleet_paper: decision_outputs_batch minus its "
        "FLC calls (the guard-band masking, under 1%)"
    ),
    "core.flc_samples": "decision samples (bulk)",
    "core.guard_band_samples": (
        "decision samples re-evaluated through the reference FLC"
    ),
    "core.guard_band_ratio": (
        "guard-band samples over bulk samples: the LUT's wasted work (7% on "
        "fleet_paper)"
    ),
    "sim.batch.loop_self_s": (
        "ue_epochs_per_s and sweep latency on fleet_paper (8%) and "
        "fleet_urban_fading (6%)"
    ),
    "sim.batch.tiles": "measurement tiles stepped",
    "sim.metrics.accumulate_s": "ue_epochs_per_s on fleet_paper (5%)",
    "sim.metrics.merge_s": "ue_epochs_per_s on the fleets",
    "sim.population.self_s": (
        "ue_epochs_per_s on fleet_urban_fading only (5%: the policy-group "
        "split and reassembly)"
    ),
    "sim.population.policy_groups": "batch passes per population run",
    "sim.fleet.self_s": "ue_epochs_per_s on the fleets (2% of fleet_paper)",
    "serve.epochs.ingest_s": (
        "ue_epochs_per_s and both latencies on serve_inproc (87%, predicted "
        "77%) and serve_wire (24%); hot spot (a)"
    ),
    "serve.epochs.watermark_s": (
        "the watermark scans inside ingest_s, hot spot (a) itself (86% of "
        "serve_inproc, 22% of serve_wire)"
    ),
    "serve.epochs.watermark_checks": "watermark_reached calls",
    "serve.epochs.close_s": "both latencies on serve",
    "serve.epochs.not_accepted": (
        "reports the scheduler did not accept (0 when healthy)"
    ),
    "serve.engine.decide_s": (
        "decision latency on serve_wire (7%) more than on serve_inproc (4%)"
    ),
    "serve.engine.steps": "epoch sweeps",
    "serve.engine.reports_per_step": "fleet size each sweep saw",
    "serve.service.self_s": "decision latency on both serve workloads (4-6%)",
    "serve.service.commands": "handover commands fanned out",
    "serve.service.commands_shed": (
        "commands shed by full listeners (0 when healthy)"
    ),
    "serve.protocol.decode_s": (
        "ue_epochs_per_s and latency on serve_wire only (21%)"
    ),
    "serve.protocol.encode_s": "serve_wire only (1.5%)",
    "serve.protocol.validate_s": (
        "ue_epochs_per_s on serve_wire only (17%, Report.from_payload)"
    ),
    "serve.protocol.frames": "frames decoded by the server",
    "serve.server.self_s": (
        "serve_wire only (11%): server busy time not spent in a wrapped "
        "layer (asyncio streams, dispatch)"
    ),
    "serve.server.idle_s": (
        "serve_wire only (3%): server loop waiting in select for the load "
        "generator"
    ),
    "serve.server.transport_errors": (
        "frames the server could not read (0 when healthy)"
    ),
    "loadgen.busy_s": (
        "serve_wire only: load generator CPU time (3% of wall); near the "
        "wall time would mean the generator, not the server, limits "
        "throughput"
    ),
    "traced_wall_s": "wall time of the traced timed phase",
    "unattributed_s": (
        "traced wall minus the summed self times (serve_wire: minus the "
        "server's busy and idle time)"
    ),
    "tracing_overhead_s": (
        "traced wall minus the wall of the same run's interleaved untraced "
        "repetitions"
    ),
}


class Tracer:
    """Accumulates self time, call counts and work counters per span."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        # open spans, innermost last: [name, child seconds, wrapped calls made]
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        from repro.fuzzy.compiled import lut_build_count

        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": {**self.counts, "fuzzy.lut_builds": lut_build_count()},
        }

    def _wrap(self, fn, span, fold=(), hook=None):
        stack = self._stack
        fold = {span, *fold}
        self_s, calls = self.self_s, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] in fold:
                result = fn(*args, **kwargs)
            else:
                frame = [span, 0.0, 0]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - t0
                    stack.pop()
                    self_s[span] += elapsed - frame[1]
                    calls[span] += 1
                    if parent is not None:
                        parent[1] += elapsed
                        parent[2] += 1
            if hook is not None:
                hook(parent, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        return traced

    def _patch(self, owner, attr, span, fold=(), hook=None) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, span, fold, hook))
        else:
            wrapped = self._wrap(raw, span, fold, hook)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        """Wrap every layer's public entry points (idempotent)."""
        if self._saved:
            return
        from repro.core.system import FuzzyHandoverSystem
        from repro.fuzzy import compiled
        from repro.fuzzy.controller import FuzzyController
        from repro.mobility.base import TraceBatch
        from repro.mobility.gauss_markov import GaussMarkov
        from repro.mobility.manhattan import ManhattanGrid
        from repro.mobility.random_walk import RandomWalk
        from repro.mobility.waypoint import RandomWaypoint
        from repro.radio.fading import ShadowFading, ShadowFadingStream
        from repro.radio.propagation import PropagationModel
        from repro.serve import protocol
        from repro.serve.engine import StreamingFleetEngine
        from repro.serve.epochs import EpochScheduler
        from repro.serve.service import CommandListener, DecisionService
        from repro.sim import fleet
        from repro.sim.batch import BatchSimulator
        from repro.sim.metrics import FleetMetricsAccumulator
        from repro.sim.population import PopulationSpec

        counts = self.counts

        def points(parent, args, kwargs, result):
            counts["mobility.points"] += int(result.lengths.sum())

        def flc_samples(parent, args, kwargs, result):
            counts["core.flc_samples"] += len(args[1])

        def eval_samples(parent, args, kwargs, result):
            if parent is not None and parent[0] == "fuzzy.lut_build":
                return  # table sampling is part of the LUT build
            backend = kwargs.get("backend", args[2] if len(args) > 2 else None)
            backend = compiled.resolve_flc_backend(
                args[0].backend if backend is None else backend
            )
            kind = "lut" if backend == "lut" else "reference"
            counts[f"fuzzy.{kind}_samples"] += len(result)
            # decision_outputs_batch: its first FLC call is the bulk, a
            # second one the reference re-evaluation of the guard band
            in_decide = parent is not None and parent[0] == "core.decide"
            if in_decide and parent[2] > 1:
                counts["core.guard_band_samples"] += len(result)

        def tiles(parent, args, kwargs, result):
            source = args[1]
            k = getattr(source, "tile_epochs", source.max_epochs)
            counts["sim.batch.tiles"] += math.ceil(source.max_epochs / k)
            if parent is not None and parent[0] == "sim.population":
                counts["sim.population.policy_groups"] += 1

        def offered(parent, args, kwargs, result):
            counts["serve.epochs.not_accepted"] += result != "accepted"

        def stepped(parent, args, kwargs, result):
            counts["serve.engine.reports"] += len(args[1])

        def pushed(parent, args, kwargs, result):
            counts["serve.service.commands"] += len(args[1].commands)
            counts["serve.service.commands_shed"] += result

        patch = self._patch
        for model in (RandomWalk, ManhattanGrid, GaussMarkov, RandomWaypoint):
            patch(model, "generate_seeded", "mobility.generate")
        patch(RandomWalk, "generate_batch_seeded", "mobility.generate")
        patch(TraceBatch, "densify", "mobility.densify", hook=points)
        patch(PropagationModel, "power_from_sites_batch", "radio.pathloss")
        patch(ShadowFadingStream, "sample_next", "radio.fading")
        patch(ShadowFading, "sample_along", "radio.fading")
        patch(compiled, "build_lut", "fuzzy.lut_build")
        patch(FuzzyController, "evaluate_batch", "fuzzy.eval",
              fold=("fuzzy.lut_build",), hook=eval_samples)
        patch(FuzzyHandoverSystem, "decision_outputs_batch", "core.decide",
              hook=flc_samples)
        patch(BatchSimulator, "run_metrics", "sim.batch", hook=tiles)
        for callback in ("begin", "on_stage_masks", "on_flc", "on_handover",
                         "end_epoch", "finalize"):
            patch(FleetMetricsAccumulator, callback, "sim.metrics.accumulate")
        patch(fleet, "merge_fleet_metrics", "sim.metrics.merge")
        patch(PopulationSpec, "run_metrics", "sim.population")
        patch(fleet, "run_fleet", "sim.fleet")
        patch(EpochScheduler, "offer", "serve.epochs.ingest", hook=offered)
        patch(EpochScheduler, "has_current_reports", "serve.epochs.ingest")
        patch(EpochScheduler, "watermark_reached", "serve.epochs.watermark")
        patch(EpochScheduler, "close_epoch", "serve.epochs.close")
        patch(StreamingFleetEngine, "step_epoch", "serve.engine", hook=stepped)
        for method in ("submit", "unsubscribe", "force_close"):
            patch(DecisionService, method, "serve.service")
        patch(CommandListener, "push", "serve.service", hook=pushed)
        patch(protocol, "decode_payload", "serve.protocol.decode")
        patch(protocol, "encode_frame", "serve.protocol.encode")
        patch(protocol.Report, "from_payload", "serve.protocol.validate")

    def uninstall(self) -> None:
        """Restore every wrapped attribute, innermost patch first."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def window_totals(windows: list) -> dict:
    """Summed ``after - before`` over ``(before, after)`` snapshot pairs
    taken around the timed repetitions."""
    total: dict = {}
    for before, after in windows:
        for key, value in after.items():
            if isinstance(value, dict):
                part = total.setdefault(key, {})
                for name, v in value.items():
                    part[name] = (
                        part.get(name, 0) + v - before[key].get(name, 0)
                    )
            else:
                total[key] = total.get(key, 0) + value - before[key]
    return total


def layer_values(window: dict, whole_run: dict, wall_s: float,
                 untraced_wall_s: float, extra: dict) -> dict[str, float]:
    """Every :data:`LAYER_RATIONALE` metric's value.

    ``window`` is the :func:`window_totals` of the traced timed phase,
    ``whole_run`` the snapshot at its end (the LUT build happens during
    set-up).  ``extra`` carries the values measured outside the tracer
    (server idle time, load generator busy time); layers that did not
    run read 0.
    """
    s, c, n = window["self_s"], window["calls"], window["counts"]
    server_self = extra.get("serve.server.self_s", 0.0)
    attributed = (
        sum(s.values()) + server_self + extra.get("serve.server.idle_s", 0.0)
    )
    steps = c.get("serve.engine", 0)
    flc = n.get("core.flc_samples", 0)
    values = {
        "mobility.generate_s": s.get("mobility.generate", 0.0),
        "mobility.densify_s": s.get("mobility.densify", 0.0),
        "mobility.points": n.get("mobility.points", 0),
        "radio.pathloss_s": s.get("radio.pathloss", 0.0),
        "radio.pathloss_calls": c.get("radio.pathloss", 0),
        "radio.fading_s": s.get("radio.fading", 0.0),
        "radio.fading_calls": c.get("radio.fading", 0),
        "fuzzy.lut_build_s": whole_run["self_s"].get("fuzzy.lut_build", 0.0),
        "fuzzy.lut_builds": whole_run["counts"]["fuzzy.lut_builds"],
        "fuzzy.eval_s": s.get("fuzzy.eval", 0.0),
        "fuzzy.lut_samples": n.get("fuzzy.lut_samples", 0),
        "fuzzy.reference_samples": n.get("fuzzy.reference_samples", 0),
        "core.decide_s": s.get("core.decide", 0.0),
        "core.flc_samples": flc,
        "core.guard_band_samples": n.get("core.guard_band_samples", 0),
        "core.guard_band_ratio": (
            n.get("core.guard_band_samples", 0) / flc if flc else 0.0
        ),
        "sim.batch.loop_self_s": s.get("sim.batch", 0.0),
        "sim.batch.tiles": n.get("sim.batch.tiles", 0),
        "sim.metrics.accumulate_s": s.get("sim.metrics.accumulate", 0.0),
        "sim.metrics.merge_s": s.get("sim.metrics.merge", 0.0),
        "sim.population.self_s": s.get("sim.population", 0.0),
        "sim.population.policy_groups": n.get(
            "sim.population.policy_groups", 0
        ),
        "sim.fleet.self_s": s.get("sim.fleet", 0.0),
        "serve.epochs.ingest_s": (
            s.get("serve.epochs.ingest", 0.0)
            + s.get("serve.epochs.watermark", 0.0)
        ),
        "serve.epochs.watermark_s": s.get("serve.epochs.watermark", 0.0),
        "serve.epochs.watermark_checks": c.get("serve.epochs.watermark", 0),
        "serve.epochs.close_s": s.get("serve.epochs.close", 0.0),
        "serve.epochs.not_accepted": n.get("serve.epochs.not_accepted", 0),
        "serve.engine.decide_s": s.get("serve.engine", 0.0),
        "serve.engine.steps": steps,
        "serve.engine.reports_per_step": (
            n.get("serve.engine.reports", 0) / steps if steps else 0.0
        ),
        "serve.service.self_s": s.get("serve.service", 0.0),
        "serve.service.commands": n.get("serve.service.commands", 0),
        "serve.service.commands_shed": n.get("serve.service.commands_shed", 0),
        "serve.protocol.decode_s": s.get("serve.protocol.decode", 0.0),
        "serve.protocol.encode_s": s.get("serve.protocol.encode", 0.0),
        "serve.protocol.validate_s": s.get("serve.protocol.validate", 0.0),
        "serve.protocol.frames": c.get("serve.protocol.decode", 0),
        "serve.server.self_s": server_self,
        "serve.server.idle_s": extra.get("serve.server.idle_s", 0.0),
        "serve.server.transport_errors": extra.get(
            "serve.server.transport_errors", 0
        ),
        "loadgen.busy_s": extra.get("loadgen.busy_s", 0.0),
        "traced_wall_s": wall_s,
        "unattributed_s": wall_s - attributed,
        "tracing_overhead_s": wall_s - untraced_wall_s,
    }
    assert values.keys() == LAYER_RATIONALE.keys()
    return values
