"""The benchmark's four workloads.

Each workload makes everything the program consumes from ``--seed``
during set-up, then runs ``reps`` repetitions of its timed phase, then
checks the outputs against an independent oracle.  The number of
repetitions is fixed before the run (``seconds / rep_s``, rounded, with
``rep_s`` the nominal length of one repetition measured on a 2-vCPU VM
when the benchmark was written), so every run of a workload does the
same work.

Why each workload exists, and the shares of wall time it predicts (one
traced run on that VM), is in each class docstring.  The end-to-end
metrics are the same for all four:

* ``ue_epochs_per_s`` -- UE-epochs simulated (fleet) or reports decided
  (serve) over the wall time of the timed phase;
* ``decision_latency_p50_ms`` / ``_p90_ms`` -- serve: per epoch, from
  the moment epoch k's first report leaves the caller until epoch k's
  commands reach it.  Fleet: per sweep, from the ``run_fleet`` call
  until its metrics return, over the run's repetitions (a sweep decides
  every epoch of every UE at once, so the sweep is the unit a user
  waits for);
* ``peak_rss_mib`` -- high-water RSS of the process doing the work;
* ``setup_s`` -- process start, before ``import repro``, until the timed
  phase can begin.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import socket
import struct
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.system import FuzzyHandoverSystem
from repro.serve import identity_report, service_for_trace
from repro.serve.protocol import decode_payload, encode_frame
from repro.serve.replay import iter_epoch_reports
from repro.sim import (
    POPULATION_MIXES,
    FleetSpec,
    FleetTrace,
    MeasurementSampler,
    PolicyConfig,
    PopulationSpec,
    SimulationParameters,
    Simulator,
    compute_metrics,
    merge_fleet_metrics,
    offline_reference_metrics,
)
from repro.sim import fleet as sim_fleet

from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))

#: UEs of a fleet run whose handover and ping-pong counts are re-derived
#: through the scalar engine on every run.
ORACLE_SAMPLE = 48

#: Physics of the recorded serve traces (6 dB shadowing, reference FLC).
SERVE_PARAMS = SimulationParameters(
    shadow_sigma_db=6.0, flc_backend="reference"
)


def seed_base(seed: int) -> int:
    """First walk seed of a run; fleets of up to 50 000 UEs seeded from
    different ``--seed`` values never share a walk or fading stream."""
    return 10_000_000 + 100_000 * abs(int(seed))


@dataclass
class PassResult:
    """One timed phase: ``reps`` repetitions of the workload."""

    work: int = 0
    wall_s: float = 0.0
    latencies_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    outputs: list = field(default_factory=list)

    def add(self, other: "PassResult") -> None:
        self.work += other.work
        self.wall_s += other.wall_s
        self.latencies_s += other.latencies_s
        self.attempted += other.attempted
        self.failed += other.failed
        self.busy_s += other.busy_s
        self.outputs += other.outputs


class Workload:
    """Set-up, timed phase, correctness gate and teardown of one workload.

    In-process workloads trace with a :class:`Tracer` of their own;
    ``serve_wire`` overrides the tracing hooks to drive the tracer in
    its server process.
    """

    name = ""
    rep_s = 1.0

    def __init__(self, seed: int, traced: bool):
        self.seed = seed
        self.tracer = Tracer() if traced else None
        #: a list collects a tracer snapshot pair around every timed
        #: repetition, so the per-layer split covers exactly the timed
        #: windows (not the untimed steps between repetitions)
        self.windows = None

    @contextlib.contextmanager
    def window(self):
        if self.windows is None:
            yield
            return
        before = self.snapshot()
        yield
        self.windows.append((before, self.snapshot()))

    def set_tracing(self, on: bool) -> None:
        if on:
            self.tracer.install()
        else:
            self.tracer.uninstall()

    def snapshot(self) -> dict:
        return {"t": time.perf_counter(), **self.tracer.snapshot()}

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# fleet sweeps
# ----------------------------------------------------------------------
def scalar_counts(params, trace, fading, system, speed_kmh) -> tuple[int, int]:
    """Handovers and ping-pongs of one UE through the scalar engine."""
    sampler = MeasurementSampler(
        params.make_layout(),
        params.make_propagation(),
        spacing_km=params.measurement_spacing_km,
        fading=fading,
    )
    result = Simulator(system, speed_kmh=speed_kmh).run(sampler.measure(trace))
    metrics = compute_metrics(result)
    return metrics.n_handovers, metrics.n_ping_pongs


class FleetWorkload(Workload):
    def setup(self) -> None:
        self.spec = self.make_spec()
        # compile every FLC the sweep uses (the LUT on fleet_paper)
        for system in self.systems():
            system.decision_outputs_batch(np.zeros(1), np.zeros(1), np.ones(1))

    def run_pass(self, reps: int) -> PassResult:
        out = PassResult(attempted=reps * self.spec.n_ues)
        for _ in range(reps):
            with self.window():
                t0 = time.perf_counter()
                try:
                    out.outputs.append(sim_fleet.run_fleet(self.spec))
                except Exception:
                    traceback.print_exc()
                    out.failed += self.spec.n_ues
                out.latencies_s.append(time.perf_counter() - t0)
        out.wall_s = sum(out.latencies_s)
        out.work = sum(int(m.n_epochs_total) for m in out.outputs)
        return out

    def finish(self, passes: list[PassResult]) -> tuple[list[str], int]:
        runs = [m for p in passes for m in p.outputs]
        failed = sum(p.failed for p in passes)
        if not runs:
            return ["no fleet run completed"], failed
        first = runs[0]
        problems = [
            f"repeat run {r} differs: {problem}"
            for r, other in enumerate(runs[1:], start=1)
            for problem in identity_report(first, other)
        ]
        rng = np.random.default_rng(self.seed)
        sample = rng.choice(self.spec.n_ues, size=ORACLE_SAMPLE, replace=False)
        for i in sorted(int(i) for i in sample):
            want = self.scalar_oracle(i)
            got = (
                int(first.handovers_per_ue[i]),
                int(first.ping_pongs_per_ue[i]),
            )
            if got != want:
                problems.append(
                    f"UE {i}: fleet (handovers, ping-pongs) {got} != "
                    f"scalar oracle {want}"
                )
        return problems, failed


class FleetPaper(FleetWorkload):
    """``run_fleet`` on a homogeneous paper fleet: the large-sweep case.

    N = 20 000 UEs on the paper's random walk (10 legs) and speed cycle,
    no fading, LUT FLC, one in-process shard: about 2.5 M UE-epochs per
    sweep.  Measured shares of the traced wall (predicted in brackets):
    mobility generate 10 % (8 %) and densify 36 % (36 %, ROADMAP hot spot
    (b)), pathloss kernel 29 % (30 %), FLC 9 % (10 %: the LUT bulk plus
    the reference re-evaluation of a 7 % guard band), epoch loop 8 %
    (9 %), metrics 5 % (5 %).  The 1.2-1.7 s LUT build is in ``setup_s``
    (hot spot (c)).  Fading, populations and serve never run.
    """

    name = "fleet_paper"
    rep_s = 11.5
    n_ues = 20_000

    def make_spec(self) -> FleetSpec:
        return FleetSpec(
            n_ues=self.n_ues,
            n_walks=10,
            base_seed=seed_base(self.seed),
            params=SimulationParameters(flc_backend="lut"),
        )

    def systems(self):
        return [self.spec.make_system()]

    def scalar_oracle(self, i: int) -> tuple[int, int]:
        spec = self.spec
        params = spec.params
        walk = params.make_walk(spec.n_walks)
        trace = walk.generate_seeded(spec.base_seed + i)
        system = FuzzyHandoverSystem(
            cell_radius_km=params.cell_radius_km, flc_backend="reference"
        )
        speed = float(spec.ue_speeds(i, i + 1)[0])
        return scalar_counts(params, trace, None, system, speed)


_URBAN = {c.name: c for c in POPULATION_MIXES["urban_mix"]}

#: urban_mix with per-cohort fading and a vehicular policy override:
#: pedestrians inherit the population's 6 dB.
URBAN_COHORTS = (
    _URBAN["pedestrian"],
    replace(
        _URBAN["vehicular"],
        shadow_sigma_db=8.0,
        policy=PolicyConfig(threshold=0.75),
    ),
    replace(_URBAN["stationary"], shadow_sigma_db=4.0),
)


class FleetUrbanFading(FleetWorkload):
    """``run_fleet`` on a 3-cohort population with per-UE fading.

    N = 4 000 UEs of urban_mix: pedestrians (random walk, 50 %), vehicles
    (Manhattan grid, 30 %, 8 dB and a threshold override) and stationary
    micro-mobility (20 %, 4 dB); 6 dB population fading, reference FLC:
    about 286 k UE-epochs per sweep.  The same engine used differently:
    the per-UE fading stream (39 % of the traced wall; predicted 36 %),
    the reference FLC (16 %; predicted 15 %) and the policy-group split
    and reassembly (5 %) do the work.  Mobility plus pathloss is 31 %
    (predicted 37 %) of wall here against 75 % on fleet_paper, so a
    fading gain shows only here and a densify gain moves this workload
    about half as much.
    """

    name = "fleet_urban_fading"
    rep_s = 3.5
    n_ues = 4_000

    def make_spec(self) -> FleetSpec:
        base = seed_base(self.seed)
        population = PopulationSpec(
            n_ues=self.n_ues,
            cohorts=URBAN_COHORTS,
            params=SimulationParameters(
                shadow_sigma_db=6.0, flc_backend="reference"
            ),
            base_seed=base,
            fading_base_seed=base + 50_000,
            speed_base_seed=base + 80_000,
        )
        return FleetSpec.from_population(population)

    def systems(self):
        population = self.spec.population
        return [
            population.make_system(policy)
            for policy, _ in population.policy_groups()
        ]

    def scalar_oracle(self, g: int) -> tuple[int, int]:
        population = self.spec.population
        cohort = next(
            c for c, lo, hi in population.cohort_slices() if lo <= g < hi
        )
        trace = cohort.model.generate_seeded(population.base_seed + g)
        profiles = population.fading_profiles(g, g + 1)
        fading = None if profiles is None else profiles[0]
        speed = float(population.ue_speeds(g, g + 1)[0])
        return scalar_counts(
            population.params,
            trace,
            fading,
            population.make_system(cohort.policy),
            speed,
        )


# ----------------------------------------------------------------------
# the decision service
# ----------------------------------------------------------------------
def record_trace(n_ues: int, n_walks: int, seed: int) -> FleetTrace:
    base = seed_base(seed)
    return FleetTrace.record(
        FleetSpec(
            n_ues=n_ues,
            n_walks=n_walks,
            base_seed=base,
            fading_base_seed=base + 50_000,
            params=SERVE_PARAMS,
        )
    )


def epoch_plan(trace: FleetTrace) -> list:
    """``(epoch, reports, finished)`` per epoch of a closed-loop replay:
    the epoch's reports in UE order, then the UEs whose walk ends there
    (unsubscribed after the epoch, except in the last one), as
    ``replay_in_process`` does."""
    lengths = np.asarray(trace.lengths)
    return [
        (
            k,
            reports,
            [r.ue for r in reports if lengths[r.ue] == k + 1]
            if k + 1 < trace.max_epochs
            else [],
        )
        for k, reports in iter_epoch_reports(trace)
    ]


class ServeInProc(Workload):
    """A recorded trace replayed through an in-process ``DecisionService``.

    N = 1 200 UEs, 7 walk legs, 6 dB fading: about 106 k reports over 124
    epochs, pre-built as ``Report`` objects during set-up.  One caller
    drives a closed loop epoch by epoch and unsubscribes each UE after
    its last report.  This measures the service's capacity: the watermark
    scan (``EpochScheduler.watermark_reached``) alone is 86 % of the
    traced wall at this N (predicted 77 %; ROADMAP hot spot (a)).  No
    mobility or radio code runs in the timed phase.
    """

    name = "serve_inproc"
    rep_s = 8.0
    n_ues, n_walks = 1_200, 7

    def setup(self) -> None:
        self.trace = record_trace(self.n_ues, self.n_walks, self.seed)
        self.plan = epoch_plan(self.trace)
        self.service = service_for_trace(self.trace)

    def run_pass(self, reps: int) -> PassResult:
        out = PassResult()
        for _ in range(reps):
            service, self.service = self.service, None
            if service is None:
                service = service_for_trace(self.trace)
            listener = service.attach_listener()
            submit, unsubscribe = service.submit, service.unsubscribe
            batches, late = [], 0
            with self.window():
                t_rep = time.perf_counter()
                for k, reports, finished in self.plan:
                    t0 = time.perf_counter()
                    for report in reports:
                        submit(report)
                    out.latencies_s.append(time.perf_counter() - t0)
                    closed = listener.pop_all()
                    late += [b.epoch for b in closed] != [k]
                    batches += closed
                    for ue in finished:
                        unsubscribe(ue)
                while service.scheduler.has_current_reports():
                    service.force_close()
                out.wall_s += time.perf_counter() - t_rep
            batches.extend(listener.pop_all())
            sent = sum(len(reports) for _, reports, _ in self.plan)
            stats = service.stats
            out.work += stats.reports_accepted
            out.attempted += sent
            out.failed += (
                sent - stats.reports_accepted
                + stats.commands_dropped + stats.transport_errors
            )
            out.outputs.append((service.metrics(), batches, late))
        return out

    def finish(self, passes: list[PassResult]) -> tuple[list[str], int]:
        reference = offline_reference_metrics(self.trace)
        problems = []
        for metrics, batches, late in (o for p in passes for o in p.outputs):
            problems += identity_report(reference, metrics)
            if late:
                problems.append(
                    f"{late} epochs did not close on their last report"
                )
            counts = np.zeros(self.trace.n_ues, dtype=np.intp)
            for batch in batches:
                for command in batch.commands:
                    counts[command.ue] += 1
            if not np.array_equal(counts, reference.handovers_per_ue):
                problems.append("per-UE command counts differ from the "
                                "offline handovers")
        return problems, sum(p.failed for p in passes)


@dataclass
class _Block:
    """One repetition's frames (fresh UE ids and epochs)."""

    subscribe: bytes
    epochs: list
    n_unsubscribed: int
    tail: bytes
    n_tail: int


def _json_frame(body: str) -> bytes:
    """``encode_frame(message, "json")`` for an already-rendered body."""
    data = body.encode("utf-8")
    return struct.pack(">I", len(data) + 1) + b"J" + data


class ServeWire(Workload):
    """The same kind of trace sent over TCP to a server in its own process.

    N = 300 UEs, 12 walk legs: about 45 k reports over about 190 epochs
    per repetition, sent as JSON frames.  One client holds two
    connections, one for reports and one for ``listen``; the loop is
    closed per epoch: send all of epoch k, wait for epoch k's
    ``commands`` frame, then send k+1.  Each repetition uses fresh UE
    ids.  This is the only workload where ``serve.protocol`` and
    ``serve.server`` run (frame decode, Report validation, asyncio,
    fan-out); at this fleet size ingest is smaller (24 % of the traced
    wall), so an ingest change that helps large N but costs small N shows
    here.  Of about 70 us per report (traced), decode takes 14 us,
    validation 12 us and the server's own asyncio work 8 us (predicted:
    83, 26 and 19 us, measured with one frame per send).  The server
    is the ``DecisionService``/``ServeServer`` pair ``repro serve``
    builds, started by ``serve_server.py``.

    Set-up renders every report's JSON once; before each repetition
    (untimed) the repetition's UE ids and epochs are spliced in, which
    gives exactly the bytes ``encode_frame`` writes (checked once per
    repetition).
    """

    name = "serve_wire"
    rep_s = 3.0
    n_ues, n_walks = 300, 12

    def __init__(self, seed, traced):
        super().__init__(seed, traced=False)
        self.traced = traced
        self.server = None
        self.socks = []
        self.next_block = 0

    # -- server control ------------------------------------------------
    def _control(self, command: str) -> dict:
        self.server.stdin.write(command + "\n")
        self.server.stdin.flush()
        return json.loads(self.server.stdout.readline())

    def set_tracing(self, on: bool) -> None:
        if self.server is not None:
            self._control("on" if on else "off")

    def snapshot(self) -> dict:
        return self._control("snap")

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.server.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("server VmHWM not found")

    # -- set-up --------------------------------------------------------
    def setup(self) -> None:
        self.server = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve_server.py")]
            + (["--trace"] if self.traced else []),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        # the server imports and builds its service while we record
        self.trace = record_trace(self.n_ues, self.n_walks, self.seed)
        self.plan = epoch_plan(self.trace)
        # each report's JSON after its "epoch" field, rendered once
        self.bodies = [
            [
                json.dumps({
                    key: value for key, value in r.to_payload().items()
                    if key not in ("type", "ue", "epoch")
                })[1:]
                for r in reports
            ]
            for _k, reports, _finished in self.plan
        ]
        block = self._block(0)
        announce = self.server.stdout.readline().split()
        if announce[:2] != ["serving", "on"]:
            raise RuntimeError(f"server did not start: {announce}")
        host, port = announce[2].rsplit(":", 1)
        for _ in range(2):
            sock = socket.create_connection((host, int(port)), timeout=60)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.socks.append(sock)
        self.reports, self.listen = self.socks
        self.rfile = self.reports.makefile("rb")
        self.lfile = self.listen.makefile("rb")
        self.listen.sendall(encode_frame({"type": "listen"}, "json"))
        self._expect_ok(self.lfile, 1)
        self._subscribe(block)
        self.block = block

    def _block(self, b: int) -> _Block:
        trace, n = self.trace, self.n_ues
        ue0, epoch0 = b * n, b * trace.max_epochs

        def frame(message):
            return encode_frame(message, "json")

        epochs = []
        n_unsubscribed = 0
        for (k, reports, finished), bodies in zip(self.plan, self.bodies):
            epoch = f', "epoch": {epoch0 + k}, '
            frames = [
                _json_frame('{"type": "report", "ue": ' + str(ue0 + r.ue)
                            + epoch + body)
                for r, body in zip(reports, bodies)
            ]
            frames += [frame({"type": "unsubscribe", "ue": ue0 + u})
                       for u in finished]
            n_unsubscribed += len(finished)
            epochs.append(b"".join(frames))
        first = self.plan[0][1][0]
        if not epochs[0].startswith(frame(
            {**first.to_payload(), "ue": ue0 + first.ue, "epoch": epoch0}
        )):
            raise RuntimeError(
                "spliced report frame differs from encode_frame"
            )
        still = [i for i in range(n) if trace.lengths[i] == trace.max_epochs]
        return _Block(
            subscribe=b"".join(
                frame({"type": "subscribe", "ue": ue0 + i,
                       "speed_kmh": float(trace.speeds_kmh[i])})
                for i in range(n)
            ),
            epochs=epochs,
            n_unsubscribed=n_unsubscribed,
            tail=b"".join(frame({"type": "unsubscribe", "ue": ue0 + i})
                          for i in still),
            n_tail=len(still),
        )

    # -- wire helpers --------------------------------------------------
    @staticmethod
    def _recv(fh) -> dict:
        header = fh.read(4)
        if len(header) < 4:
            raise ConnectionError("server closed the connection")
        (length,) = struct.unpack(">I", header)
        message, _codec = decode_payload(fh.read(length))
        if message.get("type") == "error":
            raise RuntimeError(f"server error: {message.get('error')}")
        return message

    def _expect_ok(self, fh, count: int) -> None:
        for _ in range(count):
            reply = self._recv(fh)
            if reply.get("type") != "ok":
                raise RuntimeError(f"expected an ack, got {reply}")

    def _subscribe(self, block: _Block) -> None:
        self.reports.sendall(block.subscribe)
        self._expect_ok(self.rfile, self.n_ues)

    def _request(self, kind: str) -> dict:
        self.reports.sendall(encode_frame({"type": kind}, "json"))
        return self._recv(self.rfile)

    # -- timed phase ---------------------------------------------------
    def run_pass(self, reps: int) -> PassResult:
        out = PassResult()
        n, t_max = self.n_ues, self.trace.max_epochs
        for _ in range(reps):
            b = self.next_block
            self.next_block += 1
            block, self.block = self.block, None
            if block is None:
                block = self._block(b)
                self._subscribe(block)
            counts = np.zeros(n, dtype=np.intp)
            ue0, epoch0 = b * n, b * t_max
            with self.window():
                cpu0, t_rep = time.process_time(), time.perf_counter()
                for k, blob in enumerate(block.epochs):
                    t0 = time.perf_counter()
                    self.reports.sendall(blob)
                    message = self._recv(self.lfile)
                    if message.get("epoch") != epoch0 + k:
                        raise RuntimeError(
                            f"expected commands of epoch {epoch0 + k}, "
                            f"got {message}"
                        )
                    out.latencies_s.append(time.perf_counter() - t0)
                    for command in message["commands"]:
                        counts[command["ue"] - ue0] += 1
                out.wall_s += time.perf_counter() - t_rep
                out.busy_s += time.process_time() - cpu0
            self._expect_ok(self.rfile, block.n_unsubscribed)
            self.reports.sendall(block.tail)
            self._expect_ok(self.rfile, block.n_tail)
            sent = int(np.sum(self.trace.lengths))
            out.work += sent
            out.attempted += sent
            out.outputs.append(counts)
        return out

    def finish(self, passes: list[PassResult]) -> tuple[list[str], int]:
        stats = self._request("stats")["stats"]
        served = self._request("metrics")["metrics"]
        reference = offline_reference_metrics(self.trace)
        problems = [
            f"repetition {r}: per-UE command counts differ from the "
            "offline handovers"
            for r, counts in enumerate(o for p in passes for o in p.outputs)
            if not np.array_equal(counts, reference.handovers_per_ue)
        ]
        # the served summary covers every repetition's UEs, in
        # subscription order: the offline metrics repeated per block
        blocks = merge_fleet_metrics([reference] * self.next_block).as_dict()
        if json.dumps(served, sort_keys=True) != json.dumps(
            json.loads(json.dumps(blocks)), sort_keys=True
        ):
            problems.append(f"served metrics {served} != offline {blocks}")
        sent = sum(p.attempted for p in passes)
        failed = (
            sent - stats["reports_accepted"]
            + stats["commands_dropped"] + stats["transport_errors"]
        )
        return problems, failed

    def close(self) -> None:
        for sock in self.socks:
            sock.close()
        if self.server is not None:
            self.server.stdin.close()
            try:
                self.server.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()


WORKLOADS = {
    w.name: w for w in (FleetPaper, FleetUrbanFading, ServeInProc, ServeWire)
}
