#!/usr/bin/env python3
"""Distributed fleet execution: one fleet, many hosts, identical physics.

Walks through the distributed executor layer by layer:

1. spawn localhost socket workers (stand-ins for remote hosts — each is
   a real ``python -m repro worker`` subprocess behind a TCP socket);
2. run a sharded fleet over them with :func:`run_fleet(..., hosts=...)`
   and verify the merged metrics are *byte-identical* to the serial
   run;
3. kill a worker mid-shard (``--die-after`` fault injection) and watch
   the lost shard get reissued to the survivor — metrics still
   byte-identical;
4. lose *every* worker and fall back to serial in-process execution —
   a degraded run, not a lost run.

Against real remote hosts the only change is the address list:

    PYTHONPATH=src python -m repro worker --listen 0.0.0.0:7000   # per host
    PYTHONPATH=src python -m repro fleet --ues 100000 --shards 32 \\
        --hosts hostA:7000,hostB:7000

A worker unpickles whatever a peer sends it, and unpickling can run
code, so a worker listens only where every peer that can reach its port
is trusted.

Run:  PYTHONPATH=src python examples/distributed_fleet.py
"""

import time

from repro.sim import (
    DistributedExecutor,
    FleetSpec,
    local_worker_pool,
    run_fleet,
)


def main() -> None:
    spec = FleetSpec(n_ues=200, n_walks=6)

    # ------------------------------------------------------------------
    # 0. The baseline every distributed run must reproduce exactly.
    # ------------------------------------------------------------------
    t0 = time.perf_counter()
    serial = run_fleet(spec, n_shards=1)
    t_serial = time.perf_counter() - t0
    print(f"serial    : {serial.n_handovers} handovers, "
          f"{serial.n_ping_pongs} ping-pongs in {t_serial:.2f} s")

    # ------------------------------------------------------------------
    # 1+2. Socket workers.  Shards are seeded by *global* UE index and
    #      the metrics merge is exact, so it does not matter which
    #      worker computes which shard — or how often a shard moves.
    # ------------------------------------------------------------------
    with local_worker_pool(2) as hosts:
        print(f"workers   : {', '.join(hosts)}")
        t0 = time.perf_counter()
        distributed = run_fleet(spec, n_shards=4, hosts=hosts)
        t_dist = time.perf_counter() - t0
    print(f"distributed: merged in {t_dist:.2f} s, "
          f"byte-identical to serial: {distributed == serial}")
    assert distributed == serial

    # ------------------------------------------------------------------
    # 3. Fault tolerance: worker 0 exits abruptly while handling its
    #    first shard.  The client detects the dead socket, reissues the
    #    shard to the surviving worker, and the merge cannot tell.
    # ------------------------------------------------------------------
    with local_worker_pool(2, die_after=[1, None]) as hosts:
        survived = run_fleet(spec, n_shards=4, hosts=hosts)
    print(f"one worker killed mid-shard -> reissued, identical: "
          f"{survived == serial}")
    assert survived == serial

    # ------------------------------------------------------------------
    # 4. Total cluster loss: both workers die.  The executor degrades
    #    to serial in-process execution instead of losing the run.
    # ------------------------------------------------------------------
    with local_worker_pool(2, die_after=[1, 1]) as hosts:
        fallback = run_fleet(
            spec,
            n_shards=4,
            executor=DistributedExecutor(hosts, backoff_base=0.05),
        )
    print(f"all workers killed -> serial fallback, identical: "
          f"{fallback == serial}")
    assert fallback == serial


if __name__ == "__main__":
    main()
