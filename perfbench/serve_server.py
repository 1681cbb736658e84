"""The decision server of the ``serve_wire`` workload.

Builds the ``DecisionService``/``ServeServer`` pair that ``repro serve``
builds, announces ``serving on host:port`` on stdout, and serves until
its stdin closes.  Tracing runs here, in the process doing the work:
``--trace`` wraps the layers from start-up (set-up included), and stdin
lines control it while serving.  Each is answered with one JSON line:
the tracer's totals, the time the event loop spent idle in ``select``
and the service's transport errors.

``on`` / ``off``
    install or remove the layer wrappers, then answer;
``snap``
    only answer.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.serve import DecisionService, ServeServer  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import SERVE_PARAMS  # noqa: E402


async def serve(tracer: Tracer) -> None:
    service = DecisionService(SERVE_PARAMS)
    server = ServeServer(service, "127.0.0.1", 0)
    host, port = await server.start()
    loop = asyncio.get_running_loop()
    # the loop is idle exactly while its selector blocks
    idle = [0.0]
    select = loop._selector.select

    def timed_select(timeout=None):
        t0 = time.perf_counter()
        try:
            return select(timeout)
        finally:
            idle[0] += time.perf_counter() - t0

    loop._selector.select = timed_select
    control = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(control), sys.stdin
    )
    print(f"serving on {host}:{port}", flush=True)
    try:
        while command := (await control.readline()).decode().strip():
            if command == "on":
                tracer.install()
            elif command == "off":
                tracer.uninstall()
            elif command != "snap":
                raise ValueError(f"unknown control command {command!r}")
            reply = {
                "t": time.perf_counter(),
                "idle_s": idle[0],
                "transport_errors": service.stats.transport_errors,
                **tracer.snapshot(),
            }
            print(json.dumps(reply), flush=True)
    finally:
        await server.stop()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    tracer = Tracer()
    if parser.parse_args().trace:
        tracer.install()
    asyncio.run(serve(tracer))


if __name__ == "__main__":
    main()
