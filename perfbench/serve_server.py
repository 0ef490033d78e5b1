"""The control-plane server process for the ``serve-mix`` workload.

Run as ``python3 perfbench/serve_server.py <trace 0|1> <out-prefix>
[sample]``: builds the default :class:`ControlPlane` (layer wrappers
first when traced), serves it over HTTP on an ephemeral port and prints
``READY <port>``.  A line ``STOP`` (or end of input) on stdin shuts it
down; it then writes ``<out-prefix>.json`` with the counters the program
exposes, its CPU time while serving and its peak RSS, and, when traced,
``<out-prefix>.npz`` with the spans.  With ``sample`` it also times the
host-speed kernel (``hostspeed.py``) on the event loop every
``SAMPLE_PERIOD_S`` while it serves, in CPU-seconds as ``cpu_s`` is,
reports the mean as ``ref_s`` and leaves the samples' CPU time out of
``cpu_s``.
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
from repro.api.http import HttpServer  # noqa: E402
from repro.api.service import ControlPlane, ControlPlaneConfig  # noqa: E402

#: Seconds between host-speed samples; each stalls the loop about 4 ms.
SAMPLE_PERIOD_S = 0.25


async def sample_speed(sampler: hostspeed.Sampler) -> None:
    while True:
        await asyncio.sleep(SAMPLE_PERIOD_S)
        sampler.sample()


async def serve(plane: ControlPlane, stop: asyncio.Event, sampler) -> None:
    server = HttpServer(plane, "127.0.0.1", 0)
    _host, port = await server.start()
    sampling = (asyncio.get_running_loop().create_task(sample_speed(sampler))
                if sampler is not None else None)
    print(f"READY {port}", flush=True)
    try:
        await stop.wait()
    finally:
        if sampling is not None:
            sampling.cancel()
        await server.stop()


def main(argv) -> int:
    traced, prefix = argv[1] == "1", argv[2]
    sampler = (hostspeed.Sampler(time.process_time)
               if argv[3:] == ["sample"] else None)
    log = installation = None
    if traced:
        import layers

        log = layers.SpanLog()
        installation = layers.install(log)
    plane = ControlPlane(config=ControlPlaneConfig())
    loop = asyncio.new_event_loop()
    stop = asyncio.Event()
    served_from = time.process_time()

    def wait_for_stop() -> None:
        for line in sys.stdin:
            if line.strip() == "STOP":
                break
        loop.call_soon_threadsafe(stop.set)

    threading.Thread(target=wait_for_stop, daemon=True).start()
    try:
        loop.run_until_complete(serve(plane, stop, sampler))
    finally:
        loop.close()
        cpu_s = time.process_time() - served_from
        if sampler is not None:
            cpu_s -= sampler.cpu_s
        if installation is not None:
            installation.restore()
        plane.close()
    stats = plane.batch_evaluator.stats()
    report = {
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "batch_rows": stats["decisions"],
        "vector_evals": stats["vector_evals"],
        "scalar_evals": stats["scalar_evals"],
        "spans": plane.runtime.telemetry.stats()["spans"],
        "requests": int(plane.runtime.metrics.value("api.requests")),
    }
    if sampler is not None:
        report["ref_s"] = sampler.mean_s()
    if log is not None:
        report["layers"] = log.self_times()
        report["counts"] = log.counts
        report["requests_traced"] = [
            [path, trace_id, float(log.end[index] - log.start[index])]
            for index, (path, trace_id) in log.tags.get("api.request", [])]
        log.dump(prefix + ".npz")
    with open(prefix + ".json", "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
