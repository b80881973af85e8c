"""One workload process: set up, then time passes; prints one JSON line.

Started by ``run.py`` (one process at a time, no threads). With
``--setup-only`` it exits as soon as the set-up is done, so the parent can
sample set-up time several times. ``ready`` is read from CLOCK_MONOTONIC,
which the parent also reads just before it starts the process.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PASSES = 3
MAX_PROBLEMS = 5
REFERENCE_RADIUS = 40
REFERENCE_REPEATS = 12
REFERENCE_NOMINAL_S = 0.065  # the reference loop on an idle core of a 2.1 GHz Xeon


class _Plane:
    """Z^2 with six generators, multiplied through a method like horobound groups."""

    gens = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))

    def mul(self, a: tuple, b: tuple) -> tuple:
        return (a[0] + b[0], a[1] + b[1])


def reference_loop() -> float:
    """Time fixed pure-Python work that gauges how fast the machine runs now.

    The work is a breadth-first ball in Z^2, the shape of horobound's hot
    loops, but it runs no horobound code: its time moves with the load other
    tenants put on a shared host, never with the program. The cyclic garbage
    collector is paused meanwhile, or the loop would also time a collection
    over the workload's live objects. It allocates less than a megabyte, so
    it does not move the peak resident memory.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        plane = _Plane()
        for _ in range(REFERENCE_REPEATS):
            dist = {(0, 0): 0}
            frontier = [(0, 0)]
            for k in range(1, REFERENCE_RADIUS + 1):
                nxt = []
                for x in frontier:
                    for s in plane.gens:
                        y = plane.mul(x, s)
                        if y not in dist:
                            dist[y] = k
                            nxt.append(y)
                frontier = nxt
        return time.perf_counter() - t0
    finally:
        gc.enable()


def run_passes(workload, expected: dict, seconds: float, tracer=None, min_passes: int = MIN_PASSES) -> dict:
    """Time passes for ``seconds`` (at least ``min_passes``), checking each one.

    The reference loop runs before the first pass and after every pass, so
    each pass can be rescaled by the machine speed measured around it. A
    pass that raises or fails the check counts as failed and is left out of
    the timings (unless every pass failed).
    """
    passes, problems = [], []  # passes: (seconds, ok)
    refs = [reference_loop()]
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.start_pass()
        t0 = time.perf_counter()
        try:
            output = workload.run_pass()
        except Exception as exc:  # a raising pass is a failed pass, not a crash
            elapsed = time.perf_counter() - t0
            found = [f"{type(exc).__name__}: {exc}"]
        else:
            elapsed = time.perf_counter() - t0
            found = workload.check(output, expected)
        problems.extend(f"pass {len(passes) + 1}: {msg}" for msg in found)
        passes.append((elapsed, not found))
        refs.append(reference_loop())

    failed = sum(1 for _, ok in passes if not ok)
    timed = [i for i, (_, ok) in enumerate(passes) if ok] or range(len(passes))
    return {
        "attempted": len(passes),
        "failed": failed,
        "pass_seconds": [passes[i][0] for i in timed],
        "scaled_seconds": [
            passes[i][0] * 2 * REFERENCE_NOMINAL_S / (refs[i] + refs[i + 1]) for i in timed
        ],
        "reference_seconds": refs,
        "problems": problems[:MAX_PROBLEMS],
    }


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-out", default=None, help="trace the passes, write spans here")
    args = p.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import horobound  # noqa: F401  (set-up includes the package import)

    tracer = None
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer()
    from workloads import WORKLOADS, load_expected

    if tracer is not None:
        tracer.install()
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.setup_only:
        print(json.dumps({"ready": ready, "reference_seconds": [reference_loop()]}))
        return

    result = run_passes(workload, load_expected(ROOT, args.workload), args.seconds, tracer)
    result["ready"] = ready
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        layers = tracer.layer_metrics()
        result["layers"] = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        tracer.write(args.trace_out)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
