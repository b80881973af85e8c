"""horobound benchmark: one workload per invocation, last stdout line is JSON.

    python3 perfbench/run.py --workload bend_cyl30 --seed 2026 --seconds 25 --trace 0

Run from the repository root. Every process this starts runs one at a time
and is waited for. ``--trace 0`` prints the end-to-end metrics (wall_s,
setup_s, peak_rss_mb), with times rescaled by the reference loop that runs
between passes; ``--trace 1`` prints the per-layer metrics of a traced run.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from child import REFERENCE_NOMINAL_S

STARTED = time.monotonic()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
WORKLOADS = ("bend_cyl30", "ballsystem_lamp", "busemann_sweep", "catalog")
SETUP_SAMPLES = 6  # set-up-only processes, besides the measuring one
TRACE_DIR = os.path.join(ROOT, "perfbench", "out")
RUN_LIMIT_S = 170  # a run ends within this, or fails without a result


class BenchError(Exception):
    pass


def child(workload: str, seed: int, *extra: str) -> tuple[float, dict]:
    """Run one workload process; returns its set-up time and its JSON line."""
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed), *extra]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    timeout = RUN_LIMIT_S - (time.monotonic() - STARTED)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 0.1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} run went over {RUN_LIMIT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} process exited {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} process printed nothing:\n{proc.stderr.strip()}")
    out = json.loads(lines[-1])
    return out["ready"] - spawned, out


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    child(workload, seed, "--setup-only")  # warm-up: byte-compiles the sources
    samples = [child(workload, seed, "--setup-only") for _ in range(SETUP_SAMPLES)]
    setup, out = child(workload, seed, "--seconds", str(seconds))
    samples.append((setup, out))
    out["raw_wall_s"] = statistics.median(out["pass_seconds"])
    out["raw_setup_s"] = statistics.median(t for t, _ in samples)
    # a set-up is rescaled by the reference run right after it
    scaled_setups = [t * REFERENCE_NOMINAL_S / o["reference_seconds"][0] for t, o in samples]
    metrics = {
        "wall_s": (statistics.median(out["scaled_seconds"]), "s"),
        "setup_s": (statistics.median(scaled_setups), "s"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
    }
    return metrics, out


def measure_traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    _, plain = child(workload, seed, "--seconds", str(seconds / 2))
    os.makedirs(TRACE_DIR, exist_ok=True)
    spans = os.path.join(TRACE_DIR, f"spans-{workload}-seed{seed}.json")
    _, out = child(workload, seed, "--seconds", str(seconds / 2), "--trace-out", spans)
    metrics = {name: (m["value"], m["unit"]) for name, m in out["layers"].items()}
    overhead = statistics.median(out["scaled_seconds"]) / statistics.median(plain["scaled_seconds"])
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    out["attempted"] += plain["attempted"]
    out["failed"] += plain["failed"]
    out["problems"] = plain["problems"] + out["problems"]
    return metrics, out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=2026, help="busemann_sweep sample seed (default 2026)")
    p.add_argument("--seconds", type=float, default=25.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "horobound", "__init__.py")):
        print("error: src/horobound is missing; run from a horobound checkout", file=sys.stderr)
        return 2
    try:
        run = measure_traced if args.trace else measure
        metrics, out = run(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for problem in out["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": out["attempted"],
        "fail_ratio": out["failed"] / out["attempted"],
        "raw_wall_s": out.get("raw_wall_s"),
        "raw_setup_s": out.get("raw_setup_s"),
        "pass_seconds": out["pass_seconds"],
        "reference_seconds": out["reference_seconds"],
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
