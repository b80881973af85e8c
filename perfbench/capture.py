"""Write the expected outputs the correctness gate compares against.

Run once, from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/capture.py

It overwrites ``perfbench/expected/*.json``. The busemann_sweep reference is
computed here the way criterion 06 computes it (one whole 200-sample sweep
per group at seed 2026), independently of the pass-by-pass walk the
benchmark does.
"""

from __future__ import annotations

import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import (  # noqa: E402
    DEFAULT_SEED,
    EXPECTED_DIR,
    SWEEP_DOMAIN,
    SWEEP_POOL,
    SWEEP_RADIUS,
    SWEEP_SAMPLES,
    WORKLOADS,
    sha256,
    weighted_sum,
)

from horobound.boundary import busemann_functional  # noqa: E402
from horobound.cayley import grow_ball, segment  # noqa: E402
from horobound.examples import REGISTRY, example  # noqa: E402

CRITERION_06_FUNCTIONALS = 15060


def spec_run(report_bytes: bytes, sides: dict[str, bytes]) -> dict:
    return {
        "report": json.loads(report_bytes),
        "report_sha256": sha256(report_bytes),
        "sides": {name: sha256(blob) for name, blob in sorted(sides.items())},
    }


def sweep_reference(seed: int) -> dict:
    groups = {}
    for name in sorted(REGISTRY):
        group, gens = example(name)
        ball = grow_ball(group, gens, SWEEP_RADIUS)
        samples = random.Random(seed).choices(ball.data_up_to(SWEEP_POOL), k=SWEEP_SAMPLES)
        functionals = checksum = 0
        for ydata in samples:
            y = group.element(ydata)
            checksum += weighted_sum(busemann_functional(ball, y, SWEEP_DOMAIN).vector)
            for z in segment(ball, group.identity(), y):
                checksum += weighted_sum(busemann_functional(ball, z, SWEEP_DOMAIN).vector)
                functionals += 1
        groups[name] = {"functionals": functionals, "checksum": checksum}
    total = sum(g["functionals"] for g in groups.values())
    if seed == DEFAULT_SEED and total != CRITERION_06_FUNCTIONALS:
        raise SystemExit(f"criterion 06 sweep has {total} functionals, not {CRITERION_06_FUNCTIONALS}")
    return {"seed": seed, "samples": SWEEP_SAMPLES, "functionals": total, "groups": groups}


def main() -> None:
    expected = {}
    for name in ("bend_cyl30", "ballsystem_lamp"):
        expected[name] = spec_run(*WORKLOADS[name](ROOT, DEFAULT_SEED).run_pass())
    expected["catalog"] = {
        "runs": [spec_run(*run) for run in WORKLOADS["catalog"](ROOT, DEFAULT_SEED).run_pass()]
    }
    expected["busemann_sweep"] = sweep_reference(DEFAULT_SEED)
    os.makedirs(os.path.join(ROOT, EXPECTED_DIR), exist_ok=True)
    for name, data in expected.items():
        path = os.path.join(ROOT, EXPECTED_DIR, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    main()
