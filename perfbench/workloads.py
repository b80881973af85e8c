"""The four benchmark workloads and the correctness gate each pass goes through.

A workload is built once per process (its set-up) and then runs passes. Each
pass returns an output that ``check`` compares against the expected outputs
stored in ``perfbench/expected``. The program is driven only through public
functions: ``cli.parse_spec``, ``cli.run_command``, ``cli.emit_report``,
``RunConfig.with_params`` and the library calls the test suite uses.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import replace

# module attributes, not names, so that a traced run sees the wrapped functions
from horobound import boundary, cayley, cli, examples

DEFAULT_SEED = 2026
SPEC_DIR = os.path.join("src", "horobound", "specs")
EXPECTED_DIR = os.path.join("perfbench", "expected")

# catalog: the nine light bundled specs at their bundled parameters, plus the
# one command no light spec reaches, ``ball`` with a prefix tree (r = n = 12)
CATALOG = (
    ("cylinder_n3.spec", None, {}),
    ("cylinder_n4.spec", None, {}),
    ("cylinder_n4_ext.spec", None, {}),
    ("cylinder_n5.spec", None, {}),
    ("cylinder_n6.spec", None, {}),
    ("fat_cylinder_n3.spec", None, {}),
    ("z2_rot4.spec", None, {}),
    ("z2_standard.spec", None, {}),
    ("z_line.spec", None, {}),
    ("z2_standard.spec", "ball", {"r": 12, "n": 12}),
)
# side files whose bytes are gated; prefixes.dot is only required to exist,
# because its layout is expected to change (tree -> geodesic DAG)
GATED_SIDES = ("ball.csv", "candidates.csv")

# busemann_sweep: criterion 06 (its six example groups, ball radius 12, y drawn
# from B_8, functionals on B_4), sized so that one pass builds a tenth of the
# seed-2026 sweep
SWEEP_RADIUS = 12
SWEEP_POOL = 8
SWEEP_DOMAIN = 4
SWEEP_SAMPLES = 200
SWEEP_QUOTA = {
    "cylinder_n4": 290,
    "fat_cylinder_n3": 246,
    "lamplighter_z2": 173,
    "z2": 252,
    "z2_rot4": 437,
    "z_line": 108,
}


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def load_expected(root: str, name: str) -> dict:
    with open(os.path.join(root, EXPECTED_DIR, name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


def compare(expected, actual, path: str = "report") -> list[str]:
    """Field-by-field: every expected key present and equal, extra keys allowed."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object, got {type(actual).__name__}"]
        problems = []
        for key, value in expected.items():
            if key not in actual:
                problems.append(f"{path}.{key}: missing")
            else:
                problems.extend(compare(value, actual[key], f"{path}.{key}"))
        return problems
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected a list of {len(expected)}"]
        problems = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            problems.extend(compare(e, a, f"{path}[{i}]"))
        return problems
    # bool is an int subclass, so compare the type too
    if type(expected) is not type(actual) or expected != actual:
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    return []


def check_spec_run(expected: dict, report_bytes: bytes, sides: dict[str, bytes]) -> list[str]:
    problems = compare(expected["report"], json.loads(report_bytes))
    for name, digest in expected["sides"].items():
        if name not in sides:
            problems.append(f"{name}: missing")
        elif name in GATED_SIDES and sha256(sides[name]) != digest:
            problems.append(f"{name}: bytes differ")
    return problems


class SpecWorkload:
    """One bundled spec at its bundled parameters: parse once, run per pass."""

    spec = ""

    def __init__(self, root: str, seed: int):
        _, _, self.config = cli.parse_spec(os.path.join(root, SPEC_DIR, self.spec))

    def run_pass(self):
        report, sides = cli.run_command(self.config)
        return cli.emit_report(report), sides

    def check(self, output, expected: dict) -> list[str]:
        report_bytes, sides = output
        problems = check_spec_run(expected, report_bytes, sides)
        return problems + self.invariants(json.loads(report_bytes))

    def invariants(self, report: dict) -> list[str]:
        return []


class BendCyl30(SpecWorkload):
    spec = "cylinder_n30_diag.spec"

    def invariants(self, report: dict) -> list[str]:
        problems = []
        if report.get("bound") != 7:
            problems.append(f"bend bound {report.get('bound')!r} != 7")
        if report.get("two_lipschitz") is not True:
            problems.append("bend scan is not 2-Lipschitz")
        return problems


class BallsystemLamp(SpecWorkload):
    spec = "lamplighter.spec"

    def invariants(self, report: dict) -> list[str]:
        problems = []
        pairs = report.get("axioms", {}).get("pairs_checked")
        if pairs != 254464:
            problems.append(f"pairs_checked {pairs!r} != 254464")
        violations = sum(len(c["violations"]) for c in report.get("annihilator_checks", []))
        if violations:
            problems.append(f"{violations} in-range annihilator violations")
        return problems


class Catalog:
    """Every light command once, parse_spec -> run_command -> emit_report."""

    def __init__(self, root: str, seed: int):
        self.paths = [os.path.join(root, SPEC_DIR, spec) for spec, _, _ in CATALOG]

    def run_pass(self):
        out = []
        for path, (_, command, params) in zip(self.paths, CATALOG):
            _, _, config = cli.parse_spec(path)
            if command is not None:
                config = replace(config, command=command).with_params(**params)
            report, sides = cli.run_command(config)
            out.append((cli.emit_report(report), sides))
        return out

    def check(self, output, expected: dict) -> list[str]:
        problems = []
        for (spec, command, _), run, exp in zip(CATALOG, output, expected["runs"]):
            label = f"{spec}:{command or 'bundled'}"
            problems.extend(f"{label}: {p}" for p in check_spec_run(exp, *run))
        if len(output) != len(expected["runs"]):
            problems.append(f"{len(output)} runs, expected {len(expected['runs'])}")
        return problems


def weighted_sum(vec) -> int:
    return sum(i * v for i, v in enumerate(vec, 1))


class _Stream:
    """Criterion-06 samples for one group and the cursor through them."""

    def __init__(self, name: str, seed: int):
        self.group, gens = examples.example(name)
        self.ball = cayley.grow_ball(self.group, gens, SWEEP_RADIUS)
        pool = self.ball.data_up_to(SWEEP_POOL)
        self.samples = random.Random(seed).choices(pool, k=SWEEP_SAMPLES)
        self.identity = self.group.identity()
        self.next_sample = 0
        self.pending = None  # (b_y, remaining z sorted by data)
        self.cycle_functionals = 0
        self.cycle_checksum = 0


class BusemannSweep:
    """b_z >= b_y on B_4 for z on segment(1, y), y sampled from B_8 by the seed.

    Passes walk the 200-sample stream of every group in turn, a fixed quota
    of segment functionals per group each, so a pass costs the same for
    every seed; ten passes cover the seed-2026 sweep once.
    """

    def __init__(self, root: str, seed: int):
        self.seed = seed
        self.streams = {name: _Stream(name, seed) for name in SWEEP_QUOTA}

    def run_pass(self):
        return {name: self._sweep(st, SWEEP_QUOTA[name]) for name, st in self.streams.items()}

    def _sweep(self, st: _Stream, quota: int) -> dict:
        built = violations = 0
        cycles = []
        while built < quota:
            if st.pending is None:
                y = st.group.element(st.samples[st.next_sample])
                b_y = boundary.busemann_functional(st.ball, y, SWEEP_DOMAIN).vector
                zs = sorted(cayley.segment(st.ball, st.identity, y), key=lambda z: z.data)
                st.cycle_checksum += weighted_sum(b_y)
                st.pending = (b_y, zs)
            b_y, zs = st.pending
            take, rest = zs[: quota - built], zs[quota - built :]
            for z in take:
                b_z = boundary.busemann_functional(st.ball, z, SWEEP_DOMAIN).vector
                if any(a < b for a, b in zip(b_z, b_y)):
                    violations += 1
                st.cycle_checksum += weighted_sum(b_z)
            built += len(take)
            st.cycle_functionals += len(take)
            st.pending = (b_y, rest) if rest else None
            if st.pending is None:
                st.next_sample += 1
                if st.next_sample == len(st.samples):
                    cycles.append((st.cycle_functionals, st.cycle_checksum))
                    st.next_sample = st.cycle_functionals = st.cycle_checksum = 0
        return {"functionals": built, "violations": violations, "cycles": cycles}

    def check(self, output, expected: dict) -> list[str]:
        problems = []
        for name, res in output.items():
            if res["violations"]:
                problems.append(f"{name}: {res['violations']} monotonicity violations")
            if self.seed != expected["seed"]:
                continue  # other seeds are gated by monotonicity alone
            exp = expected["groups"][name]
            for functionals, checksum in res["cycles"]:
                if functionals != exp["functionals"] or checksum != exp["checksum"]:
                    problems.append(
                        f"{name}: sweep of {functionals} functionals (checksum {checksum}),"
                        f" expected {exp['functionals']} ({exp['checksum']})"
                    )
        return problems


WORKLOADS = {
    "bend_cyl30": BendCyl30,
    "ballsystem_lamp": BallsystemLamp,
    "busemann_sweep": BusemannSweep,
    "catalog": Catalog,
}
