"""Self-tests of the benchmark itself (stdlib unittest, about three minutes).

    python3 perfbench/selftest.py

1. A corrupted expected value makes passes count as failed, for each workload.
2. Two traced runs give identical counters, and report every layer metric
   that each workload's layers should produce.
3. Traced runs pass the same correctness gate as untraced ones.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from child import run_passes  # noqa: E402
from tracing import COUNT_METRICS, MODULES, SPAN_METRICS  # noqa: E402
from workloads import DEFAULT_SEED, SWEEP_QUOTA, WORKLOADS, load_expected  # noqa: E402

# a layer metric each workload must report as non-zero, because it calls that layer
CALLED = {
    "bend_cyl30": (
        "boundary.boundary_approx_s", "boundary.slow_geodesic_s", "boundary.kernel_approx_s",
        "boundary.kernel_index_estimate_s", "boundary.act_calls", "boundary.classes",
        "cayley.grow_ball_s", "cayley.data_up_to_items", "groups.mul_data_calls",
    ),
    "ballsystem_lamp": (
        "metrics.build_ball_system_s", "metrics.metric_axiom_check_s",
        "metrics.bs_annihilator_check_s", "metrics.pairs_checked",
        "metrics.sphere_data_calls", "metrics.level_elements", "groups.mul_data_calls",
    ),
    "busemann_sweep": (
        "boundary.busemann_functional_s", "boundary.busemann_functional_calls",
        "boundary.functional_inits", "cayley.segment_s", "cayley.segment_calls",
        "linalg.mat_vec_calls",
    ),
    "catalog": (
        "cli.parse_spec_s", "cli.emit_report_s", "cli.report_bytes",
        "cayley.geodesic_prefixes_s", "cayley.prefix_count", "cayley.reach_data_s",
        "annihilator.annihilator_candidates_s", "annihilator.profile_calls",
        "vabelian.simple_cycle_labels_s", "vabelian.lipschitz_hom_s",
        "vabelian.step1_membership_s", "vabelian.infinite_boundary_witness_s",
        "polytope.convex_hull_s", "polytope.solve_lp_calls",
    ),
}
# where the layers above never run, these stay at zero
NOT_CALLED = {
    "bend_cyl30": ("metrics.pairs_checked", "cayley.prefix_count"),
    "ballsystem_lamp": ("boundary.functional_inits", "cayley.grow_ball_s"),
    "busemann_sweep": ("metrics.sphere_data_calls", "cli.run_command_s"),
    "catalog": ("metrics.pairs_checked", "cayley.segment_calls"),
}


def corrupt(name: str, expected: dict) -> dict:
    bad = copy.deepcopy(expected)
    if name == "bend_cyl30":
        bad["report"]["kernel_index"] += 1
    elif name == "ballsystem_lamp":
        bad["report"]["levels"]["level_sizes"][-1] += 1
    elif name == "catalog":
        bad["runs"][0]["sides"]["candidates.csv"] = "0" * 64
    else:
        bad["groups"]["z_line"]["checksum"] += 1
    return bad


def traced_run(workload: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class CorruptedExpectedFails(unittest.TestCase):
    def check_workload(self, name: str, passes: int) -> None:
        good = load_expected(ROOT, name)
        clean = run_passes(WORKLOADS[name](ROOT, DEFAULT_SEED), good, 0.0, min_passes=passes)
        self.assertEqual(clean["failed"], 0, clean["problems"])
        workload = WORKLOADS[name](ROOT, DEFAULT_SEED)
        broken = run_passes(workload, corrupt(name, good), 0.0, min_passes=passes)
        self.assertGreater(broken["failed"], 0)
        self.assertTrue(broken["problems"])

    def test_bend(self):
        self.check_workload("bend_cyl30", 1)

    def test_ballsystem(self):
        self.check_workload("ballsystem_lamp", 1)

    def test_catalog(self):
        self.check_workload("catalog", 1)

    def test_busemann_sweep(self):
        # the seed-2026 reference is checked when a group's 200 samples are
        # used up: ten passes for z_line, whose checksum is corrupted
        expected = load_expected(ROOT, "busemann_sweep")
        passes = -(-expected["groups"]["z_line"]["functionals"] // SWEEP_QUOTA["z_line"])
        self.check_workload("busemann_sweep", passes)


class TracedRuns(unittest.TestCase):
    def test_counts_repeat_and_gate_holds(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                first, second = traced_run(name), traced_run(name)
                for run in (first, second):
                    self.assertTrue(run["correct"])
                    self.assertEqual(run["failed"], 0)
                metrics = first["metrics"]
                names = {f"{s}_s" for s in SPAN_METRICS} | {f"{m}.self_s" for m in MODULES}
                names |= set(COUNT_METRICS) | {"trace.overhead_ratio"}
                self.assertEqual(set(metrics), names)
                for metric in COUNT_METRICS:
                    self.assertEqual(metrics[metric], second["metrics"][metric], metric)
                for metric in CALLED[name]:
                    self.assertGreater(metrics[metric]["value"], 0, metric)
                for metric in NOT_CALLED[name]:
                    self.assertEqual(metrics[metric]["value"], 0, metric)


if __name__ == "__main__":
    unittest.main(verbosity=2)
