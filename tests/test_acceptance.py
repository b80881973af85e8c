"""End-to-end checks at fixed desk scales.

Each test exercises one numbered behaviour and prints a single
"criterion NN PASS/FAIL: ..." line (run pytest with -s to see the lines
on a green suite). Everything here is deterministic: the only RNG picks
sample points from a fixed seed.
"""

import random
import time
from importlib import resources

from horobound.annihilator import annihilator_candidates, functional_annihilator
from horobound.boundary import (
    bend_scan,
    boundary_approx,
    busemann_functional,
    kernel_approx,
    kernel_index_estimate,
    sign_match,
    slow_geodesic,
)
from horobound.cayley import grow_ball, segment
from horobound.cli import emit_report, parse_spec, run_command
from horobound.examples import REGISTRY, cylinder, example
from horobound.metrics import bs_annihilator_check, metric_axiom_check
from horobound.vabelian import (
    cloud_hull,
    conjugate_cloud,
    infinite_boundary_witness,
    lipschitz_hom,
    quotient_graph,
    select_extreme,
    simple_cycle_labels,
    step1_membership,
)

SPECS = resources.files("horobound") / "specs"


def _verdict(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_cylinder_distance_law(cyl4_pair, cyl4_ball20):
    """Distances along Z x Z/4 collapse to |x - x'| once |x - x'| >= 3."""
    group, _ = cyl4_pair
    start = time.perf_counter()
    points = [group.element(d) for d in cyl4_ball20.data_up_to(10)]
    pairs = violations = 0
    for u in points:
        for v in points:
            gap = abs(u.data[0] - v.data[0])
            if gap < 3:
                continue
            pairs += 1
            if cyl4_ball20.norm(u.inverse() * v) != gap:
                violations += 1
    elapsed = time.perf_counter() - start
    ok = pairs == 5472 and violations == 0 and elapsed < 5.0
    _verdict(
        1,
        ok,
        f"{pairs} pairs in B_10 with |dx| >= 3, {violations} violations,"
        f" {elapsed:.2f} s",
    )


def test_criterion_02_cylinder_annihilator():
    """The candidate set is exactly the torsion fiber, for four fiber sizes.

    n = 6 runs at m = 4: the element (0,3) has word norm 4 there, so the
    torsion fiber only fits inside the restriction ball from that level on.
    """
    start = time.perf_counter()
    results = []
    ok = True
    for n, m in [(3, 3), (4, 3), (5, 3), (6, 4)]:
        group, gens = cylinder(n)
        ball = grow_ball(group, gens, 12 + m)
        report = annihilator_candidates(ball, m)
        torsion = {(0, c) for c in range(n)}
        good = (
            report.r == 12
            and report.candidate_data() == torsion
            and len(report.candidates) == n
        )
        ok = ok and good
        results.append(f"n={n}:{len(report.candidates)}")
    # at m = 3 the n = 6 fiber is cut to its B_3 part, nothing else enters
    group, gens = cylinder(6)
    ball = grow_ball(group, gens, 15)
    cut = annihilator_candidates(ball, 3)
    visible = {(0, c) for c in range(6)} & set(ball.data_up_to(3))
    ok = ok and cut.candidate_data() == visible and len(visible) == 5
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _verdict(2, ok, f"candidates == torsion fiber ({', '.join(results)}), {elapsed:.2f} s")


def test_criterion_03_conjugation_fattened_generators(fat3_pair, fat3_ball12):
    """With S = FS_1F every element of the finite fiber F is a candidate."""
    start = time.perf_counter()
    report = annihilator_candidates(fat3_ball12, 2)
    fiber = {(0, c) for c in range(3)}
    found = report.candidate_data()
    elapsed = time.perf_counter() - start
    ok = report.r == 10 and fiber <= found and elapsed < 10.0
    _verdict(
        3,
        ok,
        f"fiber of size {len(fiber)} inside {len(found)} candidates at"
        f" (m=2, r=10), {elapsed:.2f} s",
    )


def test_criterion_04_finiteness_contrast(z_ball, z2_ball12):
    """Stable class counts: constant 2 on the line, strictly growing on the plane."""
    start = time.perf_counter()
    line_counts = [
        boundary_approx(z_ball, r, 3).class_count(stable_only=True)
        for r in range(6, 13)
    ]
    small = boundary_approx(z2_ball12, 4, 2).class_count(stable_only=True)
    large = boundary_approx(z2_ball12, 10, 2).class_count(stable_only=True)
    elapsed = time.perf_counter() - start
    ok = all(c == 2 for c in line_counts) and small < large and elapsed < 60.0
    _verdict(
        4,
        ok,
        f"line stable counts {line_counts} all 2; plane {small} -> {large},"
        f" {elapsed:.2f} s",
    )


def test_criterion_05_annihilator_coincidence(z_ball, z2_ball12, cyl4_ball15):
    """The zero sets from all stable classes and from Busemann classes agree."""
    outcomes = []
    ok = True
    for label, ball, r, m in [
        ("line", z_ball, 12, 3),
        ("plane", z2_ball12, 10, 2),
        ("cylinder", cyl4_ball15, 12, 3),
    ]:
        zeros = functional_annihilator(boundary_approx(ball, r, m), m)
        good = zeros.coincide and zeros.zeros_all == zeros.zeros_busemann
        ok = ok and good
        outcomes.append(f"{label}:{len(zeros.zeros_all)}")
    _verdict(5, ok, f"zero sets coincide exactly ({', '.join(outcomes)})")


def test_criterion_06_interval_monotonicity():
    """b_z >= b_y on B_4 for every z on a geodesic segment from 1 to y."""
    start = time.perf_counter()
    checked = violations = 0
    for name in sorted(REGISTRY):
        group, gens = example(name)
        ball = grow_ball(group, gens, 12)
        rng = random.Random(2026)
        pool = ball.data_up_to(8)
        identity = group.identity()
        for ydata in rng.choices(pool, k=200):
            y = group.element(ydata)
            b_y = busemann_functional(ball, y, 4).vector
            for z in segment(ball, identity, y):
                b_z = busemann_functional(ball, z, 4).vector
                checked += 1
                if any(a < b for a, b in zip(b_z, b_y)):
                    violations += 1
    elapsed = time.perf_counter() - start
    ok = checked == 15060 and violations == 0
    _verdict(
        6,
        ok,
        f"{checked} segment functionals over {len(REGISTRY)} groups,"
        f" {violations} violations, {elapsed:.2f} s",
    )


def test_criterion_07_sign_proportionality(cyl4_ball15):
    """The two stable cylinder classes agree up to a sign on the kernel."""
    approx = boundary_approx(cyl4_ball15, 12, 3)
    g, h = approx.stable_classes()
    kernel = kernel_approx(approx, 2)
    index, _ = kernel_index_estimate(kernel, cyl4_ball15)
    match = sign_match(g, h, kernel)
    ok = (
        match.q in (-1, 1)
        and match.kernel_dev == 0
        and match.ball_dev <= 2 * index
    )
    _verdict(
        7,
        ok,
        f"q={match.q}, kernel deviation {match.kernel_dev},"
        f" ball deviation {match.ball_dev} <= {2 * index}",
    )


def test_criterion_08_polytope_pipeline(z2_pair, z2_ball12):
    """Cycle cloud, hull, membership and the extreme-point homomorphism on Z^2."""
    group, gens = z2_pair
    start = time.perf_counter()
    cloud = conjugate_cloud(simple_cycle_labels(quotient_graph(group, gens)))
    poly = cloud_hull(cloud)
    membership = step1_membership(poly, z2_ball12, 8)
    e = select_extreme(poly, "index:3")
    data = lipschitz_hom(poly, e, cloud, z2_ball12)
    locus8 = [y for y in data.equality_locus if z2_ball12.norm(y) <= 8]
    xp = data.x  # p = 1, so x^p is x itself
    witness = infinite_boundary_witness(group, gens, 14, 2, k=5)
    vectors = {vec for _, _, _, vec in witness.witnesses}
    elapsed = time.perf_counter() - start
    ok = (
        set(cloud.points) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
        and len(poly.vertices) == 4
        and membership.ok
        and membership.checked == 144
        and e == (1, 0)
        and all(data.in_cyclic(y) for y in locus8)
        and data.p == 1
        and data.f(xp) == z2_ball12.norm(xp) == 1
        and witness.ok
        and witness.k_achieved == 5
        and len(vectors) == 5
        and elapsed < 60.0
    )
    _verdict(
        8,
        ok,
        f"4-point cloud, 4 extreme points, membership {membership.checked} ok,"
        f" locus in <(1,0)>, f(x^1)=1, witness k={witness.k_achieved} distinct,"
        f" {elapsed:.2f} s",
    )


def test_criterion_09_slow_geodesic_bound(cyl30_ball67, cyl30_approx):
    """Re-rooted geodesics barely move any stable class, and scans stay 2-Lipschitz."""
    group = cyl30_ball67.group
    start = time.perf_counter()
    slow = slow_geodesic(group.element((0, 15)), 2, 8, cyl30_approx)
    stable = cyl30_approx.stable_classes()
    scans = [bend_scan(slow.beta, 2, h) for h in stable]
    elapsed = time.perf_counter() - start
    ok = (
        slow.bound == 6 * slow.kernel_index + 1 == 7
        and len(slow.class_values) == len(stable) == 2
        and all(abs(v) <= slow.bound for v in slow.class_values)
        and slow.scan.is_two_lipschitz()
        and all(s.is_two_lipschitz() for s in scans)
        and elapsed < 120.0
    )
    _verdict(
        9,
        ok,
        f"|h(beta_2)| values {list(slow.class_values)} within {slow.bound},"
        f" {1 + len(scans)} scans 2-Lipschitz, {elapsed:.2f} s",
    )


def test_criterion_10_ball_system_metric(lamp_bs4):
    """The lamplighter ball system is a metric and F_1 lies in its annihilator."""
    group = lamp_bs4.group
    start = time.perf_counter()
    axioms = metric_axiom_check(lamp_bs4)
    in_range_violations = 0
    members = sorted(lamp_bs4.chain[0])
    for data in members:
        report = bs_annihilator_check(lamp_bs4, group.element(data), 1)
        in_range_violations += len(report.violations)
    elapsed = time.perf_counter() - start
    ok = (
        axioms.pairs_checked == 254464
        and in_range_violations == 0
        and elapsed < 120.0
    )
    _verdict(
        10,
        ok,
        f"axioms over {axioms.pairs_checked} pairs, {len(members)} members of"
        f" F_1 with {in_range_violations} in-range violations, {elapsed:.2f} s",
    )


def test_criterion_11_determinism():
    """Every bundled run, repeated, produces byte-identical reports."""
    start = time.perf_counter()
    names = sorted(p.name for p in SPECS.iterdir() if p.name.endswith(".spec"))
    stable = 0
    for name in names:
        _, _, config = parse_spec(str(SPECS / name))
        report_a, sides_a = run_command(config)
        report_b, sides_b = run_command(config)
        if emit_report(report_a) == emit_report(report_b) and sides_a == sides_b:
            stable += 1
    elapsed = time.perf_counter() - start
    ok = stable == len(names) == 11
    _verdict(
        11,
        ok,
        f"{stable}/{len(names)} bundled runs byte-identical on repeat,"
        f" {elapsed:.2f} s",
    )
