"""Indistinguishability profiles and the candidate annihilator subgroup."""

import io

import pytest

from horobound.annihilator import (
    annihilator_candidates,
    functional_annihilator,
    generated_subgroup_bound,
    index_bound_check,
    indistinguishability_profile,
)
from horobound.boundary import boundary_approx
from horobound.cayley import grow_ball
from horobound.errors import ClosureEscapedBound, OutOfBall
from horobound.examples import REGISTRY, cylinder
from horobound.groups import Element

from oracles import REGISTRY_OPS, bfs_dist

TORSION4 = {(0, 0), (0, 1), (0, 2), (0, 3)}

# a finite subgroup of each group, generated inside B_2
FINITE = {
    "z_line": [],
    "z2": [],
    "cylinder_n4": [(0, 1)],
    "z2_rot4": [((0, 0), 1)],
    "fat_cylinder_n3": [(0, 1)],
    "lamplighter_z2": [((0,), 0)],
}


def _oracle(name, radius):
    group, gens = REGISTRY[name]()
    mul, inv = REGISTRY_OPS[name]
    table = bfs_dist(mul, [s.data for s in gens], group.identity_data(), radius)
    return group, gens, mul, inv, table


def test_identity_profile(cyl4_ball15):
    p = indistinguishability_profile(cyl4_ball15.group.identity(), cyl4_ball15)
    assert p.rho == -1 and p.r == 15
    assert p.candidate and p.witness_radius == 0


def test_torsion_profiles(cyl4_ball15):
    group = cyl4_ball15.group
    for y in [1, 2, 3]:
        p = indistinguishability_profile(group.element((0, y)), cyl4_ball15)
        assert p.rho == 3 and p.r == 13
        assert p.candidate and p.witness_radius == 4


def test_profile_disagrees_at_the_identity():
    # in Z x Z/2 the element x = (0,1) permutes S = {(+-1,0), (+-1,1)}, so on
    # B_1 it disagrees with 1 only at y = 1, where d(x, 1) = |x| = 2
    group, gens = cylinder(2)
    ball = grow_ball(group, gens, 4)
    p = indistinguishability_profile(group.element((0, 1)), ball, r=1, gap=0)
    assert p.rho == 0 and p.candidate


def test_escaping_profiles(cyl4_ball15):
    group = cyl4_ball15.group
    a = indistinguishability_profile(group.element((1, 0)), cyl4_ball15)
    assert a.rho == 14 and a.r == 14 and not a.candidate
    b = indistinguishability_profile(group.element((2, 1)), cyl4_ball15)
    assert b.rho == 13 and b.r == 13 and not b.candidate


def test_profile_radius_guard(cyl4_ball15):
    group = cyl4_ball15.group
    with pytest.raises(OutOfBall):
        indistinguishability_profile(group.element((0, 1)), cyl4_ball15, r=14)


def test_profile_gap_guard(cyl4_ball15):
    x = cyl4_ball15.group.element((1, 0))  # rho = r = 14: never a candidate
    for gap in (-1, 14):
        with pytest.raises(ValueError, match=r"gap must lie in 0\.\.13, got"):
            indistinguishability_profile(x, cyl4_ball15, gap=gap)
    assert not indistinguishability_profile(x, cyl4_ball15, gap=0).candidate
    with pytest.raises(ValueError, match=r"gap must lie in 0\.\.11, got 12"):
        annihilator_candidates(cyl4_ball15, 3, gap=12)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_profiles_match_oracle(name):
    radius, m = 8, 3
    group, gens, mul, inv, table = _oracle(name, radius)
    ball = grow_ball(group, gens, radius)
    for x in ball.data_up_to(m):
        r = radius - table[x]
        # max{|y| <= r : d(x, y) != d(1, y)} with d(x, y) = |x^-1 y|
        rho = max(
            (k for y, k in table.items() if k <= r and table[mul(inv(x), y)] != k),
            default=-1,
        )
        p = indistinguishability_profile(Element(group, x), ball)
        assert (p.rho, p.r) == (rho, r), x


def test_candidate_report(cyl4_ball15):
    report = annihilator_candidates(cyl4_ball15, 3)
    assert report.r == 12 and report.gap == 2
    # ball BFS order, not sorted coordinates
    assert [str(c) for c in report.candidates] == ["(0,0)", "(0,3)", "(0,1)", "(0,2)"]
    assert report.candidate_data() == TORSION4
    assert report.inverse_closed
    assert report.product_violations == ()
    assert len(report.profiles) == len(cyl4_ball15.data_up_to(3))
    p = report.profile_of(cyl4_ball15.group.element((0, 2)))
    assert p.candidate
    with pytest.raises(OutOfBall):
        report.profile_of(cyl4_ball15.group.element((9, 0)))


def test_report_csv(cyl4_ball15):
    report = annihilator_candidates(cyl4_ball15, 3)
    buf = io.StringIO()
    report.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "element,norm,rho,witness_radius,candidate"
    assert lines[1] == '"(0,0)",0,-1,0,1'
    assert lines[2] == '"(1,0)",1,12,13,0'
    assert len(lines) == 1 + len(report.profiles)


def test_report_json_shape(cyl4_ball15):
    d = annihilator_candidates(cyl4_ball15, 3).to_json_dict()
    assert d["m"] == 3 and d["r"] == 12
    assert d["candidates"] == ["(0,0)", "(0,3)", "(0,1)", "(0,2)"]
    assert d["product_violations"] == []
    assert {p["element"] for p in d["profiles"] if p["candidate"]} == {
        "(0,0)", "(0,1)", "(0,2)", "(0,3)"
    }


def test_functional_annihilator_on_cylinder(cyl4_ball15):
    approx = boundary_approx(cyl4_ball15, 12, 3)
    zeros = functional_annihilator(approx, 3)
    assert zeros.coincide
    assert {x.data for x in zeros.zeros_all} == TORSION4
    assert {x.data for x in zeros.zeros_busemann} == TORSION4
    assert zeros.n_stable == 2 and zeros.n_stable_busemann == 2
    d = zeros.to_json_dict()
    assert d["coincide"] is True


def test_functional_annihilator_on_line(z_ball):
    zeros = functional_annihilator(boundary_approx(z_ball, 12, 3), 3)
    assert zeros.coincide
    assert [str(x) for x in zeros.zeros_all] == ["(0)"]


def test_closure_stays_in_torsion(cyl4_ball15):
    report = annihilator_candidates(cyl4_ball15, 3)
    closure = generated_subgroup_bound(report.candidates, cyl4_ball15)
    assert {x.data for x in closure.elements} == TORSION4
    assert closure.size == 4
    assert closure.max_norm == 2
    assert closure.r_bound == 4


def test_closure_escape_is_diagnosed(cyl4_ball15):
    group = cyl4_ball15.group
    report = annihilator_candidates(cyl4_ball15, 3)
    seeds = list(report.candidates) + [group.element((1, 0))]
    with pytest.raises(ClosureEscapedBound) as info:
        generated_subgroup_bound(seeds, cyl4_ball15, r_bound=2)
    assert info.value.payload["r_bound"] == 2
    assert info.value.payload["escaped"] == "(1,2)"


def test_index_bound_check(cyl4_ball15):
    report = annihilator_candidates(cyl4_ball15, 3)
    ok = index_bound_check(report, 4)
    assert ok.ok and ok.bound == 4 and ok.slack == 0
    assert ok.candidate_count == 4 and ok.offending == ()
    tight = index_bound_check(report, 2)
    assert not tight.ok and tight.bound == 2
    assert {str(x) for x in tight.offending} == {"(0,2)", "(0,3)"}
    doubled = index_bound_check(report, 2, subgroup_factor=2)
    assert doubled.ok and doubled.bound == 4


def _payload_closure(seeds, bound, mul, identity, table):
    """Breadth-first closure of the seeds on payloads, past any escape:
    (elements inside B_bound, first product outside it or None)."""
    closure = {identity}
    frontier = [identity]
    escaped = None
    while frontier:
        nxt = []
        for w in frontier:
            for u in seeds:
                v = mul(w, u)
                if v in closure:
                    continue
                if table.get(v, bound + 1) > bound:
                    if escaped is None:
                        escaped = v
                    continue
                closure.add(v)
                nxt.append(v)
        frontier = nxt
    return closure, escaped


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_closure_matches_payload_closure(name):
    radius, bound = 8, 5
    group, gens, mul, inv, table = _oracle(name, radius)
    ball = grow_ball(group, gens, radius)
    finite = FINITE[name]
    far = ball.layer_data(bound + 1)[0]
    outside = next(
        d for d in (mul(ball.data[-1], s.data) for s in gens) if d not in table
    )
    seed_sets = [
        finite,
        [s.data for s in gens],
        # from |w| = 5 the walk of a norm-4 seed reads rim rows, which stay
        # unfilled below the radius, so those products are multiplied out
        [s.data for s in gens] + ball.layer_data(4)[:1],
        finite + [far],  # a seed outside the bound
        finite + [outside],  # a seed outside the ball
    ]
    for seeds in seed_sets:
        seeds = sorted(set(seeds))
        closure, escaped = _payload_closure(
            seeds, bound, mul, group.identity_data(), table
        )
        inside, got = ball.closure(seeds, bound)
        assert {ball.data[i] for i in inside} == closure and got == escaped
        elements = [Element(group, d) for d in seeds]
        if escaped is None:
            report = generated_subgroup_bound(elements, ball, r_bound=bound)
            assert [x.data for x in report.elements] == sorted(
                closure, key=lambda d: (table[d], d)
            )
            assert report.size == len(closure)
            assert report.max_norm == max(table[d] for d in closure)
            continue
        with pytest.raises(ClosureEscapedBound) as info:
            generated_subgroup_bound(elements, ball, r_bound=bound)
        assert info.value.payload["escaped"] == group.format_data(escaped)
        assert info.value.payload["partial_size"] == len(closure)
        assert info.value.payload["r_bound"] == bound


def test_closure_bound_guard(cyl4_ball15):
    for bound in (-1, 16):
        with pytest.raises(OutOfBall, match="outside 0..15"):
            cyl4_ball15.closure([], bound)


def test_annihilator_work_counts(monkeypatch, cyl4_ball15):
    # profiles read one gather each; only the 4 x 4 candidate products remain
    group = cyl4_ball15.group
    products = []
    mul = group.mul_data

    def counting(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(group, "mul_data", counting)
    report = annihilator_candidates(cyl4_ball15, 3)
    assert len(products) <= 16
    products.clear()
    generated_subgroup_bound(report.candidates, cyl4_ball15)
    assert products == []
