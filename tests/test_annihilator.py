"""Indistinguishability profiles and the candidate annihilator subgroup."""

import io

import pytest

from horobound.annihilator import (
    annihilator_candidates,
    functional_annihilator,
    indistinguishability_profile,
)
from horobound.boundary import boundary_approx
from horobound.cayley import grow_ball
from horobound.errors import OutOfBall
from horobound.examples import REGISTRY, cylinder
from horobound.groups import Element

from oracles import REGISTRY_OPS, bfs_dist, oracle_form

TORSION4 = {(0, 0), (0, 1), (0, 2), (0, 3)}

def _oracle(name, radius):
    """The group, its oracle ops, the oracle's norm table and the map from
    group data to oracle form; the table is keyed in oracle form."""
    group, gens = REGISTRY[name]()
    mul, inv = REGISTRY_OPS[name]
    form = oracle_form(group)
    table = bfs_dist(mul, [form(s.data) for s in gens], form(group.identity_data()), radius)
    return group, gens, mul, inv, table, form


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
    group, gens, mul, inv, table, form = _oracle(name, radius)
    ball = grow_ball(group, gens, radius)
    for x in ball.data_up_to(m):
        xo = form(x)
        r = radius - table[xo]
        # max{|y| <= r : d(x, y) != d(1, y)} with d(x, y) = |x^-1 y|
        rho = max(
            (k for y, k in table.items() if k <= r and table[mul(inv(xo), y)] != k),
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
    profiled = {p.element.data: p for p in report.profiles}
    assert profiled[(0, 2)].candidate
    assert (9, 0) not in profiled


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


def test_annihilator_work_counts(monkeypatch, cyl4_ball15):
    # profiles read one gather each; only the 4 x 4 candidate products remain
    group = cyl4_ball15.group
    products = []
    mul = group.mul_data

    def counting(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(group, "mul_data", counting)
    annihilator_candidates(cyl4_ball15, 3)
    assert len(products) <= 16
