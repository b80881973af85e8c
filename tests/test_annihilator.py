"""Indistinguishability profiles and the candidate annihilator subgroup."""

import io

import pytest

from horobound.annihilator import annihilator_candidates, functional_annihilator
from horobound.boundary import boundary_approx
from horobound.cayley import Ball, grow_ball
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


def _rho(ball, report, data):
    return report.rho[ball.index[data]]


def test_identity_never_disagrees(cyl4_ball15):
    report = annihilator_candidates(cyl4_ball15, 3)
    assert report.r == 12 and _rho(cyl4_ball15, report, (0, 0)) == -1
    assert report.candidates[0] == 0


def test_torsion_profiles(cyl4_ball15):
    report = annihilator_candidates(cyl4_ball15, 3)
    for y in [1, 2, 3]:
        x = cyl4_ball15.index[(0, y)]
        assert report.rho[x] == 3 and x in report.candidates


def test_profile_disagrees_at_the_identity():
    # in Z x Z/2 the element x = (0,1) permutes S = {(+-1,0), (+-1,1)}, so on
    # B_1 it disagrees with 1 only at y = 1, where d(x, 1) = |x| = 2
    group, gens = cylinder(2)
    ball = grow_ball(group, gens, 3)
    report = annihilator_candidates(ball, 2, gap=0)
    assert report.r == 1
    assert _rho(ball, report, (0, 1)) == 0 and ball.index[(0, 1)] in report.candidates


def test_escaping_profiles(cyl4_ball15):
    report = annihilator_candidates(cyl4_ball15, 3)
    for data in [(1, 0), (2, 1)]:
        x = cyl4_ball15.index[data]
        assert report.rho[x] == report.r == 12 and x not in report.candidates


def test_candidates_gap_guard(cyl4_ball15):
    for gap in (-1, 12):
        with pytest.raises(ValueError, match=rf"gap must lie in 0\.\.11, got {gap}"):
            annihilator_candidates(cyl4_ball15, 3, gap=gap)
    # rho = r = 12 at (1,0): no gap makes it a candidate
    report = annihilator_candidates(cyl4_ball15, 3, gap=0)
    assert cyl4_ball15.index[(1, 0)] not in report.candidates


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_profiles_match_oracle(name):
    radius, m = 8, 3
    r = radius - m
    group, gens, mul, inv, table, form = _oracle(name, radius)
    ball = grow_ball(group, gens, radius)
    report = annihilator_candidates(ball, m, gap=0)
    want = []
    for x in ball.data_up_to(m):
        xo = form(x)
        # max{|y| <= r : d(x, y) != d(1, y)} with d(x, y) = |x^-1 y|
        want.append(max(
            (k for y, k in table.items() if k <= r and table[mul(inv(xo), y)] != k),
            default=-1,
        ))
    assert report.r == r and list(report.rho) == want
    assert report.candidates == tuple(x for x, rho in enumerate(want) if rho < r)


def test_candidate_report(cyl4_ball15):
    report = annihilator_candidates(cyl4_ball15, 3)
    assert report.r == 12 and report.gap == 2
    # ball BFS order, not sorted coordinates
    assert [cyl4_ball15.data[x] for x in report.candidates] == [(0, 0), (0, 3), (0, 1), (0, 2)]
    assert report.inverse_closed
    assert report.product_violations == ()
    assert len(report.rho) == cyl4_ball15.size(3)


def test_violating_pairs_are_positions(monkeypatch, cyl4_ball15):
    # a product that lands in B_m outside the candidates is reported as its
    # pair of positions; one past B_m or outside the ball is not
    ball = cyl4_ball15
    mul = ball.group.mul_data
    landing = {((0, 1), (0, 2)): (1, 0), ((0, 3), (0, 3)): (9, 0), ((0, 2), (0, 2)): (99, 0)}
    monkeypatch.setattr(ball.group, "mul_data", lambda a, b: landing.get((a, b)) or mul(a, b))
    report = annihilator_candidates(ball, 3)
    assert report.product_violations == ((ball.index[(0, 1)], ball.index[(0, 2)]),)
    assert report.to_json_dict()["product_violations"] == [["(0,1)", "(0,2)"]]


def test_report_csv(cyl4_ball15):
    report = annihilator_candidates(cyl4_ball15, 3)
    buf = io.StringIO()
    report.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "element,norm,rho,witness_radius,candidate"
    assert lines[1] == '"(0,0)",0,-1,0,1'
    assert lines[2] == '"(1,0)",1,12,13,0'
    assert len(lines) == 1 + len(report.rho)


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
    # profiles read one gather each, by position: no element is made and no
    # position looked up; only the 4 x 4 candidate products remain
    group = cyl4_ball15.group
    products, made, looked_up = [], [], []
    mul, init, position = group.mul_data, Element.__init__, Ball.position

    def counting(a, b):
        products.append(1)
        return mul(a, b)

    def making(self, *args):
        made.append(1)
        init(self, *args)

    def looking_up(self, x):
        looked_up.append(1)
        return position(self, x)

    monkeypatch.setattr(group, "mul_data", counting)
    monkeypatch.setattr(Element, "__init__", making)
    monkeypatch.setattr(Ball, "position", looking_up)
    annihilator_candidates(cyl4_ball15, 3)
    assert len(products) <= 16
    assert (made, looked_up) == ([], [])
