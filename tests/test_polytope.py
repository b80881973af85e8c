"""Exact LP and convex hulls over the rationals."""

import random
import re
from fractions import Fraction

import pytest

from horobound import polytope
from horobound.errors import DimensionCap, NotExtreme, SizeBudget
from horobound.polytope import convex_hull, solve_lp, supporting_functional

from oracles import hull2d, in_convex_polygon


# ---------------------------------------------------------------------------
# linear programming


def test_lp_box_corner():
    r = solve_lp((1, 1), a_ub=((1, 0), (0, 1), (-1, 0), (0, -1)), b_ub=(1, 1, 0, 0))
    assert r.status == "optimal"
    assert r.x == (1, 1)
    assert r.value == 2


def test_lp_infeasible():
    r = solve_lp((1,), a_ub=((1,), (-1,)), b_ub=(-1, 0))
    assert r.status == "infeasible"
    assert r.x is None and r.value is None


def test_lp_unbounded():
    assert solve_lp((1,), a_ub=((-1,),), b_ub=(0,)).status == "unbounded"


def test_lp_equality_constraint():
    r = solve_lp((1, 0), a_ub=((0, -1), (-1, 0)), b_ub=(0, 0), a_eq=((1, 1),), b_eq=(1,))
    assert r.status == "optimal" and r.value == 1
    assert r.x == (1, 0)


def test_lp_is_exact():
    r = solve_lp((1,), a_ub=((3,), (-1,)), b_ub=(1, 0))
    assert r.value == Fraction(1, 3)


def test_lp_random_vs_vertex_enumeration():
    # on a bounded 2d polytope the optimum sits on a hull vertex
    rng = random.Random(2024)
    for _ in range(20):
        pts = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(8)]
        poly = convex_hull(pts)
        if poly.equalities:
            continue
        c = (rng.randint(-4, 4), rng.randint(-4, 4))
        a_ub = tuple(a for a, _ in poly.inequalities)
        b_ub = tuple(b for _, b in poly.inequalities)
        r = solve_lp(c, a_ub=a_ub, b_ub=b_ub)
        assert r.status == "optimal"
        best = max(c[0] * v[0] + c[1] * v[1] for v in poly.vertices)
        assert r.value == best


# ---------------------------------------------------------------------------
# hulls


def test_hull_segment():
    poly = convex_hull([(0,), (5,), (2,)])
    assert poly.vertices == ((0,), (5,))
    assert poly.inequalities == (((-1,), 0), ((1,), 5))
    assert poly.equalities == ()
    assert poly.contains((Fraction(7, 2),)) and not poly.contains((6,))


def test_hull_square_with_interior_noise():
    poly = convex_hull([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (2, 1)])
    assert poly.vertices == ((0, 0), (0, 2), (2, 0), (2, 2))
    assert poly.inequalities == (
        ((-1, 0), 0),
        ((0, -1), 0),
        ((0, 1), 2),
        ((1, 0), 2),
    )
    assert poly.contains((1, Fraction(1, 2)))
    assert poly.contains((2, 2))
    assert not poly.contains((3, 0))


def test_hull_collinear_points_get_an_equality():
    poly = convex_hull([(0, 0), (1, 1), (2, 2)])
    assert poly.vertices == ((0, 0), (2, 2))
    assert poly.equalities == (((-1, 1), 0),)
    assert poly.contains((1, 1)) and not poly.contains((1, 0))


def test_hull_single_point():
    poly = convex_hull([(3, 4), (3, 4)])
    assert poly.vertices == ((3, 4),)
    assert poly.equalities == (((1, 0), 3), ((0, 1), 4))
    assert poly.contains((3, 4)) and not poly.contains((3, 5))


def test_hull_octahedron():
    poly = convex_hull(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (0, 0, 0)]
    )
    assert len(poly.vertices) == 6
    assert len(poly.inequalities) == 8
    third = Fraction(1, 3)
    assert poly.contains((third, third, third))
    assert not poly.contains((1, 1, 1))


def test_hull_dimension_cap():
    with pytest.raises(DimensionCap):
        convex_hull([(0, 0, 0, 0), (1, 0, 0, 0)])


def test_hull_random_vs_oracle():
    rng = random.Random(99)
    for _ in range(25):
        pts = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(rng.randint(3, 12))]
        poly = convex_hull(pts)
        expect = hull2d(pts)
        assert set(poly.vertices) == {
            (Fraction(a), Fraction(b)) for a, b in expect
        }
        if len(expect) < 3:
            continue
        for _ in range(30):
            q = (Fraction(rng.randint(-14, 14), 2), Fraction(rng.randint(-14, 14), 2))
            assert poly.contains(q) == in_convex_polygon(q, expect)


def test_hull_rational_inputs():
    half = Fraction(1, 2)
    poly = convex_hull([(half, 0), (-half, 0), (0, half), (0, -half)])
    assert poly.contains((Fraction(1, 4), Fraction(1, 4)))
    assert not poly.contains((half, half))


# ---------------------------------------------------------------------------
# supporting functionals


def test_supporting_functional_cross_polytope():
    poly = convex_hull([(1, 0), (-1, 0), (0, 1), (0, -1)])
    sf = supporting_functional(poly, (1, 0))
    assert sf.e == (1, 0)
    assert sf.phi == (1, 0)
    assert sf.margin == 1
    # phi attains 1 exactly at e and stays below on the other vertices
    for v in poly.vertices:
        val = sum(p * c for p, c in zip(sf.phi, v))
        assert (val == 1) == (v == sf.e)
        if v != sf.e:
            assert val <= 1 - sf.margin


def test_supporting_functional_needs_a_vertex():
    poly = convex_hull([(1, 0), (-1, 0), (0, 1), (0, -1)])
    with pytest.raises(NotExtreme):
        supporting_functional(poly, (1, 1))
    with pytest.raises(NotExtreme):
        supporting_functional(poly, (Fraction(1, 2), Fraction(1, 2)))


def test_hull_enumeration_stops_at_its_budget(monkeypatch):
    # the unit square tries C(4, 2) = 6 pairs of vertices; in sorted order
    # the first three give the facets x >= 0 and y >= 0 and one diagonal
    monkeypatch.setattr(polytope, "HULL_SUBSET_BUDGET", 3)
    with pytest.raises(SizeBudget, match=re.escape(
        "hull enumeration exceeded its budget of 3 subsets (3 subsets tried, 2 facets found)"
    )):
        convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    monkeypatch.setattr(polytope, "HULL_SUBSET_BUDGET", 6)
    assert len(convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)]).inequalities) == 4
