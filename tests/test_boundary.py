"""Functionals, level-(r, m) boundary snapshots, the action, slow geodesics."""

import random

import pytest

from horobound.boundary import (
    Functional,
    act,
    bend_scan,
    boundary_approx,
    busemann_functional,
    busemann_point_approx,
    dominating_busemann,
    kernel_approx,
    kernel_index_estimate,
    sign_match,
    slow_geodesic,
)
from horobound.cayley import geodesic_between, grow_ball
from horobound.errors import (
    DomainExhausted,
    DomainMismatch,
    NoDominatorAtLevel,
    OutOfBall,
    RangeEmpty,
)
from horobound.examples import example
from horobound.groups import Element, FgAbelianGroup, FgAbelianSpec, symmetric_generating_set

from oracles import bfs_dist, busemann_vec


# ---------------------------------------------------------------------------
# functionals


def test_functional_validation(z_ball):
    ok = Functional(z_ball, 2, (0, -1, 1, -2, 2))
    assert ok.value(z_ball.group.element((2,))) == -2
    with pytest.raises(DomainMismatch):
        Functional(z_ball, 2, (0, -1, 1))
    with pytest.raises(ValueError, match="vanish"):
        Functional(z_ball, 2, (1, 0, 0, -1, 1))
    with pytest.raises(ValueError, match="word norm"):
        Functional(z_ball, 2, (0, 2, -1, 2, -2))
    with pytest.raises(ValueError, match="Lipschitz"):
        Functional(z_ball, 2, (0, -1, 1, 2, -2))


def test_functional_restrict_and_identity(z_ball):
    h = busemann_functional(z_ball, z_ball.group.element((10,)), 3)
    assert h.restrict(2).vector == h.vector[:5]
    assert h.restrict(3) == h
    with pytest.raises(DomainExhausted):
        h.restrict(4)
    with pytest.raises(DomainExhausted):
        h.value(z_ball.group.element((4,)))


def test_functional_equality_ignores_provenance(z_ball):
    a = Functional(z_ball, 1, (0, -1, 1), provenance="point")
    b = Functional(z_ball, 1, (0, -1, 1), provenance="geodesic")
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_functional_equality_needs_the_same_ball(z_ball):
    # a vector lists values in one ball's BFS order, so equal tuples from
    # different groups are different functionals
    g5 = FgAbelianGroup(FgAbelianSpec(free_rank=0, torsion=(5,)))
    ball5 = grow_ball(g5, symmetric_generating_set(g5, [g5.element((1,))]), 3)
    a = Functional(z_ball, 1, (0, -1, 1))
    b = Functional(ball5, 1, (0, -1, 1))
    assert a.vector == b.vector
    assert a != b
    assert len({a, b}) == 2


def test_lipschitz_check_reads_the_outermost_sphere():
    # Z/5 with S = {+-1}: B_2 in BFS order is 0, 1, 4, 2, 3, and the edge
    # 2 -- 3 lies inside the outermost sphere. Its neighbour rows are filled
    # lazily, so a fresh ball checks the one bad edge only if it fills them.
    g5 = FgAbelianGroup(FgAbelianSpec(free_rank=0, torsion=(5,)))
    gens = symmetric_generating_set(g5, [g5.element((1,))])
    values = {(0,): 0, (1,): 1, (4,): -1, (2,): 2, (3,): -2}
    ball = grow_ball(g5, gens, 2)
    assert ball.data_up_to(2) == [(0,), (1,), (4,), (2,), (3,)]
    with pytest.raises(ValueError, match="Lipschitz"):
        Functional(ball, 2, tuple(values[d] for d in ball.data_up_to(2)))
    values[(2,)], values[(3,)] = 1, 0
    ok = Functional(grow_ball(g5, gens, 2), 2, tuple(values[d] for d in ball.data_up_to(2)))
    assert ok.vector == (0, 1, -1, 1, 0)


@pytest.mark.parametrize("name,m", [("z2", 3), ("cylinder_n4", 2)])
def test_busemann_functional_matches_oracle(name, m):
    group, gens = example(name)
    ball = grow_ball(group, gens, 10)
    table = bfs_dist(
        group.mul_data, [s.data for s in gens], group.identity_data(), 10
    )
    domain = ball.data_up_to(m)
    rng = random.Random(5)
    pool = [d for d in ball.data_up_to(10 - m)]
    for _ in range(25):
        y = rng.choice(pool)
        h = busemann_functional(ball, Element(group, y), m)
        assert h.vector == busemann_vec(
            table, group.mul_data, group.inv_data, y, domain
        )
        assert h.witness.data == y


def test_busemann_functional_needs_room(z2_ball12):
    with pytest.raises(OutOfBall):
        busemann_functional(z2_ball12, z2_ball12.group.element((10, 0)), 10)


# ---------------------------------------------------------------------------
# boundary snapshots


def test_line_boundary_level(z_ball):
    approx = boundary_approx(z_ball, 10, 3)
    assert z_ball.data_up_to(3) == [(0,), (1,), (-1,), (2,), (-2,), (3,), (-3,)]
    assert [c.functional.vector for c in approx.classes] == [
        (0, -1, 1, -2, 2, -3, 3),
        (0, 1, -1, 2, -2, 3, -3),
    ]
    for c in approx.classes:
        assert c.count == 1
        assert c.stable and c.busemann and c.interior_shadow
        assert not c.candidate
    assert [str(c.witnesses[0]) for c in approx.classes] == ["(10)", "(-10)"]
    d = approx.to_json_dict()
    assert d["class_count"] == 2 and d["stable_class_count"] == 2


def test_line_busemann_points(z_ball):
    points = busemann_point_approx(z_ball, 10, 3)
    assert len(points) == 2
    assert all(f.provenance == "geodesic" and f.stable for f in points)


def test_plane_boundary_grows(z2_ball12):
    small = boundary_approx(z2_ball12, 4, 2)
    large = boundary_approx(z2_ball12, 10, 2)
    assert small.class_count() == 16
    assert small.class_count(stable_only=True) == 4
    assert large.class_count() == 16
    assert large.class_count(stable_only=True) == 16
    assert len(large.busemann_classes()) == 16
    assert large.stable_busemann_classes() == large.busemann_classes()


def test_boundary_level_guards(z_ball):
    with pytest.raises(ValueError):
        boundary_approx(z_ball, 3, 3)
    with pytest.raises(OutOfBall):
        boundary_approx(z_ball, 14, 3)


# ---------------------------------------------------------------------------
# the action


def test_act_definition_holds(z2_ball12):
    group = z2_ball12.group
    h = busemann_functional(z2_ball12, group.element((7, 2)), 3)
    rng = random.Random(9)
    pool = z2_ball12.data_up_to(2)
    for _ in range(20):
        x = Element(group, rng.choice(pool))
        moved = act(h, x, z2_ball12)
        assert moved.provenance == "action"
        hx = h.value(x.inverse())
        for y in moved.ball.data_up_to(moved.domain_radius):
            shifted = group.mul_data(group.inv_data(x.data), y)
            assert moved.value_data(y) == h.value_data(shifted) - hx


def test_act_on_line_restricts(z_ball):
    h = boundary_approx(z_ball, 10, 3).busemann_classes()[0]
    moved = act(h, z_ball.group.element((2,)), z_ball)
    assert moved.domain_radius == 1
    assert moved.vector == (0, -1, 1)


def test_action_table_on_line(z_ball):
    table = boundary_approx(z_ball, 10, 3).action_table()
    assert table.to_json_dict() == {
        "generators": ["a", "a^-1"],
        "matches": [[0, 1], [0, 1]],
    }


# ---------------------------------------------------------------------------
# kernel, sign matching, domination


def test_cylinder_kernel_is_everything(cyl4_ball15):
    approx = boundary_approx(cyl4_ball15, 12, 3)
    kernel = kernel_approx(approx, 2, cyl4_ball15)
    assert {x.data for x in kernel} == set(cyl4_ball15.data_up_to(2))
    assert kernel_index_estimate(kernel, cyl4_ball15) == (1, False)
    with pytest.raises(DomainExhausted):
        kernel_approx(approx, 3, cyl4_ball15)


def test_cylinder_sign_match(cyl4_ball15):
    approx = boundary_approx(cyl4_ball15, 12, 3)
    g, h = approx.stable_classes()
    kernel = kernel_approx(approx, 2, cyl4_ball15)
    match = sign_match(g, h, kernel)
    assert match.q == -1
    assert match.kernel_dev == 0
    assert match.ball_dev == 0


def test_sign_match_domain_mismatch(z_ball):
    a = Functional(z_ball, 1, (0, -1, 1))
    b = Functional(z_ball, 2, (0, -1, 1, -2, 2))
    with pytest.raises(DomainMismatch):
        sign_match(a, b, [])


def test_line_dominates_itself(z_ball):
    h = boundary_approx(z_ball, 10, 3).busemann_classes()[0]
    dom = dominating_busemann(h, z_ball, 10)
    assert dom.vector == h.vector
    assert dom.provenance == "geodesic"


def test_finite_group_has_no_dominator():
    g = FgAbelianGroup(FgAbelianSpec(free_rank=0, torsion=(8,)))
    gens = symmetric_generating_set(g, [g.element((1,))])
    ball = grow_ball(g, gens, 6)
    approx = boundary_approx(ball, 4, 1)
    assert approx.class_count() == 1
    klass = approx.classes[0]
    assert klass.functional.vector == (0, -1, -1)
    assert not klass.stable and not klass.busemann
    with pytest.raises(NoDominatorAtLevel) as info:
        dominating_busemann(klass.functional, ball, 4)
    assert info.value.payload == {
        "level": {"r": 4, "m": 1},
        "vector": [0, -1, -1],
    }


# ---------------------------------------------------------------------------
# bend scans and slow geodesics


def test_bend_scan_on_line(z_ball):
    group = z_ball.group
    h = busemann_functional(z_ball, group.element((4,)), 11)
    prefix = geodesic_between(z_ball, group.identity(), group.element((8,)))
    scan = bend_scan(prefix, 2, h, z_ball)
    assert scan.phi == (-2, -2, -2, 0, 2, 2, 2)
    assert scan.signs == (-1, -1, -1, 0, 1, 1, 1)
    assert scan.t == 3 and scan.epsilon == 0
    assert scan.is_two_lipschitz()


def test_bend_scan_guards(z_ball):
    group = z_ball.group
    h = busemann_functional(z_ball, group.element((4,)), 11)
    short = geodesic_between(z_ball, group.identity(), group.element((1,)))
    with pytest.raises(RangeEmpty):
        bend_scan(short, 2, h, z_ball)
    long = geodesic_between(z_ball, group.identity(), group.element((14,)))
    with pytest.raises(DomainExhausted):
        bend_scan(long, 2, h, z_ball)


def test_slow_geodesic_on_diag_cylinder(cyl30_ball67, cyl30_approx):
    group = cyl30_ball67.group
    x = group.element((0, 15))
    assert cyl30_ball67.norm(x) == 30
    slow = slow_geodesic(x, 2, 8, cyl30_ball67, cyl30_approx)
    assert slow.t == 14 and slow.epsilon == 0
    assert slow.kernel_index == 1 and not slow.kernel_index_exact
    assert slow.bound == 7
    assert slow.class_values == (0, 0)
    assert slow.prefix.length == 8
    assert slow.scan.phi.count(-2) == 14
    assert slow.scan.is_two_lipschitz()


def test_slow_geodesic_range_guard(cyl30_ball67, cyl30_approx):
    x = cyl30_ball67.group.element((0, 15))
    with pytest.raises(RangeEmpty):
        slow_geodesic(x, 2, 21, cyl30_ball67, cyl30_approx)
