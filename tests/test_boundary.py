"""Functionals, level-(r, m) boundary snapshots, the action, slow geodesics."""

import random

import pytest

from horobound.boundary import (
    Functional,
    act,
    bend_scan,
    boundary_approx,
    busemann_functional,
    dominating_busemann,
    kernel_approx,
    kernel_index_estimate,
    sign_match,
    slow_geodesic,
)
from horobound.cayley import Ball, geodesic_between, grow_ball
from horobound.errors import (
    DomainExhausted,
    DomainMismatch,
    NoDominatorAtLevel,
    OutOfBall,
    OutOfRange,
    RangeEmpty,
)
from horobound.examples import REGISTRY, example
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
    approx = boundary_approx(z_ball, 10, 3)
    points = approx.stable_busemann_classes()
    assert len(points) == 2
    assert points == approx.busemann_classes() == approx.stable_classes()


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
    # with no outer radii to compare, every class would read as stable
    for window in (0, -1):
        with pytest.raises(ValueError, match="window >= 1"):
            boundary_approx(z_ball, 10, 3, window=window)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_interior_shadow_matches_brute_force(name):
    group, gens = REGISTRY[name]()
    ball = grow_ball(group, gens, 13)
    flags = set()
    for r, m in [(6, 2), (9, 3), (10, 3)]:
        approx = boundary_approx(ball, r, m)
        shadows = {
            busemann_functional(ball, Element(group, z), m).vector
            for z in ball.data_up_to(m)
        }
        for c in approx.classes:
            assert c.interior_shadow == (c.functional.vector in shadows)
            flags.add(c.interior_shadow)
    if name == "z_line":
        assert flags == {True}
    if name == "cylinder_n4":
        assert flags == {False}


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


def _act_matches(approx):
    """The action table by its definition: s.h through act, then restrictions."""
    ball = approx.ball
    funs = [c.functional for c in approx.classes]
    rows = []
    for s in ball.gens.elements:
        row = []
        for h in funs:
            moved = act(h, s, ball)
            same = [i for i, g in enumerate(funs) if g.restrict(moved.domain_radius) == moved]
            row.append(same[0] if same else None)
        rows.append(tuple(row))
    return tuple(rows)


def _act_kernel(approx, search_radius, ball):
    """kernel_approx by its definition: x fixes h when x.h equals h restricted."""
    classes = approx.busemann_classes()
    out = []
    for x in ball.elements(search_radius):
        moved = [act(h, x, ball) for h in classes]
        if all(g == h.restrict(g.domain_radius) for g, h in zip(moved, classes)):
            out.append(x.data)
    return out


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_kernel_and_action_table_match_act(name):
    group, gens = REGISTRY[name]()
    ball = grow_ball(group, gens, 11)
    for r, m in [(6, 3), (8, 3)]:
        approx = boundary_approx(ball, r, m)
        assert approx.action_table().matches == _act_matches(approx)
        for search_radius in range(m):
            kernel = kernel_approx(approx, search_radius, ball)
            assert [x.data for x in kernel] == _act_kernel(approx, search_radius, ball)


def test_kernel_approx_needs_the_approximation_ball(z_ball):
    approx = boundary_approx(z_ball, 10, 3)
    other = grow_ball(z_ball.group, z_ball.gens, z_ball.radius)
    with pytest.raises(DomainMismatch):
        kernel_approx(approx, 2, other)


# ---------------------------------------------------------------------------
# kernel, sign matching, domination


def test_cylinder_kernel_is_everything(cyl4_ball15):
    approx = boundary_approx(cyl4_ball15, 12, 3)
    kernel = kernel_approx(approx, 2, cyl4_ball15)
    assert {x.data for x in kernel} == set(cyl4_ball15.data_up_to(2))
    assert kernel_index_estimate(kernel, cyl4_ball15) == (1, False)
    with pytest.raises(DomainExhausted):
        kernel_approx(approx, 3, cyl4_ball15)
    with pytest.raises(OutOfRange):  # B_-1 is empty, not even the identity
        kernel_approx(approx, -1, cyl4_ball15)


def _tuple_kernel_index(kernel, ball):
    """kernel_index_estimate with the subgroup closure multiplied out on payloads."""
    group = ball.group
    gens = {x.data for x in kernel} | {group.inv_data(x.data) for x in kernel}
    gens.discard(group.identity_data())
    closure = {group.identity_data()}
    frontier = [group.identity_data()]
    escaped = False
    gen_list = sorted(gens)
    while frontier:
        nxt = []
        for w in frontier:
            for u in gen_list:
                v = group.mul_data(w, u)
                if v in closure:
                    continue
                if ball.dist_data(v) is None:
                    escaped = True
                    continue
                closure.add(v)
                nxt.append(v)
        frontier = nxt

    half = ball.radius // 2
    size = ball.size(half)
    inside = {ball.index[v] for v in closure}
    rep_translates = []
    counts = []
    for rr in range(half + 1):
        for x in range(ball.size(rr - 1), ball.size(rr)):
            if not any(pos[x] in inside for pos in rep_translates):
                rep_translates.append(ball.gather(ball.inv_index(x), size))
        counts.append(len(rep_translates))
    stableized = len(counts) >= 3 and counts[-1] == counts[-2] == counts[-3]
    return len(rep_translates), (not escaped) and stableized


def _z8():
    group = FgAbelianGroup(FgAbelianSpec(free_rank=0, torsion=(8,)))
    return group, symmetric_generating_set(group, [group.element((1,))])


# a finite subgroup of each group, generated inside B_2; only in the finite
# Z/8 can the closure stay inside the ball and the index be certified
_FINITE = {
    "z_line": [],
    "z2": [],
    "cylinder_n4": [(0, 1)],
    "z2_rot4": [((0, 0), 1)],
    "fat_cylinder_n3": [(0, 1)],
    "lamplighter_z2": [((0,), 0)],
    "z8": [(2,)],
}


def test_kernel_index_matches_tuple_closure(monkeypatch):
    results = set()
    fallback_calls = fallback_inside = 0
    for name, make in sorted({**REGISTRY, "z8": _z8}.items()):
        group, gens = make()
        ball = grow_ball(group, gens, 8)
        ball.neighbours(len(ball))  # from here on every mul_data is a fallback
        kernels = [
            kernel_approx(boundary_approx(ball, 5, 3), 2, ball),
            [Element(group, d) for d in _FINITE[name]],
            list(ball.elements(2)),  # its closure reaches the rim
            # a generator outside the ball has no parent path
            [Element(group, group.mul_data(ball.data[-1], s.data)) for s in gens],
        ]
        calls = []
        mul = group.mul_data

        def counting(a, b):
            v = mul(a, b)
            calls.append(v in ball.index)
            return v

        for kernel in kernels:
            expected = _tuple_kernel_index(kernel, ball)
            monkeypatch.setattr(group, "mul_data", counting)
            got = kernel_index_estimate(kernel, ball)
            monkeypatch.undo()
            assert got == expected, name
            results.add(expected)
        fallback_calls += len(calls)
        fallback_inside += sum(calls)
    # both flags occur, and the fallback ran and found products inside the ball
    assert {exact for _, exact in results} == {True, False}
    assert fallback_calls > fallback_inside > 0


def test_bend_level_work_counts(monkeypatch, cyl30_ball67):
    # the cylinder_n30_diag bend level: the interior-shadow test and the
    # kernel closure stay far below the |B_18| = 685 extra gathers and the
    # 48,600 products they once took
    ball = cyl30_ball67
    gathers = []
    gather = Ball.gather

    def counting_gather(self, start, size):
        gathers.append(size)
        return gather(self, start, size)

    monkeypatch.setattr(Ball, "gather", counting_gather)
    approx = boundary_approx(ball, 49, 18)
    assert len(gathers) < 300
    monkeypatch.undo()

    kernel = kernel_approx(approx, 2, ball)
    products = []
    mul = ball.group.mul_data

    def counting_mul(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(ball.group, "mul_data", counting_mul)
    assert kernel_index_estimate(kernel, ball) == (1, False)
    assert 0 < len(products) < 1000


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
    assert dom == h


def test_class_without_witness_dominates_itself(z_ball):
    vec = boundary_approx(z_ball, 10, 3).busemann_classes()[0].vector
    h = Functional(z_ball, 3, vec)  # a bare vector, not one of the level's classes
    dom = dominating_busemann(h, z_ball, 10)
    assert dom.vector == vec


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
