"""Balls, distances, segments, BFS paths: everything checked against BFS oracles."""

import io
import random
from dataclasses import replace
from importlib import resources
from itertools import permutations

import pytest

from horobound import cayley, vabelian
from horobound.cayley import (
    Ball,
    geodesic_prefixes,
    grow_ball,
    segment,
)
from horobound.cli import parse_spec, run_command
from horobound.errors import BallTooLarge, GroupMismatch, OutOfBall, OutOfRange
from horobound.examples import REGISTRY, example
from horobound.groups import (
    Element,
    ExtensionGroup,
    FgAbelianGroup,
    FgAbelianSpec,
    FiniteGroupSpec,
    FiniteTableGroup,
    GeneratingSet,
    VAbExtensionGroup,
    VAbExtensionSpec,
    cyclic_table,
    symmetric_generating_set,
)

from oracles import (
    ball_distance,
    bfs_dist,
    cyl_closed_norm,
    diag_norm,
    l1,
    lamp_mul,
    lamp_word_norm,
    oracle_ball,
    oracle_form,
    oracle_geodesic_defects,
    oracle_geodesic_prefixes,
    oracle_segment,
    zd_inv,
    zd_mul,
)

SPECS = resources.files("horobound") / "specs"


def _oracle_table(group, gens, radius):
    return bfs_dist(
        group.mul_data, [s.data for s in gens], group.identity_data(), radius
    )


def _assert_ball_is_oracle(ball):
    """Every field of the ball against the queue BFS on the data."""
    group, gens = ball.group, ball.gens
    want = oracle_ball(
        group.mul_data, [s.data for s in gens], group.identity_data(), ball.radius
    )
    nbr = ball.nbr  # complete as grown
    assert ball.data == want["data"]
    assert ball.index == {x: i for i, x in enumerate(want["data"])}
    assert list(ball.parent) == want["parent"]
    assert list(ball.parent_gen) == want["parent_gen"]
    assert ball.offsets == want["offsets"]
    assert [list(col[:-1]) for col in nbr] == want["nbr"]
    assert [col[-1] for col in nbr] == [-1] * len(gens)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_ball_matches_bfs_oracle(name):
    group, gens = example(name)
    _assert_ball_is_oracle(grow_ball(group, gens, 8))


# the radii each bundled extension spec's own command grows its balls to, in
# order: polytope and witness grow the hull's cycle-norm ball first
BUNDLED_RADII = {
    "cylinder_n3.spec": [15],
    "cylinder_n30_diag.spec": [67],
    "cylinder_n4.spec": [15],
    "cylinder_n4_ext.spec": [4, 8],
    "cylinder_n5.spec": [15],
    "cylinder_n6.spec": [15],
    "fat_cylinder_n3.spec": [12],
    "z2_rot4.spec": [10],
    "z2_standard.spec": [1, 16],
    "z_line.spec": [13],
}


@pytest.mark.parametrize("name", sorted(BUNDLED_RADII))
def test_bundled_extension_balls_match_oracle(name, monkeypatch):
    """Each ball a bundled run grows, caught on its way out of grow_ball."""
    _, _, config = parse_spec(str(SPECS / name))
    balls = []

    def recording(*args, **kwargs):
        balls.append(grow_ball(*args, **kwargs))
        return balls[-1]

    monkeypatch.setattr(cayley, "grow_ball", recording)
    monkeypatch.setattr(vabelian, "grow_ball", recording)
    run_command(config)
    assert isinstance(balls[0].group, ExtensionGroup)
    assert [ball.radius for ball in balls] == BUNDLED_RADII[name]
    for ball in balls:
        _assert_ball_is_oracle(ball)


@pytest.mark.parametrize(
    "name", sorted(p.name for p in SPECS.iterdir() if p.name.endswith(".spec"))
)
def test_bundled_spec_balls_match_oracle_in_their_own_order(name):
    """Each bundled group in its spec file's generator order, which may
    differ from REGISTRY's. Where two (position, generator) pairs of one
    layer reach the same new element, the first is its parent."""
    group, gens, _ = parse_spec(str(SPECS / name))
    ball = grow_ball(group, gens, 6)
    _assert_ball_is_oracle(ball)
    first, ties = {}, 0
    for i in range(len(ball)):
        for g, col in enumerate(ball.nbr):
            j = col[i]
            if j >= 0 and ball.dist[j] == ball.dist[i] + 1:
                ties += j in first
                first.setdefault(j, (i, g))
    assert all((ball.parent[j], ball.parent_gen[j]) == pair for j, pair in first.items())
    assert len(first) == len(ball) - 1
    assert (ties > 0) == (name != "z_line.spec")


@pytest.mark.parametrize("name", ["z2_rot4.spec", "lamplighter.spec", "z2_standard.spec"])
def test_ball_in_slices_cut_mid_layer_matches_oracle(name, monkeypatch):
    # 7 keys a slice cuts every layer past the first few mid-way, and at no
    # multiple of |S|, so each slice's parents start from its own position
    monkeypatch.setattr(cayley, "SLICE", 7)
    group, gens, _ = parse_spec(str(SPECS / name))
    _assert_ball_is_oracle(grow_ball(group, gens, 8))


def test_lamplighter_growth_expands_a_slice_at_a_time(monkeypatch):
    # the radius-16 rim holds 12,524 elements, 37,572 products at once
    # before slicing; each expand call now returns at most SLICE |S|
    group, gens, _ = parse_spec(str(SPECS / "lamplighter.spec"))
    ball_keys, sizes = group.ball_keys, []

    def recording(gen_data, radius):
        start, expand, decode = ball_keys(gen_data, radius)

        def counted(keys):
            products = expand(keys)
            sizes.append(len(products))
            return products

        return start, counted, decode

    monkeypatch.setattr(group, "ball_keys", recording)
    ball = grow_ball(group, gens, 16)
    assert max(sizes) == cayley.SLICE * len(gens) == 4096 * 3
    assert sum(sizes) == len(ball) * len(gens)


def test_every_bundled_extension_spec_is_covered():
    names = {p.name for p in SPECS.iterdir() if p.name.endswith(".spec")}
    assert set(BUNDLED_RADII) == names - {"lamplighter.spec"}


def _s3() -> FiniteTableGroup:
    """The symmetric group on three points, permutations composed left to right."""
    perms = list(permutations(range(3)))  # the identity first
    table = tuple(
        tuple(perms.index(tuple(b[a[i]] for i in range(3))) for b in perms) for a in perms
    )
    return FiniteTableGroup(FiniteGroupSpec(table))


def _edge_groups():
    """(group, generating set, c, radius): c is the most that one generator
    step moves a coordinate of the free part, so a^radius for a generator a
    that moves one by c reaches +-radius c, and a^(radius + 1), which the
    search forms on the rim, the edge of the packed keys' range."""
    tors = FgAbelianGroup(FgAbelianSpec(free_rank=2, torsion=(3,)))
    tors_gens = [tors.element(x) for x in [(7, -7, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1)]]
    # Z^2 by Z/2 swapping the coordinates, with the cocycle c(1, 1) = (1, 1),
    # so t^2 = (1, 1) for t = (0, 0; 1)
    twisted = VAbExtensionGroup(
        VAbExtensionSpec(
            rank=2,
            quotient_table=cyclic_table(2),
            action=(((1, 0), (0, 1)), ((0, 1), (1, 0))),
            cocycle=(((0, 0), (0, 0)), ((0, 0), (1, 1))),
        )
    )
    twisted_gens = [twisted.element(x) for x in [((5, 0), 0), ((1, 0), 0), ((0, 0), 1)]]
    s3 = _s3()
    trivial = FgAbelianGroup(FgAbelianSpec(free_rank=0))
    # a key range that ends at radius c would send the rim product
    # (12, 0) (3, 0) to the key of (-12, 1), which has norm 4
    z2 = FgAbelianGroup(FgAbelianSpec(free_rank=2))
    rim_gens = [z2.element(x) for x in [(3, 0), (0, 1), (3, -1), (1, 0)]]
    return [
        (tors, symmetric_generating_set(tors, tors_gens), 7, 6),
        (twisted, symmetric_generating_set(twisted, twisted_gens), 5, 6),
        (s3, symmetric_generating_set(s3, [s3.element(1), s3.element(2)]), 0, 6),
        # the trivial group has no generating set without the identity, which
        # symmetric_generating_set refuses, so this one is built by hand
        (trivial, GeneratingSet((trivial.identity(),), ("e",)), 0, 6),
        (z2, symmetric_generating_set(z2, rim_gens), 3, 4),
    ]


@pytest.mark.parametrize("case", range(5), ids=["torsion", "twisted", "s3", "trivial", "rim"])
def test_packed_keys_at_the_edge_of_their_range(case):
    group, gens, c, radius = _edge_groups()[case]
    ball = grow_ball(group, gens, radius)
    _assert_ball_is_oracle(ball)
    for x in ball.data:
        assert group.join(group.free_part(x), group.coset_of(x)) == x
    coords = [v for x in ball.data for v in group.free_part(x)]
    if group.rank:
        assert (min(coords), max(coords)) == (-radius * c, radius * c)
    else:
        assert coords == []


def test_budget_enforced(z2_pair, lamp_pair):
    """BallTooLarge fires at the same radius with the same message whether
    the ball grows on packed keys (z2) or on the data itself (lamplighter)."""
    for group, gens in (z2_pair, lamp_pair):
        k = 3
        size = len(grow_ball(group, gens, k))
        for budget in (size, size + 1):
            assert len(grow_ball(group, gens, k, budget=budget)) == size
            with pytest.raises(BallTooLarge) as caught:
                grow_ball(group, gens, k + 2, budget=budget)
            assert str(caught.value) == (
                f"ball exceeded budget of {budget} elements at radius {k + 1}"
            )
        # no ball fits a budget below one, not even B_0
        for budget in (0, -5):
            with pytest.raises(OutOfRange, match=f"budget must be >= 1, got {budget}"):
                grow_ball(group, gens, 0, budget=budget)


def test_layer_one_is_generator_order(z2_pair):
    group, gens = z2_pair
    ball = grow_ball(group, gens, 2)
    assert ball.data[ball.size(0) : ball.size(1)] == [s.data for s in gens]


def test_data_up_to_is_layer_concatenation(cyl4_ball15):
    for r in range(1, 6):
        layer = cyl4_ball15.data[cyl4_ball15.offsets[r] : cyl4_ball15.offsets[r + 1]]
        assert cyl4_ball15.data_up_to(r) == cyl4_ball15.data_up_to(r - 1) + layer


def test_z2_norm_is_l1(z2_ball12):
    for data in z2_ball12.data_up_to(12):
        assert z2_ball12.dist_data(data) == l1(data)


def test_cylinder_norm_closed_form(cyl4_ball15):
    for data in cyl4_ball15.data_up_to(12):
        assert cyl4_ball15.dist_data(data) == cyl_closed_norm(4, *data)


def test_diag_cylinder_norm_closed_form(cyl30_ball67):
    for data in cyl30_ball67.data_up_to(20):
        assert cyl30_ball67.dist_data(data) == diag_norm(*data)


def test_lamplighter_norm_closed_form(lamp_pair):
    group, gens = lamp_pair
    form = oracle_form(group)
    # the closed form against plain BFS on tuples first
    table = bfs_dist(lamp_mul, [form(s.data) for s in gens], ((), 0), 6)
    for (lamps, k), n in table.items():
        assert lamp_word_norm(lamps, k) == n
    # then against the ball, where BFS on tuples would be slow
    ball = grow_ball(group, gens, 16)
    assert len(ball) == 31762
    for data, n in zip(ball.data, ball.dist):
        assert lamp_word_norm(*form(data)) == n


def test_norm_errors(z2_ball12, z_ball):
    group = z2_ball12.group
    with pytest.raises(OutOfBall):
        z2_ball12.norm(group.element((13, 0)))
    with pytest.raises(GroupMismatch):
        z2_ball12.norm(z_ball.group.element((1,)))


def test_sphere_range_checked(z_ball):
    assert set(z_ball.data[z_ball.size(1) : z_ball.size(2)]) == {(2, 0), (-2, 0)}
    with pytest.raises(OutOfBall):
        z_ball.size(16)


def test_exhausted_finite_group():
    g = FgAbelianGroup(FgAbelianSpec(free_rank=0, torsion=(8,)))
    gens = symmetric_generating_set(g, [g.element((1,))])
    ball = grow_ball(g, gens, 6)
    off = ball.offsets
    assert [b - a for a, b in zip(off, off[1:])] == [1, 2, 2, 2, 1, 0]
    assert off[-1] == off[-2]
    assert len(ball) == 8


def test_path_descends_along_parent_edges(cyl4_ball15):
    ball = cyl4_ball15
    rng = random.Random(3)
    for _ in range(50):
        i = rng.randrange(len(ball))
        path = ball.path(i)
        assert path[0] == 0 and path[-1] == i
        assert [ball.dist[p] for p in path] == list(range(ball.dist[i] + 1))
        for a, b in zip(path, path[1:]):
            assert ball.nbr[ball.parent_gen[b]][a] == b


def test_distance_and_segment_vs_oracle(cyl4_ball15, cyl4_pair):
    group, gens = cyl4_pair
    table = _oracle_table(group, gens, 15)
    universe = set(cyl4_ball15.data_up_to(15))
    rng = random.Random(11)
    pool = cyl4_ball15.data_up_to(6)
    for _ in range(40):
        a, b = rng.choice(pool), rng.choice(pool)
        x, y = Element(group, a), Element(group, b)
        d = ball_distance(cyl4_ball15, x, y)
        assert d == table[group.mul_data(group.inv_data(a), b)]
        seg = {z.data for z in segment(cyl4_ball15, x, y)}
        expect = oracle_segment(
            table, group.mul_data, group.inv_data, universe, a, b
        )
        # the library only scans translates staying inside the ball, which
        # is everything here since |a|,|b| <= 6 and the radius is 15
        assert seg == expect
        assert a in seg and b in seg


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_gather_matches_multiplication(name):
    """gather(z^-1, |B_m|) against index(z^-1 x), products by mul_data."""
    group, gens = example(name)
    ball = grow_ball(group, gens, 8)
    mul, inv = group.mul_data, group.inv_data
    rng = random.Random(17)
    for zdata in rng.choices(ball.data_up_to(8), k=12):
        start = ball.inv_index(ball.index[zdata])
        assert ball.data[start] == inv(zdata)
        m = rng.randrange(0, 9 - ball.dist_data(zdata))  # |z| + m <= radius
        pos = ball.gather(start, ball.size(m))
        assert pos == [ball.index[mul(inv(zdata), x)] for x in ball.data_up_to(m)]


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_gather_leaving_the_ball(name):
    """Past the rim an entry is -1 iff its product or an ancestor's leaves."""
    group, gens = example(name)
    ball = grow_ball(group, gens, 6)
    mul, inv = group.mul_data, group.inv_data
    rng = random.Random(23)
    seen_outside = False
    spheres = ball.data[ball.size(3) : ball.size(4)] + ball.data[ball.size(5) : ball.size(6)]
    for zdata in rng.choices(spheres, k=6):
        pos = ball.gather(ball.inv_index(ball.index[zdata]), ball.size(4))
        for k, x in enumerate(ball.data_up_to(4)):
            a, leaves = k, False
            while a >= 0:
                leaves = leaves or ball.index.get(mul(inv(zdata), ball.data[a])) is None
                a = ball.parent[a]
            if leaves:
                assert pos[k] == -1
                seen_outside = True
            else:
                assert pos[k] == ball.index[mul(inv(zdata), x)]
    assert seen_outside


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_gather_after_a_smaller_and_after_a_larger_prefix(name):
    """The gather plan is extended as far as a gather reads: B_3 then B_8
    extends it twice, B_8 then B_3 reads a prefix of it."""
    group, gens = example(name)
    mul, inv = group.mul_data, group.inv_data
    for radii in ([3, 8], [8, 3]):
        ball = grow_ball(group, gens, 10)
        for m in radii:
            for zdata in ball.data[ball.size(1) : ball.size(2)]:  # |z| + m <= radius
                pos = ball.gather(ball.inv_index(ball.index[zdata]), ball.size(m))
                assert pos == [ball.index[mul(inv(zdata), x)] for x in ball.data_up_to(m)]


def test_neighbour_entries_are_the_index_ints():
    """A packed-key ball's neighbour columns hold the position ints its data
    index holds, so an entry costs a pointer and no int of its own."""
    group, gens = example("z2_rot4")
    ball = grow_ball(group, gens, 12)
    assert isinstance(group, ExtensionGroup) and len(ball) > 256  # past the cached ints
    for col in ball.nbr:
        for j in col[:-1]:
            assert j == -1 or j is ball.index[ball.data[j]]


def _brute_segment(ball, x, y):
    """Every z in the ball with d(x, z) + d(z, y) = d(x, y), distances read
    off the ball. A point of the segment has |z| <= |x| + d(x, y) and
    2|z| <= |x| + |y| + d(x, y) <= 2(|x| + |y|), so this is the whole
    segment when x = 1 or |x| + |y| <= radius."""
    group = ball.group
    d = ball_distance(ball, x, y)
    out = set()
    for zdata in ball.data_up_to(min(ball.radius, ball.norm(x) + d)):
        z = Element(group, zdata)
        to_z, from_z = ball_distance(ball, x, z), ball_distance(ball, z, y)
        # None: d(x, z) or d(z, y) > radius >= d
        if to_z is not None and from_z is not None and to_z + from_z == d:
            out.add(z)
    return out


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_segment_past_the_rim_vs_brute_force(name):
    """segment(1, y) with 2|y| > radius, where u^-1 B_d leaves the ball."""
    group, gens = example(name)
    ball = grow_ball(group, gens, 12)
    identity = group.identity()
    rng = random.Random(2026)
    far = [d for d in ball.data_up_to(8) if 2 * ball.dist_data(d) > 12]
    exercised = False
    for ydata in rng.choices(far, k=8):
        y = Element(group, ydata)
        d = ball.dist_data(ydata)
        exercised = exercised or -1 in ball.gather(ball.inv_index(ball.index[ydata]), ball.size(d))
        assert segment(ball, identity, y) == _brute_segment(ball, identity, y)
    assert exercised


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_segment_from_any_point_vs_brute_force(name):
    """segment(x, y) for x != 1, with |x| + |y| at the radius and below it."""
    group, gens = example(name)
    radius = 10
    ball = grow_ball(group, gens, radius)
    rng = random.Random(34)
    pairs = []
    for total in (radius, radius, radius - 1, radius - 1, radius - 3, 6):
        nx = rng.randrange(1, total)
        xs = ball.data[ball.size(nx - 1) : ball.size(nx)]
        ys = ball.data[ball.size(total - nx - 1) : ball.size(total - nx)]
        pairs.append((rng.choice(xs), rng.choice(ys)))
    pairs += [tuple(rng.choices(ball.data_up_to(radius // 2), k=2)) for _ in range(4)]
    for xdata, ydata in pairs:
        x, y = Element(group, xdata), Element(group, ydata)
        seg = segment(ball, x, y)
        assert seg == _brute_segment(ball, x, y)
        assert x in seg and y in seg
        assert seg == segment(ball, y, x)


def test_segment_gathers_nothing():
    """A segment is walked down from its far end: on Z^2, segment(1, (50, 50))
    is the 51 x 51 box, read without a gather plan on a radius-150 ball."""
    group, gens = example("z2")
    ball = grow_ball(group, gens, 150)
    seg = segment(ball, group.identity(), group.element((50, 50)))
    assert {z.data for z in seg} == {(a, b, 0) for a in range(51) for b in range(51)}
    assert ball._plan == []


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_gather_returns_exactly_size_entries(name):
    group, gens = example(name)
    ball = grow_ball(group, gens, 4)
    for start in (0, ball.size(2) - 1):  # |x_start| + 2 <= radius
        assert ball.gather(start, 0) == []
        for size in range(1, ball.size(2) + 1):
            assert len(ball.gather(start, size)) == size
    with pytest.raises(OutOfRange, match="size -1"):
        ball.gather(0, -1)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_inv_index_at_every_position(name):
    """Every position's inverse, read in ascending order and then, from the
    ball's memory, in descending order."""
    group, gens = example(name)
    ball = grow_ball(group, gens, 6)
    expect = [ball.index[group.inv_data(x)] for x in ball.data]
    assert [ball.inv_index(i) for i in range(len(ball))] == expect
    assert [ball.inv_index(i) for i in reversed(range(len(ball)))] == expect[::-1]
    fresh = grow_ball(group, gens, 6)
    assert [fresh.inv_index(i) for i in reversed(range(len(fresh)))] == expect[::-1]


def test_distance_out_of_ball(z_ball):
    # d(-10, 10) = 20 is past the radius, so no segment is walked
    g = z_ball.group
    with pytest.raises(OutOfBall, match=r"d\(\(-10\),\(10\)\) needs \(20\) beyond radius"):
        segment(z_ball, g.element((-10,)), g.element((10,)))


def test_path_is_a_geodesic(z2_ball12):
    # on Z^2 the word norm is the l1 norm, so every pair of vertices is measured
    ball = z2_ball12
    for data in [(3, 4, 0), (-6, 6, 0), (0, -12, 0), (5, 0, 0)]:
        path = [ball.data[p] for p in ball.path(ball.index[data])]
        assert path[-1] == data and len(path) == l1(data) + 1
        assert oracle_geodesic_defects(l1, zd_mul, zd_inv, path) == []


def test_geodesic_oracle_flags_a_detour():
    path = [(0, 0), (1, 0), (1, 1), (0, 1)]  # (0, 0) and (0, 1) are adjacent
    assert oracle_geodesic_defects(l1, zd_mul, zd_inv, path) == [(0, 3)]


def test_prefix_dag_on_line(z_ball):
    dag = geodesic_prefixes(z_ball, 3, 6)
    assert dag.count() == 2
    assert (dag.depth, dag.min_horizon) == (3, 6)
    fmt = z_ball.group.format_data
    assert [[fmt(z_ball.data[i]) for i in layer] for layer in dag.layers] == [
        ["(0)"], ["(1)", "(-1)"], ["(2)", "(-2)"], ["(3)", "(-3)"]
    ]
    reach = z_ball.reach_data()
    assert {reach[i] for layer in dag.layers for i in layer} == {15}


def _dag_matches_brute_force(group, gens, radius):
    """Every 0 <= n <= r < radius: count, layers and edges against the oracle."""
    ball = grow_ball(group, gens, radius)
    gen_data = [s.data for s in gens]
    for r in range(radius):
        for n in range(r + 1):
            dag = geodesic_prefixes(ball, n, r)
            want = oracle_geodesic_prefixes(
                group.mul_data, gen_data, group.identity_data(), n, r
            )
            assert dag.count() == len(want), (n, r)
            got = [{ball.data[i] for i in layer} for layer in dag.layers]
            assert got == [{p[k] for p in want} for k in range(n + 1)], (n, r)
            edges = [(ball.data[i], ball.data[j]) for i, j in dag.edges()]
            assert len(edges) == len(set(edges))
            assert set(edges) == {(p[k], p[k + 1]) for p in want for k in range(n)}


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_prefix_dag_matches_brute_force(name):
    _dag_matches_brute_force(*example(name), 7)


@pytest.mark.parametrize("order, gens", [(5, ["1"]), (12, ["1", "4"])])
def test_prefix_dag_on_finite_groups(order, gens):
    # past the diameter no prefix extends, not even the empty one at n = 0;
    # Z/12 with 1, 4 has dead ends at norm 2 next to elements of norm 2 that
    # go on to norm 3
    group = FiniteTableGroup(FiniteGroupSpec(cyclic_table(order)))
    _dag_matches_brute_force(
        group, symmetric_generating_set(group, [group.parse(g) for g in gens]), 6
    )


def test_prefix_count_closed_forms(z_pair, z2_pair):
    # Z^2, standard generators: C(n, a) words to each (x, y) with |x| = a,
    # |y| = n - a, so 4 + 4 (2^n - 2) = 4 (2^n - 1) prefixes, for any r >= n
    z2 = grow_ball(*z2_pair, 20)
    z = grow_ball(*z_pair, 20)
    for n in range(1, 21):
        for r in {n, 20}:
            assert geodesic_prefixes(z2, n, r).count() == 4 * (2**n - 1)
            assert geodesic_prefixes(z, n, r).count() == 2
    assert geodesic_prefixes(z2, 0, 20).count() == 1


def test_prefix_dag_argument_checks(z_ball):
    with pytest.raises(ValueError):
        geodesic_prefixes(z_ball, 5, 3)
    with pytest.raises(OutOfBall):
        geodesic_prefixes(z_ball, 3, 16)


def test_ball_csv(z_ball):
    buf = io.StringIO()
    z_ball.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "element,distance,parent"
    assert lines[1] == "(0),0,"
    assert lines[2] == "(1),1,a"
    assert lines[3] == "(-1),1,a^-1"
    assert len(lines) == 1 + len(z_ball)


def test_prefix_dag_dot(z_ball):
    buf = io.StringIO()
    dag = geodesic_prefixes(z_ball, 2, 4)
    dag.to_dot(buf)
    text = buf.getvalue()
    assert text.startswith("digraph prefixes {\n")
    assert text.endswith("}\n")
    assert 'label="(0) h=15"' in text
    lines = text.splitlines()[1:-1]
    assert len(lines) == 5 + 4  # vertices (0), (+-1), (+-2); one edge into each but (0)
    assert len(set(lines)) == len(lines)


def test_ball_with_prefixes_fills_the_reach_table_once(monkeypatch):
    # geodesic_prefixes keeps the table on the DAG, whose count and dot file
    # read it there
    fills = []
    real = Ball.reach_data

    def counted(self):
        fills.append(1)
        return real(self)

    monkeypatch.setattr(Ball, "reach_data", counted)
    _, _, config = parse_spec(str(SPECS / "z2_standard.spec"))
    report, sides = run_command(replace(config, command="ball").with_params(r=6, n=3))
    assert report["prefix_tree"]["count"] > 0 and sides["prefixes.dot"]
    assert len(fills) == 1


def test_reach_data_on_line(z_ball):
    reach = z_ball.reach_data()
    # every point of the line extends to a geodesic hitting the ball rim
    assert len(reach) == len(z_ball)
    assert all(v == 15 for v in reach)
