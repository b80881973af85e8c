"""Functionals, level-(r, m) boundary snapshots, the action, slow geodesics."""

import random
from collections import Counter
from importlib import resources

import pytest

from horobound import boundary as boundary_mod
from horobound.boundary import (
    BoundaryApprox,
    BoundaryClass,
    Functional,
    bend_scan,
    boundary_approx,
    busemann_functional,
    kernel_approx,
    kernel_index_estimate,
    sign_match,
    slow_geodesic,
)
from horobound.cayley import Ball, grow_ball, segment
from horobound.cli import parse_spec
from horobound.errors import (
    DomainExhausted,
    DomainMismatch,
    GroupMismatch,
    InfiniteKernelIndex,
    OutOfBall,
    OutOfRange,
    RangeEmpty,
)
from horobound.examples import REGISTRY, example
from horobound.groups import Element, FgAbelianGroup, FgAbelianSpec, symmetric_generating_set

from oracles import (
    REGISTRY_OPS,
    bfs_dist,
    busemann_vec,
    check_lipschitz,
    cyl_ops,
    diag_norm,
    oracle_act,
    oracle_coset_count,
    oracle_form,
    oracle_geodesic_defects,
)

SPECS = resources.files("horobound") / "specs"


# ---------------------------------------------------------------------------
# functionals


def test_functional_validation(z_ball):
    ok = Functional(z_ball, 2, (0, -1, 1, -2, 2))
    assert ok.value(z_ball.group.element((2,))) == -2
    with pytest.raises(DomainMismatch):
        Functional(z_ball, 2, (0, -1, 1))
    with pytest.raises(ValueError, match="vanish"):
        Functional(z_ball, 2, (1, 0, 0, -1, 1))
    check_lipschitz(z_ball, ok.vector)
    with pytest.raises(ValueError, match="word norm"):
        check_lipschitz(z_ball, (0, 2, -1, 2, -2))
    with pytest.raises(ValueError, match="Lipschitz"):
        check_lipschitz(z_ball, (0, -1, 1, 2, -2))


def test_functional_value_outside_the_domain(z_ball):
    h = busemann_functional(z_ball, z_ball.group.element((10,)), 3)
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
    # 2 -- 3 lies inside the outermost sphere, so the check finds the one bad
    # edge only if it reads the neighbour rows of that sphere.
    g5 = FgAbelianGroup(FgAbelianSpec(free_rank=0, torsion=(5,)))
    gens = symmetric_generating_set(g5, [g5.element((1,))])
    values = {(0,): 0, (1,): 1, (4,): -1, (2,): 2, (3,): -2}
    ball = grow_ball(g5, gens, 2)
    assert ball.data_up_to(2) == [(0,), (1,), (4,), (2,), (3,)]
    with pytest.raises(ValueError, match="Lipschitz"):
        check_lipschitz(ball, tuple(values[d] for d in ball.data_up_to(2)))
    values[(2,)], values[(3,)] = 1, 0
    ok = tuple(values[d] for d in ball.data_up_to(2))
    check_lipschitz(ball, ok)
    assert ok == (0, 1, -1, 1, 0)


def test_functional_stores_a_caller_list_as_a_tuple(z_ball):
    h = Functional(z_ball, 1, [0, -1, 1])
    assert h.vector == (0, -1, 1)
    assert h == Functional(z_ball, 1, (0, -1, 1))
    assert len({h, Functional(z_ball, 1, (0, -1, 1))}) == 1


def _mutant(ball: Ball, vec: tuple, rng: random.Random) -> tuple:
    """vec with one entry pushed past the norm bound or 2 away from its BFS parent."""
    i = rng.randrange(1, len(vec))
    out = list(vec)
    if rng.random() < 0.5:
        out[i] = rng.choice((1, -1)) * (ball.dist[i] + 1)
    else:
        out[i] = vec[ball.parent[i]] + rng.choice((2, -2))
    return tuple(out)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_checked_vectors_never_admit_a_mutant(name):
    group, gens = example(name)
    ball = grow_ball(group, gens, 8)
    rng = random.Random(16)
    pool = ball.data_up_to(5)
    for _ in range(20):
        h = busemann_functional(ball, Element(group, rng.choice(pool)), 3)
        check_lipschitz(ball, h.vector)
        bad = _mutant(ball, h.vector, rng)
        with pytest.raises(ValueError, match="word norm|Lipschitz"):
            check_lipschitz(ball, bad)


def test_one_vector_is_checked_on_each_ball(z_ball):
    # x -> x on B_2 of Z, in BFS order 0, 1, -1, 2, -2; on Z/5 (order 0, 1,
    # 4, 2, 3) the same tuple puts 2 and -2 on the edge 2 -- 3
    g5 = FgAbelianGroup(FgAbelianSpec(free_rank=0, torsion=(5,)))
    ball5 = grow_ball(g5, symmetric_generating_set(g5, [g5.element((1,))]), 3)
    vec = (0, 1, -1, 2, -2)
    check_lipschitz(z_ball, vec)
    with pytest.raises(ValueError, match="Lipschitz"):
        check_lipschitz(ball5, vec)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_built_vectors_pass_the_lipschitz_oracle(name):
    # Functional does not walk the edges, so the vectors the package builds
    # are checked here: boundary classes and Busemann functionals. kernel_approx
    # builds no translate; it compares reads of h with h plus a constant
    group, gens = example(name)
    ball = grow_ball(group, gens, 12)
    functionals = [c.functional for c in boundary_approx(ball, 8, 4).classes]
    rng = random.Random(33)
    for y in rng.choices(ball.data_up_to(8), k=20):
        functionals.append(busemann_functional(ball, Element(group, y), 4))
    for h in functionals:
        check_lipschitz(ball, h.vector)


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


def test_busemann_functional_refuses_a_negative_domain(z2_ball12, monkeypatch):
    gathers = []
    monkeypatch.setattr(Ball, "gather", lambda self, *args: gathers.append(args))
    with pytest.raises(OutOfRange, match="m=-1"):
        busemann_functional(z2_ball12, z2_ball12.group.element((1, 0)), -1)
    assert gathers == []


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_criterion_06_sweep_inverts_each_point_once(name, monkeypatch):
    """A criterion-06 sweep inverts each point it builds a functional at
    once on its ball; apart from those, each segment inverts its x = 1
    once, for u = x^-1 y, which gives both d(x, y) and the walk's start."""
    group, gens = example(name)
    ball = grow_ball(group, gens, 12)
    calls = Counter()

    def inv_data(a, real=group.inv_data):
        calls[a] += 1
        return real(a)

    monkeypatch.setattr(group, "inv_data", inv_data)
    identity = group.identity()
    built = set()
    samples = random.Random(2026).choices(ball.data_up_to(8), k=200)
    for ydata in samples:
        y = Element(group, ydata)
        points = [y, *segment(ball, identity, y)]
        for z in points:
            busemann_functional(ball, z, 4)
        built.update(z.data for z in points)
    assert calls.pop(identity.data) <= 1 + len(samples)
    assert set(calls) <= built and set(calls.values()) == {1}


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_a_read_of_one_entry_is_a_tuple(name):
    # itemgetter of one index returns the bare entry. B_0 is the only read
    # of one entry: boundary_approx and kernel_approx read B_k for k >= 1,
    # which holds the identity and a generator, so no level reaches one
    group, gens = example(name)
    ball = grow_ball(group, gens, 6)
    assert ball.size(1) > 1
    for z in range(ball.size(3)):
        assert boundary_mod._distances(ball, z, 0) == (ball.dist[z],)
    assert boundary_mod._distances(ball, 0, 1) == tuple(ball.dist[: ball.size(1)])


# ---------------------------------------------------------------------------
# boundary snapshots


def test_line_boundary_level(z_ball):
    approx = boundary_approx(z_ball, 10, 3)
    assert z_ball.data_up_to(3) == [(0, 0), (1, 0), (-1, 0), (2, 0), (-2, 0), (3, 0), (-3, 0)]
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


def _check_flags(ball, r, m):
    """Stable and Busemann flags at every window 1 .. r + 1 against whole
    spheres and the reach table; True when some vector on spheres r - 1 and
    r is realized by no BFS parent of a sphere-r point, so that only the
    sphere scan can see it."""
    spheres = {rr: set(boundary_mod._sphere_vectors(ball, rr, m)) for rr in range(1, r + 1)}
    parents = {ball.parent[z] for z in range(ball.size(r - 1), ball.size(r))}
    parent_keys = {
        busemann_functional(ball, Element(ball.group, ball.data[z]), m).vector for z in parents
    }
    reach = ball.reach_data()
    for window in range(1, r + 2):
        approx = boundary_approx(ball, r, m, window=window)
        for c in approx.classes:
            vec = c.functional.vector
            assert c.stable == (window <= r and all(
                vec in spheres[rr] for rr in range(r - window + 1, r + 1)
            ))
            points = [ball.index[w.data] for w in c.witnesses]
            assert c.busemann == any(reach[z] >= ball.radius for z in points)
    return bool(spheres[r] & spheres[r - 1] - parent_keys)


def test_stable_and_busemann_flags_match_brute_force(cyl30_ball67):
    scanned = set()  # levels where some stable vector needs the sphere scan
    for name in sorted(REGISTRY):
        group, gens = REGISTRY[name]()
        ball = grow_ball(group, gens, 13)
        for r, m in [(6, 2), (8, 2), (9, 3), (10, 3)]:
            if _check_flags(ball, r, m):
                scanned.add((name, r, m))
    assert not _check_flags(cyl30_ball67, 49, 18)
    assert ("z2_rot4", 8, 2) in scanned


def _fibre_norm(group, gens):
    """D = the largest norm of an element whose free part is 0, read off
    the first ball, doubling the radius, that holds all |Q| of them."""
    radius = 4
    while True:
        ball = grow_ball(group, gens, radius)
        norms = [ball.dist[i] for i, x in enumerate(ball.data) if not any(x[: group.rank])]
        if len(norms) == group.quotient_order:
            return max(norms)
        radius *= 2


def _stable_busemann_counts(group, gens, base):
    """Classes both stable and Busemann at (base + 4m, m), m = 2 .. 6, each
    level on its own ball of radius r + m, as a run grows it."""
    counts = []
    for m in range(2, 7):
        r = base + 4 * m
        approx = boundary_approx(grow_ball(group, gens, r + m), r, m)
        counts.append(len(approx.stable_busemann_classes()))
    return counts


def test_busemann_count_follows_the_rank():
    # The paper: finitely many Busemann points force a virtually cyclic
    # group, so on Z^d by a finite Q the stable Busemann classes stay bounded
    # in m exactly when d <= 1. A rank-1 group looks like Z^2 until r passes
    # its finite fibre, so it is read at r = D + 4m; a single radius for every
    # group would read cylinder_n30_diag (D = 30) as rank 2. Rank 2 is read
    # at r = 4m, where Z^2 has 4 + 4(2m - 1) = 8m classes. z2_rot4 runs once,
    # from its spec, as it costs most
    groups = {f"examples.{name}": REGISTRY[name]() for name in sorted(REGISTRY)}
    del groups["examples.z2_rot4"], groups["examples.lamplighter_z2"]
    for path in sorted(SPECS.iterdir()):
        if path.name.endswith(".spec") and path.name != "lamplighter.spec":
            groups[path.name] = parse_spec(str(path))[:2]
    z = FgAbelianGroup(FgAbelianSpec(free_rank=1))
    z3 = FgAbelianGroup(FgAbelianSpec(free_rank=1, torsion=(3,)))
    wide = {
        "Z, S = {+-2, +-3}": (z, [(2,), (3,)], 6),
        "Z, S = {+-1, +-5}": (z, [(1,), (5,)], 10),
        "Z x Z/3, S = {+-(1,0), +-(2,1)}": (z3, [(1, 0), (2, 1)], 12),
    }
    for name, (group, listed, _) in wide.items():
        groups[name] = group, symmetric_generating_set(group, [group.element(x) for x in listed])
    assert len(groups) == 17
    for name, (group, gens) in groups.items():
        if group.rank == 1:
            fibre = _fibre_norm(group, gens)
            want = [wide[name][2] if name in wide else 2] * 5
        else:  # Z^2, or z2_rot4 with its Q = Z/4
            fibre = 0
            want = [(32 if group.quotient_order == 4 else 8) * m for m in range(2, 7)]
        assert name != "cylinder_n30_diag.spec" or fibre == 30
        assert _stable_busemann_counts(group, gens, fibre) == want, name


@pytest.fixture
def built(monkeypatch):
    """(position, m) for each read of d(z, .) on B_m that boundary code
    makes, in order: one per Busemann vector it builds."""
    out = []
    distances = boundary_mod._distances

    def counting(ball, z, m):
        out.append((z, m))
        return distances(ball, z, m)

    monkeypatch.setattr(boundary_mod, "_distances", counting)
    return out


def test_bundled_boundary_levels_build_no_more_than_whole_spheres(built):
    # whole spheres r - window + 1 .. r plus the interior shadows bound the
    # count; window 1 builds sphere r and the shadows alone
    levels = 0
    for path in sorted(SPECS.iterdir()):
        if not path.name.endswith(".spec"):
            continue
        group, gens, config = parse_spec(str(path))
        if config.command not in ("boundary", "bend"):
            continue
        p = config.read_params()
        r, m, window = p["r"], p["m"], p.get("window", boundary_mod.STABILITY_WINDOW)
        ball = grow_ball(group, gens, r + m)
        del built[:]
        boundary_approx(ball, r, m, window=1)
        shadows = len(built) - (ball.size(r) - ball.size(r - 1))
        del built[:]
        boundary_approx(ball, r, m, window=window)
        whole = ball.size(r) - ball.size(r - window)
        assert len(built) <= whole + shadows, path.name
        levels += 1
    assert levels == 3


# ---------------------------------------------------------------------------
# the action


def _only(h, ball):
    """A level whose one Busemann class is h, for kernel_approx to read."""
    witness = Element(ball.group, ball.data[0])
    only = BoundaryClass(h, 1, (witness,), stable=True, interior_shadow=False, busemann=True)
    return BoundaryApprox(ball, 0, h.domain_radius, 1, (only,))


def test_act_definition_holds(z2_ball12):
    # x fixes h in kernel_approx exactly when x.h, by its definition through
    # Element products, equals h on the largest domain x.h has
    group = z2_ball12.group
    h = busemann_functional(z2_ball12, group.element((7, 2)), 3)
    kernel = kernel_approx(_only(h, z2_ball12), 2)
    rng = random.Random(9)
    pool = z2_ball12.data_up_to(2)
    fixes = set()
    for _ in range(20):
        x = Element(group, rng.choice(pool))
        moved = oracle_act(h, x, z2_ball12)
        fixed = moved == h.vector[: len(moved)]
        fixes.add(fixed)
        assert (x in kernel) == fixed, x
    assert fixes == {True, False}


def test_act_on_line_restricts(z_ball):
    h = boundary_approx(z_ball, 10, 3).busemann_classes()[0]
    x = z_ball.group.element((2,))
    assert oracle_act(h, x, z_ball) == h.vector[:3] == (0, -1, 1)
    assert x in kernel_approx(_only(h, z_ball), 2)


def _act_kernel(approx, search_radius, ball):
    """kernel_approx by its definition: x fixes h when x.h equals h restricted."""
    classes = approx.busemann_classes()
    out = []
    for x in map(ball.group.element, ball.data_up_to(search_radius)):
        moved = [oracle_act(h, x, ball) for h in classes]
        if all(g == h.vector[: len(g)] for g, h in zip(moved, classes)):
            out.append(x.data)
    return out


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_kernel_matches_oracle_act(name):
    group, gens = REGISTRY[name]()
    ball = grow_ball(group, gens, 11)
    for r, m in [(6, 3), (8, 3)]:
        approx = boundary_approx(ball, r, m)
        for search_radius in range(m):
            kernel = kernel_approx(approx, search_radius)
            assert [x.data for x in kernel] == _act_kernel(approx, search_radius, ball)


# ---------------------------------------------------------------------------
# kernel and sign matching


def test_cylinder_kernel_is_everything(cyl4_ball15):
    approx = boundary_approx(cyl4_ball15, 12, 3)
    kernel = kernel_approx(approx, 2)
    assert {x.data for x in kernel} == set(cyl4_ball15.data_up_to(2))
    assert kernel_index_estimate(kernel, cyl4_ball15) == (1, False)
    with pytest.raises(DomainExhausted):
        kernel_approx(approx, 3)
    with pytest.raises(OutOfRange):  # B_-1 is empty, not even the identity
        kernel_approx(approx, -1)


def _cyclic(n):
    group = FgAbelianGroup(FgAbelianSpec(free_rank=0, torsion=(n,)))
    return group, symmetric_generating_set(group, [group.element((1,))])


def _cyclic_ops(n):
    return (lambda a, b: ((a[0] + b[0]) % n,)), (lambda a: ((-a[0]) % n,))


# a finite subgroup of each group, generated inside B_2; only in the finite
# Z/8 is its index finite
_FINITE = {
    "z_line": [],
    "z2": [],
    "cylinder_n4": [(0, 1)],
    "z2_rot4": [((0, 0), 1)],
    "fat_cylinder_n3": [(0, 1)],
    "lamplighter_z2": [((0,), 0)],
    "z8": [(2,)],
}

# <(1,0)>, <(2,0)> and <(1,1)> in Z x Z/4, of index 4, 8 and 4
_CYLINDER_N4 = [[(1, 0)], [(2, 0)], [(1, 1)]]


def _index_kernels(group, gens, ball, name):
    """The kernels the index tests read, each with its index where that is
    derived by hand instead of counted, else None."""
    s0 = gens.elements[0].data
    s0_inv = group.inv_data(s0)
    kernels = [
        (kernel_approx(boundary_approx(ball, 5, 3), 2), None),
        ([group.element(d) for d in _FINITE[name]], None),
        ([Element(group, d) for d in ball.data_up_to(2)], None),  # holds every generator
        # B_2 without s and s^-1 misses a generator
        ([Element(group, d) for d in ball.data_up_to(2) if d not in (s0, s0_inv)], None),
        # x s for the last x of the ball and each generator s, mostly outside
        # the ball: the quotients s^-1 s' span the words of even length, and
        # x s has odd length since |x| is even, so <K> = G
        ([Element(group, group.mul_data(ball.data[-1], s.data)) for s in gens], 1),
    ]
    if name == "cylinder_n4":
        kernels += [([group.element(d) for d in sub], None) for sub in _CYLINDER_N4]
    return kernels


def test_kernel_index_matches_coset_count():
    # the brute-force coset count of tests/oracles.py settles at the index
    # when it is finite and grows from radius 12 to 14 when it is not; the
    # kernel whose generators lie outside the ball strands the ball's
    # corners there (51 pieces on z2, 85 on z2_rot4 up to radius 40), so its
    # index is checked against the one derived by hand
    indices = []
    for name, make in sorted({**REGISTRY, "z8": lambda: _cyclic(8)}.items()):
        if name == "lamplighter_z2":
            continue
        group, gens = make()
        mul, inv = _cyclic_ops(8) if name == "z8" else REGISTRY_OPS[name]
        form = oracle_form(group)
        identity = form(group.identity_data())
        gen_data = [form(s.data) for s in gens]
        ball = grow_ball(group, gens, 8)
        s = {x.data for x in gens.elements}
        for kernel, by_hand in _index_kernels(group, gens, ball, name):
            index, exact = kernel_index_estimate(kernel, ball)
            holding = s <= {x.data for x in kernel} | {group.inv_data(x.data) for x in kernel}
            assert exact == (name == "z8" or not holding), name
            indices.append(index)
            if by_hand is not None:
                assert index == by_hand, name
                continue
            sub = [form(x.data) for x in kernel]
            counts = [oracle_coset_count(mul, inv, identity, gen_data, sub, r) for r in (12, 14)]
            assert (index is None) == (counts[0] < counts[1]), (name, counts)
            if index is not None:
                assert counts == [index, index], (name, index, counts)
    # finite indices above 1 and infinite ones both occur
    assert None in indices and {4, 8} <= set(indices)


def test_lamplighter_kernel_index_needs_every_generator(lamp_pair):
    # the lamplighter has no normal form to decide [G:K] on, so a kernel that
    # misses a generator is refused and one holding them reads 1
    group, gens = lamp_pair
    ball = grow_ball(group, gens, 8)
    s = {x.data for x in gens.elements}
    for kernel, _ in _index_kernels(group, gens, ball, "lamplighter_z2"):
        if s <= {x.data for x in kernel} | {group.inv_data(x.data) for x in kernel}:
            assert kernel_index_estimate(kernel, ball) == (1, False)
        else:
            with pytest.raises(GroupMismatch, match="lamplighter_z2 has none"):
                kernel_index_estimate(kernel, ball)


def _kernels_holding_s(group, gens, ball):
    s = list(gens.elements)
    return [
        s,
        [x for i, x in enumerate(s) if x.inverse() not in s[:i]],  # one of s, s^-1
        [Element(group, d) for d in ball.data_up_to(2)],
        s + [Element(group, ball.data[-1])],
    ]


def _assert_read_off_the_generators(monkeypatch, kernel, ball, name):
    monkeypatch.setattr(
        boundary_mod, "subgroup_index", lambda *args: pytest.fail(f"{name}: the index was decided")
    )
    got = kernel_index_estimate(kernel, ball)
    monkeypatch.undo()
    return got


def test_kernel_holding_the_generators_skips_the_closure(monkeypatch):
    # <K> = G once K and its inverses hold S: one coset, read off the
    # generators, certified only where the ball is all of G
    for name, make in sorted(REGISTRY.items()):
        group, gens = make()
        ball = grow_ball(group, gens, 8)
        for kernel in _kernels_holding_s(group, gens, ball):
            assert _assert_read_off_the_generators(monkeypatch, kernel, ball, name) == (1, False)


@pytest.mark.parametrize("n", [4, 8])
def test_kernel_holding_the_generators_on_a_finite_cyclic_group(monkeypatch, n):
    # B_4 is all of Z/4 and Z/8, and only radius >= 4 certifies
    group, gens = _cyclic(n)
    for radius in range(2, 9):
        ball = grow_ball(group, gens, radius)
        for kernel in _kernels_holding_s(group, gens, ball):
            got = _assert_read_off_the_generators(monkeypatch, kernel, ball, (n, radius))
            assert got == (1, radius >= 4), (n, radius)


def test_kernel_holds_the_generators_exactly_on_the_virtually_cyclic_examples():
    # finitely many Busemann points force a virtually cyclic group, and
    # there the kernel estimate is all of B_2; on Z^2, its rotation
    # extension and the lamplighter it is the identity alone
    holding = set()
    for name, make in sorted(REGISTRY.items()):
        group, gens = make()
        ball = grow_ball(group, gens, 12)
        s = {x.data for x in gens.elements}
        for r, m in [(6, 3), (8, 4)]:
            kernel = {x.data for x in kernel_approx(boundary_approx(ball, r, m), 2)}
            if s <= kernel:
                holding.add(name)
                assert kernel == set(ball.data_up_to(2)), name
            else:
                assert kernel == {group.identity_data()}, name
    assert holding == {"z_line", "cylinder_n4", "fat_cylinder_n3"}


def test_bend_level_work_counts(monkeypatch, built, cyl30_ball67):
    # the cylinder_n30_diag bend level builds on B_18 sphere 49 whole (60
    # vectors) and one vector per class on each of spheres 48 and 47 (the
    # first witness's BFS parent, then its parent): 64, against 180 with
    # spheres 48 and 47 read whole. Its 38 interior-shadow candidates all
    # differ before B_18: 130 builds on B_1, B_2, B_4, B_8 and B_16, 8,322
    # entries against 26,030 on B_18. Its Busemann flags read no reach
    # table, and its kernel holds every generator, so the index is read off
    # the generators with no group product and no normal form
    ball = cyl30_ball67
    reads = []
    monkeypatch.setattr(Ball, "reach_data", lambda self: reads.append(1))
    approx = boundary_approx(ball, 49, 18)
    whole = [z for z, m in built if m == 18]
    prefixes = [m for _, m in built if m < 18]
    assert sorted(Counter(ball.dist[z] for z in whole).items()) == [(47, 2), (48, 2), (49, 60)]
    assert len(prefixes) == 130 and sum(ball.size(m) for m in prefixes) == 8322
    assert reads == []
    assert [(c.stable, c.busemann) for c in approx.classes] == [(True, True)] * 2
    monkeypatch.undo()

    kernel = kernel_approx(approx, 2)
    products = []
    mul = ball.group.mul_data

    def counting_mul(a, b):
        products.append(1)
        return mul(a, b)

    decided = []
    monkeypatch.setattr(ball.group, "mul_data", counting_mul)
    monkeypatch.setattr(boundary_mod, "subgroup_index", lambda *args: decided.append(args))
    assert kernel_index_estimate(kernel, ball) == (1, False)
    assert products == [] and decided == []


def test_cylinder_sign_match(cyl4_ball15):
    approx = boundary_approx(cyl4_ball15, 12, 3)
    g, h = approx.stable_classes()
    kernel = kernel_approx(approx, 2)
    match = sign_match(g, h, kernel)
    assert match.q == -1
    assert match.kernel_dev == 0
    assert match.ball_dev == 0


def test_sign_match_domain_mismatch(z_ball):
    a = Functional(z_ball, 1, (0, -1, 1))
    b = Functional(z_ball, 2, (0, -1, 1, -2, 2))
    with pytest.raises(DomainMismatch):
        sign_match(a, b, [])


# ---------------------------------------------------------------------------
# bend scans and slow geodesics


def _bfs_geodesic(ball, x):
    """The positions of the BFS parent path from the identity to x."""
    return ball.path(ball.index[x.data])


def test_bend_scan_on_line(z_ball):
    group = z_ball.group
    h = busemann_functional(z_ball, group.element((4,)), 11)
    prefix = _bfs_geodesic(z_ball, group.element((8,)))
    scan = bend_scan(prefix, 2, h)
    assert scan.phi == (-2, -2, -2, 0, 2, 2, 2)
    assert scan.signs == (-1, -1, -1, 0, 1, 1, 1)
    assert scan.t == 3 and scan.epsilon == 0
    assert scan.is_two_lipschitz()


def test_bend_scan_guards(z_ball):
    group = z_ball.group
    h = busemann_functional(z_ball, group.element((4,)), 11)
    short = _bfs_geodesic(z_ball, group.element((1,)))
    with pytest.raises(RangeEmpty):
        bend_scan(short, 2, h)
    long = _bfs_geodesic(z_ball, group.element((14,)))
    with pytest.raises(DomainExhausted):
        bend_scan(long, 2, h)


def test_slow_geodesic_on_diag_cylinder(cyl30_ball67, cyl30_approx):
    group = cyl30_ball67.group
    x = group.element((0, 15))
    assert cyl30_ball67.norm(x) == 30
    slow = slow_geodesic(x, 2, 8, cyl30_approx)
    assert slow.scan.t == 14 and slow.scan.epsilon == 0
    assert slow.kernel_index == 1 and not slow.kernel_index_exact
    assert slow.bound == 7
    assert slow.class_values == (0, 0)
    assert len(slow.beta) == 8 + 1
    assert slow.scan.phi.count(-2) == 14
    assert slow.scan.is_two_lipschitz()


def test_slow_geodesic_prefix_is_a_geodesic(cyl30_approx):
    group = cyl30_approx.ball.group
    slow = slow_geodesic(group.element((0, 15)), 2, 8, cyl30_approx)
    path = [cyl30_approx.ball.data[p] for p in slow.beta]
    assert path[0] == group.identity_data() and len(path) == 9
    mul, inv, _ = cyl_ops(30)
    assert oracle_geodesic_defects(lambda d: diag_norm(*d), mul, inv, path) == []


def test_slow_geodesic_multiplies_only_for_the_kernel(monkeypatch, cyl30_approx):
    # alpha is read off BFS parents and beta off the neighbour table, so
    # every group product of a slow geodesic is the kernel estimate's
    group = cyl30_approx.ball.group
    depth = [0]
    outside = []
    for name in ("kernel_approx", "kernel_index_estimate"):

        def within(*args, real=getattr(boundary_mod, name), **kwargs):
            depth[0] += 1
            try:
                return real(*args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(boundary_mod, name, within)
    for name in ("mul_data", "inv_data"):

        def counted(*args, real=getattr(group, name), name=name):
            if not depth[0]:
                outside.append(name)
            return real(*args)

        monkeypatch.setattr(group, name, counted)
    slow_geodesic(group.element((0, 15)), 2, 8, cyl30_approx)
    assert outside == []


def test_slow_geodesic_range_guard(cyl30_approx):
    x = cyl30_approx.ball.group.element((0, 15))
    with pytest.raises(RangeEmpty):
        slow_geodesic(x, 2, 21, cyl30_approx)
    with pytest.raises(RangeEmpty, match=r"need 1 <= m <= ell .* got m=0, ell=8"):
        slow_geodesic(x, 0, 8, cyl30_approx)


def test_slow_geodesic_refuses_an_infinite_kernel_index(cyl30_ball67):
    # at (40, 18) the kernel in B_2 is the identity alone, a truncation
    # artifact of infinite index, so no bound 6[G:K]+1 exists there
    approx = boundary_approx(cyl30_ball67, 40, 18)
    x = cyl30_ball67.group.element((0, 15))
    with pytest.raises(InfiniteKernelIndex, match="infinite index") as info:
        slow_geodesic(x, 2, 8, approx)
    assert info.value.payload == {"r": 40, "m": 18, "kernel": ["(0,0)"]}
