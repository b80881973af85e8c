"""Ball systems, the induced metric, and the absorption-based annihilator check."""

import math
import random
import re
from importlib import resources
from itertools import combinations, permutations

import pytest

from horobound.cayley import grow_ball
from horobound.cli import parse_spec, run_command
from horobound.errors import (
    AxiomViolation,
    DoesNotGenerate,
    GroupMismatch,
    NotASubgroup,
    OutOfRange,
    SizeBudget,
)
from horobound.examples import cylinder, example
from horobound.groups import (
    Element,
    FiniteGroupSpec,
    FiniteTableGroup,
    GeneratingSet,
    LamplighterGroup,
    check_subgroup,
    cyclic_table,
    direct_product_table,
    symmetric_generating_set,
)
from horobound.metrics import (
    BallSystem,
    Window,
    WindowCosets,
    _left_transversal,
    bs_annihilator_check,
    build_ball_system,
    metric_axiom_check,
)

from oracles import (
    cyl_ops,
    dihedral_ops,
    lamp_inv,
    lamp_mul,
    oracle_ball_system,
    oracle_form,
    oracle_metric_violation,
)


def test_level_sizes(lamp_bs4):
    assert lamp_bs4.layer_sizes() == [1, 4, 416, 3712, 31232]
    assert lamp_bs4.to_json_dict() == {
        "n_max": 4,
        "chain_sizes": [8, 32, 128, 512],
        "level_sizes": [1, 4, 416, 3712, 31232],
    }
    assert [len(lamp_bs4.sphere_data(n)) for n in range(4)] == [1, 3, 412, 3296]


def _enumerated_double_coset(group, f, g):
    """F g F multiplied out, one left coset x F for each new x in F g."""
    mul = group.mul_data
    out = set()
    for a in f:
        x = mul(a, g)
        if x not in out:
            out |= {mul(x, b) for b in f}
    return out


def test_window_cosets_match_enumeration(lamp_pair):
    # the closed form of the window chain against F_n g F_n multiplied out,
    # for seeded g with lamps in [-8, 8] and shifts in [-6, 6]
    group, _ = lamp_pair
    mul = group.mul_data
    rng = random.Random(2026)
    for n in range(1, 5):
        f = frozenset(Window(n))
        cosets = WindowCosets(n)
        for _ in range(3):
            lamps = [p for p in range(-8, 9) if rng.random() < 0.4]
            g = group.element((lamps, rng.randint(-6, 6))).data
            coset = _enumerated_double_coset(group, f, g)
            key = cosets.key(g)
            assert key in coset
            assert {cosets.key(x) for x in coset} == {key}
            assert cosets.size(key) == len(coset)
            assert set(cosets.members(key)) == coset
            assert {cosets.left_key(mul(a, g)) for a in f} == {cosets.left_key(g)}
            # the lamp just right of W = [-n, n] u [u - n, u + n] switched
            u = g[2]
            flipped = mul(g, group.element(((max(n, u + n) + 1 - u,), 0)).data)
            assert flipped not in coset
            assert cosets.key(flipped) != key


def test_windows_match_their_listed_elements(lamp_pair):
    # F_j in closed form against the patterns on [-j, j] listed one by one
    group, _ = lamp_pair
    previous = None
    for j in range(1, 5):
        positions = range(-j, j + 1)
        listed = {
            group.element((support, 0)).data
            for size in range(len(positions) + 1)
            for support in combinations(positions, size)
        }
        window = Window(j)
        members = list(window)
        assert len(members) == len(window) == len(listed) == 2 ** (2 * j + 1)
        assert set(members) == listed
        check_subgroup(group, frozenset(members), f"F_{j}")
        assert all(x in window for x in listed)
        for outside in (((j + 1,), 0), ((-j - 1,), 0), ((), 1), ((0,), -1), ((-j, j + 1), 0)):
            assert group.element(outside).data not in window
        assert window - {group.identity_data()} == listed - {group.identity_data()}
        if previous is not None:
            assert previous <= window and not window <= previous
            assert frozenset(previous) <= window
        previous = window


def _level_walk_norm(bs, data):
    """The norm found by testing the levels from B_0 upward."""
    return next((n for n, level in enumerate(bs._levels) if data in level), None)


def test_closed_form_norm_matches_the_level_walk(lamp_pair):
    # every element of B_5, each once, from the sphere of the level walk
    # that first holds it; then seeded elements in and past B_5
    group, gens = lamp_pair
    bs = build_ball_system(group, gens, None, 5)
    assert bs._by_key
    for n, level in enumerate(bs._levels):
        below = bs._levels[n - 1] if n else ()
        members = level.cosets.members
        assert {bs.norm_data(d) for r in level.reps for d in members(r) if d not in below} == {n}
    rng = random.Random(2026)
    seen = set()
    for _ in range(3000):
        lamps = [p for p in range(-12, 13) if rng.random() < rng.choice((0.05, 0.2))]
        data = group.element((lamps, rng.randint(-8, 8))).data
        norm = bs.norm_data(data)
        assert norm == _level_walk_norm(bs, data)
        seen.add(norm)
    assert seen == {None, 0, 1, 2, 3, 4, 5}


def test_left_transversals_match_enumeration(lamp_pair, monkeypatch):
    # one x h per left coset F_n x h, h in F_j, against all products x h;
    # x with |shift| <= n - j takes no product
    group, _ = lamp_pair
    mul = group.mul_data
    calls = _count_products(monkeypatch, LamplighterGroup)
    rng = random.Random(2026)
    for n in range(1, 5):
        target = WindowCosets(n)
        for j in range(1, n + 1):
            m = Window(j)
            xs = [
                group.element(([p for p in range(-6, 7) if rng.random() < 0.3], u)).data
                for u in range(-n, n + 1)
            ]
            calls[0] = 0
            got = _left_transversal(group, target, xs, m)
            assert calls[0] == sum(abs(x[2]) > n - j for x in xs) * len(m)
            assert got.keys() == {target.left_key(mul(x, h)) for x in xs for h in m}
            for key, (x, h, xh) in got.items():
                assert x in xs and h in m
                assert xh == mul(x, h) and target.left_key(xh) == key


def test_t2_generator_takes_the_fallbacks(lamp_pair):
    # with t^2 in B_1, B_2 has the representatives t^u, |u| <= 4, so the
    # norm walks the levels; t^2 F_2 meets two left cosets of F_3, so the
    # build and the axiom check multiply x F_j out for it
    group, _ = lamp_pair
    gens = symmetric_generating_set(
        group, [group.parse("({};1)"), group.parse("({0};0)"), group.parse("({};2)")]
    )
    bs = build_ball_system(group, gens, None, 3)
    assert not bs._by_key
    assert sorted(bs._levels[2].reps) == [(0, 0, u) for u in range(-4, 5)]
    _assert_levels_match_oracle(bs, lamp_mul, gens)
    for n in range(4):
        assert {bs.norm_data(d) for d in bs.sphere_data(n)} == {n}
    metric_axiom_check(bs)


def test_lamplighter_levels_in_closed_form(lamp_pair):
    # B_n is the 2n + 1 double cosets F_n t^u F_n, |u| <= n, of 2^(2n+1+|u|)
    # elements each, so |B_n| = 2^(2n+1) (2^(n+2) - 3)
    group, gens = lamp_pair
    bs = build_ball_system(group, gens, None, 5)
    sizes = bs.layer_sizes()
    assert sizes[2:] == [2 ** (2 * n + 1) * (2 ** (n + 2) - 3) for n in range(2, 6)]
    assert sizes[2:] == [416, 3712, 31232, 256000]
    for n in range(2, 6):
        assert sorted(bs._levels[n].reps) == [(0, 0, u) for u in range(-n, n + 1)]


def test_lamplighter_run_lists_no_sphere_above_s1(lamp_pair):
    # the axiom and annihilator checks of ``ballsystem`` list the spheres of
    # B_1 only; the annihilator check reads S_2's exceptions off f B_1, and
    # B_2, B_3 and B_4 stay representatives
    group, gens = lamp_pair
    bs = build_ball_system(group, gens, None, 4)
    metric_axiom_check(bs)
    for data in bs.chain[0]:
        bs_annihilator_check(bs, Element(group, data), 1)
    assert set(bs._spheres) == {0, 1}


def _level_data(bs, n):
    """B_n as its spheres 0..n."""
    return [d for k in range(n + 1) for d in bs.sphere_data(k)]


def _assert_levels_match_oracle(bs, mul, s1):
    group = bs.group
    form = oracle_form(group)
    expect = oracle_ball_system(
        mul,
        form(group.identity_data()),
        {form(s.data) for s in s1},
        [{form(x) for x in level} for level in bs.chain],
        bs.n_max,
    )
    for n in range(bs.n_max + 1):
        assert {form(x) for x in _level_data(bs, n)} == expect[n]
        # each sphere in the order of its tuple form
        previous = expect[n - 1] if n else set()
        assert [form(d) for d in bs.sphere_data(n)] == sorted(expect[n] - previous)


def test_levels_match_defining_formula(lamp_pair, lamp_bs4):
    # B_4 has the middle block B_2 B_2, which the build does not multiply out
    _assert_levels_match_oracle(lamp_bs4, lamp_mul, lamp_pair[1])


def _dihedral(n):
    """D_n = <r, s> as a table, with index n f + k for s^f r^k."""
    mul, _, _ = dihedral_ops(n)
    table = tuple(tuple(mul((a,), (b,))[0] for b in range(2 * n)) for a in range(2 * n))
    return FiniteTableGroup(FiniteGroupSpec(table=table))


def _dihedral_ball_system():
    """D_32 on the reflections s and s r; F_1 = F_2 = <s>, then <s, r^16>,
    neither of them normal."""
    group = _dihedral(32)
    gens = symmetric_generating_set(group, [group.element((32,)), group.element((33,))])
    small = [group.element((i,)) for i in (0, 32)]
    large = [group.element((i,)) for i in (0, 16, 32, 48)]
    return build_ball_system(group, gens, [small, small, large, large, large], 5), gens


def test_levels_match_defining_formula_on_a_finite_chain():
    # B_5 has the middle blocks B_2 B_3 and B_3 B_2, and no level is the
    # whole group
    bs, gens = _dihedral_ball_system()
    assert bs.layer_sizes() == [1, 3, 6, 20, 28, 36]
    _assert_levels_match_oracle(bs, dihedral_ops(32)[0], gens)


def _dihedral_subgroup(m, d, i):
    """<r^d, s r^i> in D_m, of index d; not normal once d >= 3."""
    return frozenset((k,) for k in range(0, m, d)) | frozenset(
        (m + (i + k) % m,) for k in range(0, m, d)
    )


def _random_chain(subgroups, rng):
    """Five nested subgroups: a sorted draw, with repeats, from a nested list."""
    return [subgroups[j] for j in sorted(rng.choices(range(len(subgroups)), k=5))]


def _random_generators(group, pool, rng):
    """A random pair from pool, closed under inverses, that generates group."""
    while True:
        try:
            return symmetric_generating_set(group, [group.element(x) for x in rng.sample(pool, 2)])
        except DoesNotGenerate:
            continue


def _alternating():
    """A_5 as a table on indices into its sorted even permutations (index 0
    is e), with the product on indices and the permutation -> index map."""
    perms = [p for p in permutations(range(5)) if sum(
        p[i] > p[j] for i in range(5) for j in range(i + 1, 5)
    ) % 2 == 0]
    index = {p: i for i, p in enumerate(perms)}

    def mul(a, b):
        p, q = perms[a[0]], perms[b[0]]
        return (index[tuple(p[q[k]] for k in range(5))],)

    order = len(perms)
    table = tuple(tuple(mul((a,), (b,))[0] for b in range(order)) for a in range(order))
    return FiniteTableGroup(FiniteGroupSpec(table=table)), mul, index


def _ball_system(group, gens, chain):
    return build_ball_system(group, gens, [[Element(group, x) for x in f] for f in chain], 5)


def _random_ball_systems(rng):
    """(family, ball system, oracle product, S_1) on random chains and S_1.

    D_m: {e} < <s r^i> < <r^d, s r^i> < ... with each d a proper divisor of
    the last and >= 3, so no subgroup but {e} is normal. Z x Z/n: the
    subgroups c Z/n of the torsion part, each c a divisor of the last. A_5:
    {e} < <t>, t an involution, and then <t, x> for a random x if it has
    order at most 6.
    """
    for m in (12, 15, 16, 20, 24, 28, 30, 32):  # D_32 is the largest table allowed
        group = _dihedral(m)
        i, ds = rng.randrange(m), [m]
        while rng.random() < 0.7:
            smaller = [d for d in range(3, ds[-1]) if ds[-1] % d == 0]
            if not smaller:
                break
            ds.append(rng.choice(smaller))
        subgroups = [frozenset({(0,)})] + [_dihedral_subgroup(m, d, i) for d in ds]
        gens = _random_generators(group, [(x,) for x in range(1, 2 * m)], rng)
        bs = _ball_system(group, gens, _random_chain(subgroups, rng))
        yield "dihedral", bs, dihedral_ops(m)[0], gens
    for n in (4, 6, 8, 12):
        group, _ = cylinder(n)
        cs = [n]
        while cs[-1] > 1:
            cs.append(rng.choice([c for c in range(1, cs[-1]) if cs[-1] % c == 0]))
        subgroups = [frozenset((0, x) for x in range(0, n, c)) for c in cs]
        pool = [(x, c) for x in range(-2, 3) for c in range(n) if (x, c) != (0, 0)]
        gens = _random_generators(group, pool, rng)
        bs = _ball_system(group, gens, _random_chain(subgroups, rng))
        yield "cylinder", bs, cyl_ops(n)[0], gens
    group, mul, _ = _alternating()
    order = group.order
    involutions = [(x,) for x in range(1, order) if mul((x,), (x,)) == (0,)]
    for _ in range(12):
        subgroups = [frozenset({(0,)}), frozenset({(0,), rng.choice(involutions)})]
        more = _generated(group, subgroups[-1] | {(rng.randrange(order),)})
        if len(more) <= 6:
            subgroups.append(frozenset(more))
        gens = _random_generators(group, [(x,) for x in range(1, order)], rng)
        bs = _ball_system(group, gens, _random_chain(subgroups, rng))
        yield "alternating", bs, mul, gens


def test_two_outer_blocks_match_every_block_on_random_chains():
    # the oracle multiplies out every block B_k B_{n-k}; a level B_n with
    # n >= 4 that is neither B_{n-1} nor the whole group is one where the
    # middle blocks could have added elements
    rng = random.Random(2026)
    open_levels = set()
    for family, bs, mul, gens in _random_ball_systems(rng):
        _assert_levels_match_oracle(bs, mul, gens)
        sizes = bs.layer_sizes()
        order = None if family == "cylinder" else bs.group.order
        for n in (4, 5):
            if sizes[n] > sizes[n - 1] and sizes[n] != order:
                open_levels.add(family)
    assert open_levels == {"dihedral", "cylinder", "alternating"}


def _alternating_mirror_chain():
    """A_5 with F_1 = {e} and F_n = <t> after it, S_1 from two even
    permutations: a chain where X_n = F_n B_1 B_{n-1} F_n misses part of B_n."""
    group, mul, index = _alternating()
    t, a, b = ((index[p],) for p in ((3, 2, 1, 0, 4), (0, 1, 3, 4, 2), (3, 2, 4, 1, 0)))
    gens = symmetric_generating_set(group, [group.element(a), group.element(b)])
    f = frozenset({(0,), t})
    return group, mul, gens, f, [frozenset({(0,)}), f, f, f, f]


def test_mirror_block_is_needed():
    # F_3 B_1 B_2 F_3 misses four elements of B_3 that only the mirror block
    # B_2 B_1 supplies; that block is X_n^-1, so B_n = X_n u X_n^-1
    group, mul, gens, f, chain = _alternating_mirror_chain()
    bs = _ball_system(group, gens, chain)
    assert bs.layer_sizes() == [1, 5, 22, 42, 58, 60]
    _assert_levels_match_oracle(bs, mul, gens)
    elems = [(x,) for x in range(group.order)]
    inv = {x: y for x in elems for y in elems if mul(x, y) == (0,)}
    b1 = _level_data(bs, 1)
    short = []
    for n in range(2, 6):
        tail = _level_data(bs, n - 1)
        x_n = {mul(mul(g, mul(x, y)), h) for x in b1 for y in tail for g in f for h in f}
        mirror = {mul(mul(g, mul(y, x)), h) for x in b1 for y in tail for g in f for h in f}
        assert mirror == {inv[x] for x in x_n}
        assert x_n | mirror == set(_level_data(bs, n))
        short.append(len(x_n))
    assert short == [22, 38, 58, 60]


def test_budget_fires_on_the_inverses():
    # the build holds 92 elements: representatives kept and members of the
    # enumerated <t> double cosets; the last to join is the representative
    # of a double coset of X_3^-1 that X_3 misses
    group, _, gens, _, chain = _alternating_mirror_chain()
    members = [[Element(group, x) for x in f] for f in chain]
    assert build_ball_system(group, gens, members, 3, budget=92)._held.count == 92
    with pytest.raises(
        SizeBudget,
        match=re.escape(
            "B_3 exceeded the element budget 91 while adding inverses (holding 92)"
        ),
    ):
        build_ball_system(group, gens, members, 3, budget=91)


def test_norm_data(lamp_bs4):
    group = lamp_bs4.group
    assert lamp_bs4.norm_data(group.identity().data) == 0
    assert lamp_bs4.norm_data(group.element(((), 1)).data) == 1
    assert lamp_bs4.norm_data(group.element(((0,), 0)).data) == 1
    assert lamp_bs4.norm_data(group.element(((), 9)).data) is None


def test_degenerate_chain_recovers_word_metric():
    group, gens = cylinder(4)
    chain = [[group.identity()] for _ in range(4)]
    bs = build_ball_system(group, gens, chain, 4)
    ball = grow_ball(group, gens, 4)
    assert bs.layer_sizes() == [len(ball.data_up_to(r)) for r in range(5)]
    for data in ball.data_up_to(4):
        assert bs.norm_data(data) == ball.dist_data(data)


def test_chain_must_be_subgroups():
    group, gens = cylinder(4)
    with pytest.raises(NotASubgroup, match="identity"):
        build_ball_system(group, gens, [[group.element((0, 1))]], 1)
    with pytest.raises(NotASubgroup, match="inverse-closed"):
        build_ball_system(
            group, gens, [[group.identity(), group.element((0, 1))]], 1
        )
    with pytest.raises(NotASubgroup, match="products"):
        build_ball_system(
            group,
            gens,
            [[group.identity(), group.element((0, 1)), group.element((0, 3))]],
            1,
        )


def _s3_table():
    perms = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return tuple(
        tuple(index[tuple(p[q[k]] for k in range(3))] for q in perms) for p in perms
    )


def _universes():
    lamp = LamplighterGroup()
    yield lamp, [
        lamp.element((support, 0)).data
        for size in range(6)
        for support in combinations(range(-2, 3), size)
    ]
    for n in (4, 6):
        group, _ = cylinder(n)
        yield group, [(0, c) for c in range(n)]
    for table in (cyclic_table(6), direct_product_table((2, 2, 3)), _s3_table()):
        group = FiniteTableGroup(FiniteGroupSpec(table=table))
        yield group, [(i,) for i in range(len(table))]


def _generated(group, seeds):
    out = {group.identity_data()} | set(seeds)
    while True:
        more = {group.mul_data(a, b) for a in out for b in out} - out
        if not more:
            return out
        out |= more


def test_closure_check_agrees_with_pairwise():
    rng = random.Random(2026)
    outcomes = set()
    for group, universe in _universes():
        for trial in range(60):
            seeds = rng.sample(universe, rng.randint(1, 3))
            if trial % 3 == 0:
                subset = set(seeds)  # a bare random subset
            else:
                subset = _generated(group, seeds)
                if trial % 3 == 2:
                    subset.add(rng.choice(universe))  # a subgroup plus a stray element
            subset.add(group.identity_data())
            subset |= {group.inv_data(a) for a in subset}
            elems = frozenset(subset)
            closed = all(group.mul_data(a, b) in elems for a in elems for b in elems)
            outcomes.add(closed)
            if closed:
                check_subgroup(group, elems, "F")
            else:
                with pytest.raises(NotASubgroup, match="products"):
                    check_subgroup(group, elems, "F")
    assert outcomes == {True, False}


def test_subgroup_walk_follows_the_sort_key():
    # two commuting involutions whose product is missing; the walk takes
    # ({-1,2};0) first, as its support sorts first, although its data
    # (mask 9) sorts after the data of ({0,1};0) (mask 3)
    group = LamplighterGroup()
    a, b = group.parse("({-1,2};0)"), group.parse("({0,1};0)")
    elems = frozenset({group.identity_data(), a.data, b.data})
    with pytest.raises(NotASubgroup, match=re.escape("at ({-1,2};0) * ({0,1};0)")):
        check_subgroup(group, elems, "F")


def _count_products(monkeypatch, cls):
    """Patch cls.mul_data to count its calls; returns the one-item counter."""
    calls = [0]
    mul = cls.mul_data

    def counted(self, a, b):
        calls[0] += 1
        return mul(self, a, b)

    monkeypatch.setattr(cls, "mul_data", counted)
    return calls


def test_subgroup_check_work_is_near_linear(lamp_pair, monkeypatch):
    group, _ = lamp_pair
    chain = [frozenset(Window(j)) for j in range(1, 6)]
    calls = _count_products(monkeypatch, LamplighterGroup)
    for i, f in enumerate(chain):
        calls[0] = 0
        check_subgroup(group, f, f"F_{i + 1}")
        assert calls[0] < len(f) * (math.log2(len(f)) + 1)


def test_ball_system_work_counts(lamp_pair, monkeypatch):
    # no subgroup check (the window chain is one by construction), and
    # representative products only: B_1 B_1 16 at B_2; the 3 left cosets of
    # F_3 in B_1 F_2, read off in closed form, times the 5 representatives
    # of B_2 at B_3; 3 times 7 at B_4. The mirror blocks are taken as inverses
    group, gens = lamp_pair
    calls = _count_products(monkeypatch, LamplighterGroup)
    build_ball_system(group, gens, None, 4)
    assert calls[0] == 16 + 15 + 21


def test_ball_system_inversion_counts(lamp_pair, monkeypatch):
    # no subgroup check, the symmetry check of B_1 4, and X^-1 at B_2, B_3
    # and B_4, one per representative, 5 + 7 + 9
    group, gens = lamp_pair
    calls = [0]
    inv = LamplighterGroup.inv_data

    def counted(self, a):
        calls[0] += 1
        return inv(self, a)

    monkeypatch.setattr(LamplighterGroup, "inv_data", counted)
    build_ball_system(group, gens, None, 4)
    assert calls[0] == 25


def test_asymmetric_b1_is_refused_before_any_product(lamp_pair, monkeypatch):
    group, _ = lamp_pair
    t, a = group.parse("({};1)"), group.parse("({0};0)")
    gens = GeneratingSet((t, a), ("t", "a"))  # no t^-1

    def refuse(self, a, b):
        raise AssertionError("a product was taken")

    monkeypatch.setattr(LamplighterGroup, "mul_data", refuse)
    with pytest.raises(AxiomViolation, match="B_1 is not symmetric") as hit:
        build_ball_system(group, gens, None, 3)
    assert hit.value.witness == {"element": "({};1)"}


def test_budget_below_one_is_refused(lamp_pair, monkeypatch):
    group, gens = lamp_pair

    def refuse(self, a, b):
        raise AssertionError("a product was taken")

    monkeypatch.setattr(LamplighterGroup, "mul_data", refuse)  # no level is built
    for budget in (0, -1):
        with pytest.raises(OutOfRange, match=f"budget must be >= 1, got {budget}"):
            build_ball_system(group, gens, None, 3, budget=budget)


def test_axiom_check_sorts_each_sphere_once(lamp_bs4, monkeypatch):
    calls = [0]
    sphere_data = BallSystem.sphere_data

    def counted(self, n):
        calls[0] += 1
        return sphere_data(self, n)

    monkeypatch.setattr(BallSystem, "sphere_data", counted)
    metric_axiom_check(lamp_bs4)
    assert calls[0] <= lamp_bs4.n_max + 1


def test_chain_of_another_group_is_refused():
    # (0,0) and (0,2) of Z^2 have the data of a subgroup of Z x Z/4
    group, gens = cylinder(4)
    z2, _ = example("z2")
    foreign = [z2.identity(), z2.element((0, 2))]
    with pytest.raises(NotASubgroup, match="different group"):
        build_ball_system(group, gens, [foreign, foreign], 2)


def test_annihilator_check_refuses_another_group(lamp_bs4):
    # the same data in another lamplighter instance is still a foreign element
    other = LamplighterGroup().parse("({0};0)")
    assert other.data in lamp_bs4.chain[0]
    with pytest.raises(GroupMismatch, match="different group"):
        bs_annihilator_check(lamp_bs4, other, 1)


def test_chain_must_be_nested():
    group, gens = cylinder(4)
    torsion = [group.element((0, c)) for c in range(4)]
    with pytest.raises(NotASubgroup, match="nested"):
        build_ball_system(group, gens, [torsion, [group.identity()]], 2)


def test_ball_system_levels_must_be_nested():
    group = LamplighterGroup()
    e = group.identity_data()
    lamp, shift = group.element(((0,), 0)).data, group.element(((), 1)).data
    levels = (frozenset({e}), frozenset({e, lamp}), frozenset({e, shift}))
    chain = (frozenset({e}),) * 2
    with pytest.raises(AxiomViolation, match="B_1 is not inside B_2"):
        BallSystem(group, chain, levels)

def test_budgets(lamp_pair):
    # the budget bounds what is held, not the levels' sizes: B_0 and B_1
    # hold their 4 enumerated elements and 5 representatives, each level
    # n >= 2 its 2n + 1 representatives, and a sphere its elements once listed
    group, gens = lamp_pair
    for budget, n, step, holding in (
        (5, 1, "keeping B_1", 9),
        (10, 2, "merging products", 11),
        (20, 3, "merging products", 21),
    ):
        with pytest.raises(SizeBudget, match=re.escape(
            f"B_{n} exceeded the element budget {budget} while {step} (holding {holding})"
        )):
            build_ball_system(group, gens, None, 4, budget=budget)
    # |B_4| = 31,232 is far past a budget of 100; the axiom check lists S_0
    # and S_1 (1 + 3), the annihilator check no more, and S_2 (412) is the
    # first sphere read that does not fit
    lamp = group.element(((0,), 0))
    bs = build_ball_system(group, gens, None, 4, budget=100)
    metric_axiom_check(bs)
    assert bs._held.count == 34
    bs_annihilator_check(bs, lamp, 1)
    assert bs._held.count == 34
    with pytest.raises(SizeBudget, match=re.escape(
        "B_2 exceeded the element budget 100 while listing its sphere (holding 446)"
    )):
        bs.sphere_data(2)
    bs = build_ball_system(group, gens, None, 4, budget=446)
    metric_axiom_check(bs)
    bs_annihilator_check(bs, lamp, 1)
    bs.sphere_data(2)
    assert bs._held.count == 446
    with pytest.raises(SizeBudget, match="exceeds the level budget 8"):
        build_ball_system(group, gens, None, 9)


def test_budget_cuts_an_enumerated_double_coset():
    # F_2 = 0 x Z/12 of the cylinder is no closed form, so its double cosets
    # are enumerated; B_0 and B_1 hold 7 elements and 8 representatives, and
    # the first left coset of F_2 adds 12 before its double coset is done
    group, gens = cylinder(12)
    torsion = [group.element((0, c)) for c in range(12)]
    with pytest.raises(SizeBudget, match=re.escape(
        "B_2 exceeded the element budget 20 while enumerating F_2 double cosets "
        "(holding 27)"
    )):
        build_ball_system(group, gens, [torsion, torsion], 2, budget=20)


def test_budget_names_keeping_b1_for_its_point_cosets():
    # B_0 and B_1 are kept over {e}, one point coset per element, and no
    # F_1 double coset is enumerated: the identity and four of the six
    # generators are held when the fifth element passes a budget of 4
    group, gens = cylinder(12)
    torsion = [group.element((0, c)) for c in range(12)]
    with pytest.raises(SizeBudget, match=re.escape(
        "B_1 exceeded the element budget 4 while keeping B_1 (holding 5)"
    )):
        build_ball_system(group, gens, [torsion, torsion], 2, budget=4)


def test_annihilator_check_in_range(lamp_bs4):
    group = lamp_bs4.group
    for data in sorted(lamp_bs4.chain[0]):
        report = bs_annihilator_check(lamp_bs4, Element(group, data), 1)
        assert report.threshold == 2
        assert report.checked == 3712
        assert report.violations == ()
        assert report.ok


def test_annihilator_check_exceptions_are_small(lamp_bs4):
    group = lamp_bs4.group
    lamp_at_origin = group.element(((0,), 0))
    report = bs_annihilator_check(lamp_bs4, lamp_at_origin, 1)
    assert len(report.exceptional) == 6
    for g, norm_g, norm_fg in report.exceptional:
        assert min(norm_g, norm_fg) < report.threshold
        assert norm_g != norm_fg
    wide = group.element(((-1,), 0))
    assert len(bs_annihilator_check(lamp_bs4, wide, 1).exceptional) == 8
    assert len(bs_annihilator_check(lamp_bs4, wide, 3).exceptional) == 4


def test_annihilator_check_range_scales(lamp_bs4):
    group = lamp_bs4.group
    f = group.element(((-1,), 0))
    r2 = bs_annihilator_check(lamp_bs4, f, 2)
    assert r2.range_radius == 2 and r2.checked == 416
    assert r2.violations == ()
    d = r2.to_json_dict()
    assert d["ok"] and d["n"] == 2 and d["threshold"] == 2


def test_annihilator_check_needs_chain_member(lamp_bs4):
    group = lamp_bs4.group
    with pytest.raises(OutOfRange, match="F_1"):
        bs_annihilator_check(lamp_bs4, group.element(((5,), 0)), 1)


def _annihilator_by_listing(bs, f, n):
    """The annihilator check's report from every |g| and |f^-1 g| over
    B_{n_max - n}, its spheres listed in order."""
    group = bs.group
    radius, cut = bs.n_max - n, max(n, 2)
    f_inv = group.inv_data(f.data)
    rows = {"violations": [], "exceptional": []}
    checked = 0
    for ng in range(radius + 1):
        for g in bs.sphere_data(ng):
            checked += 1
            nfg = bs.norm_data(group.mul_data(f_inv, g))
            if nfg != ng:
                kind = "violations" if min(ng, nfg) >= cut else "exceptional"
                rows[kind].append({"g": str(Element(group, g)), "norm_g": ng, "norm_fg": nfg})
    return {
        "f": str(f), "n": n, "range_radius": radius, "threshold": cut,
        "checked": checked, **rows, "ok": not rows["violations"],
    }


def test_annihilator_check_matches_sphere_listing(lamp_pair):
    # the check reads S_k's exceptions off f B_{k-1} where B_k alone is kept
    # over a subgroup holding f; listing S_k must give the same report. The
    # window chain's F_j are involutions, so f^-1 h = f h there and only the
    # torsion chain of the abelian cylinder tells them apart, while only the
    # lamplighter tells h f from f h
    group, gens = lamp_pair
    cases = []
    for n_max in (3, 4, 5):
        bs = build_ball_system(group, gens, None, n_max)
        for n in range(1, n_max + 1):
            members = list(bs.chain[n - 1])
            cases += [(bs, Element(group, d), n) for d in members[:: max(1, len(members) // 8)]]
    group, gens = cylinder(12)
    torsion = [group.element((0, c)) for c in range(12)]
    bs = build_ball_system(group, gens, [torsion] * 4, 4)
    cases += [(bs, f, n) for n in range(1, 5) for f in torsion]
    # levels 0-2 of the word metric, then F B_3 and F B_4 over F = 0 x Z/12:
    # S_3 takes the shortcut from B_2, and its f h at |h| = 2 are violations
    mul, f_set = group.mul_data, frozenset(f.data for f in torsion)
    word = _word_metric(group, gens, 4)
    levels = [frozenset(_level_data(word, k)) for k in range(5)]
    levels[3:] = [frozenset(mul(a, x) for a in f_set for x in b) for b in levels[3:]]
    hand = BallSystem(group, (f_set, frozenset([group.identity_data()]), f_set, f_set), levels)
    assert _walked(hand) == {3, 4}
    cases += [(hand, f, 1) for f in torsion]
    violations = 0
    for bs, f, n in cases:
        expect = _annihilator_by_listing(bs, f, n)
        assert bs_annihilator_check(bs, f, n).to_json_dict() == expect, (bs.n_max, str(f), n)
        violations += len(expect["violations"])
    assert violations > 0


def test_axioms_on_ball_system(lamp_bs4):
    report = metric_axiom_check(lamp_bs4)
    assert report.source == "ballsystem"
    assert report.radius == 4
    assert report.pairs_checked == 254464
    assert report.layer_sizes == (1, 3, 412, 3296, 27520)


def _word_metric(group, gens, radius):
    """The word metric as the ball system on the degenerate chain F_n = {e}."""
    return build_ball_system(group, gens, [[group.identity()]] * radius, radius)


def test_axioms_on_ball(z2_pair):
    word = _word_metric(*z2_pair, 4)
    report = metric_axiom_check(word)
    assert report.radius == 4
    assert report.pairs_checked == 321
    assert report.layer_sizes == (1, 4, 8, 12, 16)
    smaller = metric_axiom_check(word, radius=3)
    assert smaller.radius == 3
    assert smaller.pairs_checked == 129


def test_axiom_radius_guard(z2_pair):
    with pytest.raises(OutOfRange):
        metric_axiom_check(_word_metric(*z2_pair, 4), radius=5)


def test_axiom_radius_guard_negative(z2_pair, lamp_bs4):
    for source in (_word_metric(*z2_pair, 4), lamp_bs4):
        with pytest.raises(OutOfRange, match="negative"):
            metric_axiom_check(source, radius=-1)


def spec_path(name):
    return str(resources.files("horobound") / "specs" / name)


def _with_norm(bs, norm, chain=None):
    """A hand-built BallSystem with the given norm, cut at bs.n_max."""
    levels = tuple(
        frozenset(d for d, n in norm.items() if n <= k) for k in range(bs.n_max + 1)
    )
    return BallSystem(bs.group, bs.chain if chain is None else chain, levels)


def _walked(bs):
    """The levels kept over double cosets of a subgroup larger than {e}."""
    return {n for n, level in enumerate(bs._levels) if len(level.cosets.subgroup) > 1}


def _norms(bs):
    """Every element of B_n_max with its norm, read from the levels' double
    cosets top down so that the lowest level holding an element names it."""
    return {
        d: n
        for n, level in reversed(list(enumerate(bs._levels)))
        for r in level.reps
        for d in level.cosets.members(r)
    }


def test_axiom_check_work_counts(lamp_bs4, monkeypatch):
    # the blocks 1 <= i <= j on representatives, one x per left coset of
    # F_{i+j} in R_i F_j read off in closed form: (1, 1) 3 x 3; (1, 2) 3 x 5;
    # (1, 3) 3 x 7; (2, 2) 5 x 5. All pairs took 254,464
    calls = _count_products(monkeypatch, LamplighterGroup)
    report = metric_axiom_check(lamp_bs4)
    assert calls[0] == 9 + 15 + 21 + 25
    assert report.pairs_checked == 254_464
    assert _walked(lamp_bs4) == {2, 3, 4}


def test_axiom_check_walks_no_trivial_subgroup(monkeypatch):
    # the degenerate chain F_n = {e} of ``ballsystem`` on Z^2: no level is
    # walked, and each pair of the blocks 1 <= i <= j is one product,
    # 16 + 32 + 48 + 64 + 64 + 96 of the 681 pairs covered
    group, gens, _ = parse_spec(spec_path("z2_standard.spec"))
    bs = build_ball_system(group, gens, [[group.identity()]] * 5, 5)
    assert _walked(bs) == set()
    calls = _count_products(monkeypatch, type(group))
    report = metric_axiom_check(bs)
    assert calls[0] == 320
    assert report.pairs_checked == 681


def test_ballsystem_run_work_counts(monkeypatch):
    # parsing the spec takes none and ``run_command`` reuses its group;
    # build 52, axiom check 70, annihilator checks 56: 1 + 3 products over
    # S_0 and S_1 and |B_1| = 4 for S_2, for each of the 7 members of F_1
    # but the identity, which takes none
    calls = _count_products(monkeypatch, LamplighterGroup)
    _, _, config = parse_spec(spec_path("lamplighter.spec"))
    run_command(config)
    assert calls[0] == 52 + 70 + 56


def test_ballsystem_run_at_n_max_8_takes_polynomial_work(monkeypatch):
    # build 196: 16 at B_2, then 3 (2n - 1) at each B_n; axiom
    # check 684: (2i + 1)(2j + 1) per block 1 <= i <= j, i + j <= 8;
    # annihilator checks 56 as at n_max = 4
    calls = _count_products(monkeypatch, LamplighterGroup)
    _, _, config = parse_spec(spec_path("lamplighter.spec"))
    report, _ = run_command(config.with_params(n_max=8))
    assert calls[0] == 196 + 684 + 56
    # build and axiom check under 2 n^3, annihilator checks 2 |B_1| per
    # member of F_1 but the identity, while F_8 alone has 2^17 elements
    assert calls[0] < 2 * 8**3 + 7 * 2 * 4 < len(Window(8))
    assert report["levels"]["chain_sizes"] == [2 ** (2 * j + 1) for j in range(1, 9)]


def test_axiom_check_reports_a_missing_product(lamp_pair):
    # B_3 without the double coset F_3 t^3 F_3 and its inverse: the levels
    # stay symmetric unions of cosets, so the violation is found among the
    # representative pairs of a walked level, with their own norms
    group, gens = lamp_pair
    bs = build_ball_system(group, gens, None, 3)
    f3, t3 = bs.chain[2], group.element(((), 3)).data
    mul, inv = group.mul_data, group.inv_data
    norm = _norms(bs)
    for x in (t3, inv(t3)):
        for a in f3:
            for b in f3:
                norm.pop(mul(mul(a, x), b), None)
    hand = _with_norm(bs, norm)
    assert _walked(hand) == {2, 3}
    with pytest.raises(AxiomViolation, match="triangle inequality fails") as hit:
        metric_axiom_check(hand)
    w = hit.value.witness
    assert w["norm_xy"] is None or w["norm_xy"] > w["norm_x"] + w["norm_y"]
    assert (w["norm_x"], w["norm_y"]) == (1, 2)  # t^-1 * t^-2, block (1, 2)
    assert hand.norm_data(group.parse(w["x"]).data) == w["norm_x"]
    assert hand.norm_data(group.parse(w["y"]).data) == w["norm_y"]


def test_axiom_check_multiplies_through_the_middle_subgroup():
    # D_30 on r^17 and s r^26, F_1 = F_2 = F_3 = {e}, F_4 = F_5 = <s r^8>;
    # B_5 loses the double coset of r^6 under F_5, and its inverse. Every
    # product of S_1 with a representative of B_4 still lands in B_5; the
    # missing pairs are x m y with m = s r^8, from the middle subgroup F_4
    group = _dihedral(30)
    gens = symmetric_generating_set(group, [group.element((17,)), group.element((56,))])
    e, f = frozenset({(0,)}), frozenset({(0,), (38,)})
    bs = _ball_system(group, gens, [e, e, e, f, f])
    assert bs.layer_sizes() == [1, 4, 8, 12, 38, 60]
    norm = _norms(bs)
    for y in ((6,), (24,), (32,), (44,)):
        del norm[y]
    hand = _with_norm(bs, norm)
    assert _walked(hand) == {4, 5}
    mul = group.mul_data
    assert all(
        hand.norm_data(mul(x, y)) is not None
        for x in hand.sphere_data(1)
        for y in hand._levels[4].reps
    )
    with pytest.raises(AxiomViolation, match="outside B_5") as hit:
        metric_axiom_check(hand)
    w = hit.value.witness
    x, y = (group.parse(w[k]) for k in ("x", "y"))
    assert (hand.norm_data(x.data), hand.norm_data(y.data)) == (w["norm_x"], w["norm_y"])
    assert w["norm_x"] + w["norm_y"] <= 5
    assert w["norm_xy"] is None and hand.norm_data(mul(x.data, y.data)) is None


def test_axiom_check_reports_a_level_off_its_cosets(lamp_pair):
    # t^2 and t^-2 moved from B_2 to B_3: B_2 is no longer a union of F_2
    # cosets, so it is not walked, and the pair t^-1 * t^-1 names the level
    group, gens = lamp_pair
    bs = build_ball_system(group, gens, None, 3)
    t, t2 = group.element(((), -1)), group.element(((), 2)).data
    norm = _norms(bs)
    norm[t2] = norm[group.inv_data(t2)] = 3
    hand = _with_norm(bs, norm)
    assert _walked(hand) == {3}
    with pytest.raises(AxiomViolation, match=r"outside B_2") as hit:
        metric_axiom_check(hand)
    assert hit.value.witness == {
        "x": str(t), "y": str(t), "norm_x": 1, "norm_y": 1, "norm_xy": 3
    }


def test_axiom_check_does_not_trust_a_chain_out_of_nesting():
    # D_16 on r^13 with F_1 = <r^2>, F_2 = {e}, F_3 = <s r^2>, F_4 = <s r^11>,
    # levels from the defining formula, then four elements of B_4 dropped.
    # B_3 and B_4 are unions of cosets, but F_3 is not inside F_4, so B_4
    # is not walked; trusting it would miss the violation
    group = _dihedral(16)
    mul, inv, identity = dihedral_ops(16)
    ids = ((0, 2, 4, 6, 8, 10, 12, 14), (0,), (0, 18), (0, 27))
    chain = [frozenset((i,) for i in f) for f in ids]
    levels = oracle_ball_system(mul, identity, {(13,), (3,)}, chain, 4)
    levels[4] -= {(5,), (11,), (16,), (22,)}
    bs = BallSystem(group, tuple(chain), tuple(frozenset(level) for level in levels))
    assert _walked(bs) == {3}
    norm = _norms(bs)
    assert oracle_metric_violation(mul, inv, identity, norm, 4)[0] == "triangle"
    with pytest.raises(AxiomViolation, match="triangle inequality fails"):
        metric_axiom_check(bs)


def _mutant(bs, rng):
    """bs with the norm of a seeded random set of elements moved, and now
    and then one F_k replaced by a trivial group, a non-subgroup or a
    subgroup that breaks the nesting."""
    group, n_max = bs.group, bs.n_max
    mul, inv = group.mul_data, group.inv_data
    x = rng.choice([d for n in range(n_max + 1) for d in bs.sphere_data(n)])
    kind = rng.randrange(4)
    if kind == 0:
        moved = {x}
    elif kind == 1:
        moved = {x, inv(x)}
    elif kind == 2:  # a double coset of F_k and its inverse
        f = bs.chain[rng.randrange(n_max)]
        moved = {mul(mul(a, y), b) for y in (x, inv(x)) for a in f for b in f}
    else:  # an element just outside B_n_max and its inverse
        y = mul(rng.choice(bs.sphere_data(n_max)), rng.choice(bs.sphere_data(1)))
        moved = {y, inv(y)}
    to = 0 if rng.random() < 0.05 else rng.randint(1, n_max + 1)
    norm = _norms(bs)
    for y in moved:
        if to > n_max:
            norm.pop(y, None)
        else:
            norm[y] = to
    chain = bs.chain
    if rng.random() < 0.3:
        k = rng.randrange(n_max)
        f = chain[k]
        new = rng.choice([
            frozenset({group.identity_data()}),
            f - {max(f)} if len(f) > 1 else f,
            chain[-1],
        ])
        chain = chain[:k] + (new,) + chain[k + 1:]
    return _with_norm(bs, norm, chain)


_AXIOMS = {
    "a non-identity element has norm 0": "identity",
    "the identity does not have norm 0": "identity",
    "symmetry fails": "symmetry",
    "triangle inequality fails": "triangle",
}


@pytest.mark.parametrize("name", ["dihedral_n5", "lamplighter_n3"])
def test_axiom_check_agrees_with_all_pairs(lamp_pair, name):
    if name == "dihedral_n5":
        bs, _ = _dihedral_ball_system()
        mul, inv, identity = dihedral_ops(32)
    else:
        group, gens = lamp_pair
        bs = build_ball_system(group, gens, None, 3)
        mul, inv, identity = lamp_mul, lamp_inv, ((), 0)
    group = bs.group
    form = oracle_form(group)
    every_level = set(range(2, bs.n_max + 1))
    assert _walked(bs) == every_level
    rng = random.Random(2026)
    seen = set()
    for _ in range(60):
        mutant = _mutant(bs, rng)
        norm = {form(d): n for d, n in _norms(mutant).items()}
        verdict = oracle_metric_violation(mul, inv, identity, norm, mutant.n_max)
        try:
            metric_axiom_check(mutant)
        except AxiomViolation as exc:
            assert verdict is not None, str(exc)
            assert _AXIOMS[str(exc).split(":")[0]] == verdict[0], str(exc)
            if verdict[0] == "triangle":
                w = exc.witness
                x, y = (form(group.parse(w[k]).data) for k in ("x", "y"))
                assert (norm.get(x), norm.get(y)) == (w["norm_x"], w["norm_y"])
                assert norm.get(mul(x, y)) == w["norm_xy"]
                assert w["norm_xy"] is None or w["norm_xy"] > w["norm_x"] + w["norm_y"]
        else:
            assert verdict is None
        seen.add((verdict[0] if verdict else None, _walked(mutant) == every_level))
    assert {(None, True), (None, False), ("triangle", True), ("triangle", False)} <= seen
