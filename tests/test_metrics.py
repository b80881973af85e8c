"""Ball systems, the induced metric, and the absorption-based annihilator check."""

import math
import random
import re
from itertools import combinations, permutations

import pytest

from horobound.cayley import grow_ball
from horobound.errors import AxiomViolation, NotASubgroup, OutOfRange, SizeBudget
from horobound.examples import cylinder, example, lamp_chain
from horobound.groups import (
    Element,
    FiniteGroupSpec,
    FiniteTableGroup,
    LamplighterGroup,
    cyclic_table,
    direct_product_table,
    symmetric_generating_set,
)
from horobound.metrics import (
    BallSystem,
    _block_factors,
    _build_level,
    _check_subgroup,
    bs_annihilator_check,
    bs_norm,
    build_ball_system,
    metric_axiom_check,
)

from oracles import lamp_mul, oracle_ball_system, oracle_form


def test_level_sizes(lamp_bs4):
    assert lamp_bs4.layer_sizes() == [1, 4, 416, 3712, 31232]
    assert lamp_bs4.to_json_dict() == {
        "n_max": 4,
        "chain_sizes": [8, 32, 128, 512],
        "level_sizes": [1, 4, 416, 3712, 31232],
    }
    assert [len(lamp_bs4.sphere_data(n)) for n in range(4)] == [1, 3, 412, 3296]


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
        assert {form(x.data) for x in bs.elements(n)} == expect[n]
        # each sphere in the order of its tuple form
        previous = expect[n - 1] if n else set()
        assert [form(d) for d in bs.sphere_data(n)] == sorted(expect[n] - previous)


def _assert_blocks_match_oracle(bs, mul, reps):
    """Each block with k, n - k >= 2 against all pairs of B_k B_{n-k}.

    The levels alone would not show a lost product: F_n (B_1 B_{n-1} u
    B_{n-1} B_1) F_n already holds every such block.
    """
    group = bs.group
    form = oracle_form(group)
    levels = [frozenset(form(x) for x in level) for level in bs.levels]
    chain_gens = [_check_subgroup(group, f, "F") for f in bs.chain]
    sizes = {}
    for n in range(4, bs.n_max + 1):
        for k in range(2, n - 1):
            rows, columns = _block_factors(group, bs.levels, bs.chain, chain_gens, k, n - k)
            got = {form(group.mul_data(a, b)) for a in rows for b in columns}
            assert got == {mul(a, b) for a in levels[k] for b in levels[n - k]}
            sizes[k, n - k] = (len(rows), len(columns))
    assert sizes == reps


def test_levels_match_defining_formula(lamp_pair, lamp_bs4):
    # B_4 reaches the coset-representative block B_2 B_2 (k <= n - k)
    _assert_levels_match_oracle(lamp_bs4, lamp_mul, lamp_pair[1])
    _assert_blocks_match_oracle(lamp_bs4, lamp_mul, {(2, 2): (13, 416)})


def _dihedral_64():
    """D_32 = <r, s> as a table, with index 32 f + k for s^f r^k."""
    elems = [(f, k) for f in range(2) for k in range(32)]

    def mul(a, b):
        return ((a[0] + b[0]) % 2, ((-a[1] if b[0] else a[1]) + b[1]) % 32)

    table = tuple(tuple(32 * c[0] + c[1] for c in (mul(a, b) for b in elems)) for a in elems)
    return FiniteTableGroup(FiniteGroupSpec(table=table))


def test_levels_match_defining_formula_on_a_finite_chain():
    # D_32 on the reflections s and s r; F_1 = F_2 = <s>, then <s, r^16>,
    # neither of them normal. B_5 reaches the blocks B_2 B_3 (k <= n - k)
    # and B_3 B_2 (k > n - k), and no level is the whole group.
    group = _dihedral_64()
    gens = symmetric_generating_set(group, [group.element((32,)), group.element((33,))])
    small = [group.element((i,)) for i in (0, 32)]
    large = [group.element((i,)) for i in (0, 16, 32, 48)]
    bs = build_ball_system(group, gens, [small, small, large, large, large], 5)
    assert bs.layer_sizes() == [1, 3, 6, 20, 28, 36]
    _assert_levels_match_oracle(bs, group.mul_data, gens)
    _assert_blocks_match_oracle(
        bs, group.mul_data, {(2, 2): (3, 6), (2, 3): (3, 20), (3, 2): (20, 3)}
    )


def test_bs_norm(lamp_bs4):
    group = lamp_bs4.group
    assert bs_norm(lamp_bs4, group.identity()) == 0
    assert bs_norm(lamp_bs4, group.element(((), 1))) == 1
    assert bs_norm(lamp_bs4, group.element(((0,), 0))) == 1
    with pytest.raises(OutOfRange):
        bs_norm(lamp_bs4, group.element(((), 9)))


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
                _check_subgroup(group, elems, "F")
            else:
                with pytest.raises(NotASubgroup, match="products"):
                    _check_subgroup(group, elems, "F")
    assert outcomes == {True, False}


def test_subgroup_walk_follows_the_sort_key():
    # two commuting involutions whose product is missing; the walk takes
    # ({-1,2};0) first, as its support sorts first, although its data
    # (mask 9) sorts after the data of ({0,1};0) (mask 3)
    group = LamplighterGroup()
    a, b = group.parse("({-1,2};0)"), group.parse("({0,1};0)")
    elems = frozenset({group.identity_data(), a.data, b.data})
    with pytest.raises(NotASubgroup, match=re.escape("at ({-1,2};0) * ({0,1};0)")):
        _check_subgroup(group, elems, "F")


def test_subgroup_check_work_is_near_linear(lamp_pair, monkeypatch):
    group, _ = lamp_pair
    chain = [frozenset(x.data for x in level) for level in lamp_chain(group, 5)]
    calls = [0]
    mul = LamplighterGroup.mul_data

    def counted(self, a, b):
        calls[0] += 1
        return mul(self, a, b)

    monkeypatch.setattr(LamplighterGroup, "mul_data", counted)
    for i, f in enumerate(chain):
        calls[0] = 0
        _check_subgroup(group, f, f"F_{i + 1}")
        assert calls[0] < len(f) * (math.log2(len(f)) + 1)


@pytest.mark.parametrize(
    "n, bad, match",
    [
        # k = n - k = 2: F_2 B_2 inside B_2, then B_2 = R F_2
        (4, "right", r"B_2 \(F_2 on the left\) is not invariant"),
        (4, "left", r"B_2 \(F_2 on the right\) is not a union of cosets"),
        # k = 3 > n - k = 2: B_3 F_2 inside B_3, then B_2 = F_2 L
        (5, "b3", r"B_3 \(F_2 on the right\) is not invariant"),
        (5, "b2", r"B_2 \(F_2 on the left\) is not a union of cosets"),
    ],
)
def test_level_blocks_check_invariance(lamp_pair, n, bad, match):
    group, gens = lamp_pair
    chain = tuple(frozenset(x.data for x in level) for level in lamp_chain(group, n))
    chain_gens = [_check_subgroup(group, f, f"F_{i + 1}") for i, f in enumerate(chain)]
    t, f2 = group.element(((), 1)).data, chain[1]
    # t F_2 lights [-1, 3] and F_2 t lights [-2, 2]: each is a union of
    # cosets of F_2 on one side only
    right_cosets = f2 | {group.mul_data(t, f) for f in f2}
    left_cosets = f2 | {group.mul_data(f, t) for f in f2}
    e = group.identity_data()
    levels = [frozenset({e}), frozenset(s.data for s in gens) | {e}]
    if n == 4:
        levels += [right_cosets if bad == "right" else left_cosets, chain[2]]
    else:
        # the B_2 B_3 block passes, so B_2 is right- and B_3 left-invariant
        levels += [right_cosets, left_cosets if bad == "b3" else chain[2], chain[3]]
    with pytest.raises(AxiomViolation, match=match):
        _build_level(group, levels, chain, chain_gens, 10**6)


def test_ball_system_work_counts(lamp_pair, monkeypatch):
    # subgroup checks, level blocks over coset representatives and the F_n
    # expansions; all-pairs level blocks alone made 206,096 products
    group, gens = lamp_pair
    chain = lamp_chain(group, 4)
    calls = [0]
    mul = LamplighterGroup.mul_data

    def counted(self, a, b):
        calls[0] += 1
        return mul(self, a, b)

    monkeypatch.setattr(LamplighterGroup, "mul_data", counted)
    build_ball_system(group, gens, chain, 4)
    assert calls[0] == 103_272


def test_budget_below_one_is_refused(lamp_pair, monkeypatch):
    group, gens = lamp_pair
    chain = lamp_chain(group, 3)

    def refuse(self, a, b):
        raise AssertionError("a product was taken")

    monkeypatch.setattr(LamplighterGroup, "mul_data", refuse)  # no level is built
    for budget in (0, -1):
        with pytest.raises(OutOfRange, match=f"budget must be >= 1, got {budget}"):
            build_ball_system(group, gens, chain, 3, budget=budget)


def test_axiom_check_sorts_each_sphere_once(lamp_bs4, monkeypatch):
    calls = [0]
    sphere_data = BallSystem.sphere_data

    def counted(self, n):
        calls[0] += 1
        return sphere_data(self, n)

    monkeypatch.setattr(BallSystem, "sphere_data", counted)
    metric_axiom_check(lamp_bs4)
    assert calls[0] <= lamp_bs4.n_max + 1


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
    group, gens = lamp_pair
    with pytest.raises(SizeBudget, match="element budget"):
        build_ball_system(group, gens, lamp_chain(group, 3), 3, budget=100)
    # the budget fires within the first rows of B_1 B_1, naming the level reached
    with pytest.raises(SizeBudget, match=r"B_2 .* merging products") as hit:
        build_ball_system(group, gens, lamp_chain(group, 3), 3, budget=5)
    partial = int(re.search(r"partial size (\d+)", str(hit.value)).group(1))
    assert 5 < partial <= 5 + 4  # one row adds at most |B_1| = 4 products
    with pytest.raises(SizeBudget, match=r"B_2 .* expanding by F_2 on the right"):
        build_ball_system(group, gens, lamp_chain(group, 3), 3, budget=20)
    with pytest.raises(SizeBudget, match="level budget"):
        build_ball_system(group, gens, lamp_chain(group, 6), 6)


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


def test_axioms_on_ball_system(lamp_bs4):
    report = metric_axiom_check(lamp_bs4)
    assert report.source == "ballsystem"
    assert report.radius == 4
    assert report.pairs_checked == 254464
    assert report.layer_sizes == (1, 3, 412, 3296, 27520)


def test_axioms_on_ball(z2_pair):
    group, gens = z2_pair
    ball = grow_ball(group, gens, 4)
    report = metric_axiom_check(ball)
    assert report.source == "ball"
    assert report.radius == 4
    assert report.pairs_checked == 321
    assert report.layer_sizes == (1, 4, 8, 12, 16)
    smaller = metric_axiom_check(ball, radius=3)
    assert smaller.radius == 3
    assert smaller.pairs_checked < report.pairs_checked


def test_axiom_radius_guard(z2_pair):
    group, gens = z2_pair
    ball = grow_ball(group, gens, 4)
    with pytest.raises(OutOfRange):
        metric_axiom_check(ball, radius=5)


def test_axiom_radius_guard_negative(z2_pair, lamp_bs4):
    group, gens = z2_pair
    ball = grow_ball(group, gens, 4)
    for source in (ball, lamp_bs4):
        with pytest.raises(OutOfRange, match="negative"):
            metric_axiom_check(source, radius=-1)
