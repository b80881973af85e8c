"""Group families: canonical forms, arithmetic against oracles, generating sets."""

import json
import random
import tracemalloc
from importlib import resources

import pytest

from horobound.cayley import grow_ball
from horobound.cli import parse_spec
from horobound.errors import (
    BadCocycle,
    DoesNotGenerate,
    GroupMismatch,
    IdentityGenerator,
    LabelCount,
    NonUnimodularAction,
    RepeatedGenerator,
    SizeBudget,
    TableNotGroup,
)
from horobound import groups
from horobound.examples import REGISTRY, cylinder, example, z2_rot4
from horobound.groups import (
    ExtensionGroup,
    FgAbelianGroup,
    FgAbelianSpec,
    FiniteGroupSpec,
    FiniteTableGroup,
    LamplighterGroup,
    LamplighterZ2Spec,
    TABLE_ORDER_BUDGET,
    VAbExtensionGroup,
    VAbExtensionSpec,
    build_group,
    cyclic_table,
    direct_product_table,
    subgroup_index,
    symmetric_generating_set,
)
from horobound.linalg import identity_matrix

from oracles import (
    REGISTRY_OPS,
    cyl_ops,
    dihedral_ops,
    klein_ops,
    lamp_inv,
    lamp_mul,
    lamp_parse,
    oracle_ball,
    oracle_coset_count,
    oracle_form,
    rot4_inv,
    rot4_mul,
    torsion_ops,
    two_z_ops,
    zd_inv,
    zd_mul,
)


# ---------------------------------------------------------------------------
# canonical forms and parsing


def test_fg_abelian_canonical_reduces_torsion():
    g = FgAbelianGroup(FgAbelianSpec(free_rank=1, torsion=(4,)))
    assert g.canonical((3, 7)) == (3, 3)
    assert g.canonical((-2, -1)) == (-2, 3)
    assert g.identity().data == (0, 0)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_parse_format_round_trip(name):
    group, gens = example(name)
    for x in gens:
        assert group.parse(str(x)) == x
    assert group.parse(str(group.identity())) == group.identity()


def test_parse_canonicalizes():
    g = FgAbelianGroup(FgAbelianSpec(free_rank=1, torsion=(4,)))
    assert g.parse("(3,-1)").data == (3, 3)


def test_parse_rejects_garbage():
    g = FgAbelianGroup(FgAbelianSpec(free_rank=2))
    for bad in ["(1)", "(1,2,3)", "1,2", "(a,b)"]:
        with pytest.raises(ValueError):
            g.parse(bad)


def test_lamplighter_canonical_sorts_support():
    g = LamplighterGroup()
    x = g.element(((3, 0, 0, -2), 5))
    assert lamp_parse(str(x)) == ((-2, 0, 3), 5)
    assert x.data == (0b100101, -2, 5)  # lamps -2, 0, 3 as bits 0, 2, 5 above -2
    assert str(x) == "({-2,0,3};5)"
    assert g.parse("({-2,0,3};5)") == x


def test_lamplighter_support_is_a_set():
    g = LamplighterGroup()
    assert g.parse("({0,0};0)") == g.parse("({0};0)")
    assert str(g.parse("({0,0};0)")) == "({0};0)"
    assert g.element(((0, 0), 0)).data == g.element(((0,), 0)).data == (1, 0, 0)


def test_lamplighter_canonical_is_idempotent_on_encoded_data():
    g = LamplighterGroup()
    assert g.canonical((0b100, 1, 7)) == (1, 3, 7)  # trailing zeros move into low
    assert g.canonical((0, 5, -2)) == (0, 0, -2)  # no lamps: low is 0
    with pytest.raises(ValueError, match="mask"):
        g.canonical((-1, 0, 0))
    group, gens = example("lamplighter_z2")
    for data in grow_ball(group, gens, 5).data_up_to(5):
        assert group.canonical(data) == data
        assert group.element(data).data == data


def _random_lamps(rng):
    """(lamps, shift) in tuple form, around a centre far from 0, with
    supports up to 400 positions wide and shifts beyond +-64."""
    centre = rng.choice((0, -3, -100, 150, -1000))
    width = rng.choice((2, 40, 200))
    lamps = rng.sample(range(centre - width, centre + width), rng.randint(0, 4))
    shift = rng.choice((0, 1, -1, 65, -65, 130, -300)) + rng.randint(-2, 2)
    return (tuple(sorted(lamps)), shift)


def test_lamplighter_encoding_vs_tuple_oracle():
    group = LamplighterGroup()
    form = oracle_form(group)
    rng = random.Random(2026)
    seen = set()
    for _ in range(600):
        a, b = _random_lamps(rng), _random_lamps(rng)
        x, y = group.element(a), group.element(b)
        assert form(x.data) == a
        assert group.canonical(x.data) == x.data
        assert group.parse(str(x)) == x
        xy = form(group.mul_data(x.data, y.data))
        assert xy == lamp_mul(a, b)
        assert form(group.inv_data(x.data)) == lamp_inv(a)
        # b moved back under a's shift cancels a's lamps exactly
        c = (tuple(p - a[1] for p in a[0]), b[1])
        assert group.mul_data(x.data, group.element(c).data) == group.element(((), a[1] + b[1])).data
        assert lamp_mul(a, c) == ((), a[1] + b[1])
        if xy[0]:
            seen.add("negative" if xy[0][0] < 0 else "non-negative")
            if xy[0][-1] - xy[0][0] >= 64:
                seen.add("wider than 64")
        if abs(a[1]) > 64:
            seen.add("shift beyond 64")
        if a[0] and b[0] and a[0][0] == b[0][0] + a[1]:
            seen.add("equal lows")
    assert seen == {"negative", "non-negative", "wider than 64", "shift beyond 64", "equal lows"}


def test_oracle_form_reads_the_encoding_as_the_text_does():
    # the oracles read (mask, low, shift) bit by bit; the element text,
    # lamp_parse(format_data(...)), is the route it replaced
    group = LamplighterGroup()
    form = oracle_form(group)
    rng = random.Random(2026)
    seen = set()
    for _ in range(600):
        data = group.mul_data(group.element(_random_lamps(rng)).data,
                              group.element(_random_lamps(rng)).data)
        assert form(data) == lamp_parse(group.format_data(data))
        mask, low, shift = data
        seen |= {
            "empty" if not mask else "negative low" if low < 0 else "non-negative low",
            *(["wider than 64"] if mask.bit_length() > 64 else []),
            *(["shift beyond 64"] if abs(shift) > 64 else []),
        }
    assert seen == {
        "empty", "negative low", "non-negative low", "wider than 64", "shift beyond 64"
    }


def test_lamplighter_sort_key_is_support_then_shift():
    group = LamplighterGroup()
    rng = random.Random(2026)
    xs = [group.identity_data(), group.element(((), -5)).data]
    for _ in range(300):
        lamps, shift = _random_lamps(rng)
        xs.append(group.element((lamps, shift)).data)
        # the same low: one more or one fewer lamp, a lamp toggled, another shift
        extra = rng.randint(1, 130)
        xs.append(group.element((lamps + ((lamps[-1] if lamps else 0) + extra,), shift)).data)
        xs.append(group.element((lamps[:-1], shift)).data)
        if lamps:
            toggled = set(lamps) ^ {lamps[0] + rng.randint(1, 70)}
            xs.append(group.element((toggled, shift)).data)
        xs.append(group.element((lamps, shift + rng.choice((-1, 1)))).data)
    rng.shuffle(xs)
    expect = sorted(xs, key=lambda d: (group.support(d), d[2]))
    assert sorted(xs, key=group.sort_key) == expect
    seen = set()
    for a, b in zip(expect, expect[1:]):
        sa, sb = group.support(a), group.support(b)
        if not sa:
            seen.add("empty")
        elif sa == sb:
            seen.add("shift tie")
        elif sb and sa[0] == sb[0]:
            seen.add("negative equal lows" if sa[0] < 0 else "equal lows")
            if sb[:len(sa)] == sa:
                seen.add("prefix")
        if a[0].bit_length() > 64:
            seen.add("wider than 64")
    assert seen == {
        "empty", "shift tie", "equal lows", "negative equal lows", "prefix", "wider than 64"
    }


# ---------------------------------------------------------------------------
# arithmetic against independent implementations

@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_group_laws_random(name):
    group, gens = example(name)
    mul_o, inv_o = REGISTRY_OPS[name]
    form = oracle_form(group)
    rng = random.Random(7)
    pool = [s.data for s in gens]
    elems = list(pool)
    for _ in range(40):
        a, b = rng.choice(elems), rng.choice(pool)
        elems.append(group.mul_data(a, b))
    identity = group.identity_data()
    for _ in range(200):
        a, b, c = (rng.choice(elems) for _ in range(3))
        ab = group.mul_data(a, b)
        assert form(ab) == mul_o(form(a), form(b))
        assert group.mul_data(ab, c) == group.mul_data(a, group.mul_data(b, c))
        assert group.mul_data(a, identity) == a
        assert group.mul_data(identity, a) == a
        ia = group.inv_data(a)
        assert form(ia) == inv_o(form(a))
        assert group.mul_data(a, ia) == identity


def _order_two_extension(rank, flip, c11):
    """Z^rank by Z/2, the non-identity element acting by `flip`, with c(1, 1) = c11."""
    zero = (0,) * rank
    return VAbExtensionGroup(
        VAbExtensionSpec(
            rank=rank,
            quotient_table=cyclic_table(2),
            action=(identity_matrix(rank), flip),
            cocycle=((zero, zero), (zero, c11)),
        )
    )


# every REGISTRY cocycle is zero; the last two cases are not
PRODUCT_CASES = {
    "Z x Z/2 x Z/3": (lambda: FgAbelianGroup(FgAbelianSpec(1, (2, 3))), lambda: torsion_ops((2, 3))),
    "Z^2 x Z/3": (lambda: FgAbelianGroup(FgAbelianSpec(2, (3,))), lambda: torsion_ops((3,))),
    "Z/2 x Z/4": (lambda: FgAbelianGroup(FgAbelianSpec(0, (2, 4))), lambda: torsion_ops((2, 4))),
    "Z as 2Z by Z/2": (lambda: _order_two_extension(1, ((1,),), (1,)), two_z_ops),
    "Klein bottle": (lambda: _order_two_extension(2, ((-1, 0), (0, 1)), (0, 1)), klein_ops),
}


def _random_data(group, rng, scale=10**6):
    free = tuple(rng.randint(-scale, scale) for _ in range(group.rank))
    return free + (rng.randrange(group.quotient_order),)


@pytest.mark.parametrize("name", sorted(PRODUCT_CASES))
def test_products_beyond_the_registry_vs_closed_forms(name):
    make_group, make_ops = PRODUCT_CASES[name]
    group = make_group()
    mul_o, inv_o = make_ops()
    form = oracle_form(group)
    identity = group.identity_data()
    rng = random.Random(11)
    for _ in range(300):
        a, b, c = (_random_data(group, rng) for _ in range(3))
        ab = group.mul_data(a, b)
        assert form(ab) == mul_o(form(a), form(b))
        assert group.canonical(ab) == ab
        ia = group.inv_data(a)
        assert form(ia) == inv_o(form(a))
        assert group.mul_data(a, ia) == identity == group.mul_data(ia, a)
        assert group.mul_data(ab, c) == group.mul_data(a, group.mul_data(b, c))


def _s3_by_hand():
    mul, inv, _ = dihedral_ops(3)  # D_3 = S_3
    table = tuple(tuple(mul((a,), (b,))[0] for b in range(6)) for a in range(6))
    group = FiniteTableGroup(FiniteGroupSpec(table))
    return group, [(1,), (3,)], (mul, inv)


def _units(rank, torsion):
    group = FgAbelianGroup(FgAbelianSpec(rank, torsion))
    n = rank + len(torsion)
    return group, [tuple(int(i == j) for j in range(n)) for i in range(n)]


# (group, written generators, hand-written (mul, inv) on the oracle form)
SHAPE_CASES = {
    "Z": lambda: (*_units(1, ()), (zd_mul, zd_inv)),
    "Z^2": lambda: (*_units(2, ()), (zd_mul, zd_inv)),
    "Z x Z/4": lambda: (*_units(1, (4,)), cyl_ops(4)[:2]),
    "Z x Z/2 x Z/3": lambda: (*_units(1, (2, 3)), torsion_ops((2, 3))),
    "Z/2 x Z/4": lambda: (*_units(0, (2, 4)), torsion_ops((2, 4))),
    "z2_rot4": lambda: (
        z2_rot4()[0], [((1, 0), 0), ((0, 1), 0), ((0, 0), 1)], (rot4_mul, rot4_inv)
    ),
    "Klein bottle": lambda: (
        _order_two_extension(2, ((-1, 0), (0, 1)), (0, 1)), [((1, 0), 0), ((0, 0), 1)], klein_ops()
    ),
    "Z as 2Z by Z/2": lambda: (_order_two_extension(1, ((1,),), (1,)), [((0,), 1)], two_z_ops()),
    "S_3 table": _s3_by_hand,
}


@pytest.mark.parametrize("name", sorted(SHAPE_CASES))
def test_flat_data_grows_the_oracle_ball(name):
    # every extension family stores (v_1, ..., v_d, q); read through
    # oracle_form, its ball is the queue BFS of the hand-written arithmetic
    group, written, (mul_o, inv_o) = SHAPE_CASES[name]()
    form = oracle_form(group)
    gens = symmetric_generating_set(group, [group.element(w) for w in written])
    radius = 6
    ball = grow_ball(group, gens, radius)
    want = oracle_ball(mul_o, [form(s.data) for s in gens], form(group.identity_data()), radius)
    assert [form(x) for x in ball.data] == want["data"]
    assert list(ball.parent) == want["parent"]
    assert list(ball.parent_gen) == want["parent_gen"]
    assert ball.offsets == want["offsets"]
    assert [col[:-1] for col in ball.nbr] == want["nbr"]
    for x in ball.data:
        assert form(group.inv_data(x)) == inv_o(form(x))
        assert group.canonical(x) == x
        assert group.parse(group.format_data(x)).data == x
    # reports sort by sort_key: the written coordinates' order, which on
    # Z x Z/2 x Z/3 is not the order of q (mixed radix, first coordinate fastest)
    by_key = [form(x) for x in sorted(ball.data, key=group.sort_key)]
    assert by_key == sorted(form(x) for x in ball.data)


def test_large_quotient_grows_in_linear_memory():
    # Z x Z/1000: a product reads one correction per (q, p) pair it meets,
    # never a table of all 10^6 pairs
    tracemalloc.start()
    try:
        group, written = _units(1, (1000,))
        gens = symmetric_generating_set(group, [group.element(w) for w in written])
        ball = grow_ball(group, gens, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ball) == 841
    assert peak < 5_000_000


def test_lamplighter_mul_on_the_word_ball_vs_oracle():
    group, gens = example("lamplighter_z2")
    form = oracle_form(group)
    ball = grow_ball(group, gens, 3).data_up_to(3)
    cases = set()
    lows = set()
    for a in ball:
        fa = form(a)
        for b in ball:
            fb = form(b)
            data = group.mul_data(a, b)
            assert group.canonical(data) == data
            ab = form(data)
            assert ab == lamp_mul(fa, fb)
            support = ab[0]
            assert type(support) is tuple
            assert all(p < q for p, q in zip(support, support[1:]))
            cases.add((bool(fa[0]), bool(fb[0]), (fa[1] > 0) - (fa[1] < 0)))
            if fa[0] and fb[0]:
                d = fa[0][0] - (fb[0][0] + fa[1])
                lows.add(((d > 0) - (d < 0), bool(ab[0])))
    # every fast path and the general path ran: either support empty, shift 0/+/-
    flags = (False, True)
    assert cases == {(x, y, s) for x in flags for y in flags for s in (-1, 0, 1)}
    # both masks lit: either low lower, or equal lows with and without cancelling
    assert lows == {(-1, True), (1, True), (0, True), (0, False)}


def test_element_power():
    g = FgAbelianGroup(FgAbelianSpec(free_rank=1))
    assert (g.element((3,)) ** -2).data == (-6, 0)
    assert (g.element((3,)) ** 0).is_identity()
    lamp = LamplighterGroup()
    cube = lamp.element(((0,), 1)) ** 3
    assert cube.data == lamp.element(((0, 1, 2), 3)).data
    assert lamp_parse(str(cube)) == ((0, 1, 2), 3)


def test_element_mul_across_groups_rejected():
    a = FgAbelianGroup(FgAbelianSpec(free_rank=1)).element((1,))
    b = FgAbelianGroup(FgAbelianSpec(free_rank=1)).element((1,))
    with pytest.raises(GroupMismatch):
        a * b


# ---------------------------------------------------------------------------
# tables and extensions


def test_cyclic_table():
    t = cyclic_table(4)
    assert t[1][3] == 0 and t[2][3] == 1
    assert FiniteTableGroup(FiniteGroupSpec(table=t)).order == 4


def test_table_order_budget_refuses_before_any_triple():
    n = TABLE_ORDER_BUDGET + 1
    with pytest.raises(SizeBudget, match=rf"Z/{n} has order {n}, past the table budget"):
        cyclic_table(n)
    # one entry per row is not even square, so refusing with SizeBudget shows
    # the order is checked before the table is read at all
    narrow = ((0,),) * n
    with pytest.raises(SizeBudget, match=rf"group table has order {n}"):
        FiniteTableGroup(FiniteGroupSpec(table=narrow))
    with pytest.raises(SizeBudget, match=rf"quotient table has order {n}"):
        VAbExtensionGroup(
            VAbExtensionSpec(rank=0, quotient_table=narrow, action=(), cocycle=())
        )
    with pytest.raises(TableNotGroup, match="not square"):
        FiniteTableGroup(FiniteGroupSpec(table=narrow[:-1]))


def test_direct_product_table():
    t = direct_product_table((2, 3))
    g = FiniteTableGroup(FiniteGroupSpec(table=t))
    assert g.order == 6
    orders = set()
    for i in range(6):
        x, k = g.element((i,)), 1
        while not (x ** k).is_identity():
            k += 1
        orders.add(k)
    assert orders == {1, 2, 3, 6}


def test_bad_table_rejected():
    with pytest.raises(TableNotGroup):
        FiniteTableGroup(FiniteGroupSpec(table=((0, 1), (1, 1))))


def test_spec_validation():
    with pytest.raises(ValueError, match="free rank"):
        FgAbelianGroup(FgAbelianSpec(free_rank=-1))
    with pytest.raises(ValueError, match="torsion"):
        FgAbelianGroup(FgAbelianSpec(free_rank=1, torsion=(1,)))


def test_non_unimodular_action_rejected():
    zero = ((0,), (0,))
    with pytest.raises(NonUnimodularAction):
        VAbExtensionGroup(
            VAbExtensionSpec(
                rank=1,
                quotient_table=cyclic_table(2),
                action=(((1,),), ((2,),)),
                cocycle=(zero, zero),
            )
        )


def test_unnormalized_cocycle_rejected():
    with pytest.raises(BadCocycle):
        VAbExtensionGroup(
            VAbExtensionSpec(
                rank=1,
                quotient_table=cyclic_table(2),
                action=(((1,),), ((1,),)),
                cocycle=(((0,), (1,)), ((0,), (0,))),
            )
        )


def test_build_group_dispatch():
    assert isinstance(build_group(FgAbelianSpec(free_rank=2)), FgAbelianGroup)
    assert isinstance(build_group(LamplighterZ2Spec()), LamplighterGroup)
    assert isinstance(
        build_group(FiniteGroupSpec(table=cyclic_table(3))), FiniteTableGroup
    )


# ---------------------------------------------------------------------------
# generating sets


def test_generating_set_order_and_labels():
    g = FgAbelianGroup(FgAbelianSpec(free_rank=1))
    gens = symmetric_generating_set(g, [g.element((1,))], ["a"])
    assert [str(x) for x in gens.elements] == ["(1)", "(-1)"]
    assert gens.labels == ("a", "a^-1")


def test_generating_set_listed_inverses_keep_position():
    g = FgAbelianGroup(FgAbelianSpec(free_rank=1))
    gens = symmetric_generating_set(g, [g.element((1,)), g.element((-1,))], ["a", "A"])
    assert gens.labels == ("a", "A")


def test_repeated_generator_or_label_is_refused():
    # the library refuses what the spec checks refuse, with their messages,
    # instead of dropping a repeat or the labels past the last generator
    g = FgAbelianGroup(FgAbelianSpec(free_rank=1))
    one, minus = g.element((1,)), g.element((-1,))
    with pytest.raises(RepeatedGenerator, match=r"^generator \(1\) is listed twice$"):
        symmetric_generating_set(g, [one, one, minus])
    with pytest.raises(RepeatedGenerator, match="^label 't' names two generators$"):
        symmetric_generating_set(g, [one, minus], ["t", "t"])
    with pytest.raises(LabelCount, match="^3 labels for 1 generators$"):
        symmetric_generating_set(g, [one], ["a", "b", "c"])
    with pytest.raises(LabelCount, match="^1 labels for 2 generators$"):
        symmetric_generating_set(g, [one, minus], ["a"])
    # an appended inverse's label may not take a listed one
    g2 = FgAbelianGroup(FgAbelianSpec(free_rank=2))
    with pytest.raises(RepeatedGenerator, match=r"^label 'a\^-1' names two generators$"):
        symmetric_generating_set(g2, [g2.element((1, 0)), g2.element((0, 1))], ["a", "a^-1"])


def test_identity_generator_rejected():
    g = FgAbelianGroup(FgAbelianSpec(free_rank=1))
    with pytest.raises(IdentityGenerator):
        symmetric_generating_set(g, [g.identity()])


def test_generator_from_wrong_group_rejected():
    g = FgAbelianGroup(FgAbelianSpec(free_rank=2))
    other = FgAbelianGroup(FgAbelianSpec(free_rank=1))
    with pytest.raises(GroupMismatch):
        symmetric_generating_set(g, [other.element((1,))])


def test_does_not_generate_lattice():
    g = FgAbelianGroup(FgAbelianSpec(free_rank=1))
    with pytest.raises(DoesNotGenerate, match="subgroup of index 2$"):
        symmetric_generating_set(g, [g.element((2,))])
    z2 = FgAbelianGroup(FgAbelianSpec(free_rank=2))
    with pytest.raises(DoesNotGenerate, match="subgroup of infinite index$"):
        symmetric_generating_set(z2, [z2.element((1, 1))])


def test_does_not_generate_cosets():
    g = FgAbelianGroup(FgAbelianSpec(free_rank=1, torsion=(4,)))
    with pytest.raises(DoesNotGenerate, match="subgroup of index 4$"):
        symmetric_generating_set(g, [g.element((1, 0))])


def test_does_not_generate_finite():
    g = FiniteTableGroup(FiniteGroupSpec(table=cyclic_table(6)))
    symmetric_generating_set(g, [g.element((1,))])  # index 1: does not raise
    with pytest.raises(DoesNotGenerate, match="subgroup of index 2$"):
        symmetric_generating_set(g, [g.element((2,))])


# ---------------------------------------------------------------------------
# subgroup index


def _z2_index(*vecs):
    g = FgAbelianGroup(FgAbelianSpec(free_rank=2))
    return subgroup_index(g, [g.element(v) for v in vecs])


@pytest.mark.parametrize(
    "vecs, index",
    [
        ([(2, 0)], None),  # <a^2>
        ([(1, 0)], None),  # <a>
        ([], None),
        ([(1, 0), (0, 2)], 2),  # <a, b^2>
        ([(1, 1), (1, -1)], 2),  # <ab, ab^-1>
        ([(2, 0), (0, 2)], 4),  # <a^2, b^2>
        ([(2, 0), (0, 2), (-2, -2), (4, 6)], 4),  # redundant generators
        ([(1, 0), (0, 1)], 1),
    ],
)
def test_subgroup_index_z2(vecs, index):
    assert _z2_index(*vecs) == index


def test_subgroup_index_finite():
    g = FiniteTableGroup(FiniteGroupSpec(table=cyclic_table(12)))
    # <4> = {0, 4, 8} has order 3 and index 4; <3> has order 4 and index 3
    assert subgroup_index(g, [g.element((4,))]) == 4
    assert subgroup_index(g, [g.element((3,))]) == 3
    assert subgroup_index(g, [g.element((4,)), g.element((6,))]) == 2
    assert subgroup_index(g, [g.element((4,)), g.element((3,))]) == 1
    assert subgroup_index(g, []) == 12
    t = FiniteTableGroup(FiniteGroupSpec(table=direct_product_table((2, 2))))
    assert subgroup_index(t, [t.element((1,)), t.element((2,))]) == 1
    assert subgroup_index(t, [t.element((3,))]) == 2


def test_subgroup_index_rejects_foreign_elements():
    g = FgAbelianGroup(FgAbelianSpec(free_rank=1))
    other = FgAbelianGroup(FgAbelianSpec(free_rank=1))
    with pytest.raises(GroupMismatch):
        subgroup_index(g, [other.element((1,))])


EXTENSION_NAMES = [n for n, make in REGISTRY.items() if isinstance(make()[0], ExtensionGroup)]
EXTENSION_SPECS = [
    p for p in resources.files("horobound").joinpath("specs").iterdir()
    if p.name.endswith(".spec")
    and isinstance(parse_spec(str(p))[0], ExtensionGroup)
]


@pytest.mark.parametrize("name", EXTENSION_NAMES)
def test_subgroup_index_of_registry_generators(name):
    group, gens = example(name)
    assert subgroup_index(group, gens.elements) == 1


@pytest.mark.parametrize("path", EXTENSION_SPECS, ids=lambda p: p.name)
def test_subgroup_index_of_bundled_generators(path):
    group, gens, _ = parse_spec(str(path))
    assert subgroup_index(group, gens.elements) == 1


# hand-written arithmetic on each REGISTRY group's data in oracle form
COSET_ORACLE_OPS = {
    "z_line": (zd_mul, zd_inv, (0,)),
    "z2": (zd_mul, zd_inv, (0, 0)),
    "cylinder_n4": cyl_ops(4),
    "fat_cylinder_n3": cyl_ops(3),
    "z2_rot4": (rot4_mul, rot4_inv, ((0, 0), 0)),
}


def test_coset_oracle_covers_registry_extensions():
    assert sorted(COSET_ORACLE_OPS) == sorted(EXTENSION_NAMES)


@pytest.mark.parametrize("name", sorted(COSET_ORACLE_OPS))
def test_subgroup_index_matches_coset_oracle(name):
    mul, inv, identity = COSET_ORACLE_OPS[name]
    group, gens = example(name)
    form = oracle_form(group)
    s = gens.elements
    subgroups = {
        "S": s,
        "squares": [x ** 2 for x in s],
        "cubes": [x ** 3 for x in s],
        "cyclic": s[:1],
        "first squared": [s[0] ** 2, *s[1:]],
    }
    finite = 0
    for what, sub in subgroups.items():
        index = subgroup_index(group, sub)
        data = [form(x.data) for x in sub]
        gen_data = [form(x.data) for x in s]
        counts = [oracle_coset_count(mul, inv, identity, gen_data, data, r) for r in (8, 10)]
        if index is None:
            assert counts[0] < counts[1], (what, counts)
        else:
            finite += 1
            assert counts == [index, index], (what, index, counts)
    assert finite >= 3


def test_lamplighter_generation_is_not_checked():
    # <t> misses every lamp, yet no DoesNotGenerate is raised
    g = LamplighterGroup()
    gens = symmetric_generating_set(g, [g.element(((), 1))], ["t"])
    assert [str(x) for x in gens] == ["({};1)", "({};-1)"]
    assert gens.labels == ("t", "t^-1")


def test_describe_is_json_friendly():
    group, gens = example("z2")
    assert [str(s) for s in gens] == ["(1,0)", "(0,1)", "(-1,0)", "(0,-1)"]
    assert gens.labels == ("a", "b", "a^-1", "b^-1")
    assert json.loads(json.dumps(group.describe()))["family"] == "fg_abelian"


def test_trivial_action_applies_no_matrix(monkeypatch, ext4_pair):
    # A_q = I at every q of the cylinder presented as an extension, so no
    # product or inverse calls mat_vec; z2_rot4 turns by A_q at q != 0
    cyl, cyl_gens = ext4_pair
    rot, rot_gens = z2_rot4()
    calls = [0]
    real = groups.mat_vec

    def spy(a, v):
        calls[0] += 1
        return real(a, v)

    monkeypatch.setattr(groups, "mat_vec", spy)
    ball = grow_ball(cyl, cyl_gens, 6)
    inverses = [cyl.inv_data(x) for x in ball.data]
    assert calls[0] == 0
    assert len(ball) == len(grow_ball(*cylinder(4), 6))
    assert set(inverses) == set(ball.data)
    grow_ball(rot, rot_gens, 4)
    assert calls[0] > 0
