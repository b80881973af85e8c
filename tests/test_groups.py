"""Group families: canonical forms, arithmetic against oracles, generating sets."""

import random
from importlib import resources

import pytest

from horobound.cayley import grow_ball
from horobound.cli import parse_spec
from horobound.errors import (
    BadCocycle,
    DoesNotGenerate,
    GroupMismatch,
    IdentityGenerator,
    NonUnimodularAction,
    TableNotGroup,
)
from horobound.examples import REGISTRY, example
from horobound.groups import (
    ExtensionGroup,
    FgAbelianGroup,
    FgAbelianSpec,
    FiniteGroupSpec,
    FiniteTableGroup,
    LamplighterGroup,
    LamplighterZ2Spec,
    VAbExtensionGroup,
    VAbExtensionSpec,
    build_group,
    cyclic_table,
    direct_product_table,
    subgroup_index,
    symmetric_generating_set,
)

from oracles import (
    cyl_ops,
    lamp_inv,
    lamp_mul,
    oracle_coset_count,
    rot4_inv,
    rot4_mul,
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
    assert x.data == ((-2, 0, 3), 5)
    assert str(x) == "({-2,0,3};5)"
    assert g.parse("({-2,0,3};5)") == x


# ---------------------------------------------------------------------------
# arithmetic against independent implementations

ORACLES = {
    "z_line": (lambda a, b: zd_mul(a, b), zd_inv),
    "z2": (lambda a, b: zd_mul(a, b), zd_inv),
    "cylinder_n4": cyl_ops(4)[:2],
    "fat_cylinder_n3": cyl_ops(3)[:2],
    "z2_rot4": (rot4_mul, rot4_inv),
    "lamplighter_z2": (lamp_mul, lamp_inv),
}


def _rot4_pack(data):
    # library layout ((x, y), q) matches the oracle layout already
    return data


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_group_laws_random(name):
    group, gens = example(name)
    mul_o, inv_o = ORACLES[name]
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
        assert ab == mul_o(a, b)
        assert group.mul_data(ab, c) == group.mul_data(a, group.mul_data(b, c))
        assert group.mul_data(a, identity) == a
        assert group.mul_data(identity, a) == a
        ia = group.inv_data(a)
        assert ia == inv_o(a)
        assert group.mul_data(a, ia) == identity


def test_lamplighter_mul_on_the_word_ball_vs_oracle():
    group, gens = example("lamplighter_z2")
    ball = grow_ball(group, gens, 3).data_up_to(3)
    cases = set()
    for a in ball:
        for b in ball:
            ab = group.mul_data(a, b)
            assert ab == lamp_mul(a, b)
            support = ab[0]
            assert type(support) is tuple
            assert all(p < q for p, q in zip(support, support[1:]))
            cases.add((bool(a[0]), bool(b[0]), (a[1] > 0) - (a[1] < 0)))
    # every fast path and the general path ran: either support empty, shift 0/+/-
    flags = (False, True)
    assert cases == {(x, y, s) for x in flags for y in flags for s in (-1, 0, 1)}


def test_element_power():
    g = FgAbelianGroup(FgAbelianSpec(free_rank=1))
    assert (g.element((3,)) ** -2).data == (-6,)
    assert (g.element((3,)) ** 0).is_identity()
    lamp = LamplighterGroup()
    assert (lamp.element(((0,), 1)) ** 3).data == ((0, 1, 2), 3)


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
    assert gens.inverse_index == (1, 0)
    assert gens.verified


def test_generating_set_listed_inverses_keep_position():
    g = FgAbelianGroup(FgAbelianSpec(free_rank=1))
    gens = symmetric_generating_set(g, [g.element((1,)), g.element((-1,))], ["a", "A"])
    assert gens.labels == ("a", "A")


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
    assert symmetric_generating_set(g, [g.element((1,))]).verified
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


# hand-written arithmetic on the same element data as each REGISTRY group
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
        data = [x.data for x in sub]
        gen_data = [x.data for x in s]
        counts = [oracle_coset_count(mul, inv, identity, gen_data, data, r) for r in (8, 10)]
        if index is None:
            assert counts[0] < counts[1], (what, counts)
        else:
            finite += 1
            assert counts == [index, index], (what, index, counts)
    assert finite >= 3


def test_lamplighter_verification_is_witness_based():
    g = LamplighterGroup()
    listed = [g.element(((), 1)), g.element(((0,), 0))]
    assert not symmetric_generating_set(g, listed).verified
    ok = symmetric_generating_set(g, listed, witnesses=[g.element(((1,), 0))])
    assert ok.verified
    far = symmetric_generating_set(g, listed, witnesses=[g.element(((99,), 0))])
    assert not far.verified


def test_describe_is_json_friendly():
    group, gens = example("z2")
    d = gens.describe()
    assert d["elements"] == ["(1,0)", "(0,1)", "(-1,0)", "(0,-1)"]
    assert d["labels"] == ["a", "b", "a^-1", "b^-1"]
    assert group.describe()["family"] == "fg_abelian"
