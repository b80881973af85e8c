"""Quotient graphs, cycle labels, conjugation clouds, and the witness pipeline."""

from fractions import Fraction

import pytest

from horobound import vabelian
from horobound.cayley import grow_ball
from horobound.errors import (
    GroupMismatch,
    NotConnected,
    NotExtreme,
    OutOfRange,
    SizeBudget,
    VerificationFailed,
)
from horobound.examples import REGISTRY, cylinder, example
from horobound.groups import (
    ExtensionGroup,
    FgAbelianGroup,
    FgAbelianSpec,
    FiniteGroupSpec,
    FiniteTableGroup,
    GeneratingSet,
    cyclic_table,
    direct_product_table,
    symmetric_generating_set,
)
from horobound.polytope import SupportingFunctional
from horobound.vabelian import (
    Cloud,
    cloud_hull,
    conjugate_cloud,
    infinite_boundary_witness,
    lipschitz_hom,
    quotient_graph,
    select_extreme,
    simple_cycle_labels,
    step1_membership,
)

from oracles import l1


# ---------------------------------------------------------------------------
# the kernel/quotient normal form and quotient graphs


def test_plane_normal_form(z2_pair):
    group, _ = z2_pair
    assert group.rank == 2 and group.quotient_order == 1
    assert group.in_kernel((3, -2, 0))
    assert group.xi((3, -2, 0)) == (3, -2)
    assert group.kernel_element((3, -2)).data == (3, -2, 0)


def test_extension_normal_form(ext4_pair):
    group, _ = ext4_pair
    assert group.rank == 1 and group.quotient_order == 4
    assert group.in_kernel((5, 0)) and not group.in_kernel((5, 1))
    assert group.xi((5, 0)) == (5,)
    with pytest.raises(ValueError, match="kernel"):
        group.xi((5, 2))
    assert group.act_vec(2, (3,)) == (3,)


def test_rotation_acts_on_the_kernel(rot4_pair):
    group = rot4_pair[0]
    assert group.act_vec(1, (1, 0)) == (0, 1)
    assert group.act_vec(2, (1, 0)) == (-1, 0)
    assert group.act_vec(1, (0, 1)) == (-1, 0)
    assert group.act_vec(3, [Fraction(1, 2), 0]) == (0, Fraction(-1, 2))


@pytest.mark.parametrize("q", [-1, 4, 7])
def test_act_vec_rejects_a_quotient_index_out_of_range(rot4_pair, q):
    # a negative index must not wrap round to the last action matrix
    with pytest.raises(ValueError, match=rf"quotient index {q} out of range 0\.\.3"):
        rot4_pair[0].act_vec(q, (1, 0))


@pytest.mark.parametrize("vec", [(), (5,), (1, 0, 0)])
def test_act_vec_rejects_a_vector_of_the_wrong_length(rot4_pair, vec):
    # neither a zero-padded product nor a bare IndexError
    with pytest.raises(ValueError, match="expected a rank-2 vector"):
        rot4_pair[0].act_vec(1, vec)


def _unit_generators(spec):
    group = FgAbelianGroup(spec)
    n = spec.free_rank + len(spec.torsion)
    units = [group.element(tuple(int(i == j) for j in range(n))) for i in range(n)]
    return group, symmetric_generating_set(group, units)


NORMAL_FORM_CASES = [
    *(name for name, make in REGISTRY.items() if isinstance(make()[0], ExtensionGroup)),
    FgAbelianSpec(1, (2, 3)),
    FgAbelianSpec(1, (2, 2)),
    FgAbelianSpec(1, (3, 2, 2)),
    FiniteGroupSpec(direct_product_table((2, 3))),
]


def _case_pair(case):
    if isinstance(case, str):
        return example(case)
    if isinstance(case, FiniteGroupSpec):
        group = FiniteTableGroup(case)
        return group, symmetric_generating_set(group, [group.element((1,)), group.element((2,))])
    return _unit_generators(case)


@pytest.mark.parametrize("case", NORMAL_FORM_CASES, ids=str)
def test_normal_form_contract(case):
    group, gens = _case_pair(case)
    ball = grow_ball(group, gens, 3)
    elems = ball.data_up_to(3)
    cosets = set()
    off_kernel = 0
    for x in elems:
        cx = group.coset_of(x)
        cosets.add(cx)
        for y in elems:
            assert group.coset_of(group.mul_data(x, y)) == group.table[cx][group.coset_of(y)]
        if group.in_kernel(x):
            assert group.kernel_element(group.xi(x)).data == x
        else:
            off_kernel += 1
            with pytest.raises(ValueError, match="kernel"):
                group.xi(x)
    assert cosets == set(range(group.quotient_order))
    assert (off_kernel > 0) == (group.quotient_order > 1)


def test_normal_form_guards(lamp_pair):
    with pytest.raises(GroupMismatch, match="no declared free abelian kernel"):
        quotient_graph(*lamp_pair)
    z5, z5_gens = _unit_generators(FgAbelianSpec(0, (5,)))
    with pytest.raises(GroupMismatch, match="rank is 0"):
        quotient_graph(z5, z5_gens)
    # a finite table is the rank-0 normal form, so it meets the same guard
    t5 = FiniteTableGroup(FiniteGroupSpec(cyclic_table(5)))
    with pytest.raises(GroupMismatch, match="rank is 0"):
        quotient_graph(t5, symmetric_generating_set(t5, [t5.element((1,))]))
    group, gens = cylinder(4)
    a = gens.elements[0]
    assert a.data == (1, 0)
    partial = GeneratingSet((a, a.inverse()), ("a", "a^-1"))
    with pytest.raises(NotConnected, match=r"cosets \[1, 2, 3\]"):
        quotient_graph(group, partial)


def test_quotient_graph_trivial(z2_pair):
    qg = quotient_graph(*z2_pair)
    assert qg.order == 1
    assert qg.edges == ((0, 0, 0, 0),)


def test_quotient_graph_cyclic(ext4_pair):
    qg = quotient_graph(*ext4_pair)
    assert qg.order == 4
    assert qg.edges == (
        (0, 1, 3, 0, 3, 1),
        (1, 2, 0, 1, 0, 2),
        (2, 3, 1, 2, 1, 3),
        (3, 0, 2, 3, 2, 0),
    )


def test_quotient_graph_rotation(rot4_pair):
    qg = quotient_graph(*rot4_pair)
    assert qg.order == 4
    assert qg.edges == (
        (0, 0, 1, 0, 0, 3),
        (1, 1, 2, 1, 1, 0),
        (2, 2, 3, 2, 2, 1),
        (3, 3, 0, 3, 3, 2),
    )


# ---------------------------------------------------------------------------
# cycle labels and clouds


def test_cycle_labels_plane(z2_pair):
    cycles = simple_cycle_labels(quotient_graph(*z2_pair))
    assert {str(x) for x in cycles.labels} == {"(1,0)", "(-1,0)", "(0,1)", "(0,-1)"}
    assert all(cycles.norms[x.data] == 1 for x in cycles.labels)
    label_set = {x.data for x in cycles.labels}
    assert all(x.inverse().data in label_set for x in cycles.labels)


def test_cycle_labels_extension(ext4_pair):
    cycles = simple_cycle_labels(quotient_graph(*ext4_pair))
    got = {(str(x), cycles.norms[x.data]) for x in cycles.labels}
    assert got == {
        ("(-4;0)", 4), ("(-2;0)", 2), ("(-1;0)", 1),
        ("(1;0)", 1), ("(2;0)", 2), ("(4;0)", 4),
    }


def test_cycle_labels_rotation(rot4_pair):
    cycles = simple_cycle_labels(quotient_graph(*rot4_pair))
    got = {str(x) for x in cycles.labels}
    assert got == {"(1,0;0)", "(-1,0;0)", "(0,1;0)", "(0,-1;0)"}
    assert all(cycles.norms[x.data] == 1 for x in cycles.labels)


def test_cloud_plane(z2_pair):
    cycles = simple_cycle_labels(quotient_graph(*z2_pair))
    cloud = conjugate_cloud(cycles)
    assert cloud.points == (
        (-1, 0), (0, -1), (0, 1), (1, 0)
    )
    q, x = cloud.provenance[(Fraction(1), Fraction(0))][0]
    assert q == 0 and str(x) == "(1,0)"


def test_cloud_extension_normalizes(ext4_pair):
    cycles = simple_cycle_labels(quotient_graph(*ext4_pair))
    cloud = conjugate_cloud(cycles)
    # (4;0)/4, (2;0)/2 and (1;0)/1 all normalize to the same point
    assert cloud.points == ((-1,), (1,))
    assert len(cloud.provenance[(Fraction(1),)]) == 3 * cloud.group.quotient_order


def test_cloud_hull_guards_origin(ext4_pair):
    shifted = Cloud(ext4_pair[0], ((Fraction(1),), (Fraction(2),)), {})
    with pytest.raises(VerificationFailed):
        cloud_hull(shifted)


def test_hulls_of_examples(z2_pair, ext4_pair, rot4_pair):
    for pair, expect_ineqs in [
        (z2_pair, (((-1, -1), 1), ((-1, 1), 1), ((1, -1), 1), ((1, 1), 1))),
        (rot4_pair, (((-1, -1), 1), ((-1, 1), 1), ((1, -1), 1), ((1, 1), 1))),
    ]:
        cloud = conjugate_cloud(simple_cycle_labels(quotient_graph(*pair)))
        poly = cloud_hull(cloud)
        assert len(poly.vertices) == 4
        assert poly.inequalities == expect_ineqs
    epoly = cloud_hull(
        conjugate_cloud(simple_cycle_labels(quotient_graph(*ext4_pair)))
    )
    assert epoly.vertices == ((-1,), (1,))
    assert epoly.inequalities == (((-1,), 1), ((1,), 1))


# ---------------------------------------------------------------------------
# membership and homomorphisms


def _plane_pipeline(z2_pair, ball):
    cloud = conjugate_cloud(simple_cycle_labels(quotient_graph(*z2_pair)))
    return cloud, cloud_hull(cloud)


def test_step1_on_plane(z2_pair, z2_ball12):
    _, poly = _plane_pipeline(z2_pair, z2_ball12)
    report = step1_membership(poly, z2_ball12, 8)
    assert report.ok
    assert report.checked == 144
    assert report.violations == ()


def test_step1_rejects_a_negative_radius(z2_pair, z2_ball12):
    _, poly = _plane_pipeline(z2_pair, z2_ball12)
    assert step1_membership(poly, z2_ball12, 0).checked == 0
    for r in (-1, -2):
        with pytest.raises(OutOfRange, match="negative"):
            step1_membership(poly, z2_ball12, r)


def test_select_extreme(z2_pair, z2_ball12):
    _, poly = _plane_pipeline(z2_pair, z2_ball12)
    assert select_extreme(poly, "lex") == poly.vertices[0]
    assert select_extreme(poly, "index:3") == (1, 0)
    with pytest.raises(NotExtreme):
        select_extreme(poly, "index:7")
    for selector in ("best", "index:x", "index"):
        with pytest.raises(ValueError, match=f"unknown extreme-point selector '{selector}'"):
            select_extreme(poly, selector)


def test_lipschitz_hom_plane(z2_pair, z2_ball12):
    group, _ = z2_pair
    cloud, poly = _plane_pipeline(z2_pair, z2_ball12)
    data = lipschitz_hom(poly, select_extreme(poly, "index:3"), cloud, z2_ball12)
    assert str(data.w) == "(1,0)" and str(data.x) == "(1,0)"
    assert data.p == 1
    assert data.phi == (1, 0)
    assert data.margin == 1
    assert data.checked == 313
    locus = {y.data for y in data.equality_locus}
    assert locus == {(k, 0, 0) for k in range(13)}
    assert all(data.in_cyclic(y) for y in data.equality_locus)
    assert data.f(group.element((3, 0))) == 3 == z2_ball12.norm(group.element((3, 0)))
    assert data.f(group.element((0, 5))) == 0


def test_lipschitz_hom_extension(ext4_pair, ext4_ball10):
    group, _ = ext4_pair
    cloud = conjugate_cloud(simple_cycle_labels(quotient_graph(*ext4_pair)))
    poly = cloud_hull(cloud)
    data = lipschitz_hom(poly, select_extreme(poly, "lex"), cloud, ext4_ball10)
    assert str(data.w) == "(-4;0)" and data.p == 4
    assert str(data.x) == "(-1;0)"
    assert data.phi == (-1,)
    assert data.margin == 2
    assert data.conjugator == 0
    assert data.f(group.element(((-4,), 0))) == 4


def _lipschitz_hom_with_phi(monkeypatch, z2_pair, ball, phi):
    """lipschitz_hom on Z^2 at the extreme point (1, 0), with phi put in its place."""
    phi = tuple(Fraction(c) for c in phi)
    monkeypatch.setattr(
        vabelian,
        "supporting_functional",
        lambda poly, e: SupportingFunctional(tuple(e), phi, Fraction(1)),
    )
    cloud, poly = _plane_pipeline(z2_pair, ball)
    return lipschitz_hom(poly, select_extreme(poly, "index:3"), cloud, ball)


@pytest.mark.parametrize(
    "phi, text",
    [
        ((1, 2), "|f((0,1))| = 2 exceeds the norm 1"),
        ((1, Fraction(-3, 2)), "|f((0,1))| = 3/2 exceeds the norm 1"),
    ],
)
def test_lipschitz_hom_rejects_a_functional_above_the_norm(monkeypatch, z2_pair, z2_ball12, phi, text):
    # f(w) = |w| = 1 at w = (1, 0), so only the kernel loop can catch it
    with pytest.raises(VerificationFailed) as info:
        _lipschitz_hom_with_phi(monkeypatch, z2_pair, z2_ball12, phi)
    assert str(info.value) == text


def test_lipschitz_hom_rejects_an_equality_locus_off_the_cycle(monkeypatch, z2_pair, z2_ball12):
    # phi = (1, 1) is 1-Lipschitz, but f = |.| also on (0, 1), which is not a power of x = (1, 0)
    with pytest.raises(VerificationFailed) as info:
        _lipschitz_hom_with_phi(monkeypatch, z2_pair, z2_ball12, (1, 1))
    assert str(info.value) == "equality locus escapes <x>: f((0,1)) = |(0,1)| = 1"


def test_lipschitz_hom_checks_a_fractional_functional_exactly(monkeypatch, z2_pair, z2_ball12):
    # phi = (1, 1/2): |f(y)| <= |y| with equality exactly on the non-negative powers of x
    data = _lipschitz_hom_with_phi(monkeypatch, z2_pair, z2_ball12, (1, Fraction(1, 2)))
    assert data.checked == 313
    assert {y.data for y in data.equality_locus} == {(k, 0, 0) for k in range(13)}


# ---------------------------------------------------------------------------
# the full witness pipeline


@pytest.mark.parametrize("k", [0, -1])
def test_witness_needs_k_at_least_one(z2_pair, k):
    # k < 1 could never be reached, so the report would read ok with no goal
    group, gens = z2_pair
    with pytest.raises(OutOfRange, match=f"got k={k}"):
        infinite_boundary_witness(group, gens, 14, 2, k=k)


def test_witness_pipeline_plane(z2_pair, z2_ball16):
    group, gens = z2_pair
    report = infinite_boundary_witness(group, gens, 14, 2, k=5)
    assert report.ok and report.k_achieved == 5
    assert report.cloud_size == 4
    assert report.hull_vertices == 4
    assert report.cycle_count == 4
    reps = [(str(y), n, str(u)) for y, n, u, _ in report.witnesses]
    assert reps == [
        ("(0,0)", 14, "(-14,0)"),
        ("(0,1)", 13, "(-13,1)"),
        ("(0,-1)", 13, "(-13,-1)"),
        ("(0,2)", 12, "(-12,2)"),
        ("(0,-2)", 12, "(-12,-2)"),
    ]
    domain = z2_ball16.data_up_to(2)
    vectors = set()
    for _, _, u, vec in report.witnesses:
        expect = tuple(
            l1((x[0] - u.data[0], x[1] - u.data[1])) - l1(u.data) for x in domain
        )
        assert vec == expect
        vectors.add(vec)
    assert len(vectors) == 5
    payload = report.to_json_dict()
    assert payload["ok"] and len(payload["witnesses"]) == 5


def test_witness_needs_rank_two(z_pair):
    with pytest.raises(ValueError, match="rank"):
        infinite_boundary_witness(*z_pair, 10, 2)


def test_witness_level_guard(z2_pair):
    with pytest.raises(ValueError):
        infinite_boundary_witness(*z2_pair, 5, 5)


def test_cycle_dfs_stops_at_its_budget(monkeypatch, z2_pair):
    # on Z^2 the quotient is one coset, so each of the 4 steps closes a cycle
    qg = quotient_graph(*z2_pair)
    monkeypatch.setattr(vabelian, "CYCLE_DFS_BUDGET", 4)
    assert len(simple_cycle_labels(qg).pairs) == 4
    monkeypatch.setattr(vabelian, "CYCLE_DFS_BUDGET", 2)
    with pytest.raises(SizeBudget, match=r"budget of 2 steps \(2 cycles found so far\)"):
        simple_cycle_labels(qg)
