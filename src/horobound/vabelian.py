"""Boundary-counting pipeline for groups with a finite-index free abelian kernel.

The chain runs: quotient graph on cosets, simple-cycle labels C, the
conjugation cloud F = {pi_q(xi(x))/|x|_S}, its exact rational hull P, a
supporting functional at a chosen extreme point, the induced functional
f = phi o xi on the kernel, and finally coset representatives whose Busemann
restrictions are pairwise distinct. Everything is exact; every claim the
construction rests on is re-verified on the finite ball and failures raise
rather than degrade.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .boundary import busemann_functional
from .cayley import Ball, grow_ball, DEFAULT_BUDGET
from .errors import (
    GroupMismatch,
    NotConnected,
    NotExtreme,
    OutOfBall,
    OutOfRange,
    SizeBudget,
    VerificationFailed,
)
from .groups import Element, ExtensionGroup, GeneratingSet, Group, coset_sweep
from .polytope import (
    Point,
    RationalPolytope,
    convex_hull,
    supporting_functional,
)

__all__ = [
    "QuotientGraph",
    "SimpleCycleSet",
    "Cloud",
    "LipschitzHomData",
    "WitnessReport",
    "quotient_graph",
    "simple_cycle_labels",
    "conjugate_cloud",
    "cloud_hull",
    "select_extreme",
    "step1_membership",
    "lipschitz_hom",
    "infinite_boundary_witness",
]


# ---------------------------------------------------------------------------
# the kernel/quotient normal form, read from the group


def _extension(group: Group) -> ExtensionGroup:
    """The group itself, once it is known to have a free abelian kernel of rank >= 1."""
    if not isinstance(group, ExtensionGroup):
        raise GroupMismatch(f"family {group.family!r} has no declared free abelian kernel")
    if group.rank < 1:
        raise GroupMismatch("kernel rank is 0; the pipeline needs a free part")
    return group


# ---------------------------------------------------------------------------
# quotient graph and simple cycles

# The simple-cycle DFS tries one (coset, generator) step per group product,
# and the number of simple paths can grow exponentially in |Q|. Past this
# many steps it stops; the bundled specs need at most 750 (cylinder_n6).
CYCLE_DFS_BUDGET = 1_000_000


@dataclass(frozen=True)
class QuotientGraph:
    """Finite graph on kernel cosets with one labeled edge per generator."""

    group: ExtensionGroup
    gens: GeneratingSet
    edges: tuple[tuple[int, ...], ...]  # edges[q][s] = q . coset(s)
    base: int = 0

    @property
    def order(self) -> int:
        return len(self.edges)

    def to_json_dict(self) -> dict:
        return {
            "vertices": self.order,
            "base": self.base,
            "generators": list(self.gens.labels),
            "edges": [list(row) for row in self.edges],
        }


def quotient_graph(group: Group, gens: GeneratingSet) -> QuotientGraph:
    """Coset graph of the free abelian kernel, with connectivity verified."""
    if gens.group is not group:
        raise GroupMismatch("generating set belongs to a different group")
    nq = _extension(group).quotient_order
    reached = coset_sweep(group, gens.elements)
    if len(reached) != nq:
        missing = sorted(set(range(nq)) - reached.keys())
        raise NotConnected(
            f"generators do not reach cosets {missing}; S fails to generate modulo the kernel"
        )
    gen_cosets = [group.coset_of(s.data) for s in gens.elements]
    edges = tuple(tuple(group.table[q][c] for c in gen_cosets) for q in range(nq))
    return QuotientGraph(group, gens, edges)


@dataclass(frozen=True)
class SimpleCycleSet:
    """Kernel elements read around simple cycles at the base coset.

    pairs: every (label, generator-index word) found by the DFS, identity
    labels dropped. labels: the distinct elements, sorted by data. norms:
    exact word norms from a dedicated ball (word length is only an upper
    bound and is never trusted).
    """

    graph: QuotientGraph
    pairs: tuple[tuple[Element, tuple[int, ...]], ...]
    labels: tuple[Element, ...]
    norms: dict

    def to_json_dict(self) -> dict:
        names = self.graph.gens.labels
        return {
            "labels": [str(x) for x in self.labels],
            "norms": {str(x): self.norms[x.data] for x in self.labels},
            "words": [
                {"label": str(x), "word": [names[i] for i in word]}
                for x, word in self.pairs
            ],
        }


def simple_cycle_labels(qg: QuotientGraph) -> SimpleCycleSet:
    """DFS all simple cycles at the base vertex and read off their labels.

    A path may revisit no intermediate coset and closes only at the base, so
    word lengths never exceed the quotient order. The label set is verified
    to be inverse-closed, which reversing each cycle guarantees. Past
    ``CYCLE_DFS_BUDGET`` steps the DFS raises ``SizeBudget`` with the number
    of cycles found so far.
    """
    group = qg.group
    gens = qg.gens
    base = qg.base
    identity = group.identity_data()
    pairs: list[tuple[Element, tuple[int, ...]]] = []
    budget = CYCLE_DFS_BUDGET
    steps = 0

    def dfs(vertex: int, visited: set[int], word: list[int], acc: tuple) -> None:
        nonlocal steps
        for s, elt in enumerate(gens.elements):
            steps += 1
            if steps > budget:
                raise SizeBudget(
                    f"simple-cycle DFS exceeded its budget of {budget} steps "
                    f"({len(pairs)} cycles found so far)"
                )
            target = qg.edges[vertex][s]
            nxt = group.mul_data(acc, elt.data)
            if target == base:
                if nxt != identity:
                    if not group.in_kernel(nxt):
                        raise VerificationFailed(
                            f"cycle word closed outside the kernel at {group.format_data(nxt)}"
                        )
                    pairs.append((Element(group, nxt), tuple(word + [s])))
            elif target not in visited:
                visited.add(target)
                word.append(s)
                dfs(target, visited, word, nxt)
                word.pop()
                visited.discard(target)

    dfs(base, {base}, [], identity)
    label_set = {x.data for x, _ in pairs}
    label_data = sorted(label_set)
    for d in label_data:
        if group.inv_data(d) not in label_set:
            raise VerificationFailed(
                f"cycle labels are not inverse-closed at {group.format_data(d)}"
            )
    labels = tuple(Element(group, d) for d in label_data)
    if not labels:
        raise VerificationFailed("no nontrivial simple cycles; the kernel sees no labels")
    max_len = max(len(w) for _, w in pairs)
    ball = grow_ball(group, gens, max_len)
    norms = {x.data: ball.norm(x) for x in labels}
    pairs.sort(key=lambda pw: (pw[0].data, pw[1]))
    return SimpleCycleSet(qg, tuple(pairs), labels, norms)


# ---------------------------------------------------------------------------
# cloud and hull


@dataclass(frozen=True)
class Cloud:
    """F = {pi_q(xi(x))/|x|_S}: exact rational points with provenance."""

    group: ExtensionGroup
    points: tuple[Point, ...]
    provenance: dict  # point -> tuple of (q, Element)

    def to_json_dict(self) -> dict:
        return {
            "points": [[str(c) for c in p] for p in self.points],
            "provenance": {
                ",".join(str(c) for c in p): [[q, str(x)] for q, x in prov]
                for p, prov in sorted(self.provenance.items())
            },
        }


def conjugate_cloud(cycles: SimpleCycleSet) -> Cloud:
    """Apply every quotient action to every normalized cycle label.

    Conjugating a kernel element by anything in the coset of q moves its
    coordinates by pi_q, so the conjugation orbit of xi(x)/|x|_S is exactly
    the pi-orbit. Central symmetry and pi-invariance of the result are
    verified before returning.
    """
    group = cycles.graph.group
    prov: dict[Point, list[tuple[int, Element]]] = {}
    for x in cycles.labels:
        nx = cycles.norms[x.data]
        xi = group.xi(x.data)
        for q in range(group.quotient_order):
            pt = tuple(Fraction(c, nx) for c in group.act_vec(q, xi))
            prov.setdefault(pt, []).append((q, x))
    points = tuple(sorted(prov))
    pts = set(points)
    for p in points:
        if tuple(-c for c in p) not in pts:
            raise VerificationFailed(f"cloud is not centrally symmetric at {p}")
    for q in range(group.quotient_order):
        if {tuple(Fraction(c) for c in group.act_vec(q, p)) for p in points} != pts:
            raise VerificationFailed(f"cloud is not invariant under the action of q={q}")
    provenance = {p: tuple(sorted(prov[p], key=lambda qx: (qx[0], qx[1].data))) for p in points}
    return Cloud(group, points, provenance)


def cloud_hull(cloud: Cloud) -> RationalPolytope:
    """Exact hull of the cloud; symmetric clouds must contain the origin."""
    poly = convex_hull(cloud.points)
    origin = (Fraction(0),) * cloud.group.rank
    if not poly.contains(origin):
        raise VerificationFailed("hull of a symmetric cloud must contain the origin")
    verts = set(poly.vertices)
    for q in range(cloud.group.quotient_order):
        if {tuple(Fraction(c) for c in cloud.group.act_vec(q, v)) for v in verts} != verts:
            raise VerificationFailed(f"hull vertices are not permuted by the action of q={q}")
    return poly


@dataclass(frozen=True)
class Step1Report:
    r: int
    checked: int
    violations: tuple[Element, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "checked": self.checked,
            "violations": [str(x) for x in self.violations],
            "ok": self.ok,
        }


def step1_membership(poly: RationalPolytope, ball: Ball, r: int) -> Step1Report:
    """Check xi(x)/|x|_S in P for every nontrivial kernel element of B_r."""
    if r < 0:
        raise OutOfRange(f"radius {r} is negative")
    if r > ball.radius:
        raise OutOfBall(f"radius {r} exceeds the computed radius {ball.radius}")
    group = _extension(ball.group)
    checked = 0
    violations = []
    for data, n in zip(ball.data_up_to(r), ball.dist):
        if not group.in_kernel(data):
            continue
        if n == 0:
            continue
        checked += 1
        pt = tuple(Fraction(c, n) for c in group.xi(data))
        if not poly.contains(pt):
            violations.append(Element(group, data))
    return Step1Report(r, checked, tuple(violations))


# ---------------------------------------------------------------------------
# the Lipschitz functional on the kernel


def _pullback(
    group: ExtensionGroup, phi: tuple[Fraction, ...], data: tuple
) -> Fraction:
    """f(y) = phi . xi(y) for kernel data y."""
    return sum((a * b for a, b in zip(phi, group.xi(data))), Fraction(0))


def _in_cyclic(group: ExtensionGroup, x_data: tuple, data: tuple) -> bool:
    """Whether the element with this data is a power of the kernel element x."""
    if not group.in_kernel(data):
        return False
    ratio = None
    for a, b in zip(group.xi(data), group.xi(x_data)):
        if b == 0:
            if a != 0:
                return False
        else:
            r = Fraction(a, b)
            if ratio is not None and r != ratio:
                return False
            ratio = r
    return ratio is None or ratio.denominator == 1


@dataclass(frozen=True)
class LipschitzHomData:
    """A supporting functional pulled back to the kernel, fully verified.

    f(y) = phi . xi(y) satisfies |f| <= |.|_S on the kernel, attains equality
    at w = x^p, and its equality locus in the checked ball lies inside the
    cyclic subgroup generated by the primitive x.
    """

    e_prime: Point
    conjugator: int
    w: Element
    e: Point
    phi: tuple[Fraction, ...]
    margin: Fraction
    x: Element
    p: int
    equality_locus: tuple[Element, ...]
    checked: int

    def f(self, y: Element) -> Fraction:
        return _pullback(_extension(y.group), self.phi, y.data)

    def in_cyclic(self, y: Element) -> bool:
        """Whether y is a power of x."""
        return _in_cyclic(_extension(y.group), self.x.data, y.data)

    def to_json_dict(self) -> dict:
        return {
            "e_prime": [str(c) for c in self.e_prime],
            "conjugator": self.conjugator,
            "w": str(self.w),
            "e": [str(c) for c in self.e],
            "phi": [str(c) for c in self.phi],
            "margin": str(self.margin),
            "x": str(self.x),
            "p": self.p,
            "equality_locus": [str(y) for y in self.equality_locus],
            "checked": self.checked,
        }


def lipschitz_hom(
    poly: RationalPolytope, e_prime: Point, cloud: Cloud, ball: Ball
) -> LipschitzHomData:
    """Build and verify the functional attached to an extreme cloud point.

    The provenance (q, w) of e' pulls it back to e = xi(w)/|w|_S, also
    extreme by invariance; phi supports P at e; p is the positive gcd of
    xi(w) and x the primitive kernel element with w = x^p. The three
    defining properties are then checked exhaustively on the kernel part of
    the ball and any failure raises with the offending element.
    """
    group = cloud.group
    ept = tuple(Fraction(c) for c in e_prime)
    if ept not in poly.vertices:
        raise NotExtreme(f"{e_prime} is not an extreme point of the hull")
    if ept not in cloud.provenance:
        raise VerificationFailed(f"{e_prime} has no recorded cloud provenance")
    q, w = cloud.provenance[ept][0]
    xi_w = group.xi(w.data)
    nw = ball.norm(w)
    e = tuple(Fraction(c, nw) for c in xi_w)
    if tuple(Fraction(c) for c in group.act_vec(q, e)) != ept:
        raise VerificationFailed("provenance does not reproduce the extreme point")
    support = supporting_functional(poly, e)
    phi = support.phi

    p = 0
    for c in xi_w:
        p = gcd(p, abs(c))
    if p == 0:
        raise VerificationFailed(f"cycle label {w} has zero free part")
    x = group.kernel_element(tuple(c // p for c in xi_w))
    if (x ** p).data != w.data:
        raise VerificationFailed(f"{w} is not the {p}-th power of {x}")

    f_w = _pullback(group, phi, w.data)
    if f_w != nw:
        raise VerificationFailed(
            f"f({w}) = {f_w} but |{w}| = {nw}; support normalization broke"
        )

    # The check runs in integers: with D the lcm of phi's denominators,
    # -n <= f(y) < n exactly when -n*D <= (D*phi) . xi(y) < n*D, one C-level
    # sum per kernel element instead of a Fraction sum. A Fraction is built
    # only for f(y) = n or a failure, so every message reads as before.
    den = lcm(*(c.denominator for c in phi))
    phi_int = tuple(c.numerator * (den // c.denominator) for c in phi)
    locus = []
    checked = 0
    for data, n in zip(ball.data, ball.dist):
        if not group.in_kernel(data):
            continue
        checked += 1
        bound = n * den
        s = sum(map(mul, phi_int, group.free_part(data)))
        if -bound <= s < bound:
            continue
        val = Fraction(s, den)
        if abs(val) > n:
            raise VerificationFailed(
                f"|f({ball.group.format_data(data)})| = {abs(val)} exceeds the norm {n}"
            )
        if val == n:
            y = Element(ball.group, data)
            if not _in_cyclic(group, x.data, data):
                raise VerificationFailed(
                    f"equality locus escapes <x>: f({y}) = |{y}| = {n}"
                )
            locus.append(y)
    locus.sort(key=lambda y: (ball.norm(y), y.data))
    return LipschitzHomData(
        ept, q, w, e, phi, support.margin, x, p, tuple(locus), checked
    )


# ---------------------------------------------------------------------------
# witnesses


@dataclass(frozen=True)
class WitnessReport:
    """k coset representatives with pairwise distinct Busemann restrictions."""

    r: int
    m: int
    k_requested: int
    k_achieved: int
    selector: str
    data: LipschitzHomData
    witnesses: tuple[tuple[Element, int, Element, tuple[int, ...]], ...]
    cloud_size: int
    hull_vertices: int
    cycle_count: int

    @property
    def ok(self) -> bool:
        return self.k_achieved >= self.k_requested

    def to_json_dict(self) -> dict:
        return {
            "level": {"r": self.r, "m": self.m},
            "k_requested": self.k_requested,
            "k_achieved": self.k_achieved,
            "selector": self.selector,
            "pipeline": {
                "cloud_size": self.cloud_size,
                "hull_vertices": self.hull_vertices,
                "cycle_count": self.cycle_count,
            },
            "functional": self.data.to_json_dict(),
            "witnesses": [
                {
                    "rep": str(y),
                    "power": n,
                    "endpoint": str(u),
                    "restriction": list(vec),
                }
                for y, n, u, vec in self.witnesses
            ],
            "ok": self.ok,
        }


def select_extreme(poly: RationalPolytope, selector: str) -> Point:
    if selector == "lex":
        return poly.vertices[0]
    kind, _, raw = selector.partition(":")
    try:
        i = int(raw) if kind == "index" else None
    except ValueError:
        i = None
    if i is None:
        raise ValueError(f"unknown extreme-point selector {selector!r}")
    if not (0 <= i < len(poly.vertices)):
        raise NotExtreme(f"extreme index {i} out of range 0..{len(poly.vertices) - 1}")
    return poly.vertices[i]


# how many distinct restrictions a witness looks for, and which extreme point
# of the hull it reads the functional from, unless told otherwise
WITNESS_K = 5
DEFAULT_SELECTOR = "lex"


def infinite_boundary_witness(
    group: Group,
    gens: GeneratingSet,
    r: int,
    m: int,
    k: int = WITNESS_K,
    selector: str = DEFAULT_SELECTOR,
    budget: int = DEFAULT_BUDGET,
) -> WitnessReport:
    """Produce k pairwise-distinct Busemann restrictions at level (r, m).

    Runs the whole pipeline, then walks kernel elements in ball order,
    keeping representatives of new <x>-cosets whose pushed-out restriction
    b_{y x^n}|B_m differs from everything kept so far. Reaching k certifies
    that the boundary at this level has at least k classes; the report is
    honest about falling short.
    """
    if _extension(group).rank < 2:
        raise ValueError(
            f"kernel rank {group.rank} < 2: a line has a two-point boundary, nothing to count"
        )
    if not (0 < m < r):
        raise ValueError(f"need 0 < m < r, got m={m}, r={r}")
    if k < 1:
        raise OutOfRange(f"need k >= 1 distinct restrictions, got k={k}")
    ball = grow_ball(group, gens, r + m, budget=budget)
    qg = quotient_graph(group, gens)
    cycles = simple_cycle_labels(qg)
    cloud = conjugate_cloud(cycles)
    poly = cloud_hull(cloud)
    e_prime = select_extreme(poly, selector)
    data = lipschitz_hom(poly, e_prime, cloud, ball)

    nx = ball.norm(data.x)
    kept: list[tuple[Element, int, Element, tuple[int, ...]]] = []
    seen_vectors: set[tuple[int, ...]] = set()
    for cand, n_cand in zip(ball.data_up_to(r - nx), ball.dist):
        if not group.in_kernel(cand):
            continue
        y = Element(group, cand)
        if any(data.in_cyclic(prev.inverse() * y) for prev, _, _, _ in kept):
            continue
        n = (r - n_cand) // nx
        u = y * (data.x ** n)
        fn = busemann_functional(ball, u, m)
        if fn.vector in seen_vectors:
            continue
        seen_vectors.add(fn.vector)
        kept.append((y, n, u, fn.vector))
        if len(kept) == k:
            break
    return WitnessReport(
        r,
        m,
        k,
        len(kept),
        selector,
        data,
        tuple(kept),
        len(cloud.points),
        len(poly.vertices),
        len(cycles.labels),
    )
