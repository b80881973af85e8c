"""Exact rational linear programming and convex hulls in ambient dimension <= 3.

Everything runs over Fraction: feasibility, optimality, extremality, and
hull membership are decided, not approximated. The simplex uses Bland's rule,
so it terminates and is deterministic, and pivots with ``linalg.pivot``, the
one Gauss-Jordan step of the package. Hulls are produced in both vertex and
inequality form and the two descriptions are cross-checked against each other
before being returned. Every hull takes one path: facets are built in the
pivot coordinates of its affine hull and lifted back, so a point (no pivot
coordinates) and a full-dimensional set (all of them) are not special cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import DimensionCap, NotExtreme, SizeBudget
from .linalg import nullspace, pivot, primitive_integer, rref

__all__ = [
    "LPResult",
    "RationalPolytope",
    "SupportingFunctional",
    "solve_lp",
    "convex_hull",
    "supporting_functional",
]

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: tuple[Fraction, ...] | None
    value: Fraction | None


def _simplex_min(
    tab: list[list[Fraction]], basis: list[int], cost: list[Fraction]
) -> str:
    """Minimize over {Ax = b, x >= 0} given a starting basis; Bland's rule.

    tab rows are [a_1 .. a_n | b] with b >= 0 maintained; cost is the reduced
    cost row [c_1 .. c_n | -objective]. Both are updated in place.
    """
    n = len(cost) - 1
    while True:
        col = next((j for j in range(n) if cost[j] < 0), None)
        if col is None:
            return "optimal"
        best_row = None
        best_ratio = None
        for i, r in enumerate(tab):
            if r[col] > 0:
                ratio = r[-1] / r[col]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[best_row])
                ):
                    best_row, best_ratio = i, ratio
        if best_row is None:
            return "unbounded"
        pivot(tab, best_row, col)
        basis[best_row] = col
        f = cost[col]
        if f != 0:
            cost[:] = [a - f * b for a, b in zip(cost, tab[best_row])]


def _solve_standard(
    c: Sequence[Fraction], a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> LPResult:
    """minimize c.x subject to a x = b, x >= 0 (two-phase)."""
    m, n = len(a), len(c)
    rows = [[Fraction(v) for v in row] for row in a]
    rhs = [Fraction(v) for v in b]
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]

    # phase 1: artificial variable per row
    tab = [rows[i] + [Fraction(int(i == j)) for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    cost = [Fraction(0)] * n + [Fraction(1)] * m + [Fraction(0)]
    for i in range(m):
        cost = [x - y for x, y in zip(cost, tab[i])]
    status = _simplex_min(tab, basis, cost)
    assert status == "optimal"  # phase 1 is bounded below by 0
    if -cost[-1] != 0:
        return LPResult("infeasible", None, None)
    # drive surviving artificials out of the basis
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is not None:
                pivot(tab, i, col)
                basis[i] = col
    keep = [i for i in range(m) if basis[i] < n]  # all-zero rows are redundant
    tab = [tab[i][:n] + [tab[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2
    cost = [Fraction(v) for v in c] + [Fraction(0)]
    for i, bi in enumerate(basis):
        f = cost[bi]
        if f != 0:
            cost = [x - f * y for x, y in zip(cost, tab[i])]
    status = _simplex_min(tab, basis, cost)
    if status == "unbounded":
        return LPResult("unbounded", None, None)
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = tab[i][-1]
    return LPResult("optimal", tuple(x), -cost[-1])


def solve_lp(
    objective: Sequence,
    a_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
    a_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
) -> LPResult:
    """Maximize objective . x over free x with a_ub x <= b_ub, a_eq x = b_eq."""
    n = len(objective)
    obj = [Fraction(v) for v in objective]
    n_ub = len(a_ub)
    # columns: x+ (n), x- (n), slack per inequality
    rows = []
    rhs = []
    for k, row in enumerate(a_ub):
        r = [Fraction(v) for v in row]
        slack = [Fraction(int(j == k)) for j in range(n_ub)]
        rows.append(r + [-v for v in r] + slack)
        rhs.append(Fraction(b_ub[k]))
    for k, row in enumerate(a_eq):
        r = [Fraction(v) for v in row]
        rows.append(r + [-v for v in r] + [Fraction(0)] * n_ub)
        rhs.append(Fraction(b_eq[k]))
    cost = [-v for v in obj] + obj + [Fraction(0)] * n_ub  # maximize -> minimize
    res = _solve_standard(cost, rows, rhs)
    if res.status != "optimal":
        return res
    x = tuple(res.x[i] - res.x[n + i] for i in range(n))
    value = sum(o * v for o, v in zip(obj, x))
    return LPResult("optimal", x, value)


def _in_hull(p: Point, others: Sequence[Point]) -> bool:
    """Exact membership of p in the convex hull of the other points."""
    if not others:
        return False
    d = len(p)
    a = [[q[i] for q in others] for i in range(d)]
    a.append([Fraction(1)] * len(others))
    b = list(p) + [Fraction(1)]
    res = _solve_standard([Fraction(0)] * len(others), a, b)
    return res.status == "optimal"


@dataclass(frozen=True)
class RationalPolytope:
    """Hull with both descriptions: lex-sorted vertices, a.x <= b inequalities,
    and a.x = b equalities cutting out the affine hull (empty when full-dim)."""

    dim: int
    vertices: tuple[Point, ...]
    inequalities: tuple[tuple[tuple[int, ...], int], ...]
    equalities: tuple[tuple[tuple[int, ...], int], ...]

    def contains(self, point: Sequence) -> bool:
        p = tuple(Fraction(v) for v in point)
        for a, b in self.equalities:
            if sum(ai * pi for ai, pi in zip(a, p)) != b:
                return False
        for a, b in self.inequalities:
            if sum(ai * pi for ai, pi in zip(a, p)) > b:
                return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "vertices": [[str(c) for c in v] for v in self.vertices],
            "inequalities": [[list(a), b] for a, b in self.inequalities],
            "equalities": [[list(a), b] for a, b in self.equalities],
        }


# The hull tries every k-subset of the extreme points, C(|extremes|, k) of
# them. Past this many subsets it stops; the bundled specs need at most 6
# and the test suite 28.
HULL_SUBSET_BUDGET = 1_000_000


def _hyperplanes(points: Sequence[Point], extremes: Sequence[Point], k: int):
    """Candidate facet normals from k-subsets of extreme points (ambient dim k).

    Past ``HULL_SUBSET_BUDGET`` subsets it raises ``SizeBudget`` with the
    subsets tried and the facets found so far.
    """
    seen = set()
    for tried, subset in enumerate(combinations(extremes, k)):
        if tried == HULL_SUBSET_BUDGET:
            raise SizeBudget(
                f"hull enumeration exceeded its budget of {HULL_SUBSET_BUDGET} subsets "
                f"({tried} subsets tried, {len(seen)} facets found)"
            )
        diffs = [[subset[j][i] - subset[0][i] for i in range(k)] for j in range(1, k)]
        normals = nullspace(diffs, k)
        if len(normals) != 1:
            continue  # affinely dependent subset, or k = 0
        a = normals[0]
        b = sum(ai * pi for ai, pi in zip(a, subset[0]))
        vals = [sum(ai * pi for ai, pi in zip(a, q)) for q in points]
        if all(v <= b for v in vals):
            pass
        elif all(v >= b for v in vals):
            a, b = tuple(-ai for ai in a), -b
        else:
            continue
        key = primitive_integer(tuple(a) + (b,))
        if key not in seen:
            seen.add(key)
            yield key[:-1], key[-1]


def convex_hull(points: Sequence[Sequence]) -> RationalPolytope:
    """Exact hull of rational points in ambient dimension 1..3.

    Extreme points are certified one at a time by LP membership tests. The
    equalities span the null space of the differences p - p0; the inequality
    description comes from hyperplane enumeration in the k pivot coordinates
    of those differences, onto which the affine hull projects bijectively,
    lifted back with zeros elsewhere (k = 0 gives no facets, k = d is the
    identity projection). The result is rejected outright if the two
    descriptions disagree on any input point.
    """
    pts = sorted({tuple(Fraction(v) for v in p) for p in points})
    if not pts:
        raise ValueError("empty point set has no hull")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise ValueError("points live in different ambient dimensions")
    if d > 3:
        raise DimensionCap(f"ambient dimension {d} exceeds the supported cap of 3")

    extremes = [
        p for p in pts if not _in_hull(p, [q for q in pts if q != p])
    ]

    p0 = pts[0]
    diffs = [[q[i] - p0[i] for i in range(d)] for q in pts[1:]]
    _, pivots = rref(diffs)
    equalities = []
    for nrm in nullspace(diffs, d):
        b = sum(ai * pi for ai, pi in zip(nrm, p0))
        key = primitive_integer(tuple(nrm) + (b,))
        equalities.append((key[:-1], key[-1]))

    # project to pivot coordinates, build facets there, lift back
    proj = [tuple(p[c] for c in pivots) for p in pts]
    proj_ext = [tuple(p[c] for c in pivots) for p in extremes]
    lifted = []
    for a, b in _hyperplanes(proj, proj_ext, len(pivots)):
        full = [0] * d
        for ai, c in zip(a, pivots):
            full[c] = ai
        lifted.append((tuple(full), b))
    poly = RationalPolytope(
        len(pivots), tuple(extremes), tuple(sorted(lifted)), tuple(equalities)
    )

    for p in pts:
        if not poly.contains(p):
            raise ValueError(
                "hull descriptions disagree: an input point violates a computed face"
            )
    for v in poly.vertices:
        tight = sum(
            1
            for a, b in poly.inequalities
            if sum(ai * vi for ai, vi in zip(a, v)) == b
        )
        if poly.dim >= 1 and tight < poly.dim:
            raise ValueError("hull descriptions disagree: a vertex is not a face point")
    return poly


@dataclass(frozen=True)
class SupportingFunctional:
    """phi with phi.e = 1 and phi.v <= 1 - margin on every other vertex."""

    e: Point
    phi: tuple[Fraction, ...]
    margin: Fraction

    def to_json_dict(self) -> dict:
        return {
            "e": [str(c) for c in self.e],
            "phi": [str(c) for c in self.phi],
            "margin": str(self.margin),
        }


def supporting_functional(poly: RationalPolytope, e: Sequence) -> SupportingFunctional:
    """Certify e as an extreme point by a strictly separating functional.

    Maximizes the margin t subject to phi.e = 1 and phi.v + t <= 1 over the
    other vertices. A positive optimum proves no convex combination of the
    remaining vertices reaches e; anything else raises NotExtreme.
    """
    ept = tuple(Fraction(v) for v in e)
    if ept not in poly.vertices:
        raise NotExtreme(f"{e} is not a vertex of the hull")
    others = [v for v in poly.vertices if v != ept]
    if not others:
        raise NotExtreme("hull has a single vertex; no separating margin exists")
    d = len(ept)
    # variables phi_1..phi_d, t
    objective = [Fraction(0)] * d + [Fraction(1)]
    a_ub = [list(v) + [Fraction(1)] for v in others]
    b_ub = [Fraction(1)] * len(others)
    a_eq = [list(ept) + [Fraction(0)]]
    b_eq = [Fraction(1)]
    res = solve_lp(objective, a_ub, b_ub, a_eq, b_eq)
    if res.status == "infeasible":
        raise NotExtreme(f"no functional attains 1 at {e}")
    if res.status == "unbounded":
        raise NotExtreme(f"separation problem for {e} is degenerate (unbounded margin)")
    t = res.x[d]
    if t <= 0:
        raise NotExtreme(f"best margin for {e} is {t}; the point is not extreme")
    return SupportingFunctional(ept, tuple(res.x[:d]), t)
