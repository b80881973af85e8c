"""Integer-valued left-invariant metrics that are not word metrics.

The ball-system construction takes a nested chain of finite subgroups F_n
and defines B_n = F_n (union of B_k B_{n-k}, 0 < k < n) F_n. On a nested
chain only the two outer blocks count, B_n = F_n (B_1 B_{n-1} u B_{n-1} B_1) F_n
(proved at ``_build_level``), and the second block is the inverse of the
first, so each level is built as X u X^-1 with X = F_n B_1 B_{n-1} F_n. The
norm |g| = min{n : g in B_n} is a proper left-invariant metric in which every
element of every F_n eventually looks like the identity. Sets are exact; the
chain and B_1, which the metric rests on, are checked, not assumed.

``metric_axiom_check`` proves the triangle inequality of a ball system on
coset transversals: once a walk shows B_k = R_k F_k, bi-invariance lets the
pairs R_i^-1 x R_j stand for all of S_i x S_j inside B_{i+j}. Its
``pairs_checked`` counts the pairs covered, not the products taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain as concat, repeat
from typing import Iterable, Sequence, Union

from .cayley import Ball
from .errors import AxiomViolation, GroupMismatch, NotASubgroup, OutOfRange, SizeBudget
from .groups import Element, GeneratingSet, Group

__all__ = [
    "DEFAULT_SET_BUDGET",
    "DEFAULT_MAX_LEVELS",
    "BallSystem",
    "BsAnnihilatorReport",
    "MetricAxiomReport",
    "build_ball_system",
    "bs_norm",
    "check_n_max",
    "bs_annihilator_check",
    "metric_axiom_check",
]

DEFAULT_SET_BUDGET = 1_000_000
DEFAULT_MAX_LEVELS = 5


class BallSystem:
    """Nested sets B_0 .. B_{n_max} and the norm they induce.

    The spheres B_n minus B_{n-1} are sorted once here, by the group's sort
    key; every reader walks them instead of sorting a level again. Only the
    spheres and norms are kept, not the level sets.
    """

    def __init__(
        self,
        group: Group,
        chain: tuple[frozenset, ...],
        levels: tuple[frozenset, ...],
    ):
        self.group = group
        self.chain = chain
        self.n_max = len(levels) - 1
        self._norm: dict[tuple, int] = {}
        spheres = []
        prev: frozenset = frozenset()
        for n, level in enumerate(levels):
            if not prev <= level:
                raise AxiomViolation(f"B_{n - 1} is not inside B_{n}")
            sphere = [data for data in level if data not in prev]
            sphere.sort(key=group.sort_key)
            for data in sphere:
                self._norm[data] = n
            spheres.append(sphere)
            prev = level
        self._spheres = tuple(spheres)

    def norm_data(self, data: tuple) -> int | None:
        return self._norm.get(data)

    def layer_sizes(self) -> list[int]:
        return list(accumulate(len(sphere) for sphere in self._spheres))

    def sphere_data(self, n: int) -> list[tuple]:
        if not (0 <= n <= self.n_max):
            raise OutOfRange(f"level {n} outside 0..{self.n_max}")
        return list(self._spheres[n])

    def elements(self, n: int | None = None) -> list[Element]:
        """B_n ordered by (norm, sort key): spheres 0..n concatenated."""
        n = self.n_max if n is None else n
        if not (0 <= n <= self.n_max):
            raise OutOfRange(f"level {n} outside 0..{self.n_max}")
        return [
            Element(self.group, d) for sphere in self._spheres[: n + 1] for d in sphere
        ]

    def to_json_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "chain_sizes": [len(f) for f in self.chain],
            "level_sizes": self.layer_sizes(),
        }


def _check_subgroup(group: Group, elems: frozenset, name: str) -> None:
    """Raise unless the finite set elems is a subgroup.

    Closure is checked on generators, not on all pairs. Walking elems in
    sort-key order, each element not yet reached becomes a generator, and the
    reached set is closed under right multiplication by every generator.
    At the end reached = elems and elems * G lies in elems, so every element
    is a word in G and a * b stays in elems by induction on the length of b.
    That costs |elems| * |G| products, and |G| <= log2 |elems| because each
    new generator at least doubles the subgroup reached so far.
    """
    identity = group.identity_data()
    if identity not in elems:
        raise NotASubgroup(f"{name} does not contain the identity")
    for a in elems:
        if group.inv_data(a) not in elems:
            raise NotASubgroup(f"{name} is not inverse-closed at {group.format_data(a)}")

    mul = group.mul_data
    reached = {identity}
    order = [identity]  # reached, in the order it was reached

    def reach(a: tuple, g: tuple) -> None:
        ag = mul(a, g)
        if ag not in elems:
            raise NotASubgroup(
                f"{name} is not closed under products at "
                f"{group.format_data(a)} * {group.format_data(g)}"
            )
        if ag not in reached:
            reached.add(ag)
            order.append(ag)

    gens: list[tuple] = []
    for g in sorted(elems, key=group.sort_key):
        if g in reached:
            continue
        gens.append(g)
        old = len(order)
        for i in range(old):  # the new generator over everything reached so far
            reach(order[i], g)
        i = old
        while i < len(order):  # each newly reached element by every generator
            a = order[i]
            for h in gens:
                reach(a, h)
            i += 1


def _budget_error(n: int, budget: int, step: str, size: int) -> SizeBudget:
    return SizeBudget(
        f"B_{n} exceeded the element budget {budget} while {step} "
        f"(partial size {size})"
    )


def _expand(
    group: Group, core: Iterable[tuple], subgroup: frozenset, n: int, budget: int, side: str
) -> set:
    """core . subgroup (side "right") or subgroup . core, a whole coset at a time."""
    mul = group.mul_data
    size = len(subgroup)
    out: set = set()
    for m in core:
        if m in out:
            continue  # its entire coset is already present
        if side == "right":
            out.update(map(mul, repeat(m, size), subgroup))
        else:
            out.update(map(mul, subgroup, repeat(m, size)))
        if len(out) > budget:
            raise _budget_error(n, budget, f"expanding by F_{n} on the {side}", len(out))
    return out


def _build_level(group: Group, levels: list, chain: tuple, budget: int) -> frozenset:
    """B_n = X u X^-1 with X = F_n B_1 B_{n-1} F_n, for n = len(levels).

    The definition unions every block B_k B_{n-k}, 0 < k < n, but on a nested
    chain the middle blocks (k, n-k >= 2) add nothing. Induct on k, taking
    2 <= k <= n-k. B_k = F_k (union of B_i B_{k-i}, 0 < i < k) F_k, and
    F_k B_{n-k} = B_{n-k} since F_k lies in F_{n-k} and B_{n-k} is
    F_{n-k}-invariant. So B_k B_{n-k} lies in the union of F_k B_i B_{k-i} B_{n-k},
    where B_{k-i} B_{n-k} is a block of B_{n-i}. As F_k lies in F_n,
    F_n B_k B_{n-k} F_n lies in the union of F_n B_i B_{n-i} F_n over i < k,
    which by induction lies in F_n B_1 B_{n-1} F_n. For k > n-k the mirror
    argument ends in B_{n-1} B_1. The caller checks the nesting it rests on.
    As F_n, B_1 and B_{n-1} are symmetric, the mirror block F_n B_{n-1} B_1 F_n
    is X^-1, so B_n is symmetric by construction; on A_5, X_3 misses part of B_3.

    A function of its own so that the intermediate sets are freed on return,
    before ``BallSystem`` holds the sort keys of a whole sphere.
    """
    n = len(levels)
    mul = group.mul_data
    core: set = set()
    add = core.add
    for a in levels[1]:
        for b in levels[n - 1]:
            add(mul(a, b))
        if len(core) > budget:
            raise _budget_error(n, budget, "merging products", len(core))
    f_n = chain[n - 1]
    right = _expand(group, core, f_n, n, budget, "right")
    kept = core <= right
    del core, add  # freed before the left expansion, the largest step
    full = _expand(group, right, f_n, n, budget, "left")
    if not (kept and right <= full):
        raise AxiomViolation(f"construction lost products while building B_{n}")
    del right
    full.update([y for y in map(group.inv_data, full) if y not in full])
    if len(full) > budget:
        raise _budget_error(n, budget, "adding inverses", len(full))
    return frozenset(full)


def check_n_max(n_max: int) -> None:
    """Refuse n_max outside 1..DEFAULT_MAX_LEVELS, before a chain is built:
    F_n of the lamplighter chain has 2^(2n+1) elements."""
    if n_max < 1:
        raise OutOfRange(f"n_max must be >= 1, got {n_max}")
    if n_max > DEFAULT_MAX_LEVELS:
        raise SizeBudget(f"n_max {n_max} exceeds the level budget {DEFAULT_MAX_LEVELS}")


def build_ball_system(
    group: Group,
    s1: GeneratingSet,
    f_chain: Sequence[Iterable[Element]],
    n_max: int,
    budget: int = DEFAULT_SET_BUDGET,
) -> BallSystem:
    """Compute B_0..B_{n_max} for the chain, verifying every assumption.

    B_1 must be symmetric, each F_n a finite subgroup of the group, and the
    chain nested; the construction is cut off by the element budget. Every
    level n >= 2 is symmetric by construction (see ``_build_level``), so
    B_1, the only level taken from the caller, is the one symmetry check.
    """
    check_n_max(n_max)
    if budget < 1:
        raise OutOfRange(f"budget must be >= 1, got {budget}")
    if len(f_chain) < n_max:
        raise NotASubgroup(f"chain supplies {len(f_chain)} subgroups, need {n_max}")
    if s1.group is not group:
        raise NotASubgroup("generating set belongs to a different group")
    identity = group.identity_data()
    b1 = frozenset({s.data for s in s1.elements} | {identity})
    for x in b1:
        if group.inv_data(x) not in b1:
            raise AxiomViolation("B_1 is not symmetric", element=group.format_data(x))
    members = [list(f) for f in f_chain[:n_max]]
    if any(x.group is not group for f in members for x in f):
        raise NotASubgroup("chain holds an element of a different group")
    chain = tuple(frozenset(x.data for x in f) for f in members)
    for i, f in enumerate(chain):
        _check_subgroup(group, f, f"F_{i + 1}")
        if i and not chain[i - 1] <= f:
            raise NotASubgroup(f"chain is not nested: F_{i} is not inside F_{i + 1}")

    levels = [frozenset([identity]), b1]
    for n in range(2, n_max + 1):
        levels.append(_build_level(group, levels, chain, budget))
    return BallSystem(group, chain, tuple(levels))


def bs_norm(bs: BallSystem, g: Element) -> int:
    """min{n : g in B_n}; errors when g is beyond B_{n_max}."""
    if g.group is not bs.group:
        raise GroupMismatch(f"{g!r} belongs to a different group")
    n = bs.norm_data(g.data)
    if n is None:
        raise OutOfRange(f"{g} lies outside B_{bs.n_max}")
    return n


@dataclass(frozen=True)
class BsAnnihilatorReport:
    """Indistinguishability evidence for f against the ball-system norm."""

    f: Element
    n: int
    range_radius: int
    threshold: int
    checked: int
    violations: tuple[tuple[Element, int, int], ...]
    exceptional: tuple[tuple[Element, int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        def rows(items):
            return [
                {"g": str(g), "norm_g": a, "norm_fg": b} for g, a, b in items
            ]

        return {
            "f": str(self.f),
            "n": self.n,
            "range_radius": self.range_radius,
            "threshold": self.threshold,
            "checked": self.checked,
            "violations": rows(self.violations),
            "exceptional": rows(self.exceptional),
            "ok": self.ok,
        }


def bs_annihilator_check(bs: BallSystem, f: Element, n: int) -> BsAnnihilatorReport:
    """Verify |f^-1 g| = |g| for in-range g, over g in B_{n_max - n}.

    f must belong to the declared F_n. In range means both |g| and |f^-1 g|
    reach max(n, 2): equality follows from F_k B_k F_k = B_k, which holds at
    every constructed level k >= 2 but not at k = 1, where B_1 is a bare
    generating set. Disagreements below the threshold are collected
    separately: those are the finitely many exceptions the construction
    permits, not violations.
    """
    if not (1 <= n <= bs.n_max):
        raise OutOfRange(f"chain index {n} outside 1..{bs.n_max}")
    if f.group is not bs.group:
        raise GroupMismatch(f"{f!r} belongs to a different group")
    if f.data not in bs.chain[n - 1]:
        raise OutOfRange(f"{f} is not in F_{n}")
    group = bs.group
    radius = bs.n_max - n
    cut = max(n, 2)
    f_inv = group.inv_data(f.data)
    checked = 0
    violations = []
    exceptional = []
    mul = group.mul_data
    norm_of = bs._norm.get
    for ng, sphere in enumerate(bs._spheres[: radius + 1]):
        for g_data in sphere:
            nfg = norm_of(mul(f_inv, g_data))
            if nfg is None:
                raise OutOfRange(
                    f"f^-1 g escaped B_{bs.n_max} at g = {group.format_data(g_data)}"
                )
            checked += 1
            if nfg == ng:
                continue
            if ng >= cut and nfg >= cut:
                violations.append((Element(group, g_data), ng, nfg))
            else:
                exceptional.append((Element(group, g_data), ng, nfg))
    return BsAnnihilatorReport(
        f, n, radius, cut, checked, tuple(violations), tuple(exceptional)
    )


@dataclass(frozen=True)
class MetricAxiomReport:
    source: str
    radius: int
    pairs_checked: int
    layer_sizes: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "source": self.source,
            "radius": self.radius,
            "pairs_checked": self.pairs_checked,
            "layer_sizes": list(self.layer_sizes),
        }


def _coset_reps(bs: BallSystem, k: int, subgroup: frozenset) -> list | None:
    """R with B_k = R subgroup, or None if B_k is not a union of left cosets.

    The walk goes through B_k in sphere order over ``left``, a fresh set of
    B_k. Each element still in ``left`` becomes a representative and its
    coset is struck from ``left``. Cosets are disjoint, so a member not found
    lies outside B_k. This costs |B_k| products, proves the equality exactly
    and keeps none of the products.
    """
    mul = bs.group.mul_data
    size = len(subgroup)
    walk = bs._spheres[: k + 1]
    # copying a dict sizes the set once; adding one by one can double it
    left = set(bs._norm) if k == bs.n_max else set(concat.from_iterable(walk))
    strike = left.remove  # unlike difference_update, never resizes the table
    reps = []
    for a in concat.from_iterable(walk):
        if a not in left:
            continue
        reps.append(a)
        try:
            any(map(strike, map(mul, repeat(a, size), subgroup)))  # each remove is None
        except KeyError:
            return None
    return reps


def _transversals(bs: BallSystem, radius: int) -> dict[int, list]:
    """R_k with B_k = R_k F_k for each level 2 <= k <= radius it can walk.

    F_k must be a subgroup of more than one element holding every F walked
    below it. A level that fails this, or is not a union of cosets, is left
    out and checked pair by pair: coset structure is not a metric axiom.
    """
    reps: dict[int, list] = {}
    below: frozenset = frozenset()
    for k in range(2, radius + 1):
        f = bs.chain[k - 1]
        if len(f) == 1 or not below <= f:
            continue
        try:
            _check_subgroup(bs.group, f, f"F_{k}")
        except NotASubgroup:
            continue
        found = _coset_reps(bs, k, f)
        if found is not None:
            reps[k] = found
            below = f
    return reps


def metric_axiom_check(
    source: Union[Ball, BallSystem], radius: int | None = None
) -> MetricAxiomReport:
    """Identity, symmetry and triangle axioms over all in-range pairs.

    Every pair (x, y) with |x| + |y| <= radius is covered; properness at
    scale is reported as the finite layer sizes. The first failure raises
    with a witness; a clean pass returns the report.

    On a ball system the triangle inequality is proved on coset transversals.
    Where ``_transversals`` walks level k, B_k = R_k F_k, and by symmetry
    B_k = F_k R_k^-1. Block (i, j) needs S_i S_j inside B_{i+j}. If B_{i+j}
    is walked, it is F_{i+j}-bi-invariant and holds F_i, F_j of walked i, j,
    so x runs over R_i^-1 (S_i if i is not walked) and y over R_j (or S_j):
    each pair of S_i x S_j is f x y f' with f, f' in F_{i+j}. Other blocks,
    and all of a word ball, go pair by pair. x and y lie in B_i and B_j, so a
    failing pair is a genuine violation, reported with its own norms.
    ``pairs_checked`` counts the pairs covered, sum |S_i| |S_j|, not the
    products taken.
    """
    group = source.group
    identity = group.identity_data()
    if isinstance(source, Ball):
        kind = "ball"
        max_radius = source.radius
        norm_of = source.dist_data
        sphere = source.layer_data
    else:
        kind = "ballsystem"
        max_radius = source.n_max
        norm_of = source._norm.get
        sphere = source.sphere_data
    if radius is None:
        radius = max_radius
    if radius > max_radius:
        raise OutOfRange(f"radius {radius} exceeds the computed range {max_radius}")
    if radius < 0:
        raise OutOfRange(f"radius {radius} is negative")

    spheres = [sphere(k) for k in range(radius + 1)]
    layer_sizes = tuple(len(s) for s in spheres)
    for x in spheres[0]:
        if x != identity:
            raise AxiomViolation(
                "a non-identity element has norm 0", element=group.format_data(x)
            )
    if norm_of(identity) != 0:
        raise AxiomViolation("the identity does not have norm 0")

    for k, xs in enumerate(spheres):
        for x in xs:
            ni = norm_of(group.inv_data(x))
            if ni != k:
                raise AxiomViolation(
                    "symmetry fails",
                    element=group.format_data(x),
                    norm=k,
                    inverse_norm=ni,
                )

    reps = {} if kind == "ball" else _transversals(source, radius)
    inv = group.inv_data
    rows = {k: [inv(r) for r in rs] for k, rs in reps.items()}
    mul = group.mul_data
    pairs = 0
    for i in range(radius + 1):
        for j in range(radius + 1 - i):
            bound = i + j
            factored = bound in reps
            xs = rows[i] if factored and i in rows else spheres[i]
            ys = reps[j] if factored and j in reps else spheres[j]
            for x in xs:
                for y in ys:
                    nxy = norm_of(mul(x, y))
                    if nxy is None or nxy > bound:
                        raise AxiomViolation(
                            f"triangle inequality fails: x*y lies outside B_{bound}",
                            x=group.format_data(x),
                            y=group.format_data(y),
                            norm_x=norm_of(x),
                            norm_y=norm_of(y),
                            norm_xy=nxy,
                        )
            pairs += len(spheres[i]) * len(spheres[j])
    return MetricAxiomReport(kind, radius, pairs, layer_sizes)
