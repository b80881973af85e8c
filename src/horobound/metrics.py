"""Integer-valued left-invariant metrics that are not word metrics.

The ball-system construction takes a nested chain of finite subgroups F_n
and defines B_n = F_n (union of B_k B_{n-k}, 0 < k < n) F_n. On a nested
chain only the two outer blocks count, B_n = F_n (B_1 B_{n-1} u B_{n-1} B_1) F_n
(proved at ``_build_level``), and the second block is the inverse of the
first, so each level is built as X u X^-1 with X = F_n B_1 B_{n-1} F_n. The
norm |g| = min{n : g in B_n} is a proper left-invariant metric in which every
element of every F_n eventually looks like the identity. Sets are exact; B_1
and a chain the caller gives are checked, not assumed. The lamplighter's own
chain, the windows F_j = lamp patterns on [-j, j], is built here and is
nested subgroups by construction.

Each level n >= 2 is thus a union of F_n double cosets and is kept as one
representative and one size per double coset. The chain supplies the key of
a double coset and one element per left coset: closed forms for the window
chain (``Window``, ``WindowCosets``), whose subgroups are never listed, an
enumeration for any other. The build, the axiom check and the annihilator
check multiply representatives; bi-invariance lets each product stand for
its double coset. Elements are listed only where a sphere is read, and the
element budget bounds what is held: representatives kept, members of
enumerated double cosets and listed sphere elements.
"""

from __future__ import annotations

import math
from collections.abc import Set
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Sequence

from .errors import AxiomViolation, GroupMismatch, NotASubgroup, OutOfRange, SizeBudget
from .groups import (
    Element,
    GeneratingSet,
    Group,
    LamplighterGroup,
    check_subgroup,
    lamp_normal_form,
)

__all__ = [
    "DEFAULT_SET_BUDGET",
    "DEFAULT_MAX_LEVELS",
    "BallSystem",
    "BsAnnihilatorReport",
    "MetricAxiomReport",
    "Window",
    "WindowCosets",
    "build_ball_system",
    "bs_annihilator_check",
    "metric_axiom_check",
]

DEFAULT_SET_BUDGET = 1_000_000
DEFAULT_MAX_LEVELS = 8


class _Held:
    """A ball system's element budget, spent on what it holds: representatives
    kept, members of enumerated double cosets and listed sphere elements."""

    def __init__(self, budget: float):
        self.budget, self.count = budget, 0

    def take(self, count: int, n: int, step: str) -> None:
        total = self.count + count
        if total > self.budget:
            raise SizeBudget(
                f"B_{n} exceeded the element budget {self.budget} while {step} "
                f"(holding {total})"
            )
        self.count = total


class _Enumerated:
    """The double cosets H g H of a finite subgroup H, enumerated when asked for.

    A double coset is keyed by the first of its elements asked for, and
    ``find`` knows the cosets enumerated so far. H g H is the union of the
    left cosets h g H, and h g H is skipped once h g is reached, since it is
    then a coset already held: |H| + |H g H| products, none for H = {e}.
    """

    def __init__(self, group: Group, subgroup: frozenset, n: int, held: _Held, step: str = ""):
        self.group, self.subgroup, self.n, self.held = group, subgroup, n, held
        self.step = step or f"enumerating F_{n} double cosets"  # named in budget errors
        self._key: dict[tuple, tuple] = {}  # member -> key
        self._members: dict[tuple, set] = {}  # key -> members
        self.find = self._key.get

    def key(self, data: tuple) -> tuple:
        if data not in self._key:
            coset = self._members[data] = self._coset(data)
            self._key.update(dict.fromkeys(coset, data))
        return self._key[data]

    def _coset(self, data: tuple) -> set:
        mul, h, step = self.group.mul_data, self.subgroup, self.step
        if len(h) == 1:
            self.held.take(1, self.n, step)
            return {data}
        coset: set = set()
        for a in h:
            x = mul(a, data)
            if x not in coset:  # x H is a left coset disjoint from coset
                self.held.take(len(h), self.n, step)
                coset.update(map(mul, repeat(x, len(h)), h))
        return coset

    @staticmethod
    def left_key(data: tuple) -> tuple:
        return data

    @staticmethod
    def absorbs(x: tuple, sub) -> bool:
        return False

    def size(self, key: tuple) -> int:
        return len(self._members[key])

    def members(self, key: tuple) -> set:
        return self._members[key]


def _dark(data: tuple, a: int, b: int) -> tuple:
    """Lamplighter data with the lamps at positions a..b switched off."""
    mask, low, shift = data
    ones = (1 << (b - a + 1)) - 1
    mask &= ~(ones << (a - low) if a >= low else ones >> (low - a))
    return lamp_normal_form(mask, low, shift)


class Window(Set):
    """F_j = the lamp patterns on [-j, j] with shift 0: a subgroup of
    2^(2j+1) lamplighter data, inside F_{j+1}. Size and membership are
    closed forms; members are listed when iterated.
    """

    __slots__ = ("j",)

    def __init__(self, j: int):
        self.j = j

    def __len__(self) -> int:
        return 1 << (2 * self.j + 1)

    def __contains__(self, x) -> bool:
        mask, low, shift = x
        return not shift and (not mask or -self.j <= low and low + mask.bit_length() <= self.j + 1)

    def __iter__(self):
        for mask in range(len(self)):
            yield lamp_normal_form(mask, -self.j, 0)

    @classmethod
    def _from_iterable(cls, items) -> frozenset:
        return frozenset(items)


class WindowCosets:
    """The double cosets F_n g F_n of F_n = ``Window(n)``, in closed form.

    (a, 0) (f, u) (b, 0) = (f + a + t^u b, u), so F_n (f, u) F_n is every
    (f', u) with f' = f outside W = [-n, n] u [u - n, u + n]. Its key is
    (f with the lamps of W off, u), itself a member, and its size 2^|W|.
    The left coset F_n (f, u) is keyed by f with the lamps of [-n, n] off.
    """

    def __init__(self, n: int):
        self.n = n
        self.subgroup = Window(n)

    def key(self, data: tuple) -> tuple:
        n, u = self.n, data[2]
        return _dark(_dark(data, -n, n), u - n, u + n)

    find = key  # every element has a key, with no enumeration

    def left_key(self, data: tuple) -> tuple:
        return _dark(data, -self.n, self.n)

    def absorbs(self, x: tuple, sub) -> bool:
        """Whether x h lies in F_n x for every h in sub = F_j: x F_j x^-1 is the
        window [-j, j] moved by the shift s of x, inside [-n, n] if |s| <= n - j."""
        return isinstance(sub, Window) and abs(x[2]) <= self.n - sub.j

    def size(self, key: tuple) -> int:
        width = 2 * self.n + 1
        return 1 << (2 * width - max(0, width - abs(key[2])))

    def members(self, key: tuple):
        """The 2^|W| members: key with every pattern on W switched on."""
        mask, low, u = key
        n = self.n
        base = min(low, -n, u - n)
        lit = mask << (low - base)
        window = 0
        for p in {*range(-n, n + 1), *range(u - n, u + n + 1)}:
            window |= 1 << (p - base)
        sub = window
        while True:
            yield lamp_normal_form(lit | sub, base, u)
            if not sub:
                return
            sub = (sub - 1) & window

    @staticmethod
    def level(data: tuple) -> int:
        """The least n >= 2 with data = (f, u) in F_n t^u F_n, |u| <= n. Its two
        windows then overlap, so f lies in [min(0, u) - n, max(0, u) + n]."""
        mask, low, u = data
        n = -u if u < 0 else u
        if mask:
            left, right = (u, 0) if u < 0 else (0, u)
            n = max(n, left - low, low + mask.bit_length() - 1 - right)
        return n if n > 2 else 2


class _Level:
    """B_n as the union of the double cosets H r H of its representatives r."""

    __slots__ = ("cosets", "reps")

    def __init__(self, cosets, reps: dict):
        self.cosets = cosets  # H, with the key of each double coset
        self.reps = reps  # key -> size of its double coset

    def __contains__(self, data: tuple) -> bool:
        return self.cosets.find(data) in self.reps


class BallSystem:
    """Nested sets B_0 .. B_{n_max} and the norm they induce.

    A level is kept as the double cosets H r H it is the union of, with one
    representative r and one size each: H = F_n where the level is known to
    be F_n-bi-invariant, else H = {e}, a coset per element (always for B_0
    and B_1). ``build_ball_system`` passes levels in this form, and its
    budget; levels given as element sets are compressed into it by
    ``_compress``. A sphere B_n minus B_{n-1} is charged to the budget and
    listed, sorted by the group's sort key, when first read. If each level
    n >= 2 is F_n t^u F_n, |u| <= n, over the window chain, the norm past
    B_1 is ``WindowCosets.level``, else the levels are tested from B_0 up.
    """

    def __init__(self, group: Group, chain: tuple, levels: Sequence, held: _Held | None = None):
        self.group, self.chain, self.n_max = group, chain, len(levels) - 1
        if not all(isinstance(level, _Level) for level in levels):
            levels = _compress(group, chain, levels)
        self._levels = tuple(levels)
        self._held = _Held(math.inf) if held is None else held
        self._sizes = [sum(level.reps.values()) for level in self._levels]
        self._spheres: dict[int, list] = {}
        self._by_key = self.n_max >= 2 and all(
            isinstance(level.cosets, WindowCosets) and level.cosets.n == n
            and level.reps.keys() == {(0, 0, u) for u in range(-n, n + 1)}
            for n, level in enumerate(self._levels[2:], 2)
        )
        # B_0 and B_1 are kept over {e}: their representatives are their elements
        points = reversed(list(enumerate(self._levels[:2])))
        self._points = {d: n for n, level in points for d in level.reps}

    def norm_data(self, data: tuple) -> int | None:
        n = self._points.get(data)
        if n is not None:
            return n
        if self._by_key:
            n = WindowCosets.level(data)
            return n if n <= self.n_max else None
        return next((n for n in range(2, self.n_max + 1) if data in self._levels[n]), None)

    def layer_sizes(self) -> list[int]:
        return list(self._sizes)

    def sphere_data(self, n: int) -> list[tuple]:
        if not (0 <= n <= self.n_max):
            raise OutOfRange(f"level {n} outside 0..{self.n_max}")
        sphere = self._spheres.get(n)
        if sphere is None:
            size = self._sizes[n] - (self._sizes[n - 1] if n else 0)
            self._held.take(size, n, "listing its sphere")
            level, below = self._levels[n], self._levels[n - 1] if n else ()
            members = level.cosets.members
            sphere = [d for r in level.reps for d in members(r) if d not in below]
            sphere.sort(key=self.group.sort_key)
            self._spheres[n] = sphere
        return list(sphere)

    def to_json_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "chain_sizes": [len(f) for f in self.chain],
            "level_sizes": self.layer_sizes(),
        }


def _compress(group: Group, chain: tuple, levels: Sequence[frozenset]) -> list[_Level]:
    """Element sets B_0 .. B_n_max as levels of double cosets.

    Level n >= 2 is kept over F_n if F_n has more than one element, holds
    the F of every level kept over one below it, is a subgroup and leaves
    the level a union of its double cosets; any other level is kept over {e}.
    """
    trivial = frozenset([group.identity_data()])
    out, prev, below = [], frozenset(), frozenset()
    for n, level in enumerate(levels):
        if not prev <= level:
            raise AxiomViolation(f"B_{n - 1} is not inside B_{n}")
        prev = level
        f = frozenset(chain[n - 1]) if n >= 2 else trivial  # iterated per coset
        kept = len(f) > 1 and below <= f and _walk(group, level, f, n)
        out.append(kept or _walk(group, level, trivial, n))
        below = f if kept else below
    return out


def _walk(group: Group, level: frozenset, f: frozenset, n: int) -> _Level | None:
    """level over the double cosets of f, or None if f is no subgroup or
    level no union of its double cosets. In sort-key order, each element no
    coset holds yet keys a new double coset, all of whose members must lie
    in level; the cosets are disjoint, so they then make up level exactly."""
    try:
        check_subgroup(group, f, f"F_{n}")
    except NotASubgroup:
        return None
    cosets, reps = _Enumerated(group, f, n, _Held(math.inf)), {}
    for a in sorted(level, key=group.sort_key):
        if cosets.find(a) is None:
            key = cosets.key(a)
            if not level.issuperset(cosets.members(key)):
                return None
            reps[key] = cosets.size(key)
    return _Level(cosets, reps)


def _left_transversal(group: Group, cosets, xs: Iterable[tuple], m) -> dict:
    """(x, h, x h) for x in xs and h in the subgroup m, one per left coset
    H x h of the cosets' H; x stands for all of x m, with no product, where
    the cosets know x m inside H x (``absorbs``)."""
    mul, e = group.mul_data, group.identity_data()
    out: dict = {}
    for x in xs:
        if cosets.absorbs(x, m):
            out.setdefault(cosets.left_key(x), (x, e, x))
            continue
        for h in m:
            xh = mul(x, h)
            out.setdefault(cosets.left_key(xh), (x, h, xh))
    return out


def _build_level(group: Group, levels: list, cosets, held: _Held) -> _Level:
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

    On representatives: B_{n-1} is the union of H r H over its
    representatives r, with H inside F_n, so X is the union of F_n y r F_n
    over y in B_1 H and the r, and F_n y r F_n depends on y only through
    F_n y, one per left coset. (F_n x F_n)^-1 = F_n x^-1 F_n gives X^-1.
    """
    n = len(levels)
    mul = group.mul_data
    below = levels[n - 1]
    ys, h = levels[1].reps, below.cosets.subgroup
    if len(h) > 1:
        ys = [y for _, _, y in _left_transversal(group, cosets, ys, h).values()]
    reps: dict = {}
    for y in ys:
        for r in below.reps:
            key = cosets.key(mul(y, r))
            if key not in reps:
                held.take(1, n, "merging products")
                reps[key] = cosets.size(key)
    for key in list(reps):
        key = cosets.key(group.inv_data(key))
        if key not in reps:
            held.take(1, n, "adding inverses")
            reps[key] = cosets.size(key)
    return _Level(cosets, reps)


def build_ball_system(
    group: Group,
    s1: GeneratingSet,
    f_chain: Sequence[Iterable[Element]] | None,
    n_max: int,
    budget: int = DEFAULT_SET_BUDGET,
) -> BallSystem:
    """Compute B_0..B_{n_max} for the chain, verifying every assumption.

    ``f_chain=None`` takes the group's own chain, built once n_max passes its
    check: on a lamplighter the window chain F_j = ``Window(j)``, nested
    subgroups by construction, in closed form and never listed; else
    F_n = {e}, the word metric. Any other chain must be nested finite
    subgroups of the group, and B_1 symmetric. The element budget bounds
    what the system holds (``_Held``), not the levels' sizes. Every level
    n >= 2 is symmetric by construction (see ``_build_level``), so B_1, the
    only level taken from the caller, is the one symmetry check. Level
    n >= 2 is kept over F_n double cosets.
    """
    if n_max < 1:
        raise OutOfRange(f"n_max must be >= 1, got {n_max}")
    if n_max > DEFAULT_MAX_LEVELS:  # no run past 8 is measured
        raise SizeBudget(f"n_max {n_max} exceeds the level budget {DEFAULT_MAX_LEVELS}")
    if budget < 1:
        raise OutOfRange(f"budget must be >= 1, got {budget}")
    if f_chain is not None and len(f_chain) < n_max:
        raise NotASubgroup(f"chain supplies {len(f_chain)} subgroups, need {n_max}")
    if s1.group is not group:
        raise NotASubgroup("generating set belongs to a different group")
    identity = group.identity_data()
    b1 = dict.fromkeys([identity, *(s.data for s in s1.elements)])  # ordered set
    for x in b1:
        if group.inv_data(x) not in b1:
            raise AxiomViolation("B_1 is not symmetric", element=group.format_data(x))
    held = _Held(budget)
    if f_chain is None and isinstance(group, LamplighterGroup):
        chain = tuple(Window(j) for j in range(1, n_max + 1))
        cosets_of = WindowCosets
    else:
        if f_chain is None:  # F_n = {e}: the word metric
            f_chain = [[group.identity()]] * n_max
        members = [list(f) for f in f_chain[:n_max]]
        if any(x.group is not group for f in members for x in f):
            raise NotASubgroup("chain holds an element of a different group")
        chain = tuple(frozenset(x.data for x in f) for f in members)
        for i, f in enumerate(chain):
            check_subgroup(group, f, f"F_{i + 1}")
            if i and not chain[i - 1] <= f:
                raise NotASubgroup(f"chain is not nested: F_{i} is not inside F_{i + 1}")

        def cosets_of(n: int) -> _Enumerated:
            return _Enumerated(group, chain[n - 1], n, held)

    # B_0 and B_1 over {e}: one point coset per element, charged as B_1 is kept
    points = _Enumerated(group, frozenset([identity]), 1, held, "keeping B_1")
    levels = [_Level(points, {points.key(x): 1 for x in xs}) for xs in ([identity], b1)]
    held.take(1 + len(b1), 1, "keeping B_1")
    for n in range(2, n_max + 1):
        levels.append(_build_level(group, levels, cosets_of(n), held))
    return BallSystem(group, chain, tuple(levels), held)


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
            return [{"g": str(g), "norm_g": a, "norm_fg": b} for g, a, b in items]

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

    A sphere S_k = B_k minus B_{k-1} takes no product when B_k and B_{k-1}
    are kept over subgroups that hold f, as f^-1 then fixes both, and so S_k.
    If only B_k is, f^-1 B_k = B_k gives |f^-1 g| <= k on S_k, with
    |f^-1 g| < k exactly when g = f h for some h in B_{k-1}; then
    |f^-1 g| = |h|, and h -> f h is injective. So the exceptions on S_k are
    the f h outside B_{k-1}, read off |B_{k-1}| products rather than |S_k|:
    fewer on every bundled system, though nothing bounds |B_{k-1}| by |S_k|.
    On a built system k <= max(n, 2): no sphere past S_{max(n, 2) - 1} is listed.
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
    fixed = [True] + [f.data in level.cosets.subgroup for level in bs._levels]
    sizes = [0, *bs.layer_sizes()]
    checked, violations, exceptional = 0, [], []
    mul = group.mul_data
    for ng in range(radius + 1):
        checked += sizes[ng + 1] - sizes[ng]
        if fixed[ng] and fixed[ng + 1]:
            continue
        if not fixed[ng + 1]:
            found = [(g, bs.norm_data(mul(f_inv, g))) for g in bs.sphere_data(ng)]
        else:  # the g in S_ng with |f^-1 g| < ng are the f h outside B_{ng-1}
            below = {h: nh for nh in range(ng) for h in bs.sphere_data(nh)}
            moved = ((mul(f.data, h), nh) for h, nh in below.items())
            found = sorted(
                (r for r in moved if r[0] not in below), key=lambda r: group.sort_key(r[0])
            )
        for g_data, nfg in found:
            if nfg is None:
                raise OutOfRange(
                    f"f^-1 g escaped B_{bs.n_max} at g = {group.format_data(g_data)}"
                )
            if nfg != ng:
                row = (Element(group, g_data), ng, nfg)
                (violations if ng >= cut and nfg >= cut else exceptional).append(row)
    return BsAnnihilatorReport(f, n, radius, cut, checked, tuple(violations), tuple(exceptional))


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


def metric_axiom_check(bs: BallSystem, radius: int | None = None) -> MetricAxiomReport:
    """Identity, symmetry and triangle axioms over all in-range pairs.

    Every pair (x, y) with |x| + |y| <= radius is covered; properness at
    scale is reported as the finite layer sizes. The first failure raises
    with a witness, a pair with its own norms; a clean pass returns the
    report. ``pairs_checked`` counts the pairs covered, sum |S_i| |S_j| over
    i + j <= radius, not the products taken. The word metric is the ball
    system on the chain F_n = {e}.

    Level k is walked through R_k: its double-coset representatives if it is
    kept over a subgroup H_k > {e}, else its sphere S_k. r^-1 in B_k for
    each r in R_k makes every B_k symmetric, as (H r H)^-1 = H r^-1 H.
    Then, by symmetry and nesting, B_i B_j lies in B_{i+j} once the blocks
    1 <= i <= j do. If B_{i+j} is kept over H, then H holds H_i and H_j
    (see ``_compress``), so the block holds iff R_i M R_j lies in B_{i+j},
    with M = H_i H_j the larger of the two, taking one x m per left coset
    H x m. Other blocks go pair by pair over S_i x S_j.
    """
    group = bs.group
    identity = group.identity_data()
    norm_of, sphere = bs.norm_data, bs.sphere_data
    if radius is None:
        radius = bs.n_max
    if radius > bs.n_max:
        raise OutOfRange(f"radius {radius} exceeds the computed range {bs.n_max}")
    if radius < 0:
        raise OutOfRange(f"radius {radius} is negative")

    walk = []  # per level: (cosets of H_k > {e} or None, R_k, membership in B_k)
    for k, level in enumerate(bs._levels[: radius + 1]):
        if len(level.cosets.subgroup) > 1:
            walk.append((level.cosets, list(level.reps), level.__contains__))
        else:
            walk.append((None, sphere(k), level.__contains__))
    sizes = bs.layer_sizes()
    layer_sizes = tuple(b - a for a, b in zip([0, *sizes], sizes[: radius + 1]))
    for x in sphere(0):
        if x != identity:
            raise AxiomViolation(
                "a non-identity element has norm 0", element=group.format_data(x)
            )
    if norm_of(identity) != 0:
        raise AxiomViolation("the identity does not have norm 0")

    inv = group.inv_data
    for _, reps, inside in walk:
        for x in reps:
            if not inside(inv(x)):
                raise AxiomViolation(
                    "symmetry fails",
                    element=group.format_data(x),
                    norm=norm_of(x),
                    inverse_norm=norm_of(inv(x)),
                )

    mul = group.mul_data
    for i in range(1, radius // 2 + 1):
        for j in range(i, radius + 1 - i):
            target, _, inside = walk[i + j]
            if target is None:  # pair by pair
                xs, ys = [(x, None, x) for x in sphere(i)], sphere(j)
            else:
                xs, ys = [(x, None, x) for x in walk[i][1]], walk[j][1]
                held = walk[j][0] or walk[i][0]  # M, the larger of H_i and H_j
                if held:  # (x, m, x m), one per left coset H x m
                    xs = _left_transversal(group, target, walk[i][1], held.subgroup).values()
            for x, m, xm in xs:
                for y in ys:
                    if inside(mul(xm, y)):
                        continue
                    if not walk[i][2](xm):  # M = H_j: the pair is x, m y
                        xm, y = x, mul(m, y)
                    raise AxiomViolation(
                        f"triangle inequality fails: x*y lies outside B_{i + j}",
                        x=group.format_data(xm),
                        y=group.format_data(y),
                        norm_x=norm_of(xm),
                        norm_y=norm_of(y),
                        norm_xy=norm_of(mul(xm, y)),
                    )
    pairs = sum(
        layer_sizes[i] * layer_sizes[j] for i in range(radius + 1) for j in range(radius + 1 - i)
    )
    return MetricAxiomReport("ballsystem", radius, pairs, layer_sizes)
