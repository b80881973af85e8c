"""Exact elements and validated descriptions for four computable group families.

Families:

* ``fg_abelian``     -- Z^d x Z/t_1 x ... x Z/t_k, written as integer tuples
                        with torsion coordinates reduced.
* ``vab_extension``  -- Z^d extended by a finite quotient Q with unimodular
                        action matrices and an integral 2-cocycle, written (v;q).
* ``finite``         -- an explicit multiplication table, identity at index 0.
* ``lamplighter_z2`` -- (sum_Z Z/2) x| Z, elements (lamp bitmask, lowest lamp, shift).

The first three are one class, ``ExtensionGroup``, on one data shape: the
flat tuple (v_1, ..., v_d, q) of a free part in Z^d and a coset index q in a
finite quotient Q. It holds the only product, inverse and ball keys; the
family classes add their notation and spec checks. ``fg_abelian`` has
Q = Z/t_1 x ... x Z/t_k in mixed radix, the first coordinate fastest, and
a finite table is the rank-0 case (i,) with Q the group itself. On that
normal form ``subgroup_index`` decides [G : <X>] exactly (Schreier's
lemma), and generation is index 1.

Every element is stored in a canonical form, so equality of stored data is
equality in the group; this is what makes breadth-first searches over balls
exact. All structural invariants are checked eagerly at build time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from operator import add, mod, mul, neg
from typing import Callable, Iterable, Sequence, Union

from .errors import (
    BadCocycle,
    DoesNotGenerate,
    GroupMismatch,
    IdentityGenerator,
    LabelCount,
    NonUnimodularAction,
    NotASubgroup,
    RepeatedGenerator,
    SizeBudget,
    TableNotGroup,
)
from .linalg import (
    identity_matrix,
    lattice_index,
    mat_det,
    mat_inv_int,
    mat_mul,
    mat_vec,
)

IntVec = tuple[int, ...]
IntMatrix = tuple[IntVec, ...]
# (identity key, a layer's keys -> their products flat in (x, s) order, keys -> data or None)
BallKeys = tuple[object, Callable[[list], list], Callable[[list], list[tuple]] | None]

__all__ = [
    "Element",
    "Group",
    "ExtensionGroup",
    "FgAbelianSpec",
    "VAbExtensionSpec",
    "FiniteGroupSpec",
    "LamplighterZ2Spec",
    "GroupSpec",
    "GeneratingSet",
    "TABLE_ORDER_BUDGET",
    "build_group",
    "check_subgroup",
    "lamp_normal_form",
    "coset_sweep",
    "subgroup_index",
    "symmetric_generating_set",
    "cyclic_table",
    "direct_product_table",
]


# ---------------------------------------------------------------------------
# specs


@dataclass(frozen=True)
class FgAbelianSpec:
    """Z^free_rank times the product of Z/t for t in torsion."""

    free_rank: int
    torsion: tuple[int, ...] = ()


@dataclass(frozen=True)
class VAbExtensionSpec:
    """Z^rank twisted by a finite quotient.

    ``quotient_table[q][p]`` is the product in Q (identity at index 0),
    ``action[q]`` the matrix by which q acts on Z^rank, and
    ``cocycle[q][p]`` the correction vector entering (v,q)*(w,p) =
    (v + action[q] w + cocycle[q][p], q p).
    """

    rank: int
    quotient_table: tuple[tuple[int, ...], ...]
    action: tuple[IntMatrix, ...]
    cocycle: tuple[tuple[IntVec, ...], ...]


@dataclass(frozen=True)
class FiniteGroupSpec:
    table: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class LamplighterZ2Spec:
    pass


GroupSpec = Union[FgAbelianSpec, VAbExtensionSpec, FiniteGroupSpec, LamplighterZ2Spec]


# Validating a table of order n walks all n^3 triples, once for
# associativity and, for an extension, once more for the cocycle identity.
# Past this order a table is refused before any triple is visited.
TABLE_ORDER_BUDGET = 64


def _check_table_order(n: int, what: str) -> None:
    if n > TABLE_ORDER_BUDGET:
        raise SizeBudget(
            f"{what} has order {n}, past the table budget {TABLE_ORDER_BUDGET}"
            f" (its validation walks {n}^3 triples)"
        )


def cyclic_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Multiplication table of Z/n with identity at index 0.

    Refused past ``TABLE_ORDER_BUDGET``, before the n^2 entries are built.
    """
    if n < 1:
        raise ValueError(f"cyclic order must be >= 1, got {n}")
    _check_table_order(n, f"Z/{n}")
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def _mixed_radix(orders: Sequence[int], coords: Sequence[int]) -> int:
    """Index of coords in Z/t_1 x ... x Z/t_k, the first coordinate fastest."""
    i = 0
    for t, c in zip(reversed(orders), reversed(coords)):
        i = i * t + c
    return i


def _mixed_radix_coords(orders: Sequence[int]) -> list[IntVec]:
    """The coordinates of each index of Z/t_1 x ... x Z/t_k, the first fastest."""
    coords = [()]
    for t in orders:
        coords = [c + (x,) for x in range(t) for c in coords]
    return coords


def direct_product_table(orders: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Table of a product of cyclic groups, indexed in mixed radix."""
    coords = _mixed_radix_coords(orders)
    return tuple(
        tuple(_mixed_radix(orders, [(x + y) % t for x, y, t in zip(a, b, orders)]) for b in coords)
        for a in coords
    )


# ---------------------------------------------------------------------------
# elements


@dataclass(frozen=True, slots=True)
class Element:
    """A group element: a group handle plus canonical payload data."""

    group: "Group"
    data: tuple

    def __mul__(self, other: "Element") -> "Element":
        return self.group.mul(self, other)

    def inverse(self) -> "Element":
        return self.group.inv(self)

    def __pow__(self, n: int) -> "Element":
        g = self.group
        if n < 0:
            return g.inv(self) ** (-n)
        acc = g.identity_data()
        base = self.data
        while n:
            if n & 1:
                acc = g.mul_data(acc, base)
            base = g.mul_data(base, base)
            n >>= 1
        return Element(g, acc)

    def is_identity(self) -> bool:
        return self.data == self.group.identity_data()

    def __str__(self) -> str:
        return self.group.format_data(self.data)

    def __repr__(self) -> str:
        return f"Element({self})"


class Group:
    """Shared machinery; subclasses provide the data-level operations.

    ``canonical`` maps accepted input forms to the stored data, and it is
    idempotent: ``canonical(x.data) == x.data`` for every element x, so data
    read back from a ball can be fed to ``element`` again. Stored data need
    not sort in a meaningful order; ``sort_key(data)`` gives the order every
    report uses (by default the data itself).
    """

    family = "abstract"

    # data-level interface -------------------------------------------------
    def identity_data(self) -> tuple:
        raise NotImplementedError

    def mul_data(self, a: tuple, b: tuple) -> tuple:
        raise NotImplementedError

    def inv_data(self, a: tuple) -> tuple:
        raise NotImplementedError

    def canonical(self, data) -> tuple:
        raise NotImplementedError

    def sort_key(self, data: tuple):
        return data

    def format_data(self, data: tuple) -> str:
        raise NotImplementedError

    def parse(self, text: str) -> Element:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError

    def ball_keys(self, gen_data: Sequence[tuple], radius: int) -> BallKeys:
        """The keys a breadth-first search out to ``radius`` stores elements
        under: the identity's key, the list of keys of one layer -> the keys
        of x s for x in it and s in ``gen_data``, flat in (x, s) order, and
        the list of keys -> the list of their data (None: a key is its data).

        Here a key is the data and a product is ``mul_data``.
        """
        mul = self.mul_data
        return self.identity_data(), lambda ks: [mul(x, s) for x in ks for s in gen_data], None

    # element-level wrappers ------------------------------------------------
    def identity(self) -> Element:
        return Element(self, self.identity_data())

    def element(self, data) -> Element:
        return Element(self, self.canonical(data))

    def mul(self, a: Element, b: Element) -> Element:
        if a.group is not self or b.group is not self:
            raise GroupMismatch(f"cannot multiply across groups: {a!r} * {b!r}")
        return Element(self, self.mul_data(a.data, b.data))

    def inv(self, a: Element) -> Element:
        if a.group is not self:
            raise GroupMismatch(f"element {a!r} does not belong to this group")
        return Element(self, self.inv_data(a.data))


class ExtensionGroup(Group):
    """Z^rank extended by a finite quotient Q, on the data (v_1, ..., v_d, q).

    q is a coset index in Q (identity at 0) and v the free part in Z^rank,
    with the product (v; q)(w; p) = (v + A_q w + c(q, p); qp). ``action[q]``
    is the unimodular A_q (the identity everywhere when ``action`` is None),
    ``cocycle[q][p]`` the normalized 2-cocycle c (zero when ``cocycle`` is
    None), ``table`` is Q's product and ``q_inverse`` its inverses. Kernel
    elements are exactly those in coset 0, and ``xi`` is their coordinate
    vector. The family classes add their spec checks and notation
    (``canonical``, ``format_data``, ``parse``, ``sort_key``, ``describe``);
    ``fg_abelian`` also multiplies in Q by mixed radix, not by a table.
    """

    table: tuple[tuple[int, ...], ...]

    def __init__(
        self,
        rank: int,
        q_inverse: Sequence[int],
        action: Sequence[IntMatrix] | None = None,
        cocycle: Sequence[Sequence[IntVec]] | None = None,
    ):
        nq = len(q_inverse)
        self.rank = rank
        self.quotient_order = nq
        self.q_inverse = tuple(q_inverse)
        self.cocycle = cocycle
        self._identity = (0,) * (rank + 1)
        ident = identity_matrix(rank)
        self.action = (ident,) * nq if action is None else tuple(action)
        # A_q and A_q^-1, None where A_q = I, so a product skips the identity
        self._act = tuple(None if m == ident else m for m in self.action)
        self._act_inv = tuple(None if m == ident else mat_inv_int(m) for m in self.action)
        # (c(q, p); qp - q - p) under the key q |Q| + p, each made on first
        # use: all |Q|^2 of them would outweigh a ball when Q is large
        self._corrections: dict[int, IntVec] = {}

    def _q_product(self, q: int, p: int) -> int:
        return self.table[q][p]

    def _correction(self, q: int, p: int) -> IntVec:
        c = (0,) * self.rank if self.cocycle is None else self.cocycle[q][p]
        corr = (*c, self._q_product(q, p) - q - p)
        self._corrections[q * self.quotient_order + p] = corr
        return corr

    def identity_data(self) -> tuple:
        return self._identity

    # The product is one C-level sum of a, the moved b and the correction,
    # through map rather than a generator expression per product; no matrix
    # is applied where A_q = I, at q = 0 always and at every q of a trivial
    # action. mat_vec reads only the first ``rank`` entries of the data.
    def mul_data(self, a: tuple, b: tuple) -> tuple:
        q = a[-1]
        p = b[-1]
        c = self._corrections.get(q * self.quotient_order + p) or self._correction(q, p)
        m = self._act[q]
        if m is not None:
            b = (*mat_vec(m, b), p)
        return tuple(map(add, map(add, a, b), c))

    # (v; q)^-1 = (A_q^-1 (-v - c(q, p)); p) for p = q^-1, and the correction
    # at (q, p) is (c(q, p); -q - p), so a + correction = (v + c(q, p); -p)
    def inv_data(self, a: tuple) -> tuple:
        q = a[-1]
        p = self.q_inverse[q]
        c = self._corrections.get(q * self.quotient_order + p) or self._correction(q, p)
        w = tuple(map(neg, map(add, a, c)))
        m = self._act_inv[q]
        return w if m is None else (*mat_vec(m, w), p)

    def coset_of(self, data: tuple) -> int:
        return data[-1]

    def free_part(self, data: tuple) -> IntVec:
        return data[:-1]

    def join(self, vec: Sequence[int], q: int) -> tuple:
        """The data with free part ``vec`` in coset q: the inverse of
        (``free_part``, ``coset_of``)."""
        return (*vec, q)

    def kernel_element(self, vec: Sequence[int]) -> Element:
        return self.element(self.join(vec, 0))

    def ball_keys(self, gen_data: Sequence[tuple], radius: int) -> BallKeys:
        """Packed integer keys: (v, q) is q + |Q| sum_i (v_i + OFF) W^i.

        Right multiplication by a generator depends only on the coset,
        (v, q) s = (v + d(q, s), q p_s), and the key is affine in v, so the
        key of x s is key(x) + step[q][s]: one table read and one add. The
        table comes from the |Q| |S| products join(0, q) s.

        No key wraps. Let c be the largest |d_i(q, s)|. A search out to
        ``radius`` forms products of elements of norm <= radius only, so
        every element it meets has |v_i| <= (radius + 1) c. With
        OFF = (radius + 1) c + 1 and W = 2 OFF + 1, each digit v_i + OFF lies
        in 1 .. W - 2, so distinct elements have distinct keys and decoding
        (key mod |Q|, then base-W digits) recovers q and v.
        """
        nq, rank = self.quotient_order, self.rank
        zero = (0,) * rank
        rows = [[self.mul_data((*zero, q), s) for s in gen_data] for q in range(nq)]
        c = max((abs(v) for row in rows for y in row for v in y[:-1]), default=0)
        off = (radius + 1) * c + 1
        w = 2 * off + 1
        weights = [nq * w**i for i in range(rank)]
        # map(mul, y, weights) stops at the free part, as weights has rank entries
        steps = tuple(
            tuple(y[-1] - q + sum(map(mul, y, weights)) for y in row)
            for q, row in enumerate(rows)
        )

        def decode(keys: list[int]) -> list[tuple]:
            digits = [[k // u % w - off for k in keys] for u in weights]
            return list(zip(*digits, [k % nq for k in keys]))

        return off * sum(weights), lambda ks: [x + d for x in ks for d in steps[x % nq]], decode

    def in_kernel(self, data: tuple) -> bool:
        return data[-1] == 0

    def xi(self, data: tuple) -> IntVec:
        """Coordinates of an element of the free abelian kernel."""
        if not self.in_kernel(data):
            raise ValueError(f"{self.format_data(data)} is not in the free abelian kernel")
        return data[:-1]

    def act_vec(self, q: int, vec: Sequence) -> tuple:
        """The image of a kernel vector under the action of quotient element q."""
        if not 0 <= q < self.quotient_order:
            raise ValueError(
                f"quotient index {q} out of range 0..{self.quotient_order - 1}"
            )
        vec = tuple(vec)
        if len(vec) != self.rank:
            raise ValueError(f"expected a rank-{self.rank} vector, got {vec}")
        return mat_vec(self.action[q], vec)


def _check_table(table: Sequence[Sequence[int]], what: str) -> None:
    n = len(table)
    if n == 0:
        raise TableNotGroup(f"{what}: empty table")
    _check_table_order(n, f"{what} table")
    for row in table:
        if len(row) != n or any(not (0 <= x < n) for x in row):
            raise TableNotGroup(f"{what}: table is not square over 0..{n - 1}")
    for i in range(n):
        if table[0][i] != i or table[i][0] != i:
            raise TableNotGroup(f"{what}: index 0 is not a two-sided identity")
        if sorted(table[i]) != list(range(n)) or sorted(r[i] for r in table) != list(range(n)):
            raise TableNotGroup(f"{what}: row/column {i} is not a permutation")
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    raise TableNotGroup(
                        f"{what}: associativity fails at ({a},{b},{c})"
                    )
    for a in range(n):
        if not any(table[a][b] == 0 and table[b][a] == 0 for b in range(n)):
            raise TableNotGroup(f"{what}: element {a} has no two-sided inverse")


def _table_inverses(table: Sequence[Sequence[int]]) -> tuple[int, ...]:
    n = len(table)
    return tuple(next(b for b in range(n) if table[a][b] == 0) for a in range(n))


# ---------------------------------------------------------------------------
# family: finitely generated abelian


class FgAbelianGroup(ExtensionGroup):
    """Z^rank x T as a trivial-action extension; Q = T in mixed radix.

    Written as the free coordinates, then each torsion coordinate reduced;
    stored as the free coordinates, then the mixed-radix index q.
    """

    family = "fg_abelian"

    def __init__(self, spec: FgAbelianSpec):
        if spec.free_rank < 0:
            raise ValueError(f"free rank must be >= 0, got {spec.free_rank}")
        for t in spec.torsion:
            if t < 2:
                raise ValueError(f"torsion orders must be >= 2, got {t}")
        self.torsion = t = tuple(spec.torsion)
        self._coords = _mixed_radix_coords(t)
        inverses = [_mixed_radix(t, [-x % n for x, n in zip(c, t)]) for c in self._coords]
        super().__init__(spec.free_rank, inverses)

    # built on first use: only the vabelian pipeline reads it
    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        return direct_product_table(self.torsion)

    def _q_product(self, q: int, p: int) -> int:
        """qp by adding torsion coordinates, with no |Q|^2 table."""
        t, coords = self.torsion, self._coords
        return _mixed_radix(t, list(map(mod, map(add, coords[q], coords[p]), t)))

    def canonical(self, data) -> tuple:
        """Data from the written coordinates, or from data: the two differ
        in length, except with one torsion order, where they agree."""
        coords = tuple(int(x) for x in data)
        d, t = self.rank, self.torsion
        if len(coords) == d + len(t):
            return coords[:d] + (_mixed_radix(t, list(map(mod, coords[d:], t))),)
        if len(coords) != d + 1:
            raise ValueError(f"expected {d + len(t)} coordinates, got {len(coords)}")
        if not 0 <= coords[d] < self.quotient_order:
            raise ValueError(f"quotient index {coords[d]} out of range")
        return coords

    def sort_key(self, data: tuple) -> tuple:
        """The written coordinates: mixed radix puts the first torsion
        coordinate fastest, so q alone would not sort as they do."""
        return data[:-1] + self._coords[data[-1]]

    def format_data(self, data: tuple) -> str:
        return "(" + ",".join(str(x) for x in self.sort_key(data)) + ")"

    def parse(self, text: str) -> Element:
        return self.element(_parse_int_tuple(text, self.rank + len(self.torsion)))

    def describe(self) -> dict:
        return {
            "family": self.family,
            "free_rank": self.rank,
            "torsion": list(self.torsion),
        }


# ---------------------------------------------------------------------------
# family: virtually abelian extension


class VAbExtensionGroup(ExtensionGroup):
    """A spec's extension as it stands, written (v_1,...,v_d;q)."""

    family = "vab_extension"

    def __init__(self, spec: VAbExtensionSpec):
        d = spec.rank
        if d < 0:
            raise ValueError(f"rank must be >= 0, got {d}")
        table = tuple(tuple(row) for row in spec.quotient_table)
        _check_table(table, "quotient")
        nq = len(table)
        action = tuple(tuple(tuple(row) for row in m) for m in spec.action)
        if len(action) != nq:
            raise BadCocycle(f"need one action matrix per quotient element: {len(action)} != {nq}")
        for q, m in enumerate(action):
            if len(m) != d or any(len(row) != d for row in m):
                raise BadCocycle(f"action matrix for q={q} is not {d}x{d}")
            if abs(mat_det(m)) != 1:
                raise NonUnimodularAction(
                    f"action matrix for q={q} has determinant {mat_det(m)}"
                )
        if action[0] != identity_matrix(d):
            raise BadCocycle("action at the quotient identity must be the identity matrix")
        for q in range(nq):
            for p in range(nq):
                if mat_mul(action[q], action[p]) != action[table[q][p]]:
                    raise BadCocycle(
                        f"action is not a homomorphism at ({q},{p})"
                    )
        cocycle = tuple(tuple(tuple(v) for v in row) for row in spec.cocycle)
        if len(cocycle) != nq or any(len(row) != nq for row in cocycle):
            raise BadCocycle("cocycle must be indexed by Q x Q")
        zero = (0,) * d
        for q in range(nq):
            if cocycle[0][q] != zero or cocycle[q][0] != zero:
                raise BadCocycle("cocycle must be normalized: c(1,q) = c(q,1) = 0")
            for v in cocycle[q]:
                if len(v) != d:
                    raise BadCocycle(f"cocycle vectors must have length {d}")
        for q in range(nq):
            for p in range(nq):
                for s in range(nq):
                    lhs = tuple(
                        x + y
                        for x, y in zip(mat_vec(action[q], cocycle[p][s]), cocycle[q][table[p][s]])
                    )
                    rhs = tuple(x + y for x, y in zip(cocycle[q][p], cocycle[table[q][p]][s]))
                    if lhs != rhs:
                        raise BadCocycle(f"cocycle identity fails at ({q},{p},{s})")
        self.table = table
        super().__init__(d, _table_inverses(table), action, cocycle)

    def canonical(self, data) -> tuple:
        """Data from (v, q) as written, or from data (v_1, ..., v_d, q)."""
        if data and isinstance(data[0], (tuple, list)):
            vec, q = data
        else:
            *vec, q = data
        vec = tuple(int(x) for x in vec)
        q = int(q)
        if len(vec) != self.rank:
            raise ValueError(f"expected a rank-{self.rank} vector, got {vec}")
        if not (0 <= q < self.quotient_order):
            raise ValueError(f"quotient index {q} out of range")
        return (*vec, q)

    def format_data(self, data: tuple) -> str:
        return "(" + ",".join(str(x) for x in data[:-1]) + f";{data[-1]})"

    def parse(self, text: str) -> Element:
        m = re.fullmatch(r"\s*\(([^;]*);\s*(-?\d+)\s*\)\s*", text)
        if not m:
            raise ValueError(f"cannot parse extension element from {text!r}")
        body = m.group(1).strip()
        vec = tuple(int(x) for x in body.split(",")) if body else ()
        return self.element((vec, int(m.group(2))))

    def describe(self) -> dict:
        return {
            "family": self.family,
            "rank": self.rank,
            "quotient_order": self.quotient_order,
            "action": [[list(r) for r in m] for m in self.action],
        }


# ---------------------------------------------------------------------------
# family: finite table group


class FiniteTableGroup(ExtensionGroup):
    """An explicit table as the rank-0 extension: Q is the group itself,
    and the data (i,) is the table index."""

    family = "finite"

    def __init__(self, spec: FiniteGroupSpec):
        table = tuple(tuple(row) for row in spec.table)
        _check_table(table, "group")
        self.table = table
        self.order = len(table)
        super().__init__(0, _table_inverses(table))

    def canonical(self, data) -> tuple:
        if isinstance(data, int):
            data = (data,)
        (i,) = data
        i = int(i)
        if not (0 <= i < self.order):
            raise ValueError(f"index {i} out of range for group of order {self.order}")
        return (i,)

    def format_data(self, data: tuple) -> str:
        return f"({data[0]})"

    def parse(self, text: str) -> Element:
        m = re.fullmatch(r"\s*\(?\s*(\d+)\s*\)?\s*", text)
        if not m:
            raise ValueError(f"cannot parse finite-group element from {text!r}")
        return self.element((int(m.group(1)),))

    def describe(self) -> dict:
        return {"family": self.family, "order": self.order}


# ---------------------------------------------------------------------------
# family: lamplighter over Z/2


_LIT_FIRST = str.maketrans("01", "10")


def lamp_normal_form(mask: int, low: int, shift: int) -> tuple:
    """Canonical lamplighter data: the trailing zeros of mask moved into low.

    ``LamplighterGroup.mul_data`` keeps an inline copy on its hot path."""
    if not mask:
        return (0, 0, shift)
    zeros = (mask & -mask).bit_length() - 1
    return (mask >> zeros, low + zeros, shift)


class LamplighterGroup(Group):
    """(sum_Z Z/2) x| Z = F_2[t, t^-1] x| Z on Python ints.

    data = (mask, low, shift): lamp low + i is lit iff bit i of mask is set.
    A nonempty mask is odd, so low is the lowest lit lamp, and the empty
    support is (0, 0, shift); the form is canonical for any positions. The
    product (f, s) * (g, u) = (f + t^s g, s + u) is one shift and one XOR.
    ``sort_key`` orders by (sorted tuple of lit lamps, shift).
    """

    family = "lamplighter_z2"

    def identity_data(self) -> tuple:
        return (0, 0, 0)

    def canonical(self, data) -> tuple:
        """(support, shift) with support any iterable of positions (a set:
        repeats do not cancel), or an already encoded (mask, low, shift)."""
        if len(data) == 3:
            mask, low, shift = (int(x) for x in data)
            if mask < 0:
                raise ValueError(f"lamp mask must be >= 0, got {mask}")
        else:
            support, shift = data
            positions = {int(p) for p in support}
            low = min(positions, default=0)
            mask = sum(1 << (p - low) for p in positions)
            shift = int(shift)
        return lamp_normal_form(mask, low, shift)

    def mul_data(self, a: tuple, b: tuple) -> tuple:
        # canonical in, canonical out: only equal lows can clear bit 0
        ma, la, s = a
        mb, lb, u = b
        if not mb:
            return (ma, la, s + u)
        lb += s
        if not ma:
            return (mb, lb, s + u)
        if la < lb:
            return (ma ^ (mb << (lb - la)), la, s + u)
        if lb < la:
            return (mb ^ (ma << (la - lb)), lb, s + u)
        m = ma ^ mb
        if not m:
            return (0, 0, s + u)
        zeros = (m & -m).bit_length() - 1
        return (m >> zeros, la + zeros, s + u)

    def inv_data(self, a: tuple) -> tuple:
        mask, low, s = a
        return (mask, low - s, -s) if mask else (0, 0, -s)

    @staticmethod
    def support(data: tuple) -> tuple[int, ...]:
        """The lit lamp positions, ascending."""
        mask, low, _ = data
        out = []
        while mask:
            bit = mask & -mask
            out.append(low + bit.bit_length() - 1)
            mask ^= bit
        return tuple(out)

    def sort_key(self, data: tuple) -> tuple:
        """A key in the order of (support tuple, shift), with no per-lamp loop.

        The key is (mask > 0, low, lamps, shift), where ``lamps`` spells the
        mask from bit 0 up with a lit lamp as "0" and a dark one as "1". An
        empty support sorts first, then a lower first lamp. With equal lows,
        at the first lamp where two supports differ, the one with that lamp
        lit sorts first, unless the other has no lamps left: then the other
        is a prefix of it, in the tuple and in the string alike.
        """
        mask, low, shift = data
        return (mask > 0, low, bin(mask)[:1:-1].translate(_LIT_FIRST), shift)

    def format_data(self, data: tuple) -> str:
        return "({" + ",".join(str(p) for p in self.support(data)) + "};" + f"{data[2]})"

    def parse(self, text: str) -> Element:
        m = re.fullmatch(r"\s*\(\{([^}]*)\}\s*;\s*(-?\d+)\s*\)\s*", text)
        if not m:
            raise ValueError(f"cannot parse lamplighter element from {text!r}")
        body = m.group(1).strip()
        sup = tuple(int(x) for x in body.split(",")) if body else ()
        return self.element((sup, int(m.group(2))))

    def describe(self) -> dict:
        return {"family": self.family}


# ---------------------------------------------------------------------------
# builder


def build_group(spec: GroupSpec) -> Group:
    """Validate a spec eagerly and return the group handle."""
    if isinstance(spec, FgAbelianSpec):
        return FgAbelianGroup(spec)
    if isinstance(spec, VAbExtensionSpec):
        return VAbExtensionGroup(spec)
    if isinstance(spec, FiniteGroupSpec):
        return FiniteTableGroup(spec)
    if isinstance(spec, LamplighterZ2Spec):
        return LamplighterGroup()
    raise TypeError(f"unknown group spec: {spec!r}")


def _parse_int_tuple(text: str, expect: int) -> tuple:
    m = re.fullmatch(r"\s*\(([^()]*)\)\s*", text)
    if not m:
        raise ValueError(f"cannot parse element from {text!r}")
    body = m.group(1).strip()
    coords = tuple(int(x) for x in body.split(",")) if body else ()
    if len(coords) != expect:
        raise ValueError(f"expected {expect} coordinates in {text!r}")
    return coords


# ---------------------------------------------------------------------------
# generating sets


@dataclass(frozen=True)
class GeneratingSet:
    """Ordered, inverse-closed generating set with stable labels."""

    elements: tuple[Element, ...]
    labels: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def group(self) -> Group:
        return self.elements[0].group


def symmetric_generating_set(
    group: Group,
    elements: Iterable[Element],
    labels: Sequence[str] | None = None,
) -> GeneratingSet:
    """Close the listed elements under inverse, label them, check generation.

    Listed elements come first in their given order; missing inverses are
    appended as ``<label>^-1``. An element listed twice, a label count other
    than the element count, or a label naming two generators is refused,
    never repaired. Generation is checked exactly on the extension normal
    form (fg_abelian, vab_extension and finite): the set must span a
    subgroup of index 1. A lamplighter set is not checked.
    """
    listed = list(elements)
    have: set[tuple] = set()
    for x in listed:
        if x.group is not group:
            raise GroupMismatch(f"generator {x!r} belongs to a different group")
        if x.is_identity():
            raise IdentityGenerator("the identity is not allowed as a generator")
        if x.data in have:
            raise RepeatedGenerator(f"generator {x} is listed twice")
        have.add(x.data)
    if not listed:
        raise DoesNotGenerate("empty generating set")
    if labels is None:
        labels = [f"s{i}" for i in range(len(listed))]
    elif len(labels) != len(listed):
        raise LabelCount(f"{len(labels)} labels for {len(listed)} generators")

    elems = list(listed)
    labs = list(labels)
    for x, lab in zip(listed, labels):
        ix = x.inverse()
        if ix.data not in have:
            elems.append(ix)
            labs.append(f"{lab}^-1")
    for i, lab in enumerate(labs):
        if lab in labs[:i]:
            raise RepeatedGenerator(f"label {lab!r} names two generators")

    if isinstance(group, ExtensionGroup):
        index = subgroup_index(group, elems)
        if index != 1:
            what = "infinite index" if index is None else f"index {index}"
            raise DoesNotGenerate(f"generators span a subgroup of {what}")
    return GeneratingSet(tuple(elems), tuple(labs))


def check_subgroup(group: Group, elems: frozenset, name: str) -> None:
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


def coset_sweep(group: ExtensionGroup, elems: Sequence[Element]) -> dict[int, tuple]:
    """Breadth-first sweep of <elems> over the quotient Q.

    Maps each coset that <elems> reaches to the data of a representative in
    <elems>, in sweep order starting from the identity's coset 0.
    """
    reps = {0: group.identity_data()}
    frontier = [0]
    while frontier:
        nxt = []
        for q in frontier:
            for s in elems:
                y = group.mul_data(reps[q], s.data)
                cq = group.coset_of(y)
                if cq not in reps:
                    reps[cq] = y
                    nxt.append(cq)
        frontier = nxt
    return reps


def subgroup_index(group: ExtensionGroup, elems: Sequence[Element]) -> int | None:
    """[G : <elems>], or None when the index is infinite.

    [G:H] = [Q:pi(H)] * [Z^d : H cap Z^d]. The coset sweep gives pi(H). The
    Schreier generators rep(q) s rep(q s)^-1 generate H cap Z^d (Schreier's
    lemma), so their lattice index is the second factor; 0 means infinite.
    """
    for x in elems:
        if x.group is not group:
            raise GroupMismatch(f"element {x!r} belongs to a different group")
    reps = coset_sweep(group, elems)
    schreier: list[IntVec] = []
    for rep in reps.values():
        for s in elems:
            y = group.mul_data(rep, s.data)
            back = group.inv_data(reps[group.coset_of(y)])
            schreier.append(group.free_part(group.mul_data(y, back)))
    lattice = lattice_index(schreier, group.rank)
    return group.quotient_order // len(reps) * lattice or None
