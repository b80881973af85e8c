"""Small exact linear algebra kit: integer matrices, lattices, rational RREF.

Every rational elimination (``rref``, ``mat_inv``, ``nullspace`` and the
simplex in ``polytope``) goes through one Gauss-Jordan step, ``pivot``;
integer determinants use Bareiss elimination at every size. Everything here
is pure Python over ``int`` and ``fractions.Fraction``; sizes are tiny
(ambient dimension <= 3 in practice) so clarity beats asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Sequence

IntVec = tuple[int, ...]
IntMatrix = tuple[IntVec, ...]

__all__ = [
    "identity_matrix",
    "mat_mul",
    "mat_vec",
    "mat_det",
    "mat_inv",
    "mat_inv_int",
    "lattice_index",
    "pivot",
    "rref",
    "nullspace",
    "primitive_integer",
]


def identity_matrix(d: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def mat_vec(a: Sequence[Sequence], v: Sequence) -> tuple:
    """A v, reading only the first len(row) entries of v, so an extension
    element's data (v_1, ..., v_d, q) can be passed whole.

    Each row is summed in C through map; this runs once per extension-group
    product, where a generator expression would cost more than the sum.
    """
    return tuple([sum(map(mul, row, v)) for row in a])


def mat_det(a: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss fraction-free elimination."""
    d = len(a)
    if d == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(d - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, d) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[d - 1][d - 1]


def mat_inv(a: Sequence[Sequence]) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse: the right half of rref([A | I]); raises ValueError when singular."""
    d = len(a)
    aug = [list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(a)]
    m, pivots = rref(aug)
    if pivots != list(range(d)):
        raise ValueError("singular matrix")
    return tuple(tuple(row[d:]) for row in m)


def mat_inv_int(a: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular integer matrix, kept integral."""
    inv = mat_inv(a)
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("matrix inverse is not integral")
    return tuple(tuple(int(x) for x in row) for row in inv)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Returns (g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def lattice_index(vectors: Sequence[Sequence[int]], dim: int) -> int:
    """Index in Z^dim of the lattice spanned by ``vectors``; 0 when not full rank."""
    if dim == 0:
        return 1
    rows = [list(v) for v in vectors if any(v)]
    index = 1
    for col in range(dim):
        pivot = None
        rest = []
        for row in rows:
            if row[col] == 0:
                rest.append(row)
                continue
            if pivot is None:
                pivot = row
                continue
            g, s, t = _ext_gcd(pivot[col], row[col])
            u, v = pivot[col] // g, row[col] // g
            combined = [s * p + t * q for p, q in zip(pivot, row)]
            killed = [-v * p + u * q for p, q in zip(pivot, row)]
            pivot = combined
            rest.append(killed)
        if pivot is None:
            return 0
        index *= abs(pivot[col])
        rows = rest
    return index


def pivot(m: list[list[Fraction]], row: int, col: int) -> None:
    """One Gauss-Jordan step in place: scale ``row`` so that m[row][col] = 1,
    then clear column ``col`` from every other row. m[row][col] must be nonzero."""
    inv = Fraction(1) / m[row][col]
    m[row] = [x * inv for x in m[row]]
    for i in range(len(m)):
        if i != row and m[i][col] != 0:
            f = m[i][col]
            m[i] = [x - f * y for x, y in zip(m[i], m[row])]


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Fraction; returns (matrix, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pivot(m, r, c)
        pivots.append(c)
    return m, pivots


def nullspace(rows: Sequence[Sequence], cols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space of a matrix with ``cols`` columns, exact.

    With no rows (or only zero rows) this is the standard basis of Q^cols.
    """
    m, pivots = rref(rows)
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -m[r][f]
        basis.append(tuple(vec))
    return basis


def primitive_integer(vec: Sequence) -> IntVec:
    """Scale a rational vector by a positive rational to primitive integers."""
    fracs = [Fraction(x) for x in vec]
    if all(x == 0 for x in fracs):
        return tuple(0 for _ in fracs)
    denom_lcm = 1
    for x in fracs:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in fracs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)
