"""Small exact linear algebra kit: integer matrices, lattices, rational RREF.

Everything here is pure Python over ``int`` and ``fractions.Fraction``; sizes
are tiny (ambient dimension <= 3 in practice) so clarity beats asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
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
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def mat_det(a: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix (expansion for d<=3, else Bareiss)."""
    d = len(a)
    if d == 0:
        return 1
    if d == 1:
        return a[0][0]
    if d == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    if d == 3:
        return (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        )
    # Bareiss fraction-free elimination for the general case.
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
    """Exact inverse via Gauss-Jordan; raises ValueError when singular."""
    d = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)]
           for i, row in enumerate(a)]
    for col in range(d):
        pivot = next((r for r in range(col, d) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = Fraction(1) / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[d:]) for row in aug)


def mat_inv_int(a: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular integer matrix, kept integral."""
    inv = mat_inv(a)
    out = []
    for row in inv:
        if any(x.denominator != 1 for x in row):
            raise ValueError("matrix inverse is not integral")
        out.append(tuple(int(x) for x in row))
    return tuple(out)


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


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Fraction; returns (matrix, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv_p = Fraction(1) / m[r][c]
        m[r] = [x * inv_p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def nullspace(rows: Sequence[Sequence]) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space of the given matrix, exact."""
    if not rows:
        return []
    cols = len(rows[0])
    m, pivots = rref(rows)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
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
