"""Exact linear algebra against independent oracles: determinants against
the Leibniz sum, inverses against the identity, null spaces against A·v = 0
and the rank from nonzero minors, lattice_index against a residue count,
mat_vec against the index-sum formula."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from horobound.linalg import (
    identity_matrix,
    lattice_index,
    mat_det,
    mat_inv,
    mat_inv_int,
    mat_mul,
    mat_vec,
    nullspace,
)

from oracles import mat_vec as mat_vec_oracle


def _det(rows):
    """Leibniz expansion; fine for d <= 4."""
    d = len(rows)
    total = 0
    for perm in permutations(range(d)):
        inversions = sum(perm[i] > perm[j] for i in range(d) for j in range(i + 1, d))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def brute_index(vectors, d):
    """[Z^d : L] by counting residues in the box [0, M)^d, or 0 if L is thin.

    M is the smallest nonzero |det| of d of the vectors. Then M Z^d lies in L
    (multiply by the adjugate), so the box holds M^d residues of Z^d / M Z^d
    and L cuts them into M^d / |L mod M| classes. L mod M is the closure of
    the vectors under addition in (Z/M)^d.
    """
    minors = [abs(_det(rows)) for rows in combinations(vectors, d)]
    minors = [m for m in minors if m]
    if not minors:
        return 0
    m = min(minors)
    zero = (0,) * d
    seen = {zero}
    stack = [zero]
    while stack:
        x = stack.pop()
        for v in vectors:
            y = tuple((a + b) % m for a, b in zip(x, v))
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return m**d // len(seen)


@pytest.mark.parametrize(
    "vectors, d, index",
    [
        ([(2,)], 1, 2),
        ([(-6,), (4,), (0,)], 1, 2),
        ([(1, 0), (0, 1)], 2, 1),
        ([(2, 0), (0, 3)], 2, 6),
        ([(1, 1), (1, -1)], 2, 2),
        ([(2, 0), (0, 2), (-2, -2), (4, 6)], 2, 4),  # redundant and negative
        ([(2, 1, 0), (0, 3, 1), (1, 0, 2)], 3, 13),
        ([(1, 2), (2, 4), (-3, -6)], 2, 0),  # rank 1 in Z^2
        ([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 3, 0),
        ([], 2, 0),
        ([(0, 0)], 2, 0),
        ([], 0, 1),
        ([()], 0, 1),
    ],
)
def test_lattice_index_cases(vectors, d, index):
    assert brute_index(vectors, d) == index
    assert lattice_index(vectors, d) == index


def test_lattice_index_random_against_residue_count():
    rng = random.Random(20251018)
    thin = full = 0
    for _ in range(150):
        d = rng.randint(1, 3)
        k = rng.randint(max(1, d - 1), d + 2)
        vectors = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(k)]
        expected = brute_index(vectors, d)
        assert lattice_index(vectors, d) == expected, vectors
        if expected:
            full += 1
        else:
            thin += 1
    # the sample exercises both outcomes
    assert full > 50 and thin > 10


def _rank(rows, cols):
    """Largest k with a nonzero k x k minor."""
    for k in range(min(len(rows), cols), 0, -1):
        for rsel in combinations(rows, k):
            for csel in combinations(range(cols), k):
                if _det([[row[c] for c in csel] for row in rsel]):
                    return k
    return 0


def _random_matrix(rng, n, cols):
    # small entries, so zeros, repeated rows and singular matrices are common
    return [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(n)]


@pytest.mark.parametrize(
    "a, det",
    [
        ((), 1),
        (((5,),), 5),
        (((0, 1), (1, 0)), -1),  # row swap at the first step
        (((0, 1, 0), (0, 0, 1), (1, 0, 0)), 1),
        (((1, 2, 3), (2, 4, 7), (0, 1, 1)), -1),  # row swap at the second step
        (((0, 2, 0, 0), (3, 0, 0, 0), (0, 0, 0, 5), (0, 0, 7, 0)), 210),
        (((1, 1, 1, 1), (1, 1, 2, 3), (1, 1, 3, 5), (2, 3, 4, 5)), 0),
    ],
)
def test_mat_det_cases(a, det):
    assert _det(a) == det
    assert mat_det(a) == det


def test_mat_det_random_against_leibniz():
    rng = random.Random(20261018)
    for _ in range(300):
        d = rng.randint(0, 4)
        a = _random_matrix(rng, d, d)
        assert mat_det(a) == _det(a), a


def test_mat_inv_random_against_identity():
    rng = random.Random(20261019)
    singular = regular = 0
    for _ in range(300):
        d = rng.randint(1, 4)
        a = _random_matrix(rng, d, d)
        if _det(a) == 0:
            singular += 1
            with pytest.raises(ValueError):
                mat_inv(a)
        else:
            regular += 1
            inv = mat_inv(a)
            assert mat_mul(a, inv) == identity_matrix(d), a
            assert mat_mul(inv, a) == identity_matrix(d), a
    assert mat_inv(()) == ()
    # the sample exercises both outcomes
    assert singular > 30 and regular > 100


def test_mat_inv_int():
    a = ((2, 1, 0), (1, 1, 0), (0, 0, -1))
    inv = mat_inv_int(a)
    assert all(type(x) is int for row in inv for x in row)
    assert mat_mul(a, inv) == identity_matrix(3)
    with pytest.raises(ValueError, match="not integral"):
        mat_inv_int(((2, 0), (0, 1)))
    with pytest.raises(ValueError):
        mat_inv_int(((1, 2), (2, 4)))


def test_nullspace_random_against_rank():
    rng = random.Random(20261020)
    for _ in range(300):
        cols = rng.randint(1, 4)
        a = _random_matrix(rng, rng.randint(0, 4), cols)
        basis = nullspace(a, cols)
        assert len(basis) == cols - _rank(a, cols), a
        assert all(len(v) == cols for v in basis)
        assert all(not any(mat_vec(a, v)) for v in basis), a
        assert _rank(basis, cols) == len(basis), a  # independent


def test_nullspace_of_no_rows_is_the_standard_basis():
    assert nullspace([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert nullspace([], 0) == []
    assert nullspace([(0, 0)], 2) == [(1, 0), (0, 1)]


def test_mat_vec_random_against_index_sums():
    rng = random.Random(23)
    for _ in range(200):
        n, d = rng.randint(0, 4), rng.randint(0, 4)
        a = _random_matrix(rng, n, d)
        v = tuple(rng.randint(-10**6, 10**6) for _ in range(d))
        assert mat_vec(a, v) == mat_vec_oracle(a, v)
        fa = tuple(tuple(Fraction(x, rng.randint(1, 9)) for x in row) for row in a)
        fv = tuple(Fraction(x, rng.randint(1, 9)) for x in v)
        for m, w in ((fa, fv), (fa, v), (a, fv)):
            got, want = mat_vec(m, w), mat_vec_oracle(m, w)
            assert got == want
            assert [type(x) for x in got] == [type(x) for x in want]
