"""Integer lattices: lattice_index against a brute-force residue count."""

import random
from itertools import combinations, permutations

import pytest

from horobound.linalg import lattice_index


def _det(rows):
    """Leibniz expansion; fine for d <= 3."""
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
