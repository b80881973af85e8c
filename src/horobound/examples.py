"""Ready-made groups with their generating sets, shared by tests and docs.

Each constructor returns ``(group, gens)``. ``REGISTRY`` maps stable names to
zero-argument constructors; it is the population quantified over by the
randomized property suites.
"""

from __future__ import annotations

from typing import Callable

from .groups import (
    Element,
    FgAbelianGroup,
    FgAbelianSpec,
    GeneratingSet,
    Group,
    LamplighterGroup,
    VAbExtensionGroup,
    VAbExtensionSpec,
    cyclic_table,
    symmetric_generating_set,
)

__all__ = [
    "REGISTRY",
    "example",
    "z_line",
    "z2",
    "cylinder",
    "fat_cylinder",
    "z2_rot4",
    "lamplighter",
]

Pair = tuple[Group, GeneratingSet]


def z_line() -> Pair:
    group = FgAbelianGroup(FgAbelianSpec(free_rank=1))
    gens = symmetric_generating_set(group, [group.element((1,))], ["a"])
    return group, gens


def z2() -> Pair:
    group = FgAbelianGroup(FgAbelianSpec(free_rank=2))
    gens = symmetric_generating_set(
        group, [group.element((1, 0)), group.element((0, 1))], ["a", "b"]
    )
    return group, gens


def cylinder(n: int = 4) -> Pair:
    """Z x Z/n with S = {(+-1, 0), (+-1, +-1)}."""
    if n < 2:
        raise ValueError(f"cylinder needs a torsion order >= 2, got {n}")
    group = FgAbelianGroup(FgAbelianSpec(free_rank=1, torsion=(n,)))
    listed = [
        group.element((1, 0)),
        group.element((1, 1)),
        group.element((1, n - 1)),
    ]
    if n == 2:  # (1, 1) = (1, -1) is listed once
        listed.pop()
    gens = symmetric_generating_set(group, listed, ["a", "b", "c"][: len(listed)])
    return group, gens


def fat_cylinder(n: int = 3) -> Pair:
    """Z x Z/n generated by F S1 F minus the identity, F = 0 x Z/n.

    S1 is the standard generating set; the product absorbs the finite factor
    into every generator, which is what makes all of F indistinguishable from
    the identity at large scale.
    """
    if n < 2:
        raise ValueError(f"fat cylinder needs a torsion order >= 2, got {n}")
    group = FgAbelianGroup(FgAbelianSpec(free_rank=1, torsion=(n,)))
    finite = [group.element((0, c)) for c in range(n)]
    s1 = [
        group.element((1, 0)),
        group.element((-1, 0)),
        group.element((0, 1)),
        group.element((0, n - 1)),
    ]
    listed: list[Element] = []
    for a in finite:
        for s in s1:
            for b in finite:
                x = a * s * b
                if not x.is_identity() and x not in listed:
                    listed.append(x)
    gens = symmetric_generating_set(group, listed)
    return group, gens


def z2_rot4() -> Pair:
    """Z^2 extended by Z/4 acting by quarter turns, zero cocycle.

    Generators: lifts of the standard Z^2 generators plus the rotation and
    its inverse.
    """
    rot = ((0, -1), (1, 0))
    action = [((1, 0), (0, 1))]
    for _ in range(3):
        prev = action[-1]
        action.append(
            tuple(
                tuple(sum(rot[i][k] * prev[k][j] for k in range(2)) for j in range(2))
                for i in range(2)
            )
        )
    zero = (0, 0)
    spec = VAbExtensionSpec(
        rank=2,
        quotient_table=cyclic_table(4),
        action=tuple(action),
        cocycle=tuple(tuple(zero for _ in range(4)) for _ in range(4)),
    )
    group = VAbExtensionGroup(spec)
    listed = [
        group.element(((1, 0), 0)),
        group.element(((0, 1), 0)),
        group.element(((0, 0), 1)),
    ]
    gens = symmetric_generating_set(group, listed, ["a", "b", "r"])
    return group, gens


def lamplighter() -> Pair:
    """(sum_Z Z/2) x| Z with the shift and the lamp at the origin."""
    group = LamplighterGroup()
    listed = [group.element(((), 1)), group.element(((0,), 0))]
    gens = symmetric_generating_set(group, listed, ["t", "a"])
    return group, gens


REGISTRY: dict[str, Callable[[], Pair]] = {
    "z_line": z_line,
    "z2": z2,
    "cylinder_n4": cylinder,
    "z2_rot4": z2_rot4,
    "fat_cylinder_n3": fat_cylinder,
    "lamplighter_z2": lamplighter,
}


def example(name: str) -> Pair:
    try:
        return REGISTRY[name]()
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise ValueError(f"unknown example {name!r}; known: {known}") from None
