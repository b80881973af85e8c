"""Ready-made groups with their generating sets, shared by tests and docs.

Each constructor returns ``(group, gens)``. ``REGISTRY`` maps stable names to
zero-argument constructors; it is the population quantified over by the
randomized property suites.
"""

from __future__ import annotations

from collections.abc import Set
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
    lamp_normal_form,
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
    "lamp_chain",
    "LampChain",
    "Window",
    "WindowCosets",
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


def _dark(data: tuple, a: int, b: int) -> tuple:
    """Lamplighter data with the lamps at positions a..b switched off."""
    mask, low, shift = data
    ones = (1 << (b - a + 1)) - 1
    mask &= ~(ones << (a - low) if a >= low else ones >> (low - a))
    return lamp_normal_form(mask, low, shift)


class Window(Set):
    """F_j = the lamp patterns on [-j, j] with shift 0: a subgroup of
    2^(2j+1) elements, inside F_{j+1}. Size and membership are closed forms;
    members (data, or Elements of ``group`` if given) are listed when iterated.
    """

    __slots__ = ("j", "group")

    def __init__(self, j: int, group: LamplighterGroup | None = None):
        self.j, self.group = j, group

    def __len__(self) -> int:
        return 1 << (2 * self.j + 1)

    def __contains__(self, x) -> bool:
        if self.group is not None:
            if not isinstance(x, Element) or x.group is not self.group:
                return False
            x = x.data
        mask, low, shift = x
        return not shift and (not mask or -self.j <= low and low + mask.bit_length() <= self.j + 1)

    def __iter__(self):
        j, group = self.j, self.group
        for mask in range(len(self)):
            data = lamp_normal_form(mask, -j, 0)
            yield data if group is None else Element(group, data)

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


class LampChain(tuple):
    """F_1 .. F_{n_max}, F_j = ``Window(j, group)``: nested subgroups made
    from (group, n_max) alone, so ``build_ball_system`` checks only the
    group and keeps the double cosets of F_n in closed form (``WindowCosets``).
    """

    def __new__(cls, group: LamplighterGroup, n_max: int):
        if n_max < 1:
            raise ValueError(f"need n_max >= 1, got {n_max}")
        return super().__new__(cls, (Window(j, group) for j in range(1, n_max + 1)))


def lamp_chain(group: LamplighterGroup, n_max: int) -> LampChain:
    """F_1 .. F_{n_max} where F_j = lamp patterns supported on [-j, j]."""
    return LampChain(group, n_max)


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
