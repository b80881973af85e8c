"""Finite truncations of the metric-functional boundary.

A boundary approximation at level (r, m) records, for every point y on the
sphere of radius r, the restriction of b_y = d(y, .) - |y| to the ball B_m.
Distinct restrictions are the "classes" of the level. Classes realized at the
last k outer radii are flagged stable; classes realized by endpoints whose
geodesics verifiably extend to the full ball radius form the Busemann side.

All values are integers and all comparisons exact; nothing here converges in
floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Sequence

from .cayley import Ball
from .errors import (
    BoundViolated,
    DomainExhausted,
    DomainMismatch,
    GroupMismatch,
    InfiniteKernelIndex,
    OutOfBall,
    OutOfRange,
    RangeEmpty,
)
from .groups import Element, ExtensionGroup, subgroup_index

__all__ = [
    "Functional",
    "BoundaryClass",
    "BoundaryApprox",
    "SignMatch",
    "BendScan",
    "SlowGeodesic",
    "busemann_functional",
    "boundary_approx",
    "check_level",
    "check_scan",
    "kernel_approx",
    "kernel_index_estimate",
    "sign_match",
    "bend_scan",
    "slow_geodesic",
]

STABILITY_WINDOW = 3
KERNEL_RADIUS = 2  # slow_geodesic takes K as the kernel's elements in B_2


class Functional:
    """Integer values of a 1-Lipschitz functional on B_m, in ball BFS order.

    The value (ball, domain_radius, vector) and nothing else: it vanishes at
    the identity by construction, and a vector lists values by position in
    one ball's BFS order, so equality and hashing use the ball (by identity),
    domain_radius and vector. How a class is realized at a level (its
    witnesses, stability and Busemann flag) lives on ``BoundaryClass``.

    A construction checks the vector's length and that it vanishes at the
    identity. That it is 1-Lipschitz and bounded by the word norm holds by
    construction for every vector the package builds (restrictions of
    b_y(x) = d(y, x) - |y| and their translates), so ``check_lipschitz`` in
    ``tests/oracles.py`` checks it there instead of on every construction.
    """

    __slots__ = ("ball", "domain_radius", "vector")

    def __init__(self, ball: Ball, domain_radius: int, vector: Sequence[int]):
        size = ball.size(domain_radius)
        if len(vector) != size:
            raise DomainMismatch(
                f"vector has {len(vector)} entries, B_{domain_radius} has {size}"
            )
        vector = tuple(vector)
        if vector[0] != 0:
            raise ValueError("functional must vanish at the identity")
        self.ball = ball
        self.domain_radius = domain_radius
        self.vector = vector

    def value(self, x: Element) -> int:
        if x.group is not self.ball.group:
            raise GroupMismatch(f"{x!r} belongs to a different group")
        i = self.ball.index.get(x.data)
        if i is None or i >= len(self.vector):
            raise DomainExhausted(f"{x} outside domain B_{self.domain_radius}")
        return self.vector[i]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Functional)
            and self.ball is other.ball
            and self.domain_radius == other.domain_radius
            and self.vector == other.vector
        )

    def __hash__(self) -> int:
        return hash((id(self.ball), self.domain_radius, self.vector))

    def __repr__(self) -> str:
        return f"Functional(m={self.domain_radius}, {self.vector})"


def busemann_functional(ball: Ball, y: Element, m: int) -> Functional:
    """b_y(x) = d(y, x) - |y| restricted to B_m."""
    if m < 0:
        raise OutOfRange(f"domain radius m={m} is negative")
    z = ball.position(y)
    dist = ball.dist
    ny = dist[z]
    if ny + m > ball.radius:
        raise OutOfBall(
            f"need radius {ny + m} to restrict b_y to B_{m}, have {ball.radius}"
        )
    vector = [dist[j] - ny for j in ball.gather(ball.inv_index(z), ball.size(m))]
    return Functional(ball, m, vector)


def _distances(ball: Ball, z: int, m: int) -> tuple[int, ...]:
    """d(z, x) for x in B_m in BFS order by one C call, for z a position with
    |z| + m <= radius; B_0 is read by hand, as itemgetter(i) is a bare int."""
    pos = ball.gather(ball.inv_index(z), ball.size(m))
    return itemgetter(*pos)(ball.dist) if m else (ball.dist[pos[0]],)


def _sphere_vectors(ball: Ball, r: int, m: int) -> dict[tuple[int, ...], list[int]]:
    """vector -> positions of the sphere-r points realizing it, in BFS order;
    every point has norm r, so r is subtracted once per deduped vector."""
    out: dict[tuple[int, ...], list[int]] = {}
    for z in range(ball.size(r - 1), ball.size(r)):
        out.setdefault(_distances(ball, z, m), []).append(z)
    return {tuple([d - r for d in raw]): points for raw, points in out.items()}


@dataclass(frozen=True)
class BoundaryClass:
    functional: Functional
    count: int
    witnesses: tuple[Element, ...]
    stable: bool
    interior_shadow: bool
    busemann: bool

    @property
    def candidate(self) -> bool:
        """Stable and realized by no interior point of B_m."""
        return self.stable and not self.interior_shadow


@dataclass(frozen=True)
class BoundaryApprox:
    """Level-(r, m) snapshot of the boundary, with stability bookkeeping."""

    ball: Ball
    r: int
    m: int
    window: int
    classes: tuple[BoundaryClass, ...]

    def stable_classes(self) -> list[Functional]:
        return [c.functional for c in self.classes if c.stable]

    def busemann_classes(self) -> list[Functional]:
        return [c.functional for c in self.classes if c.busemann]

    def stable_busemann_classes(self) -> list[Functional]:
        return [c.functional for c in self.classes if c.stable and c.busemann]

    def class_count(self, *, stable_only: bool = False) -> int:
        if stable_only:
            return sum(1 for c in self.classes if c.stable)
        return len(self.classes)

    def to_json_dict(self) -> dict:
        fmt = self.ball.group.format_data
        return {
            "level": {"r": self.r, "m": self.m, "window": self.window},
            "class_count": len(self.classes),
            "stable_class_count": self.class_count(stable_only=True),
            "ball_order": [fmt(d) for d in self.ball.data_up_to(self.m)],
            "classes": [
                {
                    "values": list(c.functional.vector),
                    "count": c.count,
                    "witness": str(c.witnesses[0]),
                    "stable": c.stable,
                    "interior_shadow": c.interior_shadow,
                    "busemann": c.busemann,
                }
                for c in self.classes
            ],
        }


def check_level(r: int, m: int, window: int = STABILITY_WINDOW) -> None:
    """Refuse a level or window ``boundary_approx`` cannot take; it needs no
    ball, so a run calls it before growing one."""
    if not (0 < m < r):
        raise ValueError(f"need 0 < m < r, got m={m}, r={r}")
    if window < 1:
        raise ValueError(f"need a stability window >= 1, got {window}")


def boundary_approx(ball: Ball, r: int, m: int, window: int = STABILITY_WINDOW) -> BoundaryApprox:
    """Deduplicated sphere-r restrictions to B_m with stability flags.

    A class is stable when its vector is realized at each of the outer radii
    r-window+1 .. r (when those radii exist); it is an interior shadow when
    some |z| <= m realizes the same vector; it is on the Busemann side when
    some realizing endpoint extends to a geodesic of the full ball radius.

    Stability needs one sighting of each vector per sphere. Going down from
    sphere r-1, each sphere first tries the BFS parents of the points that
    showed a vector one sphere up, from each class's first witness on, then
    reads the rest of the sphere in BFS order until every vector still in
    play is seen. No point is built twice, so this never builds more
    vectors than reading the spheres whole.

    The Busemann flag is a search along neighbour entries that go one layer
    up: one that reaches the outermost sphere, after the BFS parent path to
    its start, is a geodesic of the full radius, and every geodesic climbs
    that way. So no reach table is filled. A failed search marks the points
    it met dead for the classes after it; points a search that succeeded
    met may still lead up, so it marks none.

    Only a few z can make a class an interior shadow. For every x,
    b_z(x) = d(z, x) - |z| >= -|z|, with equality at x = z, which lies in
    B_m. So b_z|B_m == vec forces min(vec) = -|z| and vec[z] = min(vec):
    only the z on sphere -min(vec) where vec takes its minimum are tried.
    Each is compared on B_1, B_2, B_4, ... up to B_m and dropped at the
    first prefix that differs, so a z that is no shadow is rarely read on
    all of B_m; a z tried for two classes is read again for the second.
    """
    check_level(r, m, window)
    if r + m > ball.radius:
        raise OutOfBall(f"level ({r},{m}) needs ball radius {r + m}, have {ball.radius}")
    group = ball.group
    current = _sphere_vectors(ball, r, m)

    # vector -> points seen realizing it, on each sphere from r down in turn
    stable_keys: dict[tuple[int, ...], list[int]] = {}
    if window <= r:
        stable_keys = current
        for rr in range(r - 1, r - window, -1):
            stable_keys = _sightings(ball, rr, m, stable_keys)

    def interior_shadow(vec: tuple[int, ...]) -> bool:
        low = min(vec)
        raw = tuple([v - low for v in vec])  # d(z, .) for a z on sphere -low
        for z in range(ball.size(-low - 1), ball.size(-low)):
            if vec[z] == low and _agrees(ball, z, raw, m):
                return True
        return False

    dead: set[int] = set()  # positions no upward path leads out of
    classes = []
    for vec in sorted(current):
        points = current[vec]
        classes.append(
            BoundaryClass(
                functional=Functional(ball, m, vec),
                count=len(points),
                witnesses=tuple(Element(group, ball.data[z]) for z in points),
                stable=vec in stable_keys,
                interior_shadow=interior_shadow(vec),
                busemann=_reaches_rim(ball, points, dead),
            )
        )
    return BoundaryApprox(ball, r, m, window, tuple(classes))


def _agrees(ball: Ball, z: int, raw: tuple[int, ...], m: int) -> bool:
    """Whether d(z, .) == raw on B_m, compared on B_1, B_2, B_4, ... and B_m
    in turn, so that a z that differs early is read only that far."""
    k = 1
    while _distances(ball, z, k) == raw[: ball.size(k)]:
        if k == m:
            return True
        k = min(2 * k, m)
    return False


def _sightings(ball: Ball, rr: int, m: int, shown: dict) -> dict:
    """The vectors of ``shown`` (vector -> points on sphere rr+1) that sphere
    rr realizes, each with the points on sphere rr seen realizing it."""
    parent = ball.parent
    # b_z = d(z, .) - rr on sphere rr, so vec is read there as vec + rr
    wanted = {tuple([v + rr for v in vec]): vec for vec in shown}
    found: dict[tuple[int, ...], list[int]] = {}
    tried: set[int] = set()

    def sight(z: int) -> None:
        tried.add(z)
        vec = wanted.get(_distances(ball, z, m))
        if vec is not None:
            found.setdefault(vec, []).append(z)

    for vec, points in shown.items():
        for z in points:
            if vec in found:
                break
            if parent[z] not in tried:
                sight(parent[z])
    for z in range(ball.size(rr - 1), ball.size(rr)):
        if len(found) == len(shown):
            break
        if z not in tried:
            sight(z)
    return found


def _reaches_rim(ball: Ball, points: list[int], dead: set[int]) -> bool:
    """Whether steps one layer up lead from ``points`` to the outermost
    sphere; a failed search adds the positions it met to ``dead``."""
    dist, nbr, top = ball.dist, ball.nbr, ball.radius
    stack = [z for z in points if z not in dead]
    met = set(stack)
    while stack:
        i = stack.pop()
        up = dist[i] + 1
        if up > top:
            return True
        for col in nbr:
            j = col[i]
            if dist[j] == up and j not in met and j not in dead:
                met.add(j)
                stack.append(j)
    dead |= met
    return False


# ---------------------------------------------------------------------------
# group action on functionals


def kernel_approx(approx: BoundaryApprox, search_radius: int) -> list[Element]:
    """Elements of B_search fixing every Busemann class on the common domain.

    With no Busemann-side classes at this level everything is fixed vacuously;
    the identity is always in the result and the result is inverse-closed
    within the searched radius.
    """
    if search_radius < 0:
        raise OutOfRange(f"search radius {search_radius} is negative")
    if search_radius >= approx.m:
        raise DomainExhausted(
            f"search radius {search_radius} leaves no common domain inside B_{approx.m}"
        )
    ball = approx.ball
    vectors = [h.vector for h in approx.busemann_classes()]

    @lru_cache(maxsize=None)
    def shifted(c: int, base: int, size: int) -> tuple[int, ...]:
        return tuple([v + base for v in vectors[c][:size]])

    out = []
    for x in range(ball.size(search_radius)):
        # x fixes h when (x.h)(y) = h(x^-1 y) - h(x^-1) is h(y) on B_{m - |x|},
        # the largest domain x.h has: one gather of pos[k] = x^-1 x_k serves
        # every class, and m - |x| >= 1, so the itemgetter returns a tuple
        size = ball.size(approx.m - ball.dist[x])
        pos = ball.gather(ball.inv_index(x), size)
        read = itemgetter(*pos)
        if all(read(v) == shifted(c, v[pos[0]], size) for c, v in enumerate(vectors)):
            out.append(Element(ball.group, ball.data[x]))
    return out


def kernel_index_estimate(kernel: Sequence[Element], ball: Ball) -> tuple[int | None, bool]:
    """([G:<kernel>], certified flag), with None for an infinite index.

    A kernel whose elements and inverses hold every generator spans G, so
    the index 1 is read off the generators; the flag is then true only when
    the ball is all of G (no neighbour entry reads -1) and radius // 2 >= 2,
    so ``bend`` reports ``kernel_index_exact: false`` on cylinder_n30_diag.
    Every other kernel is decided exactly by ``groups.subgroup_index``; a
    group with no extension normal form (the lamplighter) raises GroupMismatch.
    """
    group = ball.group
    gens = {x.data for x in kernel} | {group.inv_data(x.data) for x in kernel}
    gens.discard(group.identity_data())
    if gens.issuperset(s.data for s in ball.gens.elements):
        return 1, ball.radius // 2 >= 2 and not any(-1 in col[:-1] for col in ball.nbr)
    if not isinstance(group, ExtensionGroup):
        raise GroupMismatch(
            f"[G:K] for K missing a generator needs a normal form; {group.family} has none"
        )
    return subgroup_index(group, kernel), True


@dataclass(frozen=True)
class SignMatch:
    q: int
    kernel_dev: int
    ball_dev: int


def sign_match(g: Functional, h: Functional, kernel: Iterable[Element]) -> SignMatch:
    """Best q in {+1,-1} matching g to q*h on the kernel, with deviations."""
    if g.domain_radius != h.domain_radius:
        raise DomainMismatch(
            f"domain radii differ: {g.domain_radius} != {h.domain_radius}"
        )
    kern = list(kernel)
    devs = {}
    for q in (1, -1):
        devs[q] = max((abs(g.value(x) - q * h.value(x)) for x in kern), default=0)
    q = 1 if devs[1] <= devs[-1] else -1
    ball_dev = max(abs(a - q * b) for a, b in zip(g.vector, h.vector))
    return SignMatch(q, devs[q], ball_dev)


# ---------------------------------------------------------------------------
# bend scans and slow geodesics


@dataclass(frozen=True)
class BendScan:
    """phi(k) = h(alpha_{k+m}) - h(alpha_k) along a geodesic, with its minimum."""

    m: int
    phi: tuple[int, ...]
    signs: tuple[int, ...]
    t: int
    epsilon: int

    def is_two_lipschitz(self) -> bool:
        return all(abs(a - b) <= 2 for a, b in zip(self.phi, self.phi[1:]))


def bend_scan(path: Sequence[int], m: int, h: Functional, k_max: int | None = None) -> BendScan:
    """Scan the window increments of h along a geodesic from the identity,
    given as positions in h's ball (path[k] has norm k, as ``Ball.path``
    lists them)."""
    length = len(path) - 1
    if m < 1 or length < m:
        raise RangeEmpty(f"window m={m} does not fit a length-{length} geodesic")
    top = length - m if k_max is None else min(k_max, length - m)
    if top + m > h.domain_radius:
        raise DomainExhausted(
            f"scan touches radius {top + m}, functional domain is B_{h.domain_radius}"
        )
    values = [h.vector[p] for p in path[: top + m + 1]]
    phi = tuple(values[k + m] - values[k] for k in range(top + 1))
    signs = tuple((1 if p >= 0 else 0) - (1 if p <= 0 else 0) for p in phi)
    eps = min(abs(p) for p in phi)
    t = next(k for k, p in enumerate(phi) if abs(p) == eps)
    return BendScan(m, phi, signs, t, eps)


@dataclass(frozen=True)
class SlowGeodesic:
    """A re-rooted geodesic whose m-th vertex every stable class barely moves.

    ``beta`` lists its vertices beta_0 .. beta_ell as positions in the
    approximation's ball; ``scan`` holds t and epsilon.
    """

    beta: tuple[int, ...]
    kernel_index: int
    kernel_index_exact: bool
    bound: int
    class_values: tuple[int, ...]
    scan: BendScan


def check_scan(m: int, ell: int, nx: int, domain: int) -> int:
    """Refuse a scan of window m and length ell to a point of norm nx that
    classes on B_domain cannot hold, before any level is built; return the
    scan's last start m * (nx // (m + 2) + 1)."""
    if m < 1 or ell < m or (ell + m) * (m + 2) > 2 * nx:
        raise RangeEmpty(
            f"need 1 <= m <= ell <= 2|x|/(m+2) - m; got m={m}, ell={ell}, |x|={nx}"
        )
    scan_max = m * (nx // (m + 2) + 1)
    if scan_max + m > domain:
        raise DomainExhausted(
            f"scan needs functional domain {scan_max + m}, classes have {domain}"
        )
    return scan_max


def slow_geodesic(x: Element, m: int, ell: int, approx: BoundaryApprox) -> SlowGeodesic:
    """Extract beta_j = alpha_t^-1 alpha_{t+j} (j <= ell) from a geodesic to x.

    x should be an annihilator element; the admissible range is
    1 <= m <= ell <= 2|x|/(m+2) - m (``check_scan``). alpha is x's BFS
    parent path in the approximation's ball, and alpha and beta stay ball
    positions: each class is read at beta_m as its vector entry. The scan
    runs over 0 <= k <= m*r with r = floor(|x|/(m+2)) + 1 against the first
    stable class, and the returned certificate checks
    |h(beta_m)| <= 6*[G:K] + 1 for every stable class h, raising the
    BoundViolated diagnostic otherwise. K is generated by the kernel
    elements in B_KERNEL_RADIUS; an infinite [G:K], a truncation artifact,
    raises the InfiniteKernelIndex diagnostic.
    """
    ball = approx.ball
    x_pos = ball.position(x)
    scan_max = check_scan(m, ell, ball.dist[x_pos], approx.m)
    classes = approx.stable_classes()
    if not classes:
        raise RangeEmpty(f"no stable classes at level (r={approx.r}, m={approx.m})")
    path = ball.path(x_pos)
    scan = bend_scan(path, m, classes[0], k_max=scan_max)
    t = scan.t
    # beta_j = s_(t+1) .. s_(t+j), the generators of alpha's edges past alpha_t,
    # walked from the identity; t + ell <= |x| by the range above
    beta = [0]
    for p in path[t + 1 : t + ell + 1]:
        beta.append(ball.nbr[ball.parent_gen[p]][beta[-1]])
    kern = kernel_approx(approx, KERNEL_RADIUS)
    index, exact = kernel_index_estimate(kern, ball)
    if index is None:
        raise InfiniteKernelIndex(
            f"the kernel in B_{KERNEL_RADIUS} at level (r={approx.r}, m={approx.m}) "
            "generates a subgroup of infinite index",
            r=approx.r,
            m=approx.m,
            kernel=[str(x) for x in kern],
        )
    bound = 6 * index + 1
    # |beta_m| <= m <= scan_max < domain radius, so beta_m is in every domain
    values = tuple(h.vector[beta[m]] for h in classes)
    for h, v in zip(classes, values):
        if abs(v) > bound:
            raise BoundViolated(
                f"|h(beta_{m})| = {abs(v)} exceeds 6[G:K]+1 = {bound}",
                value=v,
                bound=bound,
                vector=list(h.vector),
            )
    return SlowGeodesic(tuple(beta), index, exact, bound, values, scan)
