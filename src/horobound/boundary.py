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

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .cayley import Ball, GeodesicPrefix, geodesic_between
from .errors import (
    BoundViolated,
    DomainExhausted,
    DomainMismatch,
    GroupMismatch,
    NoDominatorAtLevel,
    OutOfBall,
    OutOfRange,
    RangeEmpty,
)
from .groups import Element

__all__ = [
    "Functional",
    "BoundaryClass",
    "BoundaryApprox",
    "ActionTable",
    "SignMatch",
    "BendScan",
    "SlowGeodesic",
    "busemann_functional",
    "boundary_approx",
    "act",
    "kernel_approx",
    "kernel_index_estimate",
    "sign_match",
    "dominating_busemann",
    "bend_scan",
    "slow_geodesic",
]

STABILITY_WINDOW = 3


class Functional:
    """Integer values of a 1-Lipschitz functional on B_m, in ball BFS order.

    The value (ball, domain_radius, vector) and nothing else: it vanishes at
    the identity by construction, and a vector lists values by position in
    one ball's BFS order, so equality and hashing use the ball (by identity),
    domain_radius and vector. How a class is realized at a level (its
    witnesses, stability and Busemann flag) lives on ``BoundaryClass``.
    """

    __slots__ = ("ball", "domain_radius", "vector")

    def __init__(self, ball: Ball, domain_radius: int, vector: tuple[int, ...]):
        size = ball.size(domain_radius)
        if len(vector) != size:
            raise DomainMismatch(
                f"vector has {len(vector)} entries, B_{domain_radius} has {size}"
            )
        if vector[0] != 0:
            raise ValueError("functional must vanish at the identity")
        self.ball = ball
        self.domain_radius = domain_radius
        self.vector = vector
        self._check_lipschitz()

    def _check_lipschitz(self) -> None:
        vec = self.vector
        size = len(vec)
        if any(abs(v) > d for v, d in zip(vec, self.ball.dist)):
            raise ValueError("functional exceeds the word norm somewhere")
        # every edge {x_i, x_j} of B_m, read once from its lower end i < j;
        # -1 (a product outside the ball) never passes i < j
        for col in self.ball.neighbours(size):
            for i, j in enumerate(col[:size]):
                if i < j < size and abs(vec[i] - vec[j]) > 1:
                    raise ValueError("functional is not 1-Lipschitz along an edge")

    def value(self, x: Element) -> int:
        if x.group is not self.ball.group:
            raise GroupMismatch(f"{x!r} belongs to a different group")
        return self.value_data(x.data)

    def value_data(self, data: tuple) -> int:
        i = self.ball.index.get(data)
        if i is None or i >= len(self.vector):
            raise DomainExhausted(
                f"{self.ball.group.format_data(data)} outside domain B_{self.domain_radius}"
            )
        return self.vector[i]

    def restrict(self, m: int) -> "Functional":
        if m > self.domain_radius:
            raise DomainExhausted(f"cannot extend domain from {self.domain_radius} to {m}")
        size = self.ball.size(m)
        return Functional(self.ball, m, self.vector[:size])

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
    ny = ball.norm(y)  # validates membership
    if ny + m > ball.radius:
        raise OutOfBall(
            f"need radius {ny + m} to restrict b_y to B_{m}, have {ball.radius}"
        )
    vec = _busemann_vector(ball, ball.index[y.data], m)
    return Functional(ball, m, vec)


def _busemann_vector(ball: Ball, z: int, m: int) -> tuple[int, ...]:
    """b_z on B_m in BFS order, for the point at position z; |z| + m <= radius."""
    dist = ball.dist
    nz = dist[z]
    return tuple([dist[j] - nz for j in ball.gather(ball.inv_index(z), ball.size(m))])


def _sphere_vectors(ball: Ball, r: int, m: int) -> dict[tuple[int, ...], list[int]]:
    """vector -> positions of the sphere-r points realizing it, in BFS order."""
    out: dict[tuple[int, ...], list[int]] = {}
    for z in range(ball.size(r - 1), ball.size(r)):
        out.setdefault(_busemann_vector(ball, z, m), []).append(z)
    return out


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

    def action_table(self) -> "ActionTable":
        return ActionTable.compute(self)

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


def boundary_approx(ball: Ball, r: int, m: int, window: int = STABILITY_WINDOW) -> BoundaryApprox:
    """Deduplicated sphere-r restrictions to B_m with stability flags.

    A class is stable when its vector is realized at each of the outer radii
    r-window+1 .. r (when those radii exist); it is an interior shadow when
    some |z| <= m realizes the same vector; it is on the Busemann side when
    some realizing endpoint extends to a geodesic of the full ball radius.

    Only a few z can make a class an interior shadow. For every x,
    b_z(x) = d(z, x) - |z| >= -|z|, with equality at x = z, which lies in
    B_m. So b_z|B_m == vec forces min(vec) = -|z| and vec[z] = min(vec):
    only the z on sphere -min(vec) where vec takes its minimum are tried,
    and each b_z is built at most once per call.
    """
    if not (0 < m < r):
        raise ValueError(f"need 0 < m < r, got m={m}, r={r}")
    if window < 1:
        raise ValueError(f"need a stability window >= 1, got {window}")
    if r + m > ball.radius:
        raise OutOfBall(f"level ({r},{m}) needs ball radius {r + m}, have {ball.radius}")
    group = ball.group
    current = _sphere_vectors(ball, r, m)

    lo = r - window + 1
    window_ok = lo >= 1
    stable_keys: set[tuple[int, ...]] = set()
    if window_ok:
        stable_keys = set(current)
        for rr in range(lo, r):
            stable_keys &= set(_sphere_vectors(ball, rr, m))

    interior: dict[int, tuple[int, ...]] = {}  # z -> b_z|B_m, built on demand

    def interior_shadow(vec: tuple[int, ...]) -> bool:
        low = min(vec)
        for z in range(ball.size(-low - 1), ball.size(-low)):
            if vec[z] == low:
                if z not in interior:
                    interior[z] = _busemann_vector(ball, z, m)
                if interior[z] == vec:
                    return True
        return False

    reach = ball.reach_data()
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
                busemann=any(reach[z] >= ball.radius for z in points),
            )
        )
    return BoundaryApprox(ball, r, m, window, tuple(classes))


# ---------------------------------------------------------------------------
# group action on functionals


def act(h: Functional, x: Element, ball: Ball) -> Functional:
    """(x.h)(y) = h(x^-1 y) - h(x^-1), restricted to B_{m - |x|}."""
    if h.ball is not ball:
        raise DomainMismatch("the functional is defined on a different ball")
    nx = ball.norm(x)
    m = h.domain_radius - nx
    if m < 0:
        raise DomainExhausted(
            f"|{x}| = {nx} exhausts the domain radius {h.domain_radius}"
        )
    return Functional(ball, m, _translate(h, ball.index[x.data], m))


def _translate(h: Functional, x_pos: int, m: int) -> tuple[int, ...]:
    """The vector of x.h on B_m, for x at ball position x_pos.

    Needs |x| + m <= h.domain_radius: then |x^-1 y| <= h.domain_radius for
    every y in B_m, so every entry is in h's domain.
    """
    ball = h.ball
    x_inv = ball.inv_index(x_pos)
    values = h.vector
    base = values[x_inv]
    return tuple([values[j] - base for j in ball.gather(x_inv, ball.size(m))])


@dataclass(frozen=True)
class ActionTable:
    """Generator action on classes: s.h matched against classes on B_{m-1}."""

    approx: BoundaryApprox
    matches: tuple[tuple[int | None, ...], ...]  # [gen][class] -> class or None

    @staticmethod
    def compute(approx: BoundaryApprox) -> "ActionTable":
        ball = approx.ball
        m = approx.m - 1  # every generator has norm 1
        size = ball.size(m)
        first: dict[tuple[int, ...], int] = {}  # restriction -> first class
        for i, c in enumerate(approx.classes):
            first.setdefault(c.functional.vector[:size], i)
        rows = tuple(
            tuple(
                first.get(_translate(c.functional, ball.index[s.data], m))
                for c in approx.classes
            )
            for s in ball.gens.elements
        )
        return ActionTable(approx, rows)

    def to_json_dict(self) -> dict:
        return {
            "generators": list(self.approx.ball.gens.labels),
            "matches": [list(r) for r in self.matches],
        }


def kernel_approx(
    approx: BoundaryApprox, search_radius: int, ball: Ball
) -> list[Element]:
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
    if ball is not approx.ball:
        raise DomainMismatch("the approximation is defined on a different ball")
    classes = approx.busemann_classes()
    out = []
    for x in range(ball.size(search_radius)):
        # x.h and h agree on B_{m - |x|}, the largest domain x.h has
        m = approx.m - ball.dist[x]
        size = ball.size(m)
        if all(_translate(h, x, m) == h.vector[:size] for h in classes):
            out.append(Element(ball.group, ball.data[x]))
    return out


def kernel_index_estimate(kernel: Sequence[Element], ball: Ball) -> tuple[int, bool]:
    """(index of <kernel> seen in the ball, certified-exact flag).

    The subgroup closure runs inside the ball; if it escapes, or the coset
    count keeps growing through the last layers examined, the value is only a
    floor and ``exact`` is False. So ``exact`` can be True only when the
    closure is finite and stays inside the ball. In an infinite group such a
    subgroup has infinite index, so there ``exact`` is always False: ``bend``
    reports ``kernel_index_exact: false`` on cylinder_n30_diag.
    """
    group = ball.group
    gens = {x.data for x in kernel} | {group.inv_data(x.data) for x in kernel}
    gens.discard(group.identity_data())
    inside, escaped = ball.closure(sorted(gens), ball.radius)

    half = ball.radius // 2
    size = ball.size(half)
    # rep^-1 x for every x in B_half, one gather per representative;
    # |rep^-1 x| <= 2 * half <= radius keeps every entry in the ball
    rep_translates: list[list[int]] = []
    counts = []
    for rr in range(half + 1):
        for x in range(ball.size(rr - 1), ball.size(rr)):
            if not any(pos[x] in inside for pos in rep_translates):
                rep_translates.append(ball.gather(ball.inv_index(x), size))
        counts.append(len(rep_translates))
    stableized = len(counts) >= 3 and counts[-1] == counts[-2] == counts[-3]
    return len(rep_translates), escaped is None and stableized


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


def dominating_busemann(h: Functional, ball: Ball, r: int) -> Functional:
    """A geodesic-prefix class at the same level dominating h pointwise.

    Checks the classes equal to h first; raises the NoDominatorAtLevel
    diagnostic when no Busemann-side class dominates at this truncation.
    """
    m = h.domain_radius
    candidates = boundary_approx(ball, r, m).busemann_classes()
    ordered = [g for g in candidates if g.vector == h.vector]
    ordered.extend(g for g in candidates if g.vector != h.vector)
    for g in ordered:
        if all(a >= b for a, b in zip(g.vector, h.vector)):
            return g
    raise NoDominatorAtLevel(
        f"no geodesic-prefix class dominates at level (r={r}, m={m})",
        level={"r": r, "m": m},
        vector=list(h.vector),
    )


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


def bend_scan(
    prefix: GeodesicPrefix,
    m: int,
    h: Functional,
    ball: Ball,
    k_max: int | None = None,
) -> BendScan:
    """Scan the window increments of h along the geodesic prefix."""
    length = prefix.length
    if m < 1 or length < m:
        raise RangeEmpty(f"window m={m} does not fit a length-{length} geodesic")
    top = length - m if k_max is None else min(k_max, length - m)
    if top + m > h.domain_radius:
        raise DomainExhausted(
            f"scan touches radius {top + m}, functional domain is B_{h.domain_radius}"
        )
    values = [h.value(prefix.vertices[i]) for i in range(top + m + 1)]
    phi = tuple(values[k + m] - values[k] for k in range(top + 1))
    signs = tuple((1 if p >= 0 else 0) - (1 if p <= 0 else 0) for p in phi)
    eps = min(abs(p) for p in phi)
    t = next(k for k, p in enumerate(phi) if abs(p) == eps)
    return BendScan(m, phi, signs, t, eps)


@dataclass(frozen=True)
class SlowGeodesic:
    """A re-rooted geodesic whose m-th vertex every stable class barely moves."""

    prefix: GeodesicPrefix
    t: int
    epsilon: int
    kernel_index: int
    kernel_index_exact: bool
    bound: int
    class_values: tuple[int, ...]
    scan: BendScan


def slow_geodesic(
    x: Element,
    m: int,
    ell: int,
    ball: Ball,
    approx: BoundaryApprox,
    kernel_radius: int = 2,
) -> SlowGeodesic:
    """Extract beta_j = alpha_t^-1 alpha_{t+j} (j <= ell) from a geodesic to x.

    x should be an annihilator element; the admissible range is
    m <= ell <= 2|x|/(m+2) - m. The scan runs over 0 <= k <= m*r with
    r = floor(|x|/(m+2)) + 1 against the first stable class, and the returned
    certificate checks |h(beta_m)| <= 6*[G:K] + 1 for every stable class h,
    raising the BoundViolated diagnostic otherwise.
    """
    nx = ball.norm(x)
    if m < 1 or ell < m or (ell + m) * (m + 2) > 2 * nx:
        raise RangeEmpty(
            f"need m <= ell <= 2|x|/(m+2) - m; got m={m}, ell={ell}, |x|={nx}"
        )
    classes = approx.stable_classes()
    if not classes:
        raise RangeEmpty(f"no stable classes at level (r={approx.r}, m={approx.m})")
    r_par = nx // (m + 2) + 1
    scan_max = m * r_par
    if scan_max + m > classes[0].domain_radius:
        raise DomainExhausted(
            f"scan needs functional domain {scan_max + m}, classes have {classes[0].domain_radius}"
        )
    alpha = geodesic_between(ball, ball.group.identity(), x)
    scan = bend_scan(alpha, m, classes[0], ball, k_max=scan_max)
    t = scan.t
    group = ball.group
    a_t_inv = group.inv_data(alpha.vertices[t].data)
    beta_verts = tuple(
        Element(group, group.mul_data(a_t_inv, alpha.vertices[t + j].data))
        for j in range(ell + 1)
    )
    beta = GeodesicPrefix(beta_verts)
    kern = kernel_approx(approx, kernel_radius, ball)
    index, exact = kernel_index_estimate(kern, ball)
    bound = 6 * index + 1
    values = tuple(h.value(beta_verts[m]) for h in classes)
    for h, v in zip(classes, values):
        if abs(v) > bound:
            raise BoundViolated(
                f"|h(beta_{m})| = {abs(v)} exceeds 6[G:K]+1 = {bound}",
                value=v,
                bound=bound,
                vector=list(h.vector),
            )
    return SlowGeodesic(beta, t, scan.epsilon, index, exact, bound, values, scan)
