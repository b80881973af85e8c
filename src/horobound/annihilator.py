"""Common zero set of the boundary functionals, estimated from finite balls.

An element x is indistinguishable from the identity at scale r when
d(x, y) = d(1, y) for every |y| <= r. The profile rho(x) records the largest
norm at which x and 1 still disagree; an element is a candidate when its
disagreements die out a clean annulus (the gap) before the comparison
horizon. Candidacy is evidence, never proof: no finite ball certifies
membership in the true common zero set.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO

from .boundary import BoundaryApprox
from .cayley import Ball
from .errors import OutOfBall
from .groups import Element

__all__ = [
    "DEFAULT_GAP",
    "Profile",
    "AnnihilatorReport",
    "FunctionalZeroSets",
    "indistinguishability_profile",
    "annihilator_candidates",
    "check_annulus",
    "functional_annihilator",
]

DEFAULT_GAP = 2


@dataclass(frozen=True)
class Profile:
    """Last disagreement radius of d(x, .) against d(1, .), and the verdict."""

    element: Element
    rho: int
    r: int
    gap: int

    @property
    def candidate(self) -> bool:
        return self.rho < self.r - self.gap

    @property
    def witness_radius(self) -> int:
        """Smallest radius from which agreement is observed: rho + 1."""
        return self.rho + 1


def indistinguishability_profile(
    x: Element, ball: Ball, r: int | None = None, gap: int = DEFAULT_GAP
) -> Profile:
    """rho(x) = max{|y| <= r : d(x, y) != d(1, y)}, -1 when no disagreement.

    The comparison radius defaults to the largest the ball supports for this
    x, namely ball.radius - |x|. Candidacy means the whole outer annulus of
    width gap is disagreement-free. With y = x_k, d(x, y) = |x^-1 x_k| is
    read from one gather from x^-1, which stays inside the ball because
    |x| + r <= ball.radius; y = 1 disagrees exactly when x != 1.
    """
    x_pos = ball.position(x)
    nx = ball.dist[x_pos]
    if r is None:
        r = ball.radius - nx
    if nx + r > ball.radius:
        raise OutOfBall(
            f"profile at scale {r} for |x|={nx} needs ball radius {nx + r}, have {ball.radius}"
        )
    if r < 1:
        raise OutOfBall(f"comparison radius {r} is empty")
    if gap < 0 or gap >= r:
        raise ValueError(f"gap must lie in 0..{r - 1}, got {gap}")
    dist = ball.dist
    pos = ball.gather(ball.inv_index(x_pos), ball.size(r))
    rho = -1
    for k in range(len(pos) - 1, -1, -1):
        if dist[pos[k]] != dist[k]:
            rho = dist[k]
            break
    return Profile(x, rho, r, gap)


@dataclass(frozen=True)
class AnnihilatorReport:
    """Profiles over B_m, the candidate set, and subgroup-shadow evidence."""

    ball: Ball
    m: int
    r: int
    gap: int
    profiles: tuple[Profile, ...]
    candidates: tuple[Element, ...]
    inverse_closed: bool
    product_violations: tuple[tuple[Element, Element], ...]

    def candidate_data(self) -> set[tuple]:
        return {c.data for c in self.candidates}

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "r": self.r,
            "gap": self.gap,
            "profiles": [
                {
                    "element": str(p.element),
                    "rho": p.rho,
                    "witness_radius": p.witness_radius,
                    "candidate": p.candidate,
                }
                for p in self.profiles
            ],
            "candidates": [str(c) for c in self.candidates],
            "inverse_closed": self.inverse_closed,
            "product_violations": [
                [str(a), str(b)] for a, b in self.product_violations
            ],
        }

    def to_csv(self, fp: IO[str]) -> None:
        w = csv.writer(fp, lineterminator="\n")
        w.writerow(["element", "norm", "rho", "witness_radius", "candidate"])
        for p in self.profiles:
            w.writerow(
                [
                    str(p.element),
                    self.ball.norm(p.element),
                    p.rho,
                    p.witness_radius,
                    int(p.candidate),
                ]
            )


def check_annulus(m: int, radius: int, gap: int = DEFAULT_GAP) -> None:
    """Refuse an m that leaves no annulus in a ball of this radius, or a gap
    outside 0..r-1 for the annulus radius r = radius - m; it reads no ball,
    so a run can call it before the ball is grown. The error names r too,
    the level a run is given as."""
    if not (0 < m < radius):
        raise OutOfBall(f"need 0 < m < ball radius {radius}, got m={m}, r={radius - m}")
    if not (0 <= gap < radius - m):
        raise ValueError(f"gap must lie in 0..{radius - m - 1}, got {gap}")


def annihilator_candidates(
    ball: Ball, m: int, gap: int = DEFAULT_GAP
) -> AnnihilatorReport:
    """Profile every x in B_m against the annulus up to r = ball.radius - m.

    Candidates are the elements whose last disagreement falls below r - gap.
    The report also records whether the set is inverse-closed and which
    in-ball pairwise products escape it; the true common zero set is a
    subgroup, so a clean report is structural evidence, a dirty one disproof.
    """
    check_annulus(m, ball.radius, gap)
    r = ball.radius - m
    group = ball.group
    profiles = []
    candidates = []
    for data in ball.data_up_to(m):
        p = indistinguishability_profile(Element(group, data), ball, r, gap)
        profiles.append(p)
        if p.candidate:
            candidates.append(p.element)

    cand_data = {c.data for c in candidates}
    inverse_closed = all(group.inv_data(d) in cand_data for d in cand_data)
    violations = []
    for a in candidates:
        for b in candidates:
            prod = group.mul_data(a.data, b.data)
            d = ball.dist_data(prod)
            if d is not None and d <= m and prod not in cand_data:
                violations.append((a, b))
    return AnnihilatorReport(
        ball,
        m,
        r,
        gap,
        tuple(profiles),
        tuple(candidates),
        inverse_closed,
        tuple(violations),
    )


@dataclass(frozen=True)
class FunctionalZeroSets:
    """Common zeros of the stable classes, split by the Busemann side."""

    m: int
    zeros_all: tuple[Element, ...]
    zeros_busemann: tuple[Element, ...]
    n_stable: int
    n_stable_busemann: int

    @property
    def coincide(self) -> bool:
        return [e.data for e in self.zeros_all] == [e.data for e in self.zeros_busemann]

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "zeros_all": [str(e) for e in self.zeros_all],
            "zeros_busemann": [str(e) for e in self.zeros_busemann],
            "n_stable": self.n_stable,
            "n_stable_busemann": self.n_stable_busemann,
            "coincide": self.coincide,
        }


def functional_annihilator(approx: BoundaryApprox, m: int) -> FunctionalZeroSets:
    """{x in B_m : h(x) = 0 for every stable class h}, twice.

    Computed once over all stable classes and once over the stable classes on
    the Busemann side only; the two agree in the limit, and the report says
    whether they already agree at this level.
    """
    if m > approx.m:
        raise OutOfBall(
            f"evaluation radius {m} exceeds the class domain B_{approx.m}"
        )
    ball = approx.ball
    stable = [h.vector for h in approx.stable_classes()]
    stable_bus = [h.vector for h in approx.stable_busemann_classes()]
    zeros_all = []
    zeros_bus = []
    for i, data in enumerate(ball.data_up_to(m)):
        if all(v[i] == 0 for v in stable):
            zeros_all.append(Element(ball.group, data))
        if all(v[i] == 0 for v in stable_bus):
            zeros_bus.append(Element(ball.group, data))
    return FunctionalZeroSets(
        m, tuple(zeros_all), tuple(zeros_bus), len(stable), len(stable_bus)
    )

