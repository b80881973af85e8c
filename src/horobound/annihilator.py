"""Common zero set of the boundary functionals, estimated from finite balls.

An element x is indistinguishable from the identity at scale r when
d(x, y) = d(1, y) for every |y| <= r. The profile rho(x) records the largest
norm at which x and 1 still disagree; an element is a candidate when its
disagreements die out a clean annulus (the gap) before the comparison
horizon. Candidacy is evidence, never proof: no finite ball certifies
membership in the true common zero set.

Profiles, candidates and violating pairs are ball positions; elements are
formatted only where a report writes them.
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
    "AnnihilatorReport",
    "FunctionalZeroSets",
    "annihilator_candidates",
    "check_annulus",
    "functional_annihilator",
]

DEFAULT_GAP = 2


@dataclass(frozen=True)
class AnnihilatorReport:
    """Profiles over B_m, the candidate set, and subgroup-shadow evidence.

    ``rho[x]`` is the last disagreement radius of the element at position x
    of B_m, -1 when it never disagrees; its witness radius is rho + 1, and
    it is a candidate when rho < r - gap. ``candidates`` and the pairs of
    ``product_violations`` are positions in ``ball``.
    """

    ball: Ball
    m: int
    r: int
    gap: int
    rho: tuple[int, ...]
    candidates: tuple[int, ...]
    inverse_closed: bool
    product_violations: tuple[tuple[int, int], ...]

    def to_json_dict(self) -> dict:
        fmt, data, cut = self.ball.group.format_data, self.ball.data, self.r - self.gap
        return {
            "m": self.m,
            "r": self.r,
            "gap": self.gap,
            "profiles": [
                {
                    "element": fmt(data[x]),
                    "rho": rho,
                    "witness_radius": rho + 1,
                    "candidate": rho < cut,
                }
                for x, rho in enumerate(self.rho)
            ],
            "candidates": [fmt(data[x]) for x in self.candidates],
            "inverse_closed": self.inverse_closed,
            "product_violations": [
                [fmt(data[a]), fmt(data[b])] for a, b in self.product_violations
            ],
        }

    def to_csv(self, fp: IO[str]) -> None:
        fmt, data, cut = self.ball.group.format_data, self.ball.data, self.r - self.gap
        w = csv.writer(fp, lineterminator="\n")
        w.writerow(["element", "norm", "rho", "witness_radius", "candidate"])
        for x, rho in enumerate(self.rho):
            w.writerow([fmt(data[x]), self.ball.dist[x], rho, rho + 1, int(rho < cut)])


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

    rho(x) = max{|y| <= r : d(x, y) != d(1, y)}, -1 when there is none. With
    y = x_k, d(x, y) = |x^-1 x_k| is read from one gather from x^-1, which
    stays inside the ball because |x| + r <= ball.radius, and the gather is
    scanned from the top down for the last disagreement; y = 1 disagrees
    exactly when x != 1. Candidates are the x whose last disagreement falls
    below r - gap. The report also records whether the set is
    inverse-closed and which in-ball pairwise products escape it; the true
    common zero set is a subgroup, so a clean report is structural
    evidence, a dirty one disproof.
    """
    check_annulus(m, ball.radius, gap)
    r = ball.radius - m
    dist, size, inner = ball.dist, ball.size(r), ball.size(m)
    rho = []
    for x in range(inner):
        pos = ball.gather(ball.inv_index(x), size)
        for k in range(size - 1, -1, -1):
            if dist[pos[k]] != dist[k]:
                rho.append(dist[k])
                break
        else:
            rho.append(-1)
    candidates = [x for x in range(inner) if rho[x] < r - gap]

    cand = set(candidates)
    inverse_closed = all(ball.inv_index(x) in cand for x in candidates)
    mul, data, index = ball.group.mul_data, ball.data, ball.index
    violations = []
    for a in candidates:
        for b in candidates:
            i = index.get(mul(data[a], data[b]))
            if i is not None and i < inner and i not in cand:
                violations.append((a, b))
    return AnnihilatorReport(
        ball, m, r, gap, tuple(rho), tuple(candidates), inverse_closed, tuple(violations)
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

