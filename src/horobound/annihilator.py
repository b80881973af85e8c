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
from typing import IO, Iterable

from .boundary import BoundaryApprox
from .cayley import Ball
from .errors import ClosureEscapedBound, OutOfBall
from .groups import Element

__all__ = [
    "DEFAULT_GAP",
    "Profile",
    "AnnihilatorReport",
    "FunctionalZeroSets",
    "ClosureReport",
    "IndexBoundCheck",
    "indistinguishability_profile",
    "annihilator_candidates",
    "functional_annihilator",
    "generated_subgroup_bound",
    "index_bound_check",
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
    nx = ball.norm(x)
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
    pos = ball.gather(ball.inv_index(ball.index[x.data]), ball.size(r))
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

    def profile_of(self, x: Element) -> Profile:
        for p in self.profiles:
            if p.element.data == x.data:
                return p
        raise OutOfBall(f"{x} was not profiled (outside B_{self.m})")

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


def annihilator_candidates(
    ball: Ball, m: int, gap: int = DEFAULT_GAP
) -> AnnihilatorReport:
    """Profile every x in B_m against the annulus up to r = ball.radius - m.

    Candidates are the elements whose last disagreement falls below r - gap.
    The report also records whether the set is inverse-closed and which
    in-ball pairwise products escape it; the true common zero set is a
    subgroup, so a clean report is structural evidence, a dirty one disproof.
    """
    if not (0 < m < ball.radius):
        raise OutOfBall(f"need 0 < m < ball radius {ball.radius}, got m={m}")
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


@dataclass(frozen=True)
class ClosureReport:
    elements: tuple[Element, ...]
    size: int
    max_norm: int
    r_bound: int


def generated_subgroup_bound(
    candidates: Iterable[Element], ball: Ball, r_bound: int | None = None
) -> ClosureReport:
    """Close the candidates under products inside {|x| <= r_bound}.

    The bound defaults to the largest witness radius rho(u) + 1 among the
    inputs: genuine annihilator elements generate a subgroup trapped in that
    ball. ``Ball.closure`` does the walk. When a product (or an input) leaves
    the bound, the diagnostic carries the first escapee and the size of the
    closure inside the bound; that is evidence that some input is not an
    annihilator element (or that its witness radius was underestimated).
    """
    group = ball.group
    seed = sorted({g.data for g in candidates})
    if r_bound is None:
        r_bound = 0
        for d in seed:
            p = indistinguishability_profile(Element(group, d), ball, gap=0)
            r_bound = max(r_bound, p.witness_radius)
    inside, escaped = ball.closure(seed, r_bound)
    if escaped is not None:
        raise ClosureEscapedBound(
            "closure left the witness-radius ball; some input is "
            "likely not an annihilator element",
            escaped=group.format_data(escaped),
            r_bound=r_bound,
            partial_size=len(inside),
        )
    ordered = sorted(inside, key=lambda i: (ball.dist[i], ball.data[i]))
    return ClosureReport(
        tuple(Element(group, ball.data[i]) for i in ordered),
        len(inside),
        ball.dist[ordered[-1]],
        r_bound,
    )


@dataclass(frozen=True)
class IndexBoundCheck:
    candidate_count: int
    index: int
    subgroup_factor: int
    bound: int
    ok: bool
    slack: int
    offending: tuple[Element, ...]

    def to_json_dict(self) -> dict:
        return {
            "candidate_count": self.candidate_count,
            "index": self.index,
            "subgroup_factor": self.subgroup_factor,
            "bound": self.bound,
            "ok": self.ok,
            "slack": self.slack,
            "offending": [str(e) for e in self.offending],
        }


def index_bound_check(
    report: AnnihilatorReport, h_index: int, subgroup_factor: int = 1
) -> IndexBoundCheck:
    """Candidate count against the index bound |N| <= [G:H] * L(H).

    The caller supplies the index of a declared torsion-free finite-index
    subgroup; the factor stays 1 when that subgroup is free abelian. Excess
    candidates (sorted by norm, then data) are listed when the bound fails:
    the semi-decision has then over-counted.
    """
    if h_index < 1 or subgroup_factor < 1:
        raise ValueError("index and factor are positive integers")
    bound = h_index * subgroup_factor
    count = len(report.candidates)
    ranked = sorted(report.candidates, key=lambda e: (report.ball.norm(e), e.data))
    offending = tuple(ranked[bound:]) if count > bound else ()
    return IndexBoundCheck(
        count, h_index, subgroup_factor, bound, count <= bound, bound - count, offending
    )
