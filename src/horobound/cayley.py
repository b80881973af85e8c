"""Word-metric balls, geodesic segments and geodesic-prefix DAGs on Cayley graphs.

The ball is grown by plain breadth-first search from the identity with ties
broken by generator-list order, which fixes a deterministic parent map and a
deterministic enumeration order used everywhere downstream (functional
vectors, reports, CSV exports).

A ball is one integer-indexed table. Position i holds the i-th element x_i
in BFS order; ``Ball.index`` maps payloads to positions, and flat
per-position arrays hold |x_i| (``dist``), the BFS parent position
(``parent``) and the generator s with x_i = x_parent s (``parent_gen``).
``offsets[k]`` is the first position of layer k, so B_m is the prefix of
length ``size(m)``. The neighbour table keeps every product BFS computed:
``nbr[s][i]`` is the position of x_i s. Rows of the outermost layer are
filled on first use, with -1 for a product outside the ball, and each
column ends with a -1 so that a -1 position looks up -1 again.

Left translates of a prefix need no group arithmetic. For z = x_start,
``gather(start, size)`` sets pos[0] = start and
pos[k] = nbr[parent_gen[k]][pos[parent[k]]], the position of z x_k, one
lookup per entry. Once the image of x_k leaves the ball, the images of its
BFS descendants read -1 too, even where they are stored: callers either
keep |z| + m <= radius, so nothing leaves, or (``segment``) use only that a
-1 entry has |x_k| + |z x_k| > radius.

``reach_data`` gives, per position, how far a geodesic from the identity
through x_i extends inside the ball. The length-n geodesic prefixes that
extend to length r are the paths of one DAG on the ball: its vertices are
the positions x with |x| <= n and reach(x) >= r, its edges the neighbour
entries that go one layer up (``PrefixDag``). Prefixes are counted layer by
layer in O(|B_n| |S|), never listed; there can be exponentially many.

Memory (tracemalloc, CPython 3.11): a grown ball retains 202 bytes per
element on Z^2 with standard generators at radius 150 (45,301 elements),
and 185-243 bytes per element over the example groups at 11k-80k elements,
so the default budget of 5,000,000 elements costs about 0.9-1.2 GB.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass
from itertools import islice
from typing import IO, Iterator

from .errors import BallTooLarge, GroupMismatch, OutOfBall
from .groups import Element, GeneratingSet, Group

__all__ = [
    "Ball",
    "GeodesicPrefix",
    "PrefixDag",
    "grow_ball",
    "distance",
    "segment",
    "geodesic_between",
    "geodesic_prefixes",
]

DEFAULT_BUDGET = 5_000_000


def _small(bound: int) -> str:
    """Array typecode for values in 0..bound: one byte when it fits."""
    return "B" if bound < 256 else "i"


class Ball:
    """All elements with |x|_S <= radius, with BFS distances and parents.

    For every stored x != 1 the parent edge certifies some s in S with
    |x s^-1|_S = |x|_S - 1, so geodesics to the identity can be read off
    without further search.
    """

    def __init__(
        self,
        group: Group,
        gens: GeneratingSet,
        radius: int,
        data: list[tuple],
        index: dict,
        parent: array,
        parent_gen: array,
        offsets: list[int],
        products: list[int],
        exhausted: bool,
    ):
        self.group = group
        self.gens = gens
        self.radius = radius
        self.data = data  # position -> payload, BFS order
        self.index = index  # payload -> position
        self.parent = parent  # -1 at the identity
        self.parent_gen = parent_gen  # 0 at the identity, never read there
        self.offsets = offsets  # layer k: positions offsets[k] .. offsets[k+1]-1
        self.exhausted = exhausted
        self.dist = array(_small(radius))
        for k in range(len(offsets) - 1):
            self.dist.extend([k] * (offsets[k + 1] - offsets[k]))
        # products holds x_i s row by row for the positions BFS expanded; the
        # rim's rows start as -1 until ``neighbours`` fills them, and every
        # column ends with the -1 that a -1 position looks up
        n_gens = len(gens)
        self._filled = len(products) // n_gens
        pad = [-1] * (len(data) - self._filled + 1)
        self._nbr = [array("i", products[g::n_gens] + pad) for g in range(n_gens)]
        self._reach: array | None = None

    # -- element-facing API --------------------------------------------------
    def __len__(self) -> int:
        return len(self.data)

    def __contains__(self, x: Element) -> bool:
        return x.group is self.group and x.data in self.index

    def norm(self, x: Element) -> int:
        """|x|_S, errors when x lies outside the computed radius."""
        if x.group is not self.group:
            raise GroupMismatch(f"{x!r} belongs to a different group")
        i = self.index.get(x.data)
        if i is None:
            raise OutOfBall(f"{x} lies outside the radius-{self.radius} ball")
        return self.dist[i]

    def sphere(self, r: int) -> list[Element]:
        if not (0 <= r <= self.radius):
            raise OutOfBall(f"sphere radius {r} outside 0..{self.radius}")
        return [Element(self.group, d) for d in self.layer_data(r)]

    def elements(self, max_radius: int | None = None) -> Iterator[Element]:
        """Elements in BFS order up to max_radius (default: whole ball)."""
        for d in self.data_up_to(self.radius if max_radius is None else max_radius):
            yield Element(self.group, d)

    def layer_sizes(self) -> list[int]:
        off = self.offsets
        return [off[k + 1] - off[k] for k in range(len(off) - 1)]

    # -- index-facing internals ------------------------------------------------
    def size(self, r: int) -> int:
        """|B_r|, the length of the BFS prefix that holds the radius-r ball."""
        if r > self.radius:
            raise OutOfBall(f"radius {r} exceeds computed radius {self.radius}")
        off = self.offsets
        return off[min(r + 1, len(off) - 1)] if r >= 0 else 0

    def dist_data(self, data: tuple) -> int | None:
        i = self.index.get(data)
        return None if i is None else self.dist[i]

    def layer_data(self, r: int) -> list[tuple]:
        if not (0 <= r <= self.radius):
            raise OutOfBall(f"layer {r} outside 0..{self.radius}")
        return self.data[self.size(r - 1) : self.size(r)]

    def data_up_to(self, r: int) -> list[tuple]:
        return self.data[: self.size(r)]

    def inv_index(self, i: int) -> int:
        """Position of x_i^-1, which has the norm of x_i."""
        return self.index[self.group.inv_data(self.data[i])]

    def neighbours(self, rows: int) -> list[array]:
        """The neighbour table, with the products of x_0 .. x_(rows-1) filled.

        ``nbr[s][i]`` is the position of x_i s, or -1 when the product lies
        outside the ball; ``nbr[s][-1]`` is -1.
        """
        if rows > self._filled:
            group = self.group
            index = self.index
            rim = self.data[self._filled :]
            for col, s in zip(self._nbr, self.gens.elements):
                col[self._filled : -1] = array(
                    "i", [index.get(group.mul_data(x, s.data), -1) for x in rim]
                )
            self._filled = len(self.data)
        return self._nbr

    def gather(self, start: int, size: int) -> list[int]:
        """pos[k] = position of z x_k for the first ``size`` entries, z = x_start.

        An entry is -1 when z x_k, or the image of a BFS ancestor of x_k,
        lies outside the ball; with |z| + |x_(size-1)| <= radius none is.
        """
        if self.dist[start] + self.dist[size - 1] <= self.radius:
            nbr = self._nbr  # only rows of norm < radius are read, BFS filled them
        else:
            nbr = self.neighbours(len(self.data))
        pos = [start]
        append = pos.append
        for s, p in zip(islice(self.parent_gen, 1, size), islice(self.parent, 1, size)):
            append(nbr[s][pos[p]])
        return pos

    def closure(self, gens: list[tuple], bound: int) -> tuple[set[int], tuple | None]:
        """Positions of the products of ``gens`` that lie in B_bound, and the
        first product that leaves B_bound (None when none does).

        Breadth-first from the identity, layer by layer, expanding each
        position by ``gens`` in list order, so the seeds are the first layer.
        The walk goes on past an escape and gathers everything reachable
        inside B_bound. For a generator u = s_1 .. s_k along its BFS parent
        path, w u is k neighbour-table lookups from w. A lookup reads -1 once
        some w s_1 .. s_j leaves the ball (or reaches an unfilled rim row),
        although w u itself may lie inside, so only then is w u multiplied
        out; u outside the ball is always multiplied.
        """
        if not (0 <= bound <= self.radius):
            raise OutOfBall(f"bound {bound} outside 0..{self.radius}")
        group, data, index, dist = self.group, self.data, self.index, self.dist
        nbr = self.neighbours(self.size(bound))
        walks = []  # (u, the neighbour columns s_1 .. s_k, or None for u outside the ball)
        for u in gens:
            i = index.get(u)
            cols = None
            if i is not None:
                cols = []
                while i > 0:
                    cols.append(nbr[self.parent_gen[i]])
                    i = self.parent[i]
                cols.reverse()
            walks.append((u, cols))
        inside = {0}
        frontier = [0]
        escaped = None
        while frontier:
            nxt = []
            for w in frontier:
                for u, cols in walks:
                    v = -1
                    if cols is not None:
                        v = w
                        for col in cols:
                            v = col[v]
                    if v < 0:
                        prod = group.mul_data(data[w], u)
                        v = index.get(prod, -1)
                    if v in inside:
                        continue
                    if v < 0 or dist[v] > bound:
                        if escaped is None:
                            escaped = prod if v < 0 else data[v]
                        continue
                    inside.add(v)
                    nxt.append(v)
            frontier = nxt
        return inside, escaped

    def parent_path_data(self, data: tuple) -> list[tuple]:
        """BFS geodesic identity .. data as raw payloads."""
        i = self.index[data]
        path = []
        while i >= 0:
            path.append(self.data[i])
            i = self.parent[i]
        path.reverse()
        return path

    def reach_data(self) -> array:
        """Per position i: the largest verified L with a geodesic of length L
        from the identity passing through x_i (capped at ball.radius)."""
        if self._reach is not None:
            return self._reach
        dist = self.dist
        nbr = self._nbr
        top = len(self.offsets) - 2  # the outermost layer grown
        reach = array(_small(self.radius), dist)
        # successors sit at higher positions, so they are done first; every
        # row below the outermost layer was filled by BFS
        for i in range(len(self.data) - 1, -1, -1):
            k = dist[i]
            if k < top:
                best = k
                for col in nbr:
                    j = col[i]
                    if dist[j] == k + 1 and reach[j] > best:
                        best = reach[j]
                reach[i] = best
        self._reach = reach
        return reach

    # -- exports ----------------------------------------------------------------
    def to_csv(self, fp: IO[str]) -> None:
        """Rows element,distance,parent in BFS order; identity has no parent."""
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(["element", "distance", "parent"])
        fmt = self.group.format_data
        labels = self.gens.labels
        for i, (d, k, s) in enumerate(zip(self.data, self.dist, self.parent_gen)):
            writer.writerow([fmt(d), k, labels[s] if i else ""])


def grow_ball(
    group: Group,
    gens: GeneratingSet,
    radius: int,
    budget: int = DEFAULT_BUDGET,
) -> Ball:
    """BFS out to the given radius.

    Deterministic: layers are expanded in discovery order and generators in
    list order, so parents and enumeration order never depend on hashing.
    Every product computed is kept in the neighbour table.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if gens.group is not group:
        raise GroupMismatch("generating set belongs to a different group")
    gen_data = [s.data for s in gens.elements]
    mul = group.mul_data
    identity = group.identity_data()
    data = [identity]
    index = {identity: 0}
    parent = array("i", [-1])
    parent_gen = array(_small(len(gen_data)), [0])
    offsets = [0, 1]
    products: list[int] = []
    record = products.append
    exhausted = False
    for k in range(1, radius + 1):
        for i in range(offsets[k - 1], offsets[k]):
            x = data[i]
            for g, s in enumerate(gen_data):
                y = mul(x, s)
                j = index.get(y)
                if j is None:
                    if len(data) >= budget:
                        raise BallTooLarge(
                            f"ball exceeded budget of {budget} elements at radius {k}"
                        )
                    j = index[y] = len(data)
                    data.append(y)
                    parent.append(i)
                    parent_gen.append(g)
                record(j)
        offsets.append(len(data))
        if offsets[k] == offsets[k + 1]:
            exhausted = True
            break
    return Ball(
        group, gens, radius, data, index, parent, parent_gen, offsets, products, exhausted
    )


def distance(ball: Ball, x: Element, y: Element) -> int:
    """d_S(x, y) = |x^-1 y|_S, exact as long as x^-1 y is stored."""
    group = ball.group
    if x.group is not group or y.group is not group:
        raise GroupMismatch("distance arguments must live in the ball's group")
    u = group.mul_data(group.inv_data(x.data), y.data)
    d = ball.dist_data(u)
    if d is None:
        raise OutOfBall(
            f"d({x},{y}) needs {group.format_data(u)} beyond radius {ball.radius}"
        )
    return d


def segment(ball: Ball, x: Element, y: Element) -> frozenset[Element]:
    """{z : d(x,z) + d(z,y) = d(x,y)}, scanned exhaustively inside the ball.

    With u = x^-1 y and d = |u| <= R = ball.radius, z = x w lies on the
    segment iff |w| + |u^-1 w| = d, for w in B_d. The gather from u^-1 gives
    |u^-1 w| wherever it stays inside the ball. Skipping an entry it leaves
    at -1 is exact: then |u^-1 w'| > R for w' = w or a BFS ancestor of w,
    and as w' lies on a geodesic from 1 to w the triangle inequality gives
    |w| + |u^-1 w| >= |w'| + |u^-1 w'| > R >= d, so w is not on the segment.
    """
    group = ball.group
    d = distance(ball, x, y)
    u = group.mul_data(group.inv_data(x.data), y.data)
    pos = ball.gather(ball.inv_index(ball.index[u]), ball.size(d))
    dist = ball.dist
    data = ball.data
    return frozenset(
        Element(group, group.mul_data(x.data, data[k]))
        for k, j in enumerate(pos)
        if j >= 0 and dist[k] + dist[j] == d
    )


@dataclass(frozen=True)
class GeodesicPrefix:
    """A geodesic path, verified pointwise inside its supporting ball."""

    vertices: tuple[Element, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("a geodesic needs at least one vertex")

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    def verify(self, ball: Ball) -> None:
        """Check d(v_i, v_j) = |i - j| for every pair computable in the ball."""
        vs = self.vertices
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                try:
                    d = distance(ball, vs[i], vs[j])
                except OutOfBall:
                    continue
                if d != j - i:
                    raise ValueError(
                        f"not a geodesic: d({vs[i]},{vs[j]}) = {d} != {j - i}"
                    )


def geodesic_between(ball: Ball, x: Element, y: Element) -> GeodesicPrefix:
    """The deterministic (BFS-parent) geodesic from x to y."""
    group = ball.group
    d = distance(ball, x, y)  # validates membership en route
    u = group.mul_data(group.inv_data(x.data), y.data)
    path = ball.parent_path_data(u)
    verts = tuple(Element(group, group.mul_data(x.data, w)) for w in path)
    prefix = GeodesicPrefix(verts)
    if d <= 6:  # cheap sizes: verify pairwise, else trust BFS layering
        prefix.verify(ball)
    return prefix


@dataclass(frozen=True)
class PrefixDag:
    """All length-n geodesic prefixes that extend to geodesics of length r.

    Layer k holds the positions x with |x| = k and reach(x) >= r, and the
    edges are the neighbour-table entries x -> x s that go one layer up. A
    prefix is a path from the identity to the top layer, so the DAG has at
    most |B_n| vertices however many prefixes there are.
    """

    ball: Ball
    depth: int  # n
    min_horizon: int  # r
    layers: tuple[tuple[int, ...], ...]  # layers[k]: vertex positions at norm k

    def edges(self) -> Iterator[tuple[int, int]]:
        """Pairs (i, j) with x_j = x_i s, layer by layer, each edge once."""
        ball = self.ball
        dist = ball.dist
        reach = ball.reach_data()
        nbr = ball.neighbours(ball.size(self.depth - 1))
        for k, layer in enumerate(self.layers[:-1]):
            for i in layer:
                for col in nbr:
                    j = col[i]
                    if dist[j] == k + 1 and reach[j] >= self.min_horizon:
                        yield i, j

    def count(self) -> int:
        """Number of prefixes: paths into each vertex, summed layer by layer."""
        paths = [0] * self.ball.size(self.depth)
        for i in self.layers[0]:
            paths[i] = 1
        for i, j in self.edges():
            paths[j] += paths[i]
        return sum(paths[j] for j in self.layers[-1])

    def to_dot(self, fp: IO[str]) -> None:
        fmt = self.ball.group.format_data
        data = self.ball.data
        reach = self.ball.reach_data()
        fp.write("digraph prefixes {\n")
        for layer in self.layers:
            for i in layer:
                fp.write(f'  n{i} [label="{fmt(data[i])} h={reach[i]}"];\n')
        for i, j in self.edges():
            fp.write(f"  n{i} -> n{j};\n")
        fp.write("}\n")


def geodesic_prefixes(ball: Ball, n: int, r: int) -> PrefixDag:
    """DAG of all length-n prefixes extendable to geodesics of length r.

    A vertex x needs reach(x) >= r. Every such x is reached through its BFS
    parent, whose reach is at least as large, so each vertex lies on a prefix.
    """
    if not (0 <= n <= r):
        raise ValueError(f"need 0 <= n <= r, got n={n}, r={r}")
    if r > ball.radius:
        raise OutOfBall(f"horizon {r} exceeds ball radius {ball.radius}")
    reach = ball.reach_data()
    layers = tuple(
        tuple(i for i in range(ball.size(k - 1), ball.size(k)) if reach[i] >= r)
        for k in range(n + 1)
    )
    return PrefixDag(ball, n, r, layers)
