"""Word-metric balls, segments and geodesic-prefix DAGs on Cayley graphs.

The ball is grown by plain breadth-first search from the identity with ties
broken by generator-list order, which fixes a deterministic parent map and a
deterministic enumeration order used everywhere downstream (functional
vectors, reports, CSV exports).

A ball is one integer-indexed table. Position i holds the i-th element x_i
in BFS order; ``Ball.index`` maps payloads to positions, and flat
per-position arrays hold |x_i| (``dist``), the BFS parent position
(``parent``) and the generator s with x_i = x_parent s (``parent_gen``).
``offsets[k]`` is the first position of layer k, so B_m is the prefix of
length ``size(m)``. BFS expands every layer, the outermost too, and keeps
every product in the neighbour table: ``nbr[s][i]`` is the position of
x_i s, or -1 for a product outside the ball, so the table is complete once
the ball is grown. Each column ends with a -1 so that a -1 position looks
up -1 again. A column is a list of the position ints that ``index`` holds,
so reading an entry makes no int: an array would box a new one for every
position above 256.

Left translates of a prefix need no group arithmetic. For z = x_start,
``gather(start, size)`` sets pos[0] = start and
pos[k] = nbr[parent_gen[k]][pos[parent[k]]], the position of z x_k, one
lookup per entry. It walks a plan of (nbr[parent_gen[k]], parent[k])
pairs that is extended only as far as a gather has read, B_m for a
Busemann vector rather than the whole ball. Once the image of x_k leaves
the ball, the images of its BFS descendants read -1 too, even where they
are stored; callers keep |z| + m <= radius, so nothing leaves. A segment
needs no gather: it is walked down the neighbour table from its far end.

``reach_data`` gives, per position, how far a geodesic from the identity
through x_i extends inside the ball. The length-n geodesic prefixes that
extend to length r are the paths of one DAG on the ball: its vertices are
the positions x with |x| <= n and reach(x) >= r, its edges the neighbour
entries that go one layer up (``PrefixDag``). Prefixes are counted layer by
layer in O(|B_n| |S|), never listed; there can be exponentially many.

BFS runs on the keys the group hands out (``Group.ball_keys``), forming a
layer's products ``SLICE`` keys at a time, each slice in one comprehension,
flat in (position, generator) order; a new element at entry t of a slice
from position lo has parent lo + t // |S| and generator t % |S|. An extension
group's key is one integer packing coset and free part, a product is one add,
and the keys are decoded once after the search; other groups' keys are data.

Memory (tracemalloc, CPython 3.11): a grown ball retains 226 bytes per
element on Z^2 with standard generators at radius 150 (45,301 elements),
227 on z2_rot4 at radius 60 and 193-239 over the other example groups at
11k-36k elements, so the default budget of 5,000,000 elements costs about
1.0-1.2 GB. An extension element is one flat tuple (v_1, ..., v_d, q),
which costs Z^2 a slot for its q = 0. A list column costs a pointer per
entry where an array cost 4 bytes, and the decoded index shares the
column's ints. Growth peaks at 275 bytes per element on that Z^2 ball and
290 on z2_rot4, while the keys are decoded, and at 229 on the lamplighter
at radius 16. A slice holds at most SLICE |S| products; that lamplighter's
outermost layer has 37,572, and held at once they peaked at 303. The
gather plan adds about 96 bytes per position it covers.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass, field
from itertools import islice
from typing import IO, Iterator

from .errors import BallTooLarge, GroupMismatch, OutOfBall, OutOfRange
from .groups import Element, GeneratingSet, Group

__all__ = [
    "Ball",
    "PrefixDag",
    "grow_ball",
    "segment",
    "check_prefix_depth",
    "geodesic_prefixes",
]

DEFAULT_BUDGET = 5_000_000
SLICE = 4096  # keys expanded at once, which bounds the products held


def _small(bound: int) -> str:
    """Array typecode for values in 0..bound: one byte when it fits."""
    return "B" if bound < 256 else "i"


class Ball:
    """All elements with |x|_S <= radius, with BFS distances and parents.

    For every stored x != 1 the parent edge certifies some s in S with
    |x s^-1|_S = |x|_S - 1, so ``path`` reads a geodesic from the identity
    to x off the ball without further search.
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
    ):
        self.group = group
        self.gens = gens
        self.radius = radius
        self.data = data  # position -> payload, BFS order
        self.index = index  # payload -> position
        self.parent = parent  # -1 at the identity
        self.parent_gen = parent_gen  # 0 at the identity, never read there
        self.offsets = offsets  # layer k: positions offsets[k] .. offsets[k+1]-1
        self.dist = array(_small(radius))
        for k in range(len(offsets) - 1):
            self.dist.extend([k] * (offsets[k + 1] - offsets[k]))
        # nbr[s][i] is the position of x_i s, or -1 for a product outside the
        # ball; products holds them row by row, and every column ends with
        # the -1 that a -1 position looks up
        n_gens = len(gens)
        self.nbr = [products[g::n_gens] + [-1] for g in range(n_gens)]
        # (nbr[parent_gen[k]], parent[k]) for k = 0, 1, ..., as far as a
        # gather has read
        self._plan: list[tuple[list[int], int]] = []
        self._inv: dict[int, int] = {}  # position -> its inverse's, as read

    # -- element-facing API --------------------------------------------------
    def __len__(self) -> int:
        return len(self.data)

    def position(self, x: Element) -> int:
        """Position of x, errors when x lies outside the computed radius."""
        if x.group is not self.group:
            raise GroupMismatch(f"{x!r} belongs to a different group")
        i = self.index.get(x.data)
        if i is None:
            raise OutOfBall(f"{x} lies outside the radius-{self.radius} ball")
        return i

    def norm(self, x: Element) -> int:
        """|x|_S, errors when x lies outside the computed radius."""
        return self.dist[self.position(x)]

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

    def data_up_to(self, r: int) -> list[tuple]:
        return self.data[: self.size(r)]

    def inv_index(self, i: int) -> int:
        """Position of x_i^-1, which has the norm of x_i; each position is
        inverted once per ball and remembered."""
        j = self._inv.get(i)
        if j is None:
            j = self._inv[i] = self.index[self.group.inv_data(self.data[i])]
        return j

    def gather(self, start: int, size: int) -> list[int]:
        """pos[k] = position of z x_k for the first ``size`` entries, z = x_start.

        An entry is -1 when z x_k, or the image of a BFS ancestor of x_k,
        lies outside the ball; with |z| + |x_(size-1)| <= radius none is.
        """
        if size < 1:
            if size < 0:
                raise OutOfRange(f"gather size {size} is negative")
            return []
        plan = self._plan
        if len(plan) < size:
            cols = map(self.nbr.__getitem__, islice(self.parent_gen, len(plan), size))
            plan.extend(zip(cols, islice(self.parent, len(plan), size)))
        pos = [start]
        append = pos.append
        for col, p in islice(plan, 1, size):
            append(col[pos[p]])
        return pos

    def path(self, i: int) -> list[int]:
        """Positions of the BFS parent path from the identity to x_i, a
        geodesic: path[k] has norm k, and x_path[k] = x_path[k-1] s for
        s = parent_gen[path[k]]."""
        path = []
        while i >= 0:
            path.append(i)
            i = self.parent[i]
        path.reverse()
        return path

    def reach_data(self) -> array:
        """Per position i: the largest verified L with a geodesic of length L
        from the identity passing through x_i (capped at ball.radius).

        Filled over the whole ball on each call; ``geodesic_prefixes`` is
        its one caller and keeps the table on the ``PrefixDag`` it builds.
        """
        dist = self.dist
        nbr = self.nbr
        reach = array(_small(self.radius), dist)
        # successors sit at higher positions, so they are done first; only
        # rows of the outermost layer hold -1, and dist[-1] is their own k
        for i in range(len(self.data) - 1, -1, -1):
            k = dist[i]
            best = k
            for col in nbr:
                j = col[i]
                if dist[j] == k + 1 and reach[j] > best:
                    best = reach[j]
            reach[i] = best
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
    The outermost layer is expanded too, so the neighbour table is complete:
    a product past the radius records -1 and adds nothing. The search runs
    on the group's ``ball_keys``, which decide neither the order nor the
    positions: each key stands for exactly one element. A budget below 1
    is refused, since even B_0 does not fit it.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if budget < 1:
        raise OutOfRange(f"budget must be >= 1, got {budget}")
    if gens.group is not group:
        raise GroupMismatch("generating set belongs to a different group")
    start, expand, decode = group.ball_keys([s.data for s in gens.elements], radius)
    data = [start]  # keys until the search ends, then data
    index = {start: 0}
    parent = array("i", [-1])
    parent_gen = array(_small(len(gens)), [0])
    offsets = [0, 1]
    n_gens = len(gens)
    products: list[int] = []
    record = products.append
    for k in range(radius + 1):
        grow = k < radius  # layer k's new products form layer k + 1
        # the layer's products, SLICE keys at a time, flat: entry t of a
        # slice from position lo is x_(lo + t // |S|) s_(t % |S|)
        for lo in range(offsets[k], offsets[k + 1], SLICE):
            for t, y in enumerate(expand(data[lo : min(lo + SLICE, offsets[k + 1])])):
                j = index.get(y, -1)
                if j < 0 and grow:
                    j = len(data)
                    if j >= budget:
                        raise BallTooLarge(
                            f"ball exceeded budget of {budget} elements at radius {k + 1}"
                        )
                    index[y] = j
                    data.append(y)
                    i, g = divmod(t, n_gens)
                    parent.append(lo + i)
                    parent_gen.append(g)
                record(j)
        if grow:
            offsets.append(len(data))
            if offsets[k + 1] == offsets[k + 2]:
                break
    if decode is not None:
        # the data index reuses the key index's position ints, which the
        # products hold too; drop the key index before it is built
        positions = list(index.values())
        index = None
        data = decode(data)
        index = dict(zip(data, positions))
    return Ball(group, gens, radius, data, index, parent, parent_gen, offsets, products)


def segment(ball: Ball, x: Element, y: Element) -> frozenset[Element]:
    """{z : d(x,z) + d(z,y) = d(x,y)}, walked down the neighbour table.

    With u = x^-1 y and d = |u|, z = x w lies on the segment iff w lies on
    [1, u] = {w : |w| + d(w, u) = d}. Start at u and step, layer by layer,
    to every neighbour w s one layer down, |w s| = |w| - 1; the points met
    are exactly [1, u]. Each is on it: if w is on [1, u] and |w s| = |w| - 1,
    then d(w s, u) <= 1 + d(w, u) = d - |w s|, and the triangle inequality
    gives the reverse bound, so w s is on [1, u]. Each is met: a geodesic
    from 1 to w followed by one from w to u has length |w| + d(w, u) = d, so
    it is a geodesic from 1 to u, its k-th vertex has norm k, and read from
    u back to w it steps one layer down each time. The walk reads
    |S| neighbour entries per point of the segment and never leaves B_d.
    """
    group = ball.group
    if x.group is not group or y.group is not group:
        raise GroupMismatch("segment endpoints must live in the ball's group")
    u = group.mul_data(group.inv_data(x.data), y.data)
    d = ball.dist_data(u)
    if d is None:
        raise OutOfBall(f"d({x},{y}) needs {group.format_data(u)} beyond radius {ball.radius}")
    dist, nbr = ball.dist, ball.nbr
    layer = [ball.index[u]]
    seen = set(layer)
    # a -1 entry reads dist[-1], the outermost layer's norm, never a k < d
    for k in range(d - 1, -1, -1):
        below = []
        for w in layer:
            for col in nbr:
                j = col[w]
                if dist[j] == k and j not in seen:
                    seen.add(j)
                    below.append(j)
        layer = below
    data = ball.data
    return frozenset(Element(group, group.mul_data(x.data, data[w])) for w in seen)


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
    reach: array = field(repr=False, compare=False)  # the ball's reach_data, read once

    def edges(self) -> Iterator[tuple[int, int]]:
        """Pairs (i, j) with x_j = x_i s, layer by layer, each edge once."""
        ball = self.ball
        dist = ball.dist
        reach = self.reach
        nbr = ball.nbr
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
        reach = self.reach
        fp.write("digraph prefixes {\n")
        for layer in self.layers:
            for i in layer:
                fp.write(f'  n{i} [label="{fmt(data[i])} h={reach[i]}"];\n')
        for i, j in self.edges():
            fp.write(f"  n{i} -> n{j};\n")
        fp.write("}\n")


def check_prefix_depth(n: int, r: int) -> None:
    """Refuse a prefix depth n outside 0..r; it reads no ball, so a run can
    call it before the ball is grown."""
    if not (0 <= n <= r):
        raise ValueError(f"need 0 <= n <= r, got n={n}, r={r}")


def geodesic_prefixes(ball: Ball, n: int, r: int) -> PrefixDag:
    """DAG of all length-n prefixes extendable to geodesics of length r.

    A vertex x needs reach(x) >= r. Every such x is reached through its BFS
    parent, whose reach is at least as large, so each vertex lies on a prefix.
    """
    check_prefix_depth(n, r)
    if r > ball.radius:
        raise OutOfBall(f"horizon {r} exceeds ball radius {ball.radius}")
    reach = ball.reach_data()
    layers = tuple(
        tuple(i for i in range(ball.size(k - 1), ball.size(k)) if reach[i] >= r)
        for k in range(n + 1)
    )
    return PrefixDag(ball, n, r, layers, reach)
