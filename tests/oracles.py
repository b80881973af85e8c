"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive: hand-written group arithmetic, plain
queue BFS, textbook monotone-chain hulls, O(n^2) scans. Slow but obviously
correct, and sharing no code with the package under test. Closed-form norms
are included where a formula is easy to justify by hand, so the BFS oracles
themselves can be cross-checked.
"""

import json
from collections import deque
from fractions import Fraction


# -- hand-written group arithmetic -------------------------------------------

def zd_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def zd_inv(a):
    return tuple(-x for x in a)


def cyl_ops(n):
    """Z x Z/n: pairs (x, y) with y reduced mod n."""

    def mul(a, b):
        return (a[0] + b[0], (a[1] + b[1]) % n)

    def inv(a):
        return (-a[0], (-a[1]) % n)

    return mul, inv, (0, 0)


def torsion_ops(torsion):
    """Z^k x prod Z/t: free coords first, torsion coords reduced."""
    k = len(torsion)

    def mul(a, b):
        free = tuple(x + y for x, y in zip(a[:-k], b[:-k])) if k else zd_mul(a, b)
        tor = tuple((x + y) % t for x, y, t in zip(a[-k:], b[-k:], torsion))
        return free + tor

    def inv(a):
        free = tuple(-x for x in a[:-k]) if k else zd_inv(a)
        tor = tuple((-x) % t for x, t in zip(a[-k:], torsion))
        return free + tor

    return mul, inv


def lamp_mul(a, b):
    """(L1, p1) * (L2, p2) = (L1 xor (L2 + p1), p1 + p2), lamps as sorted tuples."""
    lamps = set(a[0]) ^ {x + a[1] for x in b[0]}
    return (tuple(sorted(lamps)), a[1] + b[1])


def lamp_inv(a):
    return (tuple(sorted(x - a[1] for x in a[0])), -a[1])


def lamp_parse(text):
    """(lamps as written, shift) from lamplighter text such as ``({-1,2};3)``."""
    lamps, shift = text.strip()[2:-1].split("};")
    return (tuple(int(p) for p in lamps.split(",") if p), int(shift))


def lamp_form(data):
    """(mask, low, shift) -> (lamps as a sorted tuple, shift): bit i of mask
    is the lamp at low + i, read one bit at a time."""
    mask, low, shift = data
    lamps = []
    while mask:
        if mask & 1:
            lamps.append(low)
        mask >>= 1
        low += 1
    return (tuple(lamps), shift)


def torsion_form(torsion):
    """Flat fg_abelian data (free coords, q) -> (free coords, torsion coords):
    q read in mixed radix, the first torsion coordinate fastest."""

    def form(data):
        q = data[-1]
        coords = []
        for t in torsion:
            coords.append(q % t)
            q //= t
        return tuple(data[:-1]) + tuple(coords)

    return form


def oracle_form(group):
    """data -> the form the REGISTRY_OPS oracles read, with no call into the
    package.

    Extension data is flat, (v_1, ..., v_d, q). An ``fg_abelian`` q becomes
    its torsion coordinates (``torsion_form``), a ``vab_extension`` element
    becomes ((v_1, ..., v_d), q), and ``finite`` data (i,) is used as it is.
    The lamplighter's (mask, low, shift) is read bit by bit (``lamp_form``).
    """
    if group.family == "lamplighter_z2":
        return lamp_form
    if group.family == "fg_abelian":
        return torsion_form(group.torsion)
    if group.family == "vab_extension":
        return lambda data: (tuple(data[:-1]), data[-1])
    return lambda data: data


ROT90 = ((0, -1), (1, 0))


def _rot(v, times):
    x, y = v
    for _ in range(times % 4):
        x, y = -y, x
    return (x, y)


def rot4_mul(a, b):
    """Z^2 by Z/4 through the quarter turn, zero cocycle: data ((x, y), q)."""
    moved = _rot(b[0], a[1])
    return ((a[0][0] + moved[0], a[0][1] + moved[1]), (a[1] + b[1]) % 4)


def rot4_inv(a):
    v = _rot(a[0], (-a[1]) % 4)
    return ((-v[0], -v[1]), (-a[1]) % 4)


def two_z_ops():
    """Z as 2Z by Z/2 with c(1, 1) = (1): data ((v,), q) is the integer 2v + q."""

    def to_int(a):
        return 2 * a[0][0] + a[1]

    def from_int(n):
        return ((n // 2,), n % 2)

    def mul(a, b):
        return from_int(to_int(a) + to_int(b))

    def inv(a):
        return from_int(-to_int(a))

    return mul, inv


def klein_ops():
    """The Klein bottle group <a, b | b a b^-1 = a^-1> on the kernel <a, b^2>.

    Data ((v1, v2), q) is a^v1 b^(2 v2 + q), so b acts on the kernel by
    diag(-1, 1) and c(1, 1) = (0, 1) = b^2. In the words a^m b^n the product
    is a^m b^n a^k b^l = a^(m + (-1)^n k) b^(n + l).
    """

    def to_word(a):
        return a[0][0], 2 * a[0][1] + a[1]

    def from_word(m, n):
        return ((m, n // 2), n % 2)

    def mul(a, b):
        (m, n), (k, l) = to_word(a), to_word(b)
        return from_word(m + (-1) ** n * k, n + l)

    def inv(a):
        m, n = to_word(a)
        return from_word(-((-1) ** n) * m, -n)

    return mul, inv


def dihedral_ops(n):
    """D_n on indices n f + k for s^f r^k (r a rotation, s a reflection)."""

    def mul(a, b):
        f, k = divmod(a[0], n)
        g, m = divmod(b[0], n)
        return (n * ((f + g) % 2) + ((-k if g else k) + m) % n,)

    def inv(a):
        f, k = divmod(a[0], n)
        return (a[0],) if f else ((-k) % n,)

    return mul, inv, (0,)


def mat_vec(a, v):
    """A v entry by entry, as a generator of index sums."""
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


# (mul, inv) on the element data of each group in horobound.examples.REGISTRY
REGISTRY_OPS = {
    "z_line": (zd_mul, zd_inv),
    "z2": (zd_mul, zd_inv),
    "cylinder_n4": cyl_ops(4)[:2],
    "fat_cylinder_n3": cyl_ops(3)[:2],
    "z2_rot4": (rot4_mul, rot4_inv),
    "lamplighter_z2": (lamp_mul, lamp_inv),
}


# -- metric oracles -----------------------------------------------------------

def bfs_dist(mul, gens, identity, radius):
    """data -> word norm, for every element within the radius."""
    dist = {identity: 0}
    queue = deque([identity])
    while queue:
        x = queue.popleft()
        if dist[x] == radius:
            continue
        for s in gens:
            y = mul(x, s)
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def oracle_ball(mul, gens, identity, radius):
    """Every field of the radius-``radius`` ball, by queue BFS on the data.

    ``data`` in discovery order (layers in order, each element's products in
    generator order); ``parent[i]`` and ``parent_gen[i]`` the element and
    generator that first reached data[i] (-1 and 0 at the identity);
    ``offsets[k]`` the number of elements of norm < k, up to radius + 1 or
    to the first empty layer; ``nbr[g][i]`` the position of data[i] gens[g],
    or -1 outside the ball.
    """
    data, dist, parent, parent_gen = [identity], [0], [-1], [0]
    pos = {identity: 0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        if dist[i] == radius:
            continue
        for g, s in enumerate(gens):
            y = mul(data[i], s)
            if y not in pos:
                pos[y] = len(data)
                queue.append(len(data))
                data.append(y)
                dist.append(dist[i] + 1)
                parent.append(i)
                parent_gen.append(g)
    offsets = [0]
    for k in range(radius + 1):
        offsets.append(offsets[-1] + dist.count(k))
        if offsets[-1] == offsets[-2]:
            break
    nbr = [[pos.get(mul(x, s), -1) for x in data] for s in gens]
    return {
        "data": data,
        "parent": parent,
        "parent_gen": parent_gen,
        "offsets": offsets,
        "nbr": nbr,
    }


def oracle_distance(dist, mul, inv, x, y):
    return dist[mul(inv(x), y)]


def ball_distance(ball, x, y):
    """d_S(x, y) = |x^-1 y|_S for Elements x, y, read off a grown ball;
    None when x^-1 y lies outside it."""
    return ball.dist_data((x.inverse() * y).data)


def busemann_vec(dist, mul, inv, y, domain):
    """(d(y, x) - |y| for x in domain), all read off the oracle table."""
    ny = dist[y]
    yi = inv(y)
    return tuple(dist[mul(yi, x)] - ny for x in domain)


def oracle_act(h, x, ball):
    """The vector of x.h on B_{m - |x|}, m = h.domain_radius, in the ball's
    BFS order: (x.h)(y) = h(x^-1 y) - h(x^-1), by Element products and
    ``Functional.value``, with no ball positions or gathers."""
    x_inv = x.inverse()
    base = h.value(x_inv)
    domain = ball.data_up_to(h.domain_radius - ball.norm(x))
    return tuple(h.value(x_inv * ball.group.element(y)) - base for y in domain)


def check_lipschitz(ball, vec):
    """Raise ValueError unless the values ``vec`` on the first len(vec) ball
    positions have |vec[i]| <= |x_i| for every i and |vec[i] - vec[j]| <= 1
    on every edge {x_i, x_j} of that prefix, each edge read from both ends
    of the ball's neighbour table (-1, outside the ball, is no edge)."""
    size = len(vec)
    for i in range(size):
        if abs(vec[i]) > ball.dist[i]:
            raise ValueError("functional exceeds the word norm somewhere")
    for i in range(size):
        for col in ball.nbr:
            j = col[i]
            if 0 <= j < size and abs(vec[i] - vec[j]) > 1:
                raise ValueError("functional is not 1-Lipschitz along an edge")


def oracle_segment(dist, mul, inv, universe, x, y):
    """{z in universe : d(x,z) + d(z,y) = d(x,y)}."""
    d = oracle_distance(dist, mul, inv, x, y)
    out = set()
    for z in universe:
        a = mul(inv(x), z)
        b = mul(inv(z), y)
        if a in dist and b in dist and dist[a] + dist[b] == d:
            out.add(z)
    return out


def oracle_geodesic_defects(norm, mul, inv, path):
    """Pairs (i, j), i < j, of vertices with d(v_i, v_j) = |v_i^-1 v_j| != j - i,
    every pair checked: a path is a geodesic exactly when there are none.
    ``norm`` maps data to its word norm, or to None where that is unknown,
    and a pair at an unknown distance is skipped."""
    out = []
    for i, a in enumerate(path):
        for j in range(i + 1, len(path)):
            d = norm(mul(inv(a), path[j]))
            if d is not None and d != j - i:
                out.append((i, j))
    return out


def oracle_geodesic_prefixes(mul, gens, identity, n, r):
    """Vertex tuples (v_0, ..., v_n) of the length-n prefixes of every
    geodesic word of length r: all words, each step one BFS layer up."""
    dist = bfs_dist(mul, gens, identity, r)
    out = set()

    def walk(path):
        if len(path) == r + 1:
            out.add(tuple(path[: n + 1]))
            return
        for s in gens:
            y = mul(path[-1], s)
            if dist.get(y) == len(path):
                walk(path + [y])

    walk([identity])
    return out


def oracle_coset_count(mul, inv, identity, gens, sub, radius):
    """Number of pieces into which the cosets x<sub> cut the ball B_radius.

    Two ball elements share a piece when a path of steps x -> x h, h in
    sub or its inverses, joins them inside the ball. Each piece lies in one
    coset, so once the ball meets every coset and each coset's trace on it
    is joined, the count is the index; for an infinite index it keeps
    growing with the radius.
    """
    ball = bfs_dist(mul, gens, identity, radius)
    steps = list(sub) + [inv(h) for h in sub]
    seen = set()
    count = 0
    for x in ball:
        if x in seen:
            continue
        count += 1
        seen.add(x)
        stack = [x]
        while stack:
            y = stack.pop()
            for h in steps:
                z = mul(y, h)
                if z in ball and z not in seen:
                    seen.add(z)
                    stack.append(z)
    return count


def l1(v):
    return sum(abs(x) for x in v)


def cyl_closed_norm(n, x, y):
    """Word norm on Z x Z/n with S = {(+-1,0), (+-1,+-1)}.

    Every step moves x by exactly +-1 and y by 0 or +-1, so k steps reach
    (x, y) iff k >= |x|, k == x (mod 2), and some lift m of y has |m| <= k.
    """
    best = min(abs(y - n * j) for j in range(-2, 3))
    k = max(abs(x), best)
    if (k - x) % 2:
        k += 1
    return k


def lamp_word_norm(lamps, k):
    """Word norm of (lamps, k) in Z/2 wr Z with S = {t^+-1, a} (Cleary-Taback 2005).

    A word is a walk of the cursor from 0 to k that toggles each lit lamp
    once on the way. The walk covers the hull [lo, hi] of the lamps, 0 and
    k, the shortest way being to sweep to one end, then to the other, then
    back to k.
    """
    lo = min(0, k, *lamps)
    hi = max(0, k, *lamps)
    return len(lamps) + min(-lo + (hi - lo) + (hi - k), hi + (hi - lo) + (k - lo))


def diag_norm(x1, x2, n=30):
    """Word norm on Z x Z/n with S = {(+-1,0), (1,1), (-1,-1)}.

    The y coordinate moves only together with x, so a word for (x1, x2)
    splits as t steps of (+-1,+-1) and the rest of (+-1,0):
    min over lifts t == x2 (mod n) of |x1 - t| + |t|.
    """
    span = abs(x1) // n + 2
    return min(
        abs(x1 - t) + abs(t)
        for j in range(-span, span + 1)
        for t in [x2 + n * j]
    )


# -- exact 2d hulls ------------------------------------------------------------

def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull2d(points):
    """Extreme points of a planar set, counterclockwise (monotone chain).

    Strict turns only, so collinear non-vertices are dropped. Degenerate
    inputs (<= 2 distinct points, or all collinear) return the endpoints.
    """
    pts = sorted({tuple(Fraction(c) for c in p) for p in points})
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # all collinear: keep the two endpoints
        return [pts[0], pts[-1]]
    return hull


def in_convex_polygon(point, hull_ccw):
    """Exact membership, boundary counts as inside."""
    p = tuple(Fraction(c) for c in point)
    if len(hull_ccw) == 1:
        return p == hull_ccw[0]
    if len(hull_ccw) == 2:
        a, b = hull_ccw
        if _cross(a, b, p) != 0:
            return False
        lo = min(a, b)
        hi = max(a, b)
        return lo <= p <= hi
    for a, b in zip(hull_ccw, hull_ccw[1:] + hull_ccw[:1]):
        if _cross(a, b, p) < 0:
            return False
    return True


# -- ball systems, straight from the defining formula --------------------------

def oracle_ball_system(mul, identity, s1, chain, n_max):
    """[B_0 .. B_n_max] with B_n = F_n (U_k B_k B_{n-k}) F_n, as plain sets.

    Each block B_k B_{n-k} is multiplied out over all pairs. A product with
    the subgroup F skips every x that is already in it, since x F (or F x)
    is then a coset it holds already.
    """

    def prod(xs, ys):
        return {mul(x, y) for x in xs for y in ys}

    def by_subgroup(xs, f, on_left):
        out = set()
        for x in xs:
            if x not in out:
                out |= {mul(g, x) if on_left else mul(x, g) for g in f}
        return out

    levels = [{identity}, set(s1) | {identity}]
    for n in range(2, n_max + 1):
        core = set()
        for k in range(1, n):
            core |= prod(levels[k], levels[n - k])
        f = set(chain[n - 1])
        levels.append(by_subgroup(by_subgroup(core, f, True), f, False))
    return levels


# -- metric axioms, pair by pair ---------------------------------------------

def oracle_metric_violation(mul, inv, identity, norm, radius):
    """The first failed axiom of an integer norm up to radius, or None.

    norm maps elements to their norms; an element it lacks has no norm.
    Identity comes first, then symmetry, then the triangle inequality over
    every pair (x, y) with |x| + |y| <= radius, multiplied out one by one.
    The result is ("identity", x), ("symmetry", x) or ("triangle", x, y).
    """
    inside = sorted((n, x) for x, n in norm.items() if n <= radius)
    if norm.get(identity) != 0:
        return ("identity", identity)
    for n, x in inside:
        if n == 0 and x != identity:
            return ("identity", x)
    for n, x in inside:
        if norm.get(inv(x)) != n:
            return ("symmetry", x)
    for nx, x in inside:
        for ny, y in inside:
            if nx + ny > radius:
                break
            nxy = norm.get(mul(x, y))
            if nxy is None or nxy > nx + ny:
                return ("triangle", x, y)
    return None


# -- report bytes ----------------------------------------------------------------

def oracle_report_bytes(report):
    """The report as the stdlib's indenting encoder writes it, plus a newline."""
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("utf-8")
