"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive: hand-written group arithmetic, plain
queue BFS, textbook monotone-chain hulls, O(n^2) scans. Slow but obviously
correct, and sharing no code with the package under test. Closed-form norms
are included where a formula is easy to justify by hand, so the BFS oracles
themselves can be cross-checked.
"""

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


def oracle_distance(dist, mul, inv, x, y):
    return dist[mul(inv(x), y)]


def busemann_vec(dist, mul, inv, y, domain):
    """(d(y, x) - |y| for x in domain), all read off the oracle table."""
    ny = dist[y]
    yi = inv(y)
    return tuple(dist[mul(yi, x)] - ny for x in domain)


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
    """[B_0 .. B_n_max] with B_n = F_n (U_k B_k B_{n-k}) F_n, as plain sets."""

    def prod(xs, ys):
        return {mul(x, y) for x in xs for y in ys}

    levels = [{identity}, set(s1) | {identity}]
    for n in range(2, n_max + 1):
        core = set()
        for k in range(1, n):
            core |= prod(levels[k], levels[n - k])
        f = set(chain[n - 1])
        levels.append(prod(prod(f, core), f))
    return levels
