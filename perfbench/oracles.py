"""Independent references for the benchmark's output checks.

Nothing here calls npslab: each reference is a separate route to the same
mathematical value, so a wrong result in the package cannot also make its own
reference wrong.  Shapes are plain tuples of weakly decreasing parts; curves
are lists of true-coordinate breakpoints (x, y) as floats.
"""

import math
from fractions import Fraction

import numpy as np

# (2/3) ln 2 - 1/6: the average-case lower-bound integral of the unit square.
AVG_LOWER_UNIT_SQUARE = 2.0 / 3.0 * math.log(2.0) - 1.0 / 6.0
# sqrt(2)/3 and sqrt(2)/6: the distance and lower-bound integrals of the flat
# top curve (the staircase limit), where d = sqrt(2)(1 - y) and gamma' = 0.
W_INTEGRAL_FLAT = math.sqrt(2.0) / 3.0
AVG_LOWER_FLAT = math.sqrt(2.0) / 6.0


def subdiagram_count(parts):
    """Number of partitions mu (the empty one included) contained in parts."""
    if not parts:
        return 1
    ways = [1] * (parts[0] + 1)  # ways[v]: rows so far, the last of length v
    for p in parts[1:]:
        # the next row takes any length v <= min(p, previous row length)
        at_least = [0] * (len(ways) + 1)
        for v in range(len(ways) - 1, -1, -1):
            at_least[v] = at_least[v + 1] + ways[v]
        ways = at_least[:p + 1]
    return sum(ways)


def _corners(mu):
    """(row index, row length) of each removable cell of mu, 0-based rows."""
    last = len(mu) - 1
    return [(i, v) for i, v in enumerate(mu) if v and (i == last or mu[i + 1] < v)]


def average_case(parts):
    """Exact average exchange count by the harmonic formula, with every
    standard-tableau count taken as a lattice-path count in Young's lattice.

    f^mu comes from one upward pass over the subdiagrams and f^(lambda/mu)
    from one downward pass, both in Python ints, so the route shares nothing
    with the package's determinant evaluation.
    """
    parts = tuple(parts)
    n = sum(parts)
    if n == 0:
        return Fraction(0)
    rows = len(parts)
    subs = []

    def rec(i, prev, acc):
        if i == rows:
            subs.append(tuple(acc))
            return
        for v in range(min(prev, parts[i]) + 1):
            acc.append(v)
            rec(i + 1, v, acc)
            acc.pop()

    rec(0, parts[0], [])
    subs.sort(key=sum)
    up = {}
    for mu in subs:
        corners = _corners(mu)
        up[mu] = sum(up[mu[:i] + (v - 1,) + mu[i + 1:]] for i, v in corners) if corners else 1
    down = {parts: 1}
    for mu in reversed(subs):
        if mu == parts:
            continue
        down[mu] = sum(down[mu[:i] + (v + 1,) + mu[i + 1:]]
                       for i, v in enumerate(mu)
                       if v < parts[i] and (i == 0 or mu[i - 1] > v))
    numerators = [0] * (n + 1)
    for mu in subs:
        weighted = sum((i + v - 1) * up[mu[:i] + (v - 1,) + mu[i + 1:]]
                       for i, v in _corners(mu))
        numerators[sum(mu)] += weighted * down[mu]
    harmonic = [Fraction(0)]
    for k in range(1, n + 1):
        harmonic.append(harmonic[-1] + Fraction(1, k))
    total = sum((harmonic[n] - harmonic[n - k] - 1) * numerators[k]
                for k in range(1, n + 1) if numerators[k])
    return total / up[parts]


def worst_case(parts):
    """Exact worst case: over every cell, the largest distance to a corner
    weakly South-East of it (rows and columns 1-based)."""
    corners = [(i + 1, v) for i, v in _corners(tuple(parts))]
    return sum(max(ci - i + cj - j for ci, cj in corners if ci >= i and cj >= j)
               for i in range(1, len(parts) + 1)
               for j in range(1, parts[i - 1] + 1))


def expected_hook_abs(parts):
    """Mean of sum |H| over uniform hook tableaux, cell by cell."""
    conj = [sum(1 for p in parts if p >= j) for j in range(1, (parts[0] if parts else 0) + 1)]
    total = Fraction(0)
    for i, p in enumerate(parts, start=1):
        for j in range(1, p + 1):
            arm, leg = p - j, conj[j - 1] - i
            total += Fraction(arm * arm + arm + leg * leg + leg, 2 * (arm + leg + 1))
    return total


def cellwise_w_integral(parts):
    """The exact distance integral of a balanced partition boundary:
    (n + W) / n^(3/2)."""
    n = sum(parts)
    return (n + worst_case(parts)) / n**1.5


def partitions(n, largest=None):
    """The partitions of n as tuples, in descending lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, n if largest is None else largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def staircase(m):
    return tuple(range(m, 0, -1))


def square(m):
    return (m,) * m


# -- curves --------------------------------------------------------------


def gamma(points, w):
    """Value of the piecewise-linear curve through `points`, |w| outside."""
    if w <= points[0][0] or w >= points[-1][0]:
        return abs(w)
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 <= w <= x1:
            return y0 + (y1 - y0) * (w - x0) / (x1 - x0)
    raise ValueError(f"abscissa {w} not covered")


def _first_exit(points, x, y, direction):
    """Largest tau with (x + direction*tau, y + tau) still under the curve.

    gamma(x + direction*tau) - y - tau is nonincreasing for a 1-Lipschitz
    curve, so its first zero is found by walking the breakpoints."""
    knots = sorted({0.0} | {direction * (bx - x) for bx, _ in points if direction * (bx - x) > 0})
    h_prev, t_prev = gamma(points, x) - y, 0.0
    for t in knots[1:]:
        h = gamma(points, x + direction * t) - y - t
        if h <= 0:
            return t_prev + h_prev * (t - t_prev) / (h_prev - h)
        h_prev, t_prev = h, t
    return t_prev


def hook_distances(points, x, y):
    """(a, l, d) at an interior point, from the definitions: a and l are
    sqrt(2) times the diagonal exit lengths; d is sqrt(2) times the largest
    gamma(w) - y over the w with gamma(w) - y >= |w - x|."""
    root2 = math.sqrt(2.0)
    a = root2 * _first_exit(points, x, y, 1)
    l = root2 * _first_exit(points, x, y, -1)
    cuts = sorted({bx for bx, _ in points} | {x})

    def slack(w):
        return gamma(points, w) - y - abs(w - x)

    best = gamma(points, x) - y
    for w0, w1 in zip(cuts, cuts[1:]):
        f0, f1 = slack(w0), slack(w1)
        for w, f in ((w0, f0), (w1, f1)):
            if f >= 0:
                best = max(best, gamma(points, w) - y)
        if (f0 < 0) != (f1 < 0):
            w = w0 + f0 * (w1 - w0) / (f0 - f1)
            best = max(best, gamma(points, w) - y)
    return a, l, root2 * best


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _hook_double_integral(points, integrand, triangle):
    """iint_{s<t} integrand(t - s, gamma(t) - gamma(s)) (1+gamma'(s)) (1-gamma'(t))
    over the curve's span.

    Same-segment triangles use triangle(width, slope), a closed form;
    cross-segment rectangles use a 64 x 64 tensor Gauss-Legendre rule.
    """
    segments = []
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        segments.append((x0, x1, y0, (y1 - y0) / (x1 - x0)))
    total = 0.0
    for idx, (s0, s1, sy, sg) in enumerate(segments):
        fs = 1.0 + sg
        if abs(fs) < 1e-12:
            continue
        for t0, t1, ty, tg in segments[idx:]:
            ft = 1.0 - tg
            if abs(ft) < 1e-12:
                continue
            if t0 == s0:
                total += fs * ft * triangle(s1 - s0, sg)
                continue
            s = 0.5 * (s1 - s0) * _GL_NODES + 0.5 * (s1 + s0)
            t = 0.5 * (t1 - t0) * _GL_NODES + 0.5 * (t1 + t0)
            ss, tt = np.meshgrid(s, t, indexing="ij")
            dg = (ty + tg * (tt - t0)) - (sy + sg * (ss - s0))
            area = 0.25 * (s1 - s0) * (t1 - t0)
            total += fs * ft * area * float(_GL_WEIGHTS @ integrand(tt - ss, dg) @ _GL_WEIGHTS)
    return total


def avg_lower_integral(points):
    """sqrt(2)/8 * iint_{s<t} ((t-s) + (gamma(t)-gamma(s))^2/(t-s))
    (1+gamma'(s)) (1-gamma'(t)); the integrand is bounded because
    |gamma(t) - gamma(s)| <= t - s."""
    return math.sqrt(2.0) / 8.0 * _hook_double_integral(
        points, lambda dt, dg: dt + dg * dg / dt, lambda w, g: (1.0 + g * g) * w**3 / 6.0)


def imbalanced_integrals(points):
    """(I1, I2) in hook coordinates: sqrt(2)/4 * iint_{s<t}
    (t - s +- (gamma(t) - gamma(s))) (1+gamma'(s)) (1-gamma'(t))."""
    return tuple(
        math.sqrt(2.0) / 4.0 * _hook_double_integral(
            points, lambda dt, dg, k=k: dt + k * dg, lambda w, g, k=k: (1.0 + k * g) * w**3 / 6.0)
        for k in (1.0, -1.0))


def nps_sort(rows):
    """Sort a filling with the column-wise sift: cells are taken rightmost
    column first, bottom to top, and each entry swaps with its smaller
    South/East neighbour while that neighbour is smaller.  Returns the sorted
    rows and the number of exchanges."""
    grid = [list(r) for r in rows]
    lengths = [len(r) for r in grid]
    exchanges = 0
    for j in range(max(lengths, default=0) - 1, -1, -1):
        for i in range(len(grid) - 1, -1, -1):
            if lengths[i] <= j:
                continue
            ci, cj = i, j
            while True:
                south = grid[ci + 1][cj] if ci + 1 < len(grid) and cj < lengths[ci + 1] else None
                east = grid[ci][cj + 1] if cj + 1 < lengths[ci] else None
                smaller = min((v for v in (south, east) if v is not None), default=None)
                if smaller is None or smaller > grid[ci][cj]:
                    break
                ni, nj = (ci + 1, cj) if smaller == south else (ci, cj + 1)
                grid[ci][cj], grid[ni][nj] = grid[ni][nj], grid[ci][cj]
                ci, cj = ni, nj
                exchanges += 1
    return tuple(tuple(r) for r in grid), exchanges


def boundary_points(parts):
    """True-coordinate corners of the balanced boundary of a partition:
    the diagram is shrunk by sqrt(n) and turned 45 degrees, so the profile
    corner (u, v) (column u, row v) lands at ((u - v), (u + v)) / sqrt(2n)."""
    n = sum(parts)
    scale = 1.0 / math.sqrt(2.0 * n)
    corners = [(0, len(parts))]
    for i in range(len(parts), 0, -1):
        u = parts[i - 1]
        if u != corners[-1][0]:
            corners.append((u, i))
        corners.append((u, i - 1))
    return [((u - v) * scale, (u + v) * scale) for u, v in corners]
