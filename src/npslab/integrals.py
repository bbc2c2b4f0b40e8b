"""The asymptotic curve integrals in closed form, plus the exact cell-wise
identity tying the rectangle-distance integral of a partition boundary to
its worst-case exchange count.

All four integrals run over the region under a curve gamma in the hook
coordinates s < t of a point, where its two diagonals meet the curve.  The
area element is (1 + gamma'(s)) (1 - gamma'(t)) / 2, and on each pair of
segments gamma(s), gamma(t) and the point are affine in (s, t).

* I1, I2: the diagonal exits t - x and x - s are affine on each pair.
* W: as gamma is 1-Lipschitz, {w : gamma(w) - |w - x| >= y} is exactly [s, t],
  so the rectangle distance is max_{[s, t]} gamma - y: the largest of
  gamma(s) (falling s-segment only), gamma(t) (rising t-segment only) and the
  breakpoint values between, affine on at most three convex pieces.
* C lower bound: gamma(t) - gamma(s) = gamma'(t) (t - s) + K(s) with K affine,
  so the integrand is affine plus K(s)^2 / (t - s), with elementary log terms.

Each integral reads one integer segment table of the curve
(`_segment_table`): the breakpoints times L, the lcm of their denominators,
and the slopes times Q, the lcm of theirs.  The area element of a pair is
then E / (2 Q^2) with E an integer, and an affine integrand over the pair's
rectangle or triangle is its area times its value at the centroid, all in
ints.  Each integral sums one integer numerator over a fixed denominator
(24 Q^3 L^3 for W and I, 72 Q^4 L^3 for the rational part of C) and divides
once; only the W pieces clipped where two candidates for the maximum cross
have Fraction vertices.  Only the C log terms and an irrational true-units
factor are floats, and each log term is an int / int ratio times
ln(V / L): both divisions round correctly, so the floats equal those of
the same sums taken in Fractions.  The `tol` arguments are accepted for
compatibility and unused.

The cell-wise identity checks d at five probes per cell through the float
copy of the balanced boundary scaled by K = 240.  That boundary has integer
breakpoints and slopes +-1, so with the probes scaled to even integers every
value the float query forms is an integer below 2^53, which IEEE-754
arithmetic returns exactly: the probes stay exact without Fractions.
"""

import math
from collections import namedtuple
from fractions import Fraction

from .complexity import _w_table
from .curves import _rational_sqrt, _stored_curve, partition_boundary

__all__ = [
    "worst_case_integral",
    "avg_lower_integral",
    "imbalanced_integrals",
    "distance_integral_cellwise",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-4

# The weights 36 / p^2 of the log terms' rational parts, p = 1, 2, 3.
_LOG_WEIGHTS = (36, 9, 4)

_Segments = namedtuple("_Segments", "L Q X Y G C")


def _segment_table(curve):
    """The curve's segments in integers.  L is the lcm of the breakpoint
    denominators and Q that of the slope denominators; breakpoint k is
    (X[k], Y[k]) / L, and on segment k, Q L gamma(S / L) = G[k] S + C[k]
    with G[k] = Q slope and C[k] = Q Y[k] - G[k] X[k]."""
    xs, ys = curve.xs, curve.ys
    L = math.lcm(*(v.denominator for v in xs), *(v.denominator for v in ys))
    X = [v.numerator * (L // v.denominator) for v in xs]
    Y = [v.numerator * (L // v.denominator) for v in ys]
    slopes = []
    for k in range(len(X) - 1):
        dy, dx = Y[k + 1] - Y[k], X[k + 1] - X[k]
        g = math.gcd(dy, dx)
        slopes.append((dy // g, dx // g))
    Q = math.lcm(*(den for _, den in slopes))
    G = [num * (Q // den) for num, den in slopes]
    C = [Q * y - g * x for x, y, g in zip(X, Y, G)]
    return _Segments(L, Q, X, Y, G, C)


def _hook_pairs(table):
    """Segment pairs i <= j with nonzero area element, as
    (i, j, E, M, MS, MT).  The pair's (S, T) domain is a rectangle, or the
    triangle S < T when i = j; its area element (1 + gamma'(s)) (1 -
    gamma'(t)) / 2 is E / (2 Q^2), and 6 times the integral of a + b S + c T
    over it is a M + b MS + c MT."""
    Q, X, G = table.Q, table.X, table.G
    for i in range(len(G)):
        if G[i] == -Q:
            continue
        s0, s1 = X[i], X[i + 1]
        rise = Q + G[i]
        for j in range(i, len(G)):
            if G[j] == Q:
                continue
            if i == j:
                d2 = (s1 - s0) ** 2
                yield i, j, rise * (Q - G[j]), 3 * d2, d2 * (2 * s0 + s1), d2 * (s0 + 2 * s1)
            else:
                t0, t1 = X[j], X[j + 1]
                area = (s1 - s0) * (t1 - t0)
                yield i, j, rise * (Q - G[j]), 6 * area, 3 * area * (s0 + s1), 3 * area * (t0 + t1)


def _clip(poly, h):
    """The part of a convex polygon where the affine function
    h = (c, a, b), meaning c + a S + b T, is >= 0; new vertices are Fractions."""
    out = []
    for p, q in zip(poly, poly[1:] + poly[:1]):
        hp = h[0] + h[1] * p[0] + h[2] * p[1]
        hq = h[0] + h[1] * q[0] + h[2] * q[1]
        if hp >= 0:
            out.append(p)
        if (hp < 0) != (hq < 0):
            out.append((Fraction(hp * q[0] - hq * p[0], hp - hq),
                        Fraction(hp * q[1] - hq * p[1], hp - hq)))
    return out


def _moments(poly):
    """(M, MS, MT) of a counter-clockwise convex polygon, as `_hook_pairs`
    gives them: 6 times its area and first moments, by the shoelace formula."""
    area2 = ms = mt = 0
    for (s0, t0), (s1, t1) in zip(poly, poly[1:] + poly[:1]):
        cross = s0 * t1 - s1 * t0
        area2 += cross
        ms += (s0 + s1) * cross
        mt += (t0 + t1) * cross
    return 3 * area2, ms, mt


def _true_units(curve, frame_value):
    """sqrt(2 scale_sq^3) * frame_value: a frame-unit area integral of a frame
    length in true units, exact before rounding when the factor is rational."""
    factor_sq = 2 * curve.scale_sq**3
    root = _rational_sqrt(factor_sq)
    if root is not None:
        return float(root * frame_value)
    return math.sqrt(factor_sq) * float(frame_value)


def worst_case_integral(curve, tol=DEFAULT_TOL):
    """Integral of the rectangle-distance function d over the curve's region.

    For the boundary curve of a partition of n, n^(3/2) times this integral
    is exactly n plus the worst-case exchange count (the cell-wise identity).
    In units of 1 / (2 Q L), d is 2 top - y2, where y2 is twice the point's
    height and top is the largest candidate for gamma on [s, t].
    """
    table = _segment_table(curve)
    Q, X, Y, G, C = table.Q, table.X, table.Y, table.G, table.C
    total = 0
    for i, j, e, m, ms, mt in _hook_pairs(table):
        gs, gt = (C[i], G[i], 0), (C[j], 0, G[j])
        y2 = (C[i] + C[j], Q + G[i], G[j] - Q)
        if i == j:
            candidates = [gs if G[i] < 0 else gt]
        else:
            candidates = [(Q * max(Y[i + 1:j + 1]), 0, 0)]
            if G[i] < 0:
                candidates.append(gs)
            if G[j] > 0:
                candidates.append(gt)
        for top in candidates:
            moments = (m, ms, mt)
            if len(candidates) > 1:
                piece = [(X[i], X[j]), (X[i + 1], X[j]), (X[i + 1], X[j + 1]), (X[i], X[j + 1])]
                for other in candidates:
                    if other is not top:
                        piece = _clip(piece, [a - b for a, b in zip(top, other)])
                moments = _moments(piece)
            total += e * sum((2 * a - b) * w for a, b, w in zip(top, y2, moments))
    return _true_units(curve, Fraction(total, 24 * Q**3 * table.L**3))


def imbalanced_integrals(curve, tol=DEFAULT_TOL):
    """(I1, I2): integrals of the two diagonal distance functions over the
    curve's region, through their hook-coordinate double integrals.

    The exits t - x = (t - s + gamma(t) - gamma(s)) / 2 and
    x - s = (t - s - gamma(t) + gamma(s)) / 2 are affine on every pair of
    segments, so each pair is integrated exactly, in units of 1 / (2 Q L).
    """
    table = _segment_table(curve)
    Q, G, C = table.Q, table.G, table.C
    right = left = 0
    for i, j, e, m, ms, mt in _hook_pairs(table):
        dc = C[j] - C[i]
        right += e * (dc * m - (Q + G[i]) * ms + (Q + G[j]) * mt)
        left += e * (-dc * m - (Q - G[i]) * ms + (Q - G[j]) * mt)
    den = 24 * Q**3 * table.L**3
    return _true_units(curve, Fraction(right, den)), _true_units(curve, Fraction(left, den))


def avg_lower_integral(curve, tol=DEFAULT_TOL):
    """The hook-coordinate lower-bound integral for the average case:

        sqrt(2)/8 * iint_{s<t} ((t-s) + (gamma(t)-gamma(s))^2/(t-s))
                               (1+gamma'(s)) (1-gamma'(t)) dt ds.

    With gamma(t) - gamma(s) = gamma'(t) (t - s) + K(s) the integrand is
    affine plus K(s)^2 / (t - s).  The t-integral of the latter is
    K(s)^2 ln(t - s), and int v^k ln v dv has an elementary antiderivative,
    taken as 0 at v = 0.  Its rational part and the affine part are summed
    as one integer over 72 Q^4 L^3; each log term is an integer ratio times
    ln(V / L), summed with fsum.
    """
    table = _segment_table(curve)
    L, Q, X, G, C = table.L, table.Q, table.X, table.G, table.C
    affine = from_logs = 0
    logs = []
    log_den = 2 * Q**4 * L**3
    for i, j, e, m, ms, mt in _hook_pairs(table):
        # Q L K(S / L) = k0 + k1 S; the integrand's affine part times Q^2 L
        gj = G[j]
        k0, k1 = C[j] - C[i], gj - G[i]
        square = Q * Q + gj * gj
        affine += e * (2 * gj * k0 * m + (2 * gj * k1 - square) * ms + square * mt)
        if i == j:
            continue  # K vanishes on a single segment
        s0, s1, t0, t1 = X[i], X[i + 1], X[j], X[j + 1]
        # iint K(s)^2 / (t - s) = sum over corners of +-G(t - s), where G is
        # the antiderivative of K(te - v)^2 ln v in v at t = te
        for te, se, weight in ((t1, s0, e), (t1, s1, -e), (t0, s0, -e), (t0, s1, e)):
            v = te - se
            if v == 0:
                continue
            alpha = k0 + k1 * te
            log_v = math.log(v / L)
            for p, c in enumerate((alpha * alpha * v, -2 * alpha * k1 * v * v, k1 * k1 * v**3), 1):
                term = weight * c
                from_logs += term * _LOG_WEIGHTS[p - 1]
                logs.append(term / (log_den * p) * log_v)
    rational = (6 * affine - from_logs) / (36 * log_den)
    return _true_units(curve, (rational + math.fsum(logs)) / 4)


_CELL_PROBES = (
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(1, 3), Fraction(1, 4)),
    (Fraction(3, 4), Fraction(1, 3)),
    (Fraction(1, 5), Fraction(4, 5)),
    (Fraction(7, 8), Fraction(5, 6)),
)

# The probes in units of 1/_K: 240 = 2 lcm(2, 3, 4, 5, 6, 8) makes every
# offset an integer and du + dv, du - dv even.
_K = 240
_SCALED_PROBES = tuple((int(_K * du), int(_K * dv)) for du, dv in _CELL_PROBES)
if any((_K * du, _K * dv) != probe or sum(probe) % 2
       for (du, dv), probe in zip(_CELL_PROBES, _SCALED_PROBES)):
    raise AssertionError(f"K = {_K} does not scale the cell probes to even integer sums")


def _scaled_boundary(shape):
    """The balanced boundary of a partition with its frame breakpoints
    multiplied by _K, as ints, so that its float copy is exact."""
    curve = partition_boundary(shape, shape.size)
    if any(v.denominator != 1 for v in curve.xs + curve.ys):
        raise ValueError(f"boundary of {shape} has non-integer frame breakpoints")
    xs = tuple(_K * int(x) for x in curve.xs)
    ys = tuple(_K * int(y) for y in curve.ys)
    if xs and (xs[-1] - xs[0]) ** 2 >= 2**52:
        raise ValueError(f"{shape} is too wide for exact float distance probes")
    return _stored_curve(xs, ys, curve.scale_sq / _K**2)


def distance_integral_cellwise(shape):
    """Exact frame-unit integral of the rectangle-distance function over the
    balanced boundary of a partition, evaluated cell by cell.

    On the open cell (i, j) the frame distance equals
    w(i, j) + i + j - (u + v); the affine form is certified by evaluating the
    geometric distance at five interior probes, and each cell then
    contributes exactly 2 (w(i, j) + 1).  Returns (per-cell map, total).  In
    true units the integral is total / (2 n^(3/2)), so
    n^(3/2) * integral = total / 2 = n + sum of w.

    The probes read the float copy of the boundary scaled by K = 240
    (`_scaled_boundary`), and that is exact.  The balanced boundary has
    integer breakpoints and slopes +-1, so after scaling every breakpoint,
    and every entry w -+ gamma(w) of the query table, is a multiple of K,
    and every probe's frame (x, y) is an even integer.  gamma at an even
    integer is even.  The arm crosses y - x on a slope -1 segment, where
    gamma(w) - w drops by twice the distance travelled, so its crossing
    (pv - target) (w - pw) / (pv - v) is the integer (pv - target) / 2 of
    two even values; the leg's crossing on a slope +1 segment is the same.
    So s, t, gamma(s), gamma(t) and d are integers.  Every product has two
    factors of at most the span (pv - target < gamma(pw) - y for the
    crossings), and the span check keeps the span's square below 2^52, so
    every value the query forms is an integer below 2^52.  IEEE-754 rounds
    each operation correctly, so the float query returns those integers
    exactly, and d is compared exactly with K (w + i + j) - (u + v), u and v
    in units of 1/K.
    """
    curve = _scaled_boundary(shape)
    w_rows = _w_table(shape)
    per_cell = {}
    total = Fraction(0)
    for (i, j) in shape.cells():
        w = w_rows[i - 1][j - 1]
        for (a, b), (du, dv) in zip(_SCALED_PROBES, _CELL_PROBES):
            u = _K * (j - 1) + a
            v = _K * (i - 1) + b
            _, _, d = curve._frame_distances(float(u - v), float(u + v))
            expected = _K * (w + i + j) - (u + v)
            if d != expected:
                raise AssertionError(
                    f"distance at cell ({i},{j}) probe ({du},{dv}) of {shape}: "
                    f"got {Fraction(d) / _K}, affine form gives {Fraction(expected, _K)}")
        contribution = Fraction(2) * (w + 1)
        per_cell[(i, j)] = contribution
        total += contribution
    return per_cell, total
