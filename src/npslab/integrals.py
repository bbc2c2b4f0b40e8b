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

Affine integrands are integrated exactly in Fractions over convex polygons;
only the C log terms and an irrational true-units factor are floats.  The
`tol` arguments are accepted for compatibility and unused.

The cell-wise identity checks d at five probes per cell through the float
copy of the balanced boundary scaled by K = 240.  That boundary has integer
breakpoints and slopes +-1, so with the probes scaled to even integers every
value the float query forms is an integer below 2^53, which IEEE-754
arithmetic returns exactly: the probes stay exact without Fractions.
"""

import math
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

_HALF = Fraction(1, 2)
_T_MINUS_S = (0, -1, 1)  # t - s as an affine function


def _lin(*terms):
    """Sum of coefficient * f over affine functions f = (c, a, b), meaning
    c + a s + b t."""
    return tuple(sum(k * f[m] for k, f in terms) for m in range(3))


def _at(f, point):
    return f[0] + f[1] * point[0] + f[2] * point[1]


def _clip(poly, h):
    """The part of a convex polygon where the affine function h is >= 0."""
    out = []
    for p, q in zip(poly, poly[1:] + poly[:1]):
        hp, hq = _at(h, p), _at(h, q)
        if hp >= 0:
            out.append(p)
        if (hp < 0) != (hq < 0):
            r = hp / (hp - hq)
            out.append((p[0] + r * (q[0] - p[0]), p[1] + r * (q[1] - p[1])))
    return out


def _affine_integral(poly, f):
    """Exact integral of the affine f over a counter-clockwise convex polygon
    (the shoelace formula with the first moments)."""
    area = ms = mt = 0
    for (s0, t0), (s1, t1) in zip(poly, poly[1:] + poly[:1]):
        cross = s0 * t1 - s1 * t0
        area += cross
        ms += (s0 + s1) * cross
        mt += (t0 + t1) * cross
    return f[0] * Fraction(area, 2) + Fraction(f[1] * ms + f[2] * mt, 6)


def _hook_pairs(curve):
    """Segment pairs i <= j with nonzero area element, as
    (i, j, polygon, gamma(s), gamma(t), element): the pair's (s, t) domain
    (a rectangle, or the triangle s < t when i = j) and gamma on either
    segment as affine functions of (s, t)."""
    xs, ys = curve.xs, curve.ys
    segments = []
    for k in range(len(xs) - 1):
        slope = Fraction(ys[k + 1] - ys[k], xs[k + 1] - xs[k])
        segments.append((xs[k], xs[k + 1], ys[k] - slope * xs[k], slope))
    for i, (s0, s1, cs, gi) in enumerate(segments):
        if gi == -1:
            continue
        for j in range(i, len(segments)):
            t0, t1, ct, gj = segments[j]
            if gj == 1:
                continue
            if i == j:
                poly = [(s0, s0), (s1, s1), (s0, s1)]
            else:
                poly = [(s0, t0), (s1, t0), (s1, t1), (s0, t1)]
            yield i, j, poly, (cs, gi, 0), (ct, 0, gj), (1 + gi) * (1 - gj) / 2


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
    """
    total = Fraction(0)
    ys = curve.ys
    for i, j, poly, gs, gt, element in _hook_pairs(curve):
        y = _lin((-_HALF, _T_MINUS_S), (_HALF, gs), (_HALF, gt))
        if i == j:
            candidates = [gs if gs[1] < 0 else gt]
        else:
            candidates = [(max(ys[i + 1:j + 1]), 0, 0)]
            if gs[1] < 0:
                candidates.append(gs)
            if gt[2] > 0:
                candidates.append(gt)
        for top in candidates:
            piece = poly
            for other in candidates:
                if other is not top:
                    piece = _clip(piece, _lin((1, top), (-1, other)))
            total += element * _affine_integral(piece, _lin((1, top), (-1, y)))
    return _true_units(curve, total)


def imbalanced_integrals(curve, tol=DEFAULT_TOL):
    """(I1, I2): integrals of the two diagonal distance functions over the
    curve's region, through their hook-coordinate double integrals.

    The exits t - x = (t - s + gamma(t) - gamma(s)) / 2 and
    x - s = (t - s - gamma(t) + gamma(s)) / 2 are affine on every pair of
    segments, so each pair is integrated exactly.
    """
    totals = [Fraction(0), Fraction(0)]
    for _, _, poly, gs, gt, element in _hook_pairs(curve):
        for k, sign in enumerate((1, -1)):
            exit_ = _lin((_HALF, _T_MINUS_S), (sign * _HALF, gt), (-sign * _HALF, gs))
            totals[k] += element * _affine_integral(poly, exit_)
    return _true_units(curve, totals[0]), _true_units(curve, totals[1])


def avg_lower_integral(curve, tol=DEFAULT_TOL):
    """The hook-coordinate lower-bound integral for the average case:

        sqrt(2)/8 * iint_{s<t} ((t-s) + (gamma(t)-gamma(s))^2/(t-s))
                               (1+gamma'(s)) (1-gamma'(t)) dt ds.

    With gamma(t) - gamma(s) = gamma'(t) (t - s) + K(s) the integrand is
    affine plus K(s)^2 / (t - s).  The t-integral of the latter is
    K(s)^2 ln(t - s), and int v^k ln v dv has an elementary antiderivative,
    taken as 0 at v = 0; its rational part is summed exactly, its log terms
    with fsum.
    """
    rational = Fraction(0)
    logs = []
    for i, j, poly, gs, gt, element in _hook_pairs(curve):
        gj = gt[2]
        k0, k1, _ = _lin((1, gt), (-1, gs), (-gj, _T_MINUS_S))
        affine = _lin((1 + gj * gj, _T_MINUS_S), (2 * gj, (k0, k1, 0)))
        rational += element * _affine_integral(poly, affine)
        if i == j:
            continue  # K vanishes on a single segment
        (s0, t0), (s1, _), (_, t1) = poly[:3]
        # iint K(s)^2 / (t - s) = sum over corners of +-G(t - s), where G is
        # the antiderivative of K(te - v)^2 ln v in v at t = te
        for te, se, sign in ((t1, s0, 1), (t1, s1, -1), (t0, s0, -1), (t0, s1, 1)):
            v = te - se
            if v == 0:
                continue
            alpha = k0 + k1 * te
            for p, c in enumerate((alpha * alpha, -2 * alpha * k1, k1 * k1), 1):
                term = sign * element * c * v**p / p
                rational -= term / p
                logs.append(float(term) * math.log(v))
    return _true_units(curve, (float(rational) + math.fsum(logs)) / 4)


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
    integer breakpoints and slopes +-1, so after scaling every breakpoint is
    a multiple of K and every probe's frame (x, y) is an even integer.  The
    curve values there are even, the diagonal crossing `_diag_exit` solves
    is the integer (prev_v - target) / 2 of two even values, and so every
    value the query forms, d included, is an integer; the span check keeps
    every product below 2^52.  IEEE-754 rounds each operation correctly, so
    the float query returns those integers exactly, and d is compared
    exactly with K (w + i + j) - (u + v), u and v in units of 1/K.
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
