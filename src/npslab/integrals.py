"""Numerical evaluation of the asymptotic curve integrals, plus the exact
cell-wise identity tying the rectangle-distance integral of a partition
boundary to its worst-case exchange count.

Quadrature is adaptive Gauss-Kronrod on intervals pre-split at curve
breakpoints (the integrands are piecewise smooth between them).  Area
integrals over the region between |x| and the curve are computed in frame
units and rescaled; hook-coordinate forms integrate over pairs of curve
segments, where the integrands are smooth.  The diagonal integrals I1, I2
have affine hook-coordinate integrands and are evaluated exactly.
"""

import math
from fractions import Fraction

from .complexity import w_distance
from .curves import partition_boundary

__all__ = [
    "QuadratureError",
    "adaptive_quad",
    "worst_case_integral",
    "avg_lower_integral",
    "imbalanced_integrals",
    "distance_integral_cellwise",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-4

# 15-point Kronrod extension of 7-point Gauss on [-1, 1].
_KRONROD_NODES = (
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
)
_KRONROD_WEIGHTS = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
)
_GAUSS_WEIGHTS = (
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
)


class QuadratureError(RuntimeError):
    """Raised when the error budget is not met; carries the best estimate."""

    def __init__(self, message, estimate):
        super().__init__(message)
        self.estimate = estimate


def _gk15(f, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fk = 0.0
    fg = 0.0
    for i, x in enumerate(_KRONROD_NODES):
        if x == 0.0:
            v = f(mid)
            fk += _KRONROD_WEIGHTS[i] * v
            fg += _GAUSS_WEIGHTS[3] * v
            continue
        v1 = f(mid - half * x)
        v2 = f(mid + half * x)
        fk += _KRONROD_WEIGHTS[i] * (v1 + v2)
        if i % 2 == 1:
            fg += _GAUSS_WEIGHTS[i // 2] * (v1 + v2)
    return fk * half, abs(fk - fg) * half


def adaptive_quad(f, a, b, tol, splits=(), max_depth=50):
    """Integrate f on [a, b] to absolute tolerance tol.

    `splits` pre-seeds subdivision points (e.g. breakpoints or known jump
    locations).  Raises QuadratureError with the best estimate when the
    budget cannot be met.
    """
    a = float(a)
    b = float(b)
    if b <= a:
        return 0.0
    cuts = sorted({a, b} | {float(s) for s in splits if a < float(s) < b})
    stack = [(x0, x1, 0) for x0, x1 in zip(cuts, cuts[1:])]
    width = b - a
    total = 0.0
    err_used = 0.0
    while stack:
        x0, x1, depth = stack.pop()
        val, err = _gk15(f, x0, x1)
        budget = tol * (x1 - x0) / width
        if err <= budget or depth >= max_depth:
            total += val
            err_used += err
        else:
            xm = 0.5 * (x0 + x1)
            stack.append((x0, xm, depth + 1))
            stack.append((xm, x1, depth + 1))
    if err_used > tol:
        raise QuadratureError(
            f"quadrature error {err_used:.3e} exceeds tolerance {tol:.3e}", total)
    return total


def _area_integral(curve, frame_func, tol, critical_y=None):
    """Integral over the region of sqrt(2)*scale*frame_func, in true units."""
    if not curve.xs:
        return 0.0
    q = float(curve.scale_sq)
    prefactor = math.sqrt(2.0) * q**1.5
    frame_tol = max(tol / prefactor, 1e-13) / 2.0
    xs = sorted({float(x) for x in curve.xs} | {0.0})
    lo_x, hi_x = float(curve.xs[0]), float(curve.xs[-1])
    xs = [x for x in xs if lo_x <= x <= hi_x]
    span = hi_x - lo_x
    inner_tol = frame_tol / (4.0 * span)

    def inner(x):
        lo = abs(x)
        hi = float(curve.value_frame(x))
        if hi <= lo:
            return 0.0
        splits = critical_y(x) if critical_y is not None else ()
        return adaptive_quad(lambda y: float(frame_func(x, y)), lo, hi,
                             max(inner_tol * (hi - lo), 1e-14), splits=splits)

    return prefactor * adaptive_quad(inner, lo_x, hi_x, frame_tol, splits=xs)


def worst_case_integral(curve, tol=DEFAULT_TOL):
    """Integral of the rectangle-distance function d over the curve's region.

    For boundary curves of partitions of n, n^(3/2) times this integral is
    n plus the worst-case exchange count, up to lower-order terms.
    """

    def critical(x):
        # d(x, .) can jump where a feasibility component vanishes; those
        # heights are among gamma(w) - |w - x| at breakpoints w.
        out = []
        for w, g in zip(curve.xs, curve.ys):
            out.append(float(g) - abs(float(w) - x))
        return out

    return _area_integral(curve, curve._frame_d, tol, critical_y=critical)


def _segment_data(curve):
    """Frame segments as (x0, x1, y0, slope) with Fractions."""
    out = []
    for (x0, y0), (x1, y1) in zip(zip(curve.xs, curve.ys),
                                  zip(curve.xs[1:], curve.ys[1:])):
        out.append((x0, x1, y0, Fraction(y1 - y0, x1 - x0)))
    return out


def imbalanced_integrals(curve, tol=DEFAULT_TOL):
    """(I1, I2): integrals of the two diagonal distance functions over the
    curve's region, through their hook-coordinate double integrals.

    The integrands (t - s +- (gamma(t) - gamma(s))) (1 + gamma'(s))
    (1 - gamma'(t)) are affine on every pair of segments, so each pair is
    integrated exactly by the centroid rule; `tol` is accepted for symmetry
    with the quadrature-based integrals and not needed.
    """
    segments = _segment_data(curve)
    totals = [Fraction(0), Fraction(0)]
    for idx, (s0, s1, sy, sg) in enumerate(segments):
        fs = 1 + sg
        if fs == 0:
            continue
        for t0, t1, ty, tg in segments[idx:]:
            ft = 1 - tg
            if ft == 0:
                continue
            same = s0 == t0 and s1 == t1
            if same:
                w = s1 - s0
                area = Fraction(w * w, 2)
                cs = s0 + Fraction(w, 3)
                ct = s0 + Fraction(2 * w, 3)
            else:
                area = (s1 - s0) * (t1 - t0)
                cs = Fraction(s0 + s1, 2)
                ct = Fraction(t0 + t1, 2)
            gs = sy + sg * (cs - s0)
            gt = ty + tg * (ct - t0)
            base = ct - cs
            diff = gt - gs
            weight = fs * ft * area
            totals[0] += weight * (base + diff)
            totals[1] += weight * (base - diff)
    factor = math.sqrt(2.0) / 4.0 * float(curve.scale_sq)**1.5
    return factor * float(totals[0]), factor * float(totals[1])


def avg_lower_integral(curve, tol=DEFAULT_TOL):
    """The hook-coordinate lower-bound integral for the average case:

        sqrt(2)/8 * iint_{s<t} ((t-s) + (gamma(t)-gamma(s))^2/(t-s))
                               (1+gamma'(s)) (1-gamma'(t)) dt ds.

    Same-segment triangles have closed form; cross-segment rectangles are
    integrated by nested adaptive quadrature.
    """
    if not curve.xs:
        return 0.0
    segments = _segment_data(curve)
    q = float(curve.scale_sq)
    prefactor = math.sqrt(2.0) / 8.0 * q**1.5
    frame_tol = max(tol / prefactor, 1e-13) / 2.0
    pairs = []
    for idx, seg_s in enumerate(segments):
        if 1 + seg_s[3] == 0:
            continue
        for seg_t in segments[idx:]:
            if 1 - seg_t[3] == 0:
                continue
            pairs.append((seg_s, seg_t))
    if not pairs:
        return 0.0
    pair_tol = frame_tol / len(pairs)
    total = 0.0
    for (s0, s1, sy, sg), (t0, t1, ty, tg) in pairs:
        fs = float(1 + sg)
        ft = float(1 - tg)
        if s0 == t0 and s1 == t1:
            w = float(s1 - s0)
            total += fs * ft * (1.0 + float(sg)**2) * w**3 / 6.0
            continue
        fs0, fsy, fsg = float(s0), float(sy), float(sg)
        ft0, fty, ftg = float(t0), float(ty), float(tg)

        def outer(s):
            gs = fsy + fsg * (s - fs0)

            def inner(t):
                dt = t - s
                if dt <= 1e-15:
                    return 0.0
                dg = fty + ftg * (t - ft0) - gs
                return dt + dg * dg / dt

            return adaptive_quad(inner, float(t0), float(t1),
                                 max(pair_tol * 0.2, 1e-14))

        total += fs * ft * adaptive_quad(outer, float(s0), float(s1), pair_tol)
    return prefactor * total


_CELL_PROBES = (
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(1, 3), Fraction(1, 4)),
    (Fraction(3, 4), Fraction(1, 3)),
    (Fraction(1, 5), Fraction(4, 5)),
    (Fraction(7, 8), Fraction(5, 6)),
)


def distance_integral_cellwise(shape):
    """Exact frame-unit integral of the rectangle-distance function over the
    balanced boundary of a partition, evaluated cell by cell.

    On the open cell (i, j) the frame distance equals
    w(i, j) + i + j - (u + v); the affine form is certified by exact rational
    evaluation of the geometric distance at five interior probes, and each
    cell then contributes exactly 2 (w(i, j) + 1).  Returns (per-cell map,
    total).  In true units the integral is total / (2 n^(3/2)), so
    n^(3/2) * integral = total / 2 = n + sum of w.
    """
    n = shape.size
    curve = partition_boundary(shape, n)
    per_cell = {}
    total = Fraction(0)
    for (i, j) in shape.cells():
        w = w_distance(shape, (i, j))
        for du, dv in _CELL_PROBES:
            u = j - 1 + du
            v = i - 1 + dv
            x = u - v
            y = u + v
            d = curve._frame_d(x, y)
            expected = w + i + j - y
            if d != expected:
                raise AssertionError(
                    f"distance at cell ({i},{j}) probe ({du},{dv}) of {shape}: "
                    f"got {d}, affine form gives {expected}")
        contribution = Fraction(2) * (w + 1)
        per_cell[(i, j)] = contribution
        total += contribution
    return per_cell, total
