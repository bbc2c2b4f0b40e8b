"""Piecewise-linear limit curves in rotated (Russian) coordinates, boundary
functions of rescaled partitions, and the three distance functions on them.

A curve gamma maps x to gamma(x) >= |x|, is 1-Lipschitz and equals |x|
outside a bounded interval.  Breakpoints are stored exactly as Fractions in
an internal *frame*; true coordinates are sqrt(scale_sq) times the frame
ones.  Because every quantity of interest is either scale-invariant (slopes,
Lipschitz checks) or scales by a known power of sqrt(scale_sq) (lengths,
areas), this keeps all structural checks exact even when the true
breakpoints are irrational - e.g. the unit-square curve has true apex
(0, sqrt(2)) but frame apex (0, 2) with scale_sq = 1/2.

Distance functions at an interior point (x, y), all extended by zero outside
the interior:

* ``a``: sqrt(2) times the sup of t with (x+t, y+t) inside the region;
* ``l``: the same in the (-1, 1) direction;
* ``d``: half the maximal perimeter of an axis-parallel (in the rotated
  frame) rectangle with lower corner (x, y) contained in the region.  Since
  the region is closed under moving the upper corner down either diagonal,
  d reduces to sqrt(2) * max { gamma(w) - y : gamma(w) - y >= |w - x| }.  As
  gamma is 1-Lipschitz the feasible w form the interval between the two
  diagonal exits, so d is sqrt(2) times the maximum of gamma there minus y.
"""

import json
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

__all__ = [
    "LimitCurve",
    "ScalingExponents",
    "partition_boundary",
    "unit_square_curve",
    "flat_top_curve",
    "hook_distances",
    "hook_coordinates",
]


class ScalingExponents:
    """Rescaling exponents (alpha, beta) = (1/p, 1/q) with alpha + beta = 1.

    alpha scales the diagonal (row) direction by n^alpha, beta the
    antidiagonal (column) direction; beta = 0 encodes q = infinity.
    """

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha, beta):
        alpha = Fraction(alpha)
        beta = Fraction(beta)
        if alpha + beta != 1 or alpha < 0 or beta < 0:
            raise ValueError(f"exponents must be nonnegative with sum 1, got {alpha}, {beta}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def __setattr__(self, name, value):
        raise AttributeError("ScalingExponents is immutable")

    def __reduce__(self):
        return (ScalingExponents, (self.alpha, self.beta))

    @classmethod
    def balanced(cls):
        return cls(Fraction(1, 2), Fraction(1, 2))

    @classmethod
    def from_pq(cls, p, q):
        alpha = Fraction(0) if p in (math.inf, "inf") else 1 / Fraction(p)
        beta = Fraction(0) if q in (math.inf, "inf") else 1 / Fraction(q)
        return cls(alpha, beta)

    @property
    def growth_exponent(self):
        """Exponent of the leading complexity term, 1 + max(alpha, beta)."""
        return 1 + max(self.alpha, self.beta)

    def __repr__(self):
        return f"ScalingExponents({self.alpha}, {self.beta})"


def _exact_rational_power(n, exponent):
    """n**exponent as an exact Fraction, or None when it is irrational."""
    if exponent == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(1)
    num, den = exponent.numerator, exponent.denominator
    root = round(n ** (1.0 / den))
    for candidate in (root - 1, root, root + 1):
        if candidate > 0 and candidate**den == n:
            return Fraction(candidate) ** num
    return None


class LimitCurve:
    """A 1-Lipschitz piecewise-linear curve equal to |x| outside its span."""

    __slots__ = ("xs", "ys", "scale_sq", "_mirror_cache")

    def __init__(self, points, scale_sq=Fraction(1), tolerance=Fraction(0)):
        """`points` are frame breakpoints; true coords are sqrt(scale_sq)
        times frame.  `tolerance` loosens the inequality checks for curves
        built from decimal data (exact checks use tolerance 0)."""
        pts = [(Fraction(x), Fraction(y)) for x, y in points]
        scale_sq = Fraction(scale_sq)
        if scale_sq <= 0:
            raise ValueError("scale_sq must be positive")
        tol = Fraction(tolerance)
        if len(pts) == 1:
            raise ValueError("a curve needs zero or at least two breakpoints")
        for (x0, _), (x1, _) in zip(pts, pts[1:]):
            if x0 >= x1:
                raise ValueError("breakpoints not sorted by strictly increasing x")
        if pts:
            for x, y in (pts[0], pts[-1]):
                if abs(y - abs(x)) > tol:
                    raise ValueError(f"curve endpoint ({x}, {y}) must satisfy y = |x|")
            for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
                slope = Fraction(y1 - y0, x1 - x0)
                if abs(slope) > 1 + tol:
                    raise ValueError(
                        f"segment from x={x0} to x={x1} has slope {slope}: not 1-Lipschitz")
            # implied by the endpoint and Lipschitz conditions when tol = 0;
            # kept as a backstop for tolerance-loosened (file) input
            for x, y in pts:
                if y + tol < abs(x):
                    raise ValueError(f"curve dips below |x| at x={x}")
            if pts[0][0] < 0 < pts[-1][0]:
                i = bisect_right([p[0] for p in pts], 0) - 1
                (x0, y0), (x1, y1) = pts[i], pts[i + 1]
                y_at_zero = y0 + (y1 - y0) * (0 - x0) / (x1 - x0)
                if y_at_zero + tol < 0:
                    raise ValueError("curve dips below |x| at x=0")
        object.__setattr__(self, "xs", tuple(p[0] for p in pts))
        object.__setattr__(self, "ys", tuple(p[1] for p in pts))
        object.__setattr__(self, "scale_sq", scale_sq)
        object.__setattr__(self, "_mirror_cache", None)

    def __setattr__(self, name, value):
        raise AttributeError("LimitCurve is immutable")

    # -- basic geometry -------------------------------------------------

    @property
    def span(self):
        """Frame interval outside which the curve equals |x|."""
        return (self.xs[0], self.xs[-1]) if self.xs else (Fraction(0), Fraction(0))

    @property
    def scale(self):
        """Frame-to-true scale factor sqrt(scale_sq), as a float."""
        return math.sqrt(float(self.scale_sq))

    def value_frame(self, x):
        """Curve value at frame abscissa x (Fraction in, Fraction out)."""
        xs = self.xs
        if not xs or x <= xs[0] or x >= xs[-1]:
            return abs(x)
        i = bisect_right(xs, x) - 1
        x0, y0 = xs[i], self.ys[i]
        x1, y1 = xs[i + 1], self.ys[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def value(self, x):
        """Curve value at a true abscissa, as a float."""
        s = self.scale
        return float(self.value_frame(x / s)) * s

    @property
    def breakpoints(self):
        """Breakpoints in true coordinates, as floats."""
        s = self.scale
        return [(float(x) * s, float(y) * s) for x, y in zip(self.xs, self.ys)]

    def area_frame(self):
        """Exact integral of (curve - |x|) over the frame axis."""
        total = Fraction(0)
        for (x0, y0), (x1, y1) in self._segments():
            pieces = [(x0, y0, x1, y1)]
            if x0 < 0 < x1:
                ym = y0 + (y1 - y0) * (0 - x0) / (x1 - x0)
                pieces = [(x0, y0, Fraction(0), ym), (Fraction(0), ym, x1, y1)]
            for a, ya, b, yb in pieces:
                total += Fraction(ya + yb, 2) * (b - a)
                total -= Fraction(abs(a) + abs(b), 2) * (b - a)
        return total

    @property
    def area(self):
        """Exact integral of (gamma(x) - |x|) dx in true coordinates."""
        return self.scale_sq * self.area_frame()

    def _segments(self):
        return list(zip(zip(self.xs, self.ys), zip(self.xs[1:], self.ys[1:])))

    def mirrored(self):
        """The reflection across x = 0 (swaps the two diagonal directions)."""
        pts = [(-x, y) for x, y in zip(reversed(self.xs), reversed(self.ys))]
        return LimitCurve(pts, self.scale_sq)

    def _canonical(self):
        pts = list(zip(self.xs, self.ys))
        kept = []
        for p in pts:
            while len(kept) >= 2:
                (x0, y0), (x1, y1) = kept[-2], kept[-1]
                if (y1 - y0) * (p[0] - x1) == (p[1] - y1) * (x1 - x0):
                    kept.pop()
                else:
                    break
            kept.append(p)
        q = self.scale_sq

        def key(v):
            return (v > 0) - (v < 0), v * v * q

        return tuple((key(x), key(y)) for x, y in kept)

    def same_curve(self, other):
        """Exact equality as curves in true coordinates, frame-independent."""
        return self._canonical() == other._canonical()

    # -- distance functions (frame units) --------------------------------

    def _interior_frame(self, x, y):
        return self.xs and abs(x) < y < self.value_frame(x)

    def _diag_exit(self, x, y):
        """Largest t with (x + t, y + t) in the region, for interior points.

        Follows the non-increasing function gamma(w) - w rightwards until it
        crosses y - x, and solves the crossing within that segment.
        """
        target = y - x
        xs, ys = self.xs, self.ys
        prev_w, prev_v = x, self.value_frame(x) - x
        i = bisect_right(xs, x)
        while i < len(xs):
            w, v = xs[i], ys[i] - xs[i]
            if v < target:
                t_star = prev_w + (prev_v - target) * (w - prev_w) / (prev_v - v) - x
                return t_star
            prev_w, prev_v = w, v
            i += 1
        # Beyond the polyline the curve is |w|; a crossing there means the
        # span ends left of the origin.
        return -target / 2 - x

    def _frame_exits(self, x, y):
        """(a, l) in frame units at an interior point, None elsewhere."""
        if not self._interior_frame(x, y):
            return None
        mirror = self._mirror_cache
        if mirror is None:
            mirror = self.mirrored()
            object.__setattr__(self, "_mirror_cache", mirror)
        return self._diag_exit(x, y), mirror._diag_exit(-x, y)

    def _frame_distances(self, x, y):
        """(a, l, d) in frame units, all 0 off the interior.

        The feasible set {w : gamma(w) - |w - x| >= y} is exactly [s, t] with
        s = x - l and t = x + a, so d is the maximum of gamma on [s, t] minus y.
        """
        exits = self._frame_exits(x, y)
        if exits is None:
            zero = x - x  # zero of the caller's numeric type
            return zero, zero, zero
        a, leg = exits
        s, t = x - leg, x + a
        inside = self.ys[bisect_right(self.xs, s):bisect_left(self.xs, t)]
        return a, leg, max(self.value_frame(s), self.value_frame(t), *inside) - y

    # -- file interface ---------------------------------------------------

    def to_document(self):
        """JSON-ready document with true-coordinate breakpoints.

        Coordinates are exact "p/q" strings when the scale is rational,
        decimal floats otherwise.
        """
        root = _rational_sqrt(self.scale_sq)
        if root is not None:
            pts = [[str(x * root), str(y * root)] for x, y in zip(self.xs, self.ys)]
        else:
            pts = [[x, y] for x, y in self.breakpoints]
        return {"breakpoints": pts}

    def to_file(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_document(), fh)
            fh.write("\n")

    @classmethod
    def from_document(cls, doc, tolerance=Fraction(1, 10**9)):
        if not isinstance(doc, dict) or "breakpoints" not in doc:
            raise ValueError('curve document must carry a "breakpoints" field')
        raw = doc["breakpoints"]
        pts = []
        for entry in raw:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ValueError(f"breakpoint {entry!r} is not an [x, y] pair")
            pts.append(tuple(_parse_number(v) for v in entry))
        return cls(pts, Fraction(1), tolerance=tolerance)

    @classmethod
    def from_file(cls, path, tolerance=Fraction(1, 10**9)):
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return cls.from_document(doc, tolerance=tolerance)

    def __repr__(self):
        pts = ", ".join(f"({x},{y})" for x, y in zip(self.xs, self.ys))
        return f"LimitCurve([{pts}], scale_sq={self.scale_sq})"


def _parse_number(value):
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, (int, float)):
        return Fraction(value)
    raise ValueError(f"cannot parse coordinate {value!r}")


def _rational_sqrt(q):
    """sqrt(q) as a Fraction when exact, else None."""
    num, den = q.numerator, q.denominator
    rn = math.isqrt(num)
    rd = math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def unit_square_curve():
    """Boundary of the unit cell under balanced scaling: apex (0, sqrt(2))."""
    return LimitCurve([(-1, 1), (0, 2), (1, 1)], Fraction(1, 2))


def flat_top_curve():
    """The limit of staircase shapes: constant 1 on [-1, 1]."""
    return LimitCurve([(-1, 1), (1, 1)], Fraction(1))


def partition_boundary(shape, n, exponents=None):
    """Exact boundary curve of the rescaled diagram of a partition of n.

    Under exponents (alpha, beta) the row direction shrinks by n^alpha and
    the column direction by n^beta; the balanced case is alpha = beta = 1/2.
    The result integrates to exactly 1 whenever the relative scale
    n^(beta - alpha) is rational (always true in the balanced case and when
    one exponent is 0 or 1); otherwise the nearest float-derived rational is
    used and normalization is approximate.
    """
    if shape.size != n:
        raise ValueError(f"shape {shape} has size {shape.size}, not {n}")
    if exponents is None:
        exponents = ScalingExponents.balanced()
    if n == 0:
        return LimitCurve([], Fraction(1))
    rho = _exact_rational_power(n, exponents.beta - exponents.alpha)
    tol = Fraction(0)
    if rho is None:
        rho = Fraction(float(n) ** float(exponents.beta - exponents.alpha))
        tol = Fraction(1, 10**9)
    scale = _exact_rational_power(n, -2 * exponents.beta)
    if scale is None:
        scale = Fraction(float(n) ** float(-2 * exponents.beta))
    profile = []
    ell = len(shape.parts)
    prev = (Fraction(0), Fraction(ell))
    profile.append(prev)
    for i in range(ell, 0, -1):
        u = Fraction(shape.parts[i - 1])
        if u != prev[0]:
            prev = (u, Fraction(i))
            profile.append(prev)
        prev = (u, Fraction(i - 1))
        profile.append(prev)
    points = [(rho * u - v, rho * u + v) for u, v in profile]
    return LimitCurve(points, scale / 2, tolerance=tol)


def hook_distances(curve, point):
    """(a, l, d) at a true-coordinate point, zero outside the interior."""
    x, y = point
    s = curve.scale
    fx, fy = x / s, y / s
    factor = math.sqrt(2.0) * s
    return tuple(float(v) * factor for v in curve._frame_distances(fx, fy))


def hook_coordinates(curve, point):
    """Hook coordinates (s, t) of an interior point: the abscissas of the two
    curve points hit along the two diagonal directions."""
    x, y = point
    sc = curve.scale
    fx, fy = x / sc, y / sc
    arm, leg = curve._frame_exits(fx, fy) or (0, 0)
    return (float(fx - leg) * sc, float(fx + arm) * sc)
