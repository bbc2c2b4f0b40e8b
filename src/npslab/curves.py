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

Queries answer in the type they are asked in.  A float query (``value``,
``hook_distances``, ``hook_coordinates``, or a frame method given a float)
reads one float table per curve, built once on first use: the breakpoints
and the two non-decreasing sequences w - gamma(w) and gamma(w) + w.  A
Fraction (or int) query builds the same table exactly and stays exact.  A
point query evaluates gamma(x) once, finds both diagonal exits by bisection
and d from a slice of the breakpoints, so on k breakpoints it costs
O(log k) Python steps plus one C-level max over a slice.

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

import heapq
import json
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cache
from itertools import accumulate

from .partitions import Partition

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

    __slots__ = ("xs", "ys", "scale_sq", "_float_cache")

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
        self._store(tuple(p[0] for p in pts), tuple(p[1] for p in pts), scale_sq)

    def _store(self, xs, ys, scale_sq):
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "scale_sq", scale_sq)
        object.__setattr__(self, "_float_cache", None)

    def __setattr__(self, name, value):
        raise AttributeError("LimitCurve is immutable")

    def __reduce__(self):
        return (_stored_curve, (self.xs, self.ys, self.scale_sq))

    # -- basic geometry -------------------------------------------------

    @property
    def span(self):
        """Frame interval outside which the curve equals |x|."""
        return (self.xs[0], self.xs[-1]) if self.xs else (Fraction(0), Fraction(0))

    @property
    def scale(self):
        """Frame-to-true scale factor sqrt(scale_sq), as a float."""
        return self._floats()[1]

    def _floats(self):
        """The float query table and the float scale, built on first use."""
        floats = self._float_cache
        if floats is None:
            floats = (_query_table(tuple(map(float, self.xs)), tuple(map(float, self.ys))),
                      math.sqrt(float(self.scale_sq)))
            object.__setattr__(self, "_float_cache", floats)
        return floats

    def _table(self, x):
        """The query table in the type of the query x: the float one for a
        float, the exact one, built per query, for a Fraction or int."""
        return self._floats()[0] if isinstance(x, float) else _query_table(self.xs, self.ys)

    def value_frame(self, x):
        """Curve value at frame abscissa x: float arithmetic on the float copy
        of the breakpoints for a float x, exact for a Fraction or int x."""
        xs, ys = self._floats()[0][:2] if isinstance(x, float) else (self.xs, self.ys)
        return _interpolate(xs, ys, x)

    def value(self, x):
        """Curve value at a true abscissa, as a float."""
        s = self.scale
        return self.value_frame(x / s) * s

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
        """The reflection across x = 0, which swaps the two diagonal directions
        and keeps every property the constructor checks."""
        return _stored_curve(tuple(-x for x in reversed(self.xs)), self.ys[::-1], self.scale_sq)

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

    def _frame_distances(self, x, y):
        """(a, l, d) in frame units, all 0 off the interior.

        The feasible set {w : gamma(w) - |w - x| >= y} is exactly [s, t] with
        s = x - l and t = x + a, so d is the maximum of gamma on [s, t] minus y.
        """
        table = self._table(x)
        exits = _exits(table, x, y)
        if exits is None:
            zero = x - x  # zero of the caller's numeric type
            return zero, zero, zero
        a, leg = exits
        s, t = x - leg, x + a
        xs, ys = table[:2]
        inside = ys[bisect_right(xs, s):bisect_left(xs, t)]
        return a, leg, max(_interpolate(xs, ys, s), _interpolate(xs, ys, t), *inside) - y

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


def _query_table(xs, ys):
    """(xs, ys, w - gamma(w), gamma(w) + w) at the breakpoints, the third as a
    running max from the left, the fourth as a running min from the right: so
    both are non-decreasing, and bisection stops where a walk from x would,
    even where rounding makes the raw values wobble by an ulp."""
    falls = accumulate((x - y for x, y in zip(xs, ys)), max)
    rises = accumulate((y + x for x, y in zip(reversed(xs), reversed(ys))), min)
    return xs, ys, tuple(falls), tuple(rises)[::-1]


def _interpolate(xs, ys, x):
    """gamma(x) on the breakpoints (xs, ys), |x| outside them."""
    if not xs or x <= xs[0] or x >= xs[-1]:
        return abs(x)
    i = bisect_right(xs, x) - 1
    x0, y0, x1, y1 = xs[i], ys[i], xs[i + 1], ys[i + 1]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def _exits(table, x, y):
    """(a, l) in frame units at an interior point (x, y), None elsewhere.

    The arm crosses the curve in the first segment right of x where
    gamma(w) - w falls below y - x, the leg in the first segment left of x
    where gamma(w) + w falls below y + x.  Bisection finds both; each
    crossing is solved in the operations of a walk along the curve (for the
    leg, along its mirror), so the floats are those of that walk.
    """
    xs, ys, falls, rises = table
    if not (xs and xs[0] < x < xs[-1] and abs(x) < y):
        return None
    i = bisect_right(xs, x)
    x0, y0, x1, y1 = xs[i - 1], ys[i - 1], xs[i], ys[i]
    gx = y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    if not y < gx:
        return None
    target = y - x
    j = bisect_right(falls, -target, i)
    if j == len(xs):  # beyond the polyline gamma is |w|: the span ends left of 0
        arm = -target / 2 - x
    else:
        pw, pv = (x, gx - x) if j == i else (xs[j - 1], ys[j - 1] - xs[j - 1])
        arm = pw + (pv - target) * (xs[j] - pw) / (pv - (ys[j] - xs[j])) - x
    target = y + x
    last = bisect_left(xs, x) - 1  # the last breakpoint left of x
    j = bisect_left(rises, target, 0, last + 1) - 1
    if j < 0:  # beyond the polyline gamma is |w|: the span starts right of 0
        return arm, -target / 2 + x
    if j < last:
        pw, pv = xs[j + 1], ys[j + 1] + xs[j + 1]
    else:  # gamma(x) as the mirror interpolates it, from the segment's right end
        x0, y0, x1, y1 = xs[j], ys[j], xs[j + 1], ys[j + 1]
        pw, pv = x, y1 + (y0 - y1) * (x1 - x) / (x1 - x0) + x
    return arm, -pw + (pv - target) * (pw - xs[j]) / (pv - (ys[j] + xs[j])) + x


def _stored_curve(xs, ys, scale_sq):
    """The curve on frame breakpoints, without the constructor's checks: the
    breakpoints come from a curve that passed them, possibly under a
    tolerance, or from a construction that satisfies them exactly, such as
    `partition_boundary`."""
    curve = object.__new__(LimitCurve)
    curve._store(xs, ys, scale_sq)
    return curve


def _parse_number(value):
    """A coordinate as an exact Fraction: a string, an int or a finite float;
    JSON true/false and Infinity/NaN are refused, not read as 1, 0 or inf."""
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, int) and not isinstance(value, bool) or (
            isinstance(value, float) and math.isfinite(value)):
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
    if rho is None:
        rho = Fraction(float(n) ** float(exponents.beta - exponents.alpha))
    scale = _exact_rational_power(n, -2 * exponents.beta)
    if scale is None:
        scale = Fraction(float(n) ** float(-2 * exponents.beta))
    # The profile's corners (u, v), row lengths u and row indices v, run from
    # (0, rows) to (lambda_1, 0); a point is (rho u - v, rho u + v) in the
    # frame, rho = p / q.  For any rho > 0 the steps have slopes +-1 and
    # strictly increasing x and the ends lie on |x|, so the constructor's
    # checks hold by construction.
    p, q = rho.numerator, rho.denominator
    ell = len(shape.parts)
    profile = [(0, ell)]
    prev_u = 0
    for i in range(ell, 0, -1):
        u = shape.parts[i - 1]
        if u != prev_u:
            profile.append((u, i))
            prev_u = u
        profile.append((u, i - 1))
    xs = tuple(Fraction(p * u - q * v, q) for u, v in profile)
    ys = tuple(Fraction(p * u + q * v, q) for u, v in profile)
    return _stored_curve(xs, ys, scale / 2)


def _deepest_cells(curve, n):
    """The partition of n made of the n cells deepest below the curve in
    balanced scaling: cell (i, j) scores phi = gamma(x) - y at its centre,
    x = (j - i)/sqrt(2n) and y = (i + j - 1)/sqrt(2n), and ties go to the
    smaller i + j, then i.  A South or East step never raises phi, as gamma
    is 1-Lipschitz, so these cells form a Young diagram.  A heap of the
    addable cells takes them one at a time, so the result is a partition of
    n whatever the float rounding."""
    unit = 1.0 / math.sqrt(2.0 * n)
    gamma = cache(lambda d: curve.value(d * unit))  # one read per diagonal j - i

    def entry(i, j):
        return ((i + j - 1) * unit - gamma(j - i), i + j, i, j)

    rows = [0] * (n + 1)  # rows[i - 1] is the length of row i
    heap = [entry(1, 1)]
    for _ in range(n):
        *_, i, j = heapq.heappop(heap)
        rows[i - 1] = j
        if i == 1 or rows[i - 2] > j:
            heapq.heappush(heap, entry(i, j + 1))
        if rows[i] == j - 1:
            heapq.heappush(heap, entry(i + 1, j))
    return Partition(r for r in rows if r)


def hook_distances(curve, point):
    """(a, l, d) at a true-coordinate point, zero outside the interior."""
    x, y = point
    s = curve.scale
    a, leg, d = curve._frame_distances(x / s, y / s)
    factor = math.sqrt(2.0) * s
    return a * factor, leg * factor, d * factor


def hook_coordinates(curve, point):
    """Hook coordinates (s, t) of an interior point: the abscissas of the two
    curve points hit along the two diagonal directions."""
    x, y = point
    sc = curve.scale
    fx, fy = x / sc, y / sc
    arm, leg = _exits(curve._table(fx), fx, fy) or (0, 0)
    return ((fx - leg) * sc, (fx + arm) * sc)
