"""Piecewise-linear limit curves in rotated (Russian) coordinates, boundary
functions of rescaled partitions, and the three distance functions on them.

A curve gamma maps x to gamma(x) >= |x|, is 1-Lipschitz and equals |x|
outside a bounded interval.  Breakpoints are stored exactly, as integers over
one denominator, in an internal *frame*; true coordinates are sqrt(scale_sq)
times the frame ones.  Because every quantity of interest is either
scale-invariant (slopes, Lipschitz checks) or scales by a known power of
sqrt(scale_sq) (lengths, areas), this keeps all structural checks exact even
when the true breakpoints are irrational - e.g. the unit-square curve has true
apex (0, sqrt(2)) but frame apex (0, 2) with scale_sq = 1/2.  A curve builds
two tables when it is made: the integer `_segments`, which all exact work
reads (the area, the limit integrals of `integrals.py`, the curve-file fit
and `same_curve`), and the float query table; `xs` and `ys` are views.

Queries answer in the type they are asked in.  A float query (``value``,
``hook_distances``, ``hook_coordinates``, or a frame method given a float)
reads one float table per curve, built with the curve: the breakpoints
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
from collections import namedtuple
from fractions import Fraction
from functools import cache
from itertools import accumulate, groupby

from .partitions import Partition, _Frozen

__all__ = [
    "LimitCurve",
    "ScalingExponents",
    "partition_boundary",
    "unit_square_curve",
    "flat_top_curve",
    "hook_distances",
    "hook_coordinates",
]

# The inequality tolerance of a curve read from a document or a file, which
# decimal coordinates need.
FILE_TOLERANCE = Fraction(1, 10**9)


class ScalingExponents(namedtuple("ScalingExponents", "alpha beta")):
    """Rescaling exponents (alpha, beta) = (1/p, 1/q) with alpha + beta = 1.

    alpha scales the diagonal (row) direction by n^alpha, beta the
    antidiagonal (column) direction; beta = 0 encodes q = infinity.
    """

    __slots__ = ()

    def __new__(cls, alpha, beta):
        alpha, beta = Fraction(alpha), Fraction(beta)
        if alpha + beta != 1 or alpha < 0 or beta < 0:
            raise ValueError(f"exponents must be nonnegative with sum 1, got {alpha}, {beta}")
        return super().__new__(cls, alpha, beta)

    # `_replace` builds its copy by `_make`, which would skip the check
    _make = classmethod(lambda cls, values: cls(*values))

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


def _exact_rational_power(n, exponent):
    """n**exponent as an exact Fraction, or None when it is irrational."""
    num, den = exponent.numerator, exponent.denominator
    root = round(n ** (1.0 / den))
    for candidate in (root - 1, root, root + 1):
        if candidate > 0 and candidate**den == n:
            return Fraction(candidate) ** num
    return None


class LimitCurve(_Frozen):
    """A 1-Lipschitz piecewise-linear curve equal to |x| outside its span."""

    __slots__ = ("scale_sq", "scale", "_float_table", "_segments")

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
        L = math.lcm(*(v.denominator for p in pts for v in p))
        self._store(L, [x.numerator * (L // x.denominator) for x, _ in pts],
                    [y.numerator * (L // y.denominator) for _, y in pts], scale_sq)

    def _store(self, L, X, Y, scale_sq):
        """Set the breakpoints (X[k], Y[k]) / L as integers and as floats (an
        int/int division rounds correctly), building no Fraction: the squared
        scale, the float scale sqrt(scale_sq) from frame to true units, the
        float query table and the segment table `_segments`: L and Q the least common
        denominators of the breakpoints and of the slopes, and on segment k
        Q L gamma(S / L) = G[k] S + C[k], G[k] = Q slope, C[k] = Q Y[k] - G[k] X[k]."""
        common = math.gcd(L, *X, *Y)
        L, X, Y = L // common, tuple(x // common for x in X), tuple(y // common for y in Y)
        steps = [(x1 - x0, y1 - y0) for x0, x1, y0, y1 in zip(X, X[1:], Y, Y[1:])]
        Q = math.lcm(*(dx // math.gcd(dx, dy) for dx, dy in steps))
        G = tuple(dy * Q // dx for dx, dy in steps)
        C = tuple(Q * y - g * x for x, y, g in zip(X, Y, G))
        object.__setattr__(self, "scale_sq", scale_sq)
        object.__setattr__(self, "scale", math.sqrt(scale_sq))
        object.__setattr__(self, "_float_table",
                           _query_table(tuple(x / L for x in X), tuple(y / L for y in Y)))
        object.__setattr__(self, "_segments", _Segments(L, Q, X, Y, G, C))

    def __reduce__(self):
        L, _, X, Y, _, _ = self._segments
        return (_stored_curve, (L, X, Y, self.scale_sq))

    # -- basic geometry -------------------------------------------------

    @property
    def xs(self):
        """The frame abscissas of the breakpoints, as Fractions."""
        return tuple(Fraction(x, self._segments.L) for x in self._segments.X)

    @property
    def ys(self):
        """The frame ordinates of the breakpoints, as Fractions."""
        return tuple(Fraction(y, self._segments.L) for y in self._segments.Y)

    @property
    def span(self):
        """Frame interval outside which the curve equals |x|."""
        L, _, X, *_ = self._segments
        return (Fraction(X[0], L), Fraction(X[-1], L)) if X else (Fraction(0), Fraction(0))

    def _table(self, x):
        """The query table in the type of the query x: the float one for a
        float, the exact one, built per query, for a Fraction or int."""
        return self._float_table if isinstance(x, float) else _query_table(self.xs, self.ys)

    def value_frame(self, x):
        """Curve value at frame abscissa x: float arithmetic on the float copy
        of the breakpoints for a float x, exact for a Fraction or int x."""
        xs, ys = self._float_table[:2] if isinstance(x, float) else (self.xs, self.ys)
        return _interpolate(xs, ys, x)

    def value(self, x):
        """Curve value at a true abscissa, as a float."""
        s = self.scale
        return self.value_frame(x / s) * s

    @property
    def breakpoints(self):
        """Breakpoints in true coordinates, as floats."""
        s = self.scale
        return [(x * s, y * s) for x, y in zip(*self._float_table[:2])]

    def area_frame(self):
        """Exact integral of (curve - |x|) over the frame axis: the trapezoids
        under the breakpoints less the integral of |x| over their span,
        (x_N |x_N| - x_0 |x_0|) / 2, as one integer sum over 2 L^2."""
        L, _, X, Y, _, _ = self._segments
        twice = sum((y0 + y1) * (x1 - x0) for x0, y0, x1, y1 in zip(X, Y, X[1:], Y[1:]))
        ends = X[-1] * abs(X[-1]) - X[0] * abs(X[0]) if X else 0
        return Fraction(twice - ends, 2 * L * L)

    @property
    def area(self):
        """Exact integral of (gamma(x) - |x|) dx in true coordinates."""
        return self.scale_sq * self.area_frame()

    def mirrored(self):
        """The reflection across x = 0, which swaps the two diagonal directions
        and keeps every property the constructor checks."""
        L, _, X, Y, _, _ = self._segments
        return _stored_curve(L, [-x for x in reversed(X)], Y[::-1], self.scale_sq)

    def _canonical(self):
        """The breakpoints where the slope changes, as signs and true squares."""
        L, _, X, Y, G, _ = self._segments
        p, q = self.scale_sq.numerator, self.scale_sq.denominator * L * L

        def key(v):
            return (v > 0) - (v < 0), Fraction(v * v * p, q)

        return tuple((key(x), key(y)) for x, y, g0, g1 in
                     zip(X, Y, [None, *G], [*G, None]) if g0 != g1)

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
    def from_document(cls, doc):
        if not isinstance(doc, dict) or "breakpoints" not in doc:
            raise ValueError('curve document must carry a "breakpoints" field')
        raw = doc["breakpoints"]
        pts = []
        for entry in raw:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ValueError(f"breakpoint {entry!r} is not an [x, y] pair")
            pts.append(tuple(_parse_number(v) for v in entry))
        return cls(pts, Fraction(1), tolerance=FILE_TOLERANCE)

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return cls.from_document(doc)

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
    if j == len(xs):  # a curve ending above |x| (within a tolerance): the arm ends there
        arm = xs[-1] - x
    else:
        pw, pv = (x, gx - x) if j == i else (xs[j - 1], ys[j - 1] - xs[j - 1])
        arm = pw + (pv - target) * (xs[j] - pw) / (pv - (ys[j] - xs[j])) - x
    target = y + x
    last = bisect_left(xs, x) - 1  # the last breakpoint left of x
    j = bisect_left(rises, target, 0, last + 1) - 1
    if j < 0:  # a curve starting above |x| (within a tolerance): the leg ends there
        return arm, x - xs[0]
    if j < last:
        pw, pv = xs[j + 1], ys[j + 1] + xs[j + 1]
    else:  # gamma(x) as the mirror interpolates it, from the segment's right end
        x0, y0, x1, y1 = xs[j], ys[j], xs[j + 1], ys[j + 1]
        pw, pv = x, y1 + (y0 - y1) * (x1 - x) / (x1 - x0) + x
    return arm, -pw + (pv - target) * (pw - xs[j]) / (pv - (ys[j] + xs[j])) + x


# The curve's segments in integers, built with the curve (`LimitCurve._store`).
_Segments = namedtuple("_Segments", "L Q X Y G C")


def _stored_curve(L, X, Y, scale_sq):
    """The curve on the frame breakpoints (X[k], Y[k]) / L, without the
    constructor's checks: the breakpoints come from a curve that passed
    them, possibly under a tolerance, or from a construction that satisfies
    them exactly, such as `partition_boundary`."""
    curve = object.__new__(LimitCurve)
    curve._store(L, X, Y, scale_sq)
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
    With rho = n^(beta - alpha) and alpha + beta = 1, the squared scale
    n^(-2 beta) is 1 / (n rho), so the result integrates to exactly 1.  rho is
    exact when rational (always in the balanced case and when one exponent is
    0 or 1); otherwise it is the nearest float and the breakpoints approximate.
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
    scale = 1 / (n * rho)
    # The profile runs from (0, rows) to (lambda_1, 0) in (row length u, row
    # index v).  A run of k equal rows of length u, ending at row v, gives
    # its two corners (u, v) and (u, v - k); the points between them are
    # collinear and left out.  A point is (p u - q v, p u + q v) / q in the
    # frame, rho = p / q.  For any rho > 0 the steps have slopes +-1 and
    # strictly increasing x and the ends lie on |x|, so the constructor's
    # checks hold by construction.
    p, q = rho.numerator, rho.denominator
    v = len(shape.parts)
    profile = [(0, v)]
    for u, run in groupby(reversed(shape.parts)):
        k = len(list(run))
        profile += [(u, v), (u, v - k)]
        v -= k
    X = [p * u - q * v for u, v in profile]
    Y = [p * u + q * v for u, v in profile]
    return _stored_curve(q, X, Y, scale / 2)


def _deepest_cells(curve, n):
    """The partition of n made of the n cells deepest below the curve in
    balanced scaling: cell (i, j) scores phi = gamma(x) - y at its centre,
    x = (j - i)/sqrt(2n) and y = (i + j - 1)/sqrt(2n), and exact ties go to
    the smaller i + j, then i.  A South or East step never raises phi, as
    gamma is 1-Lipschitz, so these cells form a Young diagram, which a heap
    of the addable cells takes one at a time whatever the float rounding.

    With R = sqrt(2n scale_sq), R phi over the frame scale is
    A R + s d - (i + j - 1) on the frame line y = A + s x under the diagonal
    d = j - i, A = C / (Q L) and s = G / Q in the segment table, and
    |d| - (i + j - 1) off the span.  Cells with equal A differ by an int
    ratio that one division rounds correctly; when R is irrational, cells
    with different A cannot tie and A R is one float per A, else A R joins
    the ratio over Q L rd, R = rn / rd.  So exact ties give equal floats,
    also across collinear breakpoints, which share a line.  The table is
    the curve's `_segments`, built once with the curve."""
    L, Q, X, _, G, C = curve._segments
    r2 = 2 * n * curve.scale_sq  # R^2 = p / q
    root = _rational_sqrt(r2)
    rn, rd = (root.numerator, root.denominator) if root is not None else (0, 1)
    den = Q * L * rd
    cuts = [x * abs(x) * r2.numerator for x in X]  # X / L <= d / R iff X|X| p <= d|d| L^2 q
    lines = [(0.0, 0, None)]  # (A R as a float, A R den, s den); s den = None off the span
    lines += [(0.0 if root is not None else c / (Q * L) * math.sqrt(r2), c * rn, g * L * rd)
              for g, c in zip(G, C)]
    lines.append(lines[0])

    @cache
    def diagonal(d):
        f, a, g = lines[bisect_right(cuts, d * abs(d) * L * L * r2.denominator)]
        return f, abs(d) * den if g is None else a + g * d

    def entry(i, j):
        f, num = diagonal(j - i)
        return ((i + j - 1) * den - num) / den - f, i + j, i, j

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
