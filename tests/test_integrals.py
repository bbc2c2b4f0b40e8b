"""Tests of the exact curve integrals.

The adaptive Gauss-Kronrod quadrature below is an independent route kept as a
test oracle: it integrates the distance functions point by point over the
curve's region in (x, y), where the library works in hook coordinates.  The
quadrature oracles evaluate the curve on the float linear-walk copy of its
breakpoints, the `walk_curve` fixture.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from npslab import integrals
from npslab.cli import main
from npslab.complexity import _w_table, worst_case
from npslab.curves import (
    LimitCurve,
    ScalingExponents,
    flat_top_curve,
    partition_boundary,
    unit_square_curve,
)
from npslab.integrals import (
    _K,
    _scaled_boundary,
    _segment_table,
    avg_lower_integral,
    distance_integral_cellwise,
    imbalanced_integrals,
    worst_case_integral,
)
from npslab.partitions import Partition, partitions_of
from npslab.verify import CN_LOWER_VALUE

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


def _crossing_d(curve, x, y):
    """max { gamma(w) - y : gamma(w) - y >= |w - x| } in frame units, 0 off the
    interior, searched over the breakpoints and the crossings of each segment
    with the two feasibility lines gamma(w) - y = +-(w - x)."""
    if not (curve.xs and abs(x) < y < curve.value_frame(x)):
        return 0.0
    best = None
    for w, g in zip(curve.xs, curve.ys):
        h = g - y
        if h >= abs(w - x) and (best is None or h > best):
            best = h
    for x0, x1, y0, y1 in zip(curve.xs, curve.xs[1:], curve.ys, curve.ys[1:]):
        slope = (y1 - y0) / (x1 - x0)
        for sign in (1, -1):
            if slope == sign:
                continue
            w = (y0 - slope * x0 - y + sign * x) / (sign - slope)
            if x0 <= w <= x1 and sign * (w - x) >= 0:
                h = y0 + slope * (w - x0) - y
                if h >= 0 and (best is None or h > best):
                    best = h
    return best if best is not None else 0.0


def _area_w(curve, tol):
    """Quadrature route to the distance integral W on a float walk curve."""

    def critical(x):
        # d(x, .) can jump where a feasibility component vanishes; those
        # heights are among gamma(w) - |w - x| at breakpoints w.
        return [g - abs(w - x) for w, g in zip(curve.xs, curve.ys)]

    return _area_integral(curve, lambda x, y: _crossing_d(curve, x, y), tol,
                          critical_y=critical)


def _area_form(curve):
    """Quadrature route to (I1, I2) on a float walk curve: the exits a and l
    over the region."""
    mirror = curve.mirrored()

    def exit_(source, sign):
        return lambda x, y: (source.diag_exit(sign * x, y)
                             if abs(x) < y < curve.value_frame(x) else 0.0)

    return _area_integral(curve, exit_(curve, 1), 1e-4), _area_integral(curve, exit_(mirror, -1), 1e-4)


def _production(curve):
    return (worst_case_integral(curve), avg_lower_integral(curve), *imbalanced_integrals(curve))


def _oracle_curves(tmp_path, general_curves):
    exponents = (None, ScalingExponents(Fraction(1, 3), Fraction(2, 3)), ScalingExponents(1, 0))
    yield from (partition_boundary(shape, n, e)
                for n in range(1, 9) for shape in partitions_of(n) for e in exponents)
    yield unit_square_curve()
    yield flat_top_curve()
    for curve in general_curves:
        yield curve
        yield curve.mirrored()
    # decimal files: the (4,2) boundary and the staircase 15..1, whose
    # slope denominators have an lcm of hundreds of bits
    path = tmp_path / "curve.json"
    for shape in (Partition([4, 2]), Partition(range(15, 0, -1))):
        partition_boundary(shape, shape.size).to_file(path)
        yield LimitCurve.from_file(path)


def test_integrals_equal_fraction_oracle(tmp_path, integrals_by_fractions, general_curves):
    for curve in _oracle_curves(tmp_path, general_curves):
        assert _production(curve) == integrals_by_fractions(curve), curve


@st.composite
def rational_curves(draw):
    """Rational 1-Lipschitz curves: from a point on |x|, up to five segments
    with slopes of even denominator inside (-1, 1), then a slope -1 segment
    down to |x|."""
    x = -Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 4)))
    points = [(x, -x)]
    for _ in range(draw(st.integers(1, 5))):
        half = draw(st.integers(1, 4))
        slope = Fraction(2 * draw(st.integers(-half, half - 1)) + 1, 2 * half)
        dx = Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 4)))
        y = points[-1][1] + slope * dx
        if y <= x + dx:
            break  # the next point would not lie above |x|
        x += dx
        points.append((x, y))
    assume(len(points) > 1)
    drop = (points[-1][1] - x) / 2
    points.append((x + drop, points[-1][1] - drop))
    return LimitCurve(points)


@given(rational_curves())
@settings(max_examples=40, deadline=None)
def test_integrals_equal_fraction_oracle_on_rational_curves(integrals_by_fractions, curve):
    assert _segment_table(curve).Q > 1
    assert _production(curve) == integrals_by_fractions(curve)


def test_oracle_catches_q_forced_to_one(monkeypatch, integrals_by_fractions, general_curves):
    table = integrals._segment_table
    monkeypatch.setattr(integrals, "_segment_table", lambda curve: table(curve)._replace(Q=1))
    for curve in general_curves:
        got, want = _production(curve), integrals_by_fractions(curve)
        assert all(g != w for g, w in zip(got, want)), (curve, got, want)


def test_oracle_catches_log_weights_36_over_p(monkeypatch, integrals_by_fractions,
                                              general_curves):
    monkeypatch.setattr(integrals, "_LOG_WEIGHTS", (36, 18, 12))
    for curve in general_curves:
        assert avg_lower_integral(curve) != integrals_by_fractions(curve)[1], curve


def test_adaptive_quad_basics():
    assert math.isclose(adaptive_quad(math.sin, 0, math.pi, 1e-10), 2.0, abs_tol=1e-9)
    assert math.isclose(adaptive_quad(abs, -1, 1, 1e-12, splits=(0,)), 1.0, abs_tol=1e-11)
    assert adaptive_quad(lambda x: x, 1, 1, 1e-6) == 0.0


def test_adaptive_quad_reports_failure_with_estimate():
    with pytest.raises(QuadratureError) as info:
        adaptive_quad(abs, -1.0, 0.9998, 1e-15, max_depth=0)
    # the carried estimate is the coarse single-panel value, close to truth
    assert info.value.estimate == pytest.approx(0.5 + 0.9998**2 / 2, abs=0.05)


def test_worst_case_integral_unit_square():
    # closed form: integral of (1-u) + (1-v) over the unit cell is 1; the
    # true-units factor is the rational 1/2 here, so the value is exact
    assert worst_case_integral(unit_square_curve()) == 1.0


def test_worst_case_integral_flat_top():
    # d = sqrt(2)(1 - y) on the triangle, giving sqrt(2)/3
    value = worst_case_integral(flat_top_curve())
    assert abs(value - math.sqrt(2) / 3) < 1e-15


def test_worst_case_integral_degenerate():
    assert worst_case_integral(LimitCurve([])) == 0.0
    assert avg_lower_integral(LimitCurve([])) == 0.0


def test_worst_case_integral_small_boundary_matches_identity():
    # n^{3/2} * integral = n + sum of w, the cell-wise identity
    for n in range(1, 9):
        for shape in partitions_of(n):
            value = n**1.5 * worst_case_integral(partition_boundary(shape, n))
            assert math.isclose(value, n + worst_case(shape), rel_tol=1e-12), shape


def test_worst_case_integral_agrees_with_area_form(walk_curve, general_curves):
    for curve in general_curves:
        assert abs(worst_case_integral(curve) - _area_w(walk_curve.of(curve), 1e-8)) < 1e-6, curve


def test_interval_maximum_d_matches_crossing_search(general_curves):
    curves = general_curves + (
        unit_square_curve(), flat_top_curve(),
        partition_boundary(Partition([4, 2, 1]), 7),
        partition_boundary(Partition([6, 5, 3, 3, 1]), 18))
    for curve in curves:
        lo, hi = curve.xs[0], curve.xs[-1]
        top = max(curve.ys)
        for a in range(41):
            x = lo + (hi - lo) * Fraction(a, 40)
            for b in range(41):
                y = top * Fraction(b, 40)
                d = curve._frame_distances(x, y)[2]
                assert d == _crossing_d(curve, x, y), (curve, x, y)


def _midpoint_avg_lower(curve, cells=400):
    """Second, independent scheme for the lower-bound integral on a float
    walk curve: plain midpoint rule over the (s, t) square in true
    coordinates."""
    lo, hi = curve.xs[0] * curve.scale, curve.xs[-1] * curve.scale
    width = hi - lo
    h = width / cells
    total = 0.0
    eps = 1e-7

    def slope(x):
        return (curve.value(x + eps) - curve.value(x - eps)) / (2 * eps)

    for i in range(cells):
        s = lo + (i + 0.5) * h
        fs = 1 + slope(s)
        if fs < 1e-12:
            continue
        for j in range(i, cells):
            t = lo + (j + 0.5) * h
            ft = 1 - slope(t)
            if ft < 1e-12 or t <= s:
                continue
            dg = curve.value(t) - curve.value(s)
            total += ((t - s) + dg * dg / (t - s)) * fs * ft * h * h
    return math.sqrt(2) / 8 * total


def test_avg_lower_integral_unit_square_two_schemes(walk_curve):
    square = unit_square_curve()
    value = avg_lower_integral(square)
    # analytic value (2/3) ln 2 - 1/6
    assert abs(value - CN_LOWER_VALUE) < 1e-12
    independent = _midpoint_avg_lower(walk_curve.of(square))
    assert abs(independent - CN_LOWER_VALUE) < 2e-3
    # consistency: strictly below half the worst-case integral
    assert value < worst_case_integral(square) / 2


def test_avg_lower_integral_agrees_with_midpoint_scheme(walk_curve, general_curves):
    # the log terms of the closed form on curves with slopes inside (-1, 1);
    # 100 midpoint cells are within 3e-3 of the limit on both
    for curve in general_curves:
        midpoint = _midpoint_avg_lower(walk_curve.of(curve), cells=100)
        assert abs(avg_lower_integral(curve) - midpoint) < 5e-3


def test_avg_lower_integral_positive_on_normalized_curves():
    for curve in (unit_square_curve(), flat_top_curve(),
                  partition_boundary(Partition([3, 2, 1]), 6)):
        assert avg_lower_integral(curve) > 0


def test_imbalanced_integrals_unit_square():
    assert imbalanced_integrals(unit_square_curve()) == (0.5, 0.5)


def test_imbalanced_integrals_flat_top():
    # on the flat top both diagonal exits equal sqrt(2)(1 - y), so both
    # integrals coincide with the distance integral sqrt(2)/3
    i1, i2 = imbalanced_integrals(flat_top_curve())
    assert abs(i1 - math.sqrt(2) / 3) < 1e-15
    assert abs(i2 - math.sqrt(2) / 3) < 1e-15


def test_mirror_swaps_integrals(walk_curve):
    boundary = partition_boundary(Partition([3, 1]), 4)
    mirrored = boundary.mirrored()
    i1, i2 = imbalanced_integrals(boundary)
    m1, m2 = imbalanced_integrals(mirrored)
    assert abs(i1 - m2) < 1e-12 and abs(i2 - m1) < 1e-12
    assert abs(i1 - i2) > 0.01  # asymmetric shape separates the two
    a1, a2 = _area_form(walk_curve.of(mirrored))
    assert abs(m1 - a1) < 2e-3 and abs(m2 - a2) < 2e-3


def test_hook_form_agrees_with_area_form(walk_curve):
    for curve in (unit_square_curve(), flat_top_curve(),
                  partition_boundary(Partition([3, 1]), 4)):
        a1, a2 = _area_form(walk_curve.of(curve))
        h1, h2 = imbalanced_integrals(curve)
        assert abs(a1 - h1) < 2e-4 and abs(a2 - h2) < 2e-4


def test_distance_integral_cellwise_examples():
    per_cell, total = distance_integral_cellwise(Partition([2, 1]))
    assert per_cell[(1, 1)] == 4  # 2 (w + 1) with w = 1
    assert per_cell[(1, 2)] == 2 and per_cell[(2, 1)] == 2
    assert total == 8 == 2 * (3 + worst_case(Partition([2, 1])))


def test_distance_integral_cellwise_up_to_6():
    for n in range(1, 7):
        for shape in partitions_of(n):
            _, total = distance_integral_cellwise(shape)
            assert total == 2 * (n + worst_case(shape)), shape


def _probe_shapes():
    yield from (s for n in range(1, 9) for s in partitions_of(n))
    yield from (Partition([6] * 6), Partition(range(8, 0, -1)),
                Partition([10, 1]), Partition([40, 1]))


def test_scaled_probes_match_fraction_probes(cellwise_by_fractions):
    for shape in _probe_shapes():
        per_cell, total, distances = cellwise_by_fractions(shape)
        assert distance_integral_cellwise(shape) == (per_cell, total), shape
        curve = _scaled_boundary(shape)
        for ((i, j), (du, dv)), exact in distances.items():
            u = _K * (j - 1 + du)
            v = _K * (i - 1 + dv)
            scaled = curve._frame_distances(float(u - v), float(u + v))
            for got, want in zip(scaled, exact):
                assert type(got) is float and got.is_integer(), (shape, (i, j), (du, dv))
                assert got == _K * want, (shape, (i, j), (du, dv), scaled, exact)


def test_scaled_probes_stay_exact_up_to_the_span_limit():
    # a row of 279,619 cells has span K * 279,620 with square just below
    # 2^52: the largest products of the float query are still exact
    row = 279_619
    curve = _scaled_boundary(Partition([row]))
    for j in (1, row // 2, row):
        u, v = _K * (j - 1) + 120, 120
        _, _, d = curve._frame_distances(float(u - v), float(u + v))
        assert d == _K * (row - j + 1 + j) - (u + v), j
    with pytest.raises(ValueError, match="too wide"):
        _scaled_boundary(Partition([row + 1]))


def test_wrong_cell_distance_is_caught(capsys, monkeypatch):
    def off_by_one(shape):
        rows = _w_table(shape)
        rows[0][0] += 1
        return rows

    monkeypatch.setattr(integrals, "_w_table", off_by_one)
    with pytest.raises(AssertionError, match=r"cell \(1,1\) probe \(1/2,1/2\) of 2,1"):
        distance_integral_cellwise(Partition([2, 1]))
    assert main(["verify", "--level", "fast"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] distance-integral-identity" in out and "cell (1,1)" in out
