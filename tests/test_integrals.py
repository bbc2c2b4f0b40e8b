import math

import pytest

from npslab.complexity import worst_case
from npslab.curves import LimitCurve, flat_top_curve, partition_boundary, unit_square_curve
from npslab.integrals import (
    QuadratureError,
    _area_integral,
    adaptive_quad,
    avg_lower_integral,
    distance_integral_cellwise,
    imbalanced_integrals,
    worst_case_integral,
)
from npslab.partitions import Partition, partitions_of
from npslab.verify import CN_LOWER_VALUE


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
    # closed form: integral of (1-u) + (1-v) over the unit cell is 1
    assert abs(worst_case_integral(unit_square_curve(), tol=1e-5) - 1.0) < 1e-4


def test_worst_case_integral_flat_top():
    # d = sqrt(2)(1 - y) on the triangle, giving sqrt(2)/3
    value = worst_case_integral(flat_top_curve(), tol=1e-5)
    assert abs(value - math.sqrt(2) / 3) < 1e-4


def test_worst_case_integral_degenerate():
    assert worst_case_integral(LimitCurve([])) == 0.0
    assert avg_lower_integral(LimitCurve([])) == 0.0


def test_worst_case_integral_small_boundary_matches_identity():
    shape = Partition([2, 1])
    boundary = partition_boundary(shape, 3)
    value = worst_case_integral(boundary, tol=1e-6)
    assert value > 0
    # n^{3/2} * integral = n + sum of w = 4, exactly in the limit of tol -> 0
    assert abs(3**1.5 * value - 4.0) < 1e-4 * 3**1.5


def _midpoint_avg_lower(curve, cells=400):
    """Second, independent scheme for the lower-bound integral: plain
    midpoint rule over the (s, t) square in true coordinates."""
    lo, hi = (b[0] for b in (curve.breakpoints[0], curve.breakpoints[-1]))
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


def test_avg_lower_integral_unit_square_two_schemes():
    square = unit_square_curve()
    value = avg_lower_integral(square, tol=1e-6)
    # analytic value (2/3) ln 2 - 1/6
    assert abs(value - CN_LOWER_VALUE) < 1e-5
    independent = _midpoint_avg_lower(square)
    assert abs(independent - CN_LOWER_VALUE) < 2e-3
    # consistency: strictly below half the worst-case integral
    assert value < worst_case_integral(square, tol=1e-5) / 2


def test_avg_lower_integral_positive_on_normalized_curves():
    for curve in (unit_square_curve(), flat_top_curve(),
                  partition_boundary(Partition([3, 2, 1]), 6)):
        assert avg_lower_integral(curve, tol=1e-4) > 0


def test_imbalanced_integrals_unit_square():
    i1, i2 = imbalanced_integrals(unit_square_curve(), tol=1e-4)
    assert abs(i1 - 0.5) < 1e-3 and abs(i2 - 0.5) < 1e-3


def test_imbalanced_integrals_flat_top():
    # on the flat top both diagonal exits equal sqrt(2)(1 - y), so both
    # integrals coincide with the distance integral sqrt(2)/3
    i1, i2 = imbalanced_integrals(flat_top_curve(), tol=1e-4)
    assert abs(i1 - math.sqrt(2) / 3) < 1e-3
    assert abs(i2 - math.sqrt(2) / 3) < 1e-3


def _area_form(curve):
    """Independent route to (I1, I2): quadrature of a and l over the region."""
    return tuple(_area_integral(curve, frame, 1e-4) for frame in (curve._frame_a, curve._frame_l))


def test_mirror_swaps_integrals():
    boundary = partition_boundary(Partition([3, 1]), 4)
    mirrored = boundary.mirrored()
    i1, i2 = imbalanced_integrals(boundary)
    m1, m2 = imbalanced_integrals(mirrored)
    assert abs(i1 - m2) < 1e-12 and abs(i2 - m1) < 1e-12
    assert abs(i1 - i2) > 0.01  # asymmetric shape separates the two
    a1, a2 = _area_form(mirrored)
    assert abs(m1 - a1) < 2e-3 and abs(m2 - a2) < 2e-3


def test_hook_form_agrees_with_area_form():
    for curve in (unit_square_curve(), flat_top_curve(),
                  partition_boundary(Partition([3, 1]), 4)):
        a1, a2 = _area_form(curve)
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
