import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npslab.curves import (
    LimitCurve,
    ScalingExponents,
    flat_top_curve,
    hook_coordinates,
    hook_distances,
    partition_boundary,
    unit_square_curve,
)
from npslab.partitions import Partition, partitions_of

INV_SQRT2 = 1 / math.sqrt(2)


def small_partitions():
    return st.integers(1, 8).flatmap(
        lambda n: st.sampled_from([p.parts for p in partitions_of(n)]))


# -- scaling exponents ------------------------------------------------------


def test_scaling_exponents():
    balanced = ScalingExponents.balanced()
    assert balanced.alpha == balanced.beta == Fraction(1, 2)
    assert balanced.growth_exponent == Fraction(3, 2)
    one_sided = ScalingExponents.from_pq(1, math.inf)
    assert one_sided.alpha == 1 and one_sided.beta == 0
    assert one_sided.growth_exponent == 2
    with pytest.raises(ValueError):
        ScalingExponents(Fraction(1, 2), Fraction(1, 3))


def test_immutable_values_survive_pickling():
    shape = pickle.loads(pickle.dumps(Partition([3, 1])))
    assert shape == Partition([3, 1]) and shape.size == 4
    exponents = pickle.loads(pickle.dumps(ScalingExponents.from_pq(3, Fraction(3, 2))))
    assert (exponents.alpha, exponents.beta) == (Fraction(1, 3), Fraction(2, 3))


# -- construction and validation ---------------------------------------------


def test_validation_messages():
    with pytest.raises(ValueError, match="sorted"):
        LimitCurve([(0, 2), (-1, 1), (1, 1)])
    with pytest.raises(ValueError, match="y = |x"):
        LimitCurve([(-1, 2), (1, 1)])
    with pytest.raises(ValueError, match="Lipschitz"):
        LimitCurve([(-1, 1), (0, 3), (1, 1)])
    with pytest.raises(ValueError, match="two breakpoints"):
        LimitCurve([(0, 0)])
    with pytest.raises(ValueError, match="scale_sq"):
        LimitCurve([(-1, 1), (1, 1)], scale_sq=0)


@given(small_partitions())
@settings(max_examples=30, deadline=None)
def test_curves_never_dip_below_absolute_value(parts):
    # implied by the endpoint and Lipschitz invariants; checked densely
    shape = Partition(parts)
    curve = partition_boundary(shape, shape.size)
    lo, hi = curve.span
    for i in range(101):
        x = lo + (hi - lo) * Fraction(i, 100)
        assert curve.value_frame(x) >= abs(x)


def test_unit_square_curve():
    square = unit_square_curve()
    assert square.area == 1
    expected = [(-INV_SQRT2, INV_SQRT2), (0.0, math.sqrt(2)), (INV_SQRT2, INV_SQRT2)]
    for (gx, gy), (ex, ey) in zip(square.breakpoints, expected):
        assert math.isclose(gx, ex, abs_tol=1e-15) and math.isclose(gy, ey, abs_tol=1e-15)


def test_partition_boundary_examples():
    square = unit_square_curve()
    assert partition_boundary(Partition([1]), 1).same_curve(square)
    for m in (2, 3, 7):
        boundary = partition_boundary(Partition([m] * m), m * m)
        assert boundary.same_curve(square)
        assert boundary.area == 1
    two = partition_boundary(Partition([2]), 2)
    got = two.breakpoints
    half = 0.5
    expected = [(-half, half), (half, 1.5), (1.0, 1.0)]
    for (gx, gy), (ex, ey) in zip(got, expected):
        assert math.isclose(gx, ex) and math.isclose(gy, ey)
    with pytest.raises(ValueError, match="size"):
        partition_boundary(Partition([2, 1]), 5)


@given(small_partitions())
@settings(max_examples=40, deadline=None)
def test_partition_boundary_always_normalized(parts):
    shape = Partition(parts)
    assert partition_boundary(shape, shape.size).area == 1


def test_imbalanced_boundary_normalized_exactly():
    shape = Partition([995, 5])
    boundary = partition_boundary(shape, 1000, ScalingExponents.from_pq(1, math.inf))
    assert boundary.area == 1
    balanced = partition_boundary(shape, 1000)
    assert balanced.area == 1


def test_staircases_approach_flat_top(sup_distance):
    flat = flat_top_curve()
    distances = []
    for m in (5, 15, 40):
        shape = Partition(range(m, 0, -1))
        boundary = partition_boundary(shape, m * (m + 1) // 2)
        distances.append(sup_distance(boundary, flat))
    assert distances[0] > distances[1] > distances[2]
    assert distances[2] < 0.05


# -- sup distance -------------------------------------------------------------


def test_sup_distance_examples(sup_distance):
    square = unit_square_curve()
    assert sup_distance(square, square) == 0.0
    b21 = partition_boundary(Partition([2, 1]), 3)
    assert sup_distance(square, b21) > 0
    # raising an interior breakpoint by eps moves the sup by exactly eps
    base = LimitCurve([(-3, 3), (0, 1), (3, 3)])
    eps = Fraction(1, 128)
    lifted = LimitCurve([(-3, 3), (0, 1 + eps), (3, 3)])
    assert sup_distance(base, lifted) == float(eps)


# -- distance functions --------------------------------------------------------


def test_hook_distances_unit_square_center():
    square = unit_square_curve()
    a, leg, d = hook_distances(square, (0.0, INV_SQRT2))
    assert math.isclose(a, 0.5, abs_tol=1e-12)
    assert math.isclose(leg, 0.5, abs_tol=1e-12)
    assert math.isclose(d, 1.0, abs_tol=1e-12)


def test_hook_distances_boundary_and_apex():
    square = unit_square_curve()
    assert hook_distances(square, (INV_SQRT2, INV_SQRT2)) == (0.0, 0.0, 0.0)
    assert hook_distances(square, (0.9, 0.1)) == (0.0, 0.0, 0.0)
    near_apex = hook_distances(square, (0.0, math.sqrt(2) - 1e-9))
    assert all(0 <= v < 1e-8 for v in near_apex)


def test_frame_distances_exact_at_rational_points():
    square = unit_square_curve()
    # frame point (0, 1) is the square's center in rotated coordinates
    assert square._frame_distances(Fraction(0), Fraction(1)) == (
        Fraction(1, 2), Fraction(1, 2), Fraction(1))
    # frame (1/2, 3/4) is (u, v) = (5/8, 1/8) in the unit cell, where the
    # half-perimeter is (1 - u) + (1 - v) = 5/4
    assert square._frame_distances(Fraction(1, 2), Fraction(3, 4))[2] == Fraction(5, 4)


def test_distance_inequalities_at_random_points():
    square = unit_square_curve()
    boundary = partition_boundary(Partition([3, 2, 2, 1]), 8)
    rng_points = [(0.05 * i - 0.5, 0.1 + 0.09 * i) for i in range(1, 10)]
    for curve in (square, boundary):
        slack = math.sqrt(2) * max(
            curve.value(x) - abs(x)
            for x in [bx for bx, _ in curve.breakpoints] + [0.0])
        for (x, y) in rng_points:
            a, leg, d = hook_distances(curve, (x, y))
            assert d >= max(a, leg) - 1e-12
            assert d <= a + leg + slack + 1e-12


def test_hook_coordinate_round_trip(point_from_hook_coordinates):
    for curve in (unit_square_curve(), partition_boundary(Partition([4, 2, 1]), 7)):
        for (x, y) in [(0.1, 0.8), (-0.2, 0.5), (0.0, 0.9), (0.3, 0.6)]:
            if not curve.value(x) > y > abs(x):
                continue
            s, t = hook_coordinates(curve, (x, y))
            rx, ry = point_from_hook_coordinates(curve, s, t)
            assert math.isclose(rx, x, abs_tol=1e-9)
            assert math.isclose(ry, y, abs_tol=1e-9)


def _brute_force_distances(curve, x, y, steps=2000):
    """Independent oracle for the three distance functions, straight from
    their definitions: march along the diagonals for a and l, and search a
    dense grid of upper corners for the best rectangle half-perimeter."""
    if not (abs(x) < y < curve.value(x)):
        return 0.0, 0.0, 0.0
    lo, hi = (b[0] for b in (curve.breakpoints[0], curve.breakpoints[-1]))
    span = hi - lo

    def march(direction):
        t_hi = 2 * span
        t_lo = 0.0
        for _ in range(60):
            t = 0.5 * (t_lo + t_hi)
            if y + t <= curve.value(x + direction * t):
                t_lo = t
            else:
                t_hi = t
        return t_lo

    arm = math.sqrt(2) * march(+1)
    leg = math.sqrt(2) * march(-1)
    best = 0.0
    for i in range(steps + 1):
        w = lo + (hi - lo) * i / steps
        h = curve.value(w) - y
        if h >= abs(w - x):
            best = max(best, h)
    return arm, leg, math.sqrt(2) * best


def test_distances_match_brute_force_oracle():
    curves = [unit_square_curve(), flat_top_curve(),
              partition_boundary(Partition([4, 2, 1]), 7),
              partition_boundary(Partition([3, 3, 2, 1]), 9)]
    points = [(0.05, 0.55), (-0.3, 0.7), (0.2, 0.9), (-0.05, 0.31), (0.4, 0.62)]
    for curve in curves:
        for (x, y) in points:
            a, leg, d = hook_distances(curve, (x, y))
            ba, bl, bd = _brute_force_distances(curve, x, y)
            assert math.isclose(a, ba, abs_tol=1e-8), (curve, x, y)
            assert math.isclose(leg, bl, abs_tol=1e-8), (curve, x, y)
            # grid search can only undershoot the true max
            assert bd <= d + 1e-9
            assert math.isclose(d, bd, abs_tol=5e-3), (curve, x, y)


# -- mirroring and equality -----------------------------------------------------


def test_mirror_swaps_diagonal_distances():
    boundary = partition_boundary(Partition([3, 1]), 4)
    mirrored = boundary.mirrored()
    for (x, y) in [(0.1, 0.6), (-0.3, 0.8)]:
        a, leg, d = hook_distances(boundary, (x, y))
        ma, mleg, md = hook_distances(mirrored, (-x, y))
        assert math.isclose(a, mleg, abs_tol=1e-12)
        assert math.isclose(leg, ma, abs_tol=1e-12)
        assert math.isclose(d, md, abs_tol=1e-12)


def test_same_curve_strips_collinear_points():
    plain = LimitCurve([(-1, 1), (1, 1)])
    dotted = LimitCurve([(-1, 1), (0, 1), (1, 1)])
    assert plain.same_curve(dotted)
    assert not plain.same_curve(unit_square_curve())


# -- file round trip --------------------------------------------------------------


def test_file_round_trip(tmp_path, sup_distance):
    path = tmp_path / "curve.json"
    flat = flat_top_curve()
    flat.to_file(path)
    loaded = LimitCurve.from_file(path)
    assert loaded.same_curve(flat)

    square = unit_square_curve()
    square.to_file(path)  # irrational scale: decimal breakpoints
    loaded = LimitCurve.from_file(path)
    assert sup_distance(loaded, square) < 1e-9


def test_document_validation():
    with pytest.raises(ValueError, match="breakpoints"):
        LimitCurve.from_document({"points": []})
    with pytest.raises(ValueError, match="pair"):
        LimitCurve.from_document({"breakpoints": [[1, 2, 3]]})
    with pytest.raises(ValueError, match="Lipschitz"):
        LimitCurve.from_document({"breakpoints": [["-1", "1"], ["0", "5/2"], ["1", "1"]]})
    curve = LimitCurve.from_document(
        {"breakpoints": [["-1", "1"], ["0", "2"], ["1", "1"]]})
    assert curve.value_frame(Fraction(0)) == 2
