import copy
import math
import pickle
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npslab import curves
from npslab.curves import (
    LimitCurve,
    ScalingExponents,
    flat_top_curve,
    hook_coordinates,
    hook_distances,
    partition_boundary,
    unit_square_curve,
)
from npslab.partitions import Partition, conjugate, partitions_of

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


def _steep_file_curve():
    # in binary floats the segment from (0.1, 1.3) to (0.45, 0.95) is a hair
    # steeper than -1; from_document accepts it within its tolerance
    return LimitCurve.from_document(
        {"breakpoints": [["-0.7", "0.7"], [0.1, 1.3], ["0.45", "0.95"], [1.2, 1.2]]})


@pytest.mark.parametrize("make", [
    unit_square_curve,
    lambda: partition_boundary(Partition([6, 5, 3, 3, 1]), 18),
    _steep_file_curve,
], ids=["unit-square", "boundary-65331", "tolerance-file"])
def test_curves_survive_pickling_and_deepcopy(make):
    curve = make()
    points = [(0.0, 0.5), (0.2, 0.6), (-0.3, 0.9), (0.05, 1.0), (2.0, 0.1)]
    for clone in (pickle.loads(pickle.dumps(curve)), copy.deepcopy(curve)):
        assert clone.same_curve(curve) and clone.scale_sq == curve.scale_sq
        for point in points:
            assert hook_distances(clone, point) == hook_distances(curve, point)


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


def _check_boundaries_with_constructor():
    """Every boundary of size <= 10 under balanced, (1/3, 2/3) and (1, 0)
    exponents, and (4,3,2,1) under (2/5, 3/5), rebuilt through the checked
    constructor at tolerance 0.  Most (1/3, 2/3) cases and the last one have
    a float-derived rho."""
    exponents = (ScalingExponents.balanced(), ScalingExponents(Fraction(1, 3), Fraction(2, 3)),
                 ScalingExponents(1, 0))
    cases = [(shape, e) for n in range(1, 11) for shape in partitions_of(n) for e in exponents]
    cases.append((Partition([4, 3, 2, 1]), ScalingExponents(Fraction(2, 5), Fraction(3, 5))))
    for shape, e in cases:
        curve = partition_boundary(shape, shape.size, e)
        checked = LimitCurve(list(zip(curve.xs, curve.ys)), curve.scale_sq)
        assert checked.same_curve(curve), (shape, e)


def test_partition_boundaries_pass_the_constructor_checks():
    _check_boundaries_with_constructor()


def test_constructor_check_rejects_a_boundary_missing_its_last_point(monkeypatch):
    stored = curves._stored_curve
    monkeypatch.setattr(curves, "_stored_curve",
                        lambda xs, ys, scale_sq: stored(xs[:-1], ys[:-1], scale_sq))
    with pytest.raises(ValueError, match="endpoint"):
        _check_boundaries_with_constructor()


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


def _decimal_file_curve():
    """A file curve whose decimal breakpoints are not binary floats."""
    return LimitCurve.from_document(
        {"breakpoints": [["-0.7", "0.7"], ["0.1", "1.1"], ["0.45", "0.95"], ["1.2", "1.2"]]})


def test_float_queries_match_exact_route():
    # float queries read the float copy of the breakpoints; at the same
    # point the Fraction route stays exact
    curves = [partition_boundary(shape, n) for n in range(1, 9) for shape in partitions_of(n)]
    curves += [unit_square_curve(), flat_top_curve(), _decimal_file_curve()]
    rng = random.Random(2016)

    def close(got, want):
        return all(abs(g - w) <= 1e-12 + 1e-12 * abs(w) for g, w in zip(got, want))

    for curve in curves:
        s = curve.scale
        (lo, _), (hi, _) = curve.breakpoints[0], curve.breakpoints[-1]
        top = max(y for _, y in curve.breakpoints)
        for _ in range(30):
            x, y = rng.uniform(lo, hi), rng.uniform(0.0, top)
            fx, fy = Fraction(x / s), Fraction(y / s)
            a, leg, d = curve._frame_distances(fx, fy)
            factor = math.sqrt(2.0) * s
            assert close(hook_distances(curve, (x, y)),
                         [float(v) * factor for v in (a, leg, d)]), (curve, x, y)
            assert close(hook_coordinates(curve, (x, y)),
                         [float(fx - leg) * s, float(fx + a) * s]), (curve, x, y)
            assert close([curve.value(x)], [float(curve.value_frame(fx)) * s]), (curve, x)


def test_float_queries_convert_no_floats_to_fractions(monkeypatch):
    curve = partition_boundary(Partition([6, 5, 3, 3, 1]), 18)
    points = [(-0.6, 0.9), (-0.2, 0.4), (0.0, 0.8), (0.15, 1.1), (0.5, 0.7), (0.3, 0.1)]

    def query():
        for point in points:
            hook_distances(curve, point)
            hook_coordinates(curve, point)
            curve.value(point[0])

    query()  # builds the curve's float query table
    calls = []
    from_float = Fraction.from_float
    monkeypatch.setattr(Fraction, "from_float",
                        classmethod(lambda cls, f: calls.append(f) or from_float(f)))
    query()
    assert calls == []


def _tie_points(xs, ys, stride):
    """Frame points on the two diagonals through every stride-th breakpoint
    (w, gamma(w)), where y - x = gamma(w) - w or y + x = gamma(w) + w, from x
    at every stride-th breakpoint and at the midpoint of its segment."""
    starts = xs[::stride] + tuple((a + b) / 2 for a, b in zip(xs[::stride], xs[1::stride]))
    for w, g in zip(xs[::stride], ys[::stride]):
        for x in starts:
            yield x, x + g - w
            yield x, g + w - x


def _differs(query, oracle):
    try:
        return query() != oracle()
    except ArithmeticError:  # a crossing solved on a segment it does not cross
        return True


def _query_mismatches(walk_curve, grid, exact=True):
    """The points at which hook_distances, hook_coordinates or
    _frame_distances differ in any bit from the linear walk: 40 random true
    points per curve, and the tie points in floats and, on curves of at most
    40 breakpoints, in Fractions."""
    rng = random.Random(2016)
    bad = []
    for curve in grid:
        walk = walk_curve.of(curve)
        (lo, _), (hi, _) = curve.breakpoints[0], curve.breakpoints[-1]
        top = max(y for _, y in curve.breakpoints)
        for _ in range(40):
            point = (rng.uniform(lo, hi), rng.uniform(0.0, top))
            if (_differs(lambda: hook_distances(curve, point), lambda: walk.hook_distances(point))
                    or _differs(lambda: hook_coordinates(curve, point),
                                lambda: walk.hook_coordinates(point))):
                bad.append((curve, point))
        exact_walk = walk_curve.exact(curve) if exact and len(curve.xs) <= 40 else None
        for x, y in _tie_points(curve.xs, curve.ys, max(1, len(curve.xs) // 10)):
            if exact_walk and _differs(lambda: curve._frame_distances(x, y),
                                       lambda: exact_walk.frame_distances(x, y)):
                bad.append((curve, (x, y)))
            x, y = float(x), float(y)
            if _differs(lambda: curve._frame_distances(x, y),
                        lambda: walk.frame_distances(x, y)):
                bad.append((curve, (x, y)))
    return bad


def _query_grid(general_curves):
    yield from (partition_boundary(shape, n) for n in range(1, 9) for shape in partitions_of(n))
    # rounded float breakpoints: gamma(w) +- w wobbles by an ulp on +-1 slopes
    one_sided = ScalingExponents(1, 0)
    yield from (partition_boundary(shape, n, one_sided)
                for n in range(2, 7) for shape in partitions_of(n))
    yield unit_square_curve()
    yield flat_top_curve()
    for curve in general_curves:
        yield curve
        yield curve.mirrored()
    yield _decimal_file_curve()
    yield partition_boundary(Partition(range(1000, 0, -1)), 500500)  # 2,001 breakpoints


def test_queries_equal_the_linear_walk(walk_curve, general_curves):
    grid = list(_query_grid(general_curves))
    assert len(grid[-1].xs) == 2001
    assert _query_mismatches(walk_curve, grid) == []


_MUTANT_GRID = ((4, 2, 1), (3, 3, 1, 1), (5, 2, 2, 1))


def test_arm_exit_stopping_at_equality_is_caught(monkeypatch, walk_curve):
    # bisect_left for bisect_right on w - gamma(w): the arm stops at a
    # breakpoint where gamma(w) - w equals y - x instead of following the
    # diagonal along the slope +1 segment after it
    grid = [partition_boundary(Partition(p), sum(p)) for p in _MUTANT_GRID]
    falls = {id(curve._floats()[0][2]) for curve in grid}
    monkeypatch.setattr(curves, "bisect_right", lambda a, x, lo=0: (
        bisect_left if id(a) in falls else bisect_right)(a, x, lo))
    assert _query_mismatches(walk_curve, grid, exact=False)


def test_leg_crossing_one_segment_off_is_caught(monkeypatch, walk_curve):
    grid = [partition_boundary(Partition(p), sum(p)) for p in _MUTANT_GRID]
    rises = {id(curve._floats()[0][3]) for curve in grid}
    monkeypatch.setattr(curves, "bisect_left", lambda a, x, lo=0, hi=None: bisect_left(
        a, x, lo, len(a) if hi is None else hi) - (id(a) in rises))
    assert _query_mismatches(walk_curve, grid, exact=False)


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


def test_mirror_is_the_conjugate_boundary():
    for shape in partitions_of(6):
        mirrored = partition_boundary(shape, 6).mirrored()
        assert mirrored.same_curve(partition_boundary(conjugate(shape), 6))
        assert mirrored.mirrored().same_curve(partition_boundary(shape, 6))


def test_mirror_of_curve_accepted_within_tolerance():
    curve = _steep_file_curve()
    x, y = 0.0, 0.5
    a, leg, d = hook_distances(curve, (x, y))
    ba, bl, bd = _brute_force_distances(curve, x, y)
    assert math.isclose(a, ba, abs_tol=1e-8) and math.isclose(leg, bl, abs_tol=1e-8)
    assert bd <= d + 1e-9 and math.isclose(d, bd, abs_tol=5e-3)
    s, t = hook_coordinates(curve, (x, y))
    assert math.isclose(t - x, a / math.sqrt(2)) and math.isclose(x - s, leg / math.sqrt(2))


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
