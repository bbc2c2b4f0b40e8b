import copy
import json
import math
import pickle
import random
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
from npslab.nps import Tableau, nps_sort
from npslab.partitions import Partition, conjugate, partitions_of

INV_SQRT2 = 1 / math.sqrt(2)


def small_partitions():
    return st.integers(1, 8).flatmap(
        lambda n: st.sampled_from([p.parts for p in partitions_of(n)]))


# -- the segment table ------------------------------------------------------


@pytest.fixture(scope="module")
def curves_with_points(general_curves, general_curve_points, full_profile_boundary,
                       boundary_points, views_by_fractions):
    """The curves of the integral and fit tests, their decimal copies and the
    mirrors of both, each with the points its constructor took and its
    squared scale.  A boundary's points are its profile's corners, under the
    rho that its squared scale 1 / (2 n rho) gives; a decimal copy's are the
    float breakpoints of its source, by the oracle."""
    exponents = (None, ScalingExponents(Fraction(1, 3), Fraction(2, 3)), ScalingExponents(1, 0))
    shapes = [(shape, e) for n in range(1, 9) for shape in partitions_of(n) for e in exponents]
    shapes += [(Partition(parts), None) for parts in
               ((6, 5, 3, 3, 1), (10, 1), (3, 3, 3), (5, 5, 1, 1), tuple(range(15, 0, -1)))]
    grid = []
    for shape, e in shapes:
        curve = partition_boundary(shape, shape.size, e)
        grid.append((curve, boundary_points(shape, 1 / (2 * shape.size * curve.scale_sq)),
                     curve.scale_sq))
    for parts in ((6, 5, 3, 3, 1), (3, 3, 3)):
        shape = Partition(parts)
        grid.append((full_profile_boundary(shape), boundary_points(shape, 1, corners=False),
                     Fraction(1, 2 * shape.size)))
    skew = [(-1, 1), (-0.25, 1.25), (2, 2)]
    grid += [(unit_square_curve(), [(-1, 1), (0, 2), (1, 1)], Fraction(1, 2)),
             (flat_top_curve(), [(-1, 1), (1, 1)], 1),
             *((c, points, 1) for c, points in zip(general_curves, general_curve_points)),
             (LimitCurve([]), [], 1), (LimitCurve(skew), skew, 1)]
    grid += [(LimitCurve.from_document({"breakpoints": c.breakpoints}),
              [tuple(map(float.fromhex, p)) for p in views_by_fractions(points, sq)["breakpoints"]],
              1) for c, points, sq in grid]
    return grid + [(c.mirrored(), [(-x, y) for x, y in reversed(points)], sq)
                   for c, points, sq in grid]


def test_segment_table_equals_the_fraction_table(curves_with_points, segments_by_fractions):
    # the float breakpoints are those of the Fractions
    for curve, _, _ in curves_with_points:
        assert tuple(curve._segments) == segments_by_fractions(curve), curve
        assert [[v.hex() for v in values] for values in curve._float_table[:2]] == [
            [float(v).hex() for v in values] for values in (curve.xs, curve.ys)], curve


def test_breakpoint_views_equal_the_fraction_curve(curves_with_points, views_by_fractions):
    # xs, ys, span, area, repr, the document and the float breakpoints, which
    # the curve derives from its integers and floats, equal those computed in
    # Fractions from its constructor's points
    for curve, points, scale_sq in curves_with_points:
        views = {"xs": curve.xs, "ys": curve.ys, "span": curve.span, "area": curve.area,
                 "repr": repr(curve), "document": json.dumps(curve.to_document()),
                 "breakpoints": [(x.hex(), y.hex()) for x, y in curve.breakpoints]}
        assert views == views_by_fractions(points, scale_sq), curve
        assert all(type(v) is Fraction for v in (*curve.xs, *curve.ys, *curve.span, curve.area))


def test_a_stored_curve_builds_no_fraction(monkeypatch):
    assert LimitCurve.__slots__ == ("scale_sq", "scale", "_float_table", "_segments")
    curve = partition_boundary(Partition(range(40, 0, -1)), 820)
    built = []
    monkeypatch.setattr(curves, "Fraction", lambda *args: built.append(args))
    mirror = curve.mirrored()
    assert built == [] and mirror._segments.X == tuple(-x for x in reversed(curve._segments.X))


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


def test_equal_exponents_are_one_value():
    one_sided = ScalingExponents(1, 0)
    assert one_sided == ScalingExponents.from_pq(1, math.inf)
    assert hash(one_sided) == hash(ScalingExponents.from_pq(1, "inf"))
    assert len({ScalingExponents.balanced(), ScalingExponents(Fraction(1, 2), 0.5)}) == 1
    with pytest.raises(AttributeError):
        one_sided.alpha = Fraction(1, 2)


def test_immutable_values_survive_pickling():
    shape = pickle.loads(pickle.dumps(Partition([3, 1])))
    assert shape == Partition([3, 1]) and shape.size == 4
    exponents = pickle.loads(pickle.dumps(ScalingExponents.from_pq(3, Fraction(3, 2))))
    assert (exponents.alpha, exponents.beta) == (Fraction(1, 3), Fraction(2, 3))
    outcome = nps_sort(Tableau.parse("6,2,5;4,1;3"))
    for value in (outcome.output, outcome.hooks):
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(clone) is type(value) and clone == value and clone.shape == value.shape


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


def test_partition_boundaries_pass_the_constructor_checks(boundary_refusals):
    assert boundary_refusals() == []


def test_imbalanced_boundary_normalized_exactly():
    shape = Partition([995, 5])
    boundary = partition_boundary(shape, 1000, ScalingExponents.from_pq(1, math.inf))
    assert boundary.area == 1
    balanced = partition_boundary(shape, 1000)
    assert balanced.area == 1
    # 10^(1/3) is irrational: rho is a float's value, and the scale 1 / (n rho) follows it
    irrational = partition_boundary(Partition([4, 3, 2, 1]), 10, ScalingExponents.from_pq(3, 1.5))
    assert irrational.area == 1


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


def test_queries_equal_the_linear_walk(query_mismatches, general_curves):
    grid = list(_query_grid(general_curves))
    assert len(grid[-1].xs) == 2001
    assert query_mismatches(grid) == []


def test_exits_beyond_the_polyline_equal_the_linear_walk(walk_curve):
    # a file curve ending 1e-9 above |x|, as the default tolerance admits:
    # just above the diagonal next to that end, the arm crosses no segment and
    # ends at the last breakpoint; on the mirror, the leg at the first
    curve = LimitCurve.from_document(
        {"breakpoints": [["-1", "1"], ["0", "0.000000001"], ["1", "1.000000001"]]})
    mirror = curve.mirrored()
    gap = Fraction(1, 2 * 10**9)
    for x in (Fraction(1, 4), Fraction(1, 2), Fraction(999, 1000)):
        for query, frame_x, exit_index in ((curve, x, 0), (mirror, -x, 1)):
            walk = walk_curve.of(query)
            for fx, fy in ((frame_x, x + gap), (float(frame_x), float(x + gap))):
                got = query._frame_distances(fx, fy)
                want = (walk if isinstance(fx, float) else walk_curve.exact(query)
                        ).frame_distances(fx, fy)
                assert got == want and got[exit_index] == 1 - abs(fx), (query, fx, got, want)
            point = (float(frame_x), float(x + gap))
            assert hook_distances(query, point) == walk.hook_distances(point)
            assert hook_coordinates(query, point) == walk.hook_coordinates(point)


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
