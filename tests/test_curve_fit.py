"""The curve-file fitter: the partition of n made of the n cells deepest
below a limit curve in balanced scaling."""

import math
import pickle

import pytest

from npslab import curves
from npslab.curves import (
    LimitCurve,
    _deepest_cells,
    flat_top_curve,
    partition_boundary,
    unit_square_curve,
)
from npslab.partitions import Partition

BLOWN_UP = [(4, 2), (6, 5, 3, 3, 1), (10, 1), (3, 3, 3), (5, 5, 1, 1)]


def boundary(parts):
    return partition_boundary(Partition(parts), sum(parts))


def blown_up(parts, k):
    """Every cell of the partition replaced by a k x k block."""
    return tuple(p * k for p in parts for _ in range(k))


@pytest.mark.parametrize("parts", BLOWN_UP, ids=str)
def test_boundary_of_partition_recovers_its_blow_ups(parts):
    curve = boundary(parts)
    for k in range(1, 6):
        assert _deepest_cells(curve, k * k * sum(parts)).parts == blown_up(parts, k), k


def test_decimal_boundary_file_recovers_its_blow_ups():
    decimal = LimitCurve.from_document({"breakpoints": boundary((4, 2)).breakpoints})
    assert decimal.area != 1
    for k in (1, 2, 3, 4, 6, 10):
        assert _deepest_cells(decimal, 6 * k * k).parts == blown_up((4, 2), k), k


@pytest.mark.parametrize("curve", [
    flat_top_curve(), unit_square_curve(), *map(boundary, BLOWN_UP[:3])],
    ids=["flat", "square", *map(str, BLOWN_UP[:3])])
def test_sup_distance_falls_as_one_over_root_n(curve, sup_distance):
    for n in [*range(10, 201), 1000, 7919, 10**4]:
        fitted = partition_boundary(_deepest_cells(curve, n), n)
        assert math.sqrt(n) * sup_distance(fitted, curve) < 1.5, n


@pytest.mark.parametrize("curve", [
    flat_top_curve(), unit_square_curve(), boundary((10, 1)),
    LimitCurve([(-1, 1), (-0.25, 1.25), (2, 2)])],
    ids=["flat", "square", "(10, 1)", "skew"])
def test_fit_is_a_partition_of_n(curve):
    for n in range(1, 401):
        assert _deepest_cells(curve, n).size == n


@pytest.mark.parametrize("parts", [(6, 5, 3, 3, 1), (3, 3, 3)], ids=str)
def test_fit_ignores_collinear_breakpoints(parts, full_profile_boundary):
    # the boundary keeps only the profile's corners; the fit reads the same
    # partitions from the boundary with every profile step as a breakpoint
    corners, full = boundary(parts), full_profile_boundary(Partition(parts))
    assert len(corners.xs) < len(full.xs)
    for n in range(1, 201):
        assert _deepest_cells(corners, n) == _deepest_cells(full, n), n


def test_exact_ties_go_to_the_smaller_i():
    # at n = 11 the seven cells with max(i, j) = 4 tie on the unit square;
    # (1,4) and (4,1) come first, by i + j, and (1,4) before (4,1), by i
    assert _deepest_cells(unit_square_curve(), 11).parts == (4, 3, 3, 1)


def test_fit_takes_the_cells_first_in_exact_depth_order(fits_by_depth):
    assert [(curve, n) for curve, n, cells in fits_by_depth
            if set(_deepest_cells(curve, n).cells()) != cells] == []


# n <= 300: every n <= 30, a stride above, and each n at which R is rational
# on some curve of the grid below, whose lines then join A R to the ratio
FRACTION_SIZES = sorted({*range(1, 31), *range(31, 301, 29), *(2 * k * k for k in range(1, 13)),
                         *(6 * k * k for k in range(1, 8)), 30, 120, 270})


def test_fit_matches_the_fraction_lines(fit_by_fractions):
    # the boundaries of (4,2), (6,5,3,3,1) and the staircase 15..1, their
    # decimal files and the mirrors of all six
    exact = [boundary(parts) for parts in ((4, 2), (6, 5, 3, 3, 1), tuple(range(15, 0, -1)))]
    grid = exact + [LimitCurve.from_document({"breakpoints": c.breakpoints}) for c in exact]
    grid += [curve.mirrored() for curve in grid]
    assert [(curve, n) for curve in grid for n in FRACTION_SIZES
            if _deepest_cells(curve, n) != fit_by_fractions(curve, n)] == []



def test_one_table_serves_every_fit(monkeypatch):
    # each curve builds its segment table once, with the curve, and every fit
    # reads that table: fitting builds no other, and the fitted shapes equal
    # those of a copy of the curve that built its own
    exact = [flat_top_curve(), unit_square_curve(), boundary((4, 2)), boundary((6, 5, 3, 3, 1))]
    grid = exact + [LimitCurve.from_document({"breakpoints": c.breakpoints}) for c in exact[2:]]
    copies = [pickle.loads(pickle.dumps(curve)) for curve in grid]
    tables = [curve._segments for curve in grid]
    built = []
    segments = curves._Segments

    def counted(*fields):
        built.append(fields)
        return segments(*fields)

    monkeypatch.setattr(curves, "_Segments", counted)
    fits = [[_deepest_cells(curve, n) for n in range(1, 121)] for curve in grid]
    assert built == [] and all(c._segments is t for c, t in zip(grid, tables))
    assert all(c._segments is not t for c, t in zip(copies, tables))
    monkeypatch.undo()
    for curve, copy, fitted in zip(grid, copies, fits):
        assert fitted == [_deepest_cells(copy, n) for n in range(1, 121)], curve
