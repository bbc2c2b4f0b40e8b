"""The curve-file fitter: the partition of n made of the n cells deepest
below a limit curve in balanced scaling."""

import math

import pytest

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
