"""Input guards and edge cases, each pinned by one row: a call and either the
value it returns or the exception it raises, message included."""

import re
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from npslab import sampling, two_row
from npslab.curves import LimitCurve, ScalingExponents, partition_boundary, unit_square_curve
from npslab.nps import HookTableau, Tableau, nps_sort, verify_bijection
from npslab.partitions import Partition, partitions_of
from npslab.sampling import SeededStream


def _boundary(shape, n, exponents=None):
    curve = partition_boundary(shape, n, exponents)
    return curve.scale_sq, curve.xs


def _uniformity_of_one_repeated_filling():
    """chi^2 of m = 50 draws of (3,2) that all sort to one standard filling:
    the other four classes, never observed, count m / 5 each."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampling, "_draw_blocks",
                      lambda shape, m, seed: iter([np.array([[5, 4, 3, 2, 1]] * m)]))
        return sampling.syt_uniformity_test(Partition([3, 2]), 50, 0)


def _refusals(obj, field):
    """Whether assigning to the field, assigning to a new name and deleting
    the field each raise AttributeError."""
    refused = []
    for attempt in (partial(setattr, obj, field, None), partial(setattr, obj, "extra", None),
                    partial(delattr, obj, field)):
        try:
            attempt()
            refused.append(False)
        except AttributeError:
            refused.append(True)
    return refused


TWO_ROW_REFUSALS = {(1, 2): "second part 2 exceeds first part 1",
                    (0, 0): "(0,0) is not a two-row shape"}

GUARDS = [
    pytest.param(lambda: list(partitions_of(-1)),
                 ValueError("cannot partition a negative integer"), id="partitions-of-negative"),
    pytest.param(lambda: Partition.parse(" \n"), Partition([]), id="parse-blank"),
    pytest.param(lambda: Partition(v for v in (2, 1.5)),
                 ValueError("part 1.5 is not an integer"), id="part-from-generator"),
    pytest.param(lambda: Tableau(Partition([2]), [[1, 2.5]]),
                 ValueError("entry 2.5 at (1,2) is not an integer"), id="entry-at-cell"),
    pytest.param(lambda: Tableau.from_rows(iter([[1, 3], [2]])),
                 Tableau.from_rows([[1, 3], [2]]), id="rows-from-iterator"),
    pytest.param(lambda: _boundary(Partition([]), 0), (Fraction(1), ()), id="empty-boundary"),
    pytest.param(lambda: _boundary(Partition([2, 1]), 3, ScalingExponents.from_pq(1, "inf")),
                 (Fraction(1, 2), tuple(map(Fraction, ("-2", "-5/3", "-2/3", "-1/3", "2/3")))),
                 id="one-sided-boundary"),
    pytest.param(lambda: _boundary(Partition([2, 1]), 3),
                 (Fraction(1, 6), tuple(map(Fraction, (-2, -1, 0, 1, 2)))),
                 id="balanced-boundary"),
    # its endpoints and slopes pass at the file tolerance 10^-9
    pytest.param(lambda: LimitCurve.from_document(
        {"breakpoints": [[-10, 10], [0, "-9/1000000000"], [10, 10]]}),
                 ValueError("curve dips below |x| at x=0"), id="file-curve-dips"),
    *(pytest.param(partial(f, *shape), ValueError(message), id=f"{f.__name__}{shape}")
      for f in (two_row.s0_direct, two_row.s0_nested, two_row.c_double_sums, two_row.c_closed)
      for shape, message in TWO_ROW_REFUSALS.items()),
    pytest.param(lambda: two_row.c_double_sums(3, 0),
                 ValueError("double-sum representation needs lam2 >= 1"), id="c_double_sums(3, 0)"),
    pytest.param(lambda: partition_boundary(Partition([4, 3, 1]), 8).to_document()
                 ["breakpoints"][0], ["-3/4", "3/4"], id="rational-scale-document"),
    pytest.param(lambda: LimitCurve([(-1, 1), (0, 2), (1, 1)]).same_curve(
        LimitCurve([(-1, 1), (0, 1), (1, 1)])), False, id="apex-not-merged"),
    pytest.param(lambda: _refusals(Partition([2, 1]), "parts"), [True] * 3,
                 id="assign-partition"),
    pytest.param(lambda: _refusals(Tableau.parse("1,2"), "rows"), [True] * 3,
                 id="assign-tableau"),
    pytest.param(lambda: _refusals(HookTableau(Partition([1]), [[0]]), "rows"), [True] * 3,
                 id="assign-hook-tableau"),
    pytest.param(lambda: _refusals(ScalingExponents.balanced(), "alpha"), [True] * 3,
                 id="assign-exponents"),
    pytest.param(lambda: _refusals(LimitCurve([]), "xs"), [True] * 3, id="assign-curve"),
    # a slot, not a property: a curve that refused only assignment let `del` empty it
    pytest.param(lambda: _refusals(unit_square_curve(), "scale"), [True] * 3,
                 id="assign-curve-slot"),
    pytest.param(lambda: _refusals(SeededStream(1), "seed"), [True] * 3, id="assign-stream"),
    pytest.param(lambda: _refusals(nps_sort(Tableau.parse("2,1")), "exchanges"), [True] * 3,
                 id="assign-outcome"),
    pytest.param(lambda: _refusals(verify_bijection(Partition([2])), "injective"), [True] * 3,
                 id="assign-bijection-report"),
    pytest.param(_uniformity_of_one_repeated_filling, ((50 - 10)**2 / 10 + 4 * 10, 4),
                 id="uniformity-unobserved-classes"),
]


@pytest.mark.parametrize("call, expected", GUARDS)
def test_guard(call, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=re.escape(str(expected)) or None):
            call()
    else:
        assert call() == expected
