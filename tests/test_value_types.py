"""The package's value types, pinned: each repr against a literal, a pickle,
copy and deepcopy round trip, and the equality and hashing that callers key
tables by.  `BijectionReport`'s repr appears in `verify` failure text."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from npslab.curves import ScalingExponents, partition_boundary, unit_square_curve
from npslab.nps import HookTableau, Tableau, nps_sort, verify_bijection
from npslab.partitions import Partition
from npslab.sampling import SeededStream
from npslab.verify import CheckResult

_OUTCOME = ("NpsOutcome(output=Tableau('1,3;2'), hooks=HookTableau('1,0;0'), exchanges=1, "
            "trace=(EntryTrace(value=1, start=(1, 2), end=(1, 2), exchanges=0), "
            "EntryTrace(value=2, start=(2, 1), end=(2, 1), exchanges=0), "
            "EntryTrace(value=3, start=(1, 1), end=(1, 2), exchanges=1)))")

VALUES = [
    pytest.param(lambda: Partition([3, 1]), "Partition([3, 1])", id="partition"),
    pytest.param(lambda: Partition([]), "Partition([])", id="empty-partition"),
    pytest.param(lambda: Tableau.parse("1,3;2"), "Tableau('1,3;2')", id="tableau"),
    pytest.param(lambda: HookTableau(Partition([2, 1]), [[1, 0], [0]]), "HookTableau('1,0;0')",
                 id="hook-tableau"),
    pytest.param(lambda: nps_sort(Tableau.parse("3,1;2")), _OUTCOME, id="nps-outcome"),
    pytest.param(lambda: nps_sort(Tableau.parse("3,1;2")).trace[0],
                 "EntryTrace(value=1, start=(1, 2), end=(1, 2), exchanges=0)", id="entry-trace"),
    pytest.param(lambda: verify_bijection(Partition([2, 1])),
                 "BijectionReport(shape=Partition([2, 1]), distinct_pairs=6, expected=6, "
                 "injective=True, each_syt_count={(1, 3, 2): 3, (1, 2, 3): 3}, uniform=True)",
                 id="bijection-report"),
    pytest.param(ScalingExponents.balanced,
                 "ScalingExponents(alpha=Fraction(1, 2), beta=Fraction(1, 2))", id="balanced"),
    pytest.param(lambda: ScalingExponents.from_pq(1, "inf"),
                 "ScalingExponents(alpha=Fraction(1, 1), beta=Fraction(0, 1))", id="one-sided"),
    pytest.param(lambda: SeededStream(7), "SeededStream(seed=7, stream_id=0)", id="stream"),
    pytest.param(lambda: SeededStream(7, 3), "SeededStream(seed=7, stream_id=3)",
                 id="substream"),
    pytest.param(lambda: CheckResult("chicago", True, "ok", 0.25),
                 "CheckResult(name='chicago', ok=True, detail='ok', seconds=0.25)",
                 id="check-result"),
    pytest.param(unit_square_curve, "LimitCurve([(-1,1), (0,2), (1,1)], scale_sq=1/2)",
                 id="unit-square"),
    pytest.param(lambda: partition_boundary(Partition([2, 1]), 3),
                 "LimitCurve([(-2,2), (-1,3), (0,2), (1,3), (2,2)], scale_sq=1/6)",
                 id="boundary"),
]


@pytest.mark.parametrize("make, text", VALUES)
def test_repr_is_pinned(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make, text", VALUES)
def test_round_trips_keep_type_and_equality(make, text):
    value = make()
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is type(value) and repr(clone) == text
        if text.startswith("LimitCurve"):  # a curve is equal only to itself
            assert clone.same_curve(value) and clone.scale_sq == value.scale_sq
        else:
            assert clone == value


@pytest.mark.parametrize("parts", [(), (1,), (3, 1), (4, 4, 2, 1, 1, 1)])
def test_partition_hash_is_that_of_parts_and_size(parts):
    assert hash(Partition(parts)) == hash((parts, sum(parts)))


def test_fillings_of_two_types_are_not_equal():
    empty = Partition([])
    tableau, hooks = Tableau(empty, []), HookTableau(empty, [])
    assert tableau.rows == hooks.rows and tableau != hooks and hooks != tableau
    assert tableau == Tableau(empty, []) and hash(tableau) == hash(Tableau(empty, []))


def test_exponents_are_normalised_to_fractions():
    assert ScalingExponents(Fraction(1, 2), 0.5) == ScalingExponents.balanced()


def test_replace_keeps_the_exponents_check():
    with pytest.raises(ValueError, match="sum 1"):
        ScalingExponents.balanced()._replace(alpha=2)
    assert ScalingExponents.balanced()._replace(alpha=1, beta=0) == ScalingExponents(1, 0)


def test_package_import_loads_no_unused_modules():
    # -S keeps `site`, which can import `typing` on its own, out of the check
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import npslab, npslab.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing', 'numpy'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr + proc.stdout
