from fractions import Fraction

import pytest

from npslab.complexity import (
    average_case_bruteforce,
    average_case_chicago,
    exchange_stats,
    expected_hook_abs,
    f_fixed_entry,
    max_case_bruteforce,
    w_distance,
    worst_case,
    worst_case_witness,
)
from npslab.nps import nps_sort
from npslab.partitions import Partition, harmonic, partitions_of, subpartitions, syt_count

FIG_SHAPE = Partition([4, 4, 2, 1, 1, 1])


def test_w_distance_examples():
    assert w_distance(FIG_SHAPE, (1, 1)) == 5
    for corner in FIG_SHAPE.corners():
        assert w_distance(FIG_SHAPE, corner) == 0
    assert w_distance(Partition([3, 2]), (1, 2)) == 1
    with pytest.raises(ValueError):
        w_distance(Partition([2, 1]), (2, 2))


def test_worst_case_examples():
    assert worst_case(Partition([2, 2])) == 4
    assert worst_case(Partition([1])) == 0
    assert worst_case(Partition([2, 1])) == 1 == max_case_bruteforce(Partition([2, 1]))


def test_witness_examples():
    witness = worst_case_witness(Partition([2, 2]))
    assert witness.format() == "4,2;3,1"
    assert nps_sort(witness).exchanges == 4

    assert worst_case_witness(Partition([1])).format() == "1"
    assert nps_sort(worst_case_witness(Partition([2, 1]))).exchanges == 1
    with pytest.raises(ValueError):
        worst_case_witness(Partition([]))


def test_witness_on_assorted_shapes():
    for parts in [(3, 1, 1), (4, 2, 1), (5, 5, 2), (6, 3, 3, 1), (7, 1), (2, 2, 2, 2),
                  (9, 6, 4, 4, 1), (10, 10, 5)]:
        shape = Partition(parts)
        witness = worst_case_witness(shape)
        assert nps_sort(witness).exchanges == worst_case(shape)


def test_average_examples():
    assert average_case_bruteforce(Partition([2, 1])) == Fraction(2, 3)
    assert average_case_bruteforce(Partition([1])) == 0
    assert average_case_bruteforce(Partition([2])) == Fraction(1, 2)
    with pytest.raises(ValueError, match="cutoff"):
        average_case_bruteforce(Partition([5, 5]))


def test_exchange_stats_matches_plain_enumeration_up_to_8(plain_stats):
    for n in range(0, 9):
        for shape in partitions_of(n):
            assert exchange_stats(shape) == plain_stats(shape), shape


def test_bruteforce_matches_exact_routes_at_sizes_9_and_10():
    shapes = [s for n in (9, 10) for s in partitions_of(n)]
    assert len(shapes) == 72
    for shape in shapes:
        assert average_case_bruteforce(shape, cutoff=10) == average_case_chicago(shape), shape
        assert max_case_bruteforce(shape, cutoff=10) == worst_case(shape), shape


def test_expected_hook_abs_examples():
    assert expected_hook_abs(Partition([2, 2])) == Fraction(5, 3)
    assert expected_hook_abs(Partition([1])) == 0
    assert expected_hook_abs(Partition([2, 1])) == Fraction(2, 3)


def test_expected_hook_abs_is_exact_mean_over_hook_tableaux(hook_tableaux):
    for parts in [(2, 1), (2, 2), (3, 1), (3, 2), (2, 2, 1)]:
        shape = Partition(parts)
        tableaux = list(hook_tableaux(shape))
        mean = Fraction(sum(abs(v) for h in tableaux for row in h.rows for v in row),
                        len(tableaux))
        assert expected_hook_abs(shape) == mean, shape


def test_f_fixed_entry_examples():
    assert f_fixed_entry(Partition([2, 1]), (1, 2), 2) == 1
    assert f_fixed_entry(Partition([3, 2]), (1, 1), 1) == syt_count(Partition([3, 2]))
    assert f_fixed_entry(Partition([2, 1]), (1, 1), 2) == 0
    with pytest.raises(ValueError):
        f_fixed_entry(Partition([2, 1]), (2, 2), 1)
    with pytest.raises(ValueError):
        f_fixed_entry(Partition([2, 1]), (1, 1), 4)


def test_f_fixed_entry_normalization():
    for parts in [(2, 1), (3, 2), (2, 2, 1), (4, 1)]:
        shape = Partition(parts)
        for cell in shape.cells():
            total = sum(f_fixed_entry(shape, cell, k) for k in range(1, shape.size + 1))
            assert total == syt_count(shape), (shape, cell)


def _remove_corner(mu, i):
    """mu with the last cell of row i removed."""
    parts = list(mu.parts)
    parts[i - 1] -= 1
    return Partition(p for p in parts if p)


def _f_fixed_entry_by_determinant(shape, cell, k, aitken):
    i, j = cell
    return sum(syt_count(_remove_corner(mu, i)) * aitken(shape, mu)
               for mu in subpartitions(shape)
               if mu.size == k and mu.row(i) == j and mu.row(i + 1) < j)


def test_f_fixed_entry_matches_determinant_route_up_to_6(aitken):
    for n in range(1, 7):
        for shape in partitions_of(n):
            for cell in shape.cells():
                for k in range(1, n + 1):
                    expected = _f_fixed_entry_by_determinant(shape, cell, k, aitken)
                    assert f_fixed_entry(shape, cell, k) == expected, (shape, cell, k)


def test_f_fixed_entry_two_row_support_windows():
    # nonzero exactly on {j..2j-1} for first-row cells with j <= lam2, on
    # {j..lam2+j} for the remaining first-row cells, and on {2j..lam1+j} for
    # second-row cells
    lam1, lam2 = 4, 2
    shape = Partition([lam1, lam2])
    n = lam1 + lam2
    for j in range(1, lam1 + 1):
        if j <= lam2:
            support = set(range(j, 2 * j))
        else:
            support = set(range(j, lam2 + j + 1))
        got = {k for k in range(1, n + 1) if f_fixed_entry(shape, (1, j), k) > 0}
        assert got == support, (1, j)
    for j in range(1, lam2 + 1):
        support = set(range(2 * j, lam1 + j + 1))
        got = {k for k in range(1, n + 1) if f_fixed_entry(shape, (2, j), k) > 0}
        assert got == support, (2, j)


def test_chicago_small_values():
    assert average_case_chicago(Partition([2, 1])) == Fraction(2, 3)
    assert average_case_chicago(Partition([1])) == 0
    assert average_case_chicago(Partition([2, 2])) == Fraction(11, 6)


def _chicago_by_determinant(shape, aitken):
    """The harmonic-number formula with each skew count f^(shape/mu) from the
    Aitken determinant and each f^(mu - x) from the hook-length formula."""
    n = shape.size
    total = Fraction(0)
    for mu in subpartitions(shape):
        weight = harmonic(n) - harmonic(n - mu.size) - 1
        skew = aitken(shape, mu)
        for (i, j) in mu.corners():
            total += (i + j - 2) * syt_count(_remove_corner(mu, i)) * skew * weight
    return total / syt_count(shape)


@pytest.mark.parametrize("parts", [(6,) * 6, (6, 5, 4, 3, 2, 1)], ids=["6x6", "staircase-6"])
def test_chicago_matches_determinant_route_beyond_brute_force(parts, aitken):
    shape = Partition(parts)
    assert average_case_chicago(shape) == _chicago_by_determinant(shape, aitken)


def test_subdiagram_guard_refuses_before_enumerating(monkeypatch):
    def no_enumeration(shape):
        raise AssertionError(f"enumerated the subdiagrams of {shape}")

    monkeypatch.setattr("npslab.partitions.subpartitions", no_enumeration)
    square = Partition((12,) * 12)
    with pytest.raises(ValueError, match="2704156 subdiagrams, exceeding the limit 1000000"):
        average_case_chicago(square)
    with pytest.raises(ValueError, match="2704156 subdiagrams"):
        f_fixed_entry(square, (1, 1), 1)
