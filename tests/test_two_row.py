from fractions import Fraction
from math import comb

import pytest

from npslab.complexity import average_case_bruteforce, average_case_chicago, worst_case
from npslab.partitions import Partition, harmonic, syt_count
from npslab.two_row import (
    _s0_fixed_distance,
    c_closed,
    c_double_sums,
    c_equal_rows,
    c_fixed_distance,
    s0_direct,
    s0_nested,
)


def test_s0_direct_examples():
    assert s0_direct(2, 1) == Fraction(-1, 3)
    assert s0_direct(1, 1) == Fraction(-1, 2)
    assert s0_direct(3, 0) == 0


def test_s0_direct_matches_termwise_sum(s0_termwise):
    for lam1 in range(1, 61):
        for lam2 in range(lam1 + 1):
            assert s0_direct(lam1, lam2) == s0_termwise(lam1, lam2), (lam1, lam2)
    assert s0_direct(1200, 600) == s0_termwise(1200, 600)


def test_c_double_sums_matches_termwise_sums(c_double_sums_termwise):
    for lam1 in range(1, 41):
        for lam2 in range(1, lam1 + 1):
            assert c_double_sums(lam1, lam2) == c_double_sums_termwise(lam1, lam2), (lam1, lam2)


def test_s0_nested_matches_termwise_sums(s0_nested_termwise):
    for lam1 in range(1, 61):
        for lam2 in range(1, lam1 + 1):
            assert s0_nested(lam1, lam2) == s0_nested_termwise(lam1, lam2), (lam1, lam2)


def test_fixed_distance_matches_termwise_sums(s0_fixed_distance_termwise):
    for lam2 in range(1, 31):
        for delta in range(31):
            expected = s0_fixed_distance_termwise(lam2, delta)
            assert _s0_fixed_distance(lam2, delta) == expected, (lam2, delta)
    with pytest.raises(ValueError):
        _s0_fixed_distance(1, -1)


def test_s0_dispatcher():
    with pytest.raises(ValueError):
        s0_nested(3, 0)


def test_s0_equal_rows_special_case():
    # -4^m / C(2m, m) + H_m / 2 + 1 agrees with the direct sum
    for m in range(1, 20):
        special = -Fraction(4**m, comb(2 * m, m)) + Fraction(harmonic(m), 2) + 1
        assert s0_direct(m, m) == special == s0_nested(m, m)


def test_c_closed_examples():
    assert c_closed(2, 1) == Fraction(2, 3)
    assert c_closed(1, 1) == Fraction(1, 2)
    assert c_closed(2, 2) == Fraction(11, 6)


def test_c_double_sums_examples():
    assert c_double_sums(2, 1) == Fraction(2, 3)
    assert c_double_sums(2, 2) == Fraction(11, 6)
    assert c_double_sums(3, 2) == average_case_bruteforce(Partition([3, 2]))
    with pytest.raises(ValueError):
        c_double_sums(3, 0)


def test_c_equal_rows_examples():
    assert c_equal_rows(1) == Fraction(1, 2)
    assert c_equal_rows(2) == Fraction(11, 6)
    assert c_equal_rows(3) == c_closed(3, 3)
    assert c_closed(3, 3) == average_case_bruteforce(Partition([3, 3]))
    with pytest.raises(ValueError):
        c_equal_rows(0)


def test_c_fixed_distance_examples():
    assert c_fixed_distance(1, 1) == Fraction(2, 3)
    assert c_fixed_distance(2, 0) == Fraction(11, 6)
    assert c_fixed_distance(2, 1) == c_closed(3, 2)
    with pytest.raises(ValueError):
        c_fixed_distance(0, 1)


def test_closed_equals_double_sums_small_grid():
    for lam1 in range(1, 13):
        for lam2 in range(1, lam1 + 1):
            assert c_closed(lam1, lam2) == c_double_sums(lam1, lam2), (lam1, lam2)


def test_closed_equals_harmonic_formula_up_to_size_60():
    # every shape of at most two rows and size <= 60, one-row shapes included: 960 shapes
    shapes = [(n - lam2, lam2) for n in range(1, 61) for lam2 in range(n // 2 + 1)]
    assert len(shapes) == 960
    for lam1, lam2 in shapes:
        shape = Partition([lam1, lam2] if lam2 else [lam1])
        assert c_closed(lam1, lam2) == average_case_chicago(shape), (lam1, lam2)


def test_syt_count_formula_validates():
    # the two-row grid is checked by test_two_row_binomial_count_grid
    assert syt_count(Partition([3, 2])) == 5
    assert syt_count(Partition([4])) == 1
    with pytest.raises(ValueError):
        c_closed(2, 3)


def test_imbalanced_ratio_tends_to_half():
    c = 5
    previous_gap = None
    for big in (100, 300, 1000):
        shape = Partition([big, c])
        ratio = c_closed(big, c) / worst_case(shape)
        gap = abs(ratio - Fraction(1, 2))
        if previous_gap is not None:
            assert gap < previous_gap
        previous_gap = gap
    assert gap < Fraction(1, 100)


def test_hypergeometric_identities_small():
    for m in range(1, 13):
        assert sum(Fraction(comb(i + m, i), 2**i) for i in range(1, m + 1)) == 2**m - 1
        plain = sum(Fraction(2**i, i * comb(i + m, i)) for i in range(1, m + 1))
        assert plain == Fraction(sum(Fraction(2**i, i) for i in range(1, m + 1)), 2**m)
