"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Each criterion runs the shared checks of `npslab.verify` at values no smaller
than those of `verify --level full`.  Criterion 6, the Monte Carlo leg of
criterion 8 and the named equality shapes of criterion 10 are checked here
only.  The last test shows that every check reading the brute-force table
fails when the table is wrong.
"""

import re
from fractions import Fraction

import pytest

from npslab import verify
from npslab.complexity import (
    average_case_bruteforce,
    average_case_chicago,
    expected_hook_abs,
    max_case_bruteforce,
    worst_case,
)
from npslab.partitions import Partition
from npslab.sampling import estimate_avg_case
from npslab.two_row import c_closed, c_double_sums, c_equal_rows, c_fixed_distance
from npslab.verify import CN_LOWER_VALUE


def report(number, *results):
    """Print the criterion's line from its (ok, detail) results and assert."""
    ok = all(passed for passed, _ in results)
    detail = "; ".join(text for _, text in results)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_harmonic_formula_oracle(brute):
    report(1, verify.check_chicago(brute))


def test_criterion_02_worst_case(brute):
    report(2, verify.check_worst(brute), verify.check_witness_random(424242))


def test_criterion_03_bijectivity():
    report(3, verify.check_bijection(7))


def test_criterion_04_two_row_theorem(brute):
    report(4, verify.check_two_row_theorem(30, brute))


def test_criterion_05_representation_identities():
    report(5, verify.check_s0_representations(50, 25))


def test_criterion_06_specific_values():
    bad = []
    for parts, expected in (((2, 1), Fraction(2, 3)), ((2, 2), Fraction(11, 6)),
                            ((1, 1), Fraction(1, 2))):
        shape = Partition(parts)
        lam1, lam2 = parts
        values = {
            "brute": average_case_bruteforce(shape),
            "chicago": average_case_chicago(shape),
            "closed": c_closed(lam1, lam2),
            "double-sums": c_double_sums(lam1, lam2),
            "fixed-distance": c_fixed_distance(lam2, lam1 - lam2),
        }
        if lam1 == lam2:
            values["equal-rows"] = c_equal_rows(lam2)
        bad += [f"{name} gives {v} on {shape}" for name, v in values.items() if v != expected]
    for parts, expected in (((2, 2), 4), ((2, 1), 1)):
        shape = Partition(parts)
        if not worst_case(shape) == max_case_bruteforce(shape) == expected:
            bad.append(f"W({shape}) != {expected}")
    report(6, (not bad, "C((2,1)) = 2/3, C((2,2)) = 11/6, C((1,1)) = 1/2, W((2,2)) = 4, "
                        "W((2,1)) = 1 by every applicable route" + (f"; {bad}" if bad else "")))


def test_criterion_07_distance_integral_identity():
    report(7, verify.check_wn_identity(8), verify.check_square_family())


def test_criterion_08_average_lower_bound():
    below = []
    for m, samples in ((10, 400), (20, 200), (30, 120)):
        mean, stderr = estimate_avg_case(Partition((m,) * m), samples, seed=20260809)
        scale = (m * m)**1.5
        if mean / scale <= CN_LOWER_VALUE - 3 * stderr / scale:
            below.append(m * m)
    report(8, verify.check_cn_value(),
           (not below, "Monte Carlo averages for squares n=100,400,900 exceed it minus 3 stderr"
                       + (f"; not at n={below}" if below else "")))


def test_criterion_09_imbalanced_scaling():
    report(9, verify.check_cw_imbalanced())


def test_criterion_10_expected_hook_bound(brute):
    # The check finds equality exactly on the hook shapes (no 2x2 box), e.g.
    # both sides are 3/2 on (3,1); the smallest ones are named here too.
    named = [Partition(p) for p in ((2,), (1, 1), (2, 1))]
    missing = [s for s in named if average_case_bruteforce(s) != expected_hook_abs(s)]
    report(10, verify.check_eh_bound(brute),
           (not missing, "equality on (2), (1,1), (2,1)"
                         + (f"; not on {missing}" if missing else "")))


def test_criterion_11_conjugation_symmetry(brute):
    report(11, verify.check_conjugation(brute))


def test_criterion_12_sampler_uniformity():
    report(12, verify.check_uniformity((1, 2, 3, 4, 5)))


@pytest.mark.parametrize("check, field", [
    (verify.check_chicago, 0),
    (verify.check_worst, 1),
    (lambda table: verify.check_two_row_theorem(1, table), 0),
    (verify.check_eh_bound, 0),
    (verify.check_conjugation, 0),
], ids=["chicago", "worst", "two-row", "eh-bound", "conjugation"])
def test_check_fails_on_corrupted_brute_table(brute, check, field):
    shape = Partition([3, 1])
    stats = list(brute[shape])
    stats[field] += 1
    ok, detail = check({**brute, shape: tuple(stats)})
    assert not ok
    assert re.search(r"(?<![\d,])3,1(?!,?\d)", detail), detail
