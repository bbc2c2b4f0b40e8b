import math
from collections import Counter
from fractions import Fraction

import pytest

from npslab.complexity import worst_case
from npslab.nps import _ShapeOps, nps_sort
from npslab.partitions import Partition, syt_count
from npslab.sampling import (
    SeededStream,
    _chunked_boards,
    estimate_avg_case,
    random_tableau,
    syt_uniformity_test,
)


@pytest.mark.parametrize("parts, m", [
    ((1,), 5), ((), 3), ((3, 2), 1_025), ((7,) * 7, 1_500), ((20,) * 20, 700),
    ((100,) * 30, 520),
])
def test_block_draws_match_per_draw_permutations(parts, m, boards_per_draw):
    shape = Partition(parts)
    for seed in (0, 11):
        blocks = list(_chunked_boards(shape, m, seed))
        assert len(blocks) == m
        assert blocks == list(boards_per_draw(shape, m, seed))
        assert all(type(v) is int for v in blocks[0])


def test_reproducibility():
    shape = Partition([3, 2, 1])
    first = random_tableau(shape, SeededStream(987654321, 13))
    second = random_tableau(shape, SeededStream(987654321, 13))
    assert first == second
    assert random_tableau(Partition([1]), SeededStream(0, 0)).format() == "1"


def test_single_row_frequencies():
    # over many draws of the 2-cell shape each filling appears about half
    # the time
    shape = Partition([2])
    counts = Counter(random_tableau(shape, SeededStream(5, i)).format()
                     for i in range(20_000))
    assert set(counts) == {"1,2", "2,1"}
    assert abs(counts["1,2"] / 20_000 - 0.5) < 0.01


def test_estimate_close_to_exact():
    mean, stderr = estimate_avg_case(Partition([2, 1]), 100_000, seed=7)
    assert abs(mean - 2 / 3) <= 3 * stderr
    mean, stderr = estimate_avg_case(Partition([2, 2]), 100_000, seed=11)
    assert abs(mean - 11 / 6) <= 3 * stderr
    with pytest.raises(ValueError):
        estimate_avg_case(Partition([2, 1]), 1, seed=0)


def test_estimate_is_pure_function_of_inputs():
    shape = Partition([4, 3, 1])
    assert estimate_avg_case(shape, 5_000, seed=3) == estimate_avg_case(shape, 5_000, seed=3)
    assert estimate_avg_case(shape, 5_000, seed=3) != estimate_avg_case(shape, 5_000, seed=4)


def test_estimator_within_four_sigma_across_seeds():
    shape = Partition([2, 1])
    exact = float(Fraction(2, 3))
    hits = 0
    for seed in range(100):
        mean, stderr = estimate_avg_case(shape, 4_000, seed=seed)
        if abs(mean - exact) <= 4 * stderr:
            hits += 1
    assert hits >= 99


def test_samples_never_exceed_worst_case():
    shape = Partition([3, 2])
    cap = worst_case(shape)
    for i in range(500):
        outcome = nps_sort(random_tableau(shape, SeededStream(2, i)))
        assert outcome.exchanges <= cap


def test_uniformity_examples():
    chi2, dof = syt_uniformity_test(Partition([1]), 100, seed=0)
    assert (chi2, dof) == (0.0, 0)

    chi2, dof = syt_uniformity_test(Partition([2, 1]), 10_000, seed=9)
    assert dof == 1
    assert chi2 < 12.0  # far below any sane quantile for dof 1

    counts = Counter(
        nps_sort(random_tableau(Partition([2, 1]), SeededStream(9, i))).output.format()
        for i in range(10_000))
    assert set(counts) == {"1,2;3", "1,3;2"}
    for v in counts.values():
        assert abs(v - 5_000) < 300


def test_uniformity_preconditions():
    with pytest.raises(ValueError, match="draws"):
        syt_uniformity_test(Partition([3, 2]), 40, seed=0)
    big = Partition([12, 10, 8, 6, 4, 2])
    with pytest.raises(ValueError, match="tabulate"):
        syt_uniformity_test(big, 10**6, seed=0)


def _estimate_by_oracle(shape, m, seed, draws, sort_filling):
    """(mean, stderr) with the formula of `estimate_avg_case`, each draw
    sorted by the oracle."""
    counts = [sort_filling(shape, values)[0] for values in draws(shape, m, seed)]
    total = sum(counts)
    total_sq = sum(c * c for c in counts)
    variance = (total_sq - total * total / m) / (m - 1)
    return total / m, math.sqrt(max(variance, 0.0) / m)


def _uniformity_by_oracle(shape, m, seed, draws, sort_filling):
    """(chi_square, dof) with the formula of `syt_uniformity_test`, every
    draw sorted by the oracle and tallied in draw order."""
    n = shape.size
    count = syt_count(shape)
    tally = {}
    for values in draws(shape, m, seed):
        key = tuple(sort_filling(shape, values)[1][:n])
        tally[key] = tally.get(key, 0) + 1
    expected = m / count
    chi_square = sum((obs - expected) ** 2 for obs in tally.values()) / expected
    chi_square += (count - len(tally)) * expected
    return chi_square, count - 1


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("parts, m", [((3, 2), 60), ((3, 2), 2_000), ((3, 2, 1), 300),
                                      ((3, 2, 1), 3_000), ((4, 3, 1), 700)])
def test_monte_carlo_equals_oracle_loop(parts, m, seed, boards_per_draw, sort_filling,
                                        monkeypatch):
    shape = Partition(parts)
    expected = (_estimate_by_oracle(shape, m, seed, boards_per_draw, sort_filling),
                _uniformity_by_oracle(shape, m, seed, boards_per_draw, sort_filling))
    sorts = []
    sort_values = _ShapeOps.sort_values

    def counted(self, board, values):
        sorts.append(tuple(values))
        return sort_values(self, board, values)

    monkeypatch.setattr(_ShapeOps, "sort_values", counted)
    assert estimate_avg_case(shape, m, seed) == expected[0]
    assert len(sorts) == m
    del sorts[:]
    assert syt_uniformity_test(shape, m, seed) == expected[1]
    # with n! <= m each distinct filling is sorted once
    memo = math.factorial(shape.size) <= m
    assert len(sorts) == (len(set(sorts)) if memo else m)
