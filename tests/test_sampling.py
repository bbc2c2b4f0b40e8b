import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from npslab import sampling
from npslab.complexity import worst_case
from npslab.curves import _deepest_cells, partition_boundary
from npslab.nps import _ShapeOps, nps_sort, shape_ops
from npslab.partitions import Partition, syt_count
from npslab.sampling import (
    SeededStream,
    _draw_blocks,
    estimate_avg_case,
    estimate_avg_cases,
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
        blocks = [row for block in _draw_blocks(shape, m, seed) for row in block.tolist()]
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
@pytest.mark.parametrize("parts, m", [
    ((3, 2), 60), ((3, 2), 2_000), ((3, 2, 1), 300), ((3, 2, 1), 3_000), ((4, 3, 1), 700),
    # above the lane floor with n! > m: the plain uniformity path on lanes
    ((4, 3, 1), 1_500),
    # one row, one column and a hook, below and above the floor
    ((7,), 300), ((7,), 1_200), ((1,) * 7, 1_200), ((4, 1, 1, 1), 500), ((4, 1, 1, 1), 1_200),
])
def test_monte_carlo_equals_oracle_loop(parts, m, seed, boards_per_draw, sort_filling,
                                        monkeypatch):
    shape = Partition(parts)
    expected = (_estimate_by_oracle(shape, m, seed, boards_per_draw, sort_filling),
                _uniformity_by_oracle(shape, m, seed, boards_per_draw, sort_filling))
    sorts = []
    sort_values = _ShapeOps.sort_values
    sort_lanes = sampling.sort_lanes

    def counted(self, board, values):
        sorts.append(tuple(values))
        return sort_values(self, board, values)

    def counted_lanes(groups, values):
        sorts.extend(map(tuple, values[:, :shape.size].tolist()))
        return sort_lanes(groups, values)

    monkeypatch.setattr(_ShapeOps, "sort_values", counted)
    monkeypatch.setattr(sampling, "sort_lanes", counted_lanes)
    assert estimate_avg_case(shape, m, seed) == expected[0]
    assert len(sorts) == m
    del sorts[:]
    assert syt_uniformity_test(shape, m, seed) == expected[1]
    # with n! <= m each distinct filling is sorted once
    memo = math.factorial(shape.size) <= m
    assert len(sorts) == (len(set(sorts)) if memo else m)


def _tally_cases():
    """(shape, m, seed): the least m the test admits, and m below and above
    n! where the shape has both, at three seeds; one run of (3,2) spans
    several merges of the coded tally."""
    cases = []
    for parts in [(1,), (2, 1), (3, 1), (2, 2), (3, 2), (2, 2, 1), (4, 3)]:
        shape = Partition(parts)
        least, fillings = 10 * syt_count(shape), math.factorial(shape.size)
        for m in sorted({least, max(least, fillings - 1), max(least, fillings), 3 * fillings + 7}):
            cases += [(shape, m, seed) for seed in (0, 1, 7)]
    cases.append((Partition([3, 2]), 2 * sampling._TALLY_CODES + 5_000, 3))
    return cases


def test_uniformity_equals_counter_tally(uniformity_by_counter):
    cases = _tally_cases()
    assert {math.factorial(s.size) <= m for s, m, _ in cases} == {True, False}
    for shape, m, seed in cases:
        chi2, dof = syt_uniformity_test(shape, m, seed)
        want, want_dof = uniformity_by_counter(shape, m, seed)
        assert (chi2.hex(), dof) == (want.hex(), want_dof), (shape, m, seed)


def test_draw_codes_fit_int64(monkeypatch):
    # a filling of size n is coded as sum_k v_k (n + 1)^k with 1 <= v_k <= n,
    # so its code is at most (n + 1)^n - 1
    top = np.iinfo(np.int64).max
    n = sampling._CODED_SIZE
    assert (n + 1) ** n - 1 <= top < (n + 2) ** (n + 1) - 1
    values = np.arange(1, n + 1, dtype=np.int64)  # the largest code of a filling of size n
    powers = (n + 1) ** np.arange(n, dtype=np.int64)
    assert int(values @ powers) == sum(v * (n + 1) ** k for k, v in enumerate(range(1, n + 1)))
    # a size above _CODED_SIZE is tallied draw by draw, whatever m is
    shape = Partition([3, 2])
    coded = syt_uniformity_test(shape, 200, 1)
    monkeypatch.setattr(sampling, "_CODED_SIZE", 4)
    monkeypatch.setattr(sampling, "_distinct_draws", None)
    assert syt_uniformity_test(shape, 200, 1) == coded


def _outputs_by_hex(shape, m, seed):
    """`estimate_avg_case` and, where the shape admits it, the chi-square of
    `syt_uniformity_test`, each float by its `float.hex`."""
    outputs = [x.hex() for x in estimate_avg_case(shape, m, seed)]
    if syt_count(shape) <= 10**4 and m >= 10 * syt_count(shape):
        chi2, dof = syt_uniformity_test(shape, m, seed)
        outputs += [chi2.hex(), dof]
    return outputs


@pytest.mark.parametrize("lanes", [None, 3], ids=["one-batch", "batches-of-3"])
@pytest.mark.parametrize("parts, m, seed", [
    ((2, 1), 2, 0), ((2, 1), 3, 1), ((5,), 50, 2), ((1,) * 6, 100, 3), ((4, 3, 1), 700, 4),
    ((3, 3, 2), 2_000, 5), ((4, 1, 1, 1), 999, 6), ((7,) * 7, 300, 7), ((12,) * 12, 40, 8),
    ((), 5, 9),
    # boards of two-byte entries: a square, and a shape whose draws still
    # take one byte (n = 254, sentinel 256); and a long one-byte row
    ((20,) * 20, 7, 10), ((16,) * 15 + (14,), 5, 11), ((200,), 4, 12),
])
def test_lane_and_scalar_sifts_give_identical_outputs(parts, m, seed, lanes, monkeypatch):
    # the floor at 2 sends every run to the lanes, at m + 1 to `sort_values`;
    # a budget of three padded boards cuts the run into batches of three
    shape = Partition(parts)
    if lanes:
        board_entries = (len(parts) + 1) * ((parts[0] if parts else 0) + 1)
        board_bytes = board_entries * np.min_scalar_type(shape.size + 2).itemsize
        monkeypatch.setattr(sampling, "_LANE_BYTES", lanes * board_bytes)
    outputs = []
    for floor in (2, m + 1):
        monkeypatch.setattr(sampling, "_MIN_LANES", floor)
        outputs.append(_outputs_by_hex(shape, m, seed))
    assert outputs[0] == outputs[1]


def test_lane_path_is_taken_by_the_floor_and_the_entry_budget(monkeypatch):
    # the floor counts the draws of every shape of a call (`_MIN_LANES`), the
    # budget the bytes of the padded frames (`_LANE_BYTES`), one frame that
    # fits every shape of the call; both sifts stubbed to count 0: the test
    # reads only which one each run takes and how the lanes cut it into
    # batches
    batches, scalar = [], []

    def counted_lanes(groups, values):
        batches.append(len(values))
        return np.zeros(len(values), dtype=np.int64), [None] * len(groups)

    def counted_values(self, board, values):
        scalar.append(values)
        return 0

    monkeypatch.setattr(sampling, "sort_lanes", counted_lanes)
    monkeypatch.setattr(_ShapeOps, "sort_values", counted_values)

    def sifts(shapes, m):
        del batches[:], scalar[:]
        estimate_avg_cases([Partition(parts) for parts in shapes], m, 0)
        return batches, len(scalar)

    floor = sampling._MIN_LANES
    assert floor == 512
    assert sifts([[4, 3, 1]], floor - 1) == ([], floor - 1)
    assert sifts([[4, 3, 1]], floor) == ([floor], 0)
    # 200 draws of each of the staircases 6..1 to 9..1, the Monte Carlo rows
    # of a sweep of 1..45 at --exact-limit 20, make one batch of 800 lanes;
    # two shapes of 255 draws stay below the floor
    staircases = [list(range(k, 0, -1)) for k in range(6, 10)]
    assert sifts(staircases, 200) == ([800], 0)
    assert sifts([[4, 3, 1], [3, 3, 1]], 255) == ([], 510)
    # 16x16 fills 17 x 17 entries of two bytes, (200) 2 x 201 of one byte
    assert sifts([[16] * 16], floor) == ([floor], 0)
    assert sifts([[200]], floor) == ([floor], 0)
    # 63x63: 64 x 64 two-byte entries, so 2^22 bytes hold 512 frames
    assert sifts([[63] * 63], floor + 1) == ([floor, 1], 0)
    # 64x64: 512 frames of 65 x 65 two-byte entries exceed 2^22 bytes
    assert sifts([[64] * 64], floor) == ([], floor)
    # (200) and (1^200) each fit, but their common frame of 201 x 201 entries
    # holds 103 to a batch
    assert sifts([[200], [1] * 200], floor) == ([], 2 * floor)
    # small frames: batches of at most 8,192 lanes, across shapes
    assert sifts([[3, 2]], 8_193) == ([8_192, 1], 0)
    assert sifts([[3, 2], [2, 2]], 5_000) == ([8_192, 1_808], 0)


def _mixed_shapes():
    """Frames of different widths and heights: 5x5, the staircase 7..1,
    (12,1), (2,1^8) and the fit of the (4,2) boundary at n = 40."""
    fit = _deepest_cells(partition_boundary(Partition((4, 2)), 6), 40)
    return [Partition((5,) * 5), Partition(range(7, 0, -1)), Partition((12, 1)),
            Partition((2,) + (1,) * 8), fit]


@pytest.mark.parametrize("frames", [None, 100], ids=["one-batch", "batches-of-100"])
def test_mixed_batch_equals_the_scalar_sift_per_shape(frames, monkeypatch):
    shapes, m, seed = _mixed_shapes(), 120, 6  # 600 lanes in all, above the floor
    assert len({(len(s.parts), s.row(1)) for s in shapes}) == len({s.size for s in shapes}) == 5
    want = []  # per shape, the count and sorted board of each draw by `sort_values`
    for shape in shapes:
        ops = shape_ops(shape)
        board = ops.new_board()
        want.append([(ops.sort_values(board, values), board[:shape.size])
                     for block in _draw_blocks(shape, m, seed) for values in block.tolist()])
    monkeypatch.setattr(sampling, "_MIN_LANES", 10**9)
    scalar = [[x.hex() for x in estimate_avg_case(shape, m, seed)] for shape in shapes]
    monkeypatch.undo()

    got, batches = [[] for _ in shapes], []
    sort_lanes = sampling.sort_lanes

    def recorded(groups, values):
        counts, boards = sort_lanes(groups, values)
        batches.append(len(values))
        lanes = iter(counts.tolist())
        for (ops, _), sorted_boards in zip(groups, boards):
            got[shapes.index(ops.shape)] += [(next(lanes), b) for b in sorted_boards.tolist()]
        return counts, boards

    monkeypatch.setattr(sampling, "sort_lanes", recorded)
    if frames:
        frame = (max(len(s.parts) for s in shapes) + 1) * (max(s.row(1) for s in shapes) + 1)
        monkeypatch.setattr(sampling, "_LANE_BYTES", frames * frame)  # one byte an entry
        monkeypatch.setattr(sampling, "_MIN_LANES", frames)
    estimates = [[x.hex() for x in pair] for pair in estimate_avg_cases(shapes, m, seed)]
    assert batches == ([frames] * 6 if frames else [600])
    assert got == want
    assert estimates == scalar


def test_sample_output_of_7x7_is_pinned(capsys):
    from npslab.cli import main
    assert main(["sample", "--shape", "7,7,7,7,7,7,7", "--draws", "5600", "--seed", "1"]) == 0
    assert capsys.readouterr().out == "mean=118.1625 stderr=0.166434630458\n"


def test_draw_budget_refuses_by_name_before_any_draw(monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew before the budget check")

    monkeypatch.setattr(sampling, "MAX_DRAW_ENTRIES", 1_000)
    monkeypatch.setattr(sampling, "_draw_blocks", no_draws)
    shape = Partition([3, 2])
    for run in (estimate_avg_case, syt_uniformity_test):
        with pytest.raises(sampling.SizeGuardError, match="MAX_DRAW_ENTRIES = 1000"):
            run(shape, 201, 0)
    monkeypatch.undo()
    monkeypatch.setattr(sampling, "MAX_DRAW_ENTRIES", 1_000)
    estimate_avg_case(shape, 200, 0)  # 200 draws of 5 cells: at the budget
    syt_uniformity_test(shape, 200, 0)


def test_draw_budget_admits_every_readme_and_benchmark_run():
    # the benchmark's 7x7 estimate and (3,2) uniformity run, the README and
    # `verify` uniformity runs and a sweep row of 200 draws of 100 cells
    for m, cells in [(5_600, 49), (14_000, 5), (10_000, 5), (50_000, 5), (200, 100)]:
        assert m * cells <= sampling.MAX_DRAW_ENTRIES
