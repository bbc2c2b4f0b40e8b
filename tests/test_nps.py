from collections import Counter
from math import factorial

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npslab import nps, partitions
from npslab.complexity import worst_case
from npslab.nps import (
    BijectionReport,
    HookTableau,
    Tableau,
    _ShapeOps,
    nps_sort,
    shape_ops,
    sort_lanes,
    verify_bijection,
)
from npslab.sampling import _draw_blocks
from npslab.partitions import (Partition, SizeGuardError, hook_product, partitions_of,
                               syt_count)


def fillings():
    """Random (shape, filling) pairs for property tests."""

    def build(parts):
        shape = Partition(parts)
        return st.permutations(list(range(1, shape.size + 1))).map(
            lambda perm: _tableau_from_values(shape, perm))

    return st.integers(1, 7).flatmap(
        lambda n: st.sampled_from([p.parts for p in partitions_of(n)])).flatmap(build)


def _tableau_from_values(shape, values):
    rows = []
    k = 0
    for p in shape.parts:
        rows.append(values[k:k + p])
        k += p
    return Tableau(shape, rows)


# -- tableau types ---------------------------------------------------------


def test_tableau_parse_format_round_trip():
    t = Tableau.parse("4,2;3,1")
    assert t.shape.parts == (2, 2)
    assert t.entry(1, 1) == 4 and t.entry(2, 2) == 1
    assert Tableau.parse(t.format()) == t


def test_tableau_validation():
    with pytest.raises(ValueError):
        Tableau.parse("1,2;2")      # not a bijection
    with pytest.raises(ValueError):
        Tableau(Partition([2, 1]), ((1, 2, 3),))  # shape mismatch


@pytest.mark.parametrize("rows, entry", [([[1.9, 2]], "1.9 at (1,1)"), ([[1, 2.0]], "2.0 at (1,2)"),
                                         ([["1", 2]], "'1' at (1,1)")],
                         ids=["float", "integral-float", "string"])
def test_tableau_refuses_non_integral_entries_by_name(rows, entry):
    # int() would accept each of these as the filling 1,2
    with pytest.raises(ValueError, match=re.escape(f"entry {entry} is not an integer")):
        Tableau(Partition([2]), rows)


def test_is_standard():
    assert Tableau.parse("1,2;3").is_standard()
    assert not Tableau.parse("2,1;3").is_standard()
    assert not Tableau.parse("1,4;2,3").is_standard()
    assert Tableau.parse("1,3;2,4").is_standard()


def test_is_standard_matches_cell_by_cell_comparison():
    # every filling of every shape of size 5 or less, against each entry
    # compared with its right and lower neighbours where they exist
    def by_cells(rows):
        return all(v < right for row in rows for v, right in zip(row, row[1:])) and all(
            v < below for upper, lower in zip(rows, rows[1:]) for v, below in zip(upper, lower))

    for n in range(6):
        for shape in partitions_of(n):
            cuts = list(itertools.accumulate(shape.parts, initial=0))
            for perm in itertools.permutations(range(1, n + 1)):
                rows = [perm[a:b] for a, b in zip(cuts, cuts[1:])]
                assert Tableau(shape, rows).is_standard() == by_cells(rows), rows


def test_hook_tableau_bounds():
    shape = Partition([2, 1])
    HookTableau(shape, ((1, 0), (0,)))
    HookTableau(shape, ((-1, 0), (0,)))
    with pytest.raises(ValueError):
        HookTableau(shape, ((2, 0), (0,)))   # arm(1,1) = 1
    with pytest.raises(ValueError):
        HookTableau(shape, ((-2, 0), (0,)))  # leg(1,1) = 1


@pytest.mark.parametrize("rows, entry", [([[0.5, 0]], "0.5 at (1,1)"), ([[1, -0.0]], "-0.0 at (1,2)")],
                         ids=["float", "negative-zero"])
def test_hook_tableau_refuses_non_integral_entries_by_name(rows, entry):
    # int() would accept these as the hook rows 0,0 and 1,0
    with pytest.raises(ValueError, match=re.escape(f"entry {entry} is not an integer")):
        HookTableau(Partition([2]), rows)


def test_hook_tableau_reads_each_column_height_once(monkeypatch):
    # the range check reads the bounds of the shape's cached ops, whose one
    # build takes the column heights once for the processing order and once
    # for the arms and legs; no tableau of the shape takes them again
    calls = []
    original = partitions.conjugate
    monkeypatch.setattr(partitions, "conjugate", lambda shape: calls.append(shape) or original(shape))
    nps.shape_ops.cache_clear()
    for _ in range(3):
        HookTableau(Partition([7] * 7), ((0,) * 7,) * 7)
    assert len(calls) == 2


# -- hand-traced sorts ------------------------------------------------------

# Full table for the shape (2,1): every filling, its exchange count, output
# and the single free hook entry H(1,1); worked out by hand from the
# exchange rules.
TABLE_21 = [
    ("1,2;3", 0, "1,2;3", 0),
    ("1,3;2", 0, "1,3;2", 0),
    ("2,1;3", 1, "1,2;3", 1),
    ("2,3;1", 1, "1,3;2", -1),
    ("3,1;2", 1, "1,3;2", 1),
    ("3,2;1", 1, "1,2;3", -1),
]


@pytest.mark.parametrize("text,exchanges,output,h11", TABLE_21)
def test_shape_21_exhaustive_hand_trace(text, exchanges, output, h11):
    outcome = nps_sort(Tableau.parse(text))
    assert outcome.exchanges == exchanges
    assert outcome.output == Tableau.parse(output)
    assert outcome.hooks.entry(1, 1) == h11
    assert outcome.hooks.entry(1, 2) == 0 and outcome.hooks.entry(2, 1) == 0


def test_rectangle_worst_filling():
    # hand trace: 1 settles; 2 drops below 1; 3 slides right; 4 goes east
    # then south, ending at the corner
    outcome = nps_sort(Tableau.parse("4,2;3,1"))
    assert outcome.exchanges == 4
    assert outcome.output == Tableau.parse("1,3;2,4")
    assert outcome.hooks.rows == ((0, -1), (1, 0))
    assert outcome.trace[-1].start == (1, 1) and outcome.trace[-1].end == (2, 2)


def test_standard_input_is_fixed():
    for text in ("1,2;3", "1,2,3", "1;2;3", "1,3;2,4"):
        outcome = nps_sort(Tableau.parse(text))
        assert outcome.exchanges == 0
        assert outcome.output == Tableau.parse(text)
        assert all(v == 0 for row in outcome.hooks.rows for v in row)


@given(fillings())
@settings(max_examples=150, deadline=None)
def test_sort_properties(tableau):
    outcome = nps_sort(tableau)
    shape = tableau.shape
    # output is a standard filling with the same value multiset
    assert outcome.output.is_standard()
    assert sorted(v for row in outcome.output.rows for v in row) == \
        list(range(1, shape.size + 1))
    # hook bounds hold by construction of the HookTableau type; trace moves
    # are weakly South-East with exchange count equal to the displacement
    assert outcome.exchanges == sum(step.exchanges for step in outcome.trace)
    for step in outcome.trace:
        (i0, j0), (i1, j1) = step.start, step.end
        assert i1 >= i0 and j1 >= j0
        assert step.exchanges == (i1 - i0) + (j1 - j0)
    assert outcome.exchanges <= worst_case(shape)


def test_engine_matches_naive_implementation_exhaustively(tableaux, naive_sort):
    shapes = [s for n in range(1, 6) for s in partitions_of(n)]
    shapes += [Partition([3, 2, 1]), Partition([4, 2])]
    for shape in shapes:
        for tableau in tableaux(shape):
            outcome = nps_sort(tableau)
            exchanges, out_rows, hook_rows, trace = naive_sort(tableau)
            assert outcome.exchanges == exchanges, tableau
            assert outcome.output.rows == out_rows, tableau
            assert outcome.hooks.rows == hook_rows, tableau
            assert outcome.trace == trace, tableau


@given(fillings())
@settings(max_examples=100, deadline=None)
def test_engine_matches_naive_implementation_randomly(naive_sort, tableau):
    outcome = nps_sort(tableau)
    exchanges, out_rows, hook_rows, trace = naive_sort(tableau)
    assert outcome.exchanges == exchanges
    assert outcome.output.rows == out_rows
    assert outcome.hooks.rows == hook_rows
    assert outcome.trace == trace


def test_sort_values_matches_swap_sort_on_every_small_filling(kernel_mismatch):
    for n in range(0, 8):
        for shape in partitions_of(n):
            fillings = itertools.permutations(range(1, n + 1))
            assert kernel_mismatch(shape, fillings) is None, shape


@pytest.mark.parametrize("parts", [(10,) * 10, (20,) * 20, (200,) + (1,) * 200],
                         ids=["10x10", "20x20", "hook-200"])
def test_sort_values_matches_swap_sort_on_seeded_fillings(parts, kernel_mismatch):
    shape = Partition(parts)
    fillings = (row for block in _draw_blocks(shape, 30, seed=5) for row in block.tolist())
    assert kernel_mismatch(shape, fillings) is None


def _lanes_against_sort_values(shape, values):
    """Whether `sort_lanes` on the rows of `values` gives each row's count and
    board from `sort_values`, run draw by draw on one board."""
    ops = shape_ops(shape)
    counts, (boards,) = sort_lanes([(ops, len(values))], values)
    assert counts.shape == (len(values),) and boards.shape == (len(values), shape.size)
    board = ops.new_board()
    return all(ops.sort_values(board, row) == count and board[:shape.size] == sorted_board
               for row, count, sorted_board in zip(values.tolist(), counts.tolist(),
                                                   boards.tolist()))


def test_sort_lanes_matches_sort_values_up_to_8():
    # every filling up to size 6, 1,000 seeded draws of each shape of 7 and 8
    for n in range(0, 9):
        for shape in partitions_of(n):
            if n <= 6:
                values = np.array(list(itertools.permutations(range(1, n + 1))))
                values = values.reshape(factorial(n), n)
            else:
                values = np.concatenate(list(_draw_blocks(shape, 1_000, seed=n)))
            assert _lanes_against_sort_values(shape, values), shape


@pytest.mark.parametrize("parts", [(12,) * 12, (30,), (1,) * 30],
                         ids=["12x12", "row-30", "column-30"])
def test_sort_lanes_matches_sort_values_on_seeded_draws(parts):
    shape = Partition(parts)
    assert _lanes_against_sort_values(shape, np.concatenate(list(_draw_blocks(shape, 300, seed=3))))


def test_sort_lanes_sifts_every_shape_up_to_6_in_one_batch(mixed_lanes_mismatch):
    # every filling of every shape of size 1 to 6: 8,903 lanes of 29 shapes
    # in one call, in one frame of 7 x 7 entries
    groups = [(shape, itertools.permutations(range(1, n + 1)))
              for n in range(1, 7) for shape in partitions_of(n)]
    assert mixed_lanes_mismatch(groups) is None


def _unsorted(self, board, values, landed=None):
    """A kernel that writes each value where it starts."""
    for c, v in zip(self.order, values):
        board[c] = v
        if landed is not None:
            landed.append(c)
    return 0


def _sorted_with_2_for_3(self, board, values, landed=None):
    """The sort, then 3 replaced by 2: on (2,2) a board that rises along
    every row and column but holds 2 twice."""
    count = _SORT_VALUES(self, board, values, landed)
    board[board.index(3)] = 2
    return count


_SORT_VALUES = _ShapeOps.sort_values


@pytest.mark.parametrize("kernel, text", [(_unsorted, "2,1"), (_unsorted, "2,3;1"),
                                          (_sorted_with_2_for_3, "4,3;2,1"),
                                          (_sorted_with_2_for_3, "1,2;3,4")],
                         ids=["unsorted-row", "unsorted-column", "duplicate", "duplicate-standard"])
def test_nps_sort_refuses_a_faulty_kernel(monkeypatch, kernel, text):
    monkeypatch.setattr(_ShapeOps, "sort_values", kernel)
    with pytest.raises(AssertionError, match="sort produced a non-standard tableau from"):
        nps_sort(Tableau.parse(text))


# -- enumeration -------------------------------------------------------------


def test_enumerate_tableaux_counts(tableaux):
    assert len(set(tableaux(Partition([2, 1])))) == 6
    assert len(list(tableaux(Partition([1])))) == 1
    assert len(set(tableaux(Partition([2, 2])))) == 24


def test_enumerate_tableaux_order_is_deterministic(tableaux):
    first = next(iter(tableaux(Partition([2, 1]))))
    # lexicographically first value sequence 1,2,3 along cells (1,2),(2,1),(1,1)
    assert first == Tableau.parse("3,1;2")


def test_enumerate_hook_tableaux(hook_tableaux):
    assert len(list(hook_tableaux(Partition([2, 1])))) == 3
    only = list(hook_tableaux(Partition([1])))
    assert only == [HookTableau(Partition([1]), ((0,),))]
    twos = list(hook_tableaux(Partition([2, 2])))
    assert len(twos) == len(set(twos)) == 12


def test_hook_enumeration_matches_product(hook_tableaux):
    for n in range(1, 7):
        for shape in partitions_of(n):
            assert len(list(hook_tableaux(shape))) == hook_product(shape)


# -- bijection ---------------------------------------------------------------


def test_bijection_examples():
    report = verify_bijection(Partition([2, 1]))
    assert report.injective and report.uniform
    assert report.distinct_pairs == report.expected == 6
    assert sorted(report.each_syt_count.values()) == [3, 3]

    report = verify_bijection(Partition([1]))
    assert report.injective and report.distinct_pairs == 1

    report = verify_bijection(Partition([2, 2]))
    assert report.injective and report.uniform
    assert report.distinct_pairs == 24
    assert set(report.each_syt_count.values()) == {12}


def test_bijection_up_to_6():
    for n in range(1, 7):
        for shape in partitions_of(n):
            report = verify_bijection(shape)
            assert report.injective and report.uniform, shape
            assert len(report.each_syt_count) == syt_count(shape)


def test_bijection_outputs_are_standard(tableaux):
    # tally outputs of the full (2,2) run: exactly the 2 standard fillings
    outputs = Counter(nps_sort(t).output for t in tableaux(Partition([2, 2])))
    assert all(t.is_standard() for t in outputs)
    assert len(outputs) == 2


def _naive_report(shape, tableaux, naive_sort):
    """The bijection report built filling by filling from `naive_sort`,
    with outputs and hooks flattened row by row."""
    pairs = set()
    tally = Counter()
    for tableau in tableaux(shape):
        _, out_rows, hook_rows, _ = naive_sort(tableau)
        key = (sum(out_rows, ()), sum(hook_rows, ()))
        pairs.add(key)
        tally[key[0]] += 1
    expected = factorial(shape.size)
    uniform = (len(tally) == syt_count(shape)
               and all(v == hook_product(shape) for v in tally.values()))
    return BijectionReport(shape, len(pairs), expected, len(pairs) == expected,
                           dict(tally), uniform)


def test_bijection_matches_naive_reports_up_to_6(tableaux, naive_sort):
    for n in range(0, 7):
        for shape in partitions_of(n):
            assert verify_bijection(shape) == _naive_report(shape, tableaux, naive_sort), shape


def test_bijection_matches_sift_walk_up_to_8(bijection_by_sifts):
    for n in range(0, 9):
        for shape in partitions_of(n):
            report = verify_bijection(shape)
            assert report == bijection_by_sifts(shape), shape
            assert all(len(key) == n for key in report.each_syt_count), shape


def test_bijection_at_the_cutoff():
    # size 9, where the merge holds the most prefixes: 8! at the last level
    report = verify_bijection(Partition([3, 3, 3]))
    assert report.injective and report.uniform
    assert report.distinct_pairs == factorial(9)
    assert len(report.each_syt_count) == 42
    assert set(report.each_syt_count.values()) == {8640}


def test_bijection_sets_decode_to_the_nps_sort_pairs(bijection_pairs_mismatch):
    # 8,903 fillings: the certificate's pairs are those of `nps_sort`, so it
    # certifies the NPS hooks, not just some injective labelling
    for n in range(7):
        for shape in partitions_of(n):
            assert bijection_pairs_mismatch(shape) is None, shape


def test_bijection_budget_refuses_before_any_sift(monkeypatch):
    monkeypatch.setattr(nps, "MAX_BIJECTION_FILLINGS", 120)
    assert verify_bijection(Partition([4, 1])).injective  # 5! = 120, at the budget
    monkeypatch.setattr(nps, "_prefix_walk", None)  # a sift would call it
    message = "3,2,1 has 6! = 720 fillings, above the bijection budget of 120"
    with pytest.raises(SizeGuardError, match=re.escape(message)):
        verify_bijection(Partition([3, 2, 1]))


def test_sort_tables_of_the_last_128_shapes_are_kept():
    shape_ops.cache_clear()
    shapes = [shape for n in range(1, 13) for shape in partitions_of(n)][:200]
    for shape in shapes:
        nps_sort(_tableau_from_values(shape, range(shape.size, 0, -1)))
    assert shape_ops.cache_info().currsize == 128


def test_one_sort_table_per_shape():
    shape_ops.cache_clear()
    tableau = _tableau_from_values(Partition([3, 2, 2]), [7, 1, 5, 2, 6, 3, 4])
    for _ in range(1000):
        nps_sort(tableau)
    info = shape_ops.cache_info()
    assert (info.misses, info.hits) == (1, 999)
