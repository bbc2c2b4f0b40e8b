from collections import Counter
from math import factorial

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npslab.complexity import exchange_stats, worst_case
from npslab.nps import (
    BijectionReport,
    HookTableau,
    Tableau,
    nps_sort,
    shape_ops,
    _ShapeOps,
    verify_bijection,
)
from npslab.sampling import _chunked_boards
from npslab.partitions import Partition, hook_product, partitions_of, syt_count


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


def test_is_standard():
    assert Tableau.parse("1,2;3").is_standard()
    assert not Tableau.parse("2,1;3").is_standard()
    assert not Tableau.parse("1,4;2,3").is_standard()
    assert Tableau.parse("1,3;2,4").is_standard()


def test_hook_tableau_bounds():
    shape = Partition([2, 1])
    HookTableau(shape, ((1, 0), (0,)))
    HookTableau(shape, ((-1, 0), (0,)))
    with pytest.raises(ValueError):
        HookTableau(shape, ((2, 0), (0,)))   # arm(1,1) = 1
    with pytest.raises(ValueError):
        HookTableau(shape, ((-2, 0), (0,)))  # leg(1,1) = 1


def test_hook_tableau_reads_each_column_height_once(monkeypatch):
    calls = []
    col = Partition.col
    monkeypatch.setattr(Partition, "col", lambda self, j: calls.append(j) or col(self, j))
    HookTableau(Partition([7] * 7), ((0,) * 7,) * 7)
    assert len(calls) <= 7


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


def _naive_sort(tableau):
    """Second, independent implementation of the sort: dict-based, literal
    locate/compare/exchange steps, with the same hook bookkeeping.  Used as
    an oracle for the array-based engine."""
    shape = tableau.shape
    cells = shape.cells()
    order = sorted(cells, key=lambda c: (c[1], c[0]), reverse=True)
    entries = {(i, j): tableau.entry(i, j) for (i, j) in cells}
    hooks = {c: 0 for c in cells}
    exchanges = 0
    for cell in order:
        value = entries[cell]
        pos = next(c for c, v in entries.items() if v == value)
        start = pos
        while True:
            i, j = pos
            neighbours = [c for c in ((i + 1, j), (i, j + 1)) if c in entries]
            if not neighbours:
                break
            smallest = min(entries[c] for c in neighbours)
            if value < smallest:
                break
            target = next(c for c in neighbours if entries[c] == smallest)
            entries[pos], entries[target] = smallest, value
            pos = target
            exchanges += 1
        (i0, j0), (i1, j1) = start, pos
        previous = dict(hooks)
        for s in range(i0, i1):
            hooks[(s, j0)] = previous[(s + 1, j0)] - 1
        hooks[(i1, j0)] = j1 - j0
    out_rows = tuple(tuple(entries[(i, j)] for j in range(1, shape.parts[i - 1] + 1))
                     for i in range(1, len(shape.parts) + 1))
    hook_rows = tuple(tuple(hooks[(i, j)] for j in range(1, shape.parts[i - 1] + 1))
                      for i in range(1, len(shape.parts) + 1))
    return exchanges, out_rows, hook_rows


def test_engine_matches_naive_implementation_exhaustively(tableaux):
    shapes = [s for n in range(1, 6) for s in partitions_of(n)]
    shapes += [Partition([3, 2, 1]), Partition([4, 2])]
    for shape in shapes:
        for tableau in tableaux(shape):
            outcome = nps_sort(tableau)
            exchanges, out_rows, hook_rows = _naive_sort(tableau)
            assert outcome.exchanges == exchanges, tableau
            assert outcome.output.rows == out_rows, tableau
            assert outcome.hooks.rows == hook_rows, tableau


@given(fillings())
@settings(max_examples=100, deadline=None)
def test_engine_matches_naive_implementation_randomly(tableau):
    outcome = nps_sort(tableau)
    exchanges, out_rows, hook_rows = _naive_sort(tableau)
    assert outcome.exchanges == exchanges
    assert outcome.output.rows == out_rows
    assert outcome.hooks.rows == hook_rows


def _kernel_mismatch(shape, fillings, sort_filling):
    """The first filling on which `sort_values`, run on one board that is
    never cleared, differs from the oracle in exchanges or final board;
    None when there is none."""
    ops = shape_ops(shape)
    board = ops.new_board()
    for values in fillings:
        count = ops.sort_values(board, values)
        if (count, board) != sort_filling(shape, values):
            return values
    return None


def test_sort_values_matches_swap_sort_on_every_small_filling(sort_filling):
    for n in range(0, 8):
        for shape in partitions_of(n):
            fillings = itertools.permutations(range(1, n + 1))
            assert _kernel_mismatch(shape, fillings, sort_filling) is None, shape


@pytest.mark.parametrize("parts", [(10,) * 10, (20,) * 20, (200,) + (1,) * 200],
                         ids=["10x10", "20x20", "hook-200"])
def test_sort_values_matches_swap_sort_on_seeded_fillings(parts, sort_filling):
    shape = Partition(parts)
    fillings = _chunked_boards(shape, 30, seed=5)
    assert _kernel_mismatch(shape, fillings, sort_filling) is None


def _east_first_sort_values(self, board, values):
    # moves East whenever the East neighbour is below the value, even when
    # the South neighbour is smaller still
    total = 0
    for c, v in zip(self.order, values):
        start = c
        while True:
            s, e = self.south[c], self.east[c]
            nxt = e if board[e] < v else s
            if board[nxt] > v:
                break
            board[c] = board[nxt]
            c = nxt
        board[c] = v
        total += self.depth[c] - self.depth[start]
    return total


def test_east_first_kernel_is_caught(monkeypatch, sort_filling):
    shape = Partition([2, 2])
    fillings = list(itertools.permutations(range(1, 5)))
    monkeypatch.setattr(_ShapeOps, "sort_values", _east_first_sort_values)
    assert _kernel_mismatch(shape, fillings, sort_filling) is not None


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


def _naive_report(shape, tableaux):
    """The bijection report built filling by filling from `_naive_sort`,
    with outputs and hooks flattened row by row."""
    pairs = set()
    tally = Counter()
    for tableau in tableaux(shape):
        _, out_rows, hook_rows = _naive_sort(tableau)
        key = (sum(out_rows, ()), sum(hook_rows, ()))
        pairs.add(key)
        tally[key[0]] += 1
    expected = factorial(shape.size)
    uniform = (len(tally) == syt_count(shape)
               and all(v == hook_product(shape) for v in tally.values()))
    return BijectionReport(shape, len(pairs), expected, len(pairs) == expected,
                           dict(tally), uniform)


def test_bijection_matches_naive_reports_up_to_6(tableaux):
    for n in range(0, 7):
        for shape in partitions_of(n):
            assert verify_bijection(shape) == _naive_report(shape, tableaux), shape


def test_bijection_matches_sift_walk_up_to_8(bijection_by_sifts):
    for n in range(0, 9):
        for shape in partitions_of(n):
            report = verify_bijection(shape)
            assert report == bijection_by_sifts(shape), shape
            assert all(len(key) == n for key in report.each_syt_count), shape


def _south_first_chain(self, board, start):
    # follows the South neighbour while there is one, whatever its value
    cells, ranks = [start], []
    c = start
    while True:
        c = self.south[c] if self.south[c] != self.n else self.east[c]
        ranks.append(board[c])
        if c == self.n:
            return cells, ranks
        cells.append(c)


_slide_chain = _ShapeOps.slide_chain


def _chain_ending_early(self, board, start):
    # drops the last cell of every chain longer than its start
    cells, ranks = _slide_chain(self, board, start)
    if len(cells) > 1:
        del cells[-1], ranks[-2]
    return cells, ranks


def test_wrong_sift_rule_is_caught(monkeypatch):
    shape = Partition([2, 2])
    assert exchange_stats(shape) == (44, 4)
    monkeypatch.setattr(_ShapeOps, "slide_chain", _south_first_chain)
    report = verify_bijection(shape)
    assert not report.injective and not report.uniform
    assert exchange_stats(shape) == (40, 4)


def test_chain_ending_early_is_caught(monkeypatch, plain_stats):
    shape = Partition([3, 2])
    expected = plain_stats(shape)
    assert exchange_stats(shape) == expected
    monkeypatch.setattr(_ShapeOps, "slide_chain", _chain_ending_early)
    report = verify_bijection(shape)
    assert not (report.injective and report.uniform)
    assert exchange_stats(shape) != expected
