import functools
import heapq
import itertools
import json
import math
import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from npslab.complexity import WitnessConstructionError, _w_table, worst_case
from npslab import curves, nps, sampling
from npslab.curves import (LimitCurve, ScalingExponents, hook_coordinates, hook_distances,
                           partition_boundary)
from npslab.integrals import _true_units
from npslab.nps import BijectionReport, HookTableau, Tableau, shape_ops
from npslab.partitions import (
    Partition,
    _chain_counts,
    conjugate,
    hook_product,
    partitions_of,
    syt_count,
)
from npslab.sampling import CHUNK, SeededStream
from npslab.two_row import validate_two_row
from npslab.verify import brute_table


@pytest.fixture(scope="session")
def brute():
    """Exchange-count (sum, max) for every shape of size 1..8, built once."""
    return brute_table(8)


def _subpartitions(shape):
    """All partitions contained in the diagram of `shape`, the empty one
    included, in lexicographic order of parts."""

    def rec(idx, prev):
        yield ()
        if idx >= len(shape.parts):
            return
        for m in range(1, min(shape.parts[idx], prev) + 1):
            for rest in rec(idx + 1, m):
                yield (m,) + rest

    for parts in rec(0, shape.parts[0] if shape.parts else 0):
        yield Partition(parts)


@pytest.fixture(scope="session")
def subpartitions():
    """The subdiagrams of a shape as Partitions, by recursion over the rows:
    an oracle for the integer-coded walk of `partitions._subdiagrams`."""
    return _subpartitions


def _w_by_corners(shape):
    """w at every cell, as the maximum over the corners weakly South-East of
    the cell of their Manhattan distance from it."""
    corners = shape.corners()
    return {(i, j): max(ci - i + cj - j for ci, cj in corners if ci >= i and cj >= j)
            for i in range(1, len(shape.parts) + 1)
            for j in range(1, shape.parts[i - 1] + 1)}


@pytest.fixture(scope="session")
def w_by_corners():
    """The South-East distance w of every cell by a maximum over the corners:
    an oracle for the recurrence that `complexity.worst_case` sums."""
    return _w_by_corners


_HARMONIC_SUMS = [Fraction(0)]


def _harmonic_sum(m):
    """H_m as a running sum of Fractions, sharing no code with `partitions`.
    The sums are kept: the oracles ask for every m up to 1,500 many times."""
    while len(_HARMONIC_SUMS) <= m:
        _HARMONIC_SUMS.append(_HARMONIC_SUMS[-1] + Fraction(1, len(_HARMONIC_SUMS)))
    return _HARMONIC_SUMS[m]


@pytest.fixture(scope="session")
def harmonic_sum():
    """H_m summed term by term in Fractions: an oracle for `harmonic` and for
    the integers D H_m of `partitions._harmonic_numerators`."""
    return _harmonic_sum


def _chicago_by_fractions(shape):
    """The harmonic formula as a per-size sum of Fractions: a separate pass
    over the corners of every subdiagram, with the chain counts of
    `partitions._chain_counts`, weighted by H_n - H_(n-k) - 1 from
    `_harmonic_sum`."""
    n = shape.size
    if n == 0:
        return Fraction(0)
    (codes, sizes, corners), up, down, _ = _chain_counts(shape)
    numerators = [0] * (n + 1)
    for code, size, mu_corners in zip(codes, sizes, corners):
        weighted = 0
        for i, j, step in mu_corners:
            weighted += (i + j - 2) * up[code - step]
        numerators[size] += weighted * down[code]
    h_n = _harmonic_sum(n)
    total = sum((numer * (h_n - _harmonic_sum(n - k) - 1)
                 for k, numer in enumerate(numerators) if numer), Fraction(0))
    return total / up[codes[-1]]


@pytest.fixture(scope="session")
def chicago_by_fractions():
    """The harmonic formula summed in Fractions in a pass of its own: an
    oracle for the integer numerator that `average_case_chicago` collects in
    the downward chain-count pass."""
    return _chicago_by_fractions


def _witness_by_cells(shape):
    """The worst-case witness built on a dict of cells: anchors by a sort of
    the cells keyed by (-hook, column, row), each rectangle listed cell by
    cell in processing order, then checked against `worst_case`."""
    if not shape.parts:
        raise ValueError("cannot build a witness for the empty shape")
    heights = conjugate(shape).parts
    hooks = {(i, j): p - j + heights[j - 1] - i + 1
             for i, p in enumerate(shape.parts, start=1) for j in range(1, p + 1)}
    w = _w_table(shape)
    values = {}
    corners = shape.corners()
    for anchor in sorted(hooks, key=lambda c: (-hooks[c], c[1], c[0])):
        if anchor in values:
            continue
        ai, aj = anchor
        dist = w[ai - 1][aj - 1]
        choices = sorted(
            (c for c in corners
             if c[0] >= ai and c[1] >= aj and (c[0] - ai) + (c[1] - aj) == dist),
            key=lambda c: c[0],
        )
        rect = None
        for ci, cj in choices:
            # processing order: columns from the right, bottom to top in each
            cells = [(i, j) for j in range(cj, aj - 1, -1) for i in range(ci, ai - 1, -1)]
            if not any(c in values for c in cells):
                rect = cells
                break
        if rect is None:
            raise WitnessConstructionError(
                f"no admissible corner for anchor {anchor} of {shape}")
        for c in rect:
            values[c] = len(values) + 1
    rows = [tuple(values[(i, j)] for j in range(1, shape.parts[i - 1] + 1))
            for i in range(1, len(shape.parts) + 1)]
    witness = Tableau(shape, rows)
    ops = shape_ops(shape)
    achieved = ops.sort_values(ops.new_board(), [values[ops.coord[c]] for c in ops.order])
    expected = worst_case(shape)
    if achieved != expected:
        raise WitnessConstructionError(
            f"witness for {shape} achieves {achieved} exchanges, expected {expected}")
    return witness


@pytest.fixture(scope="session")
def witness_by_cells():
    """The worst-case witness on a dict keyed by cells: an oracle for the
    flat row-offset list that `complexity.worst_case_witness` fills."""
    return _witness_by_cells


# Five interior points of a cell, as offsets (du, dv) from its corner.
_CELL_PROBES = (
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(1, 3), Fraction(1, 4)),
    (Fraction(3, 4), Fraction(1, 3)),
    (Fraction(1, 5), Fraction(4, 5)),
    (Fraction(7, 8), Fraction(5, 6)),
)


def _cellwise_by_fractions(shape):
    """The cell-wise distance certificate on the balanced boundary, d read
    in Fractions at five probes per cell and asserted affine there:
    (per-cell map, total)."""
    curve = partition_boundary(shape, shape.size)
    w_rows = _w_table(shape)
    per_cell = {}
    for (i, j) in shape.cells():
        w = w_rows[i - 1][j - 1]
        for du, dv in _CELL_PROBES:
            u = j - 1 + du
            v = i - 1 + dv
            d = curve._frame_distances(u - v, u + v)[2]
            assert d == w + i + j - (u + v), (shape, (i, j), (du, dv), d)
        per_cell[(i, j)] = Fraction(2) * (w + 1)
    return per_cell, sum(per_cell.values(), Fraction(0))


@pytest.fixture(scope="session")
def cellwise_by_fractions():
    """The cell-wise identity with its probes in exact rational arithmetic:
    the per-cell certificate for `integrals.distance_integral_cellwise`,
    which certifies only the total."""
    return _cellwise_by_fractions


def _inv_factorial(m):
    """1/m! as an exact Fraction, zero for negative m."""
    return Fraction(1, factorial(m)) if m >= 0 else Fraction(0)


def _det_fraction(mat):
    """Exact determinant of a square Fraction matrix via Gaussian elimination."""
    n = len(mat)
    if n == 0:
        return Fraction(1)
    mat = [row[:] for row in mat]
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if mat[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            det = -det
        det *= mat[c][c]
        inv = 1 / mat[c][c]
        for r in range(c + 1, n):
            if mat[r][c] == 0:
                continue
            factor = mat[r][c] * inv
            mat[r] = [a - factor * b for a, b in zip(mat[r], mat[c])]
    return det


def _aitken_skew_count(outer, inner):
    """Standard fillings of outer/inner by the factorial determinant
    (n - |inner|)! det(1/(lambda_i - mu_j - i + j)!)."""
    ell = len(outer.parts)
    mat = [[_inv_factorial(outer.row(i) - inner.row(j) - i + j)
            for j in range(1, ell + 1)] for i in range(1, ell + 1)]
    value = factorial(outer.size - inner.size) * _det_fraction(mat)
    assert value.denominator == 1 and value >= 0, (outer, inner, value)
    return int(value)


@pytest.fixture(scope="session")
def aitken():
    """The Aitken determinant for skew standard-tableau counts: an oracle
    independent of the Young-lattice chain counts in the package."""
    return _aitken_skew_count


def _fill(ops, board, values):
    """Write values[t] at the t-th processed cell."""
    order = ops.order
    for t, v in enumerate(values):
        board[order[t]] = v


def _sort_board(ops, board):
    """Run the sort in place by exchanges, one swap per step, returning the
    total number of exchanges."""
    total = 0
    south = ops.south
    east = ops.east
    for c in ops.order:
        v = board[c]
        while True:
            s = south[c]
            e = east[c]
            sv = board[s]
            ev = board[e]
            if sv < ev:
                if sv > v:
                    break
                board[c] = sv
                board[s] = v
                c = s
            else:
                if ev > v:
                    break
                board[c] = ev
                board[e] = v
                c = e
            total += 1
    return total


def _sort_filling(shape, values):
    """(exchanges, sorted board) of the filling with values[t] at the t-th
    processed cell, by a fill pass and then the swap-by-swap sort."""
    ops = shape_ops(shape)
    board = ops.new_board()
    _fill(ops, board, values)
    return _sort_board(ops, board), board


@pytest.fixture(scope="session")
def sort_filling():
    """The sort as a fill pass and then one swap per exchange, counted one
    by one: an oracle for the fused kernel `_ShapeOps.sort_values`."""
    return _sort_filling


def _kernel_mismatch(shape, fillings):
    """The first filling on which `sort_values`, run on one board that is
    never cleared, differs from `_sort_filling` in exchanges or final board;
    None when there is none."""
    ops = shape_ops(shape)
    board = ops.new_board()
    for values in fillings:
        count = ops.sort_values(board, values)
        if (count, board) != _sort_filling(shape, values):
            return values
    return None


@pytest.fixture(scope="session")
def kernel_mismatch():
    """`kernel_mismatch(shape, fillings)`: the first value sequence on which
    the fused kernel `_ShapeOps.sort_values` differs from the swap-by-swap
    sort of `sort_filling`, or None."""
    return _kernel_mismatch


def _mixed_lanes_mismatch(groups):
    """The first filling on which `nps.sort_lanes`, given the fillings of
    every (shape, fillings) pair as the lanes of one call, the largest shape
    first and each row padded with zeros, differs from `_sort_filling` in
    exchanges or sorted board; None when there is none."""
    groups = sorted(((shape, [list(values) for values in fillings]) for shape, fillings in groups),
                    key=lambda group: -group[0].size)
    values = np.zeros((sum(len(fillings) for _, fillings in groups), groups[0][0].size),
                      dtype=np.int64)
    for row, filling in zip(values, (f for _, fillings in groups for f in fillings)):
        row[:len(filling)] = filling
    counts, boards = nps.sort_lanes([(shape_ops(shape), len(fillings)) for shape, fillings in groups],
                                    values)
    counts = iter(counts.tolist())
    for (shape, fillings), sorted_boards in zip(groups, boards):
        assert sorted_boards.shape == (len(fillings), shape.size)
        for filling, board in zip(fillings, sorted_boards.tolist()):
            want, want_board = _sort_filling(shape, filling)
            if (next(counts), board) != (want, want_board[:shape.size]):
                return filling
    return None


def _lanes_mismatch(shape, fillings):
    """The first filling on which `nps.sort_lanes`, given all the fillings
    as the lanes of one call, differs from `_sort_filling` in exchanges or
    sorted board; None when there is none."""
    return _mixed_lanes_mismatch([(shape, fillings)])


@pytest.fixture(scope="session")
def lanes_mismatch():
    """`lanes_mismatch(shape, fillings)`: the first value sequence on which
    the lane sift `nps.sort_lanes` differs from the swap-by-swap sort of
    `sort_filling`, or None."""
    return _lanes_mismatch


@pytest.fixture(scope="session")
def mixed_lanes_mismatch():
    """`mixed_lanes_mismatch(groups)`: the first value sequence on which
    `nps.sort_lanes`, given the fillings of several shapes in one batch,
    differs from the swap-by-swap sort of `sort_filling`, or None."""
    return _mixed_lanes_mismatch


def _naive_sort(tableau):
    """Second, independent implementation of the sort: dict-based, literal
    locate/compare/exchange steps, with the same hook bookkeeping.  Returns
    (exchanges, output rows, hook rows, trace), the trace a (value, start,
    end, exchanges) tuple per entry in processing order."""
    shape = tableau.shape
    cells = shape.cells()
    order = sorted(cells, key=lambda c: (c[1], c[0]), reverse=True)
    entries = {(i, j): tableau.entry(i, j) for (i, j) in cells}
    hooks = {c: 0 for c in cells}
    exchanges = 0
    trace = []
    for cell in order:
        value = entries[cell]
        pos = next(c for c, v in entries.items() if v == value)
        start = pos
        moves = 0
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
            moves += 1
        exchanges += moves
        trace.append((value, start, pos, moves))
        (i0, j0), (i1, j1) = start, pos
        previous = dict(hooks)
        for s in range(i0, i1):
            hooks[(s, j0)] = previous[(s + 1, j0)] - 1
        hooks[(i1, j0)] = j1 - j0
    out_rows = tuple(tuple(entries[(i, j)] for j in range(1, shape.parts[i - 1] + 1))
                     for i in range(1, len(shape.parts) + 1))
    hook_rows = tuple(tuple(hooks[(i, j)] for j in range(1, shape.parts[i - 1] + 1))
                      for i in range(1, len(shape.parts) + 1))
    return exchanges, out_rows, hook_rows, tuple(trace)


@pytest.fixture(scope="session")
def naive_sort():
    """The sort on a dict of cells, one literal exchange at a time, with its
    own hook and trace bookkeeping: an oracle for `nps_sort`, which builds
    its hooks and trace from the landing cells of `sort_values`."""
    return _naive_sort


def _plain_exchange_stats(shape):
    """(sum, max) of exchange counts by sorting each of the n! fillings."""
    ops = shape_ops(shape)
    board = ops.new_board()
    total = best = 0
    for perm in itertools.permutations(range(1, shape.size + 1)):
        _fill(ops, board, perm)
        count = _sort_board(ops, board)
        total += count
        best = max(best, count)
    return total, best


@pytest.fixture(scope="session")
def plain_stats():
    """Exchange-count (sum, max) by the plain n! loop over the swap-by-swap
    sort: an oracle that shares no prefix work, unlike `exchange_stats`."""
    return _plain_exchange_stats


def _sift_cell(ops, board, c, v):
    """Sift the value v down from index c in place, returning the landing
    index.  Only cells South-East of c are read or written, and those are
    all processed before c.  The exchanges are (i1 - i0) + (j1 - j0)."""
    south = ops.south
    east = ops.east
    while True:
        s = south[c]
        e = east[c]
        sv = board[s]
        ev = board[e]
        if sv < ev:
            if sv > v:
                break
            board[c] = sv
            c = s
        else:
            if ev > v:
                break
            board[c] = ev
            c = e
    board[c] = v
    return c


def _sift_cell_with_hooks(ops, board, hooks, start, v):
    """_sift_cell plus the hook rule: the column segment below `start`
    shifts up with a decrement and the landing row records the column
    displacement.  Returns the landing index."""
    c = _sift_cell(ops, board, start, v)
    i0, j0 = ops.coord[start]
    i1, j1 = ops.coord[c]
    south = ops.south
    walk = start
    for _ in range(i1 - i0):
        nxt = south[walk]
        hooks[walk] = hooks[nxt] - 1
        walk = nxt
    hooks[walk] = j1 - j0
    return c


def _walk_orders_by_sifts(ops, board, hooks, t, pairs, tally):
    """Extend the sifted board (ranks 1..t on the t processed cells) and its
    hooks by each rank r of the next value among the first t + 1, depth
    first, with one `_sift_cell_with_hooks` per child, adding every full
    filling's (output, hooks) pair of tuples to `pairs` and tallying it
    under its output in `tally`.  Before child r, rank r moves up to r + 1
    on this board, which leaves room for the new value r."""
    if t == ops.n:
        key = (tuple(board[:t]), tuple(hooks))
        pairs.add(key)
        tally[key[0]] += 1
        return
    start = ops.order[t]
    for r in range(t + 1, 0, -1):
        if r <= t:
            board[board.index(r)] = r + 1
        b = board[:]
        h = hooks[:]
        _sift_cell_with_hooks(ops, b, h, start, r)
        _walk_orders_by_sifts(ops, b, h, t + 1, pairs, tally)


def _bijection_by_sifts(shape):
    """The bijection report from a walk over relative orders that sifts each
    child on its own copy and keys leaves by tuples."""
    n = shape.size
    ops = shape_ops(shape)
    pairs = set()
    tally = Counter()
    _walk_orders_by_sifts(ops, ops.new_board(), [0] * n, 0, pairs, tally)
    expected = factorial(n)
    uniform = (len(tally) == syt_count(shape)
               and all(v == hook_product(shape) for v in tally.values()))
    return BijectionReport(shape, len(pairs), expected, len(pairs) == expected, dict(tally),
                           uniform)


@pytest.fixture(scope="session")
def bijection_by_sifts():
    """The bijection report by one sift per child and tuple-keyed leaves: an
    oracle for the slide chains and integer codes of `verify_bijection`."""
    return _bijection_by_sifts


def _bijection_pairs_mismatch(shape):
    """The first (output rows, hook rows) pair on which the decoded
    last-level sets of `nps._bijection_sets` and `nps_sort` on every filling
    of the shape differ, or None.  An output code has the digit of each cell
    in row-major order and a hook code the digit H + leg of each cell in
    column-major order, both in base n + 2."""
    base = shape.size + 2
    cells = shape.cells()
    column_major = sorted(range(len(cells)), key=lambda k: cells[k][::-1])
    legs = [leg for _, leg in _arms_legs_by_cells(shape)]

    def rows(flat):
        offsets = itertools.accumulate(shape.parts, initial=0)
        return tuple(tuple(flat[k:k + p]) for k, p in zip(offsets, shape.parts))

    def digits(code):
        return [code // base**k % base for k in range(len(cells))]

    decoded = set()
    for output, hook_codes in nps._bijection_sets(shape)[0].items():
        for code in hook_codes:
            hooks = [0] * len(cells)
            for k, digit in zip(column_major, digits(code)):
                hooks[k] = digit - legs[k]
            decoded.add((rows(digits(output)), rows(hooks)))
    sorted_pairs = set()
    for tableau in _enumerate_tableaux(shape):
        outcome = nps.nps_sort(tableau)
        sorted_pairs.add((outcome.output.rows, outcome.hooks.rows))
    return min(decoded ^ sorted_pairs, default=None)


@pytest.fixture(scope="session")
def bijection_pairs_mismatch():
    """`bijection_pairs_mismatch(shape)`: a pair found by only one of the
    certificate's decoded last-level sets and `nps_sort` over every filling,
    or None; ties the counting certificate to the NPS hooks themselves."""
    return _bijection_pairs_mismatch


def _enumerate_tableaux(shape):
    """All n! fillings, ordered lexicographically by the value sequence read
    in the processing-cell order."""
    ops = shape_ops(shape)
    board = ops.new_board()
    for perm in itertools.permutations(range(1, shape.size + 1)):
        _fill(ops, board, perm)
        yield Tableau(shape, ops.rows_from_board(board))


@pytest.fixture(scope="session")
def tableaux():
    """Every filling of a shape, one by one: the n! inputs that the package's
    prefix walks cover without listing them."""
    return _enumerate_tableaux


def _arms_legs_by_cells(shape):
    """(arm, leg) of each cell in row-major order, the column height counted
    per cell: arm = lambda_i - j and leg = #{rows of length >= j} - i."""
    return [(shape.parts[i - 1] - j, sum(1 for p in shape.parts if p >= j) - i)
            for i, j in shape.cells()]


@pytest.fixture(scope="session")
def arms_legs_by_cells():
    """(arm, leg) of each cell, counted per cell: an oracle for the hook rule
    of `partitions._arms_legs`."""
    return _arms_legs_by_cells


def _enumerate_hook_tableaux(shape):
    """All hook tableaux: independent entry ranges [-leg, arm] per cell."""
    cells = shape.cells()
    ranges = [range(-leg, arm + 1) for arm, leg in _arms_legs_by_cells(shape)]
    for combo in itertools.product(*ranges):
        rows = [[0] * p for p in shape.parts]
        for (i, j), v in zip(cells, combo):
            rows[i - 1][j - 1] = v
        yield HookTableau(shape, rows)


@pytest.fixture(scope="session")
def hook_tableaux():
    """Every hook tableau of a shape, one by one: an oracle for the hook
    product and for the closed-form mean of the absolute hook sum."""
    return _enumerate_hook_tableaux


def _sup_distance(curve, other):
    """Supremum of |gamma(x) - eta(x)| over the real line.

    The difference of two piecewise-linear curves attains its supremum at a
    breakpoint of either, or at x = 0; the computation is exact when both
    curves share a frame scale.
    """
    if curve.scale_sq == other.scale_sq:
        xs = sorted(set(curve.xs) | set(other.xs) | {Fraction(0)})
        best = max((abs(curve.value_frame(x) - other.value_frame(x)) for x in xs),
                   default=Fraction(0))
        return float(best) * curve.scale
    xs = sorted({x for x, _ in curve.breakpoints}
                | {x for x, _ in other.breakpoints} | {0.0})
    return max((abs(curve.value(x) - other.value(x)) for x in xs), default=0.0)


@pytest.fixture(scope="session")
def sup_distance():
    """The sup-norm distance between two limit curves."""
    return _sup_distance


def _point_from_hook_coordinates(curve, s, t):
    """The point whose two diagonals meet the curve at abscissas s and t."""
    gs = curve.value(s)
    gt = curve.value(t)
    return ((s + t + gs - gt) / 2.0, (s - t + gs + gt) / 2.0)


@pytest.fixture(scope="session")
def point_from_hook_coordinates():
    """The inverse of `hook_coordinates`, from the curve values at s and t."""
    return _point_from_hook_coordinates


class _WalkCurve:
    """A copy of a curve's frame breakpoints, in floats (`of`) or exact
    (`exact`), that answers each point query by walking the breakpoints one
    by one: gamma, the exit along (1, 1), the exit along (-1, 1) as the
    mirror's exit along (1, 1), and d as the maximum of gamma at the two
    exits and at every breakpoint between them."""

    def __init__(self, xs, ys, scale_sq):
        self.xs, self.ys, self.scale_sq = xs, ys, scale_sq
        self.scale = math.sqrt(scale_sq)

    @classmethod
    def of(cls, curve):
        return cls(tuple(float(x) for x in curve.xs), tuple(float(y) for y in curve.ys),
                   float(curve.scale_sq))

    @classmethod
    def exact(cls, curve):
        return cls(curve.xs, curve.ys, curve.scale_sq)

    def mirrored(self):
        return _WalkCurve(tuple(-x for x in reversed(self.xs)), tuple(reversed(self.ys)),
                          self.scale_sq)

    def value_frame(self, x):
        xs = self.xs
        if not xs or x <= xs[0] or x >= xs[-1]:
            return abs(x)
        i = bisect_right(xs, x) - 1
        x0, y0, x1, y1 = xs[i], self.ys[i], xs[i + 1], self.ys[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def value(self, x):
        return self.value_frame(x / self.scale) * self.scale

    def diag_exit(self, x, y):
        """Largest t with (x + t, y + t) under the curve, from an interior
        point: where gamma(w) - w, non-increasing, falls below y - x."""
        target = y - x
        xs, ys = self.xs, self.ys
        prev_w, prev_v = x, self.value_frame(x) - x
        for i in range(bisect_right(xs, x), len(xs)):
            w, v = xs[i], ys[i] - xs[i]
            if v < target:
                return prev_w + (prev_v - target) * (w - prev_w) / (prev_v - v) - x
            prev_w, prev_v = w, v
        # beyond the polyline gamma is |w|, and |w| - w < y - x there for w >= x
        # since y > |x|: the span ends at the last breakpoint
        return prev_w - x

    def frame_exits(self, x, y):
        """(a, l) in frame units at an interior point, None elsewhere."""
        if not (self.xs and abs(x) < y < self.value_frame(x)):
            return None
        return self.diag_exit(x, y), self.mirrored().diag_exit(-x, y)

    def frame_distances(self, x, y):
        """(a, l, d) in frame units, all 0 off the interior."""
        exits = self.frame_exits(x, y)
        if exits is None:
            return (x - x,) * 3
        a, leg = exits
        s, t = x - leg, x + a
        top = max([self.value_frame(s), self.value_frame(t)]
                  + [g for w, g in zip(self.xs, self.ys) if s < w < t])
        return a, leg, top - y

    def hook_distances(self, point):
        x, y = point
        a, leg, d = self.frame_distances(x / self.scale, y / self.scale)
        factor = math.sqrt(2.0) * self.scale
        return a * factor, leg * factor, d * factor

    def hook_coordinates(self, point):
        x, y = point
        fx, fy = x / self.scale, y / self.scale
        arm, leg = self.frame_exits(fx, fy) or (0, 0)
        return (fx - leg) * self.scale, (fx + arm) * self.scale


@pytest.fixture(scope="session")
def walk_curve():
    """The linear-walk curve queries, `walk_curve.of(curve)` in floats and
    `walk_curve.exact(curve)` in Fractions: an oracle for the bisections of
    `curves._exits`, and the float curve of the quadrature oracles."""
    return _WalkCurve


def _tie_points(xs, ys, stride):
    """Frame points on the two diagonals through every stride-th breakpoint
    (w, gamma(w)), where y - x = gamma(w) - w or y + x = gamma(w) + w, from x
    at every stride-th breakpoint and at the midpoint of its segment."""
    starts = xs[::stride] + tuple((a + b) / 2 for a, b in zip(xs[::stride], xs[1::stride]))
    for w, g in zip(xs[::stride], ys[::stride]):
        for x in starts:
            yield x, x + g - w
            yield x, g + w - x


def _differs(query, oracle):
    try:
        return query() != oracle()
    except ArithmeticError:  # a crossing solved on a segment it does not cross
        return True


def _query_mismatches(grid, exact=True):
    """The points at which hook_distances, hook_coordinates or
    _frame_distances differ in any bit from the linear walk: 40 random true
    points per curve, and the tie points in floats and, on curves of at most
    40 breakpoints, in Fractions."""
    rng = random.Random(2016)
    bad = []
    for curve in grid:
        walk = _WalkCurve.of(curve)
        (lo, _), (hi, _) = curve.breakpoints[0], curve.breakpoints[-1]
        top = max(y for _, y in curve.breakpoints)
        for _ in range(40):
            point = (rng.uniform(lo, hi), rng.uniform(0.0, top))
            if (_differs(lambda: hook_distances(curve, point), lambda: walk.hook_distances(point))
                    or _differs(lambda: hook_coordinates(curve, point),
                                lambda: walk.hook_coordinates(point))):
                bad.append((curve, point))
        exact_walk = _WalkCurve.exact(curve) if exact and len(curve.xs) <= 40 else None
        for x, y in _tie_points(curve.xs, curve.ys, max(1, len(curve.xs) // 10)):
            if exact_walk and _differs(lambda: curve._frame_distances(x, y),
                                       lambda: exact_walk.frame_distances(x, y)):
                bad.append((curve, (x, y)))
            x, y = float(x), float(y)
            if _differs(lambda: curve._frame_distances(x, y),
                        lambda: walk.frame_distances(x, y)):
                bad.append((curve, (x, y)))
    return bad


@pytest.fixture(scope="session")
def query_mismatches():
    """`query_mismatches(grid, exact=True)`, the points of the curves in
    `grid` where a curve query differs from the linear walk: the walk as an
    oracle for the bisections of `curves._exits`."""
    return _query_mismatches


def _boundary_refusals():
    """The (shape, exponents) cases whose `partition_boundary` the checked
    constructor, at tolerance 0, refuses or rebuilds as another curve: every
    shape of size <= 10 under balanced, (1/3, 2/3) and (1, 0) exponents, and
    (4,3,2,1) under (2/5, 3/5).  Most (1/3, 2/3) cases and the last one have
    a float-derived rho.  The boundary is read from the module, so that a
    rewritten `partition_boundary` is the one checked."""
    exponents = (ScalingExponents.balanced(), ScalingExponents(Fraction(1, 3), Fraction(2, 3)),
                 ScalingExponents(1, 0))
    cases = [(shape, e) for n in range(1, 11) for shape in partitions_of(n) for e in exponents]
    cases.append((Partition([4, 3, 2, 1]), ScalingExponents(Fraction(2, 5), Fraction(3, 5))))
    refused = []
    for shape, e in cases:
        curve = curves.partition_boundary(shape, shape.size, e)
        try:
            same = LimitCurve(list(zip(curve.xs, curve.ys)), curve.scale_sq).same_curve(curve)
        except ValueError:
            same = False
        if not same:
            refused.append((shape, e))
    return refused


@pytest.fixture(scope="session")
def boundary_refusals():
    """`boundary_refusals()`, the partition boundaries that the checked
    `LimitCurve` constructor refuses: the constructor as an oracle for the
    construction of `partition_boundary`."""
    return _boundary_refusals


# Slopes strictly inside (-1, 1), so that gamma(s) on a falling s-segment and
# gamma(t) on a rising t-segment beat the breakpoint values between them.
_GENERAL_POINTS = (
    [(-2, 2), (-1, Fraction(5, 2)), (0, 2), (1, Fraction(5, 2)), (2, 2)],
    [(-1, 1), (Fraction(-1, 2), Fraction(5, 4)), (Fraction(1, 4), 1),
     (Fraction(3, 4), Fraction(5, 4)), (2, 2)],
)
_GENERAL_CURVES = tuple(LimitCurve(points) for points in _GENERAL_POINTS)


@pytest.fixture(scope="session")
def general_curves():
    """Two rational curves whose slopes lie strictly inside (-1, 1)."""
    return _GENERAL_CURVES


@pytest.fixture(scope="session")
def general_curve_points():
    """The constructor's points of the two `general_curves`, in order."""
    return _GENERAL_POINTS


def pochhammer_rising(x, k):
    """Rising factorial x (x+1) ... (x+k-1), equal to 1 when k = 0."""
    if k < 0:
        raise ValueError("rising factorial needs k >= 0")
    result = 1
    for i in range(k):
        result *= x + i
    return result


@pytest.fixture(scope="session")
def rising_factorial():
    """The rising factorial, the denominators of the termwise S0 sum."""
    return pochhammer_rising


def _s0_termwise(lam1, lam2):
    """S0 = sum_{k=1..lam2} C(lam2,k) (-1)^k (2k-2)! / (lam1-lam2+2)_{2k-1}."""
    validate_two_row(lam1, lam2)
    total = Fraction(0)
    base = lam1 - lam2 + 2
    for k in range(1, lam2 + 1):
        num = comb(lam2, k) * (-1) ** k * factorial(2 * k - 2)
        total += Fraction(num, pochhammer_rising(base, 2 * k - 1))
    return total


@pytest.fixture(scope="session")
def s0_termwise():
    """S0 as the sum of its terms, each a reduced Fraction: an oracle for the
    nested integer ratio that `s0_direct` evaluates."""
    return _s0_termwise


def _c_double_sums_termwise(lam1, lam2):
    """The five double sums of the two-row average, each term a Fraction."""
    validate_two_row(lam1, lam2)
    if lam2 < 1:
        raise ValueError("double-sum representation needs lam2 >= 1")
    n = lam1 + lam2
    f = syt_count(Partition((lam1, lam2)))
    total = (comb(lam1, 2) + comb(lam2 + 1, 2)) * (_harmonic_sum(n) - 1)

    def term(j, k, top, choose, lower):
        return Fraction(top * comb(k, choose) * comb(n - k, lower), k) * _harmonic_sum(n - k)

    s1 = Fraction(0)
    s2 = Fraction(0)
    for j in range(1, lam2 + 1):
        for k in range(j, 2 * j):
            top = (j - 1) * (2 * j - k)
            s1 += term(j, k, top, j, lam1 - j)
            if lam2 - j - 1 >= 0:
                s2 += term(j, k, top, j, lam2 - j - 1)
    s3 = Fraction(0)
    for j in range(lam2 + 1, lam1 + 1):
        for k in range(j, lam2 + j + 1):
            s3 += term(j, k, (j - 1) * (2 * j - k), j, lam1 - j)
    s4 = Fraction(0)
    s5 = Fraction(0)
    for j in range(1, lam2 + 1):
        top_of = lambda k: j * (k - 2 * j + 2)
        for k in range(2 * j, lam1 + j + 1):
            s4 += term(j, k, top_of(k), j - 1, lam2 - j)
        for k in range(2 * j, lam2 + j + 1):
            s5 += term(j, k, top_of(k), j - 1, lam1 - j + 1)
    return total + Fraction(-s1 + s2 - s3 - s4 + s5, f)


@pytest.fixture(scope="session")
def c_double_sums_termwise():
    """The double-sum form summed term by term in Fractions: an oracle for
    the single integer numerator that `c_double_sums` carries."""
    return _c_double_sums_termwise


def _s0_nested_termwise(lam1, lam2):
    """The nested-sum representation of S0, its running sums as Fractions."""
    validate_two_row(lam1, lam2)
    if lam2 < 1:
        raise ValueError("nested representation needs lam2 >= 1")
    inner = Fraction(0)          # sum_{j<=i} C(j+lam1, j) / 2^j
    sum_weighted = Fraction(0)   # sum_i 2^i * inner_i / (i * C(i+lam1, i))
    sum_plain = Fraction(0)      # sum_i 2^i / (i * C(i+lam1, i))
    for i in range(1, lam2 + 1):
        b = comb(i + lam1, i)
        inner += Fraction(b, 2**i)
        sum_weighted += Fraction(2**i, i * b) * inner
        sum_plain += Fraction(2**i, i * b)
    big = comb(lam1 + lam2, lam2)
    excess = 1 + lam1 - lam2
    return (
        -Fraction(2**lam2, big) * (inner + 1)
        - Fraction(excess, 2) * sum_weighted
        - Fraction(excess, 2) * sum_plain
        + excess * (_harmonic_sum(lam1) + Fraction(_harmonic_sum(lam2), 2)
                    - _harmonic_sum(lam1 - lam2))
        + 1
    )


@pytest.fixture(scope="session")
def s0_nested_termwise():
    """The nested form of S0 with Fraction running sums: an oracle for the
    integer numerators that `s0_nested` carries."""
    return _s0_nested_termwise


def _s0_fixed_distance_termwise(lam2, delta):
    """S0 for lam1 = lam2 + delta by the fixed-distance form, in Fractions."""
    if lam2 < 1 or delta < 0:
        raise ValueError("fixed-distance form needs lam2 >= 1 and delta >= 0")
    central = comb(2 * lam2, lam2)
    pow_central = Fraction(2**(2 * lam2), central)

    sum_a = Fraction(0)   # 2^i C(i+lam2,i) / (C(i+2lam2,i) (1+i+2lam2))
    sum_b = Fraction(0)   # 2^-i C(i+2lam2,i) / (C(i+lam2,i) (i+2lam2))
    sum_c = Fraction(0)   # as sum_a but weighted by the running sum_b
    running_b = Fraction(0)
    for i in range(1, delta + 1):
        small = comb(i + lam2, i)
        large = comb(i + 2 * lam2, i)
        a_i = Fraction(2**i * small, large * (1 + i + 2 * lam2))
        b_i = Fraction(large, 2**i * small * (i + 2 * lam2))
        running_b += b_i
        sum_a += a_i
        sum_b += b_i
        sum_c += a_i * running_b
    d1 = delta + 1
    ratio = Fraction(comb(delta + lam2, delta), comb(delta + 2 * lam2, delta))
    return (
        (-d1 + d1 * pow_central) * sum_a
        + Fraction(2**(delta + 2) * lam2 * (1 + delta + lam2), 1 + delta + 2 * lam2) * ratio * sum_b
        - 2 * d1 * lam2 * sum_c
        + Fraction(d1, 2 * lam2 + 1) * pow_central
        + Fraction(2**(delta + 1) * (1 + delta + lam2), 1 + delta + 2 * lam2) * ratio
        * Fraction(central - 2**(2 * lam2), central)
        - Fraction(d1, 2 * lam2 + 1)
        + d1 * _harmonic_sum(delta + 2 * lam2)
        + Fraction(d1, 2) * _harmonic_sum(lam2)
        - d1 * _harmonic_sum(2 * lam2)
        - d1 * _harmonic_sum(delta)
    )


@pytest.fixture(scope="session")
def s0_fixed_distance_termwise():
    """The fixed-distance form of S0 with Fraction running sums: an oracle for
    the integer numerators that `two_row._s0_fixed_distance` carries."""
    return _s0_fixed_distance_termwise


def _boards_per_draw(shape, m, seed):
    """m random value sequences, CHUNK per stream id, one `permutation` call
    per draw."""
    n = shape.size
    produced = 0
    chunk_index = 0
    while produced < m:
        rng = SeededStream(seed, chunk_index).generator()
        for _ in range(min(CHUNK, m - produced)):
            yield (rng.permutation(n) + 1).tolist()
            produced += 1
        chunk_index += 1


@pytest.fixture(scope="session")
def boards_per_draw():
    """The Monte Carlo draws one `permutation` at a time: an oracle for the
    blocks of rows that `sampling._draw_blocks` shuffles at once."""
    return _boards_per_draw


def _one_row_blocks(shape, m, seed):
    for values in _boards_per_draw(shape, m, seed):
        yield np.array([values], dtype=np.int64).reshape(1, shape.size)


@pytest.fixture(scope="session")
def one_row_blocks():
    """The draws of `boards_per_draw` as blocks of one row each, in the form
    `sampling._draw_blocks` yields."""
    return _one_row_blocks


_HALF = Fraction(1, 2)
_T_MINUS_S = (0, -1, 1)  # t - s as an affine function


def _lin(*terms):
    """Sum of coefficient * f over affine functions f = (c, a, b), meaning
    c + a s + b t."""
    return tuple(sum(k * f[m] for k, f in terms) for m in range(3))


def _at(f, point):
    return f[0] + f[1] * point[0] + f[2] * point[1]


def _clip_fractions(poly, h):
    """The part of a convex polygon where the affine function h is >= 0."""
    out = []
    for p, q in zip(poly, poly[1:] + poly[:1]):
        hp, hq = _at(h, p), _at(h, q)
        if hp >= 0:
            out.append(p)
        if (hp < 0) != (hq < 0):
            r = hp / (hp - hq)
            out.append((p[0] + r * (q[0] - p[0]), p[1] + r * (q[1] - p[1])))
    return out


def _affine_integral(poly, f):
    """Exact integral of the affine f over a counter-clockwise convex polygon
    (the shoelace formula with the first moments)."""
    area = ms = mt = 0
    for (s0, t0), (s1, t1) in zip(poly, poly[1:] + poly[:1]):
        cross = s0 * t1 - s1 * t0
        area += cross
        ms += (s0 + s1) * cross
        mt += (t0 + t1) * cross
    return f[0] * Fraction(area, 2) + Fraction(f[1] * ms + f[2] * mt, 6)


def _fraction_hook_pairs(curve):
    """Segment pairs i <= j with nonzero area element, as
    (i, j, polygon, gamma(s), gamma(t), element): the pair's (s, t) domain
    (a rectangle, or the triangle s < t when i = j) and gamma on either
    segment as affine functions of (s, t), all in frame Fractions."""
    xs, ys = curve.xs, curve.ys
    segments = []
    for k in range(len(xs) - 1):
        slope = Fraction(ys[k + 1] - ys[k], xs[k + 1] - xs[k])
        segments.append((xs[k], xs[k + 1], ys[k] - slope * xs[k], slope))
    for i, (s0, s1, cs, gi) in enumerate(segments):
        if gi == -1:
            continue
        for j in range(i, len(segments)):
            t0, t1, ct, gj = segments[j]
            if gj == 1:
                continue
            if i == j:
                poly = [(s0, s0), (s1, s1), (s0, s1)]
            else:
                poly = [(s0, t0), (s1, t0), (s1, t1), (s0, t1)]
            yield i, j, poly, (cs, gi, 0), (ct, 0, gj), (1 + gi) * (1 - gj) / 2


def _w_by_fractions(curve):
    total = Fraction(0)
    ys = curve.ys
    for i, j, poly, gs, gt, element in _fraction_hook_pairs(curve):
        y = _lin((-_HALF, _T_MINUS_S), (_HALF, gs), (_HALF, gt))
        if i == j:
            candidates = [gs if gs[1] < 0 else gt]
        else:
            candidates = [(max(ys[i + 1:j + 1]), 0, 0)]
            if gs[1] < 0:
                candidates.append(gs)
            if gt[2] > 0:
                candidates.append(gt)
        for top in candidates:
            piece = poly
            for other in candidates:
                if other is not top:
                    piece = _clip_fractions(piece, _lin((1, top), (-1, other)))
            total += element * _affine_integral(piece, _lin((1, top), (-1, y)))
    return total


def _c_by_fractions(curve):
    rational = Fraction(0)
    logs = []
    for i, j, poly, gs, gt, element in _fraction_hook_pairs(curve):
        gj = gt[2]
        k0, k1, _ = _lin((1, gt), (-1, gs), (-gj, _T_MINUS_S))
        affine = _lin((1 + gj * gj, _T_MINUS_S), (2 * gj, (k0, k1, 0)))
        rational += element * _affine_integral(poly, affine)
        if i == j:
            continue
        (s0, t0), (s1, _), (_, t1) = poly[:3]
        for te, se, sign in ((t1, s0, 1), (t1, s1, -1), (t0, s0, -1), (t0, s1, 1)):
            v = te - se
            if v == 0:
                continue
            alpha = k0 + k1 * te
            for p, c in enumerate((alpha * alpha, -2 * alpha * k1, k1 * k1), 1):
                term = sign * element * c * v**p / p
                rational -= term / p
                logs.append(float(term) * math.log(v))
    return _true_units(curve, (float(rational) + math.fsum(logs)) / 4)


def _i_by_fractions(curve):
    totals = [Fraction(0), Fraction(0)]
    for _, _, poly, gs, gt, element in _fraction_hook_pairs(curve):
        for k, sign in enumerate((1, -1)):
            exit_ = _lin((_HALF, _T_MINUS_S), (sign * _HALF, gt), (-sign * _HALF, gs))
            totals[k] += element * _affine_integral(poly, exit_)
    return tuple(totals)


def _frame_integrals_by_fractions(curve):
    """(W, I1, I2) in frame units, as exact Fractions."""
    return (_w_by_fractions(curve), *_i_by_fractions(curve))


@pytest.fixture(scope="session")
def frame_integrals_by_fractions():
    """The exact frame-unit W, I1 and I2 of a curve, pair by pair in
    Fractions: equal on two breakpoint lists of the same curve."""
    return _frame_integrals_by_fractions


def _segments_by_fractions(curve):
    """(L, Q, X, Y, G, C) of a curve from its Fraction breakpoints and
    slopes: L and Q the lcm of their reduced denominators, (X, Y) the
    breakpoints times L, G the slopes times Q and C = Q Y - G X, each
    checked to be an integer: an oracle for `LimitCurve._segments`."""
    xs, ys = curve.xs, curve.ys
    slopes = [(y1 - y0) / (x1 - x0) for x0, y0, x1, y1 in zip(xs, ys, xs[1:], ys[1:])]
    L = math.lcm(*(v.denominator for v in xs + ys))
    Q = math.lcm(*(s.denominator for s in slopes))

    def integers(values):
        assert all(v.denominator == 1 for v in values)
        return tuple(v.numerator for v in values)

    X, Y = integers([x * L for x in xs]), integers([y * L for y in ys])
    G = integers([s * Q for s in slopes])
    return L, Q, X, Y, G, integers([Q * y - g * x for x, y, g in zip(X, Y, G)])


@pytest.fixture(scope="session")
def segments_by_fractions():
    """The integer segment table of a curve, built in Fractions."""
    return _segments_by_fractions


def _integrals_by_fractions(curve):
    """(W, C, I1, I2) with every pair of segments integrated in frame
    Fractions over its polygon, affine functions as coefficient triples and
    each log term rounded from its Fraction."""
    w, i1, i2 = (_true_units(curve, v) for v in _frame_integrals_by_fractions(curve))
    return w, _c_by_fractions(curve), i1, i2


@pytest.fixture(scope="session")
def integrals_by_fractions():
    """The four limit integrals in frame Fractions, pair by pair: an oracle
    for the scaled integer segment table that `integrals` reads, which must
    give the same floats."""
    return _integrals_by_fractions


def _profile(shape):
    """The profile of a partition from (0, rows) to (lambda_1, 0) in (row
    length u, row index v), with a point at the end of every row."""
    ell = len(shape.parts)
    profile = [(0, ell)]
    prev_u = 0
    for i in range(ell, 0, -1):
        u = shape.parts[i - 1]
        if u != prev_u:
            profile.append((u, i))
            prev_u = u
        profile.append((u, i - 1))
    return profile


def _full_profile_boundary(shape):
    """The balanced boundary of a partition with a breakpoint at every unit
    step of its profile, the collinear ones between the corners of a run of
    equal rows included, through the checked constructor."""
    return LimitCurve([(u - v, u + v) for u, v in _profile(shape)], Fraction(1, 2 * shape.size))


@pytest.fixture(scope="session")
def full_profile_boundary():
    """The boundary with every profile step as a breakpoint: an oracle for
    `partition_boundary`, which keeps the corners only."""
    return _full_profile_boundary


def _boundary_points(shape, rho, corners=True):
    """The points of a partition's boundary under the ratio rho of its row
    and column scales: the corners of its profile, where the profile turns,
    or with corners=False every point of `_profile`, at (rho u - v, rho u + v)."""
    profile = _profile(shape)
    if corners:
        profile = [profile[0], *(q for p, q, r in zip(profile, profile[1:], profile[2:])
                                 if (q[0] - p[0]) * (r[1] - q[1]) != (q[1] - p[1]) * (r[0] - q[0])),
                   profile[-1]]
    return [(rho * u - v, rho * u + v) for u, v in profile]


@pytest.fixture(scope="session")
def boundary_points():
    """The breakpoints of `partition_boundary` found without its run-length
    pass over the rows: an oracle for its constructor's points."""
    return _boundary_points


def _views_by_fractions(points, scale_sq):
    """xs, ys, span, area, repr, to_document() as JSON text and breakpoints
    by float.hex of the curve on these points, each computed in Fractions
    from the points as the curve did when it kept Fraction tuples."""
    xs, ys = tuple(Fraction(x) for x, _ in points), tuple(Fraction(y) for _, y in points)
    scale_sq = Fraction(scale_sq)
    lo, hi = (xs[0], xs[-1]) if xs else (Fraction(0), Fraction(0))
    twice = sum((y0 + y1) * (x1 - x0) for x0, y0, x1, y1 in zip(xs, ys, xs[1:], ys[1:]))
    s = math.sqrt(scale_sq)
    breakpoints = [(float(x) * s, float(y) * s) for x, y in zip(xs, ys)]
    rn, rd = math.isqrt(scale_sq.numerator), math.isqrt(scale_sq.denominator)
    if Fraction(rn * rn, rd * rd) == scale_sq:
        document = [[str(x * rn / rd), str(y * rn / rd)] for x, y in zip(xs, ys)]
    else:
        document = [[x, y] for x, y in breakpoints]
    pairs = ", ".join(f"({x},{y})" for x, y in zip(xs, ys))
    return {"xs": xs, "ys": ys, "span": (lo, hi),
            "area": scale_sq * (twice - (hi * abs(hi) - lo * abs(lo))) / 2,
            "repr": f"LimitCurve([{pairs}], scale_sq={scale_sq})",
            "document": json.dumps({"breakpoints": document}),
            "breakpoints": [(x.hex(), y.hex()) for x, y in breakpoints]}


@pytest.fixture(scope="session")
def views_by_fractions():
    """What a curve shows of its breakpoints, from its constructor's points
    in Fractions: an oracle for the views that `LimitCurve` derives from its
    integer and float tables."""
    return _views_by_fractions


def _surd_sign(a, b, m):
    """The sign of a + b sqrt(m), for integers a, b and m >= 0."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    return sa * ((a * a > b * b * m) - (a * a < b * b * m))


def _deepest_cells_by_depth(curve, n):
    """The first n of the cells with i j <= n (every cell of a partition of n
    is one), as a set, ordered by depth below the curve in balanced scaling,
    deepest first, then by i + j, then by i.  With d = j - i and
    R = sqrt(2n scale_sq) = sqrt(m) / k, R times the depth of (i, j) over the
    frame scale is s d - (i + j - 1) + A R on the frame segment y = A + s x
    that holds d / R, and |d| - (i + j - 1) off the span.  Over a common
    denominator each depth is a + b sqrt(m) in integers, compared exactly."""
    q = 2 * n * curve.scale_sq
    m, k = q.numerator * q.denominator, q.denominator
    segments = list(zip(curve.xs, curve.ys, curve.xs[1:], curve.ys[1:]))

    def beyond(d, x):  # the sign of d / R - x, times x.denominator sqrt(m)
        return _surd_sign(d * k * x.denominator, -x.numerator, m)

    def line(d):  # (s d, A / k)
        for x0, y0, x1, y1 in segments:
            if beyond(d, x0) >= 0 >= beyond(d, x1):
                s = (y1 - y0) / (x1 - x0)
                return s * d, (y0 - s * x0) / k
        return Fraction(abs(d)), Fraction(0)

    lines = {d: line(d) for d in range(1 - n, n)}
    scale = math.lcm(*(v.denominator for pair in lines.values() for v in pair))
    lines = {d: (int(a * scale), int(b * scale)) for d, (a, b) in lines.items()}

    def order(c1, c2):
        (i1, j1), (i2, j2) = c1, c2
        (a1, b1), (a2, b2) = lines[j1 - i1], lines[j2 - i2]
        deeper = _surd_sign(a2 - a1 + (i1 + j1 - i2 - j2) * scale, b2 - b1, m)
        return deeper or (-1 if (i1 + j1, i1) < (i2 + j2, i2) else 1)

    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n // i + 1)]
    return set(sorted(cells, key=functools.cmp_to_key(order))[:n])


@pytest.fixture(scope="session")
def fits_by_depth():
    """(curve, n, cells) for n <= 60 on the unit square, the flat top, the
    boundaries of (4,2), (3,3,3), (6,5,3,3,1), (10,1) and the staircase
    15..1, and the mirror of the (6,5,3,3,1) boundary, the cells from a sort
    of every cell by exact depth: an oracle for `_deepest_cells`."""
    grid = [curves.unit_square_curve(), curves.flat_top_curve()]
    grid += [partition_boundary(Partition(p), sum(p))
             for p in ((4, 2), (3, 3, 3), (6, 5, 3, 3, 1), (10, 1), tuple(range(15, 0, -1)))]
    grid.append(grid[4].mirrored())
    return [(curve, n, _deepest_cells_by_depth(curve, n)) for curve in grid for n in range(1, 61)]


def _deepest_cells_by_fractions(curve, n):
    """The partition of n made of the n cells deepest below the curve in
    balanced scaling: cell (i, j) scores phi = gamma(x) - y at its centre,
    x = (j - i)/sqrt(2n) and y = (i + j - 1)/sqrt(2n), and exact ties go to
    the smaller i + j, then i.  A South or East step never raises phi, as
    gamma is 1-Lipschitz, so these cells form a Young diagram, which a heap
    of the addable cells takes one at a time whatever the float rounding.

    With R = sqrt(2n scale_sq), R phi over the frame scale is
    A R + s d - (i + j - 1) on the frame line y = A + s x under the diagonal
    d = j - i, and |d| - (i + j - 1) off the span.  Cells with equal A differ
    by a rational, an int ratio that one division rounds correctly; when R
    is irrational, cells with different A cannot tie and A R is one float
    per A, else it joins the rational.  So exact ties give equal floats,
    also across collinear breakpoints, which share a line."""
    r2 = 2 * n * curve.scale_sq
    root = curves._rational_sqrt(r2)
    xs, ys = curve.xs, curve.ys
    cuts = [x * abs(x) * r2 for x in xs]  # x <= d / R exactly when x|x| R^2 <= d|d|
    lines = [(0.0, 0, None)]  # (A R as a float, A R as a Fraction, s); s = None off the span
    for x0, y0, x1, y1 in zip(xs, ys, xs[1:], ys[1:]):
        s = (y1 - y0) / (x1 - x0)
        a = y1 - s * x1
        lines.append((0.0, a * root, s) if root is not None else (float(a) * math.sqrt(r2), 0, s))
    lines.append(lines[0])

    @functools.cache
    def diagonal(d):
        f, exact, s = lines[bisect_right(cuts, d * abs(d))]
        q = exact + (abs(d) if s is None else s * d)
        return f, q.numerator, q.denominator

    def entry(i, j):
        f, num, den = diagonal(j - i)
        return ((i + j - 1) * den - num) / den - f, i + j, i, j

    rows = [0] * (n + 1)  # rows[i - 1] is the length of row i
    heap = [entry(1, 1)]
    for _ in range(n):
        *_, i, j = heapq.heappop(heap)
        rows[i - 1] = j
        if i == 1 or rows[i - 2] > j:
            heapq.heappush(heap, entry(i, j + 1))
        if rows[i] == j - 1:
            heapq.heappush(heap, entry(i + 1, j))
    return Partition(r for r in rows if r)


@pytest.fixture(scope="session")
def fit_by_fractions():
    """The curve-file fit with each segment's line built in Fractions: an
    oracle for the integer lines that `_deepest_cells` reads from the
    segment table.  It rounds as the fit does, so it also serves on decimal
    files, whose exact ties follow their float rounding and which the
    exact-depth oracle cannot judge."""
    return _deepest_cells_by_fractions


def _uniformity_by_counter(shape, m, seed):
    """`syt_uniformity_test` with the draws tallied by filling as tuples in a
    `Counter` when n! <= m, one sort per distinct filling, and one sort per
    draw otherwise."""
    count = syt_count(shape)
    n = shape.size
    ops = shape_ops(shape)
    board = ops.new_board()
    draws = (row for block in sampling._draw_blocks(shape, m, seed) for row in block.tolist())
    if factorial(n) <= m:
        draws = Counter(map(tuple, draws)).items()
    else:
        draws = ((values, 1) for values in draws)
    tally = {}
    for values, k in draws:
        ops.sort_values(board, values)
        key = tuple(board[:n])
        tally[key] = tally.get(key, 0) + k
    expected = m / count
    chi_square = sum((obs - expected) ** 2 for obs in tally.values()) / expected
    chi_square += (count - len(tally)) * expected
    return chi_square, count - 1


@pytest.fixture(scope="session")
def uniformity_by_counter():
    """The chi-square with the distinct fillings found by a `Counter` of
    tuples: an oracle for the integer-coded tally of `syt_uniformity_test`."""
    return _uniformity_by_counter
