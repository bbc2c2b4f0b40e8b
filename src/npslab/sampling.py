"""Seeded random tableau generation and Monte Carlo estimation.

Randomness comes from counter-based Philox streams keyed by (seed, stream
id): identical keys reproduce identical draws and distinct stream ids are
independent.  Draws are taken CHUNK = 512 per stream id, a layout kept so
that the draws of every (shape, m, seed) stay bit-identical.
"""

import math
from collections import namedtuple
from itertools import chain, repeat
from operator import mul

from .nps import Tableau, shape_ops, sort_lanes
from .partitions import SizeGuardError, syt_count

__all__ = [
    "SeededStream",
    "random_tableau",
    "estimate_avg_case",
    "estimate_avg_cases",
    "syt_uniformity_test",
    "CHUNK",
]

CHUNK = 512
# The largest run, in draws x cells, that `estimate_avg_case` and
# `syt_uniformity_test` take on.  At the lane sift's fastest measured rate,
# about 2.4e7 draw entries/s on (4,3,1) on a 2-vCPU Intel Xeon (1.3e7 on
# 7x7), a run of that size takes about 40 s.
MAX_DRAW_ENTRIES = 10**9
_BLOCK_ENTRIES = 2**12
# The lane sift takes a run of at least _MIN_LANES draws, counted over all
# the shapes of a call, whose batches hold at least that many padded frames
# within _LANE_BYTES bytes; below either, numpy's fixed cost per step
# outweighs the lanes.  512 frames of every square up to 63x63 fit (two
# bytes an entry from 16x16 on).  A batch holds at most _MAX_LANES frames:
# the step loop keeps int64 arrays of about 100 bytes a lane, and on 7x7
# with 60,000 draws 65,536 lanes took 0.51 s and 13 MB more peak RSS,
# against 0.24 s at 8,192.
_MIN_LANES = 2**9
_MAX_LANES = 2**13
_LANE_BYTES = 2**22
_TALLY_CODES = 2**12
# The largest n with (n + 1)^n <= 2^63, so that a draw's code fits an int64.
_CODED_SIZE = 15


class SeededStream(namedtuple("SeededStream", "seed stream_id", defaults=(0,))):
    """A reproducible random stream: master seed plus a substream id."""

    __slots__ = ()

    def generator(self):
        import numpy as np  # here, not at module level: commands that draw nothing skip its import
        key = np.array([self.seed % 2**64, self.stream_id % 2**64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def random_tableau(shape, stream):
    """A uniformly random filling: an unbiased shuffle of 1..n assigned to
    the cells in processing order."""
    ops = shape_ops(shape)
    perm = stream.generator().permutation(shape.size) + 1
    board = [0] * shape.size
    for c, v in zip(ops.order, perm.tolist()):
        board[c] = v
    # the Tableau constructor's checks, on the flat board
    if sorted(board) != ops.one_to_n:
        raise ValueError("entries are not a bijection onto 1..n")
    return Tableau._from_flat(ops, board)


def _draw_blocks(shape, m, seed):
    """Yield m random value sequences as int64 arrays of rows, CHUNK per
    stream id.

    Each stream draws its rows in blocks of at most _BLOCK_ENTRIES values
    (one row when a row is longer), so memory does not grow with n x CHUNK.
    One `permuted` call shuffles the rows of a block one after another,
    exactly as one `permutation` call per row would: the rows are
    bit-identical to those of `rng.permutation(n) + 1` drawn one by one.
    """
    import numpy as np
    n = shape.size
    rows_per_block = max(1, _BLOCK_ENTRIES // max(n, 1))
    values = np.arange(1, n + 1, dtype=np.int64)
    produced = 0
    chunk_index = 0
    while produced < m:
        rng = SeededStream(seed, chunk_index).generator()
        chunk_end = produced + min(CHUNK, m - produced)
        while produced < chunk_end:
            rows = min(rows_per_block, chunk_end - produced)
            yield rng.permuted(np.broadcast_to(values, (rows, n)), axis=1)
            produced += rows
        chunk_index += 1


def _distinct_draws(shape, m, seed):
    """(values, count) for each distinct filling among the m draws, in the
    order of its first draw.

    A draw is coded as sum_k v_k (n + 1)^k, below 2^63 for n <= _CODED_SIZE.
    Every _TALLY_CODES draws the codes are merged into the tally (code,
    first draw, count) by one stable sort, so a code keeps its first draw
    and memory is bounded by that buffer and by the n! possible fillings.
    """
    import numpy as np
    n = shape.size
    powers = (n + 1) ** np.arange(n, dtype=np.int64)
    tally = np.empty((3, 0), np.int64)
    pending, start, drawn = [], 0, 0
    for block in _draw_blocks(shape, m, seed):
        pending.append(block @ powers)
        drawn += len(block)
        if drawn - start >= _TALLY_CODES or drawn == m:
            codes = np.concatenate(pending)
            new = np.stack((codes, np.arange(start, drawn), np.ones_like(codes)))
            tally = np.concatenate((tally, new), axis=1)
            tally = tally[:, np.argsort(tally[0], kind="stable")]
            heads = np.flatnonzero(np.diff(tally[0], prepend=-1))
            tally = np.stack((tally[0, heads], tally[1, heads], np.add.reduceat(tally[2], heads)))
            pending, start = [], drawn
    codes, _, counts = tally[:, np.argsort(tally[1])]
    return zip((codes[:, None] // powers % (n + 1)).tolist(), counts.tolist())


def _check_draws(shape, m):
    """Refuse a run of fewer than two draws, or of more than
    MAX_DRAW_ENTRIES draw entries, before any draw."""
    if m < 2:
        raise SizeGuardError("need at least two samples")
    if m * shape.size > MAX_DRAW_ENTRIES:
        raise SizeGuardError(f"{m} draws of {shape.size} cells exceed the budget of "
                             f"MAX_DRAW_ENTRIES = {MAX_DRAW_ENTRIES} draw entries")


def _lane_batches(shapes, m, seed, lanes, dtype):
    """The draws of `_draw_blocks` of each (k, shape) of `shapes` in turn,
    as arrays of `lanes` rows in `dtype`, the last one shorter, a draw in
    the first n entries of its row, each array with its runs [k, count]:
    `count` draws of shape k, in order.  The first shape is the largest;
    one buffer is filled again for each batch."""
    import numpy as np
    batch = np.empty((min(len(shapes) * m, lanes), shapes[0][1].size), dtype=dtype)
    filled, runs = 0, []
    for k, shape in shapes:
        n = shape.size
        for block in _draw_blocks(shape, m, seed):
            while len(block):
                take = min(len(block), len(batch) - filled)
                batch[filled:filled + take, :n] = block[:take]
                block = block[take:]
                filled += take
                if runs and runs[-1][0] == k:
                    runs[-1][1] += take
                else:
                    runs.append([k, take])
                if filled == len(batch):
                    yield runs, batch
                    filled, runs = 0, []
    if filled:
        yield runs, batch[:filled]


def _sift_weighted(ops, draws, tally=None):
    """Sift each (values, weight) of `draws` on one board; return the weighted
    sums of the exchange counts and of their squares.  When `tally` is a dict,
    each sorted board, a tuple of its cell values, is counted `weight` times."""
    board = ops.new_board()
    total = total_sq = 0
    for values, weight in draws:
        count = ops.sort_values(board, values)
        total += weight * count
        total_sq += weight * count * count
        if tally is not None:
            key = tuple(board[:ops.n])
            tally[key] = tally.get(key, 0) + weight
    return total, total_sq


def _sort_draws(shapes, m, seed, tally=None):
    """Sort the m draws of each shape; return per shape the sum of their
    exchange counts and the sum of the squares, as ints.  When `tally` is a
    dict, each sorted board, a tuple of its cell values, is counted in it in
    draw order (a call of one shape).

    When all the shapes together have at least _MIN_LANES draws, they go
    through `sort_lanes` in batches of as many padded frames as _LANE_BYTES
    bytes hold, a frame fitting every shape of the call and its entries
    taking the bytes of the smallest unsigned type that holds the largest
    n + 2, up to _MAX_LANES frames, when that is at least _MIN_LANES: the
    shapes' draws one after another, the largest shape first, so one batch
    can hold the draws of many shapes.  Otherwise each draw goes through
    `_sift_weighted`, one at a time.  Both give the same counts and boards."""
    if not shapes:
        return []
    import numpy as np
    dtype = np.min_scalar_type(max(shape.size for shape in shapes) + 2)
    frame = ((max(len(shape.parts) for shape in shapes) + 1)
             * (max(shape.row(1) for shape in shapes) + 1))
    lanes = min(_LANE_BYTES // (frame * dtype.itemsize), _MAX_LANES)
    if len(shapes) * m < _MIN_LANES or lanes < _MIN_LANES:
        return [_sift_weighted(shape_ops(shape), zip(chain.from_iterable(
            block.tolist() for block in _draw_blocks(shape, m, seed)), repeat(1)), tally)
            for shape in shapes]
    sums = [[0, 0] for _ in shapes]
    largest_first = sorted(enumerate(shapes), key=lambda item: -item[1].size)
    for runs, batch in _lane_batches(largest_first, m, seed, lanes, dtype):
        counts, boards = sort_lanes([(shape_ops(shapes[k]), count) for k, count in runs], batch)
        counts = counts.tolist()
        end = 0
        for (k, count), sorted_boards in zip(runs, boards):
            part = counts[end:end + count]
            end += count
            sums[k][0] += sum(part)
            sums[k][1] += sum(map(mul, part, part))
            if tally is not None:
                for key in map(tuple, sorted_boards.tolist()):
                    tally[key] = tally.get(key, 0) + 1
    return list(map(tuple, sums))


def estimate_avg_cases(shapes, m, seed):
    """Monte Carlo estimates of the average exchange count of each shape.

    Returns (mean, stderr) per shape over m independent uniform fillings,
    each shape's draws and result those of `estimate_avg_case` on it
    alone; stderr uses the unbiased sample variance.  All the shapes'
    draws are sorted together, in one lane batch where they fit
    (`_sort_draws`).  Refuses a run of fewer than two draws or above
    MAX_DRAW_ENTRIES, shape by shape, before any draw.
    """
    for shape in shapes:
        _check_draws(shape, m)
    estimates = []
    for total, total_sq in _sort_draws(shapes, m, seed):
        variance = (total_sq - total * total / m) / (m - 1)
        estimates.append((total / m, math.sqrt(max(variance, 0.0) / m)))
    return estimates


def estimate_avg_case(shape, m, seed):
    """Monte Carlo estimate of the average exchange count.

    Returns (mean, stderr) over m independent uniform fillings; stderr uses
    the unbiased sample variance.  Refuses a run above MAX_DRAW_ENTRIES.
    """
    return estimate_avg_cases([shape], m, seed)[0]


def syt_uniformity_test(shape, m, seed):
    """Pearson chi-square of the sorted outputs against uniformity.

    Requires the standard tableau count to be small enough to tabulate
    (<= 10^4), m at least ten times that count and m draws within
    MAX_DRAW_ENTRIES; returns (chi_square, dof) with dof = count - 1.  When
    n! <= m (and n <= 15) the draws are tallied by an integer code of their
    filling first, so each distinct filling is sorted once; the outputs are
    tallied in the order of their first draw either way.
    """
    count = syt_count(shape)
    if count > 10**4:
        raise SizeGuardError(f"{count} standard tableaux is too many to tabulate")
    if m < 10 * count:
        raise SizeGuardError(f"need m >= {10 * count} draws for {count} classes")
    _check_draws(shape, m)
    n = shape.size
    tally = {}
    if n <= _CODED_SIZE and math.factorial(n) <= m:
        _sift_weighted(shape_ops(shape), _distinct_draws(shape, m, seed), tally)
    else:
        _sort_draws([shape], m, seed, tally)
    expected = m / count
    chi_square = sum((obs - expected) ** 2 for obs in tally.values()) / expected
    chi_square += (count - len(tally)) * expected  # classes never observed
    return chi_square, count - 1
