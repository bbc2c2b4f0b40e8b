"""Seeded random tableau generation and Monte Carlo estimation.

Randomness comes from counter-based Philox streams keyed by (seed, stream
id): identical keys reproduce identical draws and distinct stream ids are
independent.  Draws are taken CHUNK = 512 per stream id, a layout kept so
that the draws of every (shape, m, seed) stay bit-identical.
"""

import math
from dataclasses import dataclass

from .nps import Tableau, shape_ops
from .partitions import SizeGuardError, syt_count

__all__ = [
    "SeededStream",
    "random_tableau",
    "estimate_avg_case",
    "syt_uniformity_test",
    "CHUNK",
]

CHUNK = 512
_BLOCK_ENTRIES = 2**12
_TALLY_CODES = 2**12
# The largest n with (n + 1)^n <= 2^63, so that a draw's code fits an int64.
_CODED_SIZE = 15


@dataclass(frozen=True)
class SeededStream:
    """A reproducible random stream: master seed plus a substream id."""

    seed: int
    stream_id: int = 0

    def generator(self):
        import numpy as np  # here, not at module level: commands that draw nothing skip its import
        key = np.array([self.seed % 2**64, self.stream_id % 2**64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def random_tableau(shape, stream):
    """A uniformly random filling: an unbiased shuffle of 1..n assigned to
    the cells in processing order."""
    ops = shape_ops(shape)
    perm = stream.generator().permutation(shape.size) + 1
    board = ops.new_board()
    for c, v in zip(ops.order, perm.tolist()):
        board[c] = v
    return Tableau(shape, ops.rows_from_board(board))


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


def estimate_avg_case(shape, m, seed):
    """Monte Carlo estimate of the average exchange count.

    Returns (mean, stderr) over m independent uniform fillings; stderr uses
    the unbiased sample variance.
    """
    if m < 2:
        raise SizeGuardError("need at least two samples")
    ops = shape_ops(shape)
    board = ops.new_board()
    total = 0
    total_sq = 0
    for block in _draw_blocks(shape, m, seed):
        for values in block.tolist():
            count = ops.sort_values(board, values)
            total += count
            total_sq += count * count
    mean = total / m
    variance = (total_sq - total * total / m) / (m - 1)
    return mean, math.sqrt(max(variance, 0.0) / m)


def syt_uniformity_test(shape, m, seed):
    """Pearson chi-square of the sorted outputs against uniformity.

    Requires the standard tableau count to be small enough to tabulate
    (<= 10^4) and m at least ten times that count; returns (chi_square, dof)
    with dof = count - 1.  When n! <= m (and n <= 15) the draws are tallied
    by an integer code of their filling first, so each distinct filling is
    sorted once; the outputs are tallied in the order of their first draw
    either way.
    """
    count = syt_count(shape)
    if count > 10**4:
        raise SizeGuardError(f"{count} standard tableaux is too many to tabulate")
    if m < 10 * count:
        raise SizeGuardError(f"need m >= {10 * count} draws for {count} classes")
    ops = shape_ops(shape)
    n = shape.size
    board = ops.new_board()
    tally = {}
    if n <= _CODED_SIZE and math.factorial(n) <= m:
        draws = _distinct_draws(shape, m, seed)
    else:
        draws = ((values, 1) for block in _draw_blocks(shape, m, seed) for values in block.tolist())
    for values, k in draws:
        ops.sort_values(board, values)
        key = tuple(board[:n])
        tally[key] = tally.get(key, 0) + k
    expected = m / count
    chi_square = sum((obs - expected) ** 2 for obs in tally.values()) / expected
    chi_square += (count - len(tally)) * expected  # classes never observed
    return chi_square, count - 1
