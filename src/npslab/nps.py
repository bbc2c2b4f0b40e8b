"""The tableau sorting engine: the column-wise sift with exchange counting,
hook-tableau bookkeeping, and bijection certification over all n! fillings.

Entries are processed cell by cell, rightmost column first and bottom to top
within a column.  Each entry is repeatedly exchanged with the smaller of its
South/East neighbours until both are larger (or it sits in a corner).  While
an entry drops from (i, j) to (i', j'), the hook tableau column segment below
the start cell shifts up with a decrement and the landing row records the
column displacement j' - j.

The n! walks read that path once per sifted board as the slide chain of the
start cell, which does not depend on the entry: an entry lands at the first
chain cell whose successor's prefix-maximum rank exceeds it.  They key boards
and hook arrays by integer codes, sum value * (n + 2)^index.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from math import factorial
from typing import NamedTuple

from .partitions import (Partition, SizeGuardError, conjugate, hook_product,
                         reverse_lex_cells, syt_count)

__all__ = [
    "Tableau",
    "HookTableau",
    "EntryTrace",
    "NpsOutcome",
    "BijectionReport",
    "nps_sort",
    "verify_bijection",
    "DEFAULT_ENUMERATION_CUTOFF",
]

DEFAULT_ENUMERATION_CUTOFF = 9


class Tableau:
    """A bijective filling of a Young diagram with the numbers 1..n."""

    __slots__ = ("shape", "rows")

    def __init__(self, shape, rows):
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        if tuple(len(r) for r in rows) != shape.parts:
            raise ValueError(f"rows {rows} do not match shape {shape}")
        values = sorted(v for row in rows for v in row)
        if values != list(range(1, shape.size + 1)):
            raise ValueError("entries are not a bijection onto 1..n")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Tableau is immutable")

    @classmethod
    def from_rows(cls, rows):
        rows = tuple(tuple(row) for row in rows)
        return cls(Partition(len(r) for r in rows), rows)

    @classmethod
    def parse(cls, text):
        """Parse the textual form "4,2;3,1": rows separated by semicolons."""
        rows = [[int(v) for v in row.split(",")] for row in text.strip().split(";") if row.strip()]
        return cls.from_rows(rows)

    def format(self):
        return ";".join(",".join(str(v) for v in row) for row in self.rows)

    def entry(self, i, j):
        return self.rows[i - 1][j - 1]

    def is_standard(self):
        for i, row in enumerate(self.rows):
            for j, v in enumerate(row):
                if j + 1 < len(row) and row[j + 1] < v:
                    return False
                if i + 1 < len(self.rows) and j < len(self.rows[i + 1]) and self.rows[i + 1][j] < v:
                    return False
        return True

    def __eq__(self, other):
        return isinstance(other, Tableau) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Tableau({self.format()!r})"


class HookTableau:
    """An integer filling with -leg(i,j) <= H(i,j) <= arm(i,j) at every cell.

    Not a tableau: entries repeat and may be negative.
    """

    __slots__ = ("shape", "rows")

    def __init__(self, shape, rows):
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        if tuple(len(r) for r in rows) != shape.parts:
            raise ValueError(f"rows {rows} do not match shape {shape}")
        heights = conjugate(shape).parts
        for i, row in enumerate(rows, start=1):
            for j, v in enumerate(row, start=1):
                if not i - heights[j - 1] <= v <= len(row) - j:
                    raise ValueError(f"entry {v} at ({i},{j}) outside [-leg, arm]")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("HookTableau is immutable")

    def entry(self, i, j):
        return self.rows[i - 1][j - 1]

    def __eq__(self, other):
        return isinstance(other, HookTableau) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        rows = ";".join(",".join(str(v) for v in row) for row in self.rows)
        return f"HookTableau({rows!r})"


class EntryTrace(NamedTuple):
    value: int
    start: tuple
    end: tuple
    exchanges: int


@dataclass(frozen=True)
class NpsOutcome:
    output: Tableau
    hooks: HookTableau
    exchanges: int
    trace: tuple


@dataclass(frozen=True)
class BijectionReport:
    shape: Partition
    distinct_pairs: int
    expected: int
    injective: bool
    each_syt_count: dict
    uniform: bool


class _ShapeOps:
    """Flat-array layout of a shape, precomputed for the inner sorting loop.

    Cells map to indices offsets[i-1] + (j-1); index n is a sentinel holding
    a value larger than every entry, so missing neighbours never win a swap.
    """

    __slots__ = ("shape", "n", "order", "south", "east", "coord", "depth", "depth_sum")

    def __init__(self, shape):
        n = shape.size
        coord = tuple((i, j) for i, p in enumerate(shape.parts, 1) for j in range(1, p + 1))
        flat = {c: idx for idx, c in enumerate(coord)}
        self.shape = shape
        self.n = n
        self.order = tuple(flat[c] for c in reverse_lex_cells(shape))
        self.south = [flat.get((i + 1, j), n) for i, j in coord]
        self.east = [flat.get((i, j + 1), n) for i, j in coord]
        self.coord = coord
        self.depth = [i + j for i, j in coord]
        self.depth_sum = sum(self.depth)

    def new_board(self):
        board = [0] * (self.n + 1)
        board[self.n] = self.n + 2
        return board

    def rows_from_board(self, board):
        parts = self.shape.parts
        return tuple(tuple(board[k:k + p]) for k, p in zip(accumulate(parts, initial=0), parts))

    def sort_values(self, board, values):
        """Sift values[t] from the t-th processed cell for every t, in place,
        returning the number of exchanges.  No fill pass runs first: a sift
        reads only cells processed before its own, so the board's earlier
        contents never matter.  The moving value is written once, at its
        landing cell, and the exchanges of a sift are the rise of the depth
        i + j from its start to its landing, so the total is the sum of the
        landing depths less that of all cells."""
        south = self.south
        east = self.east
        depth = self.depth
        total = -self.depth_sum
        for c, v in zip(self.order, values):
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
            total += depth[c]
        return total

    def slide_chain(self, board, start):
        """The smaller-neighbour chain from `start`: cells p0 = start, p1, ...,
        each the smaller of the South and East neighbours of the one before,
        up to the sentinel, with ranks[k] = board[p(k+1)] (the sentinel's
        last).  A value v sifted from `start` slides p1..pm up one step and
        lands at pm after m exchanges, for the first m whose prefix-maximum
        rank exceeds v: the rule of `sort_values`, for every v at once."""
        south = self.south
        east = self.east
        n = self.n
        cells = [start]
        ranks = []
        c = start
        while True:
            s = south[c]
            e = east[c]
            c = s if board[s] < board[e] else e
            ranks.append(board[c])
            if c == n:
                return cells, ranks
            cells.append(c)

    def landings(self, board, t, powers):
        """Land each rank r = 1..t + 1 of a new value at the t-th processed
        cell on its `slide_chain`, yielding (cells, m, r, shift): r lands at
        cells[m], the first m whose prefix-maximum rank is at least r, and
        the child's code sum board[c] * powers[c] is `shift` above this
        board's.  The board is only read: in the child the ranks r and above
        move up by one (`slid` builds it), so `cell_of[k]`, the cell of rank
        k, gives the code shift as rank r drops back before child r + 1."""
        cells, ranks = self.slide_chain(board, self.order[t])
        cell_of = [0] * (t + 2)
        shift = 0
        for c in self.order[:t]:
            cell_of[board[c]] = c
            shift += powers[c]
        m = 0
        peak = ranks[0]
        for r in range(1, t + 2):
            while peak < r:
                shift += ranks[m] * (powers[cells[m]] - powers[cells[m + 1]])
                m += 1
                if peak < ranks[m]:
                    peak = ranks[m]
            yield cells, m, r, shift + r * powers[cells[m]]
            shift -= powers[cell_of[r]]


def slid(board, cells, m, r):
    """A copy of the board with the ranks r and above raised by one (the
    sentinel too, which keeps it above every rank), cells[1..m] moved up
    one step along the chain and r put at cells[m]."""
    board = [v + 1 if v >= r else v for v in board]
    for k in range(m):
        board[cells[k]] = board[cells[k + 1]]
    board[cells[m]] = r
    return board


_OPS_CACHE = {}


def shape_ops(shape):
    ops = _OPS_CACHE.get(shape.parts)
    if ops is None:
        ops = _OPS_CACHE[shape.parts] = _ShapeOps(shape)
    return ops


def nps_sort(tableau):
    """Sort a tableau into a standard one, returning the standard output, the
    hook tableau, the exchange count and the per-entry drop trace."""
    ops = shape_ops(tableau.shape)
    south, east, coord = ops.south, ops.east, ops.coord
    board = ops.new_board()
    board[:ops.n] = [v for row in tableau.rows for v in row]
    hooks = [0] * ops.n
    total = 0
    trace = []
    for start in ops.order:
        v = board[start]
        c = start
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
        # the hooks of the column segment below the start shift up with a
        # decrement, and the landing row records the column displacement
        (i0, j0), (i1, j1) = coord[start], coord[c]
        walk = start
        for _ in range(i1 - i0):
            nxt = south[walk]
            hooks[walk] = hooks[nxt] - 1
            walk = nxt
        hooks[walk] = j1 - j0
        swaps = (i1 - i0) + (j1 - j0)
        total += swaps
        trace.append(EntryTrace(v, coord[start], coord[c], swaps))
    output = Tableau(tableau.shape, ops.rows_from_board(board))
    hook_tableau = HookTableau(tableau.shape, ops.rows_from_board(hooks))
    if not output.is_standard():
        raise AssertionError(f"sort produced a non-standard tableau from {tableau}")
    return NpsOutcome(output, hook_tableau, total, tuple(trace))


def _landing_groups(ops, powers, board, t, out):
    """The children of a node with code `out`, grouped by landing index:
    [(cells, m, r0, codes)], rank r0 + k landing at cells[m] with code
    codes[k]."""
    groups = []
    for cells, m, r, shift in ops.landings(board, t, powers):
        if not groups or groups[-1][1] != m:
            groups.append((cells, m, r, []))
        groups[-1][3].append(out + shift)
    return groups


def _walk_orders(ops, powers, board, hooks, out, hook_code, t, pairs, leaves):
    """Extend the sifted board (ranks 1..t on the t processed cells) by each
    rank of the next value, depth first.  `out` and `hook_code` are the
    codes of the board and the hooks; a full filling adds their sum to
    `pairs`.  The children landing at one chain index share one update of
    the hooks over the start column, made in place between groups: a child
    copies the hooks before writing.

    The leaf codes of a node one cell short of a full filling depend on its
    board alone, so `leaves` keeps them by board code, with the number of
    nodes that reached the board: each group of leaves is one C-level
    `pairs.update` with its hook code added."""
    n = ops.n
    start = ops.order[t]
    coord = ops.coord
    south = ops.south
    i0, j0 = coord[start]
    leaf = t + 1 == n
    if leaf:
        seen = leaves.get(out)
        if seen is None:
            seen = leaves[out] = [0, _landing_groups(ops, powers, board, t, out)]
        seen[0] += 1
        groups = seen[1]
    else:
        groups = _landing_groups(ops, powers, board, t, out)
    h = hooks[:]
    col = start
    for cells, m, r0, codes in groups:
        i1, j1 = coord[cells[m]]
        while coord[col][0] < i1:
            nxt = south[col]
            h[col] = hooks[nxt] - 1
            hook_code += (h[col] - hooks[col]) * powers[n + col]
            col = nxt
        h[col] = j1 - j0
        child_hooks = hook_code + (h[col] - hooks[col]) * powers[n + col]
        if leaf:
            pairs.update(map(child_hooks.__add__, codes))
        else:
            for r, child in enumerate(codes, r0):
                # a board already in `leaves` is not needed again
                known = t + 2 == n and child in leaves
                _walk_orders(ops, powers, None if known else slid(board, cells, m, r), h, child,
                             child_hooks, t + 1, pairs, leaves)


def verify_bijection(shape, cutoff=DEFAULT_ENUMERATION_CUTOFF):
    """Run the sort over every filling and certify the bijection onto
    (standard tableau, hook tableau) pairs by injectivity and cardinality.

    Sifting a cell touches only cells processed before it and only compares
    values, so fillings whose prefixes in processing order have the same
    relative order share their sifts.  The walk over relative orders reads
    each node's slide chain once and lands the t + 1 ranks of the next
    value on it: rank r at the first chain index whose prefix-maximum rank
    exceeds r.  A leaf is the output code sum rank * B^index, B = n + 2,
    plus the hook code sum H * B^(n + index); H lies in [-leg, arm], fewer
    than B values, so the signed digits decode uniquely.  Each output code
    is decoded to its flattened rows once, as a key of `each_syt_count`."""
    n = shape.size
    if n > cutoff:
        raise SizeGuardError(f"size {n} exceeds enumeration cutoff {cutoff}")
    ops = shape_ops(shape)
    base = n + 2
    powers = [base**k for k in range(2 * n)]
    pairs, leaves, tally = set(), {}, Counter()
    if n:
        _walk_orders(ops, powers, ops.new_board(), [0] * n, 0, 0, 0, pairs, leaves)
    else:
        pairs.add(0)
        tally[0] = 1
    # in order of first reach, as a walk counting leaf by leaf would insert them
    for visits, groups in leaves.values():
        for group in groups:
            for code in group[3]:
                tally[code] += visits
    expected = factorial(n)
    hooks_count = hook_product(shape)
    injective = len(pairs) == expected
    uniform = (len(tally) == syt_count(shape)
               and all(v == hooks_count for v in tally.values()))
    each = {tuple(code // powers[k] % base for k in range(n)): v for code, v in tally.items()}
    return BijectionReport(shape, len(pairs), expected, injective, each, uniform)
