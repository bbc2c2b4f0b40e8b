"""The tableau sorting engine: the column-wise sift with exchange counting,
hook-tableau bookkeeping, and bijection certification over all n! fillings.

Entries are processed cell by cell, rightmost column first and bottom to top
within a column.  Each entry is repeatedly exchanged with the smaller of its
South/East neighbours until both are larger (or it sits in a corner).  While
an entry drops from (i, j) to (i', j'), the hook tableau column segment below
the start cell shifts up with a decrement and the landing row records the
column displacement j' - j.
"""

from collections import Counter
from dataclasses import dataclass
from math import factorial
from typing import NamedTuple

from .partitions import Partition, conjugate, hook_product, reverse_lex_cells, syt_count

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

    __slots__ = ("shape", "n", "order", "south", "east", "coord")

    def __init__(self, shape):
        n = shape.size
        offsets = []
        acc = 0
        for p in shape.parts:
            offsets.append(acc)
            acc += p
        flat = {}
        coord = [None] * n
        for i in range(1, len(shape.parts) + 1):
            for j in range(1, shape.parts[i - 1] + 1):
                idx = offsets[i - 1] + j - 1
                flat[(i, j)] = idx
                coord[idx] = (i, j)
        south = [n] * n
        east = [n] * n
        for (i, j), idx in flat.items():
            if (i + 1, j) in flat:
                south[idx] = flat[(i + 1, j)]
            if (i, j + 1) in flat:
                east[idx] = flat[(i, j + 1)]
        self.shape = shape
        self.n = n
        self.order = tuple(flat[c] for c in reverse_lex_cells(shape))
        self.south = south
        self.east = east
        self.coord = tuple(coord)

    def new_board(self):
        board = [0] * (self.n + 1)
        board[self.n] = self.n + 2
        return board

    def fill(self, board, values):
        order = self.order
        for t, v in enumerate(values):
            board[order[t]] = v

    def board_of(self, tableau):
        board = self.new_board()
        k = 0
        for row in tableau.rows:
            for v in row:
                board[k] = v
                k += 1
        return board

    def rows_from_board(self, board):
        out = []
        k = 0
        for p in self.shape.parts:
            out.append(tuple(board[k:k + p]))
            k += p
        return tuple(out)

    def sort_board(self, board):
        """Run the sort in place, returning the total number of exchanges."""
        total = 0
        south = self.south
        east = self.east
        for c in self.order:
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

    def sift_cell(self, board, c, v):
        """Sift the value v down from index c in place, returning the landing
        index.  Only cells South-East of c are read or written, and those are
        all processed before c.  The exchanges are (i1 - i0) + (j1 - j0)."""
        south = self.south
        east = self.east
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

    def sift_cell_with_hooks(self, board, hooks, start, v):
        """sift_cell plus the hook rule: the column segment below `start`
        shifts up with a decrement and the landing row records the column
        displacement.  Returns the landing index."""
        c = self.sift_cell(board, start, v)
        i0, j0 = self.coord[start]
        i1, j1 = self.coord[c]
        south = self.south
        walk = start
        for _ in range(i1 - i0):
            nxt = south[walk]
            hooks[walk] = hooks[nxt] - 1
            walk = nxt
        hooks[walk] = j1 - j0
        return c

    def sort_board_with_hooks(self, board):
        """Sort in place; returns (exchanges, hook array, per-entry moves).

        Each move is (value, start index, end index, exchanges).
        """
        total = 0
        coord = self.coord
        hooks = [0] * self.n
        moves = []
        for start in self.order:
            v = board[start]
            c = self.sift_cell_with_hooks(board, hooks, start, v)
            (i0, j0), (i1, j1) = coord[start], coord[c]
            swaps = (i1 - i0) + (j1 - j0)
            total += swaps
            moves.append((v, start, c, swaps))
        return total, hooks, moves


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
    board = ops.board_of(tableau)
    total, hooks, moves = ops.sort_board_with_hooks(board)
    trace = tuple(
        EntryTrace(v, ops.coord[a], ops.coord[b], swaps) for v, a, b, swaps in moves
    )
    output = Tableau(tableau.shape, ops.rows_from_board(board))
    hook_rows = []
    k = 0
    for p in tableau.shape.parts:
        hook_rows.append(tuple(hooks[k:k + p]))
        k += p
    outcome = NpsOutcome(output, HookTableau(tableau.shape, hook_rows), total, trace)
    if not output.is_standard():
        raise AssertionError(f"sort produced a non-standard tableau from {tableau}")
    return outcome


def _walk_orders(ops, board, hooks, t, pairs, tally):
    """Extend the sifted board (ranks 1..t on the t processed cells) and its
    hooks by each rank r of the next value among the first t + 1, depth
    first, adding every full filling's (output, hooks) pair to `pairs` and
    tallying it under its output in `tally`.

    The sift only compares values, so the landing cell, the hook rule and
    the sifted board, up to relabelling, depend only on the relative order
    of the values so far; at depth n the ranks are the values.  The
    children run from r = t + 1 down to 1, and before each one rank r moves
    up to r + 1 on this board, which leaves room for the new value r.
    Each child works on copies.
    """
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
        ops.sift_cell_with_hooks(b, h, start, r)
        _walk_orders(ops, b, h, t + 1, pairs, tally)


def verify_bijection(shape, cutoff=DEFAULT_ENUMERATION_CUTOFF):
    """Run the sort over every filling and certify the bijection onto
    (standard tableau, hook tableau) pairs by injectivity and cardinality.

    Sifting a cell touches only cells processed before it and only compares
    values, so fillings whose prefixes in processing order have the same
    relative order share their sifts: the walk over relative orders sifts
    each one once, t! boards at depth t."""
    n = shape.size
    if n > cutoff:
        raise ValueError(f"size {n} exceeds enumeration cutoff {cutoff}")
    ops = shape_ops(shape)
    pairs = set()
    syt_tally = Counter()
    _walk_orders(ops, ops.new_board(), [0] * n, 0, pairs, syt_tally)
    expected = factorial(n)
    hooks_count = hook_product(shape)
    injective = len(pairs) == expected
    uniform = (len(syt_tally) == syt_count(shape)
               and all(v == hooks_count for v in syt_tally.values()))
    return BijectionReport(shape, len(pairs), expected, injective, dict(syt_tally), uniform)
