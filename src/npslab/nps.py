"""The tableau sorting engine: the column-wise sift with exchange counting,
hook-tableau bookkeeping, and bijection certification over all n! fillings.

Entries are processed cell by cell, rightmost column first and bottom to top
within a column.  Each entry is repeatedly exchanged with the smaller of its
South/East neighbours until both are larger (or it sits in a corner).  While
an entry drops from (i0, j0) to (i1, j1), the hook tableau column segment
below the start cell shifts up with a decrement and the landing row records
the column displacement j1 - j0.  In e(i, j) = H(i, j) - i the decremented
shift leaves e unchanged, so the sift inserts the value j1 - j0 - i1 at
index i1 - i0 of the list of e over the processed cells of column j0, top
row first: the insertion rule.

The step-by-step sift has two forms.  `_ShapeOps.sort_values` sifts one
draw on a flat list board whose neighbours come from the ops tables:
`nps_sort` builds the hooks by the insertion rule and the trace from its
landing cells, and checks its output by the sorted entries 1..n, by the
constructors' integer checks and by the two filling rules, each stated once
on the shape's ops and called by `Tableau` and `HookTableau` too:
`is_standard` compares each entry with its South and East neighbours, and
`check_hooks` holds the hooks to [-leg, arm].  `sort_lanes` sifts draws
at once in numpy, one padded board per draw, the draws of one shape or of
several in one batch, and returns the same counts and boards; the Monte
Carlo routines of `sampling` use it on runs of many draws.

The two n! routes, `verify_bijection` and `complexity.exchange_stats`, fold
the last level of one walk, `_prefix_walk`, which goes level by level and
merges the prefixes that sift to the same board, keyed by the integer code
sum value * (n + 2)^index, with their count, exchange sum and maximum.  It
reads the sift path once per sorted board as the slide chain of the start
cell, which does not depend on the entry: an entry lands at the first chain
cell whose successor's rank exceeds it.  Ranks rise strictly along the
chain, because the processed cells of a sorted board form a standard
filling, the invariant behind the NPS bijection.  `verify_bijection` gives
the walk a payload, one integer hook code per prefix in the same base, in
which the insertion rule inserts a digit; its last-level sets, decoded,
are the (output, hooks) pairs of `nps_sort`.
"""

from collections import defaultdict, namedtuple
from functools import lru_cache
from itertools import accumulate, chain, repeat
from math import factorial
from operator import add, le, lt, sub

from .partitions import (Partition, SizeGuardError, _arms_legs, _Frozen, _integers, hook_product,
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
# `verify_bijection` holds the hook code of every filling at the last level,
# n! codes: (4,3,2,1) takes about 0.8 s and a peak RSS of 165 MB on a 2-vCPU
# Xeon with Python 3.11, 149 MB above the interpreter, so a shape of size 11
# would need about 1.7 GB and the budget admits every shape of size 10 only.
MAX_BIJECTION_FILLINGS = factorial(10)


class _Filling(_Frozen):
    """Integer rows on the cells of a shape, immutable and equal by rows to
    a filling of the same type."""

    __slots__ = ("shape", "rows")

    def __init__(self, shape, rows):
        rows = tuple(_integers(row, "entry", i) for i, row in enumerate(rows, start=1))
        if tuple(len(r) for r in rows) != shape.parts:
            raise ValueError(f"rows {rows} do not match shape {shape}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _from_flat(cls, ops, flat):
        """A filling of `ops.shape` from its n entries in cell order, cut
        into rows by the shape's slices, so the rows fit the shape, with the
        integer check of the constructor made as one pass over all the
        entries.  The checks of the subclass are the caller's."""
        filling = object.__new__(cls)
        object.__setattr__(filling, "shape", ops.shape)
        object.__setattr__(filling, "rows", ops.rows_from_board(_integers(flat, "entry")))
        return filling

    def __reduce__(self):
        return (type(self), (self.shape, self.rows))

    def __eq__(self, other):
        return self.rows == other.rows if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash((self.shape, self.rows))

    def entry(self, i, j):
        return self.rows[i - 1][j - 1]

    def format(self):
        return ";".join(",".join(str(v) for v in row) for row in self.rows)

    def __repr__(self):
        return f"{type(self).__name__}({self.format()!r})"


class Tableau(_Filling):
    """A bijective filling of a Young diagram with the numbers 1..n."""

    __slots__ = ()

    def __init__(self, shape, rows):
        super().__init__(shape, rows)
        if sorted(v for row in self.rows for v in row) != list(range(1, shape.size + 1)):
            raise ValueError("entries are not a bijection onto 1..n")

    @classmethod
    def from_rows(cls, rows):
        rows = tuple(tuple(row) for row in rows)
        return cls(Partition(len(r) for r in rows), rows)

    @classmethod
    def parse(cls, text):
        """Parse the textual form "4,2;3,1": rows separated by semicolons."""
        rows = [[int(v) for v in row.split(",")] for row in text.strip().split(";") if row.strip()]
        return cls.from_rows(rows)

    def is_standard(self):
        ops = shape_ops(self.shape)
        return ops.is_standard([*chain.from_iterable(self.rows), ops.n + 2])


class HookTableau(_Filling):
    """An integer filling with -leg(i,j) <= H(i,j) <= arm(i,j) at every cell.

    Not a tableau: entries repeat and may be negative.
    """

    __slots__ = ()

    def __init__(self, shape, rows):
        super().__init__(shape, rows)
        shape_ops(shape).check_hooks(list(chain.from_iterable(self.rows)))


EntryTrace = namedtuple("EntryTrace", "value start end exchanges")
NpsOutcome = namedtuple("NpsOutcome", "output hooks exchanges trace")
BijectionReport = namedtuple("BijectionReport",
                             "shape distinct_pairs expected injective each_syt_count uniform")


class _ShapeOps:
    """Flat-array layout of a shape, precomputed for the inner sorting loop.

    Cells map to indices offsets[i-1] + (j-1); index n is a sentinel holding
    a value larger than every entry, so missing neighbours never win a swap.
    """

    __slots__ = ("shape", "n", "order", "south", "east", "coord", "depth", "depth_sum",
                 "starts", "min_hooks", "max_hooks", "heights", "by_columns", "rows_of",
                 "row_slices", "one_to_n")

    def __init__(self, shape):
        n = shape.size
        coord = tuple(shape.cells())
        flat = {c: idx for idx, c in enumerate(coord)}
        self.shape = shape
        self.n = n
        self.order = tuple(flat[c] for c in reverse_lex_cells(shape))
        self.south = [flat.get((i + 1, j), n) for i, j in coord]
        self.east = [flat.get((i, j + 1), n) for i, j in coord]
        self.coord = coord
        self.depth = [i + j for i, j in coord]
        self.depth_sum = sum(self.depth)
        # what `nps_sort` reads besides the sift: the start cell of each sift,
        # the range [-leg, arm] of H, the column heights (one more than the
        # legs of the first row), each cell's index in the column-major order
        # and its row
        self.starts = tuple(coord[c] for c in self.order)
        arms_legs = _arms_legs(shape)
        self.min_hooks = [-leg for _, leg in arms_legs]
        self.max_hooks = [arm for arm, _ in arms_legs]
        self.heights = [leg + 1 for _, leg in arms_legs[:shape.row(1)]]
        tops = list(accumulate(self.heights, initial=0))
        self.by_columns = [tops[j - 1] + i - 1 for i, j in coord]
        self.rows_of = [i for i, _ in coord]
        # the cells of each row in the flat order, and the entries of a tableau
        self.row_slices = [slice(k, k + p) for k, p in zip(accumulate(shape.parts, initial=0),
                                                          shape.parts)]
        self.one_to_n = list(range(1, n + 1))

    def new_board(self):
        board = [0] * (self.n + 1)
        board[self.n] = self.n + 2
        return board

    def rows_from_board(self, board):
        return tuple(map(tuple, map(board.__getitem__, self.row_slices)))

    def check_hooks(self, hooks):
        """Refuse hooks in cell order outside [-leg, arm], naming the first such cell."""
        low, high = self.min_hooks, self.max_hooks
        if not all(map(le, low, hooks)) or not all(map(le, hooks, high)):
            k = next(k for k, v in enumerate(hooks) if not low[k] <= v <= high[k])
            i, j = self.coord[k]
            raise ValueError(f"entry {hooks[k]} at ({i},{j}) outside [-leg, arm]")

    def is_standard(self, board):
        """Whether each entry of a board in cell order, the sentinel at index
        n above them all, is below its South and East neighbours."""
        entries = board[:self.n]
        return (all(map(lt, entries, map(board.__getitem__, self.south)))
                and all(map(lt, entries, map(board.__getitem__, self.east))))

    def sort_values(self, board, values, landed=None):
        """Sift values[t] from the t-th processed cell for every t, in place,
        returning the number of exchanges.  No fill pass runs first: a sift
        reads only cells processed before its own, so the board's earlier
        contents never matter.  The moving value is written once, at its
        landing cell, and the exchanges of a sift are the rise of the depth
        i + j from its start to its landing, so the total is the sum of the
        landing depths less that of all cells.  When `landed` is a list, the
        landing cell of each sift is appended to it, in processing order."""
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
            if landed is not None:
                landed.append(c)
        return total

    def slide_chain(self, board, start):
        """The smaller-neighbour chain from `start`: cells p0 = start, p1, ...,
        each the smaller of the South and East neighbours of the one before,
        up to the sentinel, with ranks[k] = board[p(k+1)] (the sentinel's
        last).  A value v sifted from `start` slides p1..pm up one step and
        lands at pm after m exchanges, for the first m whose rank exceeds v:
        the rule of `sort_values`, for every v at once.  The ranks rise
        strictly, as the chain runs South and East over processed cells."""
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

    def landings(self, board, t, code, powers):
        """Land each rank r = 1..t + 1 of a new value at the t-th processed
        cell on its `slide_chain`, grouped by landing index: a list of
        (cells, m, r0, codes), rank r0 + k landing at cells[m], the first m
        whose rank is at least it, with child code codes[k],
        the sum board[c] * powers[c] of a board whose own code is `code`.
        The board is only read: in the child the ranks r and above move up
        by one (`slid` builds it), so `cell_of[k]`, the cell of rank k,
        gives the code shift as rank r drops back before child r + 1."""
        cells, ranks = self.slide_chain(board, self.order[t])
        cell_of = [0] * (t + 2)
        shift = code
        for c in self.order[:t]:
            cell_of[board[c]] = c
            shift += powers[c]
        groups = []
        m = 0
        for r in range(1, t + 2):
            if ranks[m] < r or not groups:
                while ranks[m] < r:
                    shift += ranks[m] * (powers[cells[m]] - powers[cells[m + 1]])
                    m += 1
                codes = []
                groups.append((cells, m, r, codes))
            codes.append(shift + r * powers[cells[m]])
            shift -= powers[cell_of[r]]
        return groups


def sort_lanes(groups, values):
    """The sift of `sort_values` on many boards at once, of one shape or of
    several: `groups` lists (ops, k) pairs by size, the largest first, and
    the rows of the 2-D int array `values` are their draws in that order, k
    of `ops.shape` each, a draw in processing order in the first n entries
    of its row.  Each draw is sifted on a board of its own, a lane.  Returns
    the exchange count of each lane and, per group, its sorted boards, one
    row of the shape's n cell values per draw.

    Every lane is a padded frame of (rows + 1) x (lambda_1 + 1) entries, the
    most rows and the longest first row of the batch, of the smallest
    unsigned type that holds the sentinel n + 2 of the largest shape (one
    byte up to n = 253, two up to 65,533), the sentinel off each shape, so
    South is p + W and East p + 1.  The t-th processed cell of each shape
    is a frame position in the table `starts`.  At processed cell t only the
    g shapes with n > t take part; their lanes are a prefix of the batch,
    and each starts at its shape's cell, the t-th row of the table repeated
    by the lane counts.  Each processed cell runs one loop over the lanes
    still sifting it, each step a few whole-array numpy calls: the smaller
    neighbour m is read, the cell gets min(m, v), which is m where the lane
    moves on (m < v) and v where it stops, and the lanes that move step to
    m's cell, compacted together with their values and lane indices.  A
    lane's count for the cell is the number of steps it moved, each raising
    i + j by one, added once per cell by one `bincount` of the lane indices
    of every step."""
    import numpy as np  # here, not at module level: the scalar sift needs none
    width = max(ops.shape.row(1) for ops, _ in groups) + 1
    size = (max(len(ops.shape.parts) for ops, _ in groups) + 1) * width
    top = groups[0][0].n
    cells = [[(i - 1) * width + j - 1 for i, j in ops.coord] for ops, _ in groups]
    starts = np.zeros((top, len(groups)), dtype=np.intp)
    for g, ((ops, _), frame_cells) in enumerate(zip(groups, cells)):
        starts[:ops.n, g] = [frame_cells[c] for c in ops.order]
    sizes = np.array([k for _, k in groups])
    ends = [0, *accumulate(sizes.tolist())]
    lanes = len(values)
    board = np.full(lanes * size, top + 2, dtype=np.min_scalar_type(top + 2))
    below, right = board[width:], board[1:]  # the South and East neighbours of board[p]
    counts = np.zeros(lanes, dtype=np.int64)
    base = np.arange(0, lanes * size, size)
    everyone = np.arange(lanes)
    for t in range(top):
        g = sum(1 for ops, _ in groups if ops.n > t)  # the shapes taking part
        a = ends[g]
        v = values[:a, t]
        p = base[:a] + np.repeat(starts[t, :g], sizes[:g])
        lane = everyone[:a]
        moved = []
        while True:
            south = below[p]
            east = right[p]
            m = np.minimum(south, east)
            go = (m < v).nonzero()[0]
            board[p] = np.minimum(m, v)
            if not len(go):
                break
            p = (p + (width - (width - 1) * (east < south)))[go]
            v = v[go]
            lane = lane[go]
            moved.append(lane)
        if moved:
            counts += np.bincount(np.concatenate(moved), minlength=lanes)
    frames = board.reshape(lanes, size)
    return counts, [frames[lo:hi, c] for lo, hi, c in zip(ends, ends[1:], cells)]


def slid(board, cells, m, r):
    """A copy of the board with the ranks r and above raised by one (the
    sentinel too, which keeps it above every rank), cells[1..m] moved up
    one step along the chain and r put at cells[m]."""
    board = [v + 1 if v >= r else v for v in board]
    for k in range(m):
        board[cells[k]] = board[cells[k + 1]]
    board[cells[m]] = r
    return board


shape_ops = lru_cache(maxsize=128)(_ShapeOps)


def nps_sort(tableau):
    """Sort a tableau into a standard one, returning the standard output, the
    hook tableau, the exchange count and the per-entry drop trace, from the
    landing cells of one `sort_values` call."""
    ops = shape_ops(tableau.shape)
    coord = ops.coord
    flat = [v for row in tableau.rows for v in row]
    values = [flat[c] for c in ops.order]
    board = ops.new_board()
    landed = []
    total = ops.sort_values(board, values, landed)
    ends = list(map(coord.__getitem__, landed))
    # e = H - i down each column, top row first: a sift from (i0, j0) to
    # (i1, j1) inserts j1 - j0 - i1 at index i1 - i0 of its start column
    columns = [[] for _ in ops.heights]
    for (i0, j0), (i1, j1) in zip(ops.starts, ends):
        columns[j0 - 1].insert(i1 - i0, j1 - j0 - i1)
    e = list(chain.from_iterable(columns))
    hooks = list(map(add, map(e.__getitem__, ops.by_columns), ops.rows_of))
    ops.check_hooks(hooks)  # the range check of the HookTableau constructor
    hook_tableau = HookTableau._from_flat(ops, hooks)
    # `Tableau.is_standard` and the bijection check of its constructor
    sorted_board = board[:ops.n]
    if not ops.is_standard(board) or sorted(sorted_board) != ops.one_to_n:
        raise AssertionError(f"sort produced a non-standard tableau from {tableau}")
    output = Tableau._from_flat(ops, sorted_board)
    # trace entries made by tuple.__new__, without a Python-level call each
    depth = ops.depth.__getitem__
    exchanges = map(sub, map(depth, landed), map(depth, ops.order))
    trace = map(tuple.__new__, repeat(EntryTrace), zip(values, ops.starts, ends, exchanges))
    return NpsOutcome(output, hook_tableau, total, tuple(trace))


def _prefix_walk(ops, step=None):
    """The n! fillings of `ops.shape` level by level, one state per sorted
    board code: the count of prefixes that reach it, their exchange sum and
    maximum, and a list payload.  A state reads its `landings` once, a
    landing group maps the payload once by `step(start, end, payload)` (flat
    cells), a child's board is built only when its code is new, and merged
    states add up and join payloads.  The last level builds no board: it
    yields (codes, count, sum, max, payload) per landing group."""
    n = ops.n
    empty = [0] if step else ()
    if not n:
        yield [0], 1, 0, 0, empty
        return
    powers = [(n + 2)**k for k in range(n)]
    # boards hold ranks 1..t on the processed cells, 0 on the others and a
    # sentinel above every rank at index n
    states = {0: [ops.new_board(), 1, 0, 0, empty]}
    for t, start in enumerate(ops.order):
        leaf = t + 1 == n
        merged = {}
        for code, (board, count, total, best, payload) in states.items():
            for cells, m, r0, codes in ops.landings(board, t, code, powers):
                sub, top = total + count * m, best + m
                mapped = step(start, cells[m], payload) if step else payload
                if leaf:
                    yield codes, count, sub, top, mapped
                    continue
                for r, child in enumerate(codes, r0):
                    seen = merged.get(child)
                    if seen is None:
                        merged[child] = [slid(board, cells, m, r), count, sub, top, mapped[:]]
                    else:
                        seen[1] += count
                        seen[2] += sub
                        if seen[3] < top:
                            seen[3] = top
                        seen[4] += mapped
        states = merged


def _bijection_sets(shape):
    """Per output code, the set of hook codes of the fillings that sort to
    it, and the number of those fillings.  A hook code has a base-(n + 2)
    digit H + leg = e + the column height per processed cell: the current
    column's from its start cell down, then the finished columns from the
    left (at the end, column-major), so the insertion rule of `nps_sort`
    inserts one digit.  Refuses n! above MAX_BIJECTION_FILLINGS first."""
    n = shape.size
    if factorial(n) > MAX_BIJECTION_FILLINGS:
        raise SizeGuardError(f"{shape} has {n}! = {factorial(n)} fillings, above the "
                             f"bijection budget of {MAX_BIJECTION_FILLINGS}")
    ops = shape_ops(shape)
    coord, heights = ops.coord, ops.heights
    powers = [(n + 2)**k for k in range(n + 1)]

    def step(start, end, prefixes):
        (i0, j0), (i1, j1) = coord[start], coord[end]
        low, high = powers[i1 - i0], powers[i1 - i0 + 1]
        digit = (j1 - j0 - i1 + heights[j0 - 1]) * low
        if low == 1:  # a landing in the start row: every digit moves up one place
            return [p * high + digit for p in prefixes]
        shift = high - low  # p = q low + r becomes r + digit + q high
        return [p + p // low * shift + digit for p in prefixes]

    found, tally = defaultdict(set), defaultdict(int)
    for codes, count, _, _, hooks in _prefix_walk(ops, step):
        for child in codes:
            found[child].update(hooks)
            tally[child] += count
    return found, tally


def verify_bijection(shape, cutoff=DEFAULT_ENUMERATION_CUTOFF):
    """Certify the bijection of the sort onto (standard tableau, hook
    tableau) pairs by injectivity and cardinality over `_bijection_sets`."""
    n = shape.size
    if n > cutoff:
        raise SizeGuardError(f"size {n} exceeds enumeration cutoff {cutoff}")
    found, tally = _bijection_sets(shape)
    pairs, expected, hooks_count = sum(map(len, found.values())), factorial(n), hook_product(shape)
    uniform = len(tally) == syt_count(shape) and all(v == hooks_count for v in tally.values())
    each = {tuple(code // (n + 2)**k % (n + 2) for k in range(n)): v for code, v in tally.items()}
    return BijectionReport(shape, pairs, expected, pairs == expected, each, uniform)
