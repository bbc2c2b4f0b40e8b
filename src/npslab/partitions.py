"""Integer partitions, cells, hook statistics and exact counting primitives.

Everything in this module is exact: counts are Python integers, averages and
harmonic numbers are `fractions.Fraction`.  No floating point enters any
computation here.

Skew and fixed-entry standard tableau counts come from one table of
saturated-chain counts in Young's lattice below a shape (`_chain_counts`).
It is keyed by integer codes: a subdiagram mu is the number
sum_i mu_i base^i with base = lambda_1 + 1, so removing the last cell of a
row subtracts a power of the base, and no subdiagram is built as a
`Partition`.
"""

from fractions import Fraction
from itertools import accumulate
from math import factorial, prod

__all__ = [
    "Partition",
    "conjugate",
    "reverse_lex_cells",
    "syt_count",
    "skew_syt_count",
    "hook_product",
    "harmonic",
    "partitions_of",
    "SizeGuardError",
]


class SizeGuardError(ValueError):
    """A size guard refused an input before the work that it would cost."""


class Partition:
    """A weakly decreasing sequence of positive integers, identified with its
    Young diagram of cells (i, j), both indices 1-based."""

    __slots__ = ("parts", "size")

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")
        if parts and parts[-1] <= 0:
            raise ValueError(f"parts must be positive, got {parts}")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "size", sum(parts))

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def __reduce__(self):
        return (Partition, (self.parts,))

    @classmethod
    def parse(cls, text):
        """Parse the textual form "4,4,2,1,1,1"; empty string is the empty shape."""
        text = text.strip()
        if not text:
            return cls(())
        return cls(int(p) for p in text.split(","))

    @property
    def rows(self):
        return len(self.parts)

    def row(self, i):
        """Length of row i (0 when i exceeds the number of rows)."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def col(self, j):
        """Height of column j, i.e. the j-th part of the conjugate."""
        return sum(1 for p in self.parts if p >= j)

    def __contains__(self, cell):
        i, j = cell
        return 1 <= i <= len(self.parts) and 1 <= j <= self.parts[i - 1]

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    def __str__(self):
        return ",".join(str(p) for p in self.parts)

    def cells(self):
        """All cells in row-major order."""
        return [(i, j) for i in range(1, len(self.parts) + 1)
                for j in range(1, self.parts[i - 1] + 1)]

    def corners(self):
        """Cells with hook length 1, i.e. (i, lambda_i) with lambda_{i+1} < lambda_i."""
        out = []
        for i, p in enumerate(self.parts, start=1):
            if self.row(i + 1) < p:
                out.append((i, p))
        return out

    def arm(self, i, j):
        return self.parts[i - 1] - j

    def leg(self, i, j):
        return self.col(j) - i

    def hook(self, i, j):
        return self.arm(i, j) + self.leg(i, j) + 1

    def contains_shape(self, other):
        """Whether the diagram of `other` fits inside this one."""
        return all(other.row(i) <= self.row(i)
                   for i in range(1, len(other.parts) + 1))


def conjugate(shape):
    """Transpose of the diagram: {(j, i) : (i, j) in shape}.

    Walks up from the shortest row: row i is the lowest cell of the columns
    it has beyond the rows below it, so those columns have height i.
    """
    heights = []
    for i in range(len(shape.parts), 0, -1):
        heights.extend([i] * (shape.parts[i - 1] - len(heights)))
    return Partition(heights)


def reverse_lex_cells(shape):
    """Cells in decreasing reverse-lexicographic order: rightmost column first,
    within a column bottom to top.  This is the processing order of the sort."""
    heights = conjugate(shape).parts
    return [(i, j) for j in range(len(heights), 0, -1) for i in range(heights[j - 1], 0, -1)]


def hook_product(shape):
    """Product of all hook lengths; counts the hook tableaux of the shape.

    Column heights are read once from the conjugate."""
    heights = conjugate(shape).parts
    return prod(p - j + heights[j - 1] - i + 1
                for i, p in enumerate(shape.parts, start=1) for j in range(1, p + 1))


def syt_count(shape):
    """Number of standard Young tableaux, n! divided by the hook product."""
    num = factorial(shape.size)
    den = hook_product(shape)
    q, r = divmod(num, den)
    if r:
        raise AssertionError(f"hook product {den} does not divide {shape.size}!")
    return q


def skew_syt_count(outer, inner):
    """Number of standard fillings of the skew shape outer/inner: the
    saturated chains from inner up to outer in Young's lattice."""
    if not outer.contains_shape(inner):
        raise ValueError(f"{inner} is not contained in {outer}")
    base = outer.row(1) + 1
    _, _, down = _chain_counts(outer)
    return down[sum(p * base**i for i, p in enumerate(inner.parts))]


_HARMONIC = [Fraction(0)]


def harmonic(n):
    """n-th harmonic number 1 + 1/2 + ... + 1/n as an exact Fraction; H_0 = 0."""
    if n < 0:
        raise ValueError("harmonic number of negative index")
    while len(_HARMONIC) <= n:
        _HARMONIC.append(_HARMONIC[-1] + Fraction(1, len(_HARMONIC)))
    return _HARMONIC[n]


def partitions_of(n):
    """All partitions of n, in descending lexicographic order of parts."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")

    def rec(remaining, maximum):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maximum), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    for parts in rec(n, n if n else 1):
        yield Partition(parts)


MAX_SUBDIAGRAMS = 10**6


def _subdiagram_count(shape):
    """Number of partitions contained in `shape`, the empty one included.

    ways[m] counts the fillings of the rows below the current one when the
    current row has m cells; it is carried from the last row up to the first.
    """
    parts = shape.parts
    if not parts:
        return 1
    ways = [1] * (parts[-1] + 1)
    for p in reversed(parts[:-1]):
        below = list(accumulate(ways))
        ways = [below[min(m, len(below) - 1)] for m in range(p + 1)]
    return sum(ways)


def _subdiagrams(outer):
    """The subdiagrams mu of `outer`, the empty one first, in lexicographic
    order of parts, in which each mu follows every mu minus a corner.

    Returns three parallel lists: the code sum_i mu_i base^i of each mu (rows
    counted from 0, base = outer_1 + 1), its size, and its corners as
    (i, j, base^(i-1)) for the cell (i, j), so that mu minus that corner has
    code `code - base**(i - 1)`.  The corner entries are shared between
    subdiagrams.  A depth-first walk sets one row per frame; a frame holds
    the corners of the rows above its row, with and without the row just
    above, which is a corner unless this row is as long.
    """
    parts = outer.parts
    rows = len(parts)
    base = outer.row(1) + 1
    cells = [[(i + 1, j, base**i) for j in range(p + 1)] for i, p in enumerate(parts)]
    codes, sizes, corners = [0], [0], [()]
    stack = []
    if rows:
        stack.append((0, 0, 0, parts[0], (), (), iter(range(1, parts[0] + 1))))
    while stack:
        i, code, size, prev, fixed, with_above, lengths = stack[-1]
        m = next(lengths, 0)
        if not m:
            stack.pop()
            continue
        cell = cells[i][m]
        above = with_above if m < prev else fixed
        mine = above + (cell,)
        code += m * cell[2]
        size += m
        codes.append(code)
        sizes.append(size)
        corners.append(mine)
        if i + 1 < rows:
            stack.append((i + 1, code, size, m, above, mine,
                          iter(range(1, min(parts[i + 1], m) + 1))))
    return codes, sizes, corners


def _chain_counts(outer):
    """Saturated-chain counts in Young's lattice below `outer`.

    Returns (lattice, up, down): lattice is `_subdiagrams(outer)`, and the
    dicts `up` and `down` are keyed by the code of every subdiagram mu:
    up[code] counts the chains from the empty shape to mu, that is f^mu, and
    down[code] the chains from mu to outer, f^(outer/mu).
    Raises SizeGuardError when outer has more than MAX_SUBDIAGRAMS subdiagrams.
    """
    count = _subdiagram_count(outer)
    if count > MAX_SUBDIAGRAMS:
        raise SizeGuardError(
            f"shape {outer} has {count} subdiagrams, exceeding the limit {MAX_SUBDIAGRAMS}")
    codes, sizes, corners = lattice = _subdiagrams(outer)
    up = {0: 1}
    for k in range(1, count):
        code = codes[k]
        total = 0
        for _, _, step in corners[k]:
            total += up[code - step]
        up[code] = total
    down = dict.fromkeys(codes, 0)
    down[codes[-1]] = 1
    for k in range(count - 1, 0, -1):
        code = codes[k]
        chains = down[code]
        for _, _, step in corners[k]:
            down[code - step] += chains
    return lattice, up, down
