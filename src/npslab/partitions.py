"""Integer partitions, cells, hook statistics and exact counting primitives.

Everything in this module is exact: counts are Python integers, averages and
harmonic numbers are `fractions.Fraction`.  No floating point enters any
computation here.
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
    "subpartitions",
]


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
    return _chain_counts(outer, inner)[1][inner.parts]


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


def subpartitions(shape):
    """All partitions contained in the diagram of `shape`, the empty one included."""

    def rec(idx, prev):
        yield ()
        if idx >= len(shape.parts):
            return
        for m in range(1, min(shape.parts[idx], prev) + 1):
            for rest in rec(idx + 1, m):
                yield (m,) + rest

    for parts in rec(0, shape.parts[0] if shape.parts else 0):
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


def _removable(mu):
    """(cell, mu minus that cell) for each corner cell of the parts tuple mu."""
    for i, p in enumerate(mu):
        if i + 1 == len(mu) or mu[i + 1] < p:
            yield (i + 1, p), mu[:i] + ((p - 1,) if p > 1 else ()) + mu[i + 1:]


def _chain_counts(outer, inner):
    """Saturated-chain counts in the interval [inner, outer] of Young's lattice.

    Returns dicts `up` and `down` keyed by the parts of every subdiagram mu
    between inner and outer: up[mu] counts the chains from inner to mu, that
    is f^(mu/inner), and down[mu] the chains from mu to outer, f^(outer/mu).
    Raises ValueError when outer has more than MAX_SUBDIAGRAMS subdiagrams.
    """
    count = _subdiagram_count(outer)
    if count > MAX_SUBDIAGRAMS:
        raise ValueError(
            f"shape {outer} has {count} subdiagrams, exceeding the limit {MAX_SUBDIAGRAMS}")
    # lexicographic order, in which each mu follows every mu minus a corner
    interval = [mu.parts for mu in subpartitions(outer) if mu.contains_shape(inner)]
    up = {inner.parts: 1}
    for mu in interval[1:]:
        up[mu] = sum(up.get(below, 0) for _, below in _removable(mu))
    down = dict.fromkeys(interval, 0)
    down[outer.parts] = 1
    for mu in reversed(interval):
        for _, below in _removable(mu):
            if below in down:
                down[below] += down[mu]
    return up, down
