"""Exact worst-case and average-case exchange counts.

The worst case is the cell sum of maximal South-East distances w, read from
one table that the recurrence w = 1 + max(w South, w East) fills in a pass
over the cells, with a constructive witness tableau that attains it.  The
average case comes in two independent exact routes: brute force over all n!
fillings (merging fillings whose processed prefix has the same relative
order), and the harmonic-number formula driven by fixed-entry standard
tableau counts, summed over the integer-coded Young-lattice table of
`partitions._chain_counts`.
"""

from fractions import Fraction
from itertools import accumulate
from math import factorial

from .nps import DEFAULT_ENUMERATION_CUTOFF, Tableau, _prefix_walk, shape_ops
from .partitions import (Partition, SizeGuardError, _arms_legs, _chain_counts,
                         _harmonic_numerators, syt_count)

__all__ = [
    "w_distance",
    "worst_case",
    "worst_case_witness",
    "WitnessConstructionError",
    "exchange_stats",
    "average_case_bruteforce",
    "max_case_bruteforce",
    "expected_hook_abs",
    "f_fixed_entry",
    "average_case_chicago",
]

# The n! route keeps one state per sorted relative order, f^shape of them at
# the end, and a state costs O(n) per rank of each of the n cells: the work
# budget f^shape n^2 bounds hooks (m,1), whose time grows as n^3, and admits
# every shape of size <= 20 that the state budget admits.  On a 2-vCPU Xeon
# with Python 3.11, (5,4,3,2) takes about 1.6 s, (4,2,2,1^11) about 5 s and
# (270,1) about 0.7 s.
MAX_SORTED_ORDERS = 50_000
MAX_ENUMERATION_WORK = 2 * 10**7
# The W table holds one int per cell: at 10**6 cells, the 1000 x 1000 square
# and (10**6) take 0.1 s each and a traced peak of 39 and 56 MB.  The witness
# of (4472), W = 9,997,156, takes 0.84 s with its self-check sort, on the
# same machine.
MAX_WORST_CELLS = 10**6
MAX_WITNESS_EXCHANGES = 10**7


def _w_table(shape):
    """Rows of w(i, j), the maximal Manhattan distance from (i, j) to a cell
    weakly South-East of it, by the recurrence w = 0 on a corner and
    w = 1 + max(w South, w East) elsewhere: every corner South-East of a
    non-corner cell lies weakly South-East of one of its two neighbours.

    One array of the first row's length plus one carries the row below,
    -1 where it has no cell.  From the last row up, a row's tail, the cells
    with no cell below, is filled as the range w = p - 1 - j, then the cells
    above the row below right to left, carrying w East: (n - c, c) costs
    O(c) Python steps.  A shape above MAX_WORST_CELLS cells is refused first.
    """
    if shape.size > MAX_WORST_CELLS:
        raise SizeGuardError(f"{shape} has {shape.size} cells, above the worst-case budget of "
                             f"{MAX_WORST_CELLS}")
    w = [-1] * (shape.row(1) + 1)
    table = []
    below = 0
    for p in reversed(shape.parts):
        w[below:p] = range(p - 1 - below, -1, -1)
        east = w[below]
        for j in range(below - 1, -1, -1):
            east = w[j] = 1 + (w[j] if w[j] > east else east)
        table.append(w[:p])
        below = p
    table.reverse()
    return table


def w_distance(shape, cell):
    """Maximal Manhattan distance from `cell` to a cell weakly South-East of
    it, 0 exactly on corners: w(1, 1) of the shape South-East of `cell`."""
    if cell not in shape:
        raise ValueError(f"cell {cell} outside shape {shape}")
    i, j = cell
    return _w_table(Partition(p - j + 1 for p in shape.parts[i - 1:] if p >= j))[0][0]


def worst_case(shape):
    """Exact worst-case exchange count: the sum of w over all cells, with
    w = 0 on a corner and w = 1 + max(w South, w East) elsewhere."""
    return sum(map(sum, _w_table(shape)))


class WitnessConstructionError(RuntimeError):
    """The rectangle-filling construction could not produce a valid witness."""


def worst_case_witness(shape):
    """Build a tableau whose sort performs exactly worst_case(shape) exchanges.

    Repeatedly take the undefined cell of maximal hook length (starting at
    (1,1)), pick a farthest South-East corner, and fill the spanned rectangle
    with the next block of consecutive integers in processing order, on one
    flat list of values by row offsets, 0 where not yet filled.  Hooks never
    change, so one sort of the keys (-hook, j, i) gives the anchors: the
    first cell of it not yet filled.  A rectangle is free when its row slices
    hold only 0, and each row slice is filled as one range.  The sort of the
    result is checked against the sum of the W table; a mismatch raises.  A
    shape whose W exceeds MAX_WITNESS_EXCHANGES is refused before the
    construction and its sort.
    """
    if not shape.parts:
        raise SizeGuardError("cannot build a witness for the empty shape")
    w = _w_table(shape)
    expected = sum(map(sum, w))
    if expected > MAX_WITNESS_EXCHANGES:
        raise SizeGuardError(f"{shape} needs W = {expected} exchanges, above the witness "
                             f"budget of {MAX_WITNESS_EXCHANGES}")
    ops = shape_ops(shape)
    offsets = list(accumulate(shape.parts, initial=0))
    corners = shape.corners()
    values = [0] * shape.size
    filled = 0
    # arm + leg, the hook less one, is the width of the range of H
    for _, aj, ai in sorted((low - high, j, i)
                            for (i, j), low, high in zip(ops.coord, ops.min_hooks, ops.max_hooks)):
        if values[offsets[ai - 1] + aj - 1]:
            continue
        dist = w[ai - 1][aj - 1]
        for ci, cj in corners:
            if (ci >= ai and cj >= aj and ci - ai + cj - aj == dist
                    and not any(any(values[o + aj - 1:o + cj]) for o in offsets[ai - 1:ci])):
                break
        else:
            raise WitnessConstructionError(
                f"no admissible corner for anchor {(ai, aj)} of {shape}")
        # processing order: columns from the right, bottom to top in each
        height = ci - ai + 1
        for i, o in enumerate(offsets[ai - 1:ci], start=ai):
            first = filled + ci - i + 1
            values[o + aj - 1:o + cj] = range(first + (cj - aj) * height, first - 1, -height)
        filled += height * (cj - aj + 1)
    witness = Tableau(shape, [values[o:o + p] for o, p in zip(offsets, shape.parts)])
    achieved = ops.sort_values(ops.new_board(), [values[c] for c in ops.order])
    if achieved != expected:
        raise WitnessConstructionError(
            f"witness for {shape} achieves {achieved} exchanges, expected {expected}")
    return witness


def exchange_stats(shape, cutoff=DEFAULT_ENUMERATION_CUTOFF):
    """(sum, max) of exchange counts over all n! fillings of the shape.

    A sift reads and writes only cells processed before its own, so the
    exchanges and the board depend only on the relative order of the prefix:
    this folds the last landing groups of `nps._prefix_walk`.  A shape above
    MAX_SORTED_ORDERS sorted orders or MAX_ENUMERATION_WORK units of work
    f^shape n^2 is refused before any sift.
    """
    n = shape.size
    if n > cutoff:
        raise SizeGuardError(f"size {n} exceeds enumeration cutoff {cutoff}")
    f = syt_count(shape)
    if f > MAX_SORTED_ORDERS:
        raise SizeGuardError(f"{shape} has f = {f} sorted orders, above the enumeration "
                             f"budget of {MAX_SORTED_ORDERS}")
    if f * n * n > MAX_ENUMERATION_WORK:
        raise SizeGuardError(f"{shape} needs f n^2 = {f * n * n} units of work, above the "
                             f"enumeration budget of {MAX_ENUMERATION_WORK}")
    total = best = 0
    for codes, _, sub, top, _ in _prefix_walk(shape_ops(shape)):
        total += len(codes) * sub
        if best < top:
            best = top
    return total, best


def average_case_bruteforce(shape, cutoff=DEFAULT_ENUMERATION_CUTOFF):
    """Average exchange count over all fillings, as an exact Fraction."""
    total, _ = exchange_stats(shape, cutoff=cutoff)
    return Fraction(total, factorial(shape.size))


def max_case_bruteforce(shape, cutoff=DEFAULT_ENUMERATION_CUTOFF):
    """Maximal exchange count over all fillings, by exhaustive search."""
    _, best = exchange_stats(shape, cutoff=cutoff)
    return best


def expected_hook_abs(shape):
    """Mean of sum |H(i,j)| over uniformly random hook tableaux, via the
    per-cell closed form (arm^2 + arm + leg^2 + leg) / (2 hook)."""
    return sum((Fraction(arm * arm + arm + leg * leg + leg, 2 * (arm + leg + 1))
                for arm, leg in _arms_legs(shape)), Fraction(0))


def f_fixed_entry(shape, cell, k):
    """Number of standard tableaux of `shape` whose cell holds the entry k.

    Sums, over subdiagrams mu of size k having `cell` as a corner, the chains
    in Young's lattice up to mu minus the corner times those from mu up to
    the shape.
    """
    if cell not in shape:
        raise ValueError(f"cell {cell} outside shape {shape}")
    if not 1 <= k <= shape.size:
        raise ValueError(f"entry {k} outside 1..{shape.size}")
    i, j = cell
    (codes, sizes, corners), up, down, _ = _chain_counts(shape)
    return sum(up[code - step] * down[code]
               for code, size, mu_corners in zip(codes, sizes, corners) if size == k
               for ci, cj, step in mu_corners if ci == i and cj == j)


def average_case_chicago(shape):
    """Average exchange count by the harmonic-number formula

        sum_x sum_k |x| f(x, k)/f * (H_n - H_{n-k} - 1),

    where |x| = i + j - 2 and f(x, k) counts standard tableaux with entry k at
    cell x.  The sum over x of |x| f(x, k) is, over the subdiagrams mu of
    size k, the sum of |x| f^(mu - x) f^(shape/mu) over the corners x of mu:
    the downward pass of `partitions._chain_counts` collects it per k, after
    the walk over the subdiagrams and the upward pass.  Over L = lcm(1..n)
    the weights are the integers L H_n - L H_{n-k} - L of
    `partitions._harmonic_numerators`, so the formula is one integer
    numerator over L f, reduced to a Fraction once.
    """
    n = shape.size
    (codes, _, _), up, _, weighted = _chain_counts(shape)
    lcd, h = _harmonic_numerators(n)
    total = sum(weighted[k] * (h[n] - h[n - k] - lcd) for k in range(1, n + 1))
    return Fraction(total, lcd * up[codes[-1]])
