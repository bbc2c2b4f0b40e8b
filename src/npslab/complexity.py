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
from math import factorial

from .nps import DEFAULT_ENUMERATION_CUTOFF, Tableau, shape_ops, slid
from .partitions import SizeGuardError, _chain_counts, conjugate, harmonic, syt_count

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


def _w_table(shape):
    """Rows of w(i, j), the maximal Manhattan distance from (i, j) to a cell
    weakly South-East of it, by the recurrence w = 0 on a corner and
    w = 1 + max(w South, w East) elsewhere: every corner South-East of a
    non-corner cell lies weakly South-East of one of its two neighbours.

    One array of the first row's length plus one carries the row below,
    -1 where it has no cell; the rows are filled from the last one up and
    right to left, so w[j + 1] is already the East neighbour.
    """
    w = [-1] * (shape.row(1) + 1)
    table = []
    for p in reversed(shape.parts):
        for j in range(p - 1, -1, -1):
            w[j] = 1 + max(w[j], w[j + 1])
        table.append(w[:p])
    table.reverse()
    return table


def w_distance(shape, cell):
    """Maximal Manhattan distance from `cell` to a cell weakly South-East of
    it; 0 exactly on corners."""
    if cell not in shape:
        raise ValueError(f"cell {cell} outside shape {shape}")
    i, j = cell
    return _w_table(shape)[i - 1][j - 1]


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
    with the next block of consecutive integers in processing order.  Hook
    lengths are read once from the column heights of the conjugate and never
    change, so one sort of the cells by (-hook, column, row) gives the
    anchors: the first cell of it not yet filled.  The result is verified
    against worst_case; a mismatch raises.
    """
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


def exchange_stats(shape, cutoff=DEFAULT_ENUMERATION_CUTOFF):
    """(sum, max) of exchange counts over all n! fillings of the shape.

    Sifting the t-th processed cell reads and writes only cells processed
    before it and only compares values, so the exchanges so far and the
    sifted board depend only on the relative order of the first t values.
    The loop keeps, per relative order keyed by its integer code
    sum rank * (n + 2)^index, the number of fillings reaching it and their
    exchange sum and maximum.  Each state reads its `slide_chain` once: rank
    r of the next value lands at the first chain index m whose prefix-maximum
    rank exceeds r, after m exchanges, and a child's board is built only
    when its code is new.  A shape above MAX_SORTED_ORDERS sorted orders or
    MAX_ENUMERATION_WORK units of work f^shape n^2 is refused before any sift.
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
    ops = shape_ops(shape)
    powers = [(n + 2)**k for k in range(n)]
    # boards hold ranks 1..t on the processed cells, 0 on the others and a
    # sentinel above every rank at index n
    states = {0: [ops.new_board(), 1, 0, 0]}
    for t in range(n):
        merged = {}
        for code, (board, count, total, best) in states.items():
            for cells, m, r, shift in ops.landings(board, t, powers):
                child = code + shift
                seen = merged.get(child)
                if seen is None:
                    merged[child] = [slid(board, cells, m, r), count, total + count * m, best + m]
                else:
                    seen[1] += count
                    seen[2] += total + count * m
                    if seen[3] < best + m:
                        seen[3] = best + m
        states = merged
    return (sum(total for _, _, total, _ in states.values()),
            max(best for _, _, _, best in states.values()))


def average_case_bruteforce(shape, cutoff=DEFAULT_ENUMERATION_CUTOFF):
    """Average exchange count over all fillings, as an exact Fraction."""
    total, _ = exchange_stats(shape, cutoff=cutoff)
    return Fraction(total, factorial(shape.size)) if shape.size else Fraction(0)


def max_case_bruteforce(shape, cutoff=DEFAULT_ENUMERATION_CUTOFF):
    """Maximal exchange count over all fillings, by exhaustive search."""
    _, best = exchange_stats(shape, cutoff=cutoff)
    return best


def expected_hook_abs(shape):
    """Mean of sum |H(i,j)| over uniformly random hook tableaux, via the
    per-cell closed form (arm^2 + arm + leg^2 + leg) / (2 hook), with the
    column heights read once from the conjugate."""
    heights = conjugate(shape).parts
    total = Fraction(0)
    for i, p in enumerate(shape.parts, start=1):
        for j in range(1, p + 1):
            arm = p - j
            leg = heights[j - 1] - i
            total += Fraction(arm * arm + arm + leg * leg + leg, 2 * (arm + leg + 1))
    return total


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
    (codes, sizes, corners), up, down = _chain_counts(shape)
    return sum(up[code - step] * down[code]
               for code, size, mu_corners in zip(codes, sizes, corners) if size == k
               for ci, cj, step in mu_corners if ci == i and cj == j)


def average_case_chicago(shape):
    """Average exchange count by the harmonic-number formula

        sum_x sum_k |x| f(x, k)/f * (H_n - H_{n-k} - 1),

    where |x| = i + j - 2 and f(x, k) counts standard tableaux with entry k at
    cell x.  One pass over the subdiagrams mu of the shape collects, per size
    k = |mu|, the integer sum of |x| f^(mu - x) f^(shape/mu) over the corners x
    of mu; the chain counts come from Young's lattice.
    """
    n = shape.size
    if n == 0:
        return Fraction(0)
    (codes, sizes, corners), up, down = _chain_counts(shape)
    numerators = [0] * (n + 1)
    for code, size, mu_corners in zip(codes, sizes, corners):
        weighted = 0
        for i, j, step in mu_corners:
            weighted += (i + j - 2) * up[code - step]
        numerators[size] += weighted * down[code]
    h_n = harmonic(n)
    total = sum((numer * (h_n - harmonic(n - k) - 1)
                 for k, numer in enumerate(numerators) if numer), Fraction(0))
    return total / up[codes[-1]]
