"""Exact worst-case and average-case exchange counts.

The worst case is the cell sum of maximal South-East distances, with a
constructive witness tableau that attains it.  The average case comes in two
independent exact routes: brute force over all n! fillings (merging fillings
whose processed prefix has the same relative order), and the harmonic-number
formula driven by fixed-entry standard tableau counts.
"""

from fractions import Fraction
from math import factorial

from .nps import DEFAULT_ENUMERATION_CUTOFF, Tableau, shape_ops
from .partitions import Partition, _chain_counts, _removable, harmonic, reverse_lex_cells

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


def w_distance(shape, cell):
    """Maximal Manhattan distance from `cell` to a cell weakly South-East of
    it; 0 exactly on corners."""
    if cell not in shape:
        raise ValueError(f"cell {cell} outside shape {shape}")
    i, j = cell
    best = 0
    for ci, cj in shape.corners():
        if ci >= i and cj >= j:
            best = max(best, ci - i + cj - j)
    return best


def worst_case(shape):
    """Exact worst-case exchange count: the sum of w over all cells."""
    corners = shape.corners()
    total = 0
    for i in range(1, len(shape.parts) + 1):
        for j in range(1, shape.parts[i - 1] + 1):
            total += max(ci - i + cj - j for ci, cj in corners if ci >= i and cj >= j)
    return total


class WitnessConstructionError(RuntimeError):
    """The rectangle-filling construction could not produce a valid witness."""


def worst_case_witness(shape):
    """Build a tableau whose sort performs exactly worst_case(shape) exchanges.

    Repeatedly take the undefined cell of maximal hook length (starting at
    (1,1)), pick a farthest South-East corner, and fill the spanned rectangle
    with the next block of consecutive integers in processing order.  The
    result is verified against worst_case; a mismatch raises.
    """
    if not shape.parts:
        raise ValueError("cannot build a witness for the empty shape")
    n = shape.size
    values = {}
    next_value = 1
    corners = shape.corners()
    while next_value <= n:
        undefined = [c for c in shape.cells() if c not in values]
        max_hook = max(shape.hook(i, j) for i, j in undefined)
        candidates = [c for c in undefined if shape.hook(*c) == max_hook]
        anchor = min(candidates, key=lambda c: (c[1], c[0]))
        ai, aj = anchor
        dist = w_distance(shape, anchor)
        choices = sorted(
            (c for c in corners
             if c[0] >= ai and c[1] >= aj and (c[0] - ai) + (c[1] - aj) == dist),
            key=lambda c: c[0],
        )
        rect = None
        for ci, cj in choices:
            cells = [(i, j) for i in range(ai, ci + 1) for j in range(aj, cj + 1)]
            if all(c in shape and c not in values for c in cells):
                rect = cells
                break
        if rect is None:
            raise WitnessConstructionError(
                f"no admissible corner for anchor {anchor} of {shape}")
        rect_order = [c for c in reverse_lex_cells(shape) if c in set(rect)]
        for c in rect_order:
            values[c] = next_value
            next_value += 1
    rows = [tuple(values[(i, j)] for j in range(1, shape.parts[i - 1] + 1))
            for i in range(1, len(shape.parts) + 1)]
    witness = Tableau(shape, rows)
    ops = shape_ops(shape)
    achieved = ops.sort_board(ops.board_of(witness))
    expected = worst_case(shape)
    if achieved != expected:
        raise WitnessConstructionError(
            f"witness for {shape} achieves {achieved} exchanges, expected {expected}")
    return witness


def exchange_stats(shape, cutoff=DEFAULT_ENUMERATION_CUTOFF):
    """(sum, max) of exchange counts over all n! fillings of the shape.

    Sifting the t-th processed cell reads and writes only cells processed
    before it (every South or East neighbour comes earlier) and only
    compares values, so the exchanges so far and the sifted board depend
    only on the relative order of the first t values.  The loop keeps, per
    relative order of the sifted board, the number of fillings reaching it
    and their exchange sum and maximum; each of the t + 1 ranks of the next
    value extends it by one sift.  There are at most f^shape such orders.
    """
    n = shape.size
    if n > cutoff:
        raise ValueError(f"size {n} exceeds enumeration cutoff {cutoff}")
    ops = shape_ops(shape)
    coord = ops.coord
    # boards hold ranks 1..t on the processed cells, 0 on the others and a
    # sentinel above every rank at index n
    states = {tuple(ops.new_board()): (1, 0, 0)}
    for t, start in enumerate(ops.order):
        i0, j0 = coord[start]
        merged = {}
        for board, (count, total, best) in states.items():
            for r in range(1, t + 2):
                nxt = [v + 1 if v >= r else v for v in board]
                i1, j1 = coord[ops.sift_cell(nxt, start, r)]
                steps = (i1 - i0) + (j1 - j0)
                key = tuple(nxt)
                seen = merged.get(key)
                if seen is None:
                    merged[key] = (count, total + count * steps, best + steps)
                else:
                    merged[key] = (seen[0] + count, seen[1] + total + count * steps,
                                   max(seen[2], best + steps))
        states = merged
    return (sum(total for _, total, _ in states.values()),
            max(best for _, _, best in states.values()))


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
    per-cell closed form (arm^2 + arm + leg^2 + leg) / (2 hook)."""
    total = Fraction(0)
    for i, j in shape.cells():
        arm = shape.arm(i, j)
        leg = shape.leg(i, j)
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
    up, down = _chain_counts(shape, Partition())
    return sum(up[below] * skew for mu, skew in down.items() if sum(mu) == k
               for corner, below in _removable(mu) if corner == cell)


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
    up, down = _chain_counts(shape, Partition())
    numerators = [0] * (n + 1)
    for mu, skew in down.items():
        numerators[sum(mu)] += skew * sum(
            (i + j - 2) * up[below] for (i, j), below in _removable(mu))
    h_n = harmonic(n)
    total = sum((numer * (h_n - harmonic(n - k) - 1)
                 for k, numer in enumerate(numerators) if numer), Fraction(0))
    return total / up[shape.parts]
