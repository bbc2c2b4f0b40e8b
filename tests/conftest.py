import itertools
from fractions import Fraction
from math import factorial

import pytest

from npslab.nps import shape_ops
from npslab.verify import brute_table


@pytest.fixture(scope="session")
def brute():
    """Exchange-count (sum, max) for every shape of size 1..8, built once."""
    return brute_table(8)


def _inv_factorial(m):
    """1/m! as an exact Fraction, zero for negative m."""
    return Fraction(1, factorial(m)) if m >= 0 else Fraction(0)


def _det_fraction(mat):
    """Exact determinant of a square Fraction matrix via Gaussian elimination."""
    n = len(mat)
    if n == 0:
        return Fraction(1)
    mat = [row[:] for row in mat]
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if mat[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            det = -det
        det *= mat[c][c]
        inv = 1 / mat[c][c]
        for r in range(c + 1, n):
            if mat[r][c] == 0:
                continue
            factor = mat[r][c] * inv
            mat[r] = [a - factor * b for a, b in zip(mat[r], mat[c])]
    return det


def _aitken_skew_count(outer, inner):
    """Standard fillings of outer/inner by the factorial determinant
    (n - |inner|)! det(1/(lambda_i - mu_j - i + j)!)."""
    ell = len(outer.parts)
    mat = [[_inv_factorial(outer.row(i) - inner.row(j) - i + j)
            for j in range(1, ell + 1)] for i in range(1, ell + 1)]
    value = factorial(outer.size - inner.size) * _det_fraction(mat)
    assert value.denominator == 1 and value >= 0, (outer, inner, value)
    return int(value)


@pytest.fixture(scope="session")
def aitken():
    """The Aitken determinant for skew standard-tableau counts: an oracle
    independent of the Young-lattice chain counts in the package."""
    return _aitken_skew_count


def _plain_exchange_stats(shape):
    """(sum, max) of exchange counts by sorting each of the n! fillings."""
    ops = shape_ops(shape)
    board = ops.new_board()
    total = best = 0
    for perm in itertools.permutations(range(1, shape.size + 1)):
        ops.fill(board, perm)
        count = ops.sort_board(board)
        total += count
        best = max(best, count)
    return total, best


@pytest.fixture(scope="session")
def plain_stats():
    """Exchange-count (sum, max) by the plain n! loop over `sort_board`: an
    oracle that shares no prefix work, unlike `exchange_stats`."""
    return _plain_exchange_stats
