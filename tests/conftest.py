import itertools
import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest

from npslab.complexity import _w_table
from npslab.curves import LimitCurve, partition_boundary
from npslab.integrals import _CELL_PROBES, _true_units
from npslab.nps import BijectionReport, HookTableau, Tableau, shape_ops
from npslab.partitions import Partition, harmonic, hook_product, syt_count
from npslab.sampling import CHUNK, SeededStream
from npslab.two_row import validate_two_row
from npslab.verify import brute_table


@pytest.fixture(scope="session")
def brute():
    """Exchange-count (sum, max) for every shape of size 1..8, built once."""
    return brute_table(8)


def _subpartitions(shape):
    """All partitions contained in the diagram of `shape`, the empty one
    included, in lexicographic order of parts."""

    def rec(idx, prev):
        yield ()
        if idx >= len(shape.parts):
            return
        for m in range(1, min(shape.parts[idx], prev) + 1):
            for rest in rec(idx + 1, m):
                yield (m,) + rest

    for parts in rec(0, shape.parts[0] if shape.parts else 0):
        yield Partition(parts)


@pytest.fixture(scope="session")
def subpartitions():
    """The subdiagrams of a shape as Partitions, by recursion over the rows:
    an oracle for the integer-coded walk of `partitions._subdiagrams`."""
    return _subpartitions


def _w_by_corners(shape):
    """w at every cell, as the maximum over the corners weakly South-East of
    the cell of their Manhattan distance from it."""
    corners = shape.corners()
    return {(i, j): max(ci - i + cj - j for ci, cj in corners if ci >= i and cj >= j)
            for i in range(1, len(shape.parts) + 1)
            for j in range(1, shape.parts[i - 1] + 1)}


@pytest.fixture(scope="session")
def w_by_corners():
    """The South-East distance w of every cell by a maximum over the corners:
    an oracle for the recurrence that `complexity.worst_case` sums."""
    return _w_by_corners


def _cellwise_by_fractions(shape):
    """The cell-wise distance certificate on the unscaled balanced boundary,
    every probe evaluated in Fractions: (per-cell map, total, distances),
    where distances maps (cell, probe) to the exact (a, l, d)."""
    curve = partition_boundary(shape, shape.size)
    w_rows = _w_table(shape)
    per_cell = {}
    distances = {}
    for (i, j) in shape.cells():
        w = w_rows[i - 1][j - 1]
        for du, dv in _CELL_PROBES:
            u = j - 1 + du
            v = i - 1 + dv
            a_l_d = curve._frame_distances(u - v, u + v)
            assert a_l_d[2] == w + i + j - (u + v), (shape, (i, j), (du, dv), a_l_d)
            distances[(i, j), (du, dv)] = a_l_d
        per_cell[(i, j)] = Fraction(2) * (w + 1)
    return per_cell, sum(per_cell.values(), Fraction(0)), distances


@pytest.fixture(scope="session")
def cellwise_by_fractions():
    """The cell-wise identity with its probes in exact rational arithmetic:
    an oracle for the float probes on the scaled boundary that
    `integrals.distance_integral_cellwise` reads."""
    return _cellwise_by_fractions


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


def _fill(ops, board, values):
    """Write values[t] at the t-th processed cell."""
    order = ops.order
    for t, v in enumerate(values):
        board[order[t]] = v


def _sort_board(ops, board):
    """Run the sort in place by exchanges, one swap per step, returning the
    total number of exchanges."""
    total = 0
    south = ops.south
    east = ops.east
    for c in ops.order:
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


def _sort_filling(shape, values):
    """(exchanges, sorted board) of the filling with values[t] at the t-th
    processed cell, by a fill pass and then the swap-by-swap sort."""
    ops = shape_ops(shape)
    board = ops.new_board()
    _fill(ops, board, values)
    return _sort_board(ops, board), board


@pytest.fixture(scope="session")
def sort_filling():
    """The sort as a fill pass and then one swap per exchange, counted one
    by one: an oracle for the fused kernel `_ShapeOps.sort_values`."""
    return _sort_filling


def _plain_exchange_stats(shape):
    """(sum, max) of exchange counts by sorting each of the n! fillings."""
    ops = shape_ops(shape)
    board = ops.new_board()
    total = best = 0
    for perm in itertools.permutations(range(1, shape.size + 1)):
        _fill(ops, board, perm)
        count = _sort_board(ops, board)
        total += count
        best = max(best, count)
    return total, best


@pytest.fixture(scope="session")
def plain_stats():
    """Exchange-count (sum, max) by the plain n! loop over the swap-by-swap
    sort: an oracle that shares no prefix work, unlike `exchange_stats`."""
    return _plain_exchange_stats


def _sift_cell(ops, board, c, v):
    """Sift the value v down from index c in place, returning the landing
    index.  Only cells South-East of c are read or written, and those are
    all processed before c.  The exchanges are (i1 - i0) + (j1 - j0)."""
    south = ops.south
    east = ops.east
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


def _sift_cell_with_hooks(ops, board, hooks, start, v):
    """_sift_cell plus the hook rule: the column segment below `start`
    shifts up with a decrement and the landing row records the column
    displacement.  Returns the landing index."""
    c = _sift_cell(ops, board, start, v)
    i0, j0 = ops.coord[start]
    i1, j1 = ops.coord[c]
    south = ops.south
    walk = start
    for _ in range(i1 - i0):
        nxt = south[walk]
        hooks[walk] = hooks[nxt] - 1
        walk = nxt
    hooks[walk] = j1 - j0
    return c


def _walk_orders_by_sifts(ops, board, hooks, t, pairs, tally):
    """Extend the sifted board (ranks 1..t on the t processed cells) and its
    hooks by each rank r of the next value among the first t + 1, depth
    first, with one `_sift_cell_with_hooks` per child, adding every full
    filling's (output, hooks) pair of tuples to `pairs` and tallying it
    under its output in `tally`.  Before child r, rank r moves up to r + 1
    on this board, which leaves room for the new value r."""
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
        _sift_cell_with_hooks(ops, b, h, start, r)
        _walk_orders_by_sifts(ops, b, h, t + 1, pairs, tally)


def _bijection_by_sifts(shape):
    """The bijection report from a walk over relative orders that sifts each
    child on its own copy and keys leaves by tuples."""
    n = shape.size
    ops = shape_ops(shape)
    pairs = set()
    tally = Counter()
    _walk_orders_by_sifts(ops, ops.new_board(), [0] * n, 0, pairs, tally)
    expected = factorial(n)
    uniform = (len(tally) == syt_count(shape)
               and all(v == hook_product(shape) for v in tally.values()))
    return BijectionReport(shape, len(pairs), expected, len(pairs) == expected, dict(tally),
                           uniform)


@pytest.fixture(scope="session")
def bijection_by_sifts():
    """The bijection report by one sift per child and tuple-keyed leaves: an
    oracle for the slide chains and integer codes of `verify_bijection`."""
    return _bijection_by_sifts


def _enumerate_tableaux(shape):
    """All n! fillings, ordered lexicographically by the value sequence read
    in the processing-cell order."""
    ops = shape_ops(shape)
    board = ops.new_board()
    for perm in itertools.permutations(range(1, shape.size + 1)):
        _fill(ops, board, perm)
        yield Tableau(shape, ops.rows_from_board(board))


@pytest.fixture(scope="session")
def tableaux():
    """Every filling of a shape, one by one: the n! inputs that the package's
    prefix walks cover without listing them."""
    return _enumerate_tableaux


def _enumerate_hook_tableaux(shape):
    """All hook tableaux: independent entry ranges [-leg, arm] per cell."""
    cells = shape.cells()
    ranges = [range(-shape.leg(i, j), shape.arm(i, j) + 1) for (i, j) in cells]
    for combo in itertools.product(*ranges):
        rows = [[0] * p for p in shape.parts]
        for (i, j), v in zip(cells, combo):
            rows[i - 1][j - 1] = v
        yield HookTableau(shape, rows)


@pytest.fixture(scope="session")
def hook_tableaux():
    """Every hook tableau of a shape, one by one: an oracle for the hook
    product and for the closed-form mean of the absolute hook sum."""
    return _enumerate_hook_tableaux


def _sup_distance(curve, other):
    """Supremum of |gamma(x) - eta(x)| over the real line.

    The difference of two piecewise-linear curves attains its supremum at a
    breakpoint of either, or at x = 0; the computation is exact when both
    curves share a frame scale.
    """
    if curve.scale_sq == other.scale_sq:
        xs = sorted(set(curve.xs) | set(other.xs) | {Fraction(0)})
        best = max((abs(curve.value_frame(x) - other.value_frame(x)) for x in xs),
                   default=Fraction(0))
        return float(best) * curve.scale
    xs = sorted({x for x, _ in curve.breakpoints}
                | {x for x, _ in other.breakpoints} | {0.0})
    return max((abs(curve.value(x) - other.value(x)) for x in xs), default=0.0)


@pytest.fixture(scope="session")
def sup_distance():
    """The sup-norm distance between two limit curves."""
    return _sup_distance


def _point_from_hook_coordinates(curve, s, t):
    """The point whose two diagonals meet the curve at abscissas s and t."""
    gs = curve.value(s)
    gt = curve.value(t)
    return ((s + t + gs - gt) / 2.0, (s - t + gs + gt) / 2.0)


@pytest.fixture(scope="session")
def point_from_hook_coordinates():
    """The inverse of `hook_coordinates`, from the curve values at s and t."""
    return _point_from_hook_coordinates


class _WalkCurve:
    """A copy of a curve's frame breakpoints, in floats (`of`) or exact
    (`exact`), that answers each point query by walking the breakpoints one
    by one: gamma, the exit along (1, 1), the exit along (-1, 1) as the
    mirror's exit along (1, 1), and d as the maximum of gamma at the two
    exits and at every breakpoint between them."""

    def __init__(self, xs, ys, scale_sq):
        self.xs, self.ys, self.scale_sq = xs, ys, scale_sq
        self.scale = math.sqrt(scale_sq)

    @classmethod
    def of(cls, curve):
        return cls(tuple(float(x) for x in curve.xs), tuple(float(y) for y in curve.ys),
                   float(curve.scale_sq))

    @classmethod
    def exact(cls, curve):
        return cls(curve.xs, curve.ys, curve.scale_sq)

    def mirrored(self):
        return _WalkCurve(tuple(-x for x in reversed(self.xs)), tuple(reversed(self.ys)),
                          self.scale_sq)

    def value_frame(self, x):
        xs = self.xs
        if not xs or x <= xs[0] or x >= xs[-1]:
            return abs(x)
        i = bisect_right(xs, x) - 1
        x0, y0, x1, y1 = xs[i], self.ys[i], xs[i + 1], self.ys[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def value(self, x):
        return self.value_frame(x / self.scale) * self.scale

    def diag_exit(self, x, y):
        """Largest t with (x + t, y + t) under the curve, from an interior
        point: where gamma(w) - w, non-increasing, falls below y - x."""
        target = y - x
        xs, ys = self.xs, self.ys
        prev_w, prev_v = x, self.value_frame(x) - x
        for i in range(bisect_right(xs, x), len(xs)):
            w, v = xs[i], ys[i] - xs[i]
            if v < target:
                return prev_w + (prev_v - target) * (w - prev_w) / (prev_v - v) - x
            prev_w, prev_v = w, v
        # beyond the polyline gamma is |w|: the span ends left of the origin
        return -target / 2 - x

    def frame_exits(self, x, y):
        """(a, l) in frame units at an interior point, None elsewhere."""
        if not (self.xs and abs(x) < y < self.value_frame(x)):
            return None
        return self.diag_exit(x, y), self.mirrored().diag_exit(-x, y)

    def frame_distances(self, x, y):
        """(a, l, d) in frame units, all 0 off the interior."""
        exits = self.frame_exits(x, y)
        if exits is None:
            return (x - x,) * 3
        a, leg = exits
        s, t = x - leg, x + a
        top = max([self.value_frame(s), self.value_frame(t)]
                  + [g for w, g in zip(self.xs, self.ys) if s < w < t])
        return a, leg, top - y

    def hook_distances(self, point):
        x, y = point
        a, leg, d = self.frame_distances(x / self.scale, y / self.scale)
        factor = math.sqrt(2.0) * self.scale
        return a * factor, leg * factor, d * factor

    def hook_coordinates(self, point):
        x, y = point
        fx, fy = x / self.scale, y / self.scale
        arm, leg = self.frame_exits(fx, fy) or (0, 0)
        return (fx - leg) * self.scale, (fx + arm) * self.scale


@pytest.fixture(scope="session")
def walk_curve():
    """The linear-walk curve queries, `walk_curve.of(curve)` in floats and
    `walk_curve.exact(curve)` in Fractions: an oracle for the bisections of
    `curves._exits`, and the float curve of the quadrature oracles."""
    return _WalkCurve


# Slopes strictly inside (-1, 1), so that gamma(s) on a falling s-segment and
# gamma(t) on a rising t-segment beat the breakpoint values between them.
_GENERAL_CURVES = (
    LimitCurve([(-2, 2), (-1, Fraction(5, 2)), (0, 2), (1, Fraction(5, 2)), (2, 2)]),
    LimitCurve([(-1, 1), (Fraction(-1, 2), Fraction(5, 4)), (Fraction(1, 4), 1),
                (Fraction(3, 4), Fraction(5, 4)), (2, 2)]),
)


@pytest.fixture(scope="session")
def general_curves():
    """Two rational curves whose slopes lie strictly inside (-1, 1)."""
    return _GENERAL_CURVES


def pochhammer_rising(x, k):
    """Rising factorial x (x+1) ... (x+k-1), equal to 1 when k = 0."""
    if k < 0:
        raise ValueError("rising factorial needs k >= 0")
    result = 1
    for i in range(k):
        result *= x + i
    return result


@pytest.fixture(scope="session")
def rising_factorial():
    """The rising factorial, the denominators of the termwise S0 sum."""
    return pochhammer_rising


def _s0_termwise(lam1, lam2):
    """S0 = sum_{k=1..lam2} C(lam2,k) (-1)^k (2k-2)! / (lam1-lam2+2)_{2k-1}."""
    validate_two_row(lam1, lam2)
    total = Fraction(0)
    base = lam1 - lam2 + 2
    for k in range(1, lam2 + 1):
        num = comb(lam2, k) * (-1) ** k * factorial(2 * k - 2)
        total += Fraction(num, pochhammer_rising(base, 2 * k - 1))
    return total


@pytest.fixture(scope="session")
def s0_termwise():
    """S0 as the sum of its terms, each a reduced Fraction: an oracle for the
    nested integer ratio that `s0_direct` evaluates."""
    return _s0_termwise


def _c_double_sums_termwise(lam1, lam2):
    """The five double sums of the two-row average, each term a Fraction."""
    validate_two_row(lam1, lam2)
    if lam2 < 1:
        raise ValueError("double-sum representation needs lam2 >= 1")
    n = lam1 + lam2
    f = syt_count(Partition((lam1, lam2)))
    total = (comb(lam1, 2) + comb(lam2 + 1, 2)) * (harmonic(n) - 1)

    def term(j, k, top, choose, lower):
        return Fraction(top * comb(k, choose) * comb(n - k, lower), k) * harmonic(n - k)

    s1 = Fraction(0)
    s2 = Fraction(0)
    for j in range(1, lam2 + 1):
        for k in range(j, 2 * j):
            top = (j - 1) * (2 * j - k)
            s1 += term(j, k, top, j, lam1 - j)
            if lam2 - j - 1 >= 0:
                s2 += term(j, k, top, j, lam2 - j - 1)
    s3 = Fraction(0)
    for j in range(lam2 + 1, lam1 + 1):
        for k in range(j, lam2 + j + 1):
            s3 += term(j, k, (j - 1) * (2 * j - k), j, lam1 - j)
    s4 = Fraction(0)
    s5 = Fraction(0)
    for j in range(1, lam2 + 1):
        top_of = lambda k: j * (k - 2 * j + 2)
        for k in range(2 * j, lam1 + j + 1):
            s4 += term(j, k, top_of(k), j - 1, lam2 - j)
        for k in range(2 * j, lam2 + j + 1):
            s5 += term(j, k, top_of(k), j - 1, lam1 - j + 1)
    return total + Fraction(-s1 + s2 - s3 - s4 + s5, f)


@pytest.fixture(scope="session")
def c_double_sums_termwise():
    """The double-sum form summed term by term in Fractions: an oracle for
    the single integer numerator that `c_double_sums` carries."""
    return _c_double_sums_termwise


def _s0_nested_termwise(lam1, lam2):
    """The nested-sum representation of S0, its running sums as Fractions."""
    validate_two_row(lam1, lam2)
    if lam2 < 1:
        raise ValueError("nested representation needs lam2 >= 1")
    inner = Fraction(0)          # sum_{j<=i} C(j+lam1, j) / 2^j
    sum_weighted = Fraction(0)   # sum_i 2^i * inner_i / (i * C(i+lam1, i))
    sum_plain = Fraction(0)      # sum_i 2^i / (i * C(i+lam1, i))
    for i in range(1, lam2 + 1):
        b = comb(i + lam1, i)
        inner += Fraction(b, 2**i)
        sum_weighted += Fraction(2**i, i * b) * inner
        sum_plain += Fraction(2**i, i * b)
    big = comb(lam1 + lam2, lam2)
    excess = 1 + lam1 - lam2
    return (
        -Fraction(2**lam2, big) * (inner + 1)
        - Fraction(excess, 2) * sum_weighted
        - Fraction(excess, 2) * sum_plain
        + excess * (harmonic(lam1) + Fraction(harmonic(lam2), 2) - harmonic(lam1 - lam2))
        + 1
    )


@pytest.fixture(scope="session")
def s0_nested_termwise():
    """The nested form of S0 with Fraction running sums: an oracle for the
    integer numerators that `s0_nested` carries."""
    return _s0_nested_termwise


def _s0_fixed_distance_termwise(lam2, delta):
    """S0 for lam1 = lam2 + delta by the fixed-distance form, in Fractions."""
    if lam2 < 1 or delta < 0:
        raise ValueError("fixed-distance form needs lam2 >= 1 and delta >= 0")
    central = comb(2 * lam2, lam2)
    pow_central = Fraction(2**(2 * lam2), central)

    sum_a = Fraction(0)   # 2^i C(i+lam2,i) / (C(i+2lam2,i) (1+i+2lam2))
    sum_b = Fraction(0)   # 2^-i C(i+2lam2,i) / (C(i+lam2,i) (i+2lam2))
    sum_c = Fraction(0)   # as sum_a but weighted by the running sum_b
    running_b = Fraction(0)
    for i in range(1, delta + 1):
        small = comb(i + lam2, i)
        large = comb(i + 2 * lam2, i)
        a_i = Fraction(2**i * small, large * (1 + i + 2 * lam2))
        b_i = Fraction(large, 2**i * small * (i + 2 * lam2))
        running_b += b_i
        sum_a += a_i
        sum_b += b_i
        sum_c += a_i * running_b
    d1 = delta + 1
    ratio = Fraction(comb(delta + lam2, delta), comb(delta + 2 * lam2, delta))
    return (
        (-d1 + d1 * pow_central) * sum_a
        + Fraction(2**(delta + 2) * lam2 * (1 + delta + lam2), 1 + delta + 2 * lam2) * ratio * sum_b
        - 2 * d1 * lam2 * sum_c
        + Fraction(d1, 2 * lam2 + 1) * pow_central
        + Fraction(2**(delta + 1) * (1 + delta + lam2), 1 + delta + 2 * lam2) * ratio
        * Fraction(central - 2**(2 * lam2), central)
        - Fraction(d1, 2 * lam2 + 1)
        + d1 * harmonic(delta + 2 * lam2)
        + Fraction(d1, 2) * harmonic(lam2)
        - d1 * harmonic(2 * lam2)
        - d1 * harmonic(delta)
    )


@pytest.fixture(scope="session")
def s0_fixed_distance_termwise():
    """The fixed-distance form of S0 with Fraction running sums: an oracle for
    the integer numerators that `two_row._s0_fixed_distance` carries."""
    return _s0_fixed_distance_termwise


def _boards_per_draw(shape, m, seed):
    """m random value sequences, CHUNK per stream id, one `permutation` call
    per draw."""
    n = shape.size
    produced = 0
    chunk_index = 0
    while produced < m:
        rng = SeededStream(seed, chunk_index).generator()
        for _ in range(min(CHUNK, m - produced)):
            yield (rng.permutation(n) + 1).tolist()
            produced += 1
        chunk_index += 1


@pytest.fixture(scope="session")
def boards_per_draw():
    """The Monte Carlo draws one `permutation` at a time: an oracle for the
    blocks of rows that `sampling._chunked_boards` shuffles at once."""
    return _boards_per_draw


_HALF = Fraction(1, 2)
_T_MINUS_S = (0, -1, 1)  # t - s as an affine function


def _lin(*terms):
    """Sum of coefficient * f over affine functions f = (c, a, b), meaning
    c + a s + b t."""
    return tuple(sum(k * f[m] for k, f in terms) for m in range(3))


def _at(f, point):
    return f[0] + f[1] * point[0] + f[2] * point[1]


def _clip_fractions(poly, h):
    """The part of a convex polygon where the affine function h is >= 0."""
    out = []
    for p, q in zip(poly, poly[1:] + poly[:1]):
        hp, hq = _at(h, p), _at(h, q)
        if hp >= 0:
            out.append(p)
        if (hp < 0) != (hq < 0):
            r = hp / (hp - hq)
            out.append((p[0] + r * (q[0] - p[0]), p[1] + r * (q[1] - p[1])))
    return out


def _affine_integral(poly, f):
    """Exact integral of the affine f over a counter-clockwise convex polygon
    (the shoelace formula with the first moments)."""
    area = ms = mt = 0
    for (s0, t0), (s1, t1) in zip(poly, poly[1:] + poly[:1]):
        cross = s0 * t1 - s1 * t0
        area += cross
        ms += (s0 + s1) * cross
        mt += (t0 + t1) * cross
    return f[0] * Fraction(area, 2) + Fraction(f[1] * ms + f[2] * mt, 6)


def _fraction_hook_pairs(curve):
    """Segment pairs i <= j with nonzero area element, as
    (i, j, polygon, gamma(s), gamma(t), element): the pair's (s, t) domain
    (a rectangle, or the triangle s < t when i = j) and gamma on either
    segment as affine functions of (s, t), all in frame Fractions."""
    xs, ys = curve.xs, curve.ys
    segments = []
    for k in range(len(xs) - 1):
        slope = Fraction(ys[k + 1] - ys[k], xs[k + 1] - xs[k])
        segments.append((xs[k], xs[k + 1], ys[k] - slope * xs[k], slope))
    for i, (s0, s1, cs, gi) in enumerate(segments):
        if gi == -1:
            continue
        for j in range(i, len(segments)):
            t0, t1, ct, gj = segments[j]
            if gj == 1:
                continue
            if i == j:
                poly = [(s0, s0), (s1, s1), (s0, s1)]
            else:
                poly = [(s0, t0), (s1, t0), (s1, t1), (s0, t1)]
            yield i, j, poly, (cs, gi, 0), (ct, 0, gj), (1 + gi) * (1 - gj) / 2


def _w_by_fractions(curve):
    total = Fraction(0)
    ys = curve.ys
    for i, j, poly, gs, gt, element in _fraction_hook_pairs(curve):
        y = _lin((-_HALF, _T_MINUS_S), (_HALF, gs), (_HALF, gt))
        if i == j:
            candidates = [gs if gs[1] < 0 else gt]
        else:
            candidates = [(max(ys[i + 1:j + 1]), 0, 0)]
            if gs[1] < 0:
                candidates.append(gs)
            if gt[2] > 0:
                candidates.append(gt)
        for top in candidates:
            piece = poly
            for other in candidates:
                if other is not top:
                    piece = _clip_fractions(piece, _lin((1, top), (-1, other)))
            total += element * _affine_integral(piece, _lin((1, top), (-1, y)))
    return _true_units(curve, total)


def _c_by_fractions(curve):
    rational = Fraction(0)
    logs = []
    for i, j, poly, gs, gt, element in _fraction_hook_pairs(curve):
        gj = gt[2]
        k0, k1, _ = _lin((1, gt), (-1, gs), (-gj, _T_MINUS_S))
        affine = _lin((1 + gj * gj, _T_MINUS_S), (2 * gj, (k0, k1, 0)))
        rational += element * _affine_integral(poly, affine)
        if i == j:
            continue
        (s0, t0), (s1, _), (_, t1) = poly[:3]
        for te, se, sign in ((t1, s0, 1), (t1, s1, -1), (t0, s0, -1), (t0, s1, 1)):
            v = te - se
            if v == 0:
                continue
            alpha = k0 + k1 * te
            for p, c in enumerate((alpha * alpha, -2 * alpha * k1, k1 * k1), 1):
                term = sign * element * c * v**p / p
                rational -= term / p
                logs.append(float(term) * math.log(v))
    return _true_units(curve, (float(rational) + math.fsum(logs)) / 4)


def _i_by_fractions(curve):
    totals = [Fraction(0), Fraction(0)]
    for _, _, poly, gs, gt, element in _fraction_hook_pairs(curve):
        for k, sign in enumerate((1, -1)):
            exit_ = _lin((_HALF, _T_MINUS_S), (sign * _HALF, gt), (-sign * _HALF, gs))
            totals[k] += element * _affine_integral(poly, exit_)
    return _true_units(curve, totals[0]), _true_units(curve, totals[1])


def _integrals_by_fractions(curve):
    """(W, C, I1, I2) with every pair of segments integrated in frame
    Fractions over its polygon, affine functions as coefficient triples and
    each log term rounded from its Fraction."""
    return (_w_by_fractions(curve), _c_by_fractions(curve), *_i_by_fractions(curve))


@pytest.fixture(scope="session")
def integrals_by_fractions():
    """The four limit integrals in frame Fractions, pair by pair: an oracle
    for the scaled integer segment table that `integrals` reads, which must
    give the same floats."""
    return _integrals_by_fractions
