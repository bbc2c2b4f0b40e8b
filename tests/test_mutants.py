"""Named mutants of the fast paths.

Each row rewrites one line of a function's source, or of a method's or a
property's, installs
the rewritten function with monkeypatch on its class or in every module that
imported it, and asserts that each of its checks, an independent oracle from
`conftest.py` and a comparison, tells it apart.  Before the rewrite every
check must find nothing, so a row cannot pass because a comparison is blind;
a check shared by several rows runs on the unmutated code once.
"""

import inspect
import sys
import textwrap
from itertools import accumulate, permutations
from math import factorial, prod

import pytest

from npslab import complexity, curves, integrals, nps, partitions, sampling, two_row, verify
from npslab.partitions import Partition, partitions_of

SMALL_SHAPES = [shape for n in range(1, 8) for shape in partitions_of(n)]
SIFT_SHAPES = [shape for n in range(1, 6) for shape in partitions_of(n)]


def _rewrite(owner, name, old, new):
    """The function `name` of `owner`, a module or a class, compiled from its
    source with the one occurrence of `old` replaced by `new`, reading the
    globals of the module that defines it."""
    module = inspect.getmodule(owner)
    target = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(getattr(target, "fget", target)))
    assert source.count(old) == 1, (name, old)
    namespace = {}
    exec(compile(source.replace(old, new), module.__file__, "exec"), vars(module), namespace)
    return namespace[name]


def _kernel_caught(kernel_mismatch):
    """Whether `sort_values` differs from the swap-by-swap sort on some
    filling of size 5 or less."""
    return any(kernel_mismatch(shape, permutations(range(1, shape.size + 1)))
               for shape in SIFT_SHAPES)


def _lanes_caught(lanes_mismatch):
    """Whether `sort_lanes` differs from the swap-by-swap sort on some
    filling of size 5 or less, all fillings of a shape in one call."""
    return any(lanes_mismatch(shape, permutations(range(1, shape.size + 1)))
               for shape in SIFT_SHAPES)


def _mixed_lanes_caught(mixed_lanes_mismatch):
    """Whether `sort_lanes` differs from the swap-by-swap sort on some
    filling of size 5 or less, all fillings of every such shape in one
    call."""
    return mixed_lanes_mismatch(
        [(shape, permutations(range(1, shape.size + 1))) for shape in SIFT_SHAPES]) is not None


def _nps_caught(naive_sort):
    """Whether `nps_sort` differs from the naive sort in exchanges, output,
    hooks or trace on some filling of size 5 or less; a raise counts."""
    for shape in SIFT_SHAPES:
        offsets = list(accumulate(shape.parts, initial=0))
        for perm in permutations(range(1, shape.size + 1)):
            tableau = nps.Tableau(shape, [perm[k:k + p] for k, p in zip(offsets, shape.parts)])
            try:
                outcome = nps.nps_sort(tableau)
            except (ValueError, AssertionError):  # the output checks of `nps_sort`
                return True
            if (outcome.exchanges, outcome.output.rows, outcome.hooks.rows,
                    outcome.trace) != naive_sort(tableau):
                return True
    return False


def _double_sums_caught(oracle):
    grid = [(lam1, lam2) for lam1 in range(1, 9) for lam2 in range(1, lam1 + 1)]
    differs = any(two_row.c_double_sums(*shape) != oracle(*shape) for shape in grid)
    ok, _ = verify.check_two_row_theorem(8, {})
    return differs and not ok


def _nested_caught(oracle):
    return any(two_row.s0_nested(lam1, lam2) != oracle(lam1, lam2)
               for lam1 in range(1, 11) for lam2 in range(1, lam1 + 1))


def _w_table_caught(oracle):
    for shape in SMALL_SHAPES:
        rows = complexity._w_table(shape)
        cells = {(i, j): w for i, row in enumerate(rows, start=1)
                 for j, w in enumerate(row, start=1)}
        if cells != oracle(shape):
            return True
    return False


def _chicago_caught(oracle):
    return any(complexity.average_case_chicago(shape) != oracle(shape) for shape in SMALL_SHAPES)


def _corner_sums_caught(oracle):
    """Whether the per-size sums of the downward pass differ from the sum of
    |x| = i + j - 2 over the cells x holding k, tallied over the standard
    fillings among all fillings of each shape of size 6 or less."""
    for shape in (s for n in range(1, 7) for s in partitions_of(n)):
        sums = [0] * (shape.size + 1)
        for filling in oracle(shape):
            rows = filling.rows
            if (all(a < b for row in rows for a, b in zip(row, row[1:]))
                    and all(a < b for high, low in zip(rows, rows[1:])
                            for a, b in zip(high, low))):
                for i, row in enumerate(rows):
                    for j, k in enumerate(row):
                        sums[k] += i + j
        if partitions._chain_counts(shape)[3] != sums:
            return True
    return False


def _bijection_caught(oracle):
    """Whether the report of `verify_bijection` differs from the sift walk's
    on some shape of size 5 or less."""
    return any(nps.verify_bijection(shape) != oracle(shape) for shape in SIFT_SHAPES)


def _pairs_caught(pairs_mismatch):
    """Whether the decoded sets of `_bijection_sets` differ from the pairs
    of `nps_sort` on some shape of size 5 or less."""
    return any(pairs_mismatch(shape) is not None for shape in SIFT_SHAPES)


def _stats_caught(oracle):
    """Whether `exchange_stats` differs from the plain n! loop on some shape
    of size 5 or less."""
    return any(complexity.exchange_stats(shape) != oracle(shape) for shape in SIFT_SHAPES)


def _hook_product_caught(arms_legs_by_cells):
    return any(partitions.hook_product(shape) != prod(arm + leg + 1 for arm, leg in
                                                      arms_legs_by_cells(shape))
               for shape in SMALL_SHAPES)


def _hook_range_caught(arms_legs_by_cells):
    """Whether the `HookTableau` constructor refuses -leg or arm, or accepts
    -leg - 1 or arm + 1, at some cell of a shape of size 7 or less, with 0
    at every other cell."""
    for shape in SMALL_SHAPES:
        for (i, j), (arm, leg) in zip(shape.cells(), arms_legs_by_cells(shape)):
            for v in (-leg - 1, -leg, arm, arm + 1):
                rows = [[0] * p for p in shape.parts]
                rows[i - 1][j - 1] = v
                try:
                    nps.HookTableau(shape, rows)
                    accepted = True
                except ValueError:
                    accepted = False
                if accepted != (-leg <= v <= arm):
                    return True
    return False


def _witness_caught(oracle):
    for shape in SMALL_SHAPES:
        try:
            witness = complexity.worst_case_witness(shape)
        except complexity.WitnessConstructionError:
            return True  # the oracle builds a witness here, and the route does not
        if witness.format() != oracle(shape).format():
            return True
    return False


@pytest.fixture(scope="session")
def balanced_boundaries():
    """The boundary of every shape of size 8 or less, balanced exponents."""
    return [curves.partition_boundary(shape, n) for n in range(1, 9) for shape in partitions_of(n)]


def _area_caught(boundaries):
    """Whether some balanced boundary has an area other than 1."""
    return any(curve.area != 1 for curve in boundaries)


@pytest.fixture(scope="session")
def general_curve_views(general_curves, general_curve_points, views_by_fractions):
    """The two general curves, whose breakpoints have denominators, each with
    the views of its constructor's points computed in Fractions."""
    return [(curve, views_by_fractions(points, 1))
            for curve, points in zip(general_curves, general_curve_points)]


def _xs_caught(expected):
    """Whether the xs view of some general curve differs from the Fractions
    of its constructor's points."""
    return any(curve.xs != views["xs"] for curve, views in expected)


def _boundary_caught(boundary_refusals):
    return bool(boundary_refusals())


def _corners_caught(full_profile_boundary):
    """Whether some balanced boundary of a shape of size 8 or less is not
    the curve through every step of its profile."""
    return any(not curves.partition_boundary(shape, n).same_curve(full_profile_boundary(shape))
               for n in range(1, 9) for shape in partitions_of(n))


def _uniformity_caught(oracle):
    """Whether the chi-square of `syt_uniformity_test` differs in some bit
    from the `Counter` tally's on (3,2), (2,2,1) or (4,3), n! <= m, at one
    of five seeds."""
    for parts in ((3, 2), (2, 2, 1), (4, 3)):
        shape = Partition(parts)
        m = 3 * factorial(shape.size) + 7
        for seed in range(5):
            if sampling.syt_uniformity_test(shape, m, seed)[0].hex() != oracle(shape, m, seed)[0].hex():
                return True
    return False


def _exits_caught(query_mismatches):
    """Whether a float curve query differs from the linear walk on the
    boundary of (4,2,1), (3,3,1,1) or (5,2,2,1)."""
    grid = [curves.partition_boundary(Partition(p), sum(p))
            for p in ((4, 2, 1), (3, 3, 1, 1), (5, 2, 2, 1))]
    return bool(query_mismatches(grid, exact=False))


@pytest.fixture(scope="session")
def integrals_on_general_curves(integrals_by_fractions, general_curves):
    """Each general curve with its (W, C, I1, I2) from the Fraction oracle."""
    return [(curve, integrals_by_fractions(curve)) for curve in general_curves]


def _every_integral_caught(expected):
    """Whether each of W, C, I1 and I2 differs from the Fraction oracle on
    every general curve, each built again, so that its segment table is
    the one that the code under test builds."""
    for curve, wants in expected:
        curve = curves.LimitCurve(list(zip(curve.xs, curve.ys)), curve.scale_sq)
        if any(got == want for got, want in zip(
                (integrals.worst_case_integral(curve), integrals.avg_lower_integral(curve),
                 *integrals.imbalanced_integrals(curve)), wants)):
            return False
    return True


def _c_integral_caught(expected):
    """Whether C differs from the Fraction oracle on every general curve."""
    return all(integrals.avg_lower_integral(curve) != wants[1] for curve, wants in expected)


def _cellwise_caught(oracle):
    """Whether the certificate of `distance_integral_cellwise` raises on some
    shape of size 4 or less, and `check_wn_identity(6)` fails; a raise
    counts, as `verify` reports it.  A value that the certificate lets
    through must equal the oracle's."""
    for shape in (s for n in range(1, 5) for s in partitions_of(n)):
        try:
            got = integrals.distance_integral_cellwise(shape)
        except AssertionError:
            break
        assert got == oracle(shape), shape
    else:
        return False
    try:
        ok, _ = verify.check_wn_identity(6)
    except AssertionError:
        ok = False
    return not ok


def _skew_count_caught(aitken):
    """Whether `skew_syt_count`, which codes the inner shape in its own base,
    differs from the Aitken determinant, or raises, on some pair of shapes
    of size 5 or less."""
    for outer in SIFT_SHAPES:
        for inner in (s for k in range(outer.size + 1) for s in partitions_of(k)):
            if outer.contains_shape(inner):
                try:
                    if partitions.skew_syt_count(outer, inner) != aitken(outer, inner):
                        return True
                except KeyError:
                    return True
    return False


def _blocks_caught(boards_per_draw):
    """Whether the block draws differ from one `permutation` per draw on
    (3,2) or (2,2,1)."""
    for parts in ((3, 2), (2, 2, 1)):
        shape = Partition(parts)
        blocks = [row for block in sampling._draw_blocks(shape, 40, 7) for row in block.tolist()]
        if blocks != list(boards_per_draw(shape, 40, 7)):
            return True
    return False


def _fit_caught(expected):
    """Whether the fit differs from the exact depth order at some n <= 60 on
    the square, the flat top or one of four partition boundaries."""
    return any(set(curves._deepest_cells(curve, n).cells()) != cells
               for curve, n, cells in expected)


MUTANTS = [
    # the s1 and s2 terms at (j, k) = (2, 3) dropped from the bucket of k = 3
    pytest.param(two_row, "c_double_sums",
                 "* comb(k, j) * lower\n", "* comb(k, j) * lower * ((j, k) != (2, 3))\n",
                 (("c_double_sums_termwise", _double_sums_caught),), id="double-sums-term-dropped"),
    # the harmonic part over lcm(1..lam1 - 1) in place of lcm(1..lam1)
    pytest.param(two_row, "s0_nested", "lcd_h, h = _harmonic_numerators(lam1)\n",
                 "lcd_h, h = _harmonic_numerators(lam1); lcd_h = lcm(*range(1, lam1))\n",
                 (("s0_nested_termwise", _nested_caught),), id="nested-harmonics-wrong-lcm"),
    # every harmonic term shifted by one: D/(k + 1) in place of D/k, so D H_m
    # reads D (H_(m+1) - 1) in every caller
    pytest.param(partitions, "_harmonic_terms", "lcd // k for k", "lcd // (k + 1) for k",
                 (("chicago_by_fractions", _chicago_caught),
                  ("s0_nested_termwise", _nested_caught)), id="harmonic-terms-shifted"),
    # every row tail one higher: p - j in place of p - 1 - j
    pytest.param(complexity, "_w_table",
                 "range(p - 1 - below, -1, -1)", "range(p - below, 0, -1)",
                 (("w_by_corners", _w_table_caught),), id="w-row-tail-off-by-one"),
    # the smaller of w South and w East kept in place of the larger
    pytest.param(complexity, "_w_table", "w[j] if w[j] > east else east",
                 "w[j] if w[j] < east else east",
                 (("w_by_corners", _w_table_caught),), id="w-smaller-neighbour"),
    # the corner weight i + j - 1 in place of |x| = i + j - 2 in the downward
    # pass.  C itself stays the same: a constant added to |x| adds
    # f sum_k (H_n - H_(n-k) - 1) = 0, so the per-size sums are compared.
    pytest.param(partitions, "_chain_counts", "(i + j - 2) *", "(i + j - 1) *",
                 (("tableaux", _corner_sums_caught),), id="chicago-corner-weight"),
    # the weight of size k read at H_(n-k+1) in place of H_(n-k)
    pytest.param(complexity, "average_case_chicago", "h[n] - h[n - k] - lcd",
                 "h[n] - h[n - k + 1] - lcd",
                 (("chicago_by_fractions", _chicago_caught),), id="chicago-harmonic-tail"),
    # each rectangle column filled top to bottom in place of bottom to top
    pytest.param(complexity, "worst_case_witness", "first = filled + ci - i + 1",
                 "first = filled + i - ai + 1",
                 (("witness_by_cells", _witness_caught),), id="witness-top-down"),
    # the kernel writes the moving value, not the neighbour it passes, into
    # the cell it leaves: v lands twice and the smaller neighbour is lost
    pytest.param(nps._ShapeOps, "sort_values", "board[c] = sv", "board[c] = v",
                 (("kernel_mismatch", _kernel_caught), ("naive_sort", _nps_caught)),
                 id="kernel-double-write"),
    # the kernel moves East whenever the East neighbour is below the value,
    # even when the South neighbour is smaller still
    pytest.param(nps._ShapeOps, "sort_values", "if sv < ev:", "if ev > v:",
                 (("kernel_mismatch", _kernel_caught), ("naive_sort", _nps_caught)),
                 id="kernel-east-first"),
    # the lanes step East where South is smaller and South where East is
    pytest.param(nps, "sort_lanes", "(width - (width - 1) * (east < south))",
                 "(1 + (width - 1) * (east < south))",
                 (("lanes_mismatch", _lanes_caught),), id="lanes-strides-swapped"),
    # a lane that stops counts one exchange more than its steps: every lane
    # is counted as a mover once more at every cell
    pytest.param(nps, "sort_lanes", "moved = []", "moved = [lane]",
                 (("lanes_mismatch", _lanes_caught),), id="lanes-count-off-by-one"),
    # a lane that stops leaves the cell it stops at as it was
    pytest.param(nps, "sort_lanes", "board[p] = np.minimum(m, v)",
                 "board[p[go]] = m[go]",
                 (("lanes_mismatch", _lanes_caught),), id="lanes-stopped-not-written"),
    # a shape's lanes still take part at the cell after its last one: they
    # sift the row's padding from the start cell in the table's padding
    pytest.param(nps, "sort_lanes", "if ops.n > t)", "if ops.n >= t)",
                 (("mixed_lanes_mismatch", _mixed_lanes_caught),),
                 id="lanes-finished-shape-one-cell-too-long"),
    # every lane starts from the cells of the batch's first, largest shape
    pytest.param(nps, "sort_lanes", "np.repeat(starts[t, :g], sizes[:g])",
                 "np.repeat(starts[t, 0], a)",
                 (("mixed_lanes_mismatch", _mixed_lanes_caught),),
                 id="lanes-start-cells-of-the-wrong-shape"),
    # the slide chain follows the South neighbour while there is one,
    # whatever its value
    pytest.param(nps._ShapeOps, "slide_chain", "c = s if board[s] < board[e] else e",
                 "c = s if s != n else e",
                 (("plain_stats", _stats_caught), ("bijection_by_sifts", _bijection_caught)),
                 id="chain-south-first"),
    # every slide chain longer than its start loses its last cell
    pytest.param(nps._ShapeOps, "slide_chain", "return cells, ranks",
                 "return (cells[:-1], ranks[:-2] + ranks[-1:]) if len(cells) > 1 "
                 "else (cells, ranks)",
                 (("plain_stats", _stats_caught), ("bijection_by_sifts", _bijection_caught)),
                 id="chain-ending-early"),
    # a rank equal to the next chain rank slides past it
    pytest.param(nps._ShapeOps, "landings", "while ranks[m] < r:", "while ranks[m] <= r:",
                 (("plain_stats", _stats_caught), ("bijection_by_sifts", _bijection_caught)),
                 id="landing-past-equal-rank"),
    # the landing row records the whole drop j1 - j0 + i1 - i0 in place of
    # the column displacement j1 - j0: the value j1 - j0 - i0 inserted as e
    pytest.param(nps, "nps_sort", "j1 - j0 - i1)", "j1 - j0 - i0)",
                 (("naive_sort", _nps_caught),), id="hook-insertion-records-drop"),
    # the n! route's digit records the row displacement i1 - i0 in place of
    # the column displacement j1 - j0: two landings in one row share a digit
    pytest.param(nps, "_bijection_sets", "(j1 - j0 - i1 + heights[j0 - 1])",
                 "(i1 - i0 - i1 + heights[j0 - 1])",
                 (("bijection_by_sifts", _bijection_caught),),
                 id="bijection-digit-records-row-drop"),
    # the n! route's digit records the whole drop, j1 - j0 - i0: a digit that
    # stays injective in the landing cell leaves every count of the report
    # as it is, so only the decoded pairs tell it from the NPS hooks
    pytest.param(nps, "_bijection_sets", "(j1 - j0 - i1 + heights[j0 - 1])",
                 "(j1 - j0 - i0 + heights[j0 - 1])",
                 (("bijection_pairs_mismatch", _pairs_caught),),
                 id="bijection-digit-records-drop"),
    # the landing value inserted one index lower in its column: one row
    # below the landing, or after the last row
    pytest.param(nps, "nps_sort", "insert(i1 - i0,", "insert(i1 - i0 + 1,",
                 (("naive_sort", _nps_caught),), id="hook-insertion-one-index-lower"),
    # the digits below an insertion, the finished columns among them, kept
    # in place: the new digit is added onto the one at its place
    pytest.param(nps, "_bijection_sets", "low, high = powers[i1 - i0], powers[i1 - i0 + 1]",
                 "low, high = powers[i1 - i0], powers[i1 - i0]",
                 (("bijection_by_sifts", _bijection_caught),), id="bijection-insertion-without-shift"),
    # the last level pools the hook codes of every output into one set, so
    # two fillings with the same hooks and different outputs count once
    pytest.param(nps, "_bijection_sets", "found[child].update(hooks)",
                 "found[0].update(hooks)",
                 (("bijection_by_sifts", _bijection_caught),), id="bijection-leaf-pools-outputs"),
    # a merged state keeps the count of the last landing group that reaches
    # it in place of the sum over all of them
    pytest.param(nps, "_prefix_walk", "seen[1] += count", "seen[1] = count",
                 (("plain_stats", _stats_caught), ("bijection_by_sifts", _bijection_caught)),
                 id="walk-merge-keeps-last-count"),
    # every leg one longer: hooks grow, and -leg - 1 passes the range check
    pytest.param(partitions, "_arms_legs", "heights[j - 1] - i)", "heights[j - 1] - i + 1)",
                 (("arms_legs_by_cells", _hook_product_caught),
                  ("arms_legs_by_cells", _hook_range_caught)), id="leg-off-by-one"),
    # the slope denominator read as 1 while G and C stay scaled by Q
    pytest.param(curves.LimitCurve, "_store", "_Segments(L, Q,", "_Segments(L, 1,",
                 (("integrals_on_general_curves", _every_integral_caught),),
                 id="segment-q-forced-to-one"),
    # the log terms' rational parts weighted 36 / p in place of 36 / p^2
    pytest.param(integrals, "avg_lower_integral", "_LOG_WEIGHTS[p - 1]", "(36, 18, 12)[p - 1]",
                 (("integrals_on_general_curves", _c_integral_caught),), id="log-weights-36-over-p"),
    # cell (1,1) contributes one more than 2 (w + 1)
    pytest.param(integrals, "distance_integral_cellwise", "2 * (w_rows[i - 1][j - 1] + 1)",
                 "2 * (w_rows[i - 1][j - 1] + 1) + ((i, j) == (1, 1))",
                 (("cellwise_by_fractions", _cellwise_caught),), id="cell-distance-off-by-one"),
    # the integral of |x| over the span without its left end
    pytest.param(curves.LimitCurve, "area_frame", " - X[0] * abs(X[0])", "",
                 (("balanced_boundaries", _area_caught),), id="area-without-left-end"),
    # the abscissas divided by L twice: X / L^2 in place of X / L
    pytest.param(curves.LimitCurve, "xs", "Fraction(x, self._segments.L)",
                 "Fraction(x, self._segments.L ** 2)",
                 (("general_curve_views", _xs_caught),), id="xs-view-over-l-squared"),
    # the boundary without its last breakpoint
    pytest.param(curves, "partition_boundary", "_stored_curve(q, X, Y, scale / 2)",
                 "_stored_curve(q, X[:-1], Y[:-1], scale / 2)",
                 (("boundary_refusals", _boundary_caught),), id="boundary-missing-last-point"),
    # the lower corner of a run of two or more equal rows dropped, as if it
    # were collinear with its neighbours
    pytest.param(curves, "partition_boundary", "profile += [(u, v), (u, v - k)]",
                 "profile += [(u, v)] * (k == 1) + [(u, v - k)]",
                 (("full_profile_boundary", _corners_caught),), id="boundary-run-corner-dropped"),
    # the distinct fillings tallied in code order, not in the order of their
    # first draw: the same counts, summed into the chi-square in another order
    pytest.param(sampling, "_distinct_draws", "tally[:, np.argsort(tally[1])]",
                 "tally[:, np.argsort(tally[0])]",
                 (("uniformity_by_counter", _uniformity_caught),), id="tally-in-code-order"),
    # bisect_left for bisect_right on w - gamma(w): the arm stops at a
    # breakpoint where gamma(w) - w equals y - x instead of following the
    # diagonal along the slope +1 segment after it
    pytest.param(curves, "_exits", "j = bisect_right(falls, -target, i)",
                 "j = bisect_left(falls, -target, i)",
                 (("query_mismatches", _exits_caught),), id="arm-exit-at-equality"),
    # the leg crossing solved on the segment left of the one it crosses
    pytest.param(curves, "_exits", "j = bisect_left(rises, target, 0, last + 1) - 1",
                 "j = bisect_left(rises, target, 0, last + 1) - 2",
                 (("query_mismatches", _exits_caught),), id="leg-crossing-one-segment-off"),
    # exact depth ties broken toward the larger i
    pytest.param(curves, "_deepest_cells", "f, i + j, i, j", "f, i + j, -i, i, j",
                 (("fits_by_depth", _fit_caught),), id="fit-ties-to-larger-i"),
    # the cut key without q, the denominator of R^2: the diagonal is placed
    # on the wrong segment wherever q != 1, as on partition boundaries
    pytest.param(curves, "_deepest_cells", " * r2.denominator", "",
                 (("fits_by_depth", _fit_caught),), id="fit-cut-without-q"),
    # every breakpoint kept, collinear ones included: the boundary through
    # the profile's corners no longer equals the one through every step
    pytest.param(curves.LimitCurve, "_canonical", " if g0 != g1", "",
                 (("full_profile_boundary", _corners_caught),), id="canonical-keeps-collinear"),
    # subdiagrams coded in base lambda_1 - 1: (1,1) and (3,0) share a code
    # in (3,1), and no code matches the base lambda_1 + 1 of skew_syt_count
    pytest.param(partitions, "_subdiagrams", "base = outer.row(1) + 1", "base = outer.row(1) - 1",
                 (("aitken", _skew_count_caught),), id="subdiagram-codes-base-lambda1-minus-1"),
    # one permutation repeated for every row of a block
    pytest.param(sampling, "_draw_blocks",
                 "yield rng.permuted(np.broadcast_to(values, (rows, n)), axis=1)",
                 "yield np.broadcast_to(rng.permutation(values), (rows, n))",
                 (("boards_per_draw", _blocks_caught),), id="block-rows-share-one-permutation"),
]


@pytest.fixture(scope="session")
def clean_checks():
    """The (oracle, check) pairs that found nothing on the unmutated code."""
    return set()


@pytest.mark.parametrize("owner, name, old, new, checks", MUTANTS)
def test_mutant_is_caught(monkeypatch, request, clean_checks, owner, name, old, new, checks):
    for key in set(checks) - clean_checks:
        assert not key[1](request.getfixturevalue(key[0])), key[1].__name__
        clean_checks.add(key)
    checks = [(request.getfixturevalue(oracle), caught) for oracle, caught in checks]
    original = getattr(owner, name)
    mutant = _rewrite(owner, name, old, new)
    monkeypatch.setattr(owner, name, mutant)
    for key, loaded in list(sys.modules.items()):
        if key.startswith("npslab") and getattr(loaded, name, None) is original:
            monkeypatch.setattr(loaded, name, mutant)
    # the cached shape ops are built again from the mutant, and dropped after it
    nps.shape_ops.cache_clear()
    request.addfinalizer(nps.shape_ops.cache_clear)
    for oracle, caught in checks:
        assert caught(oracle), caught.__name__
