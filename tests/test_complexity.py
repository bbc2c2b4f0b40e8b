import hashlib
import random
from fractions import Fraction

import pytest

import npslab
from npslab import complexity
from npslab.complexity import (
    MAX_ENUMERATION_WORK,
    WitnessConstructionError,
    MAX_SORTED_ORDERS,
    _w_table,
    average_case_bruteforce,
    average_case_chicago,
    exchange_stats,
    expected_hook_abs,
    f_fixed_entry,
    max_case_bruteforce,
    w_distance,
    worst_case,
    worst_case_witness,
)
from npslab import partitions
from npslab.nps import nps_sort, shape_ops, verify_bijection
from npslab.partitions import (
    Partition,
    SizeGuardError,
    hook_product,
    partitions_of,
    syt_count,
)
from npslab.sampling import syt_uniformity_test

FIG_SHAPE = Partition([4, 4, 2, 1, 1, 1])


def test_w_distance_examples():
    assert w_distance(FIG_SHAPE, (1, 1)) == 5
    for corner in FIG_SHAPE.corners():
        assert w_distance(FIG_SHAPE, corner) == 0
    assert w_distance(Partition([3, 2]), (1, 2)) == 1
    with pytest.raises(ValueError):
        w_distance(Partition([2, 1]), (2, 2))


def test_worst_case_examples():
    assert worst_case(Partition([2, 2])) == 4
    assert worst_case(Partition([1])) == 0
    assert worst_case(Partition([2, 1])) == 1 == max_case_bruteforce(Partition([2, 1]))


def test_w_recurrence_matches_corner_maximum(w_by_corners):
    shapes = [shape for n in range(13) for shape in partitions_of(n)]
    shapes.append(Partition(range(30, 0, -1)))
    shapes.append(Partition((40,) * 40))
    for seed in range(3):
        rng = random.Random(seed)
        shapes.append(Partition(sorted((rng.randint(1, 40) for _ in range(30)), reverse=True)))
    for shape in shapes:
        expected = w_by_corners(shape)
        assert worst_case(shape) == sum(expected.values()), shape
        assert {cell: w_distance(shape, cell) for cell in expected} == expected, shape
    # shapes whose rows are mostly tail, the cells with no cell below: two rows
    # (n - c, c), hooks (m, 1^k), and equal rows, whose last row is all tail
    tails = [Partition((n - c, c)) for n in range(2, 301) for c in range(1, 7) if c <= n - c]
    tails += [Partition((m,) + (1,) * k) for m in range(1, 16) for k in range(16)]
    tails.append(Partition((9,) * 6))
    for shape in tails:
        expected = w_by_corners(shape)
        rows = _w_table(shape)
        assert {(i, j): w for i, row in enumerate(rows, start=1)
                for j, w in enumerate(row, start=1)} == expected, shape
        assert worst_case(shape) == sum(expected.values()), shape


def test_witnesses_are_pinned():
    # sha256 of one "shape:witness" line per shape: `worst --witness` prints
    # these witnesses, and its output is documented as stable
    shapes = [shape for n in range(1, 11) for shape in partitions_of(n)]
    shapes.append(Partition(range(30, 0, -1)))
    text = "".join(f"{shape}:{worst_case_witness(shape).format()}\n" for shape in shapes)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "f49c37c04733fa7aa82ef1fdb2b9485cb5bb7e137597ac158375462e57a9f5d8")


def _w_table_with(cell, value):
    """`_w_table` with w(cell) read as `value`."""
    def table(shape):
        rows = [list(row) for row in _w_table(shape)]
        rows[cell[0] - 1][cell[1] - 1] = value
        return rows
    return table


@pytest.mark.parametrize("cell, value, message", [
    # no corner of (2,1) lies at distance 0 from (1,1)
    ((1, 1), 0, "no admissible corner for anchor (1, 1) of 2,1"),
    # (1,2) is filled with the rectangle of (1,1), so its w is never read as
    # an anchor's; only the expected sum sees it
    ((1, 2), 5, "witness for 2,1 achieves 1 exchanges, expected 6"),
], ids=["no-corner", "sum-mismatch"])
def test_witness_construction_error_names_the_fault(monkeypatch, cell, value, message):
    shape = Partition([2, 1])
    assert worst_case_witness(shape).format() == "2,1;3"
    monkeypatch.setattr(complexity, "_w_table", _w_table_with(cell, value))
    with pytest.raises(WitnessConstructionError) as info:
        worst_case_witness(shape)
    assert str(info.value) == message


def test_witness_examples():
    witness = worst_case_witness(Partition([2, 2]))
    assert witness.format() == "4,2;3,1"
    assert nps_sort(witness).exchanges == 4

    assert worst_case_witness(Partition([1])).format() == "1"
    assert nps_sort(worst_case_witness(Partition([2, 1]))).exchanges == 1
    with pytest.raises(ValueError):
        worst_case_witness(Partition([]))


def _count_conjugates(monkeypatch):
    """The shapes passed to `partitions.conjugate` from now on."""
    calls = []
    original = partitions.conjugate
    monkeypatch.setattr(partitions, "conjugate", lambda shape: calls.append(shape) or original(shape))
    return calls


def test_hook_sums_take_one_conjugate_each(monkeypatch):
    calls = _count_conjugates(monkeypatch)
    square = Partition([7] * 7)
    syt_count(square)
    expected_hook_abs(square)
    assert calls == [square, square]


def test_hook_sums_match_cellwise_hooks(arms_legs_by_cells):
    shapes = [shape for n in range(11) for shape in partitions_of(n)]
    for shape in shapes + [Partition([100] * 100)]:
        product = 1
        mean = Fraction(0)
        for arm, leg in arms_legs_by_cells(shape):
            product *= arm + leg + 1
            mean += Fraction(arm * arm + arm + leg * leg + leg, 2 * (arm + leg + 1))
        assert hook_product(shape) == product, shape
        assert expected_hook_abs(shape) == mean, shape


def test_witness_on_assorted_shapes():
    for parts in [(3, 1, 1), (4, 2, 1), (5, 5, 2), (6, 3, 3, 1), (7, 1), (2, 2, 2, 2),
                  (9, 6, 4, 4, 1), (10, 10, 5)]:
        shape = Partition(parts)
        witness = worst_case_witness(shape)
        assert nps_sort(witness).exchanges == worst_case(shape)


# The witness shapes of the perfbench `exact` workload at seed 1.
PERFBENCH_WITNESS_SHAPES = [
    tuple(range(30, 0, -1)),
    (28, 26, 25, 25, 23, 23, 22, 21, 20, 17, 15, 15, 12, 11, 10, 10, 9, 9, 9, 9, 8, 6, 6, 6, 6,
     4, 3, 3, 1, 1),
    (29, 27, 26, 24, 24, 23, 20, 17, 16, 16, 15, 14, 14, 13, 13, 11, 10, 9, 9, 8, 7, 7, 6, 5, 4,
     4, 2, 1, 1, 1),
    (29, 27, 26, 26, 24, 23, 22, 22, 22, 21, 21, 21, 19, 18, 17, 17, 17, 15, 14, 14, 13, 11, 10,
     8, 8, 7, 5, 2, 2, 1),
]


def test_witness_matches_cell_dict_route(witness_by_cells):
    shapes = [shape for n in range(1, 11) for shape in partitions_of(n)]
    shapes += [Partition(parts) for parts in PERFBENCH_WITNESS_SHAPES]
    rng = random.Random(2015)
    for _ in range(200):
        rows = rng.randint(1, 30)
        shapes.append(Partition(sorted((rng.randint(1, 30) for _ in range(rows)), reverse=True)))
    for shape in shapes:
        assert worst_case_witness(shape).format() == witness_by_cells(shape).format(), shape


def test_witness_takes_two_conjugates(monkeypatch):
    # start from no cached sort tables, so building them is counted too:
    # one conjugate for the hooks and one for the processing order
    shape_ops.cache_clear()
    calls = _count_conjugates(monkeypatch)
    staircase = Partition(range(30, 0, -1))
    worst_case_witness(staircase)
    assert calls == [staircase, staircase]


def test_average_examples():
    assert average_case_bruteforce(Partition([2, 1])) == Fraction(2, 3)
    assert average_case_bruteforce(Partition([1])) == 0
    assert average_case_bruteforce(Partition([2])) == Fraction(1, 2)
    with pytest.raises(ValueError, match="cutoff"):
        average_case_bruteforce(Partition([5, 5]))


def test_exchange_stats_matches_plain_enumeration_up_to_8(plain_stats):
    for n in range(0, 9):
        for shape in partitions_of(n):
            assert exchange_stats(shape) == plain_stats(shape), shape


def test_sorted_order_guard_refuses_before_enumerating(monkeypatch):
    def no_enumeration(shape):
        raise AssertionError(f"enumerated the fillings of {shape}")

    with monkeypatch.context() as m:
        m.setattr("npslab.complexity.shape_ops", no_enumeration)
        with pytest.raises(ValueError, match="f = 1662804 sorted orders, above the "
                                             "enumeration budget of 50000"):
            exchange_stats(Partition([5, 5, 5, 5]), cutoff=20)
    shape = Partition([2, 2])  # f = 2: admitted at a budget of 2, not of 1
    monkeypatch.setattr("npslab.complexity.MAX_SORTED_ORDERS", 2)
    assert exchange_stats(shape) == (44, 4)
    monkeypatch.setattr("npslab.complexity.MAX_SORTED_ORDERS", 1)
    with pytest.raises(ValueError, match="f = 2 sorted orders"):
        average_case_bruteforce(shape)


def test_work_guard_bounds_long_hooks_before_enumerating(monkeypatch):
    def no_enumeration(shape):
        raise AssertionError(f"enumerated the fillings of {shape}")

    monkeypatch.setattr("npslab.complexity.shape_ops", no_enumeration)
    # f n^2 for the hook (m,1) is m (m + 1)^2: 19,829,070 at m = 270 and
    # 20,049,664 at m = 271, either side of the budget
    with pytest.raises(AssertionError, match="enumerated"):
        exchange_stats(Partition([270, 1]), cutoff=1000)
    with pytest.raises(SizeGuardError, match=r"f n\^2 = 20049664 units of work, above the "
                                             r"enumeration budget of 20000000"):
        exchange_stats(Partition([271, 1]), cutoff=1000)


def test_worst_case_budgets_refuse_by_name_before_any_sort(monkeypatch):
    def no_sort(shape):
        raise AssertionError(f"sorted a witness of {shape}")

    shape = Partition([3, 1])  # 4 cells, W = 2 + 1 + 0 + 0 = 3
    monkeypatch.setattr(complexity, "MAX_WORST_CELLS", 4)
    monkeypatch.setattr(complexity, "MAX_WITNESS_EXCHANGES", 3)
    assert worst_case(shape) == 3
    assert nps_sort(worst_case_witness(shape)).exchanges == 3
    monkeypatch.setattr(complexity, "MAX_WITNESS_EXCHANGES", 2)
    monkeypatch.setattr(complexity, "shape_ops", no_sort)
    with pytest.raises(SizeGuardError, match=r"^3,1 needs W = 3 exchanges, above the witness "
                                             r"budget of 2$"):
        worst_case_witness(shape)
    monkeypatch.setattr(complexity, "MAX_WORST_CELLS", 3)
    for call in (worst_case, worst_case_witness, lambda s: w_distance(s, (1, 1))):
        with pytest.raises(SizeGuardError, match=r"^3,1 has 4 cells, above the worst-case "
                                                 r"budget of 3$"):
            call(shape)


def test_worst_case_budgets_admit_every_thirty_row_witness():
    # every shape with at most 30 rows and parts up to 30 lies in the square,
    # and W only grows with the shape: the 30-row witnesses of the benchmark
    # and the README's shapes are admitted
    square = Partition([30] * 30)
    assert worst_case(square) == 26100 <= complexity.MAX_WITNESS_EXCHANGES
    assert nps_sort(worst_case_witness(square)).exchanges == 26100


def test_work_budget_admits_every_sorted_order_budget_shape_up_to_20():
    admitted = 0
    for n in range(1, 21):
        for shape in partitions_of(n):
            f = syt_count(shape)
            if f <= MAX_SORTED_ORDERS:
                assert f * n * n <= MAX_ENUMERATION_WORK, shape
                admitted += 1
    assert admitted == 887


@pytest.mark.parametrize("call,message", [
    (lambda: verify_bijection(Partition([5, 5])), "size 10 exceeds enumeration cutoff 9"),
    (lambda: exchange_stats(Partition([5, 5])), "size 10 exceeds enumeration cutoff 9"),
    (lambda: exchange_stats(Partition([5, 5, 5, 5]), cutoff=20),
     "5,5,5,5 has f = 1662804 sorted orders, above the enumeration budget of 50000"),
    (lambda: exchange_stats(Partition([1000, 1]), cutoff=1001),
     "1000,1 needs f n^2 = 1002001000 units of work, above the enumeration budget of "
     "20000000"),
    (lambda: average_case_chicago(Partition([12] * 12)),
     "2704156 subdiagrams, exceeding the limit 1000000"),
    (lambda: syt_uniformity_test(Partition([5, 4, 3, 2]), 10, 0),
     "48048 standard tableaux is too many to tabulate"),
], ids=["bijection-cutoff", "brute-cutoff", "sorted-orders", "work", "subdiagrams",
        "uniformity-classes"])
def test_size_guards_raise_one_named_error(call, message):
    assert npslab.SizeGuardError is SizeGuardError and issubclass(SizeGuardError, ValueError)
    with pytest.raises(SizeGuardError) as info:
        call()
    assert str(info.value).endswith(message)


def test_bruteforce_matches_exact_routes_at_sizes_9_and_10():
    shapes = [s for n in (9, 10) for s in partitions_of(n)]
    assert len(shapes) == 72
    for shape in shapes:
        assert average_case_bruteforce(shape, cutoff=10) == average_case_chicago(shape), shape
        assert max_case_bruteforce(shape, cutoff=10) == worst_case(shape), shape


def test_expected_hook_abs_examples():
    assert expected_hook_abs(Partition([2, 2])) == Fraction(5, 3)
    assert expected_hook_abs(Partition([1])) == 0
    assert expected_hook_abs(Partition([2, 1])) == Fraction(2, 3)


def test_expected_hook_abs_is_exact_mean_over_hook_tableaux(hook_tableaux):
    for parts in [(2, 1), (2, 2), (3, 1), (3, 2), (2, 2, 1)]:
        shape = Partition(parts)
        tableaux = list(hook_tableaux(shape))
        mean = Fraction(sum(abs(v) for h in tableaux for row in h.rows for v in row),
                        len(tableaux))
        assert expected_hook_abs(shape) == mean, shape


def test_f_fixed_entry_examples():
    assert f_fixed_entry(Partition([2, 1]), (1, 2), 2) == 1
    assert f_fixed_entry(Partition([3, 2]), (1, 1), 1) == syt_count(Partition([3, 2]))
    assert f_fixed_entry(Partition([2, 1]), (1, 1), 2) == 0
    with pytest.raises(ValueError):
        f_fixed_entry(Partition([2, 1]), (2, 2), 1)
    with pytest.raises(ValueError):
        f_fixed_entry(Partition([2, 1]), (1, 1), 4)


def test_f_fixed_entry_normalization():
    for shape in (s for n in range(1, 9) for s in partitions_of(n)):
        for cell in shape.cells():
            total = sum(f_fixed_entry(shape, cell, k) for k in range(1, shape.size + 1))
            assert total == syt_count(shape), (shape, cell)


def _remove_corner(mu, i):
    """mu with the last cell of row i removed."""
    parts = list(mu.parts)
    parts[i - 1] -= 1
    return Partition(p for p in parts if p)


def _f_fixed_entry_by_determinant(shape, cell, k, aitken, subpartitions):
    i, j = cell
    return sum(syt_count(_remove_corner(mu, i)) * aitken(shape, mu)
               for mu in subpartitions(shape)
               if mu.size == k and mu.row(i) == j and mu.row(i + 1) < j)


def test_f_fixed_entry_matches_determinant_route_up_to_6(aitken, subpartitions):
    for n in range(1, 7):
        for shape in partitions_of(n):
            for cell in shape.cells():
                for k in range(1, n + 1):
                    expected = _f_fixed_entry_by_determinant(shape, cell, k, aitken,
                                                             subpartitions)
                    assert f_fixed_entry(shape, cell, k) == expected, (shape, cell, k)


def test_f_fixed_entry_two_row_support_windows():
    # nonzero exactly on {j..2j-1} for first-row cells with j <= lam2, on
    # {j..lam2+j} for the remaining first-row cells, and on {2j..lam1+j} for
    # second-row cells
    lam1, lam2 = 4, 2
    shape = Partition([lam1, lam2])
    n = lam1 + lam2
    for j in range(1, lam1 + 1):
        if j <= lam2:
            support = set(range(j, 2 * j))
        else:
            support = set(range(j, lam2 + j + 1))
        got = {k for k in range(1, n + 1) if f_fixed_entry(shape, (1, j), k) > 0}
        assert got == support, (1, j)
    for j in range(1, lam2 + 1):
        support = set(range(2 * j, lam1 + j + 1))
        got = {k for k in range(1, n + 1) if f_fixed_entry(shape, (2, j), k) > 0}
        assert got == support, (2, j)


def test_chicago_small_values():
    assert average_case_chicago(Partition([2, 1])) == Fraction(2, 3)
    assert average_case_chicago(Partition([1])) == 0
    assert average_case_chicago(Partition([2, 2])) == Fraction(11, 6)


def _chicago_by_determinant(shape, aitken, subpartitions, harmonic_sum):
    """The harmonic-number formula with each skew count f^(shape/mu) from the
    Aitken determinant and each f^(mu - x) from the hook-length formula."""
    n = shape.size
    total = Fraction(0)
    for mu in subpartitions(shape):
        weight = harmonic_sum(n) - harmonic_sum(n - mu.size) - 1
        skew = aitken(shape, mu)
        for (i, j) in mu.corners():
            total += (i + j - 2) * syt_count(_remove_corner(mu, i)) * skew * weight
    return total / syt_count(shape)


@pytest.mark.parametrize("parts", [(6,) * 6, (6, 5, 4, 3, 2, 1)], ids=["6x6", "staircase-6"])
def test_chicago_matches_determinant_route_beyond_brute_force(parts, aitken, subpartitions,
                                                              harmonic_sum):
    shape = Partition(parts)
    assert average_case_chicago(shape) == _chicago_by_determinant(shape, aitken, subpartitions,
                                                                  harmonic_sum)


def test_chicago_matches_per_size_fractions(chicago_by_fractions):
    shapes = [shape for n in range(11) for shape in partitions_of(n)]
    shapes.append(Partition((1,) * 1500))
    for shape in shapes:
        assert average_case_chicago(shape) == chicago_by_fractions(shape), shape


def test_chicago_on_a_column_deeper_than_the_recursion_limit():
    # a single column sorts like insertion: each pair of entries is out of
    # order in half of the fillings and costs one exchange then
    column = Partition((1,) * 1500)
    assert average_case_chicago(column) == Fraction(1500 * 1499, 4)
    assert f_fixed_entry(column, (1500, 1), 1500) == 1


def test_subdiagram_guard_refuses_before_enumerating(monkeypatch):
    def no_enumeration(shape):
        raise AssertionError(f"enumerated the subdiagrams of {shape}")

    monkeypatch.setattr("npslab.partitions._subdiagrams", no_enumeration)
    square = Partition((12,) * 12)
    with pytest.raises(ValueError, match="2704156 subdiagrams, exceeding the limit 1000000"):
        average_case_chicago(square)
    with pytest.raises(ValueError, match="2704156 subdiagrams"):
        f_fixed_entry(square, (1, 1), 1)
