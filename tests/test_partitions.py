from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npslab.partitions import (
    MAX_SUBDIAGRAMS,
    Partition,
    _subdiagram_count,
    conjugate,
    harmonic,
    hook_product,
    partitions_of,
    reverse_lex_cells,
    _subdiagrams,
    skew_syt_count,
    syt_count,
)

FIG_SHAPE = Partition([4, 4, 2, 1, 1, 1])


def small_partitions(max_size=7):
    return st.integers(0, max_size).flatmap(
        lambda n: st.sampled_from([p.parts for p in partitions_of(n)]) if n else st.just(()))


# -- independent oracles -------------------------------------------------


def enumerate_syt(shape):
    """Backtracking enumeration of standard fillings, independent of any
    counting formula: place 1..n, each at an addable corner."""
    n = shape.size
    results = []

    def rec(rows, value):
        if value > n:
            results.append(tuple(tuple(r) for r in rows))
            return
        for i in range(len(shape.parts)):
            length = len(rows[i])
            if length >= shape.parts[i]:
                continue
            if i > 0 and len(rows[i - 1]) <= length:
                continue
            rows[i].append(value)
            rec(rows, value + 1)
            rows[i].pop()

    rec([[] for _ in shape.parts], 1)
    return results


def enumerate_skew_syt(outer, inner):
    """Backtracking enumeration of standard fillings of outer/inner."""
    cells = [(i, j) for (i, j) in outer.cells() if j > inner.row(i)]
    n = len(cells)
    results = [0]

    def fits(filled, cell, value):
        i, j = cell
        left = filled.get((i, j - 1))
        up = filled.get((i - 1, j))
        if j - 1 > inner.row(i) and left is None:
            return False
        if i > 1 and j <= outer.row(i - 1) and j > inner.row(i - 1) and up is None:
            return False
        return (left is None or left < value) and (up is None or up < value)

    def rec(filled, value):
        if value > n:
            results[0] += 1
            return
        for cell in cells:
            if cell not in filled and fits(filled, cell, value):
                filled[cell] = value
                rec(filled, value + 1)
                del filled[cell]

    rec({}, 1)
    return results[0]


# -- Partition basics -----------------------------------------------------


def test_parse_and_str_round_trip():
    assert str(Partition.parse("4,4,2,1,1,1")) == "4,4,2,1,1,1"
    assert Partition.parse("") == Partition(())
    assert Partition.parse(" 3,2 ").parts == (3, 2)


@pytest.mark.parametrize("bad", [(1, 2), (3, 0), (2, -1)])
def test_invalid_parts_rejected(bad):
    with pytest.raises(ValueError):
        Partition(bad)


def test_membership_and_stats():
    assert (1, 4) in FIG_SHAPE
    assert (2, 5) not in FIG_SHAPE
    assert (7, 1) not in FIG_SHAPE
    assert (3, 3) not in FIG_SHAPE
    assert (FIG_SHAPE.arm(1, 1), FIG_SHAPE.leg(1, 1), FIG_SHAPE.hook(1, 1)) == (3, 5, 9)
    assert (FIG_SHAPE.arm(2, 4), FIG_SHAPE.leg(2, 4), FIG_SHAPE.hook(2, 4)) == (0, 0, 1)
    assert FIG_SHAPE.corners() == [(2, 4), (3, 2), (6, 1)]
    single = Partition([1])
    assert (single.arm(1, 1), single.leg(1, 1), single.hook(1, 1)) == (0, 0, 1)
    assert single.corners() == [(1, 1)]


def test_conjugate_examples():
    # transpose of the six-row shape with rows 4,4,2,1,1,1: column heights
    # are 6,3,2,2
    assert conjugate(FIG_SHAPE).parts == (6, 3, 2, 2)
    assert conjugate(Partition([])).parts == ()
    assert conjugate(Partition([3])).parts == (1, 1, 1)


def test_conjugate_matches_cell_transpose():
    for n in range(0, 8):
        for shape in partitions_of(n):
            transposed = sorted((j, i) for (i, j) in shape.cells())
            assert sorted(conjugate(shape).cells()) == transposed
            assert conjugate(conjugate(shape)) == shape


def _conjugate_by_counting(shape):
    """Column j of the transpose counts the parts that reach column j."""
    parts = shape.parts
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, (parts or (0,))[0] + 1))


def test_conjugate_matches_counting_oracle():
    for n in range(0, 13):
        for shape in partitions_of(n):
            assert conjugate(shape).parts == _conjugate_by_counting(shape)


def test_reverse_lex_examples():
    assert reverse_lex_cells(Partition([2, 1])) == [(1, 2), (2, 1), (1, 1)]
    assert reverse_lex_cells(Partition([1])) == [(1, 1)]
    assert reverse_lex_cells(Partition([2, 2])) == [(2, 2), (1, 2), (2, 1), (1, 1)]


@given(small_partitions())
@settings(max_examples=60, deadline=None)
def test_reverse_lex_is_strictly_decreasing_order(parts):
    shape = Partition(parts)
    cells = reverse_lex_cells(shape)
    assert sorted(cells) == sorted(shape.cells())
    # (i,j) > (i',j') iff j > j' or (j == j' and i > i')
    for (i1, j1), (i2, j2) in zip(cells, cells[1:]):
        assert (j1, i1) > (j2, i2)


# -- counting -------------------------------------------------------------


def test_syt_count_examples():
    assert syt_count(Partition([2, 2])) == 2
    assert syt_count(Partition([3, 2])) == 5
    assert syt_count(Partition([1])) == 1
    assert syt_count(Partition([])) == 1


def test_syt_count_matches_enumeration_up_to_8():
    for n in range(1, 9):
        for shape in partitions_of(n):
            assert syt_count(shape) == len(enumerate_syt(shape)), shape


def test_syt_count_conjugation_symmetry():
    for n in range(1, 9):
        for shape in partitions_of(n):
            assert syt_count(shape) == syt_count(conjugate(shape))


def test_skew_examples():
    assert skew_syt_count(Partition([2, 2]), Partition([1])) == 2
    assert skew_syt_count(Partition([3, 2]), Partition([])) == 5
    assert skew_syt_count(Partition([2, 1]), Partition([2, 1])) == 1
    with pytest.raises(ValueError):
        skew_syt_count(Partition([2, 1]), Partition([3]))


def test_skew_matches_aitken_determinant_up_to_8(aitken, subpartitions):
    for n in range(0, 9):
        for outer in partitions_of(n):
            for inner in subpartitions(outer):
                assert skew_syt_count(outer, inner) == aitken(outer, inner), (outer, inner)


def test_skew_matches_enumeration_up_to_7(subpartitions):
    for n in range(1, 8):
        for outer in partitions_of(n):
            for inner in subpartitions(outer):
                expected = enumerate_skew_syt(outer, inner)
                assert skew_syt_count(outer, inner) == expected, (outer, inner)
            assert skew_syt_count(outer, Partition([])) == syt_count(outer)


def test_hook_product_examples():
    assert hook_product(Partition([2, 1])) == 3
    assert hook_product(Partition([2, 2])) == 12
    assert hook_product(Partition([])) == 1


def test_hook_product_times_syt_divides_factorial():
    for n in range(1, 9):
        for shape in partitions_of(n):
            assert syt_count(shape) * hook_product(shape) == factorial(n)


def test_two_row_binomial_count_grid():
    # (lam1 - lam2 + 1)/(lam1 + 1) * C(lam1 + lam2, lam2) as exact integers
    from math import comb
    for lam1 in range(1, 31):
        for lam2 in range(1, lam1 + 1):
            value = Fraction(lam1 - lam2 + 1, lam1 + 1) * comb(lam1 + lam2, lam2)
            assert value.denominator == 1
            assert value == syt_count(Partition([lam1, lam2]))


# -- scalars --------------------------------------------------------------


def test_harmonic():
    assert harmonic(0) == 0
    assert harmonic(3) == Fraction(11, 6)
    assert harmonic(5) == Fraction(137, 60)
    with pytest.raises(ValueError):
        harmonic(-1)


def test_pochhammer(rising_factorial):
    assert rising_factorial(Fraction(7, 3), 0) == 1
    assert rising_factorial(3, 2) == 12
    assert rising_factorial(Fraction(1, 2), 2) == Fraction(3, 4)
    with pytest.raises(ValueError):
        rising_factorial(1, -1)


# -- subshapes ------------------------------------------------------------


def test_subpartitions_complete(subpartitions):
    shape = Partition([2, 2])
    got = sorted(mu.parts for mu in subpartitions(shape))
    assert got == [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]


def test_subdiagram_count_matches_enumeration_up_to_8(subpartitions):
    for n in range(0, 9):
        for shape in partitions_of(n):
            assert _subdiagram_count(shape) == sum(1 for _ in subpartitions(shape)), shape
    assert _subdiagram_count(Partition((11,) * 11)) == 705_432 < MAX_SUBDIAGRAMS


def test_coded_subdiagrams_match_enumeration(subpartitions):
    shapes = [shape for n in range(0, 9) for shape in partitions_of(n)]
    for shape in shapes + [Partition((6,) * 6)]:
        base = shape.row(1) + 1
        codes, sizes, corners = _subdiagrams(shape)
        expected = list(subpartitions(shape))
        assert codes == [sum(p * base**i for i, p in enumerate(mu.parts)) for mu in expected]
        assert sizes == [mu.size for mu in expected], shape
        assert corners == [tuple((i, j, base**(i - 1)) for i, j in mu.corners())
                           for mu in expected], shape
        position = {code: k for k, code in enumerate(codes)}
        for k, (code, mu_corners) in enumerate(zip(codes, corners)):
            assert all(position[code - step] < k for _, _, step in mu_corners), (shape, k)
