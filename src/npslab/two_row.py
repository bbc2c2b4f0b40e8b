"""Exact average-case formulas for two-row shapes (lam1, lam2).

All representations are evaluated in exact rational arithmetic and agree with
each other and with brute force wherever that is feasible:

* the closed form: a quadratic polynomial minus twice an alternating single
  sum S0 with rising-factorial denominators;
* the double-sum form: a leading harmonic term plus five double sums built
  from binomial fixed-entry counts, divided by the standard-tableau count
  that `partitions.syt_count` gives;
* a nested-sum representation of S0 (one forward pass, O(lam2) operations);
* the specially simple equal-rows case and a fixed-distance form in
  delta = lam1 - lam2.
"""

from fractions import Fraction
from math import comb, factorial

from .partitions import Partition, harmonic, pochhammer_rising, syt_count

__all__ = [
    "validate_two_row",
    "s0_direct",
    "s0_nested",
    "c_closed",
    "c_double_sums",
    "c_equal_rows",
    "c_fixed_distance",
]


def validate_two_row(lam1, lam2):
    if lam2 > lam1:
        raise ValueError(f"second part {lam2} exceeds first part {lam1}")
    if lam2 < 0 or lam1 < 1:
        raise ValueError(f"({lam1},{lam2}) is not a two-row shape")


def s0_direct(lam1, lam2):
    """S0 = sum_{k=1..lam2} C(lam2,k) (-1)^k (2k-2)! / (lam1-lam2+2)_{2k-1}."""
    validate_two_row(lam1, lam2)
    total = Fraction(0)
    base = lam1 - lam2 + 2
    for k in range(1, lam2 + 1):
        num = comb(lam2, k) * (-1) ** k * factorial(2 * k - 2)
        total += Fraction(num, pochhammer_rising(base, 2 * k - 1))
    return total


def s0_nested(lam1, lam2):
    """Nested-sum representation of S0, valid for 1 <= lam2 <= lam1.

    Evaluated in a single forward pass over i with running inner sums, so the
    cost is O(lam2) rational operations.
    """
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


def c_closed(lam1, lam2):
    """Average exchange count of a two-row shape, in closed form."""
    validate_two_row(lam1, lam2)
    return (Fraction(lam1 * (lam1 - 1), 4) + Fraction(lam2 * (lam2 - 3), 4)
            - 2 * s0_direct(lam1, lam2))


def c_double_sums(lam1, lam2):
    """The five-double-sum representation of the two-row average.

    Requires two genuine parts (lam2 >= 1); empty inner ranges contribute 0.
    """
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


def c_equal_rows(lam2):
    """Average for the shape (lam2, lam2):
    lam2(lam2-2)/2 - 2(-4^lam2/C(2 lam2, lam2) + H_lam2/2 + 1)."""
    if lam2 < 1:
        raise ValueError("equal-rows formula needs lam2 >= 1")
    special = (-Fraction(2**(2 * lam2), comb(2 * lam2, lam2))
               + Fraction(harmonic(lam2), 2) + 1)
    return Fraction(lam2 * (lam2 - 2), 2) - 2 * special


def _s0_fixed_distance(lam2, delta):
    """S0 for lam1 = lam2 + delta, expressed with sums over i <= delta only."""
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


def c_fixed_distance(lam2, delta):
    """Average for (lam2 + delta, lam2) via the delta-parametrised form of S0."""
    lam1 = lam2 + delta
    return (Fraction(lam1 * (lam1 - 1), 4) + Fraction(lam2 * (lam2 - 3), 4)
            - 2 * _s0_fixed_distance(lam2, delta))
