"""Exact average-case formulas for two-row shapes (lam1, lam2).

All representations are evaluated in exact rational arithmetic and agree with
each other and with brute force wherever that is feasible.  Each sum is
carried as integer numerators over one common denominator and reduced to a
Fraction once, at the end:

* the closed form: a quadratic polynomial minus twice an alternating single
  sum S0 with rising-factorial denominators, evaluated as a nested ratio of
  consecutive terms;
* the double-sum form: a leading harmonic term plus five double sums built
  from binomial fixed-entry counts, divided by the standard-tableau count
  that `partitions.syt_count` gives; every term is an integer over D^2 with
  D = lcm(1..n);
* a nested-sum representation of S0 (one forward pass, O(lam2) operations),
  its inner sums over powers of two and its outer sums over the lcm of their
  term denominators;
* the specially simple equal-rows case and a fixed-distance form in
  delta = lam1 - lam2, whose three sums run over i <= delta with the lcms of
  their term denominators (and their product for the weighted sum).
"""

from fractions import Fraction
from itertools import accumulate
from math import comb, lcm

from .partitions import Partition, harmonic, syt_count

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
    """S0 = sum_{k=1..lam2} C(lam2,k) (-1)^k (2k-2)! / (lam1-lam2+2)_{2k-1}.

    With b = lam1 - lam2 + 2, the first term is -lam2 / b and term k + 1 is
    term k times -(lam2 - k)(2k)(2k - 1) / ((k + 1)(b + 2k - 1)(b + 2k)).
    The sum is evaluated as that nested ratio in integers, innermost term
    first, with one reduction to a Fraction at the end.
    """
    validate_two_row(lam1, lam2)
    b = lam1 - lam2 + 2
    num = den = 1
    for k in range(lam2 - 1, 0, -1):
        step = (k + 1) * (b + 2 * k - 1) * (b + 2 * k)
        num, den = step * den - (lam2 - k) * 2 * k * (2 * k - 1) * num, step * den
    return Fraction(-lam2 * num, b * den)


def s0_nested(lam1, lam2):
    """Nested-sum representation of S0, valid for 1 <= lam2 <= lam1.

    With b_i = C(i + lam1, i), the inner sums sum_{j<=i} b_j / 2^j are carried
    as p_i / 2^i, p_i = 2 p_(i-1) + b_i, and the two outer sums over i of
    2^i inner_i / (i b_i) and 2^i / (i b_i) as one integer numerator
    over L = lcm_i(i b_i); the cost is O(lam2) integer operations.
    """
    validate_two_row(lam1, lam2)
    if lam2 < 1:
        raise ValueError("nested representation needs lam2 >= 1")
    dens = [i * comb(i + lam1, i) for i in range(1, lam2 + 1)]
    lcd = lcm(*dens)
    p = 0
    outer = 0   # L * sum_i (p_i + 2^i) / (i b_i): the weighted and plain sums
    for i, den in enumerate(dens, start=1):
        p = 2 * p + den // i
        outer += (p + 2**i) * (lcd // den)
    big = comb(lam1 + lam2, lam2)
    excess = 1 + lam1 - lam2
    return (
        -Fraction(p + 2**lam2, big)
        - Fraction(excess * outer, 2 * lcd)
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
    With D = lcm(1..n), each term top C(k, choose) C(n-k, lower) H_(n-k) / k
    is the integer top C(k, choose) C(n-k, lower) (D/k) (D H_(n-k)) over D^2,
    so the sums are carried as one integer numerator and reduced once.
    """
    validate_two_row(lam1, lam2)
    if lam2 < 1:
        raise ValueError("double-sum representation needs lam2 >= 1")
    n = lam1 + lam2
    f = syt_count(Partition((lam1, lam2)))
    total = (comb(lam1, 2) + comb(lam2 + 1, 2)) * (harmonic(n) - 1)
    lcd = lcm(*range(1, n + 1))
    over_k = [0] + [lcd // k for k in range(1, n + 1)]   # D / k
    scaled_h = list(accumulate(over_k))                  # D H_m

    def term(k, top, choose, lower):
        return top * comb(k, choose) * comb(n - k, lower) * over_k[k] * scaled_h[n - k]

    acc = 0   # D^2 (-s1 + s2 - s3 - s4 + s5)
    for j in range(1, lam2 + 1):
        for k in range(j, 2 * j):
            top = (j - 1) * (2 * j - k)
            acc -= term(k, top, j, lam1 - j)
            if lam2 - j - 1 >= 0:
                acc += term(k, top, j, lam2 - j - 1)
    for j in range(lam2 + 1, lam1 + 1):
        for k in range(j, lam2 + j + 1):
            acc -= term(k, (j - 1) * (2 * j - k), j, lam1 - j)
    for j in range(1, lam2 + 1):
        for k in range(2 * j, lam1 + j + 1):
            acc -= term(k, j * (k - 2 * j + 2), j - 1, lam2 - j)
        for k in range(2 * j, lam2 + j + 1):
            acc += term(k, j * (k - 2 * j + 2), j - 1, lam1 - j + 1)
    return total + Fraction(acc, lcd * lcd * f)


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

    # a_i = 2^i C(i+lam2,i) / (C(i+2lam2,i) (1+i+2lam2)) and
    # b_i = C(i+2lam2,i) / (2^i C(i+lam2,i) (i+2lam2)), as integer numerators
    # over the lcms La and Lb of their denominators
    smalls = [comb(i + lam2, i) for i in range(1, delta + 1)]
    larges = [comb(i + 2 * lam2, i) for i in range(1, delta + 1)]
    dens_a = [large * (1 + i + 2 * lam2) for i, large in enumerate(larges, start=1)]
    dens_b = [2**i * small * (i + 2 * lam2) for i, small in enumerate(smalls, start=1)]
    lcd_a = lcm(*dens_a)
    lcd_b = lcm(*dens_b)
    num_a = num_b = num_c = 0   # sum_c: sum_i a_i (b_1 + ... + b_i), over La Lb
    for i, (small, large, den_a, den_b) in enumerate(
            zip(smalls, larges, dens_a, dens_b), start=1):
        a_i = 2**i * small * (lcd_a // den_a)
        num_b += large * (lcd_b // den_b)
        num_a += a_i
        num_c += a_i * num_b
    sum_a = Fraction(num_a, lcd_a)
    sum_b = Fraction(num_b, lcd_b)
    sum_c = Fraction(num_c, lcd_a * lcd_b)
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
