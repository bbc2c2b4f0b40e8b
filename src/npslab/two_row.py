"""Exact average-case formulas for two-row shapes (lam1, lam2).

All representations are evaluated in exact rational arithmetic and agree with
each other and with brute force wherever that is feasible.  Each sum, its
harmonic numbers included (as the integers D H_m), is one integer numerator
over one common denominator, reduced to a Fraction once, at the end:

* the closed form: a quadratic polynomial minus twice an alternating single
  sum S0 with rising-factorial denominators, evaluated as a nested ratio of
  consecutive terms;
* the double-sum form: a leading harmonic term plus five double sums built
  from binomial fixed-entry counts, divided by the standard-tableau count
  that `partitions.syt_count` gives; every term is an integer over D^2 with
  D = lcm(1..n), its binomial part summed per k before the weight of k;
* a nested-sum representation of S0 (one forward pass, O(lam2) operations),
  its inner sums over powers of two and its outer sums over the lcm of their
  term denominators;
* the specially simple equal-rows case and a fixed-distance form in
  delta = lam1 - lam2, whose three sums run over i <= delta with the lcms of
  their term denominators (and their product for the weighted sum).
"""

from fractions import Fraction
from math import comb, lcm

from .partitions import Partition, SizeGuardError, _harmonic_numerators, syt_count

__all__ = [
    "validate_two_row",
    "s0_direct",
    "s0_nested",
    "c_closed",
    "c_double_sums",
    "c_equal_rows",
    "c_fixed_distance",
]

# The largest lam2 that `c_closed` takes on.  Its nested ratio grows about
# 4.4x in time per doubling of lam2: (38400, 38400) took 14 s and (75001,
# 75001), the cheapest refused shape, 58 s on a 2-vCPU Intel Xeon with
# Python 3.11.
MAX_SECOND_PART = 75_000


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
    # L / C(lam1 + lam2, lam2) = lam2 L / (last denominator); the harmonic numbers over D_h
    lcd_h, h = _harmonic_numerators(lam1)
    excess = 1 + lam1 - lam2
    num = ((2 * lcd - 2 * (p + 2**lam2) * lam2 * (lcd // dens[-1]) - excess * outer) * lcd_h
           + excess * (2 * h[lam1] + h[lam2] - 2 * h[lam1 - lam2]) * lcd)
    return Fraction(num, 2 * lcd * lcd_h)


def _average_from_s0(lam1, lam2, s0):
    """lam1 (lam1 - 1) / 4 + lam2 (lam2 - 3) / 4 - 2 S0, reduced once."""
    return Fraction((lam1 * (lam1 - 1) + lam2 * (lam2 - 3)) * s0.denominator - 8 * s0.numerator,
                    4 * s0.denominator)


def c_closed(lam1, lam2):
    """Average exchange count of a two-row shape, in closed form.  Refuses
    lam2 above MAX_SECOND_PART before any work."""
    validate_two_row(lam1, lam2)
    if lam2 > MAX_SECOND_PART:
        raise SizeGuardError(f"second part {lam2} exceeds the two-row budget of "
                             f"MAX_SECOND_PART = {MAX_SECOND_PART}")
    return _average_from_s0(lam1, lam2, s0_direct(lam1, lam2))


def c_double_sums(lam1, lam2):
    """The five-double-sum representation of the two-row average.

    Requires two genuine parts (lam2 >= 1); empty inner ranges contribute 0.
    With D = lcm(1..n), each term top C(k, choose) C(n-k, lower) H_(n-k) / k
    is the integer top C(k, choose) C(n-k, lower) (D/k) (D H_(n-k)) over D^2;
    the binomial parts are summed per k before the weight (D/k) (D H_(n-k)),
    and the sums and the leading term are one numerator, reduced once.
    """
    validate_two_row(lam1, lam2)
    if lam2 < 1:
        raise ValueError("double-sum representation needs lam2 >= 1")
    n = lam1 + lam2
    f = syt_count(Partition((lam1, lam2)))
    lcd, scaled_h = _harmonic_numerators(n)              # D H_m
    over_k = [0] + [lcd // k for k in range(1, n + 1)]   # D / k

    bins = [0] * (n + 1)   # per k, the binomial part of -s1 + s2 - s3 - s4 + s5
    for j in range(2, lam1 + 1):   # s1, s2 and s3, whose terms vanish at j = 1
        for k in range(j, min(2 * j, lam2 + j + 1)):
            lower = comb(n - k, lam1 - j) - (comb(n - k, lam2 - j - 1) if j < lam2 else 0)
            bins[k] -= (j - 1) * (2 * j - k) * comb(k, j) * lower
    for j in range(1, lam2 + 1):   # s4 and s5
        for k in range(2 * j, lam1 + j + 1):
            lower = comb(n - k, lam1 - j + 1) - comb(n - k, lam2 - j)
            bins[k] += j * (k - 2 * j + 2) * comb(k, j - 1) * lower
    acc = sum(b * over_k[k] * scaled_h[n - k] for k, b in enumerate(bins) if b)   # D^2 (...)
    lead = (comb(lam1, 2) + comb(lam2 + 1, 2)) * (scaled_h[n] - lcd) * lcd * f   # D^2 f (...)
    return Fraction(lead + acc, lcd * lcd * f)


def c_equal_rows(lam2):
    """Average for the shape (lam2, lam2):
    lam2(lam2-2)/2 - 2(-4^lam2/C(2 lam2, lam2) + H_lam2/2 + 1)."""
    if lam2 < 1:
        raise ValueError("equal-rows formula needs lam2 >= 1")
    central = comb(2 * lam2, lam2)
    lcd_h, h = _harmonic_numerators(lam2)
    num = (2 * central - 2**(2 * lam2 + 1)) * lcd_h + central * h[lam2]
    return _average_from_s0(lam2, lam2, Fraction(num, 2 * central * lcd_h))


def _s0_fixed_distance(lam2, delta):
    """S0 for lam1 = lam2 + delta, expressed with sums over i <= delta only."""
    if lam2 < 1 or delta < 0:
        raise ValueError("fixed-distance form needs lam2 >= 1 and delta >= 0")
    central = comb(2 * lam2, lam2)

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
    # six rational terms over central (2 lam2 + 1) La Lb R, the ratio terms as Q / R with
    # R = (1 + delta + 2 lam2) C(delta + 2 lam2, delta), Q = 2^(delta+1) (1 + delta + lam2)
    # C(delta + lam2, delta); the harmonic numbers over 2 D_h
    d1 = delta + 1
    odd = 2 * lam2 + 1
    excess = 2**(2 * lam2) - central   # central (4^lam2 / central - 1)
    r = (1 + delta + 2 * lam2) * comb(delta + 2 * lam2, delta)
    q = 2**(delta + 1) * (1 + delta + lam2) * comb(delta + lam2, delta)
    num = (d1 * r * (excess * lcd_b * (odd * num_a + lcd_a) - 2 * lam2 * central * odd * num_c)
           + q * odd * lcd_a * (2 * lam2 * central * num_b - excess * lcd_b))
    lcd_h, h = _harmonic_numerators(delta + 2 * lam2)
    harmonics = d1 * (2 * (h[delta + 2 * lam2] - h[2 * lam2] - h[delta]) + h[lam2])
    den = central * odd * lcd_a * lcd_b * r
    return Fraction(2 * lcd_h * num + harmonics * den, 2 * lcd_h * den)


def c_fixed_distance(lam2, delta):
    """Average for (lam2 + delta, lam2) via the delta-parametrised form of S0."""
    return _average_from_s0(lam2 + delta, lam2, _s0_fixed_distance(lam2, delta))
