"""Named verification suites: exact oracle comparisons, identity grids and
integral spot checks, at a fast or full level.

Each criterion is a public check function that takes its grids, caps, seeds
and brute-force table as arguments and returns (ok, detail), the detail
naming the first violated invariant.  `run_suite` calls the checks with the
`LEVELS` values; the acceptance tests call the same checks with theirs.
"""

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from . import two_row
from .complexity import (
    average_case_chicago,
    exchange_stats,
    expected_hook_abs,
    worst_case,
    worst_case_witness,
)
from .curves import partition_boundary, unit_square_curve
from .integrals import (
    avg_lower_integral,
    distance_integral_cellwise,
    imbalanced_integrals,
    worst_case_integral,
)
from .nps import nps_sort, verify_bijection
from .partitions import Partition, conjugate, harmonic, hook_product, partitions_of, syt_count
from .sampling import SeededStream, syt_uniformity_test

__all__ = ["CheckResult", "run_suite", "LEVELS", "CN_LOWER_VALUE", "CHI2_999_DOF4",
           "brute_table", "check_chicago", "check_worst", "check_witness_random",
           "check_bijection", "check_two_row_theorem", "check_s0_representations",
           "check_eh_bound", "check_conjugation", "check_wn_identity", "check_square_family",
           "check_cn_value", "check_cw_imbalanced", "check_uniformity"]

# Analytic value of the average-case lower-bound integral on the unit-square
# curve: (2/3) ln 2 - 1/6.
CN_LOWER_VALUE = 2.0 / 3.0 * math.log(2.0) - 1.0 / 6.0

# 0.999 quantile of the chi-square distribution with 4 degrees of freedom.
CHI2_999_DOF4 = 18.467

LEVELS = {
    "fast": dict(size_cap=6, bijection_cap=5, grid=15, s0_grid=20, fd_grid=12,
                 identity_cap=6, uniformity=False),
    "full": dict(size_cap=8, bijection_cap=7, grid=30, s0_grid=50, fd_grid=25,
                 identity_cap=8, uniformity=True),
}


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def brute_table(size_cap):
    """Exchange-count (sum, max) for every shape up to the size cap, in
    order of size."""
    return {s: exchange_stats(s) for n in range(1, size_cap + 1) for s in partitions_of(n)}


def _avg(table, shape):
    total, _ = table[shape]
    return Fraction(total, factorial(shape.size))


def check_chicago(table):
    for shape in table:
        if average_case_chicago(shape) != _avg(table, shape):
            return False, f"harmonic-formula average disagrees with brute force on {shape}"
    return True, f"harmonic formula matches brute force on {len(table)} shapes"


def check_worst(table):
    for shape in table:
        _, best = table[shape]
        if best != worst_case(shape):
            return False, f"brute-force maximum {best} != cell-sum bound on {shape}"
        worst_case_witness(shape)  # self-validating
    return True, f"worst case tight with verified witnesses on {len(table)} shapes"


def check_witness_random(seed, count=20, max_size=40):
    rng = SeededStream(seed).generator()
    for _ in range(count):
        n = int(rng.integers(2, max_size + 1))
        parts = []
        remaining = n
        prev = n
        while remaining:
            p = int(rng.integers(1, min(prev, remaining) + 1))
            parts.append(p)
            prev = p
            remaining -= p
        shape = Partition(parts)
        exchanges = nps_sort(worst_case_witness(shape)).exchanges
        if exchanges != worst_case(shape):
            return False, f"witness sorts in {exchanges} exchanges, not W, on {shape}"
    return True, f"witness construction verified on {count} random shapes up to size {max_size}"


def check_bijection(cap):
    checked = 0
    for n in range(1, cap + 1):
        for shape in partitions_of(n):
            report = verify_bijection(shape)
            if not (report.injective and report.uniform
                    and report.distinct_pairs == report.expected
                    and report.expected == syt_count(shape) * hook_product(shape)):
                return False, f"bijection certification failed on {shape}: {report}"
            checked += 1
    return True, f"bijection certified on {checked} shapes up to size {cap}"


def check_two_row_theorem(grid, table):
    for lam1 in range(1, grid + 1):
        for lam2 in range(1, lam1 + 1):
            if two_row.c_closed(lam1, lam2) != two_row.c_double_sums(lam1, lam2):
                return False, f"closed form != double sums at ({lam1},{lam2})"
    for shape in table:
        if len(shape.parts) <= 2 and shape.parts:
            lam1 = shape.parts[0]
            lam2 = shape.row(2)
            if two_row.c_closed(lam1, lam2) != _avg(table, shape):
                return False, f"closed form disagrees with brute force on {shape}"
    return True, f"closed form == double sums on the {grid} grid and matches brute force"


def check_s0_representations(s0_grid, fd_grid):
    for lam1 in range(1, s0_grid + 1):
        for lam2 in range(1, lam1 + 1):
            if two_row.s0_direct(lam1, lam2) != two_row.s0_nested(lam1, lam2):
                return False, f"direct and nested S0 differ at ({lam1},{lam2})"
    for lam2 in range(1, s0_grid + 1):
        special = (-Fraction(2**(2 * lam2), comb(2 * lam2, lam2))
                   + Fraction(harmonic(lam2), 2) + 1)
        if two_row.s0_direct(lam2, lam2) != special:
            return False, f"equal-rows S0 special case fails at lam2={lam2}"
        if two_row.c_equal_rows(lam2) != two_row.c_closed(lam2, lam2):
            return False, f"equal-rows formula fails at lam2={lam2}"
        lhs = sum(Fraction(comb(i + lam2, i), 2**i) for i in range(1, lam2 + 1))
        if lhs != 2**lam2 - 1:
            return False, f"binomial half-weight identity fails at lam2={lam2}"
        plain = sum(Fraction(2**i, i * comb(i + lam2, i)) for i in range(1, lam2 + 1))
        if plain != Fraction(sum(Fraction(2**i, i) for i in range(1, lam2 + 1)), 2**lam2):
            return False, f"companion identity (plain sum) fails at lam2={lam2}"
        nested = Fraction(0)
        inner = Fraction(0)
        for i in range(1, lam2 + 1):
            inner += Fraction(comb(i + lam2, i), 2**i)
            nested += Fraction(2**i, i * comb(i + lam2, i)) * inner
        target = (-Fraction(sum(Fraction(2**i, i) for i in range(1, lam2 + 1)), 2**lam2)
                  + 2 * harmonic(lam2))
        if nested != target:
            return False, f"companion identity (nested sum) fails at lam2={lam2}"
    for lam2 in range(1, fd_grid + 1):
        for delta in range(0, fd_grid + 1):
            if two_row.c_fixed_distance(lam2, delta) != two_row.c_closed(lam2 + delta, lam2):
                return False, f"fixed-distance formula fails at (lam2={lam2}, delta={delta})"
    return True, "S0 representations, equal-rows, fixed-distance and sum identities agree"


def check_eh_bound(table):
    # Equality C = E|H| holds exactly on hook shapes (no 2x2 box); the bound
    # is strict on every shape containing a 2x2 box.
    equalities = []
    for shape in table:
        avg = _avg(table, shape)
        bound = expected_hook_abs(shape)
        if avg < bound:
            return False, f"average {avg} below expected |H| {bound} on {shape}"
        if avg == bound:
            equalities.append(shape)
        elif shape.row(2) < 2:
            return False, f"expected equality on the hook shape {shape}, got {avg} > {bound}"
    box = [s for s in equalities if s.row(2) >= 2]
    if box:
        return False, f"strictness fails on shapes containing a 2x2 box: {box}"
    return True, (f"lower bound holds, strict off hooks; "
                  f"{len(equalities)} equality shapes, all hooks")


def check_conjugation(table):
    for shape in table:
        if _avg(table, shape) != _avg(table, conjugate(shape)):
            return False, f"average differs between {shape} and its conjugate"
    return True, "average invariant under conjugation"


def check_wn_identity(cap):
    """The discrete identity n^(3/2) * integral of d = n + W on every shape
    up to the cap.  The certificate is the probes: `distance_integral_cellwise`
    raises when d is not affine on a cell, and its total is 2 (n + W) by
    construction once they pass."""
    for n in range(1, cap + 1):
        for shape in partitions_of(n):
            _, total = distance_integral_cellwise(shape)
            expected = 2 * (n + worst_case(shape))
            if total != expected:
                return False, f"cell-wise integral {total} != {expected} on {shape}"
    return True, f"discrete distance identity exact for all shapes up to size {cap}"


def check_square_family():
    square = unit_square_curve()
    for m in range(1, 13):
        shape = Partition((m,) * m)
        w = worst_case(shape)
        if w != m**3 - m**2:
            return False, f"square worst case {w} != m^3 - m^2 at m={m}"
        if not partition_boundary(shape, m * m).same_curve(square):
            return False, f"{m}x{m} boundary does not collapse to the unit-square curve"
    value = worst_case_integral(square)
    if abs(value - 1.0) > 1e-12:
        return False, f"unit-square distance integral {value} != 1"
    return True, "square family trend and unit-square integral verified"


def check_cn_value():
    square = unit_square_curve()
    value = avg_lower_integral(square)
    if abs(value - CN_LOWER_VALUE) > 1e-12:
        return False, f"lower-bound integral {value} != {CN_LOWER_VALUE}"
    w_value = worst_case_integral(square)
    if not value < w_value / 2:
        return False, "lower bound not below half the worst-case integral"
    return True, f"lower-bound integral = {value:.5f}"


def check_cw_imbalanced():
    lam1, lam2 = 1000, 5
    ratio = two_row.c_closed(lam1, lam2) / worst_case(Partition((lam1, lam2)))
    if abs(ratio - Fraction(1, 2)) >= Fraction(1, 100):
        return False, f"C/W ratio {float(ratio)} not within 0.01 of 1/2"
    square = unit_square_curve()
    i1, i2 = imbalanced_integrals(square)
    if abs(i1 - 0.5) > 1e-12 or abs(i2 - 0.5) > 1e-12:
        return False, f"unit-square diagonal integrals ({i1}, {i2}) != (1/2, 1/2)"
    m1, m2 = imbalanced_integrals(square.mirrored())
    if abs(m1 - i2) > 1e-12 or abs(m2 - i1) > 1e-12:
        return False, "mirroring does not swap the diagonal integrals"
    return True, f"imbalanced ratio {float(ratio):.6f}, integrals ({i1:.4f}, {i2:.4f})"


def check_uniformity(seeds):
    shape = Partition((3, 2))
    stats = []
    for seed in seeds:
        chi2, dof = syt_uniformity_test(shape, 50_000, seed=seed)
        if dof != 4:
            return False, f"unexpected dof {dof}"
        if chi2 >= CHI2_999_DOF4:
            return False, f"chi-square {chi2} at seed {seed} above the 0.999 quantile {CHI2_999_DOF4}"
        stats.append(f"{chi2:.3f}")
    return True, f"chi-square {', '.join(stats)} below {CHI2_999_DOF4} with dof 4"


def run_suite(level="fast"):
    """Run every check at the given level; returns a list of CheckResult."""
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r} (choose from {sorted(LEVELS)})")
    cfg = LEVELS[level]
    table = brute_table(cfg["size_cap"])
    checks = [
        ("harmonic-formula-oracle", lambda: check_chicago(table)),
        ("worst-case-tightness", lambda: check_worst(table)),
        ("worst-case-witness-random", lambda: check_witness_random(20170515)),
        ("bijection-certification", lambda: check_bijection(cfg["bijection_cap"])),
        ("two-row-theorem", lambda: check_two_row_theorem(cfg["grid"], table)),
        ("s0-representations", lambda: check_s0_representations(cfg["s0_grid"], cfg["fd_grid"])),
        ("expected-hook-lower-bound", lambda: check_eh_bound(table)),
        ("conjugation-symmetry", lambda: check_conjugation(table)),
        ("distance-integral-identity", lambda: check_wn_identity(cfg["identity_cap"])),
        ("square-family-trend", check_square_family),
        ("average-lower-integral", check_cn_value),
        ("imbalanced-scaling", check_cw_imbalanced),
    ]
    if cfg["uniformity"]:
        checks.append(("sampler-uniformity", lambda: check_uniformity((1,))))
    results = []
    for name, func in checks:
        start = time.perf_counter()
        try:
            ok, detail = func()
        except Exception as exc:  # a crash is a failure with the exception named
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, ok, detail, time.perf_counter() - start))
    return results
