"""Exact and asymptotic complexity laboratory for the Novelli-Pak-Stoyanovskii
tableau sorting algorithm."""

from .complexity import (
    average_case_bruteforce,
    average_case_chicago,
    expected_hook_abs,
    f_fixed_entry,
    w_distance,
    worst_case,
    worst_case_witness,
)
from .curves import (
    LimitCurve,
    ScalingExponents,
    flat_top_curve,
    hook_coordinates,
    hook_distances,
    partition_boundary,
    unit_square_curve,
)
from .integrals import (
    avg_lower_integral,
    distance_integral_cellwise,
    imbalanced_integrals,
    worst_case_integral,
)
from .nps import (
    HookTableau,
    NpsOutcome,
    Tableau,
    nps_sort,
    verify_bijection,
)
from .partitions import (
    Partition,
    SizeGuardError,
    conjugate,
    harmonic,
    hook_product,
    partitions_of,
    reverse_lex_cells,
    skew_syt_count,
    syt_count,
)
from .sampling import SeededStream, estimate_avg_case, random_tableau, syt_uniformity_test
from .two_row import c_closed, c_double_sums, c_equal_rows, c_fixed_distance

__version__ = "0.1.0"
