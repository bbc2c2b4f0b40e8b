"""Time the per-cell loops over one shape that perfbench does not run.

    PYTHONPATH=src python3 tools/per_cell_timing.py

Each line is one loop and its seconds:

- `f_fixed_entry` at all 1,296 (cell, k) pairs of the 6x6 square and
  `skew_syt_count` on the 95 inner shapes of size <= 9 of the 8x8 square,
  one pass each: every call builds the Young-lattice table of its shape;
- `nps_sort` on 210 seeded fillings of 7x7, best of 5, where the hook
  tableau's range check runs after every sort;
- `worst_case_witness` on the four witness shapes of perfbench `exact` at
  seed 1 (the staircase 30..1 and three random 30-row shapes), best of 5;
- `partition_boundary` of the staircases 40..1 (81 breakpoints, 200 calls)
  and 1000..1 (2,001 breakpoints, 20 calls), best of 5;
- `LimitCurve.from_file` and `area` on the 1000..1 boundary written as a
  decimal file to a temporary directory, best of 5.

Run it from the checkouts to compare, with PYTHONPATH naming each one's
`src/`; the loops call the public API only.
"""

import random
import tempfile
from pathlib import Path
from time import perf_counter

from npslab import (LimitCurve, Partition, Tableau, f_fixed_entry, nps_sort, partition_boundary,
                    skew_syt_count, worst_case_witness)
from npslab.partitions import partitions_of

WITNESS_SHAPES = [
    tuple(range(30, 0, -1)),
    (28, 26, 25, 25, 23, 23, 22, 21, 20, 17, 15, 15, 12, 11, 10, 10, 9, 9, 9, 9, 8, 6, 6, 6, 6,
     4, 3, 3, 1, 1),
    (29, 27, 26, 24, 24, 23, 20, 17, 16, 16, 15, 14, 14, 13, 13, 11, 10, 9, 9, 8, 7, 7, 6, 5, 4,
     4, 2, 1, 1, 1),
    (29, 27, 26, 26, 24, 23, 22, 22, 22, 21, 21, 21, 19, 18, 17, 17, 17, 15, 14, 14, 13, 11, 10,
     8, 8, 7, 5, 2, 2, 1),
]


def timed(loop, repeat=1):
    best = float("inf")
    for _ in range(repeat):
        start = perf_counter()
        loop()
        best = min(best, perf_counter() - start)
    return best


def main():
    six = Partition([6] * 6)
    pairs = [(cell, k) for cell in six.cells() for k in range(1, six.size + 1)]
    eight = Partition([8] * 8)
    inners = [mu for n in range(10) for mu in partitions_of(n) if eight.contains_shape(mu)]
    rng = random.Random(2024)
    seven = Partition([7] * 7)
    fillings = []
    for _ in range(210):
        values = list(range(1, 50))
        rng.shuffle(values)
        fillings.append(Tableau(seven, [values[k:k + 7] for k in range(0, 49, 7)]))
    witnesses = [Partition(parts) for parts in WITNESS_SHAPES]
    forty, thousand = Partition(range(40, 0, -1)), Partition(range(1000, 0, -1))
    workdir = tempfile.TemporaryDirectory()
    decimal = Path(workdir.name) / "staircase-1000.json"
    partition_boundary(thousand, thousand.size).to_file(decimal)

    loops = [
        (f"f_fixed_entry 6x6, {len(pairs)} (cell, k) pairs",
         lambda: [f_fixed_entry(six, cell, k) for cell, k in pairs], 1),
        (f"skew_syt_count 8x8, {len(inners)} inner shapes of size <= 9",
         lambda: [skew_syt_count(eight, mu) for mu in inners], 1),
        (f"nps_sort 7x7, {len(fillings)} seeded fillings",
         lambda: [nps_sort(t) for t in fillings], 5),
        (f"worst_case_witness, {len(witnesses)} perfbench exact shapes",
         lambda: [worst_case_witness(s) for s in witnesses], 5),
        ("partition_boundary 40..1, 200 calls",
         lambda: [partition_boundary(forty, forty.size) for _ in range(200)], 5),
        ("partition_boundary 1000..1, 20 calls",
         lambda: [partition_boundary(thousand, thousand.size) for _ in range(20)], 5),
        ("LimitCurve.from_file and area, decimal 1000..1 file",
         lambda: LimitCurve.from_file(decimal).area, 5),
    ]
    with workdir:
        for name, loop, repeat in loops:
            print(f"{name}: {timed(loop, repeat):.4f} s")


if __name__ == "__main__":
    main()
