"""Re-time the rows of the ROADMAP's single-run baseline table.

    python3 perfbench/roadmap_table.py > perfbench/out/roadmap_table.json

Each row runs REPEATS times and reports every time and the median, next
to the figure the ROADMAP table gives.  CLI rows and the test suite run as
fresh processes, as a user would start them; library rows run in this
process.  `c_double_sums` is left out: the ROADMAP moves it into the tests.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REPEATS = 3


def timed_process(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def timed_call(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def rows(workdir):
    from npslab import (Partition, average_case_bruteforce, average_case_chicago, c_closed,
                        estimate_avg_case, imbalanced_integrals, partition_boundary,
                        worst_case_integral)

    boundary = partition_boundary(Partition((6, 5, 3, 3, 1)), 18)
    curve_file = os.path.join(workdir, "boundary-65331.json")
    boundary.to_file(curve_file)
    csv_out = os.path.join(workdir, "sweep.csv")
    mc_draws = 20_000

    def cli(*argv):
        return lambda: timed_process(["-m", "npslab", *argv])

    def sweep(family, sizes, *extra):
        return cli("sweep", "--family", family, "--sizes", sizes, "--out", csv_out, *extra)

    def call(fn, *args):
        return lambda: timed_call(fn, *args)

    return [
        ("tier-1 suite", 35.0,
         lambda: timed_process(["-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"])),
        ("verify --level fast", 0.97, cli("verify", "--level", "fast")),
        ("verify --level full", 7.8, cli("verify", "--level", "full")),
        ("verify --level full --jobs 2", 6.2, cli("verify", "--level", "full", "--jobs", "2")),
        ("sweep square 4..400", 1.1, sweep("square", "4..400")),
        ("sweep two-row 100..1005", 0.9, sweep("two-row", "100..1005", "--param", "5")),
        ("sweep staircase 1..300", 1.5, sweep("staircase", "1..300")),
        ("sweep curve-file 10..60, (6,5,3,3,1) boundary", 7.0,
         sweep("curve-file", "10..60", "--curve", curve_file)),
        ("brute force (3,3,3), all 9! fillings", 1.11,
         call(average_case_bruteforce, Partition((3, 3, 3)))),
        # the table gives a rate, about 11,900 draws/s: this row reports the
        # seconds for 20,000 draws, about 1.68 s at that rate
        ("Monte Carlo 10x10, 20,000 draws", mc_draws / 11_900,
         call(estimate_avg_case, Partition((10,) * 10), mc_draws, 1)),
        ("average_case_chicago 6x6", 0.45, call(average_case_chicago, Partition((6,) * 6))),
        ("average_case_chicago 7x7", 2.5, call(average_case_chicago, Partition((7,) * 7))),
        ("average_case_chicago staircase 8..1", 2.8,
         call(average_case_chicago, Partition(range(8, 0, -1)))),
        ("c_closed(1000, 500)", 0.11, call(c_closed, 1000, 500)),
        # the table gives 1.4-2.1 s; its midpoint is the reference
        ("worst_case_integral, (6,5,3,3,1) boundary", 1.75, call(worst_case_integral, boundary)),
        ("imbalanced_integrals, (3,1) boundary", 8.5,
         call(imbalanced_integrals, partition_boundary(Partition((3, 1)), 4))),
        ("imbalanced_integrals, (6,5,3,3,1) boundary", 28.5, call(imbalanced_integrals, boundary)),
    ]


def main():
    sys.path.insert(0, SRC)
    workdir = os.path.join(OUT, f"table-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    table = []
    try:
        for what, roadmap_s, run in rows(workdir):
            times = [run() for _ in range(REPEATS)]
            table.append({"what": what, "roadmap_s": roadmap_s, "times_s": times,
                          "median_s": statistics.median(times)})
            print(f"{what}: {statistics.median(times):.3f} s (ROADMAP {roadmap_s} s)",
                  file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(table, indent=1))


if __name__ == "__main__":
    main()
