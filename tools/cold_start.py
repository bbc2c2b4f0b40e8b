"""Time fresh processes of the README commands, two checkouts in alternation.

    python3 tools/cold_start.py PARENT CHANGE [--runs 12]

PARENT and CHANGE are checkouts (repository roots).  Each one's
`src/npslab` sources are copied into a temporary directory, so that no
checkout is written to, and every run is a fresh interpreter with its copy
alone on PYTHONPATH.  The commands are `import npslab.cli` and the README's
`exact --shape 2,2 --all`, `worst --shape 2,2 --witness` and
`limit --curve square --integral W`, after the bare interpreter (`-c pass`,
the same on both sides), which shows the spread that the host alone gives.
They run in two modes, in this order:

- `source`: the copies hold no bytecode and `-B` writes none, so every run
  compiles the package, as from a checkout that is never written to;
- `bytecode`: the copies compiled by `compileall` first, as after an install.

The standard library keeps its own bytecode in both.  Each command runs once
on each side, untimed, and must exit 0.  A run then times every command once
on each side, PARENT first on even runs and CHANGE first on odd ones.  One
JSON document goes to standard output: the machine, each checkout's commit
and `src/` line count, and per mode and command each side's quartiles in
milliseconds, the ratio of the medians CHANGE / PARENT and the number of runs
in which CHANGE was faster.  --runs must be at least 2, for the quartiles.
"""

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COMMANDS = {
    "interpreter": ["-c", "pass"],
    "import npslab.cli": ["-c", "import npslab.cli"],
    "exact --shape 2,2 --all": ["-m", "npslab", "exact", "--shape", "2,2", "--all"],
    "worst --shape 2,2 --witness": ["-m", "npslab", "worst", "--shape", "2,2", "--witness"],
    "limit --curve square --integral W": ["-m", "npslab", "limit", "--curve", "square",
                                          "--integral", "W"],
}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            return next(line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor() or "unknown"


def describe(checkout):
    """The checkout's commit, "unknown" outside git, and its `src/` lines."""
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    lines = sum(len(path.read_text().splitlines())
                for path in sorted((checkout / "src").rglob("*.py")))
    return {"commit": proc.stdout.strip() or "unknown", "src_lines": lines}


def run(src, args, workdir):
    """Seconds of wall time for one fresh interpreter on `args`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-B", *args], env=env, cwd=workdir, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def compare(parent, change):
    """Quartiles in ms of each side, the ratio of the medians and the wins."""
    def quartiles(values):
        return [round(1e3 * q, 2) for q in statistics.quantiles(values, n=4, method="inclusive")]
    p, c = quartiles(parent), quartiles(change)
    wins = sum(b < a for a, b in zip(parent, change))
    return {"parent_ms": p, "change_ms": c, "ratio": round(c[1] / p[1], 3),
            "change_faster": f"{wins}/{len(parent)}"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--runs", type=int, default=12)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    doc = {"machine": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                       "python": platform.python_version()},
           "parent": describe(args.parent), "change": describe(args.change),
           "runs": args.runs, "modes": {}}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sides = []
        for name, checkout in (("parent", args.parent), ("change", args.change)):
            shutil.copytree(checkout / "src" / "npslab", tmp / name / "npslab",
                            ignore=shutil.ignore_patterns("__pycache__"))
            sides.append(tmp / name)
        for mode in ("source", "bytecode"):
            if mode == "bytecode":
                for src in sides:
                    compileall.compile_dir(src, quiet=1)
            times = {command: ([], []) for command in COMMANDS}
            for command, argv in COMMANDS.items():
                for src in sides:
                    run(src, argv, tmp)
            for k in range(args.runs):
                for command, argv in COMMANDS.items():
                    order = (0, 1) if k % 2 == 0 else (1, 0)
                    for side in order:
                        times[command][side].append(run(sides[side], argv, tmp))
            doc["modes"][mode] = {command: compare(*pair) for command, pair in times.items()}
    json.dump(doc, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
