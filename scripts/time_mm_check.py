"""Time ``hopfdiff free-lie mm-check`` in process, budget by budget.

Run it from a checkout with that checkout's source on the path, once per
source tree to compare:

    PYTHONPATH=src python3 scripts/time_mm_check.py --budgets 6 7 --repeat 5

Each budget is run once untimed, then --repeat times through
``hopfdiff.cli.run`` with stdout and stderr captured.  One line per budget gives the
range and median of the wall times in seconds and the sha256 of the
report, which must be the same for every run and every source tree.
"""

import argparse
import hashlib
import io
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout

from hopfdiff.cli import run


def time_budget(budget: int, generators: int, repeat: int) -> tuple[list, str]:
    argv = ["free-lie", "mm-check", "--generators", str(generators), "--budget", str(budget)]
    digests = set()
    times = []
    for i in range(repeat + 1):
        out = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            run(argv)
        if i:
            times.append(time.perf_counter() - start)
        digests.add(hashlib.sha256(out.getvalue().encode()).hexdigest())
    if len(digests) != 1:
        raise SystemExit(f"budget {budget}: the report differs between runs")
    return times, digests.pop()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--budgets", type=int, nargs="+", default=[6, 7])
    parser.add_argument("--generators", type=int, default=2)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    for budget in args.budgets:
        times, digest = time_budget(budget, args.generators, args.repeat)
        print(f"budget {budget}: {min(times):.2f}-{max(times):.2f} s, "
              f"median {statistics.median(times):.2f} s, report sha256 {digest[:16]}")


if __name__ == "__main__":
    main()
