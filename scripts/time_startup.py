"""Time short ``hopfdiff`` commands, each in a fresh process.

Run it from a checkout with that checkout's source on the path, once per
source tree to compare:

    PYTHONPATH=src python3 scripts/time_startup.py --repeat 7

Each command runs --repeat times as ``python -m hopfdiff`` in a fresh
process, in a temporary directory that holds one exported operator file.
The CPU time of a run is the user and system time of its process, read
by ``os.wait4``, so start-up (interpreter, imports, compiling where no
bytecode cache is written) is what most of it measures.  One line per
command gives its exit code, the median CPU time in milliseconds and the
sha256 of its stdout, which must be the same for every run and every
source tree.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile

# (label, arguments); check-diffop reads the operator file written first
COMMANDS = [
    ("validate kC2", ["validate", "--algebra", "kC2"]),
    ("validate H8", ["validate", "--algebra", "H8"]),
    ("grouplikes H8", ["grouplikes", "--algebra", "H8"]),
    ("primitives H4", ["primitives", "--algebra", "H4"]),
    ("export kS3", ["catalog", "kS3"]),
    ("check-diffop", ["check-diffop", "--operator", "op.json"]),
    ("usage error", ["validate", "--budget", "3"]),
]
OPERATOR = "op:inv:kS3"


# the children run in a temporary directory, so a relative entry of
# PYTHONPATH (PYTHONPATH=src) is made absolute here
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p))


def run_once(args: list, cwd: str) -> tuple[int, float, bytes]:
    """Exit code, CPU seconds and stdout of one fresh process."""
    with tempfile.TemporaryFile() as out:
        proc = subprocess.Popen([sys.executable, "-m", "hopfdiff", *args], cwd=cwd, env=ENV,
                                stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return proc.returncode, usage.ru_utime + usage.ru_stime, out.read()


def time_command(args: list, cwd: str, repeat: int) -> tuple[int, list, str]:
    codes, digests, times = set(), set(), []
    for _ in range(repeat):
        code, cpu, stdout = run_once(args, cwd)
        codes.add(code)
        digests.add(hashlib.sha256(stdout).hexdigest())
        times.append(cpu)
    if len(codes) != 1 or len(digests) != 1:
        raise SystemExit(f"{' '.join(args)}: the exit code or stdout differs between runs")
    return codes.pop(), times, digests.pop()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as cwd:
        code, _, stdout = run_once(["catalog", OPERATOR], cwd)
        if code != 0:
            raise SystemExit(f"catalog {OPERATOR} exited {code}")
        with open(os.path.join(cwd, "op.json"), "w", encoding="utf-8") as fh:
            json.dump(json.loads(stdout)["payload"], fh)
        for label, argv in COMMANDS:
            code, times, digest = time_command(argv, cwd, args.repeat)
            print(f"{label}: exit {code}, median {1000 * statistics.median(times):.1f} ms CPU, "
                  f"stdout sha256 {digest[:16]}")


if __name__ == "__main__":
    main()
