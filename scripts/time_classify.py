"""Time ``classify-diffops`` on tensor products of H4 and H8 with group
algebras, in process.

Run it from a checkout with that checkout's source on the path, once per
source tree to compare:

    PYTHONPATH=src python3 scripts/time_classify.py --max-dim 16 --repeat 3

The algebras are H4(x)kC2, H4(x)kC2xC2 and H8(x)kC2, those up to
--max-dim, built by ``tensor`` of ``tests/test_solver_families.py``, which
is loaded from that file.  Each is exported to an algebra file, and every
run is one ``classify-diffops --algebra FILE`` through ``cli.run``, so the
plan is the one the coset rule derives and the report is the command's
stdout.  One line per algebra gives the median CPU time of --repeat runs
in seconds, the operator count, the certificate and the sha256 of the
report, which must be the same for every run and every source tree.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import statistics
import tempfile
import time
from pathlib import Path

from hopfdiff import catalog, cli, cli_solver, diffops, solver  # noqa: F401, loaded before timing
from hopfdiff.formats import algebra_to_dict

FAMILIES = Path(__file__).resolve().parents[1] / "tests" / "test_solver_families.py"


def load_tensor():
    spec = importlib.util.spec_from_file_location("test_solver_families", FAMILIES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.tensor


def classify(path: str) -> tuple[float, str]:
    """One classification of the algebra file: (CPU seconds, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.process_time()
        code = cli.run(["classify-diffops", "--algebra", path])
        elapsed = time.process_time() - start
    if code != 0:
        raise SystemExit(f"classify-diffops {path} exited {code}")
    return elapsed, out.getvalue()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-dim", type=int, default=16)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    tensor = load_tensor()
    h4, h8 = catalog.build("H4"), catalog.build("H8")
    builds = [(8, lambda: tensor(h4, catalog.build("kC2"))),
              (16, lambda: tensor(h4, catalog.build("kC2xC2"))),
              (16, lambda: tensor(h8, catalog.build("kC2")))]
    with tempfile.TemporaryDirectory() as tmp:
        for dim, build in builds:
            if dim > args.max_dim:
                continue
            h = build()
            path = str(Path(tmp) / "algebra.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(algebra_to_dict(h), fh)
            times, reports = [], set()
            for _ in range(args.repeat):
                elapsed, report = classify(path)
                times.append(elapsed)
                reports.add(report)
            if len(reports) != 1:
                raise SystemExit(f"{h.name}: the report differs between runs")
            (report,) = reports
            body = json.loads(report)
            print(f"{h.name} (dim {h.dim}): classify-diffops median "
                  f"{statistics.median(times):.3f} s CPU, {body['operator_count']} operators, "
                  f"{body['certificate']}, report sha256 "
                  f"{hashlib.sha256(report.encode()).hexdigest()}")


if __name__ == "__main__":
    main()
