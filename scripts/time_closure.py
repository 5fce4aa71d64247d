"""Time ``validate_hopf`` and ``check_diffop`` on u o eps, on H8 and its
tensor products, in process.

Run it from a checkout with that checkout's source on the path, once per
source tree to compare:

    PYTHONPATH=src python3 scripts/time_closure.py --max-dim 64 --repeat 3

The algebras are H8, H8(x)kC2, H8(x)H4 and H8(x)H8, those up to
--max-dim, built by ``tensor`` of ``tests/test_solver_families.py``, which
is loaded from that file.  Each check runs once untimed, then --repeat
times.  ``validate_hopf`` runs on a fresh copy of the algebra each time,
so every run builds its integer tables from scratch; ``check_diffop``
runs on the algebra as built, whose axiom report is already memoized, as
it is for an algebra the command line has loaded.  One line per algebra
gives the median wall time of each check in seconds and both verdicts,
which must be the same for every run and every source tree.
"""

import argparse
import importlib.util
import statistics
import time
from pathlib import Path

from hopfdiff import catalog
from hopfdiff.diffops import DiffOp, check_diffop
from hopfdiff.hopf import FinDimHopf, validate_hopf
from hopfdiff.maps import unit_counit_map

FAMILIES = Path(__file__).resolve().parents[1] / "tests" / "test_solver_families.py"


def load_tensor():
    spec = importlib.util.spec_from_file_location("test_solver_families", FAMILIES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.tensor


def fresh_copy(h: FinDimHopf) -> FinDimHopf:
    return FinDimHopf(h.name, h.basis, h.mult, h.unit, h.comult, h.counit, h.antipode,
                      h.coradical_group_basis)


def timed(fn, make_arg, repeat: int) -> tuple[list, set]:
    verdicts = set()
    times = []
    for i in range(repeat + 1):
        arg = make_arg()
        start = time.perf_counter()
        verdict = fn(arg)
        if i:
            times.append(time.perf_counter() - start)
        verdicts.add(verdict)
    if len(verdicts) != 1:
        raise SystemExit(f"{fn.__name__}: the verdict differs between runs")
    return times, verdicts


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-dim", type=int, default=64)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    tensor = load_tensor()
    h8 = catalog.build("H8")
    builds = [(8, lambda: h8), (16, lambda: tensor(h8, catalog.build("kC2"))),
              (32, lambda: tensor(h8, catalog.build("H4"))), (64, lambda: tensor(h8, h8))]
    for dim, build in builds:
        if dim > args.max_dim:
            break
        h = build()
        unit = unit_counit_map(h).matrix

        def validate(copy):
            return validate_hopf(copy).ok

        def diffop(matrix):
            return isinstance(check_diffop(h, matrix), DiffOp)

        v_times, (v_ok,) = timed(validate, lambda: fresh_copy(h), args.repeat)
        d_times, (d_ok,) = timed(diffop, lambda: unit, args.repeat)
        print(f"{h.name} (dim {h.dim}): validate_hopf median {statistics.median(v_times):.4f} s "
              f"(ok {v_ok}), check_diffop(u o eps) median {statistics.median(d_times):.4f} s "
              f"(DiffOp {d_ok})")


if __name__ == "__main__":
    main()
