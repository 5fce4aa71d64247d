"""Time building and validating a ``FinDimHopf``, and ``check_diffop`` on
u o eps, on H8 and its tensor products, in process.

Run it from a checkout with that checkout's source on the path, once per
source tree to compare:

    PYTHONPATH=src python3 scripts/time_closure.py --max-dim 64 --repeat 3

The algebras are H8, H8(x)kC2, H8(x)H4 and H8(x)H8, those up to
--max-dim, built by ``tensor`` of ``tests/test_solver_families.py``, which
is loaded from that file.  Each check runs once untimed, then --repeat
times.  A fresh ``FinDimHopf`` is built from the algebra's structure
constants, read through the carrier interface, and validated, and the
two are timed together, since a source tree may build its integer tables
in either.  ``check_diffop`` runs on the algebra as built, whose axiom
report is already memoized, as it is for an algebra the command line has
loaded.  One line per algebra gives the median wall time of each check
in seconds and both verdicts, which must be the same for every run and
every source tree, and, from one more untimed build under tracemalloc,
the memory the built algebra keeps after construction and after
``validate_hopf``, and the peak over both.
"""

import argparse
import importlib.util
import statistics
import time
import tracemalloc
from pathlib import Path

from hopfdiff import catalog
from hopfdiff.diffops import DiffOp, check_diffop
from hopfdiff.exactlin import Mat
from hopfdiff.hopf import FinDimHopf, validate_hopf
from hopfdiff.maps import unit_counit_map

FAMILIES = Path(__file__).resolve().parents[1] / "tests" / "test_solver_families.py"


def load_tensor():
    spec = importlib.util.spec_from_file_location("test_solver_families", FAMILIES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.tensor


def constructor_args(h: FinDimHopf) -> tuple:
    """The FinDimHopf arguments of h, read through the carrier interface."""
    n = h.dim
    return (h.name, [h.label(i) for i in range(n)],
            [[h.mult_basis(i, j) for j in range(n)] for i in range(n)], h.unit_vec(),
            [h.comult_triples(k) for k in range(n)], [h.counit_coeff(i) for i in range(n)],
            Mat.from_cols([h.antipode_basis(j) for j in range(n)]), h.coradical_group_basis)


def build_and_validate(args: tuple) -> bool:
    return validate_hopf(FinDimHopf(*args)).ok


def memory_kb(args: tuple) -> tuple:
    """The memory a FinDimHopf built from args keeps after construction and
    after validate_hopf, and the peak over both, in kB."""
    tracemalloc.start()
    h = FinDimHopf(*args)
    built = tracemalloc.get_traced_memory()[0]
    validate_hopf(h)
    validated, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return built / 1000, validated / 1000, peak / 1000


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
        unit = unit_counit_map(h)

        def diffop(op):
            return isinstance(check_diffop(h, op), DiffOp)

        v_times, (v_ok,) = timed(build_and_validate, lambda: constructor_args(h), args.repeat)
        d_times, (d_ok,) = timed(diffop, lambda: unit, args.repeat)
        built, validated, peak = memory_kb(constructor_args(h))
        print(f"{h.name} (dim {h.dim}): build + validate_hopf median "
              f"{statistics.median(v_times):.4f} s (ok {v_ok}), check_diffop(u o eps) median "
              f"{statistics.median(d_times):.4f} s (DiffOp {d_ok}); kept {built:.0f} kB "
              f"built, {validated:.0f} kB validated, peak {peak:.0f} kB")


if __name__ == "__main__":
    main()
