"""Run every hopfdiff command line of the CLI matrix, each in a process of its own.

    python3 scripts/cli_matrix.py

The matrix is data: ``cases(tmp)`` lists every case as (argv, the exit
codes allowed, a stdout rule), from the command table, the catalog and
``FILE_OPTIONS``.  ``main()`` runs each case as ``python -m hopfdiff
ARGV`` on this checkout's ``src`` and prints one line per case.  A case
fails on an exit code it does not allow, a traceback on stderr, or a
stdout that breaks its rule; every case runs, and the script exits 1 if
any failed.  It takes no argument.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from hopfdiff import catalog, cli, formats  # noqa: E402
from hopfdiff.hopf import is_cocommutative  # noqa: E402

OK, ANY, INPUT_ERROR = (0,), (0, 1, 2), (2,)

# the stdout rule of monoid-table: the report must not say "ok": false.
# Any other rule is None, ("says", TEXT) for a stdout that must contain
# TEXT, or the argv of an earlier case whose stdout this case's must equal
NOT_FAILED = '"ok": false'

# one command line per file option, the unreadable input to follow; an
# argument NAME.json is the catalog entry NAME exported to a file
FILE_OPTIONS = {
    "algebra": ["validate", "--algebra"],
    "operator": ["check-diffop", "--operator"],
    "operator-k": ["extend-smash-diff", "--action", "action:inv:kC2:kC4.json",
                   "--operator", "op:id:kC4.json", "--operator-k"],
    "action": ["smash", "--action"],
    "plan": ["classify-diffops", "--plan"],
    "expected": ["classify-diffops", "--plan", "plan:H4", "--expected"],
    "phi": ["free-lie", "diffop-from-hom", "--phi"],
}

# letter-image files of the two-letter tensor algebra for diffop-from-hom:
# a primitive one, accepted, and one with the word aa, which is refused
PHI = {
    "phi-primitive.json": ({"images": [{"a": "1", "ab": "1/2", "ba": "-1/2"}, {"b": -1}]},
                           OK, None),
    "phi-not-primitive.json": ({"images": [{"aa": 1}, {}]},
                               INPUT_ERROR, ("says", "letter images must be primitive")),
}

# the expected-tables exports: the options of the classification each is
# compared with, and its exit code.  The published H8 count is refuted, so
# that comparison exits 1
EXPECTED = {
    "expected:H4": (["--plan", "plan:H4"], OK),
    "expected:H8-bijective": (["--plan", "plan:H8", "--bijective-only"], (1,)),
}


def cases(tmp: Path) -> list:
    """Every case of the matrix; writes the catalog exports and the two
    unreadable inputs into tmp."""
    def path(name):
        return str(tmp / name)

    built = {name: catalog.build(name) for name in catalog.names()}
    exports = {}  # catalog name -> (kind, payload)
    for name, obj in built.items():
        kind, to_dict = formats.EXPORTS[type(obj).__name__]
        exports[name] = kind, getattr(formats, to_dict)(obj)
        (tmp / f"{name}.json").write_text(json.dumps(exports[name][1]))
    (tmp / "directory").mkdir()
    (tmp / "non-utf8").write_bytes(b'\xff{"name": "H4"}')
    for name, (payload, _, _) in PHI.items():
        (tmp / name).write_text(json.dumps(payload))
    of_kind = {kind: [n for n, (k, _) in exports.items() if k == kind]
               for kind, _ in formats.EXPORTS.values()}
    action = path("action:inv:kC2:kC4.json")

    out = [([command, "--help"], OK, None) for command in cli.COMMANDS]
    out.append((["nosuch"], INPUT_ERROR, None))
    out.append((["catalog"], OK, None))
    out += [(["catalog", name], OK, None) for name in exports]
    for argv in FILE_OPTIONS.values():
        argv = [path(a) if a.endswith(".json") else a for a in argv]
        out += [(argv + [path(bad)], INPUT_ERROR, None) for bad in ("directory", "non-utf8")]
    out.append((["validate", "--algebra", "kC2", "--out", path("directory")], INPUT_ERROR, None))
    for name in of_kind["algebra"]:
        out += [(["classify-diffops", "--algebra", name], OK, None),
                (["grouplikes", "--algebra", name], OK, None),
                (["primitives", "--algebra", name], OK, None),
                (["skew-primitives", "--algebra", name,
                  "--left-grouplike", "0", "--right-grouplike", "0"], OK, None)]
        if is_cocommutative(built[name]):
            out.append((["monoid-table", "--algebra", name], OK, NOT_FAILED))
    for name in of_kind["plan"]:
        by_name = ["classify-diffops", "--plan", name]
        out += [(by_name, OK, None),
                (["classify-diffops", "--plan", path(f"{name}.json")], OK, by_name)]
    # each expected-tables export against its plan
    out += [(["classify-diffops", *EXPECTED[name][0], "--expected", path(f"{name}.json")],
             EXPECTED[name][1], None) for name in of_kind["expected-tables"]]
    # an operator that is not a difference operator on its algebra, or not
    # a map from the action's acting algebra to its target, is a verdict
    # (exit 1) or an input error (exit 2), never a crash
    for name in of_kind["operator"]:
        op = ["--operator", path(f"{name}.json")]
        out += [([command, *op], ANY, None)
                for command in ("check-diffop", "rota-baxter", "ckmm-check")]
        out += [([command, "--action", action, *op], ANY, None)
                for command in ("check-crossed-hom", "graph")]
    # the action of kC2 on kC4, and its extensions by every pair of
    # operators on one algebra, kC4 then kC2
    on = {}
    for name in of_kind["operator"]:
        payload = exports[name][1]
        if "codomain" not in payload:
            on.setdefault(payload["algebra"], []).append(path(f"{name}.json"))
    out.append((["smash", "--action", action], ANY, None))
    out += [(["extend-smash-diff", "--action", action, "--operator", h, "--operator-k", k],
             ANY, None) for h in on["kC4"] for k in on["kC2"]]
    # a budget too small for the adjoint action is an input error, and
    # budget 8 is beyond the cap
    for budget in range(1, 8):
        out += [(["free-lie", task, "--budget", str(budget)], ANY, None)
                for task in ("mm-check", "ckmm-mixed", "diffop-from-hom")]
    # three letters stop at budget 5: on a 2-core machine, mm-check takes
    # about 20 s and 1.2 GB at budget 6, and is not done after 100 s at budget 7
    out += [(["free-lie", "mm-check", "--generators", "3", "--budget", str(budget)], ANY, None)
            for budget in range(1, 6)]
    # each letter-image file from budget 2, the first that has the words
    # ab and aa, each budget in a fresh process
    out += [(["free-lie", "diffop-from-hom", "--budget", str(budget), "--phi", path(name)],
             codes, rule) for name, (_, codes, rule) in PHI.items() for budget in range(2, 8)]
    out += [(["free-lie", task, "--budget", "8"], INPUT_ERROR, None)
            for task in ("mm-check", "ckmm-mixed", "lyndon-dims")]
    return out


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        matrix = cases(Path(tmp))
        stdouts = {}
        for argv, codes, rule in matrix:
            # run from src, so that the child imports this checkout's package
            proc = subprocess.run([sys.executable, "-m", "hopfdiff", *argv], cwd=SRC,
                                  capture_output=True, encoding="utf-8", errors="replace")
            stdouts[tuple(argv)] = proc.stdout
            faults = []
            if proc.returncode not in codes:
                faults.append(f"exit {proc.returncode}, expected {' or '.join(map(str, codes))}")
            if "Traceback" in proc.stderr:
                faults.append("traceback on stderr")
            if rule == NOT_FAILED and NOT_FAILED in proc.stdout:
                faults.append('the report says "ok": false')
            elif isinstance(rule, tuple) and rule[1] not in proc.stdout:
                faults.append(f"stdout does not say {rule[1]!r}")
            elif isinstance(rule, list) and proc.stdout != stdouts[tuple(rule)]:
                faults.append(f"stdout differs from that of {' '.join(rule)}")
            line = " ".join(argv).replace(tmp, "TMP")
            if faults:
                failed += 1
                print(f"FAILED {line}: {'; '.join(faults)}")
                print(proc.stderr, end="", flush=True)
            else:
                print(f"ok     {line}", flush=True)
        print(f"{len(matrix)} cases, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
