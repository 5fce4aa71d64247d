"""A command imports only the layers it runs.

Each case starts a fresh interpreter, notes ``sys.modules``, imports
``hopfdiff.cli``, runs one command through ``cli.run`` and reports the
modules that appeared.  File parsing (``formats``, ``lie``) and the heavy
layers load only for the commands that use them, and no command imports
``dataclasses`` or ``inspect``: on the shared path, and on the paths of a
free-lie task, ``classify-diffops`` and ``monoid-table`` through the heavy
layers.

The benchmark's commands have their whole ``hopfdiff`` module set pinned,
so a new top-level import on any of their paths fails here, not only the
import of a layer named as absent.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hopfdiff
from hopfdiff import catalog, formats

SRC = str(Path(hopfdiff.__file__).resolve().parents[1])

CHILD = """\
import contextlib, io, json, sys
before = set(sys.modules)
from hopfdiff import cli
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
    code = cli.run(sys.argv[1:])
print(json.dumps({"code": code, "report": json.loads(out.getvalue()),
                  "loaded": sorted(set(sys.modules) - before)}))
"""

RECORDS = {"dataclasses", "inspect"}
HEAVY = {f"hopfdiff.{m}" for m in ("formats", "lie", "solver", "diffops", "actions",
                                   "freelie")} | RECORDS


def run_fresh(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv, absent, kind", [
    (["validate", "--algebra", "kC2"], HEAVY, None),
    (["grouplikes", "--algebra", "H8"], HEAVY, None),
    (["catalog"], HEAVY, None),
    (["catalog", "op:id:kC2"], HEAVY - {"hopfdiff.formats"}, "operator"),
    (["catalog", "plan:H4"], {"hopfdiff.actions", "hopfdiff.lie"}, "plan"),
    (["catalog", "action:inv:kC2:kC4"], {"hopfdiff.solver", "hopfdiff.lie"}, "action"),
    (["free-lie", "mm-check", "--budget", "3"], RECORDS, None),
    (["classify-diffops", "--plan", "plan:H4"], RECORDS, None),
    (["monoid-table", "--algebra", "kC2"], RECORDS, None),
], ids=["validate-kC2", "grouplikes-H8", "catalog-list", "export-operator", "export-plan",
        "export-action", "free-lie-mm-check", "classify-H4", "monoid-table-kC2"])
def test_command_loads_only_its_layers(argv, absent, kind, tmp_path):
    res = run_fresh(argv, tmp_path)
    assert res["code"] == 0 and res["report"]["ok"] is True
    # an export names the kind of what the catalog built without importing
    # the module of a kind it did not build
    assert res["report"].get("kind") == kind
    assert "hopfdiff.cli" in res["loaded"]
    assert sorted(absent & set(res["loaded"])) == []


SHARED = {"cli", "exactlin", "hopf"}
CATALOG = SHARED | {"catalog", "groups"}


@pytest.mark.parametrize("argv, modules", [
    # the four tasks of the freelie-b4 workload; lyndon-dims needs only the
    # carriers, and mm-check neither diffops nor the catalog
    (["free-lie", "mm-check", "--generators", "2", "--budget", "4"],
     SHARED | {"cli_freelie", "truncated", "freelie", "actions"}),
    (["free-lie", "ckmm-mixed", "--budget", "4"],
     CATALOG | {"cli_freelie", "truncated", "freelie", "actions", "diffops", "lie"}),
    (["free-lie", "diffop-from-hom", "--budget", "4"],
     SHARED | {"cli_freelie", "truncated", "freelie", "actions", "diffops"}),
    (["free-lie", "lyndon-dims", "--budget", "6"], SHARED | {"cli_freelie", "truncated"}),
    (["validate", "--algebra", "kC2"], CATALOG | {"cli_algebra"}),
    (["grouplikes", "--algebra", "H8"], CATALOG | {"cli_algebra"}),
    (["check-diffop", "--operator", "op.json"], CATALOG | {"cli_diffops", "diffops", "formats"}),
    (["classify-diffops", "--plan", "plan:H8"], CATALOG | {"cli_solver", "solver", "diffops"}),
    (["monoid-table", "--algebra", "kD4"], CATALOG | {"cli_diffops", "diffops"}),
], ids=["mm-check", "ckmm-mixed", "diffop-from-hom", "lyndon-dims", "validate-kC2",
        "grouplikes-H8", "check-diffop-kS3", "classify-H8", "monoid-table-kD4"])
def test_command_loads_exactly_its_modules(argv, modules, tmp_path):
    with open(tmp_path / "op.json", "w", encoding="utf-8") as fh:
        json.dump(formats.operator_to_dict(catalog.build("op:inv:kS3")), fh)
    res = run_fresh(argv, tmp_path)
    assert res["code"] == 0 and res["report"]["ok"] is True
    loaded = {m for m in res["loaded"] if m.startswith("hopfdiff.")}
    assert sorted(loaded) == sorted(f"hopfdiff.{m}" for m in modules)
