"""A command imports only the layers it runs.

Each case starts a fresh interpreter, notes ``sys.modules``, imports
``hopfdiff.cli``, runs one command through ``cli.run`` and reports the
modules that appeared.  File parsing (``formats``, ``lie``) and the heavy
layers load only for the commands that use them, and no command imports
``dataclasses`` or ``inspect``: on the shared path, and on the paths of a
free-lie task, ``classify-diffops`` and ``monoid-table`` through the heavy
layers.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hopfdiff

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
