"""A command imports only the layers it runs.

Each case starts a fresh interpreter without ``site``, so that no module
a ``.pth`` file imports hides one the package imports; it notes
``sys.modules``, imports ``hopfdiff.cli``, runs one command through
``cli.run`` and reports the modules that appeared.  File parsing
(``formats``, ``lie``) and the heavy layers load only for the commands
that use them, and no command imports ``dataclasses`` or ``inspect``: on
the shared path, and on the paths of a free-lie task, ``classify-diffops``
and ``monoid-table`` through the heavy layers.

The benchmark's commands have their whole ``hopfdiff`` module set pinned,
so a new top-level import on any of their paths fails here, not only the
import of a layer named as absent; none of them loads ``typing``.  A
command's process adds options only to its own command's parser.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hopfdiff
from hopfdiff import catalog, cli, formats

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


def run_fresh(argv, cwd, child=CHILD):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-S", "-c", child, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv, absent, kind", [
    (["validate", "--algebra", "kC2"], HEAVY, None),
    (["grouplikes", "--algebra", "H8"], HEAVY, None),
    (["catalog"], HEAVY, None),
    (["catalog", "op:id:kC2"], HEAVY - {"hopfdiff.formats"}, "operator"),
    (["catalog", "plan:H4"], {"hopfdiff.actions", "hopfdiff.lie", "hopfdiff.diffops"},
     "plan"),
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
    # a plan is built and exported without the difference-operator layer
    (["catalog", "plan:H4"], CATALOG | {"cli_algebra", "solver", "formats"}),
], ids=["mm-check", "ckmm-mixed", "diffop-from-hom", "lyndon-dims", "validate-kC2",
        "grouplikes-H8", "check-diffop-kS3", "classify-H8", "monoid-table-kD4",
        "export-plan-H4"])
def test_command_loads_exactly_its_modules(argv, modules, tmp_path):
    with open(tmp_path / "op.json", "w", encoding="utf-8") as fh:
        json.dump(formats.operator_to_dict(catalog.build("op:inv:kS3")), fh)
    res = run_fresh(argv, tmp_path)
    assert res["code"] == 0 and res["report"]["ok"] is True
    loaded = {m for m in res["loaded"] if m.startswith("hopfdiff.")}
    assert sorted(loaded) == sorted(f"hopfdiff.{m}" for m in modules)
    assert "typing" not in res["loaded"]


# records every add_argument call as [parser prog, flags...]
CHILD_OPTIONS = """\
import argparse, contextlib, io, json, sys
added = []
add_argument = argparse.ArgumentParser.add_argument
def record(parser, *flags, **kwargs):
    added.append([parser.prog, *flags])
    return add_argument(parser, *flags, **kwargs)
argparse.ArgumentParser.add_argument = record
from hopfdiff import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.run(sys.argv[1:])
print(json.dumps({"code": code, "added": added}))
"""


def test_command_builds_only_its_own_options(tmp_path):
    res = run_fresh(["validate", "--algebra", "kC2"], tmp_path, CHILD_OPTIONS)
    assert res["code"] == 0
    added = [tuple(call) for call in res["added"]]
    # every command is registered, each subparser with its own -h
    helps = sorted(prog for prog, *flags in added if flags == ["-h", "--help"])
    assert helps == sorted(["hopfdiff"] + [f"hopfdiff {name}" for name in cli.COMMANDS])
    # and only validate has options: no --budget on free-lie, for one
    assert sorted(call for call in added if call[1] != "-h") == [
        ("hopfdiff validate", "--algebra"), ("hopfdiff validate", "--out"),
        ("hopfdiff validate", "--seed")]
