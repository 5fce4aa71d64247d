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
import of a layer named as absent; none of them loads ``typing``.  The
map-level checks (``hopfdiff.maps``) load only on the operator, action
and free-lie paths, the group-level calculus (``hopfdiff.groups``) only
where the solver or the group-algebra operator functions run, and
``hashlib``, which loads OpenSSL, only where a
content hash is written or checked.  A command's process registers only
its own command's parser, with its options; ``--help``, no command and
an unknown name get every command's, with none.
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
CATALOG = SHARED | {"catalog", "fingroup"}


def write_inputs(tmp_path):
    """op.json, the export of op:inv:kS3, and kC2.json, of kC2."""
    for name, data in (("op.json", formats.operator_to_dict(catalog.build("op:inv:kS3"))),
                       ("kC2.json", formats.algebra_to_dict(catalog.build("kC2")))):
        with open(tmp_path / name, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


@pytest.mark.parametrize("argv, modules", [
    # the four tasks of the freelie-b4 workload; lyndon-dims needs only the
    # carriers, and mm-check neither diffops nor the catalog
    (["free-lie", "mm-check", "--generators", "2", "--budget", "4"],
     SHARED | {"cli_freelie", "truncated", "freelie", "actions", "maps"}),
    (["free-lie", "ckmm-mixed", "--budget", "4"],
     CATALOG | {"cli_freelie", "truncated", "freelie", "actions", "maps", "diffops", "lie"}),
    (["free-lie", "diffop-from-hom", "--budget", "4"],
     SHARED | {"cli_freelie", "truncated", "freelie", "actions", "maps", "diffops"}),
    (["free-lie", "lyndon-dims", "--budget", "6"], SHARED | {"cli_freelie", "truncated"}),
    # the algebra commands and the catalog list run no map-level check and
    # no group-level calculus
    (["validate", "--algebra", "kC2"], CATALOG | {"cli_algebra"}),
    (["grouplikes", "--algebra", "H8"], CATALOG | {"cli_algebra"}),
    (["primitives", "--algebra", "H4"], CATALOG | {"cli_algebra"}),
    (["catalog"], CATALOG | {"cli_algebra"}),
    (["check-diffop", "--operator", "op.json"],
     CATALOG | {"cli_diffops", "diffops", "maps", "formats"}),
    (["classify-diffops", "--plan", "plan:H8"],
     CATALOG | {"cli_solver", "solver", "groups", "diffops", "maps"}),
    (["monoid-table", "--algebra", "kD4"],
     CATALOG | {"cli_diffops", "diffops", "maps", "groups"}),
    # a plan is built and exported without the difference-operator layer
    (["catalog", "plan:H4"], CATALOG | {"cli_algebra", "solver", "groups", "formats"}),
], ids=["mm-check", "ckmm-mixed", "diffop-from-hom", "lyndon-dims", "validate-kC2",
        "grouplikes-H8", "primitives-H4", "catalog-list", "check-diffop-kS3", "classify-H8",
        "monoid-table-kD4", "export-plan-H4"])
def test_command_loads_exactly_its_modules(argv, modules, tmp_path):
    write_inputs(tmp_path)
    res = run_fresh(argv, tmp_path)
    assert res["code"] == 0 and res["report"]["ok"] is True
    loaded = {m for m in res["loaded"] if m.startswith("hopfdiff.")}
    assert sorted(loaded) == sorted(f"hopfdiff.{m}" for m in modules)
    assert "typing" not in res["loaded"]


@pytest.mark.parametrize("argv, hashes", [
    (["validate", "--algebra", "kC2"], False),
    (["grouplikes", "--algebra", "H8"], False),
    (["catalog"], False),
    (["catalog", "kC2"], False),
    (["validate", "--algebra", "kC2.json"], False),
    # an operator file carries its algebra's content hash
    (["catalog", "op:id:kC2"], True),
    (["check-diffop", "--operator", "op.json"], True),
], ids=["validate-kC2", "grouplikes-H8", "catalog-list", "export-algebra", "algebra-file",
        "export-operator", "read-operator"])
def test_only_content_hashes_load_hashlib(argv, hashes, tmp_path):
    write_inputs(tmp_path)
    res = run_fresh(argv, tmp_path)
    assert res["code"] == 0 and res["report"]["ok"] is True
    assert ("hashlib" in res["loaded"]) is hashes


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


def registered(argv, tmp_path) -> tuple[int, list, list]:
    """The exit code, the progs of the parsers a fresh process built for
    argv, and the add_argument calls other than -h."""
    res = run_fresh(argv, tmp_path, CHILD_OPTIONS)
    added = [tuple(call) for call in res["added"]]
    # every parser, the top level and each subparser, has its own -h
    helps = sorted(prog for prog, *flags in added if flags == ["-h", "--help"])
    return res["code"], helps, sorted(call for call in added if call[1] != "-h")


def test_command_builds_only_its_own_options(tmp_path):
    code, helps, options = registered(["validate", "--algebra", "kC2"], tmp_path)
    assert code == 0
    # only validate is registered, with its options: no free-lie --budget
    assert helps == ["hopfdiff", "hopfdiff validate"]
    assert options == [("hopfdiff validate", "--algebra"), ("hopfdiff validate", "--out"),
                       ("hopfdiff validate", "--seed")]
    # --help lists every command, and the error for an unknown or missing
    # name chooses from every command; no command has options
    for argv, want in (["--help"], 0), (["nosuch"], 2), ([], 2):
        code, helps, options = registered(argv, tmp_path)
        assert code == want
        assert helps == sorted(["hopfdiff"] + [f"hopfdiff {name}" for name in cli.COMMANDS])
        assert options == []
