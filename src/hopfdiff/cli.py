"""Command-line front end.

Machine-readable JSON goes to stdout (deterministic: re-running a command
on identical inputs produces byte-identical reports); a short human
summary goes to stderr.  Exit codes: 0 success, 1 mathematical failure
(an axiom, verification or expected-table mismatch), 2 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import import_module

from .hopf import FinDimHopf, InvalidAlgebraError, LinMap, axiom_report

SCHEMA_VERSION = 1


class InputError(Exception):
    pass


def _input_error(exc: Exception, context: str = "") -> Exception:
    """What a command raises for an error from the library or a parser: a
    structure that fails a named axiom stays an InvalidAlgebraError (exit
    1), and anything else is an input error (exit 2) after context."""
    return exc if isinstance(exc, InvalidAlgebraError) else InputError(context + str(exc))


# what the formats parsers raise on a malformed file; "1/0" raises
# ZeroDivisionError from Fraction
_PARSE_ERRORS = (ValueError, KeyError, TypeError, ZeroDivisionError)

# the algebras the current command has resolved, by spec (a catalog name
# or a file path), so each input is built or parsed and checked once and
# every loader gets the same object; run() empties it before each command
_RESOLVED: dict = {}


def _resolve_algebra(spec: str) -> FinDimHopf:
    """A catalog name or a path to an algebra JSON file; a file algebra
    that fails a Hopf axiom raises InvalidAlgebraError."""
    if spec is None:
        raise InputError("--algebra is required for this command")
    h = _RESOLVED.get(spec)
    if h is not None:
        return h
    if os.path.exists(spec):
        from . import formats

        with open(spec, "r", encoding="utf-8") as fh:
            try:
                h = formats.algebra_from_dict(json.load(fh))
            except _PARSE_ERRORS as exc:
                raise InputError(f"bad algebra file {spec}: {exc}")
        report = axiom_report(h)
        if not report.ok:
            raise InvalidAlgebraError(f"algebra file {spec}", "not a Hopf algebra",
                                      {"algebra": h.name}, report)
    else:
        from . import catalog

        try:
            h = catalog.build(spec)
        except KeyError as exc:
            raise InputError(str(exc))
        if not isinstance(h, FinDimHopf):
            raise InputError(f"catalog entry {spec!r} is not a Hopf algebra")
    _RESOLVED[spec] = h
    return h


def _load_json(path: str, kind: str) -> dict:
    if path is None:
        raise InputError(f"--{kind} is required for this command")
    if not os.path.exists(path):
        raise InputError(f"no such file: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"bad JSON in {path}: {exc}")


def _load_operator(path: str) -> LinMap:
    from . import formats

    data = _load_json(path, "operator")
    try:
        return formats.operator_from_dict(data, _resolve_algebra)
    except _PARSE_ERRORS as exc:
        raise _input_error(exc, f"bad operator file {path}: ")


def _require_algebra(got, want, message: str):
    """An input error with message unless got is the algebra want: the
    same object, or one with its name and content hash."""
    if got is not want:
        from .formats import algebra_hash

        if got.name != want.name or algebra_hash(got) != algebra_hash(want):
            raise InputError(message)


def _load_action(path: str):
    from . import formats

    data = _load_json(path, "action")
    try:
        return formats.action_from_dict(data, _resolve_algebra)
    except _PARSE_ERRORS as exc:
        raise _input_error(exc, f"bad action file {path}: ")


def _resolve_plan(args):
    """The plan of --plan, or with no --plan the plan that the coset rule
    derives for --algebra."""
    from .solver import SearchPlan, derive_plan

    if args.plan is None:
        if args.algebra is None:
            raise InputError("--plan or --algebra is required (a plan file or catalog "
                             "plan name, or an algebra to derive the plan of)")
        h = _resolve_algebra(args.algebra)
        try:
            return derive_plan(h)
        except ValueError as exc:
            raise InputError(f"no search plan for {args.algebra}: {exc}")
    if os.path.exists(args.plan):
        from . import formats

        data = _load_json(args.plan, "plan")
        try:
            return formats.plan_from_dict(data, _resolve_algebra).validate()
        except _PARSE_ERRORS as exc:
            raise _input_error(exc, "bad plan file: ")
    from . import catalog

    try:
        obj = catalog.build(args.plan)
    except KeyError as exc:
        raise InputError(str(exc))
    if not isinstance(obj, SearchPlan):
        raise InputError(f"catalog entry {args.plan!r} is not a search plan")
    return obj


# -- the command table -------------------------------------------------------------

# option name -> (argparse flag, keyword arguments)
OPTIONS = {
    "algebra": ("--algebra", {"help": "catalog name or algebra JSON file"}),
    "plan": ("--plan", {"help": "catalog plan name or plan JSON file"}),
    "action": ("--action", {"help": "action JSON file"}),
    "operator": ("--operator", {"help": "operator JSON file"}),
    "operator-k": ("--operator-k", {"help": "operator JSON file for the acting algebra"}),
    "expected": ("--expected", {"help": "expected-tables JSON file"}),
    "seed": ("--seed", {"type": int, "help": "recorded in the report for reproducibility"}),
    "out": ("--out", {"help": "also write the JSON report to this path"}),
    "left-grouplike": ("--left-grouplike", {"type": int}),
    "right-grouplike": ("--right-grouplike", {"type": int}),
    "bijective-only": ("--bijective-only", {"action": "store_true"}),
    "task": ("task", {"choices": ["lyndon-dims", "diffop-from-hom", "mm-check",
                                  "ckmm-mixed"]}),
    "generators": ("--generators", {"type": int}),
    "budget": ("--budget", {"type": int}),
    "phi": ("--phi", {"help": "letter images as JSON word-coefficient tables"}),
    "name": ("name", {"nargs": "?", "help": "entry to export; omit to list"}),
}

# command -> (handler module, handler, options, help).  Every command also
# takes --seed and --out, and a command's options are added in the order of
# OPTIONS.  Each handler returns its report and a one-line summary; run()
# puts the schema version, the command and any --seed in front, emits the
# report and exits 0 when it is ok and 1 when it is not.  A handler's module
# is imported when its command runs, so a process compiles only the handlers
# and layers of its one command.
COMMANDS = {
    "validate": ("cli_algebra", "cmd_validate", ("algebra",), "check all Hopf axioms"),
    "grouplikes": ("cli_algebra", "cmd_grouplikes", ("algebra",), None),
    "primitives": ("cli_algebra", "cmd_primitives", ("algebra",), None),
    "skew-primitives": ("cli_algebra", "cmd_skew_primitives",
                        ("algebra", "left-grouplike", "right-grouplike"), None),
    "check-diffop": ("cli_diffops", "cmd_check_diffop", ("operator",), None),
    "check-crossed-hom": ("cli_actions", "cmd_check_crossed_hom", ("action", "operator"),
                          None),
    "classify-diffops": ("cli_solver", "cmd_classify_diffops",
                         ("algebra", "plan", "expected", "bijective-only"), None),
    "smash": ("cli_actions", "cmd_smash", ("action",), None),
    "graph": ("cli_actions", "cmd_graph", ("action", "operator"), None),
    "monoid-table": ("cli_diffops", "cmd_monoid_table", ("algebra",), None),
    "rota-baxter": ("cli_diffops", "cmd_rota_baxter", ("operator",), None),
    "extend-smash-diff": ("cli_diffops", "cmd_extend_smash_diff",
                          ("action", "operator", "operator-k"), None),
    "free-lie": ("cli_freelie", "cmd_free_lie", ("task", "generators", "budget", "phi"),
                 None),
    "ckmm-check": ("cli_diffops", "cmd_ckmm_check", ("operator",), None),
    "catalog": ("cli_algebra", "cmd_catalog", ("name",), None),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser with every command name registered; only the subparser of
    command gets its options, since a process runs one command."""
    parser = argparse.ArgumentParser(
        prog="hopfdiff",
        description="Exact verification and classification of crossed "
                    "homomorphisms and difference operators on Hopf algebras.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, options, help_text) in COMMANDS.items():
        # a command with no help text stays out of the top-level --help list
        p = sub.add_parser(name, **({} if help_text is None else {"help": help_text}))
        if name == command:
            wanted = {*options, "seed", "out"}
            for option, (flag, kwargs) in OPTIONS.items():
                if option in wanted:
                    p.add_argument(flag, **kwargs)
    return parser


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on unknown flags or bad usage
        return int(exc.code) if exc.code else 0
    _RESOLVED.clear()
    module, handler, _, _ = COMMANDS[args.command]
    try:
        body, summary = getattr(import_module(f".{module}", __package__), handler)(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.stdout.write(json.dumps(
            {"schema_version": SCHEMA_VERSION, "command": args.command,
             "ok": False, "error": str(exc)}, sort_keys=True, indent=1) + "\n")
        return 2
    except InvalidAlgebraError as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.stdout.write(json.dumps(
            {"schema_version": SCHEMA_VERSION, "command": args.command, **exc.names,
             "ok": False, "error": exc.error, "axiom": exc.axiom,
             "witness": list(exc.witness)},
            sort_keys=True, indent=1) + "\n")
        return 1
    report = {"schema_version": SCHEMA_VERSION, "command": args.command, **body}
    if args.seed is not None:
        report["seed"] = args.seed
    text = json.dumps(report, sort_keys=True, indent=1) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stderr.write(summary + "\n")
    return 0 if report["ok"] else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    # run as python -m hopfdiff.cli: hand over to the package's own copy of
    # this module, whose InputError the command modules raise
    from hopfdiff.cli import main as package_main

    package_main()
