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

from . import catalog
from .exactlin import rat, rat_str
from .hopf import (
    FinDimHopf,
    InvalidAlgebraError,
    LinMap,
    OutOfBudgetError,
    axiom_report,
    basis_vec,
    grouplikes,
    is_grouplike,
    primitives,
    skew_primitives,
    zero_vec,
)

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

# validate_hopf reports of the algebra files the current command has read,
# by algebra_sha256, so two parses of one file are checked once; run()
# empties it before each command.  A catalog algebra is checked when it is
# built, and axiom_report memoizes that report on the algebra.
_AXIOM_REPORTS: dict = {}


def _resolve_algebra(spec: str) -> FinDimHopf:
    """A catalog name or a path to an algebra JSON file; a file algebra
    that fails a Hopf axiom raises InvalidAlgebraError."""
    if spec is None:
        raise InputError("--algebra is required for this command")
    if os.path.exists(spec):
        from . import formats

        with open(spec, "r", encoding="utf-8") as fh:
            try:
                h = formats.algebra_from_dict(json.load(fh))
            except _PARSE_ERRORS as exc:
                raise InputError(f"bad algebra file {spec}: {exc}")
        key = formats.algebra_hash(h)
        if key not in _AXIOM_REPORTS:
            _AXIOM_REPORTS[key] = axiom_report(h)
        report = _AXIOM_REPORTS[key]
        if not report.ok:
            raise InvalidAlgebraError(f"algebra file {spec}", "not a Hopf algebra",
                                      {"algebra": h.name}, report)
        return h
    try:
        obj = catalog.build(spec)
    except KeyError as exc:
        raise InputError(str(exc))
    if not isinstance(obj, FinDimHopf):
        raise InputError(f"catalog entry {spec!r} is not a Hopf algebra")
    return obj


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


def _load_action(path: str):
    from . import formats

    data = _load_json(path, "action")
    try:
        return formats.action_from_dict(data, _resolve_algebra)
    except _PARSE_ERRORS as exc:
        raise _input_error(exc, f"bad action file {path}: ")


def _vec_strs(h, vectors) -> list:
    return [h.element_str(v) for v in vectors]


# -- command implementations ----------------------------------------------------
#
# Each handler returns its report and a one-line summary; run() puts the
# schema version, the command and any --seed in front, emits the report and
# exits 0 when it is ok and 1 when it is not.

def cmd_validate(args):
    try:
        h = _resolve_algebra(args.algebra)
        name, rep = h.name, axiom_report(h)
    except InvalidAlgebraError as exc:
        name, rep = exc.names["algebra"], exc.report
    report = {"algebra": name, "ok": rep.ok, "axioms": rep.as_dict()["checks"]}
    return report, f"validate {name}: {'all axioms pass' if rep.ok else 'FAILED'}"


def cmd_grouplikes(args):
    h = _resolve_algebra(args.algebra)
    try:
        res = grouplikes(h)
    except ValueError as exc:
        raise InputError(str(exc))
    report = {"algebra": h.name, "ok": True,
              "elements": _vec_strs(h, res.elements), "complete": res.complete}
    return report, (f"grouplikes {h.name}: {len(res.elements)} "
                    f"({'complete' if res.complete else 'possibly incomplete'})")


def cmd_primitives(args):
    h = _resolve_algebra(args.algebra)
    basis = primitives(h)
    report = {"algebra": h.name, "ok": True, "dimension": len(basis),
              "basis": _vec_strs(h, basis)}
    return report, f"primitives {h.name}: dimension {len(basis)}"


def cmd_skew_primitives(args):
    h = _resolve_algebra(args.algebra)
    for idx in (args.left_grouplike, args.right_grouplike):
        if idx is None or not (0 <= idx < h.dim):
            raise InputError("--left-grouplike and --right-grouplike must be basis indices")
    g = basis_vec(h.dim, args.left_grouplike)
    k = basis_vec(h.dim, args.right_grouplike)
    if not is_grouplike(h, g) or not is_grouplike(h, k):
        raise InputError("both reference basis elements must be group-like")
    basis = skew_primitives(h, g, k)
    report = {"algebra": h.name, "ok": True, "dimension": len(basis),
              "left": h.label(args.left_grouplike), "right": h.label(args.right_grouplike),
              "basis": _vec_strs(h, basis)}
    return report, f"skew-primitives {h.name}: dimension {len(basis)}"


def cmd_check_diffop(args):
    from .diffops import DiffOp, check_diffop

    op = _load_operator(args.operator)
    h = op.domain
    result = check_diffop(h, op)
    if isinstance(result, DiffOp):
        report = {"algebra": h.name, "ok": True, "bijective": result.bijective}
        return report, (f"check-diffop {h.name}: verified"
                        f"{' (bijective)' if result.bijective else ''}")
    witness = result.witness
    report = {"algebra": h.name, "ok": False,
              "witness": list(witness) if witness else None,
              "witness_labels": ([h.label(i) for i in witness
                                  if isinstance(i, int)] if witness else None)}
    return report, f"check-diffop {h.name}: FAILED at {witness}"


def _crossed_hom_candidate(action, op) -> LinMap:
    """The operator's matrix as a map from the acting algebra to the target."""
    if op.domain is not action.acting and op.domain.name != action.acting.name:
        raise InputError("operator domain does not match the acting algebra")
    try:
        return LinMap(action.acting, action.target, op.matrix)
    except ValueError as exc:
        raise InputError(str(exc))


def cmd_check_crossed_hom(args):
    from .actions import check_crossed_hom

    action = _load_action(args.action)
    pi = _crossed_hom_candidate(action, _load_operator(args.operator))
    try:
        ok = check_crossed_hom(pi, action)
    except ValueError as exc:
        raise _input_error(exc)
    report = {"acting": action.acting.name, "target": action.target.name, "ok": ok}
    return report, f"check-crossed-hom: {'verified' if ok else 'FAILED'}"


def _resolve_plan(args):
    """The plan of --plan, or with no --plan the plan that the coset rule
    derives for --algebra."""
    from .solver import SearchPlan, derive_plan

    if args.plan is None:
        if args.algebra is None:
            raise InputError("--plan or --algebra is required (a plan file or catalog "
                             "plan name, or an algebra to derive the plan of)")
        try:
            return derive_plan(_resolve_algebra(args.algebra))
        except ValueError as exc:
            raise InputError(f"no search plan for {args.algebra}: {exc}")
    if os.path.exists(args.plan):
        from . import formats

        data = _load_json(args.plan, "plan")
        try:
            return formats.plan_from_dict(data, _resolve_algebra).validate()
        except _PARSE_ERRORS as exc:
            raise _input_error(exc, "bad plan file: ")
    try:
        obj = catalog.build(args.plan)
    except KeyError as exc:
        raise InputError(str(exc))
    if not isinstance(obj, SearchPlan):
        raise InputError(f"catalog entry {args.plan!r} is not a search plan")
    return obj


def cmd_classify_diffops(args):
    import time

    from .solver import classify_diffops, verify_against_published

    plan = _resolve_plan(args)
    if args.plan and args.algebra and _resolve_algebra(args.algebra).name != plan.target.name:
        raise InputError("--algebra does not match the plan's algebra")
    if args.expected:
        from . import formats

        data = _load_json(args.expected, "expected")
        try:
            expected = formats.expected_from_dict(data)
        except _PARSE_ERRORS as exc:
            raise InputError(f"bad expected file {args.expected}: {exc}")
        n = plan.target.dim
        if any({len(t["images"]), *map(len, t["images"])} != {n} for t in expected):
            raise InputError(f"bad expected file {args.expected}: its tables are not "
                             f"{n} x {n}, the dimension of {plan.target.name}")
    started = time.perf_counter()
    result = classify_diffops(plan, bijective_only=args.bijective_only)
    elapsed = time.perf_counter() - started
    report = {
        "algebra": result.algebra,
        "bijective_only": result.bijective_only,
        "certificate": result.certificate,
        "operator_count": len(result.operators),
        "operators": [
            {"bijective": op.bijective,
             "images": [[rat_str(c) for c in op.map.matrix.col(j)]
                        for j in range(op.map.matrix.cols)]}
            for op in result.operators
        ],
        "branches": [
            {"index": br.index, "group_images": br.group_images, "status": br.status,
             "operator_count": len(br.operators),
             "quadratic_candidates": (None if br.quadratic_candidates is None else
                                      [[rat_str(rat(c)) for c in p]
                                       for p in br.quadratic_candidates]),
             "residual": br.residual}
            for br in result.branches
        ],
        "ok": result.certificate == "complete",
    }
    if args.expected:
        diff = verify_against_published(result, expected)
        report["expected_comparison"] = {
            "equal": diff.equal,
            "matched": diff.matched,
            "missing": diff.missing,
            "extra_count": len(diff.extra),
            "entry_mismatches": [
                {"name": name, "positions": [list(p) for p in positions]}
                for name, positions in diff.entry_mismatches
            ],
        }
        report["ok"] = report["ok"] and diff.equal
    # timing stays on stderr so the stdout report is byte-identical across runs
    return report, (f"classify-diffops {result.algebra}: {len(result.operators)} operators, "
                    f"certificate {result.certificate} ({elapsed:.2f}s)")


def cmd_smash(args):
    from . import formats
    from .actions import smash_product

    action = _load_action(args.action)
    try:
        smash = smash_product(action)
    except ValueError as exc:
        raise _input_error(exc)
    gl = grouplikes(smash)
    report = {"ok": True, "name": smash.name, "dimension": smash.dim,
              "grouplike_count": len(gl.elements),
              "algebra": formats.algebra_to_dict(smash)}
    return report, f"smash {smash.name}: dimension {smash.dim}, validated"


def cmd_graph(args):
    from .actions import check_crossed_hom, graph_of

    action = _load_action(args.action)
    pi = _crossed_hom_candidate(action, _load_operator(args.operator))
    try:
        result = graph_of(pi, action)
        direct = check_crossed_hom(pi, action)
    except ValueError as exc:
        raise _input_error(exc)
    agree = result.closed == direct
    report = {"ok": agree, "graph_dimension": len(result.basis),
              "closed_under_multiplication": result.closed,
              "crossed_hom_verdict": direct, "verdicts_agree": agree}
    return report, f"graph: closed={result.closed}, agrees with direct check: {agree}"


def cmd_monoid_table(args):
    from .diffops import all_diffops_on_group_algebra, monoid_table

    h = _resolve_algebra(args.algebra)
    try:
        ops = all_diffops_on_group_algebra(h)
    except ValueError as exc:
        raise InputError(str(exc))
    try:
        table, associative, transport_ok = monoid_table(h, ops)
    except LookupError as exc:
        raise InputError(str(exc))
    report = {"algebra": h.name, "ok": associative and transport_ok, "size": len(ops),
              "table": table, "associative": associative,
              "transport_is_monoid_map": transport_ok}
    return report, (f"monoid-table {h.name}: {len(ops)} operators, "
                    f"{'associative' if associative else 'NOT associative'}")


def cmd_rota_baxter(args):
    from .diffops import DiffOp, check_diffop, rota_baxter_inverse

    op = _load_operator(args.operator)
    h = op.domain
    result = check_diffop(h, op)
    if not isinstance(result, DiffOp):
        report = {"algebra": h.name, "ok": False,
                  "error": "not a difference operator",
                  "witness": list(result.witness) if result.witness else None}
        return report, "rota-baxter: input is not a difference operator"
    try:
        b, rep = rota_baxter_inverse(h, result)
    except ValueError as exc:
        raise InputError(str(exc))
    report = {"algebra": h.name, "ok": rep.ok,
              "inverse": [[rat_str(b.matrix[(r, c)]) for c in range(h.dim)]
                          for r in range(h.dim)],
              "identity_checked_pairs": rep.checked}
    return report, f"rota-baxter {h.name}: {'verified' if rep.ok else 'FAILED'}"


def cmd_extend_smash_diff(args):
    from .diffops import (DiffModuleBialgebra, check_diff_module_bialgebra,
                          extend_diff_smash)

    action = _load_action(args.action)
    d_h = _load_operator(args.operator)
    d_k = _load_operator(args.operator_k)
    try:
        result = check_diff_module_bialgebra(action, d_h, d_k)
    except ValueError as exc:
        raise _input_error(exc)
    if not isinstance(result, DiffModuleBialgebra):
        report = {"ok": False, "compatible": False,
                  "witness": list(result.witness) if result.witness else None}
        return report, f"extend-smash-diff: incompatible pair, witness {result.witness}"
    smash, ext = extend_diff_smash(result)
    report = {"ok": True, "compatible": True, "smash": smash.name,
              "bijective": ext.bijective,
              "images": [[rat_str(c) for c in ext.map.matrix.col(j)]
                         for j in range(smash.dim)]}
    return report, f"extend-smash-diff: extended to {smash.name}, verified"


def _parse_word(word: str, generators: int):
    letters = "abc"[:generators]
    out = []
    for ch in word:
        if ch == "1":
            continue
        if ch not in letters:
            raise InputError(f"bad letter {ch!r} in word {word!r}")
        out.append(letters.index(ch))
    return tuple(out)


def _load_phi(path: str, tv) -> list:
    """The letter images of a phi file, {"images": [{word: coefficient},
    ...]} with one table per generator, as vectors of the carrier tv."""
    data = _load_json(path, "phi")
    images = data.get("images") if isinstance(data, dict) else None
    if not isinstance(images, list) or len(images) != tv.generators:
        raise InputError("phi file must map every letter")
    if set(data) != {"images"}:
        raise InputError(f"unknown keys in phi file: {sorted(set(data) - {'images'})}")
    out = []
    for table in images:
        if not isinstance(table, dict):
            raise InputError("phi file images must map words to coefficients")
        vec = zero_vec(tv.dim)
        for word, coeff in table.items():
            i = tv.index.get(_parse_word(word, tv.generators))
            if i is None:
                raise InputError(f"word {word!r} in phi file exceeds budget {tv.budget}")
            try:
                vec[i] += rat(coeff)
            except _PARSE_ERRORS as exc:
                raise InputError(f"bad coefficient in phi file {path}: {exc}")
        out.append(vec)
    return out


def cmd_free_lie(args):
    from .freelie import BudgetCapError

    try:
        return _free_lie_task(args)
    except BudgetCapError as exc:
        raise InputError(str(exc))


def _free_lie_task(args):
    from .freelie import (DEFAULT_BUDGET, TruncatedTensor,
                          adjoint_derivation_action, ckmm_truncated_instance,
                          diffop_from_hom, lyndon_dims, mm_instance_check)

    budget = DEFAULT_BUDGET if args.budget is None else args.budget
    generators = 2 if args.generators is None else args.generators
    task = args.task
    if task == "lyndon-dims":
        dims = lyndon_dims(generators, budget)
        report = {"task": task, "generators": generators, "budget": budget,
                  "ok": dims["agree"],
                  "lyndon": dims["lyndon"], "necklace": dims["necklace"],
                  "primitive_dims": dims["primitive_dims"]}
        return report, (f"free-lie lyndon-dims: {dims['lyndon']} "
                        f"({'agree' if dims['agree'] else 'MISMATCH'})")
    if task == "diffop-from-hom":
        tv = TruncatedTensor(generators, budget)
        if args.phi:
            phi = _load_phi(args.phi, tv)
        else:
            phi = [zero_vec(tv.dim) for _ in range(generators)]
        try:
            rep = diffop_from_hom(tv, phi)
        except ValueError as exc:
            raise InputError(str(exc))
        report = {"task": task, "generators": generators, "budget": budget,
                  "ok": rep.ok, "pairs_checked": rep.checked,
                  "skipped": len(rep.skipped),
                  "diffop_images": {
                      tv.label(i): (None if col is None else tv.element_str(col))
                      for i, col in enumerate(rep.details["D"])}}
        return report, (f"free-lie diffop-from-hom: {'verified' if rep.ok else 'FAILED'} "
                        f"on {rep.checked} in-budget pairs")
    if task == "mm-check":
        tv = TruncatedTensor(generators, budget)
        try:
            action = adjoint_derivation_action(tv)
        except OutOfBudgetError as exc:
            raise InputError(f"mm-check needs budget 2 or more for the brackets of "
                             f"the adjoint action: {exc}")
        if args.phi:
            pi = _load_phi(args.phi, tv)
        else:
            pi = [[-c for c in tv.generator_vec(g)] for g in range(generators)]
        rep = mm_instance_check(action, pi)
        report = {"task": task, "generators": generators, "budget": budget,
                  "ok": rep.ok, "pairs_checked": rep.checked,
                  "skipped": len(rep.skipped),
                  "uniqueness": rep.details["uniqueness"]["unique"]}
        return report, f"free-lie mm-check: {'pass' if rep.ok else 'FAIL'}"
    if task == "ckmm-mixed":
        rep = ckmm_truncated_instance(budget)
        report = {"task": task, **{k: v for k, v in rep.items() if not k.startswith("_")}}
        return report, f"free-lie ckmm-mixed: {'pass' if rep['ok'] else 'FAIL'}"
    raise InputError(f"unknown free-lie task {task!r}")


def cmd_ckmm_check(args):
    from .diffops import DiffOp, check_diffop, ckmm_instance_check

    op = _load_operator(args.operator)
    h = op.domain
    result = check_diffop(h, op)
    if not isinstance(result, DiffOp):
        report = {"algebra": h.name, "ok": False, "error": "not a difference operator"}
        return report, "ckmm-check: input is not a difference operator"
    try:
        rep = ckmm_instance_check(h, result)
    except ValueError as exc:
        raise InputError(str(exc))
    return {"algebra": h.name, **rep}, f"ckmm-check {h.name}: {'pass' if rep['ok'] else 'FAIL'}"


def _loaded_class(module: str, name: str):
    """The class, or () when its module is not loaded: an object cannot be
    an instance of a class whose module was never imported, so an export
    dispatches on it without importing the module."""
    mod = sys.modules.get(f"{__package__}.{module}")
    return () if mod is None else getattr(mod, name)


def cmd_catalog(args):
    if args.name is None:
        report = {"ok": True, "entries": catalog.names()}
        return report, f"catalog: {len(catalog.names())} entries"
    try:
        obj = catalog.build(args.name)
    except KeyError as exc:
        raise InputError(str(exc))
    from . import formats
    from .groups import FinGroup

    if isinstance(obj, FinDimHopf):
        payload = formats.algebra_to_dict(obj)
        kind = "algebra"
    elif isinstance(obj, FinGroup):
        payload = formats.group_to_dict(obj)
        kind = "group"
    elif isinstance(obj, _loaded_class("actions", "ActionData")):
        payload = formats.action_to_dict(obj)
        kind = "action"
    elif isinstance(obj, _loaded_class("solver", "SearchPlan")):
        payload = formats.plan_to_dict(obj)
        kind = "plan"
    elif isinstance(obj, LinMap):
        payload = formats.operator_to_dict(obj)
        kind = "operator"
    elif isinstance(obj, list):
        payload = formats.expected_to_dict(obj)
        kind = "expected-tables"
    else:
        raise InputError(f"cannot export catalog entry {args.name!r}")
    report = {"ok": True, "name": args.name, "kind": kind, "payload": payload}
    return report, f"catalog {args.name}: exported ({kind})"


# -- argument parsing ------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfdiff",
        description="Exact verification and classification of crossed "
                    "homomorphisms and difference operators on Hopf algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, algebra=False, plan=False, action=False, operator=False,
               operator_k=False, expected=False):
        if algebra:
            p.add_argument("--algebra", help="catalog name or algebra JSON file")
        if plan:
            p.add_argument("--plan", help="catalog plan name or plan JSON file")
        if action:
            p.add_argument("--action", help="action JSON file")
        if operator:
            p.add_argument("--operator", help="operator JSON file")
        if operator_k:
            p.add_argument("--operator-k", dest="operator_k",
                           help="operator JSON file for the acting algebra")
        if expected:
            p.add_argument("--expected", help="expected-tables JSON file")
        p.add_argument("--seed", type=int, default=None,
                       help="recorded in the report for reproducibility")
        p.add_argument("--out", help="also write the JSON report to this path")
        return p

    common(sub.add_parser("validate", help="check all Hopf axioms"), algebra=True)
    common(sub.add_parser("grouplikes"), algebra=True)
    common(sub.add_parser("primitives"), algebra=True)
    p = common(sub.add_parser("skew-primitives"), algebra=True)
    p.add_argument("--left-grouplike", type=int)
    p.add_argument("--right-grouplike", type=int)
    common(sub.add_parser("check-diffop"), operator=True)
    common(sub.add_parser("check-crossed-hom"), action=True, operator=True)
    p = common(sub.add_parser("classify-diffops"), algebra=True, plan=True,
               expected=True)
    p.add_argument("--bijective-only", action="store_true")
    common(sub.add_parser("smash"), action=True)
    common(sub.add_parser("graph"), action=True, operator=True)
    common(sub.add_parser("monoid-table"), algebra=True)
    common(sub.add_parser("rota-baxter"), operator=True)
    common(sub.add_parser("extend-smash-diff"), action=True, operator=True,
           operator_k=True)
    p = common(sub.add_parser("free-lie"))
    p.add_argument("task", choices=["lyndon-dims", "diffop-from-hom", "mm-check",
                                    "ckmm-mixed"])
    p.add_argument("--generators", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--phi", help="letter images as JSON word-coefficient tables")
    common(sub.add_parser("ckmm-check"), operator=True)
    p = common(sub.add_parser("catalog"))
    p.add_argument("name", nargs="?", help="entry to export; omit to list")
    return parser


_HANDLERS = {
    "validate": cmd_validate,
    "grouplikes": cmd_grouplikes,
    "primitives": cmd_primitives,
    "skew-primitives": cmd_skew_primitives,
    "check-diffop": cmd_check_diffop,
    "check-crossed-hom": cmd_check_crossed_hom,
    "classify-diffops": cmd_classify_diffops,
    "smash": cmd_smash,
    "graph": cmd_graph,
    "monoid-table": cmd_monoid_table,
    "rota-baxter": cmd_rota_baxter,
    "extend-smash-diff": cmd_extend_smash_diff,
    "free-lie": cmd_free_lie,
    "ckmm-check": cmd_ckmm_check,
    "catalog": cmd_catalog,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on unknown flags or bad usage
        return int(exc.code) if exc.code else 0
    _AXIOM_REPORTS.clear()
    try:
        body, summary = _HANDLERS[args.command](args)
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
    main()
