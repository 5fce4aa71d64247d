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

from . import catalog, formats
from .exactlin import rat, rat_str
from .hopf import (
    FinDimHopf,
    LinMap,
    basis_vec,
    grouplikes,
    is_grouplike,
    primitives,
    skew_primitives,
    validate_hopf,
)

SCHEMA_VERSION = 1


class InputError(Exception):
    pass


class InvalidAlgebraError(Exception):
    """An algebra file that parses but fails a Hopf axiom (exit 1)."""

    def __init__(self, spec: str, algebra: FinDimHopf, report):
        self.algebra = algebra
        self.axiom, self.witness = report.failures()[0]
        super().__init__(f"algebra file {spec} fails the {self.axiom} axiom "
                         f"at {self.witness}")


# what the formats parsers raise on a malformed file; "1/0" raises
# ZeroDivisionError from Fraction
_PARSE_ERRORS = (ValueError, KeyError, TypeError, ZeroDivisionError)

# validate_hopf reports of the algebras the current command has read, by
# algebra_sha256; run() empties it before each command
_AXIOM_REPORTS: dict = {}


def _axiom_report(h: FinDimHopf):
    key = formats.algebra_hash(h)
    if key not in _AXIOM_REPORTS:
        _AXIOM_REPORTS[key] = validate_hopf(h)
    return _AXIOM_REPORTS[key]


def _resolve_algebra(spec: str) -> FinDimHopf:
    """A catalog name or a path to an algebra JSON file; a file algebra
    that fails a Hopf axiom raises InvalidAlgebraError."""
    if spec is None:
        raise InputError("--algebra is required for this command")
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            try:
                h = formats.algebra_from_dict(json.load(fh))
            except _PARSE_ERRORS as exc:
                raise InputError(f"bad algebra file {spec}: {exc}")
        report = _axiom_report(h)
        if not report.ok:
            raise InvalidAlgebraError(spec, h, report)
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


def _load_operator(path: str, fallback_algebra=None) -> LinMap:
    data = _load_json(path, "operator")
    try:
        return formats.operator_from_dict(data, _resolve_algebra)
    except _PARSE_ERRORS as exc:
        raise InputError(f"bad operator file {path}: {exc}")


def _load_action(path: str):
    data = _load_json(path, "action")
    try:
        return formats.action_from_dict(data, _resolve_algebra)
    except _PARSE_ERRORS as exc:
        raise InputError(f"bad action file {path}: {exc}")


def _vec_strs(h, vectors) -> list:
    return [h.element_str(v) for v in vectors]


def _emit(report: dict, args) -> None:
    if getattr(args, "seed", None) is not None:
        report = dict(report)
        report["seed"] = args.seed
    text = json.dumps(report, sort_keys=True, indent=1)
    sys.stdout.write(text + "\n")
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _summary(line: str) -> None:
    sys.stderr.write(line + "\n")


# -- command implementations ----------------------------------------------------

def cmd_validate(args) -> int:
    try:
        h = _resolve_algebra(args.algebra)
    except InvalidAlgebraError as exc:
        h = exc.algebra
    rep = _axiom_report(h)
    report = {"schema_version": SCHEMA_VERSION, "command": "validate",
              "algebra": h.name, "ok": rep.ok, "axioms": rep.as_dict()["checks"]}
    _emit(report, args)
    _summary(f"validate {h.name}: {'all axioms pass' if rep.ok else 'FAILED'}")
    return 0 if rep.ok else 1


def cmd_grouplikes(args) -> int:
    h = _resolve_algebra(args.algebra)
    res = grouplikes(h)
    report = {"schema_version": SCHEMA_VERSION, "command": "grouplikes",
              "algebra": h.name, "ok": True,
              "elements": _vec_strs(h, res.elements), "complete": res.complete}
    _emit(report, args)
    _summary(f"grouplikes {h.name}: {len(res.elements)} "
             f"({'complete' if res.complete else 'possibly incomplete'})")
    return 0


def cmd_primitives(args) -> int:
    h = _resolve_algebra(args.algebra)
    basis = primitives(h)
    report = {"schema_version": SCHEMA_VERSION, "command": "primitives",
              "algebra": h.name, "ok": True, "dimension": len(basis),
              "basis": _vec_strs(h, basis)}
    _emit(report, args)
    _summary(f"primitives {h.name}: dimension {len(basis)}")
    return 0


def cmd_skew_primitives(args) -> int:
    h = _resolve_algebra(args.algebra)
    for idx in (args.left_grouplike, args.right_grouplike):
        if idx is None or not (0 <= idx < h.dim):
            raise InputError("--left-grouplike and --right-grouplike must be basis indices")
    g = basis_vec(h.dim, args.left_grouplike)
    k = basis_vec(h.dim, args.right_grouplike)
    if not is_grouplike(h, g) or not is_grouplike(h, k):
        raise InputError("both reference basis elements must be group-like")
    basis = skew_primitives(h, g, k)
    report = {"schema_version": SCHEMA_VERSION, "command": "skew-primitives",
              "algebra": h.name, "ok": True, "dimension": len(basis),
              "left": h.label(args.left_grouplike), "right": h.label(args.right_grouplike),
              "basis": _vec_strs(h, basis)}
    _emit(report, args)
    _summary(f"skew-primitives {h.name}: dimension {len(basis)}")
    return 0


def cmd_check_diffop(args) -> int:
    from .diffops import DiffOp, check_diffop

    op = _load_operator(args.operator)
    h = op.domain
    result = check_diffop(h, op)
    if isinstance(result, DiffOp):
        report = {"schema_version": SCHEMA_VERSION, "command": "check-diffop",
                  "algebra": h.name, "ok": True, "bijective": result.bijective}
        _emit(report, args)
        _summary(f"check-diffop {h.name}: verified"
                 f"{' (bijective)' if result.bijective else ''}")
        return 0
    witness = result.witness
    report = {"schema_version": SCHEMA_VERSION, "command": "check-diffop",
              "algebra": h.name, "ok": False,
              "witness": list(witness) if witness else None,
              "witness_labels": ([h.label(i) for i in witness
                                  if isinstance(i, int)] if witness else None)}
    _emit(report, args)
    _summary(f"check-diffop {h.name}: FAILED at {witness}")
    return 1


def cmd_check_crossed_hom(args) -> int:
    from .actions import check_crossed_hom

    action = _load_action(args.action)
    op = _load_operator(args.operator)
    if op.domain is not action.acting and op.domain.name != action.acting.name:
        raise InputError("operator domain does not match the acting algebra")
    pi = LinMap(action.acting, action.target, op.matrix)
    try:
        ok = check_crossed_hom(pi, action)
    except ValueError as exc:
        raise InputError(str(exc))
    report = {"schema_version": SCHEMA_VERSION, "command": "check-crossed-hom",
              "acting": action.acting.name, "target": action.target.name, "ok": ok}
    _emit(report, args)
    _summary(f"check-crossed-hom: {'verified' if ok else 'FAILED'}")
    return 0 if ok else 1


def _resolve_plan(args):
    from .solver import SearchPlan

    if args.plan is None and args.algebra and not os.path.exists(args.algebra):
        # convenience: a catalog algebra name implies its catalog plan
        try:
            return catalog.build(f"plan:{args.algebra}")
        except KeyError:
            pass
    if args.plan is None:
        raise InputError("--plan is required (a file or a catalog plan name)")
    if os.path.exists(args.plan):
        data = _load_json(args.plan, "plan")
        try:
            return formats.plan_from_dict(data, _resolve_algebra)
        except _PARSE_ERRORS as exc:
            raise InputError(f"bad plan file: {exc}")
    try:
        obj = catalog.build(args.plan)
    except KeyError as exc:
        raise InputError(str(exc))
    if not isinstance(obj, SearchPlan):
        raise InputError(f"catalog entry {args.plan!r} is not a search plan")
    return obj


def cmd_classify_diffops(args) -> int:
    import time

    from .solver import classify_diffops, verify_against_published

    plan = _resolve_plan(args)
    if args.algebra and _resolve_algebra(args.algebra).name != plan.target.name:
        raise InputError("--algebra does not match the plan's algebra")
    started = time.perf_counter()
    result = classify_diffops(plan, bijective_only=args.bijective_only)
    elapsed = time.perf_counter() - started
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "classify-diffops",
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
    exit_code = 0 if result.certificate == "complete" else 1
    if args.expected:
        data = _load_json(args.expected, "expected")
        try:
            expected = formats.expected_from_dict(data)
        except _PARSE_ERRORS as exc:
            raise InputError(f"bad expected file {args.expected}: {exc}")
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
        if not diff.equal:
            exit_code = 1
        report["ok"] = report["ok"] and diff.equal
    _emit(report, args)
    # timing stays on stderr so the stdout report is byte-identical across runs
    _summary(f"classify-diffops {result.algebra}: {len(result.operators)} operators, "
             f"certificate {result.certificate} ({elapsed:.2f}s)")
    return exit_code


def cmd_smash(args) -> int:
    from .actions import smash_product
    from .hopf import grouplikes as _grouplikes

    action = _load_action(args.action)
    try:
        smash = smash_product(action)
    except ValueError as exc:
        raise InputError(str(exc))
    gl = _grouplikes(smash)
    report = {"schema_version": SCHEMA_VERSION, "command": "smash", "ok": True,
              "name": smash.name, "dimension": smash.dim,
              "grouplike_count": len(gl.elements),
              "algebra": formats.algebra_to_dict(smash)}
    _emit(report, args)
    _summary(f"smash {smash.name}: dimension {smash.dim}, validated")
    return 0


def cmd_graph(args) -> int:
    from .actions import check_crossed_hom, graph_of

    action = _load_action(args.action)
    op = _load_operator(args.operator)
    pi = LinMap(action.acting, action.target, op.matrix)
    try:
        result = graph_of(pi, action)
        direct = check_crossed_hom(pi, action)
    except ValueError as exc:
        raise InputError(str(exc))
    agree = result.closed == direct
    report = {"schema_version": SCHEMA_VERSION, "command": "graph",
              "ok": agree, "graph_dimension": len(result.basis),
              "closed_under_multiplication": result.closed,
              "crossed_hom_verdict": direct, "verdicts_agree": agree}
    _emit(report, args)
    _summary(f"graph: closed={result.closed}, agrees with direct check: {agree}")
    return 0 if agree else 1


def cmd_monoid_table(args) -> int:
    from .diffops import all_diffops_on_group_algebra, diff_to_endo, star

    h = _resolve_algebra(args.algebra)
    try:
        ops = all_diffops_on_group_algebra(h)
    except ValueError as exc:
        raise InputError(str(exc))
    table = []
    associative = True
    for i, a in enumerate(ops):
        row = []
        for j, b in enumerate(ops):
            prod = star(h, a.map, b.map)
            match = next((k for k, c in enumerate(ops)
                          if c.map.matrix == prod.map.matrix), None)
            if match is None:
                raise InputError("star product left the enumerated set")
            row.append(match)
        table.append(row)
    for i in range(len(ops)):
        for j in range(len(ops)):
            for k in range(len(ops)):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    associative = False
    endos = [diff_to_endo(h, op.map) for op in ops]
    transport_ok = True
    for i in range(len(ops)):
        for j in range(len(ops)):
            if endos[i].compose(endos[j]).matrix != endos[table[i][j]].matrix:
                transport_ok = False
    ok = associative and transport_ok
    report = {"schema_version": SCHEMA_VERSION, "command": "monoid-table",
              "algebra": h.name, "ok": ok, "size": len(ops),
              "table": table, "associative": associative,
              "transport_is_monoid_map": transport_ok}
    _emit(report, args)
    _summary(f"monoid-table {h.name}: {len(ops)} operators, "
             f"{'associative' if associative else 'NOT associative'}")
    return 0 if ok else 1


def cmd_rota_baxter(args) -> int:
    from .diffops import DiffOp, check_diffop, rota_baxter_inverse

    op = _load_operator(args.operator)
    h = op.domain
    result = check_diffop(h, op)
    if not isinstance(result, DiffOp):
        report = {"schema_version": SCHEMA_VERSION, "command": "rota-baxter",
                  "algebra": h.name, "ok": False,
                  "error": "not a difference operator",
                  "witness": list(result.witness) if result.witness else None}
        _emit(report, args)
        _summary("rota-baxter: input is not a difference operator")
        return 1
    try:
        b, rep = rota_baxter_inverse(h, result)
    except ValueError as exc:
        raise InputError(str(exc))
    report = {"schema_version": SCHEMA_VERSION, "command": "rota-baxter",
              "algebra": h.name, "ok": rep.ok,
              "inverse": [[rat_str(b.matrix[(r, c)]) for c in range(h.dim)]
                          for r in range(h.dim)],
              "identity_checked_pairs": rep.checked}
    _emit(report, args)
    _summary(f"rota-baxter {h.name}: {'verified' if rep.ok else 'FAILED'}")
    return 0 if rep.ok else 1


def cmd_extend_smash_diff(args) -> int:
    from .diffops import (DiffModuleBialgebra, check_diff_module_bialgebra,
                          extend_diff_smash)

    action = _load_action(args.action)
    d_h = _load_operator(args.operator)
    d_k = _load_operator(args.operator_k)
    try:
        result = check_diff_module_bialgebra(action.target, d_h, action.acting,
                                             d_k, action)
    except ValueError as exc:
        raise InputError(str(exc))
    if not isinstance(result, DiffModuleBialgebra):
        report = {"schema_version": SCHEMA_VERSION, "command": "extend-smash-diff",
                  "ok": False, "compatible": False,
                  "witness": list(result.witness) if result.witness else None}
        _emit(report, args)
        _summary(f"extend-smash-diff: incompatible pair, witness {result.witness}")
        return 1
    smash, ext = extend_diff_smash(result)
    report = {"schema_version": SCHEMA_VERSION, "command": "extend-smash-diff",
              "ok": True, "compatible": True, "smash": smash.name,
              "bijective": ext.bijective,
              "images": [[rat_str(c) for c in ext.map.matrix.col(j)]
                         for j in range(smash.dim)]}
    _emit(report, args)
    _summary(f"extend-smash-diff: extended to {smash.name}, verified")
    return 0


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


def cmd_free_lie(args) -> int:
    from .freelie import BudgetCapError

    try:
        return _free_lie_task(args)
    except BudgetCapError as exc:
        raise InputError(str(exc))


def _free_lie_task(args) -> int:
    from .freelie import (DEFAULT_BUDGET, TruncatedTensor,
                          adjoint_derivation_action, ckmm_truncated_instance,
                          diffop_from_hom, lyndon_dims, mm_instance_check)
    from .hopf import zero_vec

    budget = DEFAULT_BUDGET if args.budget is None else args.budget
    generators = 2 if args.generators is None else args.generators
    task = args.task
    if task == "lyndon-dims":
        dims = lyndon_dims(generators, budget)
        report = {"schema_version": SCHEMA_VERSION, "command": "free-lie",
                  "task": task, "generators": generators, "budget": budget,
                  "ok": dims["agree"],
                  "lyndon": dims["lyndon"], "necklace": dims["necklace"],
                  "primitive_dims": dims["primitive_dims"]}
        _emit(report, args)
        _summary(f"free-lie lyndon-dims: {dims['lyndon']} "
                 f"({'agree' if dims['agree'] else 'MISMATCH'})")
        return 0 if dims["agree"] else 1
    if task == "diffop-from-hom":
        tv = TruncatedTensor(generators, budget)
        phi = [zero_vec(tv.dim) for _ in range(generators)]
        if args.phi:
            data = _load_json(args.phi, "phi")
            images = data.get("images")
            if images is None or len(images) != generators:
                raise InputError("phi file must map every letter")
            for g, table in enumerate(images):
                vec = zero_vec(tv.dim)
                for word, coeff in table.items():
                    vec[tv.index[_parse_word(word, generators)]] += rat(coeff)
                phi[g] = vec
        try:
            rep = diffop_from_hom(tv, phi)
        except ValueError as exc:
            raise InputError(str(exc))
        report = {"schema_version": SCHEMA_VERSION, "command": "free-lie",
                  "task": task, "generators": generators, "budget": budget,
                  "ok": rep.ok, "pairs_checked": rep.checked,
                  "skipped": len(rep.skipped),
                  "diffop_images": {
                      tv.label(i): (None if col is None else tv.element_str(col))
                      for i, col in enumerate(rep.details["D"])}}
        _emit(report, args)
        _summary(f"free-lie diffop-from-hom: {'verified' if rep.ok else 'FAILED'} "
                 f"on {rep.checked} in-budget pairs")
        return 0 if rep.ok else 1
    if task == "mm-check":
        tv = TruncatedTensor(generators, budget)
        action = adjoint_derivation_action(tv)
        if args.phi:
            data = _load_json(args.phi, "phi")
            images = data.get("images")
            pi = []
            for table in images:
                vec = zero_vec(tv.dim)
                for word, coeff in table.items():
                    vec[tv.index[_parse_word(word, generators)]] += rat(coeff)
                pi.append(vec)
        else:
            pi = [[-c for c in tv.generator_vec(g)] for g in range(generators)]
        rep = mm_instance_check(tv, action, pi)
        report = {"schema_version": SCHEMA_VERSION, "command": "free-lie",
                  "task": task, "generators": generators, "budget": budget,
                  "ok": rep.ok, "pairs_checked": rep.checked,
                  "skipped": len(rep.skipped),
                  "uniqueness": rep.details["uniqueness"]["unique"]}
        _emit(report, args)
        _summary(f"free-lie mm-check: {'pass' if rep.ok else 'FAIL'}")
        return 0 if rep.ok else 1
    if task == "ckmm-mixed":
        rep = ckmm_truncated_instance(budget)
        rep_out = {k: v for k, v in rep.items() if not k.startswith("_")}
        report = {"schema_version": SCHEMA_VERSION, "command": "free-lie",
                  "task": task, "budget": budget, "ok": rep["ok"], **rep_out}
        _emit(report, args)
        _summary(f"free-lie ckmm-mixed: {'pass' if rep['ok'] else 'FAIL'}")
        return 0 if rep["ok"] else 1
    raise InputError(f"unknown free-lie task {task!r}")


def cmd_ckmm_check(args) -> int:
    from .diffops import DiffOp, check_diffop, ckmm_instance_check

    op = _load_operator(args.operator)
    h = op.domain
    result = check_diffop(h, op)
    if not isinstance(result, DiffOp):
        report = {"schema_version": SCHEMA_VERSION, "command": "ckmm-check",
                  "algebra": h.name, "ok": False,
                  "error": "not a difference operator"}
        _emit(report, args)
        _summary("ckmm-check: input is not a difference operator")
        return 1
    try:
        rep = ckmm_instance_check(h, result)
    except ValueError as exc:
        raise InputError(str(exc))
    report = {"schema_version": SCHEMA_VERSION, "command": "ckmm-check",
              "algebra": h.name, **rep}
    _emit(report, args)
    _summary(f"ckmm-check {h.name}: {'pass' if rep['ok'] else 'FAIL'}")
    return 0 if rep["ok"] else 1


def cmd_catalog(args) -> int:
    from .actions import ActionData
    from .groups import FinGroup as _FinGroup
    from .solver import SearchPlan

    if args.name is None:
        report = {"schema_version": SCHEMA_VERSION, "command": "catalog",
                  "ok": True, "entries": catalog.names()}
        _emit(report, args)
        _summary(f"catalog: {len(catalog.names())} entries")
        return 0
    try:
        obj = catalog.build(args.name)
    except KeyError as exc:
        raise InputError(str(exc))
    if isinstance(obj, FinDimHopf):
        payload = formats.algebra_to_dict(obj)
        kind = "algebra"
    elif isinstance(obj, _FinGroup):
        payload = formats.group_to_dict(obj)
        kind = "group"
    elif isinstance(obj, ActionData):
        payload = formats.action_to_dict(obj)
        kind = "action"
    elif isinstance(obj, SearchPlan):
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
    report = {"schema_version": SCHEMA_VERSION, "command": "catalog", "ok": True,
              "name": args.name, "kind": kind, "payload": payload}
    _emit(report, args)
    _summary(f"catalog {args.name}: exported ({kind})")
    return 0


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
        return _HANDLERS[args.command](args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.stdout.write(json.dumps(
            {"schema_version": SCHEMA_VERSION, "command": args.command,
             "ok": False, "error": str(exc)}, sort_keys=True, indent=1) + "\n")
        return 2
    except InvalidAlgebraError as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.stdout.write(json.dumps(
            {"schema_version": SCHEMA_VERSION, "command": args.command,
             "algebra": exc.algebra.name, "ok": False, "error": "not a Hopf algebra",
             "axiom": exc.axiom, "witness": list(exc.witness)},
            sort_keys=True, indent=1) + "\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
