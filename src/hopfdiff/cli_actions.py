"""The commands that drive :mod:`hopfdiff.actions`:
``check-crossed-hom``, ``smash`` and ``graph``."""

from __future__ import annotations

from .cli import InputError, _input_error, _load_action, _load_operator, _require_algebra
from .hopf import LinMap, grouplikes


def _crossed_hom_candidate(action, op) -> LinMap:
    """The operator's matrix as a map from the acting algebra to the target."""
    _require_algebra(op.domain, action.acting, "operator domain does not match the acting algebra")
    try:
        pi = LinMap(action.acting, action.target, op.matrix)
    except ValueError as exc:
        raise InputError(str(exc))
    _require_algebra(op.codomain, action.target, "operator codomain does not match the target")
    return pi


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
    from .actions import _crossed_hom_verdict, _require_action, graph_of

    action = _load_action(args.action)
    pi = _crossed_hom_candidate(action, _load_operator(args.operator))
    try:
        # a map that is not a coalgebra map is refused before the action's
        # axioms are checked; the verdict is the one check of the map
        direct = _crossed_hom_verdict(pi, action)
        result = graph_of(pi, action)
        _require_action(action, False)
    except ValueError as exc:
        raise _input_error(exc)
    agree = result.closed == direct
    report = {"ok": agree, "graph_dimension": len(result.basis),
              "closed_under_multiplication": result.closed,
              "crossed_hom_verdict": direct, "verdicts_agree": agree}
    return report, f"graph: closed={result.closed}, agrees with direct check: {agree}"
