"""The commands that drive :mod:`hopfdiff.hopf` and the catalog:
``validate``, ``grouplikes``, ``primitives``, ``skew-primitives`` and
``catalog``.

Like every command module, it is imported by the dispatch table of
:mod:`hopfdiff.cli` when one of its commands runs; each handler returns
its report and a one-line summary.
"""

from __future__ import annotations

import sys

from .cli import InputError, _resolve_algebra
from .hopf import (FinDimHopf, InvalidAlgebraError, LinMap, axiom_report, basis_vec,
                   grouplikes, is_grouplike, primitives, skew_primitives)


def _vec_strs(h, vectors) -> list:
    return [h.element_str(v) for v in vectors]


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


def _loaded_class(module: str, name: str):
    """The class, or () when its module is not loaded: an object cannot be
    an instance of a class whose module was never imported, so an export
    dispatches on it without importing the module."""
    mod = sys.modules.get(f"{__package__}.{module}")
    return () if mod is None else getattr(mod, name)


def cmd_catalog(args):
    from . import catalog

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
