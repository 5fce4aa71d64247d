"""The commands that drive :mod:`hopfdiff.diffops`: ``check-diffop``,
``monoid-table``, ``rota-baxter``, ``extend-smash-diff`` and
``ckmm-check``.

Each handler imports the layers it runs when it runs, so a test or the
benchmark tracer that replaces a function of those layers reaches it.
"""

from __future__ import annotations

from .cli import (InputError, _input_error, _load_action, _load_operator, _require_algebra,
                  _resolve_algebra)
from .exactlin import rat_str


def _load_diffop(path: str):
    """An operator file read as a difference operator, which maps its
    algebra to itself: an explicit codomain must be that algebra, with the
    same name and content hash."""
    op = _load_operator(path)
    h, k = op.domain, op.codomain
    _require_algebra(k, h, f"operator file {path} maps {h.name} to {k.name}; a difference "
                           f"operator maps an algebra to itself")
    return op


def _checked_operator(path: str):
    """The algebra of a difference-operator file and check_diffop's
    verdict on the operator."""
    from .diffops import check_diffop

    op = _load_diffop(path)
    return op.domain, check_diffop(op.domain, op)


def cmd_check_diffop(args):
    from .diffops import DiffOp

    h, result = _checked_operator(args.operator)
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
    from .diffops import DiffOp, rota_baxter_inverse

    h, result = _checked_operator(args.operator)
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
              "inverse": [[rat_str(c) for c in row] for row in zip(*b.columns())],
              "identity_checked_pairs": rep.checked}
    return report, f"rota-baxter {h.name}: {'verified' if rep.ok else 'FAILED'}"


def cmd_extend_smash_diff(args):
    from .diffops import (DiffModuleBialgebra, check_diff_module_bialgebra,
                          extend_diff_smash)

    action = _load_action(args.action)
    d_h = _load_diffop(args.operator)
    d_k = _load_diffop(args.operator_k)
    for name, algebra, d in (("H", action.target, d_h), ("K", action.acting, d_k)):
        _require_algebra(d.domain, algebra, f"D_{name} is not an operator on {algebra.name}")
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
              "images": [[rat_str(c) for c in col] for col in ext.map.columns()]}
    return report, f"extend-smash-diff: extended to {smash.name}, verified"


def cmd_ckmm_check(args):
    from .diffops import DiffOp, ckmm_instance_check

    h, result = _checked_operator(args.operator)
    if not isinstance(result, DiffOp):
        report = {"algebra": h.name, "ok": False, "error": "not a difference operator"}
        return report, "ckmm-check: input is not a difference operator"
    try:
        rep = ckmm_instance_check(h, result)
    except ValueError as exc:
        raise InputError(str(exc))
    return {"algebra": h.name, **rep}, f"ckmm-check {h.name}: {'pass' if rep['ok'] else 'FAIL'}"
