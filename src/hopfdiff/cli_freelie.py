"""The command that drives the free-Lie layers: ``free-lie``.

``lyndon-dims`` needs only the carriers of :mod:`hopfdiff.truncated`;
the other tasks import :mod:`hopfdiff.freelie` when they run.
"""

from __future__ import annotations

from .cli import InputError, _PARSE_ERRORS, _load_json
from .exactlin import rat
from .hopf import OutOfBudgetError, zero_vec
from .truncated import DEFAULT_BUDGET, BudgetCapError, TruncatedTensor, lyndon_dims


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
    try:
        return _free_lie_task(args)
    except BudgetCapError as exc:
        raise InputError(str(exc))


def _free_lie_task(args):
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
        from .freelie import diffop_from_hom

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
        from .freelie import adjoint_derivation_action, mm_instance_check

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
        from .freelie import ckmm_truncated_instance

        rep = ckmm_truncated_instance(budget)
        report = {"task": task, **{k: v for k, v in rep.items() if not k.startswith("_")}}
        return report, f"free-lie ckmm-mixed: {'pass' if rep['ok'] else 'FAIL'}"
    raise InputError(f"unknown free-lie task {task!r}")
