"""The command that drives :mod:`hopfdiff.solver`: ``classify-diffops``."""

from __future__ import annotations

from .cli import InputError, _PARSE_ERRORS, _load_json, _resolve_algebra, _resolve_plan
from .exactlin import rat, rat_str


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
