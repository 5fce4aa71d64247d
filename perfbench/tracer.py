"""Call spans around the public functions of each hopfdiff layer.

The wrappers are installed from outside the program: every module-level
name, dict value and class attribute in the package that refers to a
wrapped function is replaced, so names imported with ``from .x import f``
are traced as well as ``x.f``.  ``uninstall`` restores the originals.

Spans live in flat integer arrays while the run lasts; ``write_jsonl``
writes them out once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

PACKAGE = "hopfdiff"
LAYERS = ["exactlin", "hopf", "groups", "lie", "freelie", "actions",
          "diffops", "solver", "catalog", "formats", "cli"]

# Element-level helpers run hundreds of thousands of times per workload
# and sit below any layer boundary; wrapping them would trace the tracer.
SKIP = {
    "exactlin": {"rat", "rat_str"},
    "hopf": {"zero_vec", "basis_vec", "vec_add", "vec_sub", "vec_scale",
             "vec_is_zero", "vec_str"},
    "solver": {"p_const", "p_var", "p_add", "p_scale", "p_sub", "p_mul",
               "p_degree", "p_eval_const", "p_subst", "p_canonical"},
}

# Methods that carry a layer's hot work; (module, class, method) -> span.
METHODS = [
    ("exactlin", "Mat", "mul", "exactlin.Mat.mul"),
    ("exactlin", "Mat", "apply", "exactlin.Mat.apply"),
    ("hopf", "CarrierOps", "mult_vec", "hopf.mult_vec"),
    ("hopf", "FinDimHopf", "mult_vec", "hopf.mult_vec"),
    ("freelie", "DerivationAction", "act_basis", "freelie.act_basis"),
]

# Verifiers that build their report from scratch; summing only these
# counts every checked pair once, however the reports are nested.
DIFFOPS_REPORTS = {"diffops.coalgebra_hom_report", "diffops.diff_identity_report",
                   "diffops.rota_baxter_identity_report"}
FREELIE_REPORTS = {"freelie.verify_trunc_diffop", "freelie.verify_crossed_hom_trunc",
                   "freelie.extended_action_bialgebra_check"}


class Tracer:
    def __init__(self):
        self.modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                        for layer in LAYERS}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._restore: list = []
        self.reset()

    def reset(self):
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self.counts = {"diffops.pairs_checked": 0, "freelie.pairs_checked": 0,
                       "freelie.pairs_skipped": 0, "solver.branches": 0,
                       "solver.operators": 0}

    # -- installation ---------------------------------------------------------

    def _targets(self) -> dict:
        """original function -> span name"""
        targets = {}
        for layer, mod in self.modules.items():
            skip = SKIP.get(layer, set())
            for name, obj in vars(mod).items():
                if (name.startswith("_") or name in skip or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                targets[obj] = f"{layer}.{name}"
        return targets

    def install(self):
        wrapped = {fn: self._wrap(fn, name) for fn, name in self._targets().items()}
        for mod in list(self._package_modules()):
            ns = vars(mod)
            for key, val in list(ns.items()):
                if inspect.isfunction(val) and val in wrapped:
                    self._set(ns, key, wrapped[val])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if inspect.isfunction(v) and v in wrapped:
                            self._set(val, k, wrapped[v])
        for layer, cls_name, meth, span in METHODS:
            cls = getattr(self.modules[layer], cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(original, span))
            self._restore.append((cls, meth, original, True))

    def uninstall(self):
        for target, key, original, is_attr in reversed(self._restore):
            if is_attr:
                setattr(target, key, original)
            else:
                target[key] = original
        self._restore.clear()

    def _set(self, mapping: dict, key, value):
        self._restore.append((mapping, key, mapping[key], False))
        mapping[key] = value

    @staticmethod
    def _package_modules():
        for name, mod in list(sys.modules.items()):
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + ".")):
                yield mod

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        clock = time.perf_counter_ns
        tracer = self
        observe = self._observer(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.span_name)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1])
            tracer.span_start.append(0)
            tracer.span_end.append(0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.span_start[idx] = start
                tracer.span_end[idx] = end
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observer(self, name: str):
        if name in DIFFOPS_REPORTS:
            def observe(rep):
                self.counts["diffops.pairs_checked"] += rep.checked
        elif name in FREELIE_REPORTS:
            def observe(rep):
                self.counts["freelie.pairs_checked"] += rep.checked
                self.counts["freelie.pairs_skipped"] += len(rep.skipped)
        elif name == "solver.classify_diffops":
            def observe(res):
                self.counts["solver.branches"] += len(res.branches)
                self.counts["solver.operators"] += len(res.operators)
        else:
            return None
        return observe

    # -- results --------------------------------------------------------------

    def write_jsonl(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.span_name)):
                fh.write(json.dumps({"id": i, "name": self.names[self.span_name[i]],
                                     "parent": self.span_parent[i],
                                     "start_ns": self.span_start[i],
                                     "end_ns": self.span_end[i]}) + "\n")

    def summary(self) -> dict:
        """Per-name calls, inclusive and self nanoseconds, plus counters.

        Inclusive time counts only a name's outermost spans, so recursion
        is not counted twice; self time is a span's duration minus that of
        its direct children.
        """
        n = len(self.span_name)
        names, parent = self.names, self.span_parent
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        calls: dict = {}
        incl: dict = {}
        self_ns: dict = {}
        root_ns = 0
        candidates = 0
        classify_id = self._name_ids.get("solver.classify_diffops")
        check_id = self._name_ids.get("diffops.check_diffop")
        # formats spans count once per outermost parse or export
        group = {nid: f"formats.{kind}" for name, nid in self._name_ids.items()
                 for kind, suffix in (("parse", "_from_dict"), ("export", "_to_dict"))
                 if name.startswith("formats.") and name.endswith(suffix)}
        for kind in ("formats.parse", "formats.export"):
            incl[kind] = 0
        for i in range(n):
            nid = self.span_name[i]
            name = names[nid]
            calls[name] = calls.get(name, 0) + 1
            layer = name.split(".", 1)[0]
            self_ns[layer] = self_ns.get(layer, 0) + dur[i] - child[i]
            p = parent[i]
            if p < 0:
                root_ns += dur[i]
            kind = group.get(nid)
            outermost = outermost_kind = True
            under_classify = False
            while p >= 0:
                pid = self.span_name[p]
                outermost = outermost and pid != nid
                outermost_kind = outermost_kind and group.get(pid) != kind
                under_classify = under_classify or pid == classify_id
                p = parent[p]
            if outermost:
                incl[name] = incl.get(name, 0) + dur[i]
            if kind is not None and outermost_kind:
                incl[kind] += dur[i]
            if nid == check_id and under_classify:
                candidates += 1
        return {"calls": calls, "incl_ns": incl, "self_ns": self_ns,
                "root_ns": root_ns, "candidates": candidates,
                "counts": dict(self.counts), "spans": n}


PER_LAYER_CALLS = [
    "exactlin.solve_affine", "exactlin.row_space_basis", "exactlin.kernel",
    "exactlin.invert", "exactlin.Mat.apply", "hopf.mult_vec",
    "hopf.sweedler_expand", "hopf.convolve", "hopf.validate_hopf",
    "groups.enumerate_endos", "diffops.check_diffop", "diffops.star",
    "freelie.act_basis", "catalog.build", "cli.run",
]
PER_LAYER_SECONDS = [
    "exactlin.solve_affine", "exactlin.row_space_basis", "exactlin.kernel",
    "exactlin.invert", "exactlin.Mat.mul", "exactlin.Mat.apply", "hopf.mult_vec",
    "hopf.sweedler_expand", "hopf.convolve", "hopf.validate_hopf",
    "groups.enumerate_endos", "diffops.check_diffop", "diffops.coalgebra_hom_report",
    "diffops.diff_identity_report", "diffops.star", "solver.classify_diffops",
    "freelie.mm_instance_check", "freelie.extend_crossed_hom_trunc",
    "freelie.extended_action_bialgebra_check", "catalog.build",
    "formats.parse", "formats.export",
]
SELF_LAYERS = ["exactlin", "hopf", "diffops", "solver", "freelie", "actions",
               "lie", "cli"]


def layer_metrics(s: dict) -> dict:
    """The benchmark's per-layer metrics (value only) from one summary."""
    out = {}
    for name in PER_LAYER_CALLS:
        out[f"{name}.calls"] = s["calls"].get(name, 0)
    for name in PER_LAYER_SECONDS:
        out[f"{name}.s"] = s["incl_ns"].get(name, 0) / 1e9
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = s["self_ns"].get(layer, 0) / 1e9
    out.update(s["counts"])
    out["solver.candidates"] = s["candidates"]
    out["solver.useful_ratio"] = (s["counts"]["solver.operators"] / s["candidates"]
                                  if s["candidates"] else 0.0)
    return out
