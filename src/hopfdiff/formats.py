"""JSON file formats for algebras, groups, Lie algebras, actions,
operators, search plans and expected tables.

Every parser rejects unknown keys, and serialization is canonical
(sorted keys, fixed separators) so that identical objects produce
byte-identical files; operator files carry a content hash of the algebra
they were computed against.
"""

from __future__ import annotations

import hashlib
import json

from .exactlin import Mat, rat, rat_str
from .hopf import FinDimHopf, LinMap
from .groups import FinGroup


# the class name of an object that a catalog export writes -> (its kind, the
# name of its serializer in this module).  The serializer is looked up by
# name when it runs, so an export imports no module to learn a kind, and a
# wrapper installed on this module's names (perfbench/tracer.py) sees it.
EXPORTS = {
    "FinDimHopf": ("algebra", "algebra_to_dict"),
    "FinGroup": ("group", "group_to_dict"),
    "ActionData": ("action", "action_to_dict"),
    "SearchPlan": ("plan", "plan_to_dict"),
    "LinMap": ("operator", "operator_to_dict"),
    "list": ("expected-tables", "expected_to_dict"),
}


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _reject_unknown(data: dict, allowed: set, kind: str):
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown keys in {kind} file: {sorted(unknown)}")


def _require(data: dict, keys: set, kind: str):
    missing = keys - set(data)
    if missing:
        raise ValueError(f"missing keys in {kind} file: {sorted(missing)}")


# -- Hopf algebras -------------------------------------------------------------

def algebra_to_dict(h) -> dict:
    """A finite-dimensional Hopf algebra read through the carrier interface,
    so a FinDimHopf and a smash builder export alike: comultiplication
    triples sorted by (i, j) with zeros dropped, as FinDimHopf keeps
    them."""
    n = h.dim
    out = {
        "name": h.name,
        "basis": [h.label(i) for i in range(n)],
        "unit": [rat_str(c) for c in h.unit_vec()],
        "counit": [rat_str(h.counit_coeff(i)) for i in range(n)],
        "mult": [[[rat_str(c) for c in h.mult_basis(i, j)] for j in range(n)]
                 for i in range(n)],
        "comult": [[[i, j, rat_str(c)] for (i, j, c) in sorted(
                        (t for t in h.comult_triples(k) if t[2]), key=lambda t: t[:2])]
                   for k in range(n)],
        "antipode": [[rat_str(c) for c in row]
                     for row in zip(*(h.antipode_basis(j) for j in range(n)))],
    }
    if h.coradical_group_basis is not None:
        out["coradical_group_basis"] = list(h.coradical_group_basis)
    return out


def algebra_from_dict(data: dict) -> FinDimHopf:
    _reject_unknown(data, {"name", "basis", "unit", "counit", "mult", "comult",
                           "antipode", "coradical_group_basis"}, "algebra")
    _require(data, {"name", "basis", "unit", "counit", "mult", "comult", "antipode"},
             "algebra")
    antipode = Mat.from_rows([[rat(c) for c in row] for row in data["antipode"]])
    comult = [[(int(i), int(j), rat(c)) for (i, j, c) in triples]
              for triples in data["comult"]]
    return FinDimHopf(
        data["name"], data["basis"],
        [[[rat(c) for c in cell] for cell in row] for row in data["mult"]],
        [rat(c) for c in data["unit"]],
        comult,
        [rat(c) for c in data["counit"]],
        antipode,
        coradical_group_basis=data.get("coradical_group_basis"),
    )


def algebra_hash(h: FinDimHopf) -> str:
    return hashlib.sha256(canonical_json(algebra_to_dict(h)).encode()).hexdigest()


# -- groups and Lie algebras ---------------------------------------------------

def group_to_dict(g: FinGroup) -> dict:
    return {"name": g.name, "labels": list(g.labels),
            "table": [list(row) for row in g.table]}


def group_from_dict(data: dict) -> FinGroup:
    _reject_unknown(data, {"name", "labels", "table"}, "group")
    _require(data, {"labels", "table"}, "group")
    return FinGroup(data["labels"], data["table"], name=data.get("name", ""))


def lie_to_dict(l: "FinLie") -> dict:
    brackets = {}
    for i in range(l.dim):
        for j in range(i + 1, l.dim):
            cell = l.bracket_tensor[i][j]
            if any(cell):
                brackets[f"{i},{j}"] = [rat_str(c) for c in cell]
    return {"name": l.name, "labels": list(l.labels), "brackets": brackets}


def lie_from_dict(data: dict) -> "FinLie":
    from .lie import FinLie

    _reject_unknown(data, {"name", "labels", "brackets"}, "lie algebra")
    _require(data, {"labels", "brackets"}, "lie algebra")
    pairs = {}
    for key, vec in data["brackets"].items():
        i, j = (int(p) for p in key.split(","))
        pairs[(i, j)] = [rat(c) for c in vec]
    return FinLie.from_pairs(data["labels"], pairs, name=data.get("name", ""))


# -- actions -------------------------------------------------------------------

def action_to_dict(a) -> dict:
    return {
        "acting": a.acting.name,
        "target": a.target.name,
        "tensor": [[[rat_str(c) for c in cell] for cell in row] for row in a.tensor],
    }


def action_from_dict(data: dict, resolve) -> "ActionData":
    from .actions import ActionData

    _reject_unknown(data, {"acting", "target", "tensor"}, "action")
    _require(data, {"acting", "target", "tensor"}, "action")
    acting = resolve(data["acting"])
    target = resolve(data["target"])
    return ActionData(acting, target,
                      [[[rat(c) for c in cell] for cell in row] for row in data["tensor"]])


# -- operators -----------------------------------------------------------------

def operator_to_dict(m: LinMap) -> dict:
    out = {
        "algebra": m.domain.name,
        "algebra_sha256": algebra_hash(m.domain),
        "matrix": [[rat_str(m.matrix[(r, c)]) for c in range(m.matrix.cols)]
                   for r in range(m.matrix.rows)],
    }
    if m.codomain is not m.domain:
        out["codomain"] = m.codomain.name
        out["codomain_sha256"] = algebra_hash(m.codomain)
    return out


def operator_from_dict(data: dict, resolve) -> LinMap:
    _reject_unknown(data, {"algebra", "algebra_sha256", "codomain",
                           "codomain_sha256", "matrix"}, "operator")
    _require(data, {"algebra", "matrix"}, "operator")
    domain = resolve(data["algebra"])
    if "algebra_sha256" in data and data["algebra_sha256"] != algebra_hash(domain):
        raise ValueError(
            f"operator was computed against a different {data['algebra']!r}: "
            "content hash mismatch")
    codomain = resolve(data["codomain"]) if "codomain" in data else domain
    if "codomain_sha256" in data and data["codomain_sha256"] != algebra_hash(codomain):
        raise ValueError("codomain content hash mismatch")
    matrix = Mat.from_rows([[rat(c) for c in row] for row in data["matrix"]])
    return LinMap(domain, codomain, matrix)


# -- search plans and expected tables -------------------------------------------

def plan_to_dict(plan) -> dict:
    return {
        "algebra": plan.target.name,
        "algebra_sha256": algebra_hash(plan.target),
        "grouplikes": list(plan.grouplike_indices),
        "generators": [
            {"generator": b.generator,
             "cosets": {str(k): list(v) for k, v in sorted(b.cosets.items())}}
            for b in plan.blocks
        ],
        "commutation": plan.commutation,
    }


def plan_from_dict(data: dict, resolve) -> "SearchPlan":
    from .solver import GeneratorBlock, SearchPlan

    _reject_unknown(data, {"algebra", "algebra_sha256", "grouplikes", "generators",
                           "commutation"}, "plan")
    _require(data, {"algebra", "grouplikes", "generators"}, "plan")
    target = resolve(data["algebra"])
    if "algebra_sha256" in data and data["algebra_sha256"] != algebra_hash(target):
        raise ValueError("plan was written for a different algebra: hash mismatch")
    blocks = [
        GeneratorBlock(int(b["generator"]),
                       {int(k): (int(v[0]), int(v[1])) for k, v in b["cosets"].items()})
        for b in data["generators"]
    ]
    return SearchPlan(target, [int(i) for i in data["grouplikes"]], blocks,
                      commutation=data.get("commutation"))


def expected_to_dict(tables: list) -> dict:
    return {"operators": [
        {"name": t["name"],
         "images": [[rat_str(rat(c)) for c in col] for col in t["images"]]}
        for t in tables
    ]}


def expected_from_dict(data: dict) -> list:
    _reject_unknown(data, {"operators"}, "expected-tables")
    _require(data, {"operators"}, "expected-tables")
    out = []
    for t in data["operators"]:
        _reject_unknown(t, {"name", "images"}, "expected operator")
        out.append({"name": t.get("name", "?"),
                    "images": [[rat(c) for c in col] for col in t["images"]]})
    return out
