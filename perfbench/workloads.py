"""The four benchmark workloads: their commands, inputs and checks.

Each workload is one pass over a fixed list of ``hopfdiff`` commands.  A
command is an ``Op``; ``save`` names a file that receives the exported
``payload`` of the command's report, for later commands of the same pass
to read back.  ``fault`` names a known fault in the program: the op is
expected to fail until that fault is fixed, and counts as failed.

``check`` functions receive the parsed reports of one pass and the
reference payloads exported before the run, and return a list of
problems; every expectation is recomputed with :mod:`checker`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

import checker


@dataclass
class Op:
    id: str
    argv: list
    rc: int = 0
    save: str | None = None
    fault: str | None = None


@dataclass
class Workload:
    name: str
    setup_names: list       # catalog entries built and validated by setup_s
    refs: list              # catalog exports the checks read
    ops: callable           # (seed, refs) -> (ops, input files)
    check: callable         # (reports, refs, ops) -> problems


def _frac_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _inverses(table: list) -> list:
    n = len(table)
    e = next(a for a in range(n) if all(table[a][b] == b for b in range(n)))
    return [next(b for b in range(n) if table[a][b] == e) for a in range(n)]


# -- classify-h8 -------------------------------------------------------------

def classify_ops(seed, refs):
    return [
        Op("export-expected-H4", ["catalog", "expected:H4"], save="expected_H4.json"),
        Op("classify-H8", ["classify-diffops", "--plan", "plan:H8"]),
        Op("classify-H4", ["classify-diffops", "--plan", "plan:H4",
                           "--expected", "expected_H4.json"]),
        Op("classify-kC2xC2", ["classify-diffops", "--plan", "plan:kC2xC2"]),
    ], {}


def classify_check(rep, refs, ops):
    problems = []
    end_c2xc2 = len(checker.endomorphisms(refs["C2xC2"]["table"]))
    end_c2 = len(checker.endomorphisms(refs["C2"]["table"]))
    algebras = {"classify-H8": ("H8", end_c2xc2), "classify-H4": ("H4", end_c2),
                "classify-kC2xC2": ("kC2xC2", end_c2xc2)}
    found = {}
    for op_id, (alg, branches) in algebras.items():
        r = rep[op_id]
        h = checker.Algebra(refs[alg])
        if r["certificate"] != "complete":
            problems.append(f"{op_id}: certificate {r['certificate']}")
        if len(r["branches"]) != branches:
            problems.append(f"{op_id}: {len(r['branches'])} branches, |End| = {branches}")
        cols_list = [checker.to_cols(op["images"]) for op in r["operators"]]
        if len({tuple(map(tuple, c)) for c in cols_list}) != len(cols_list):
            problems.append(f"{op_id}: repeated operators")
        for k, (op, cols) in enumerate(zip(r["operators"], cols_list)):
            ok, witness = checker.diffop_verdict(h, cols)
            if not ok:
                problems.append(f"{op_id}: operator {k} fails the checker at {witness}")
            if op["bijective"] != (checker.rank(cols) == h.dim):
                problems.append(f"{op_id}: operator {k} bijective flag disagrees with rank")
        found[alg] = {tuple(map(tuple, c)) for c in cols_list}
    if rep["classify-kC2xC2"]["operator_count"] != end_c2xc2:
        problems.append(f"kC2xC2: {rep['classify-kC2xC2']['operator_count']} operators, "
                        f"|End(C2xC2)| = {end_c2xc2}")
    cmp = rep["classify-H4"].get("expected_comparison")
    if not cmp or not cmp["equal"]:
        problems.append("H4: classification differs from the expected:H4 export")
    h8 = checker.Algebra(refs["H8"])
    for table in refs["expected:H8-bijective"]["operators"]:
        cols = checker.to_cols(table["images"])
        present = tuple(map(tuple, cols)) in found["H8"]
        accepted, _ = checker.diffop_verdict(h8, cols)
        genuine = table["name"] in ("D1", "D2", "D3", "D4")
        if present != genuine or accepted != genuine:
            problems.append(f"H8 {table['name']}: present={present} accepted={accepted}")
    return problems


# -- monoid-kd4 --------------------------------------------------------------

def monoid_ops(seed, refs):
    return [Op("monoid-kD4", ["monoid-table", "--algebra", "kD4"]),
            Op("monoid-kS3", ["monoid-table", "--algebra", "kS3"])], {}


def monoid_check(rep, refs, ops):
    problems = []
    for op_id, group in (("monoid-kD4", "D4"), ("monoid-kS3", "S3")):
        r = rep[op_id]
        endos = checker.endomorphisms(refs[group]["table"])
        table = r["table"]
        n = len(table)
        if r["size"] != len(endos) or n != len(endos):
            problems.append(f"{op_id}: size {r['size']}, |End({group})| = {len(endos)}")
            continue
        if any(table[table[i][j]][k] != table[i][table[j][k]]
               for i in range(n) for j in range(n) for k in range(n)):
            problems.append(f"{op_id}: table is not associative")
        if not any(all(table[e][a] == a and table[a][e] == a for a in range(n))
                   for e in range(n)):
            problems.append(f"{op_id}: no two-sided identity")
        idem = sum(1 for i in range(n) if table[i][i] == i)
        if idem != checker.idempotent_count(endos):
            problems.append(f"{op_id}: {idem} idempotents, End({group}) has "
                            f"{checker.idempotent_count(endos)}")
        if not r["ok"]:
            problems.append(f"{op_id}: report not ok")
    return problems


# -- freelie-b4 --------------------------------------------------------------

def freelie_ops(seed, refs):
    return [
        Op("mm-check", ["free-lie", "mm-check", "--generators", "2", "--budget", "4"]),
        Op("ckmm-mixed", ["free-lie", "ckmm-mixed", "--budget", "4"]),
        Op("diffop-from-hom", ["free-lie", "diffop-from-hom", "--budget", "4"]),
        Op("lyndon-dims", ["free-lie", "lyndon-dims", "--budget", "6"]),
    ], {}


def freelie_check(rep, refs, ops):
    problems = [f"{k}: report not ok" for k, r in rep.items() if not r["ok"]]
    if rep["mm-check"].get("uniqueness") is not True:
        problems.append("mm-check: uniqueness is not true")
    witt = checker.witt_dims(2, 6)
    if rep["lyndon-dims"]["lyndon"] != witt or rep["lyndon-dims"]["necklace"] != witt:
        problems.append(f"lyndon-dims: {rep['lyndon-dims']['lyndon']} != Witt {witt}")
    return problems


# -- cli-batch ---------------------------------------------------------------

ALGEBRAS = ["kC2", "kC4", "kC2xC2", "kS3", "kD4", "H4", "H8"]
GROUP_OF = {"kC2": "C2", "kC4": "C4", "kC2xC2": "C2xC2", "kS3": "S3", "kD4": "D4"}
POOL = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2),
        Fraction(2)]
DIFFOP_ALGEBRAS = ["kC2xC2", "kS3", "kD4"]
PERTURBED_ALGEBRAS = ["kS3", "kD4"]


def _group_diffop(table, f):
    """Columns of g -> f(g) g^-1 for an endomorphism f."""
    inv = _inverses(table)
    n = len(table)
    return [[Fraction(int(i == table[f[g]][inv[g]])) for i in range(n)] for g in range(n)]


def _h4_coalgebra_map(rng):
    """A coalgebra endomorphism of H4 (basis 1, g, x, gx) with coefficients
    from POOL: 1 and g go to group-likes a = D(1), b = D(g), and x, gx to
    the (b, a)- and (a, b)-skew-primitives, which for a != b are spanned
    by a - b and x (resp. gx), and are zero for a = b."""
    unit = [[Fraction(int(i == k)) for i in range(4)] for k in range(4)]
    a, b = rng.randrange(2), rng.randrange(2)
    cols = [unit[a], unit[b]]
    for left, right, top in ((b, a, 2), (a, b, 3)):
        if left == right:
            cols.append([Fraction(0)] * 4)
            continue
        c1, c2 = rng.choice(POOL), rng.choice(POOL)
        cols.append([c1 * (unit[left][i] - unit[right][i]) + c2 * unit[top][i]
                     for i in range(4)])
    return cols


def _sample_maps(seed, refs):
    """Seeded check-diffop inputs as (algebra, columns, verdict): a
    difference operator on each algebra of DIFFOP_ALGEBRAS, then as many
    coalgebra maps that are not: one sampled on H4 from POOL and one-image
    perturbations of group ones on PERTURBED_ALGEBRAS.  The algebras are
    fixed so that the seed changes the maps but hardly the work."""
    rng = random.Random(seed)
    samples = []
    for alg in DIFFOP_ALGEBRAS:
        table = refs[GROUP_OF[alg]]["table"]
        cols = _group_diffop(table, rng.choice(checker.endomorphisms(table)))
        if not checker.diffop_verdict(checker.Algebra(refs[alg]), cols)[0]:
            raise RuntimeError(f"lift of an endomorphism of {alg} is not a difference operator")
        samples.append((alg, cols, True))
    h4 = checker.Algebra(refs["H4"])
    while True:
        cols = _h4_coalgebra_map(rng)
        if not checker.diffop_verdict(h4, cols)[0]:
            break
    samples.append(("H4", cols, False))
    for alg in PERTURBED_ALGEBRAS:
        table = refs[GROUP_OF[alg]]["table"]
        n = len(table)
        while True:
            cols = _group_diffop(table, rng.choice(checker.endomorphisms(table)))
            g, img = rng.randrange(n), rng.randrange(n)
            cols[g] = [Fraction(int(i == img)) for i in range(n)]
            if not checker.diffop_verdict(checker.Algebra(refs[alg]), cols)[0]:
                break
        samples.append((alg, cols, False))
    return samples


def batch_ops(seed, refs):
    ops = [Op("catalog-list", ["catalog"])]
    for cmd in ("validate", "grouplikes", "primitives"):
        ops += [Op(f"{cmd}-{a}", [cmd, "--algebra", a]) for a in ALGEBRAS]
    exports = {"H4": "H4.json", "plan:H4": "plan_H4.json",
               "action:inv:kC2:kC4": "action.json", "op:crossed:kC2:kC4": "crossed.json",
               "op:inv:kS3": "inv_kS3.json", "op:id:kC4": "id_kC4.json",
               "op:id:kC2": "id_kC2.json", "op:ueps:kC4": "ueps_kC4.json"}
    ops += [Op(f"export-{name}", ["catalog", name], save=path)
            for name, path in exports.items()]
    ops += [
        Op("reparse-validate-H4", ["validate", "--algebra", "H4.json"]),
        Op("reparse-classify-H4", ["classify-diffops", "--plan", "plan_H4.json"]),
        Op("check-crossed-hom", ["check-crossed-hom", "--action", "action.json",
                                 "--operator", "crossed.json"]),
        Op("smash", ["smash", "--action", "action.json"]),
        Op("graph", ["graph", "--action", "action.json", "--operator", "crossed.json"]),
        Op("rota-baxter", ["rota-baxter", "--operator", "inv_kS3.json"]),
        Op("ckmm-check", ["ckmm-check", "--operator", "inv_kS3.json"]),
        Op("extend-smash-diff", ["extend-smash-diff", "--action", "action.json",
                                 "--operator", "id_kC4.json", "--operator-k", "id_kC2.json"]),
        Op("extend-smash-diff-incompatible",
           ["extend-smash-diff", "--action", "action.json", "--operator", "ueps_kC4.json",
            "--operator-k", "id_kC2.json"], rc=1),
    ]
    files = {}
    for k, (alg, cols, accepted) in enumerate(_sample_maps(seed, refs)):
        path = f"sample_{k}.json"
        rows = [[_frac_str(cols[c][r]) for c in range(len(cols))] for r in range(len(cols))]
        files[path] = {"algebra": alg, "matrix": rows}
        ops.append(Op(f"check-diffop-{k}", ["check-diffop", "--operator", path],
                      rc=0 if accepted else 1))
    kc2 = refs["kC2"]
    div0 = json.loads(json.dumps(kc2))
    div0["mult"][1][1][0] = "1/0"
    bad_counit = json.loads(json.dumps(kc2))
    bad_counit["counit"] = ["1", "0"]
    files["div0.json"] = div0
    files["bad_counit.json"] = bad_counit
    ops += [
        Op("validate-bad-counit", ["validate", "--algebra", "bad_counit.json"], rc=1),
        Op("fault-div0", ["validate", "--algebra", "div0.json"], rc=2,
           fault="coefficient 1/0 in an algebra file: uncaught ZeroDivisionError, exit 1"),
        Op("fault-grouplikes-bad-counit", ["grouplikes", "--algebra", "bad_counit.json"],
           rc=1, fault="non-Hopf algebra file: ValueError traceback from grouplikes"),
        Op("fault-monoid-bad-counit", ["monoid-table", "--algebra", "bad_counit.json"],
           rc=1, fault="non-Hopf algebra file: AssertionError traceback from monoid-table"),
        Op("fault-lyndon-budget-8", ["free-lie", "lyndon-dims", "--budget", "8"], rc=2,
           fault="budget above the cap: ValueError traceback, exit 1"),
    ]
    return ops, files


def batch_check(rep, refs, ops):
    problems = []
    for a in ALGEBRAS:
        if not rep[f"validate-{a}"]["ok"]:
            problems.append(f"validate {a}: not ok")
    for a, g in GROUP_OF.items():
        r = rep[f"grouplikes-{a}"]
        if len(r["elements"]) != len(refs[g]["table"]) or not r["complete"]:
            problems.append(f"grouplikes {a}: {len(r['elements'])} != |{g}|")
    for op in ops:
        if op.id.startswith("check-diffop-") and rep[op.id]["ok"] != (op.rc == 0):
            problems.append(f"{op.id}: verdict {rep[op.id]['ok']} disagrees with the checker")
    if rep["smash"]["dimension"] != len(refs["kC2"]["basis"]) * len(refs["kC4"]["basis"]):
        problems.append(f"smash: dimension {rep['smash']['dimension']}")
    inverse = [[Fraction(c) for c in row] for row in rep["rota-baxter"]["inverse"]]
    operator = [[Fraction(c) for c in row] for row in rep["export-op:inv:kS3"]["payload"]["matrix"]]
    n = len(operator)
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    if checker.matmul_rows(inverse, operator) != identity:
        problems.append("rota-baxter: inverse times operator is not the identity")
    for op_id in ("reparse-validate-H4", "check-crossed-hom", "graph", "ckmm-check",
                  "extend-smash-diff", "rota-baxter"):
        if not rep[op_id]["ok"]:
            problems.append(f"{op_id}: report not ok")
    if rep["reparse-classify-H4"]["certificate"] != "complete":
        problems.append("reparse-classify-H4: certificate not complete")
    return problems


WORKLOADS = {
    "classify-h8": Workload(
        "classify-h8", ["plan:H8", "plan:H4", "expected:H4", "plan:kC2xC2"],
        ["H8", "H4", "kC2xC2", "C2xC2", "C2", "expected:H8-bijective"],
        classify_ops, classify_check),
    "monoid-kd4": Workload(
        "monoid-kd4", ["kD4", "kS3"], ["D4", "S3"], monoid_ops, monoid_check),
    "freelie-b4": Workload(
        "freelie-b4", ["kC2"], [], freelie_ops, freelie_check),
    "cli-batch": Workload(
        "cli-batch",
        ALGEBRAS + ["plan:H4", "action:inv:kC2:kC4", "op:crossed:kC2:kC4", "op:inv:kS3",
                    "op:id:kC4", "op:id:kC2", "op:ueps:kC4"],
        ["kC2", "kC4", "kC2xC2", "kS3", "kD4", "H4", "C2", "C4", "C2xC2", "S3", "D4"],
        batch_ops, batch_check),
}
