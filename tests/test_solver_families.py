"""Classifications that need the engine beyond an exponent-two coradical
and beyond coproducts confined to one block.

The rank-one pointed algebras

    A(n, lam) = k<g, x | g^n = 1, x^2 = lam (g^2 - 1), gx = -xg>,

with Delta x = x (x) 1 + g (x) x and n even, have coradical kC_n, and
A(2, 0) is H4.  In H4 (x) H4 the coproduct of x|x meets the blocks of
x|1 and 1|x.  Each count is derived twice, from the derived plan and from
a plan with another generator for every coset and the blocks in reverse
order, and every operator is re-verified by ``perfbench/checker.py``,
which imports nothing from ``hopfdiff``.
"""

import hashlib
import importlib.util
import json
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

from hopfdiff import catalog
from hopfdiff.actions import TruncatedSmash, trivial_action
from hopfdiff.cli import run
from hopfdiff.exactlin import Mat
from hopfdiff.formats import algebra_to_dict
from hopfdiff.fingroup import coradical_group
from hopfdiff.hopf import FinDimHopf, axiom_report, basis_vec, zero_vec
from hopfdiff.solver import GeneratorBlock, SearchPlan, _Branch, classify_diffops, derive_plan

CHECKER = Path(__file__).resolve().parents[1] / "perfbench" / "checker.py"


def _load_checker():
    spec = importlib.util.spec_from_file_location("perfbench_checker", CHECKER)
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    return checker


checker = _load_checker()


def rank_one(n: int, lam) -> FinDimHopf:
    """A(n, lam) on the basis g^i (i < n), then g^i x."""
    lam = Fraction(lam)
    dim = 2 * n

    def idx(i, a):
        return i % n + n * a

    mult = [[zero_vec(dim) for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for a in range(2):
            for j in range(n):
                for b in range(2):
                    # g^i x^a g^j x^b = (-1)^(aj) g^(i+j) x^(a+b)
                    sign = -1 if a * j % 2 else 1
                    cell = mult[idx(i, a)][idx(j, b)]
                    if a + b < 2:
                        cell[idx(i + j, a + b)] += sign
                    else:
                        cell[idx(i + j + 2, 0)] += sign * lam
                        cell[idx(i + j, 0)] -= sign * lam
    comult = [[(idx(i, 0), idx(i, 0), 1)] for i in range(n)]
    comult += [[(idx(i, 1), idx(i, 0), 1), (idx(i + 1, 0), idx(i, 1), 1)] for i in range(n)]
    counit = [1] * n + [0] * n
    # S(g^i) = g^-i and S(g^i x) = -(-1)^i g^(-1-i) x
    antipode = [basis_vec(dim, idx(-i, 0)) for i in range(n)]
    for i in range(n):
        col = zero_vec(dim)
        col[idx(-1 - i, 1)] = Fraction(-1 if i % 2 == 0 else 1)
        antipode.append(col)
    labels = ["1", "g"] + [f"g{i}" for i in range(2, n)]
    labels += [f"{g}x" if g != "1" else "x" for g in labels]
    h = FinDimHopf(f"A({n},{lam})", labels, mult, basis_vec(dim, 0), comult, counit,
                   Mat.from_cols(antipode), coradical_group_basis=list(range(n)))
    assert axiom_report(h).ok
    return h


def tensor(h: FinDimHopf, k: FinDimHopf) -> FinDimHopf:
    """h (x) k, the smash product of the trivial action, with the pairs of
    the two declared coradicals as its coradical."""
    b = TruncatedSmash(trivial_action(k, h))
    n = b.dim
    corad = [b.index[(x, a)] for x in h.coradical_group_basis for a in k.coradical_group_basis]
    out = FinDimHopf(f"{h.name}(x){k.name}", [b.label(i) for i in range(n)],
                     [[b.mult_basis(i, j) for j in range(n)] for i in range(n)],
                     b.unit_vec(), [b.comult_triples(i) for i in range(n)],
                     [b.counit_coeff(i) for i in range(n)],
                     Mat.from_cols([b.antipode_basis(i) for i in range(n)]),
                     coradical_group_basis=sorted(corad))
    assert axiom_report(out).ok
    return out


ALGEBRAS = {
    "A(4,0)": lambda: rank_one(4, 0),
    "A(4,1)": lambda: rank_one(4, 1),
    "A(6,1)": lambda: rank_one(6, 1),
    "H4(x)H4": lambda: tensor(catalog.build("H4"), catalog.build("H4")),
}
COUNTS = {"A(4,0)": 2, "A(4,1)": 2, "A(6,1)": 1, "H4(x)H4": 1}


@cache
def algebra(name):
    return ALGEBRAS[name]()


def second_plan(h: FinDimHopf) -> SearchPlan:
    """Another generator for every coset of the derived plan, the last
    element of the coset, with the blocks in reverse order."""
    _, idxs, _ = coradical_group(h)
    blocks = []
    for c in reversed([max(block.cosets) for block in derive_plan(h).blocks]):
        cosets = {}
        for g in idxs:
            prod = h.mult_basis(g, c)
            (hit,) = [i for i, v in enumerate(prod) if v]
            cosets[hit] = (g, c)
        blocks.append(GeneratorBlock(c, cosets))
    return SearchPlan(h, list(idxs), blocks).validate()


@cache
def classification(name, derivation):
    """One classification of each algebra by each derivation per session."""
    h = algebra(name)
    plan = derive_plan(h) if derivation == "derived" else second_plan(h)
    return classify_diffops(plan)


def test_rank_one_algebra_at_n_two_is_h4():
    h4 = catalog.build("H4")
    a = rank_one(2, 0)
    n = h4.dim
    assert all(a.mult_basis(i, j) == h4.mult_basis(i, j) for i in range(n) for j in range(n))
    assert all(a.comult_triples(k) == h4.comult_triples(k) for k in range(n))
    assert all(a.antipode_basis(j) == h4.antipode_basis(j) for j in range(n))


def test_second_plan_differs_from_the_derived_plan():
    for name in ALGEBRAS:
        h = algebra(name)
        derived = [block.generator for block in derive_plan(h).blocks]
        other = [block.generator for block in second_plan(h).blocks]
        assert not set(derived) & set(other)


@pytest.mark.parametrize("derivation", ["derived", "second"])
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_engine_classifies_beyond_the_removed_gates(name, derivation):
    """At the exponent-two gate the rank-one algebras came back partial
    with no operator, and the triangularity clause refused H4 (x) H4."""
    h = algebra(name)
    result = classification(name, derivation)
    assert result.certificate == "complete"
    assert all(br.status != "partial" for br in result.branches)
    assert len(result.operators) == COUNTS[name]
    assert not any(op.bijective for op in result.operators)
    reference = checker.Algebra(algebra_to_dict(h))
    for op in result.operators:
        cols = [list(op.map.matrix.col(j)) for j in range(h.dim)]
        assert checker.diffop_verdict(reference, cols) == (True, None)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_both_derivations_find_the_same_operators(name):
    found = [{tuple(op.map.matrix.entries) for op in classification(name, d).operators}
             for d in ("derived", "second")]
    assert found[0] == found[1]


@pytest.mark.parametrize("name, branches, second", [("plan:H4", 2, 1), ("A(4,0)", 4, 3)])
def test_coalgebra_equations_are_built_once_per_branch(name, branches, second, monkeypatch):
    """A branch builds its counit and comultiplication equations once: a
    branch whose first stage stalls gets the difference identity appended
    to them, not a second build of both.  With the rebuild, plan:H4 took
    3 builds and A(4, 0) 7."""
    builds, stages = [], []
    equations = _Branch.equations

    def counted(self):
        builds.append(None)
        for eqs in equations(self):
            stages.append(len(eqs))
            yield eqs

    monkeypatch.setattr(_Branch, "equations", counted)
    plan = catalog.build(name) if name.startswith("plan:") else derive_plan(algebra(name))
    assert classify_diffops(plan).certificate == "complete"
    assert len(builds) == branches
    assert len(stages) == branches + second


def test_h4_kc2xc2_classification_is_pinned(tmp_path, capsys):
    """classify-diffops on H4 (x) kC2xC2 (dimension 16) with the derived
    plan: 64 operators, complete.  The sha256 of the whole report was
    recorded when every branch still built its constraints on every row;
    building them on the block generators' rows must leave it unchanged."""
    h = tensor(catalog.build("H4"), catalog.build("kC2xC2"))
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(algebra_to_dict(h)), encoding="utf-8")
    assert run(["classify-diffops", "--algebra", str(path)]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert (report["operator_count"], report["certificate"]) == (64, "complete")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "25d75a695b3b6e955e91148a7cab9b9fd8c99200504afeec0d32dc6725f0f040"
