"""Differential oracle for the integer kernel behind the exhaustive
verifiers and convolution.

The references below are the rational-arithmetic versions of
``coalgebra_hom_report``, ``diff_identity_report``, ``convolve`` and
``is_coalgebra_hom``, kept verbatim.  Hypothesis draws maps with
coefficients from the sampling pool {0, +-1, +-1/2, 2}, both arbitrary
ones and perturbations of genuine coalgebra maps and difference
operators, and every report (failure order, ``checked``, ``skipped``) and
every convolution matrix must be exactly equal.
"""

import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from hopfdiff import catalog
from hopfdiff.actions import smash_product
from hopfdiff.diffops import (
    CheckReport,
    DiffOp,
    check_diffop,
    coalgebra_hom_report,
    diff_identity_report,
)
from hopfdiff.exactlin import ZERO, Mat, invert
from hopfdiff.lie import FinLie
from hopfdiff.freelie import (
    TruncatedEnveloping,
    TruncatedSmash,
    TruncatedTensor,
    sign_action_on_enveloping,
)
from hopfdiff.hopf import (
    LinMap,
    OutOfBudgetError,
    basis_vec,
    convolve,
    identity_map,
    int_columns,
    int_structure,
    is_coalgebra_hom,
    sweedler_expand,
    unit_counit_map,
    vec_add,
    vec_scale,
    zero_vec,
)
from sampling import COEFF_POOL, coalgebra_maps_for


# -- rational references, kept verbatim -----------------------------------------

def reference_coalgebra_hom_report(h, matrix: Mat) -> CheckReport:
    """Coalgebra-homomorphism check through the basis-indexed interface."""
    failures = []
    for k in range(h.dim):
        img = matrix.col(k)
        lhs = h.comult_vec(img)
        rhs: dict = {}
        for (i, j, c) in h.comult_triples(k):
            fi = matrix.col(i)
            fj = matrix.col(j)
            for a, x in enumerate(fi):
                if not x:
                    continue
                for b, y in enumerate(fj):
                    if y:
                        key = (a, b)
                        rhs[key] = rhs.get(key, ZERO) + c * x * y
        rhs = {kk: v for kk, v in rhs.items() if v}
        if lhs != rhs or h.counit_vec(img) != h.counit_coeff(k):
            failures.append(("coalgebra", k))
    return CheckReport(not failures, failures, [], h.dim)


def reference_diff_identity_report(h, matrix: Mat) -> CheckReport:
    """D(xy) = D(x1) x2 D(y) S(x3) on all basis pairs, skip-aware."""
    failures = []
    skipped = []
    checked = 0
    n = h.dim
    sweedler3 = [sweedler_expand(h, basis_vec(n, i), 2) for i in range(n)]
    for i in range(n):
        for j in range(n):
            try:
                lhs = matrix.apply(h.mult_basis(i, j))
                rhs = zero_vec(n)
                for (t1, t2, t3), c in sweedler3[i].items():
                    term = h.mult_vec(matrix.col(t1), basis_vec(n, t2))
                    term = h.mult_vec(term, matrix.col(j))
                    term = h.mult_vec(term, h.antipode_basis(t3))
                    rhs = vec_add(rhs, vec_scale(c, term))
            except OutOfBudgetError as exc:
                skipped.append((i, j, str(exc)))
                continue
            checked += 1
            if lhs != rhs:
                failures.append((i, j))
    return CheckReport(not failures, failures, skipped, checked)


def reference_convolve(f: LinMap, g: LinMap) -> LinMap:
    """Convolution product: x -> f(x1) g(x2)."""
    if f.domain is not g.domain or f.codomain is not g.codomain:
        raise ValueError("convolution needs equal domains and codomains")
    dom, cod = f.domain, f.codomain
    cols = []
    for k in range(dom.dim):
        acc = zero_vec(cod.dim)
        for (i, j, c) in dom.comult_triples(k):
            prod = cod.mult_vec(f.image_of_basis(i), g.image_of_basis(j))
            acc = vec_add(acc, vec_scale(c, prod))
        cols.append(acc)
    return LinMap(dom, cod, Mat.from_cols(cols))


def reference_is_coalgebra_hom(f: LinMap) -> bool:
    dom, cod = f.domain, f.codomain
    for k in range(dom.dim):
        img = f.image_of_basis(k)
        lhs = cod.comult_vec(img)
        rhs: dict = {}
        for (i, j, c) in dom.comult_triples(k):
            fi = f.image_of_basis(i)
            fj = f.image_of_basis(j)
            for a, x in enumerate(fi):
                if not x:
                    continue
                for b, y in enumerate(fj):
                    if y:
                        key = (a, b)
                        rhs[key] = rhs.get(key, ZERO) + c * x * y
        rhs = {k2: v for k2, v in rhs.items() if v}
        if lhs != rhs:
            return False
        if cod.counit_vec(img) != dom.counit_coeff(k):
            return False
    return True


def reference_check_diffop(h, matrix: Mat):
    co = reference_coalgebra_hom_report(h, matrix)
    if not co.ok:
        return co
    ident = reference_diff_identity_report(h, matrix)
    if not ident.ok or ident.skipped:
        return ident
    return matrix


# -- carriers and maps ------------------------------------------------------------

FINITE = ["kC2xC2", "kS3", "H4", "H8"]
CARRIERS = FINITE + ["smash:inv:kC2:kC4", "T(2,2)", "U(e)#kC2"]


@cache
def carrier(name):
    if name == "smash:inv:kC2:kC4":
        return smash_product(catalog.build("action:inv:kC2:kC4"))
    if name == "T(2,2)":
        return TruncatedTensor(2, 2)
    if name == "T(2,3)":
        return TruncatedTensor(2, 3)
    if name == "U(e)#kC2":
        u_env = TruncatedEnveloping(FinLie.from_pairs(["e"], {}, "abelian1"), 2)
        kc2 = catalog.build("kC2")
        return TruncatedSmash(u_env, kc2, sign_action_on_enveloping(u_env, kc2), 2)
    return catalog.build(name)


@cache
def seeds(name):
    """Known maps to perturb: genuine coalgebra maps (difference operators
    first) where a sampler exists, else the identity and u o eps."""
    h = carrier(name)
    if name in FINITE:
        return [m.matrix for m in coalgebra_maps_for(h, random.Random(0), 10)]
    return [identity_map(h).matrix, unit_counit_map(h).matrix]


coefficients = st.one_of(st.just(ZERO), st.sampled_from(COEFF_POOL))


@st.composite
def matrices(draw, name, rows=None, cols=None):
    h = carrier(name)
    rows = rows or h.dim
    cols = cols or h.dim
    if rows == cols == h.dim and draw(st.booleans()):
        m = draw(st.sampled_from(seeds(name)))
        entries = list(m.entries)
        for _ in range(draw(st.integers(0, 2))):
            entries[draw(st.integers(0, len(entries) - 1))] = draw(coefficients)
        return Mat(rows, cols, entries)
    return Mat(rows, cols, draw(st.lists(coefficients, min_size=rows * cols,
                                         max_size=rows * cols)))


def outcome(fn, *args):
    try:
        return fn(*args)
    except OutOfBudgetError as exc:
        return ("out of budget", str(exc))


# -- properties ---------------------------------------------------------------------

@pytest.mark.parametrize("name", CARRIERS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_reports_match_reference(name, data):
    h = carrier(name)
    m = data.draw(matrices(name))
    assert coalgebra_hom_report(h, m) == reference_coalgebra_hom_report(h, m)
    assert diff_identity_report(h, m) == reference_diff_identity_report(h, m)
    assert is_coalgebra_hom(LinMap(h, h, m)) == reference_is_coalgebra_hom(LinMap(h, h, m))
    got = check_diffop(h, m)
    want = reference_check_diffop(h, m)
    if isinstance(want, CheckReport):
        assert got == want
    else:
        assert isinstance(got, DiffOp) and got.map.matrix == m
        assert got.inverse == invert(m) and got.bijective == (got.inverse is not None)


@pytest.mark.parametrize("name", CARRIERS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_convolve_matches_reference(name, data):
    h = carrier(name)
    f = LinMap(h, h, data.draw(matrices(name)))
    g = LinMap(h, h, data.draw(matrices(name)))
    assert outcome(convolve, f, g) == outcome(reference_convolve, f, g)


@pytest.mark.parametrize("name", ["H8", "T(2,3)"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_integer_product_matches_mult_vec(name, data):
    """The product raises where mult_vec raises, with the same message: the
    first basis product in order that leaves the budget."""
    h = carrier(name)
    u, v = (data.draw(st.lists(coefficients, min_size=h.dim, max_size=h.dim))
            for _ in range(2))
    t = int_structure(h)

    def integer_product(u, v):
        (iu,), du = int_columns(Mat.from_cols([u]))
        (iv,), dv = int_columns(Mat.from_cols([v]))
        out = zero_vec(h.dim)
        for k, x in t.mul(iu, iv):
            out[k] = Fraction(x, t.mult_den * du * dv)
        return out

    assert outcome(integer_product, u, v) == outcome(h.mult_vec, u, v)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_maps_between_algebras_match_reference(data):
    """kC2xC2 -> kC4, as crossed homomorphisms use them: convolution and the
    coalgebra-map verdict with distinct domain and codomain."""
    k, h = carrier("kC2xC2"), catalog.build("kC4")
    m = data.draw(matrices("kC2xC2", rows=h.dim, cols=k.dim))
    f, g = LinMap(k, h, m), LinMap(k, h, data.draw(matrices("kC2xC2", h.dim, k.dim)))
    assert convolve(f, g) == reference_convolve(f, g)
    assert is_coalgebra_hom(f) == reference_is_coalgebra_hom(f)
