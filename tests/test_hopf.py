import inspect
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfdiff import catalog, hopf
from hopfdiff.exactlin import Mat
from hopfdiff.hopf import (
    LinMap,
    OutOfBudgetError,
    basis_vec,
    grouplikes,
    int_structure,
    is_cocommutative,
    is_grouplike,
    primitives,
    skew_primitives,
    sweedler_expand,
    validate_hopf,
    vec_add,
    vec_scale,
    zero_vec,
)
from hopfdiff.maps import (
    antipode_map,
    convolve,
    identity_map,
    is_algebra_hom,
    is_coalgebra_hom,
    unit_counit_map,
)
from reference_linalg import reference_row_space

F = Fraction


def built_with_inputs(build) -> tuple:
    """The FinDimHopf that build() returns, and the arguments its
    constructor was called with, by parameter name."""
    init = hopf.FinDimHopf.__init__
    calls = []

    def recording(self, *args, **kwargs):
        calls.append(inspect.signature(init).bind(self, *args, **kwargs).arguments)
        init(self, *args, **kwargs)

    hopf.FinDimHopf.__init__ = recording
    try:
        h = build()
    finally:
        hopf.FinDimHopf.__init__ = init
    (args,) = [args for args in calls if args["self"] is h]
    return h, args


def _catalog_and_tensor():
    from test_solver_families import tensor

    names = [name for name in catalog.names()
             if isinstance(catalog.build(name), hopf.FinDimHopf)]
    builds = [(name, lambda name=name: catalog.build(name)) for name in names]
    return builds + [("H8(x)kC2", lambda: tensor(catalog.build("H8"), catalog.build("kC2")))]


VIEW_BUILDS = _catalog_and_tensor()


@pytest.mark.parametrize("name, build", VIEW_BUILDS, ids=[name for name, _ in VIEW_BUILDS])
def test_rational_views_are_the_constructor_inputs(name, build):
    """The rational views of the integer table give back the constructor's
    inputs entry for entry, comultiplication triples sorted by (i, j) with
    zeros dropped; the table is built once, by the constructor, and the
    algebra keeps no rational product or antipode."""
    h, args = built_with_inputs(build)
    n = h.dim
    assert all(h.mult_basis(i, j) == list(args["mult"][i][j])
               for i in range(n) for j in range(n))
    assert all(h.comult_triples(k) == sorted((tuple(t) for t in args["comult"][k] if t[2]),
                                             key=lambda t: t[:2])
               for k in range(n))
    assert [h.counit_coeff(i) for i in range(n)] == list(args["counit"])
    assert all(h.antipode_basis(j) == args["antipode"].col(j) for j in range(n))
    assert h.unit_vec() == list(args["unit"])
    table = int_structure(h)
    assert {"mult", "antipode"} <= set(vars(table)) and "_carrier" not in vars(table)
    assert set(vars(h)) == {"name", "basis", "dim", "unit", "coradical_group_basis",
                            "_int_structure", "_axiom_report"}


def test_catalog_algebras_pass_all_axioms(h4, h8, kc2, ks3):
    for h in (h4, h8, kc2, ks3):
        report = validate_hopf(h)
        assert report.ok, (h.name, report.failures())


def test_corrupted_antipode_fails_with_witness(h4):
    # S(x) = gx instead of -gx: only -gx satisfies the antipode axiom at x
    bad_cols = [h4.antipode_basis(j) for j in range(4)]
    bad_cols[2] = basis_vec(4, 3)
    from hopfdiff.hopf import FinDimHopf

    bad = FinDimHopf("H4-bad", h4.basis,
                     [[h4.mult_basis(i, j) for j in range(4)] for i in range(4)], h4.unit,
                     [h4.comult_triples(k) for k in range(4)],
                     [h4.counit_coeff(i) for i in range(4)],
                     Mat.from_cols(bad_cols), coradical_group_basis=[0, 1])
    report = validate_hopf(bad)
    assert not report.ok
    failing = dict((a, w) for a, ok, w in report.checks if not ok)
    assert "antipode" in failing
    assert failing["antipode"] == (2,)  # witness is x, in canonical basis order


def test_convolution_counit_and_antipode_laws(h4):
    ident = identity_map(h4)
    unit = unit_counit_map(h4)
    assert convolve(unit, ident) == ident
    assert convolve(ident, unit) == ident
    assert convolve(ident, antipode_map(h4)) == unit


def test_convolve_id_id_on_kc2(kc2):
    conv = convolve(identity_map(kc2), identity_map(kc2))
    # g . g = 1 in C2, so id * id sends g to 1
    assert conv.image_of_basis(1) == basis_vec(2, 0)
    assert conv.image_of_basis(0) == basis_vec(2, 0)


def test_convolution_is_associative_and_unital(h8):
    import random

    rng = random.Random(7)
    pool = [F(0), F(1), F(-1), F(1, 2), F(2)]

    def random_map():
        m = Mat(8, 8, [rng.choice(pool) for _ in range(64)])
        return LinMap(h8, h8, [m.col(j) for j in range(8)])

    unit = unit_counit_map(h8)
    for _ in range(6):
        f, g, k = random_map(), random_map(), random_map()
        assert convolve(convolve(f, g), k) == convolve(f, convolve(g, k))
        assert convolve(unit, f) == f
        assert convolve(f, unit) == f


def test_antipode_is_convolution_inverse_of_id(h4, h8, ks3):
    for h in (h4, h8, ks3):
        ident = identity_map(h)
        s = antipode_map(h)
        unit = unit_counit_map(h)
        assert convolve(ident, s) == unit
        assert convolve(s, ident) == unit


def test_sweedler_expand_examples(h4):
    # order-1 on the group-like g
    g = basis_vec(4, 1)
    assert sweedler_expand(h4, g, 1) == {(1, 1): F(1)}
    # order-2 on x: x(x)1(x)1 + g(x)x(x)1 + g(x)g(x)x
    x = basis_vec(4, 2)
    assert sweedler_expand(h4, x, 2) == {
        (2, 0, 0): F(1), (1, 2, 0): F(1), (1, 1, 2): F(1)}
    one = basis_vec(4, 0)
    assert sweedler_expand(h4, one, 1) == {(0, 0): F(1)}


def test_sweedler_association_order_independence(h8):
    # (Delta x id)Delta and (id x Delta)Delta agree: compare rank-3 tensors
    # computed left-first (the implementation) against a right-first oracle
    for k in range(h8.dim):
        left = sweedler_expand(h8, basis_vec(8, k), 2)
        right = {}
        for (i, j, c) in h8.comult_triples(k):
            for (a, b, d) in h8.comult_triples(j):
                key = (i, a, b)
                right[key] = right.get(key, F(0)) + c * d
        right = {kk: v for kk, v in right.items() if v}
        assert left == right


def test_grouplike_detection(h4):
    assert is_grouplike(h4, basis_vec(4, 1))
    assert not is_grouplike(h4, basis_vec(4, 2))
    assert is_grouplike(h4, basis_vec(4, 0))


def test_grouplikes_complete_lists(h4, h8, ks3):
    for h, labels in ((h4, ["1", "g"]),
                      (h8, ["1", "x", "y", "xy"]),
                      (ks3, ["e", "(12)", "(13)", "(23)", "(123)", "(132)"])):
        res = grouplikes(h)
        assert res.complete
        assert [h.element_str(v) for v in res.elements] == labels


def test_grouplikes_are_linearly_independent(h8):
    res = grouplikes(h8)
    assert len(reference_row_space(res.elements)) == len(res.elements)


def test_primitives_vanish_on_catalog(h4, h8, kc2):
    assert primitives(h4) == []
    assert primitives(h8) == []
    assert primitives(kc2) == []


def test_skew_primitives_h4(h4):
    basis = skew_primitives(h4, basis_vec(4, 0), basis_vec(4, 1))
    # the span of 1-g and x, written in reduced echelon form
    assert reference_row_space(basis) == reference_row_space(
        [[F(1), F(-1), F(0), F(0)], [F(0), F(0), F(1), F(0)]])
    assert len(basis) == 2


def test_skew_primitives_coincide_with_primitives(h4, h8):
    for h in (h4, h8):
        unit = h.unit_vec()
        assert skew_primitives(h, unit, unit) == primitives(h)


def test_skew_primitives_h8(h8):
    basis = skew_primitives(h8, basis_vec(8, 0), basis_vec(8, 2))
    assert len(basis) == 1
    assert reference_row_space(basis) == reference_row_space(
        [[F(1), F(0), F(-1), F(0), F(0), F(0), F(0), F(0)]])


def test_skew_primitives_require_grouplikes(h4):
    with pytest.raises(ValueError):
        skew_primitives(h4, basis_vec(4, 2), basis_vec(4, 0))


def test_coalgebra_hom_detection(h4, h8):
    assert is_coalgebra_hom(identity_map(h8))
    assert is_coalgebra_hom(unit_counit_map(h4))
    # send g to x: Delta(x) is not x (x) x
    cols = [basis_vec(4, 0), basis_vec(4, 2), zero_vec(4), zero_vec(4)]
    assert not is_coalgebra_hom(LinMap(h4, h4, cols))


def test_algebra_hom_detection(h4, h8, kc4):
    assert is_algebra_hom(identity_map(h8))
    assert is_algebra_hom(unit_counit_map(h4))
    # the antipode is an algebra map only on commutative algebras
    assert not is_algebra_hom(antipode_map(h8))
    assert is_algebra_hom(antipode_map(kc4))


def test_cocommutativity(h4, h8, ks3, kc4):
    assert not is_cocommutative(h4)
    assert not is_cocommutative(h8)
    assert is_cocommutative(ks3)
    assert is_cocommutative(kc4)


def test_element_printing(h4, h8):
    assert h4.element_str([F(1), F(-1), F(0), F(0)]) == "1 - g"
    assert h4.element_str(zero_vec(4)) == "0"
    assert h8.element_str([F(1, 2), F(1, 2), F(1, 2), F(-1, 2), 0, 0, 0, 0]) == \
        "1/2*1 + 1/2*x + 1/2*y - 1/2*xy"


def test_sweedler_table_is_built_on_first_read(h8, monkeypatch):
    """Only the difference-identity check and the solver read D^2, so an
    integer structure table expands it when sweedler3 or sweedler_den is
    first read, once per basis element, and never again."""
    calls = []
    expand = hopf.sweedler_expand
    monkeypatch.setattr(hopf, "sweedler_expand",
                        lambda *args: calls.append(args) or expand(*args))
    t = hopf.IntStructure(h8)
    assert calls == []
    den = t.sweedler_den
    assert len(calls) == h8.dim
    for i in range(h8.dim):
        want = sweedler_expand(h8, basis_vec(h8.dim, i), 2)
        assert t.sweedler3[i] == tuple((*key, w * den) for key, w in want.items())
    assert len(calls) == h8.dim
    assert int_structure(h8).sweedler3 == t.sweedler3


def test_product_and_antipode_tables_are_built_on_first_read(h8, monkeypatch):
    """The group-like and skew-primitive checks read only the
    comultiplication, so the product and antipode tables are built when
    first read, each once, and the table keeps the carrier only until
    both are built."""
    calls = []
    for name in ("mult_terms", "antipode_basis"):
        method = getattr(h8, name)
        monkeypatch.setattr(h8, name, lambda *args, name=name, method=method:
                            calls.append(name) or method(*args))
    t = hopf.IntStructure(h8)
    assert calls == []
    for i in range(h8.dim):
        for j in range(h8.dim):
            assert t.mult[i][j] == tuple((k, c * t.mult_den) for k, c in h8.mult_terms(i, j))
    assert calls.count("mult_terms") == 2 * h8.dim ** 2
    assert t._carrier is h8
    for j in range(h8.dim):
        assert t.antipode[j] == tuple((k, c * t.antipode_den)
                                      for k, c in enumerate(h8.antipode_basis(j)) if c)
    assert calls.count("antipode_basis") == 2 * h8.dim
    assert not hasattr(t, "_carrier")
    del calls[:]
    t.mult, t.mult_den, t.antipode, t.antipode_den
    assert calls == []


# -- the sparse integer accumulation: hopf._combine and hopf._apply_int --------

DIM = 6
SPARSE = st.dictionaries(st.integers(0, DIM - 1), st.integers(-4, 4).filter(bool),
                         max_size=DIM).map(lambda d: sorted(d.items()))


def dense(v) -> list:
    """A sparse integer vector as a dense Fraction vector."""
    out = zero_vec(DIM)
    for k, m in v:
        out[k] = F(m)
    return out


def reference_sum(terms) -> list:
    """sum c v in dense Fraction arithmetic, read back as sparse pairs."""
    out = zero_vec(DIM)
    for c, v in terms:
        out = vec_add(out, vec_scale(F(c), dense(v)))
    return [(k, x) for k, x in enumerate(out) if x]


def assert_sparse(v):
    keys = [k for k, _ in v]
    assert keys == sorted(set(keys)) and all(m for _, m in v)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), SPARSE), max_size=6), st.booleans())
def test_combine_matches_fraction_reference(terms, cancel):
    """Ascending and zero-free, also where the terms cancel: with cancel
    every term is followed by its negation, so the sum is zero."""
    if cancel:
        terms = [t for c, v in terms for t in ((c, v), (-c, v))]
    got = hopf._combine(iter(terms))
    assert_sparse(got)
    assert got == reference_sum(terms)
    if cancel:
        assert got == []


@settings(max_examples=150, deadline=None)
@given(st.lists(SPARSE, min_size=DIM, max_size=DIM), SPARSE)
def test_apply_int_matches_fraction_reference(cols, u):
    got = hopf._apply_int(cols, u)
    assert_sparse(got)
    assert got == reference_sum([(c, cols[i]) for i, c in u])


def counted(items, read: list):
    """The items, counting in read how many were taken."""
    for item in items:
        read.append(item)
        yield item


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), SPARSE), min_size=1, max_size=6),
       st.data())
def test_combine_raises_a_copy_of_the_stored_error_at_its_term(terms, data):
    stored = OutOfBudgetError("degree 5 exceeds budget 4", degrees=(2, 3))
    at = data.draw(st.integers(0, len(terms) - 1))
    terms[at] = (terms[at][0], stored)
    read = []
    with pytest.raises(OutOfBudgetError) as info:
        hopf._combine(counted(terms, read))
    assert info.value is not stored
    assert str(info.value) == str(stored) and info.value.degrees == stored.degrees
    assert len(read) == at + 1
    assert stored.__traceback__ is None


@settings(max_examples=60, deadline=None)
@given(st.lists(SPARSE, min_size=DIM, max_size=DIM), SPARSE.filter(bool), st.data())
def test_apply_int_raises_a_copy_of_the_stored_error_at_its_term(cols, u, data):
    stored = OutOfBudgetError("image column unknown")
    at = data.draw(st.integers(0, len(u) - 1))
    cols[u[at][0]] = stored
    read = []
    with pytest.raises(OutOfBudgetError) as info:
        hopf._apply_int(cols, counted(u, read))
    assert info.value is not stored and str(info.value) == str(stored)
    assert len(read) == at + 1
    assert stored.__traceback__ is None
