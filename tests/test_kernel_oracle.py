"""Differential oracle for the integer kernel behind the exhaustive
verifiers and convolution, and for the tabulated derivation actions and
primitive equations of the truncated carriers.

The references below are the rational-arithmetic versions of
``coalgebra_hom_report``, ``diff_identity_report``, ``convolve`` and
``is_coalgebra_hom``, kept verbatim.  Hypothesis draws maps with
coefficients from the sampling pool {0, +-1, +-1/2, 2}, both arbitrary
ones and perturbations of genuine coalgebra maps and difference
operators, and every report (failure order, ``checked``, ``skipped``) and
every convolution matrix must be exactly equal.

The monomial-by-monomial derivation loop, ``truncated_primitives`` and
``extended_action_bialgebra_check`` as they were before their tables are
kept verbatim too.  Derivation actions with generator images from the
same pool must give the same values, or raise the same out-of-budget
message with the same degrees.

The rational truncated checkers ``verify_trunc_diffop`` and
``verify_crossed_hom_trunc``, and the two smash builders
``smash_product`` and ``smash_product_algebra_only``, are kept verbatim as
they were before the shared checkers and the one smash builder replaced
them.  Partial column tables (perturbed, with random unknown columns)
must give equal verdicts from ``check_diffop`` and ``crossed_hom_report``,
skip lists in order included, once ``assert_same_verdict`` has labelled
their index-keyed entries; ``coalgebra_map_failures`` must give the
references' counit and comultiplication entries apart.  The rational
pair loop of ``crossed_hom_report`` is kept too, as it was before the
check ran on integer tables, and must give the whole report, each skip
message included, for an adjoint action through the carrier's own
rational products, the adjoint derivation action and derivation actions
drawn from the pool.  ``module_axiom_report`` must equal a loop that
evaluates each tuple from scratch, on the non-cocommutative H4 with an
action that leaves the budget on one leg only.  The smash products must
give equal exports.  ``check_group_diffop``'s own pair loop
is kept too and must agree on every self-map of C2, C4 and C2xC2.

``validate_hopf`` as it was before it read the integer structure table is
kept verbatim too.  Every catalog algebra, and copies with one structure
constant replaced by a pool coefficient, must give equal axiom reports,
witnesses included.

``validate_action`` with its ``_associativity_failures``,
``derived_module_structure``, ``is_algebra_hom``, the multiplicativity
loop of ``smash_vs_semidirect_trunc`` and ``diffop_from_hom`` with its
``Fraction`` loop for D = F * S are kept verbatim as they were before the
one module-axiom checker, ``algebra_map_failures`` and
``convolve_columns`` replaced them.  Actions with one tensor entry
replaced by a pool coefficient must give equal axiom reports; sampled maps
equal algebra-map verdicts; perturbed partial column tables equal counts
of checked and failing pairs; and sampled letter images equal reports,
the D table and the skip list in order included.  Some letter images
have a multiple of a word of degree at least two added, and then both
must reject them with the same message; the reference decides
primitivity by the span test of ``reference_linalg`` on the basis of
P(T).

``solver.coradical_group``, ``hopf.skew_primitives`` and
``freelie._uniqueness_by_degree`` are kept verbatim as they were before
``fingroup.coradical_group``, the one-pass primitive-space solver and the
A X = B form of the degree systems replaced them.  Every catalog algebra
with a declared coradical must give the same group and index maps, every
ordered pair of group-likes the same skew-primitive basis, and the
mm-check degree systems (two letter-image pairs at budgets 3 and 4,
perturbed column tables, and stub actions for each witness) the same
result, except that a degree left short of rank by an equation skipped
for the budget is now undecided rather than failed.  The one-pass
solver is kept verbatim too, except that it solves its dense rows with
the Fraction elimination of ``reference_linalg`` where it called
``exactlin.kernel``; the sparse integer reduction must give its basis on
every pair of group-like basis elements of every catalog algebra and on
the primitives of T(2, 2..6) and U(sl2) at budget 3.  The other
references that solved with ``exactlin.solve_affine`` now solve with
``reference_linalg`` as well, so no oracle calls the elimination it
checks.  The integer product
tables of the truncated carriers, read through ``mult_terms``, must equal
the tables built by catching ``mult_basis``'s errors, with the old
``mult_basis`` bodies kept verbatim, stored errors included.  With the
smash builder's old ``mult_basis`` body they are also the dense reference
of every carrier's one product, ``mult_terms``: on finite, truncated and
smash carriers, ``mult_basis`` must be its dense form and ``mult_vec``
the reference's ``Fraction`` sum, an out-of-budget product raising the
reference's message and degrees at the same first pair.

The loops that built the tensors of ``adjoint_action``,
``derived_module_structure`` and ``derived_action`` are kept verbatim as
they were before ``convolve_columns`` built them, reading an action's
``tensor[a][x]``.  The convolution-built tensors must equal them entry
for entry on kS3, kD4, kC2xC2 and H8 and on the crossed homomorphisms of
the derived-action tests.

The slowest references are fed memoized inputs, never changed code: a
carrier whose vector products are memoized, or the reference's own code
object with its module action read through memos.

The product-formula extension (``details["pibar"]`` of
``extend_crossed_hom_trunc``, read as rational columns), the free values
``free_crossed_hom_values`` and the Lie-restriction loop of
``mm_instance_check`` are kept as they were in ``Fraction`` arithmetic,
with the derivations taken by the verbatim rational loops above, and
must give equal columns, values and restriction entries on the mm-check
systems at budgets 3 and 4, perturbed and unknown column tables
included.  The coshuffle coproduct of ``TruncatedTensor`` by 2^|w|
position masks is kept verbatim too, and must give the sorted triples of
the shuffle recursion on T(2,4), T(2,6) and T(3,5).

``star`` on ``Fraction`` matrices through ``convolve`` and
``LinMap.compose``, and the monoid-table loop over it with its linear
``Mat`` search and its ``diff_to_endo`` transport check, are kept
verbatim as they were before the table ran on integer operator forms.
The table, both verdicts and every kS3 product must be equal.

Three verdicts on sampled maps must agree: ``check_diffop``,
``check_diffop_prime`` and, on cocommutative carriers, whether D * id is
an algebra map for a coalgebra map D.

``validate_hopf`` as it was before it read associativity and the
bialgebra pairs on generator rows is kept verbatim too, a scan of every
basis tuple.  Every catalog algebra, and copies with one product or one
comultiplication term changed away from the unit, so that the unit
axiom holds and associativity or the bialgebra pairs fail, must give
equal axiom reports, first witnesses included.  ``is_diffop``, which
reads the difference identity on generator rows, must agree with
``check_diffop`` and with the full reports on all 36 phase-4 candidates
of plan:H8, and with the full reports on sampled maps S3 -> S3 lifted
linearly.

The smash layer as it was in ``Fraction`` arithmetic, before it read the
integer tables, is kept verbatim: the accumulator ``smash_vec`` with its
``out`` and ``scale`` arguments (``reference_smash_vec``, which the old
``mult_basis`` body above reads too), the builder's ``antipode_basis``,
``graph_vector`` (compared with ``actions._graph_column`` over its
denominator), ``compatibility_failures``, ``smash_extension_columns``
in the paper's formula and ``smash_restrictions``.  On the inversion
action of kC2 on kC4, the trivial actions of kC2 and kC2xC2 on kC4 and
kS3 and the swap action of kC2 on kC2xC2, every product, antipode and
graph vector must be equal, and so must the compatibility witnesses of
all 292 pairs of difference operators of the two factors and, for the
266 compatible ones, the extension columns and both restriction
verdicts; so must the sign action of kC2 on U(e) at budgets 1-5 with the
pair of ``ckmm-mixed`` and the incompatible pair (id, id).  The rational
loop of ``rota_baxter_identity_report`` is kept too, and must give the
whole report where the identity fails (the identity map on kS3 and H8)
and on the sampled maps of acceptance criterion 4.
"""

import itertools
import json
import random
import types
from fractions import Fraction
from functools import cache
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from hopfdiff import catalog, formats
from hopfdiff.actions import (
    ActionData,
    CrossedHom,
    IntAction,
    TruncatedSmash,
    _convolved_action,
    _derived_module_columns,
    adjoint_action,
    crossed_hom_report,
    derived_action,
    derived_module_structure,
    _graph_column,
    module_axiom_report,
    smash_product,
    trivial_action,
    validate_action,
)
from hopfdiff import cli
from hopfdiff.diffops import (
    CheckReport,
    DiffOp,
    all_diffops_on_group_algebra,
    check_diffop,
    compatibility_failures,
    diff_identity_report,
    diff_to_endo,
    is_diffop,
    monoid_table,
    rota_baxter_identity_report,
    smash_extension_columns,
    smash_restrictions,
    star,
)
from hopfdiff.exactlin import ONE, ZERO, Mat, rat
from hopfdiff.fingroup import FinGroup, coradical_group
from hopfdiff.groups import GroupMap, check_group_diffop
from hopfdiff.lie import FinLie, LieAction, adjoint_lie_action
from hopfdiff.freelie import (
    DerivationAction,
    _multiplicative_columns,
    _uniqueness_by_degree,
    adjoint_derivation_action,
    diffop_from_hom,
    extend_crossed_hom_trunc,
    extended_action_bialgebra_check,
    free_crossed_hom_values,
    mm_instance_check,
    sign_action_on_enveloping,
    smash_vs_semidirect_trunc,
)
from hopfdiff.truncated import (
    LyndonBasis,
    TruncatedEnveloping,
    TruncatedTensor,
    bracket_expansion,
    standard_factorization,
)
from hopfdiff.hopf import (
    AxiomReport,
    FinDimHopf,
    LinMap,
    OutOfBudgetError,
    Vec,
    _combine,
    _first_witness,
    _nonzero,
    _sparse_ints,
    _add_scaled,
    basis_vec,
    int_structure,
    is_cocommutative,
    is_grouplike,
    primitives,
    skew_primitives,
    sweedler_expand,
    validate_hopf,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vec,
)
from hopfdiff.maps import (
    algebra_map_failures,
    coalgebra_map_failures,
    coalgebra_map_report,
    convolve,
    identity_map,
    int_columns,
    inverse_columns,
    is_algebra_hom,
    is_coalgebra_hom,
    unit_counit_map,
)
from reference_diffops import check_diffop_prime
from reference_linalg import (reference_inverse, reference_kernel, reference_row_reduce,
                              reference_solve_affine)
from sampling import COEFF_POOL, coalgebra_maps_for


# -- rational references, kept verbatim -----------------------------------------

def apply_cols(cols, u: Vec, dim: int) -> Vec:
    """sum u_i cols[i] for a column table of dim-vectors; a None column
    that u needs is an unknown image and raises OutOfBudgetError (the
    deleted hopf.apply_cols, kept verbatim)."""
    out = zero_vec(dim)
    for i, c in enumerate(u):
        if not c:
            continue
        if cols[i] is None:
            raise OutOfBudgetError("image column unknown")
        _add_scaled(out, c, cols[i])
    return out


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
    return LinMap(dom, cod, cols)


def mat_map(dom, cod, m: Mat) -> LinMap:
    """The LinMap of a rational matrix from dom to cod, column by column."""
    return LinMap(dom, cod, [m.col(j) for j in range(m.cols)])


def column_table(m, n: int) -> list:
    """The rational column table of the IntColumns m over n coordinates,
    with None for an unknown column."""
    cols, den = m
    return [None if isinstance(c, OutOfBudgetError)
            else [Fraction(dict(c).get(k, 0), den) for k in range(n)] for c in cols]


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
    """The verdict check_diffop gives, from the two references: the
    coalgebra entries, then the pair entries, unless both pass on every
    pair."""
    co = reference_coalgebra_hom_report(h, matrix)
    ident = reference_diff_identity_report(h, matrix)
    if co.ok and ident.ok and not ident.skipped:
        return matrix
    failures = co.failures + ident.failures
    return CheckReport(not failures, failures, ident.skipped, ident.checked)


# -- carriers and maps ------------------------------------------------------------

SL2 = FinLie.from_pairs(["e", "f", "h"], {(0, 1): [0, 0, 1], (0, 2): [-2, 0, 0],
                                          (1, 2): [0, 2, 0]}, "sl2")
AFF1 = FinLie.from_pairs(["a", "b"], {(0, 1): [0, 1]}, "aff1")
FINITE = ["kC2xC2", "kS3", "H4", "H8"]
CARRIERS = FINITE + ["smash:inv:kC2:kC4", "T(2,2)", "U(e)#kC2"]
# the smash products of the sign action of kC2 on U(e), by budget
SIGN_SMASH_BUDGETS = {"U(e)#kC2": 2, "U(e,3)#kC2": 3}


@cache
def carrier(name):
    if name == "smash:inv:kC2:kC4":
        return smash_product(catalog.build("action:inv:kC2:kC4"))
    if name in SIGN_SMASH_BUDGETS:
        budget = SIGN_SMASH_BUDGETS[name]
        u_env = TruncatedEnveloping(FinLie.from_pairs(["e"], {}, "abelian1"), budget)
        kc2 = catalog.build("kC2")
        return TruncatedSmash(sign_action_on_enveloping(u_env, kc2), budget)
    if name.startswith(("T(", "U(sl2,", "U(aff1,")):
        # T(k,b), U(sl2,b) or U(aff1,b)
        kind, args = name[:-1].split("(")
        left, budget = args.split(",")
        if kind == "T":
            return TruncatedTensor(int(left), int(budget))
        return TruncatedEnveloping({"sl2": SL2, "aff1": AFF1}[left], int(budget))
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


def vector_key(u) -> tuple:
    """A hashable key of a coordinate vector: its entries other than the
    shared ZERO, so that equal keys mean equal vectors."""
    return tuple([(i, c) for i, c in enumerate(u) if c is not ZERO])


class MemoProducts:
    """A carrier whose vector products are memoized, and which reads every
    other attribute from the carrier itself.  The verbatim references
    multiply the same pairs of vectors many times; handing them this
    carrier leaves their code and every value they compute as they are.
    A product that raises is not stored, so it raises again."""

    def __init__(self, h):
        self.carrier = h
        self.products = {}

    def __getattr__(self, name):
        return getattr(self.carrier, name)

    def mult_vec(self, u, v):
        key = (vector_key(u), vector_key(v))
        out = self.products.get(key)
        if out is None:
            out = self.products[key] = self.carrier.mult_vec(u, v)
        return list(out)


# -- properties ---------------------------------------------------------------------

@pytest.mark.parametrize("name", CARRIERS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_reports_match_reference(name, data):
    h = carrier(name)
    m = data.draw(matrices(name))
    memo = MemoProducts(h)
    d = mat_map(h, h, m)
    assert coalgebra_map_report(h, h, d) == reference_coalgebra_hom_report(h, m)
    assert diff_identity_report(h, d) == reference_diff_identity_report(memo, m)
    assert is_coalgebra_hom(d) == reference_is_coalgebra_hom(d)
    got = check_diffop(h, d)
    want = reference_check_diffop(memo, m)
    if isinstance(want, CheckReport):
        assert got == want
    else:
        assert isinstance(got, DiffOp) and got.map.matrix == m
        inverse = inverse_columns(got.map.cols)
        want_inverse = reference_inverse([m.row(i) for i in range(m.rows)])
        assert (None if inverse is None else LinMap(h, h, inverse).matrix) == \
            (None if want_inverse is None else Mat.from_rows(want_inverse))
        assert got.bijective == (inverse is not None)


@pytest.mark.parametrize("name", ["T(2,2)", "T(2,3)"])
def test_diff_identity_skips_name_the_first_product_out_of_budget(name):
    """D(1) = 1 + b and D = 0 on every other word: D(1) D(1) = 1 + 2b + bb
    has terms of three degrees, so its product with S(x) for a word x of
    degree 2 leaves the budget at two degrees.  Each skip names the one
    that the rational evaluation meets first."""
    h = carrier(name)
    col = basis_vec(h.dim, 0)
    col[h.index[(1,)]] = ONE
    m = Mat.from_cols([col] + [zero_vec(h.dim)] * (h.dim - 1))
    assert diff_identity_report(h, mat_map(h, h, m)) == \
        reference_diff_identity_report(MemoProducts(h), m)


@pytest.mark.parametrize("name", CARRIERS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_convolve_matches_reference(name, data):
    h = carrier(name)
    f = mat_map(h, h, data.draw(matrices(name)))
    g = mat_map(h, h, data.draw(matrices(name)))
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
        (iu,), du = int_columns([u])
        (iv,), dv = int_columns([v])
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
    f, g = mat_map(k, h, m), mat_map(k, h, data.draw(matrices("kC2xC2", h.dim, k.dim)))
    assert convolve(f, g) == reference_convolve(f, g)
    assert is_coalgebra_hom(f) == reference_is_coalgebra_hom(f)


# -- derivation actions and primitive equations, kept verbatim -------------------

def reference_derivation(action, x: int, u):
    """Apply the derivation of acting generator x to u."""
    t = action.target
    out = zero_vec(t.dim)
    for i, c in enumerate(u):
        if not c:
            continue
        factors = t.monomial_factors(i)
        for pos in range(len(factors)):
            pieces = [t.generator_vec(g) for g in factors]
            pieces[pos] = action.gen_images[x][factors[pos]]
            term = t.unit_vec()
            for piece in pieces:
                term = t.mult_vec(term, piece)
            out = vec_add(out, vec_scale(c, term))
    return out


def reference_act_basis(action, a: int, u):
    """Module action of an acting basis monomial, by composing the
    derivations of its factors."""
    out = list(u)
    for x in reversed(action.acting.monomial_factors(a)):
        out = reference_derivation(action, x, out)
    return out


def reference_act(action, a_vec, u):
    out = zero_vec(action.target.dim)
    for a, c in enumerate(a_vec):
        if c:
            out = vec_add(out, vec_scale(c, reference_act_basis(action, a, u)))
    return out


def reference_truncated_primitives(carrier):
    """Reduced-echelon basis of the primitives of a truncated carrier,
    by exact linear algebra on the total comultiplication."""
    n = carrier.dim
    unit = carrier.unit_vec()
    rows = []
    for a in range(n):
        for b in range(n):
            row = [ZERO] * n
            for m in range(n):
                for (i, j, c) in carrier.comult_triples(m):
                    if i == a and j == b:
                        row[m] += c
            for m, c in enumerate(unit):
                if c:
                    # c (x) 1 and 1 (x) c
                    if b == m:
                        row[a] -= c
                    if a == m:
                        row[b] -= c
            if any(row):
                rows.append(row)
    return reference_solve_affine(rows, [ZERO] * len(rows), n)[1]


def reference_extended_action_bialgebra_check(carrier, action) -> CheckReport:
    """Module-bialgebra axioms of the derivation-extended action on all
    in-budget basis tuples."""
    n = carrier.dim
    failures = []
    skipped = []
    checked = 0
    # module associativity: (m1 m2) . x = m1 . (m2 . x)
    for a in range(n):
        for b in range(n):
            for x in range(n):
                try:
                    ab = carrier.mult_basis(a, b)
                    lhs = reference_act(action, ab, basis_vec(n, x))
                    rhs = reference_act_basis(action, a, reference_act_basis(
                        action, b, basis_vec(n, x)))
                except OutOfBudgetError:
                    skipped.append(("module", a, b, x))
                    continue
                checked += 1
                if lhs != rhs:
                    failures.append(("module", a, b, x))
    # module algebra: a . (xy) = (a1 . x)(a2 . y)
    for a in range(n):
        for x in range(n):
            for y in range(n):
                try:
                    xy = carrier.mult_basis(x, y)
                    lhs = reference_act_basis(action, a, xy)
                    rhs = zero_vec(n)
                    for (a1, a2, c) in carrier.comult_triples(a):
                        rhs = vec_add(rhs, vec_scale(c, carrier.mult_vec(
                            reference_act_basis(action, a1, basis_vec(n, x)),
                            reference_act_basis(action, a2, basis_vec(n, y)))))
                except OutOfBudgetError:
                    skipped.append(("module-algebra", a, x, y))
                    continue
                checked += 1
                if lhs != rhs:
                    failures.append(("module-algebra", a, x, y))
    # module bialgebra: counit and comultiplication compatibility
    for a in range(n):
        for x in range(n):
            try:
                acted = reference_act_basis(action, a, basis_vec(n, x))
                lhs = carrier.comult_vec(acted)
                rhs: dict = {}
                for (a1, a2, c) in carrier.comult_triples(a):
                    for (x1, x2, e) in carrier.comult_triples(x):
                        left = reference_act_basis(action, a1, basis_vec(n, x1))
                        right = reference_act_basis(action, a2, basis_vec(n, x2))
                        for p, lv in enumerate(left):
                            if not lv:
                                continue
                            for q, rv in enumerate(right):
                                if rv:
                                    key = (p, q)
                                    rhs[key] = rhs.get(key, ZERO) + c * e * lv * rv
            except OutOfBudgetError:
                skipped.append(("bialgebra", a, x))
                continue
            checked += 1
            if carrier.counit_vec(acted) != carrier.counit_coeff(a) * carrier.counit_coeff(x):
                failures.append(("counit", a, x))
                continue
            rhs = {k: v for k, v in rhs.items() if v}
            if lhs != rhs:
                failures.append(("comult", a, x))
    return CheckReport(not failures, failures, skipped, checked)


# -- derivation actions drawn from the pool --------------------------------------

ACTION_CARRIERS = ["T(2,3)", "T(3,2)", "U(sl2,2)"]
nonzero = st.sampled_from([c for c in COEFF_POOL if c])


@st.composite
def vectors(draw, h):
    """Zero; a sparse combination of basis elements, of degree at most one
    or of any degree (top-degree ones leave the budget once multiplied); or
    a multiple of a commutator of generators, whose terms cancel under
    further derivations."""
    kind = draw(st.sampled_from(["zero", "low", "low", "any", "commutator"]))
    if kind == "zero":
        return zero_vec(h.dim)
    if kind == "commutator":
        k = h.generators
        xv, yv = (h.generator_vec(draw(st.integers(0, k - 1))) for _ in range(2))
        return vec_scale(draw(nonzero), vec_sub(h.mult_vec(xv, yv), h.mult_vec(yv, xv)))
    top = h.generators if kind == "low" else h.dim - 1
    out = zero_vec(h.dim)
    for i in draw(st.lists(st.integers(0, top), min_size=1, max_size=4)):
        out[i] += draw(nonzero)
    return out


@st.composite
def derivation_actions(draw, name):
    """A derivation action of a carrier on itself.  Two generator images
    may be opposite, so that a sum of their Leibniz terms cancels."""
    h = carrier(name)
    k = h.generators
    images = [[draw(vectors(h)) for _ in range(k)] for _ in range(k)]
    if draw(st.booleans()):
        x, y, z = (draw(st.integers(0, k - 1)) for _ in range(3))
        images[x][y] = vec_scale(-1, images[z][y] if x != z else images[x][(y + 1) % k])
    return DerivationAction(h, h, images)


def budget_outcome(fn, *args):
    """The value, or the message and degrees of the OutOfBudgetError."""
    try:
        return fn(*args)
    except OutOfBudgetError as exc:
        return ("out of budget", str(exc), exc.degrees)


@pytest.mark.parametrize("name", ACTION_CARRIERS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_derivation_action_matches_reference(name, data):
    """Every value, or the same error, on a shared action: later calls read
    columns and stored errors that earlier calls tabulated."""
    h = carrier(name)
    action = data.draw(derivation_actions(name))
    for _ in range(3):
        u = data.draw(vectors(h))
        for x in range(h.generators):
            # the acting generator x is the basis monomial g of one factor
            g = h.generator_vec(x).index(1)
            assert (budget_outcome(action.act_basis, g, u)
                    == budget_outcome(reference_derivation, action, x, u))
        a = data.draw(st.integers(0, h.dim - 1))
        assert (budget_outcome(action.act_basis, a, u)
                == budget_outcome(reference_act_basis, action, a, u))
        a_vec = data.draw(vectors(h))
        assert (budget_outcome(action.act, a_vec, u)
                == budget_outcome(reference_act, action, a_vec, u))


@pytest.mark.parametrize("name", ["T(2,2)", "T(2,3)", "T(3,2)", "U(sl2,2)", "T(2,4)"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_action_bialgebra_check_matches_reference(name, data):
    """Whole reports, skip lists in order included.  T(2,4) is the carrier
    of `free-lie mm-check` at budget 4, with its adjoint action only."""
    h = carrier(name)
    if name == "T(2,4)" or data.draw(st.booleans()):
        action = adjoint_derivation_action(h)
    else:
        action = data.draw(derivation_actions(name))
    reference = with_memoized_action(reference_extended_action_bialgebra_check)
    assert extended_action_bialgebra_check(action) == reference(h, action)


def with_memoized_action(reference):
    """The reference's own code, with its module action read through
    memos: its calls of reference_act_basis and reference_act evaluate
    each (acting element, vector) once and answer repeats from the memo,
    a stored OutOfBudgetError raised again as a fresh copy.  Each tuple
    still evaluates and skips exactly as the code says."""
    scope = dict(globals())

    def memoized(fn):
        memo: dict = {}

        def call(action, a, u):
            key = (a if isinstance(a, int) else vector_key(a), vector_key(u))
            value = memo.get(key)
            if value is None:
                try:
                    value = fn(action, a, u)
                except OutOfBudgetError as exc:
                    value = exc
                memo[key] = value
            if isinstance(value, OutOfBudgetError):
                raise OutOfBudgetError(str(value), value.degrees)
            return list(value)

        return call

    scope["reference_act_basis"] = memoized(reference_act_basis)
    scope["reference_act"] = memoized(types.FunctionType(reference_act.__code__, scope))
    return types.FunctionType(reference.__code__, scope)


def reference_module_axiom_report(k, h, act) -> CheckReport:
    """The three module-axiom loops with every tuple evaluated from scratch
    in rational arithmetic; a tuple whose evaluation raises
    OutOfBudgetError is skipped."""
    failures = []
    skipped = []
    checked = 0

    def e(x):
        return basis_vec(h.dim, x)

    for a, b, x in itertools.product(range(k.dim), range(k.dim), range(h.dim)):
        try:
            lhs = zero_vec(h.dim)
            for m, c in enumerate(k.mult_basis(a, b)):
                if c:
                    lhs = vec_add(lhs, vec_scale(c, act(m, e(x))))
            rhs = act(a, act(b, e(x)))
        except OutOfBudgetError:
            skipped.append(("module", a, b, x))
            continue
        checked += 1
        if lhs != rhs:
            failures.append(("module", a, b, x))
    for a, x, y in itertools.product(range(k.dim), range(h.dim), range(h.dim)):
        try:
            lhs = act(a, h.mult_basis(x, y))
            rhs = zero_vec(h.dim)
            for (a1, a2, c) in k.comult_triples(a):
                rhs = vec_add(rhs, vec_scale(c, h.mult_vec(act(a1, e(x)), act(a2, e(y)))))
        except OutOfBudgetError:
            skipped.append(("module-algebra", a, x, y))
            continue
        checked += 1
        if lhs != rhs:
            failures.append(("module-algebra", a, x, y))
    for a, x in itertools.product(range(k.dim), range(h.dim)):
        try:
            value = act(a, e(x))
            rhs: dict = {}
            for (a1, a2, c) in k.comult_triples(a):
                for (x1, x2, d) in h.comult_triples(x):
                    for key, v in reference_tensor_of(act(a1, e(x1)), act(a2, e(x2))).items():
                        rhs[key] = rhs.get(key, ZERO) + c * d * v
        except OutOfBudgetError:
            skipped.append(("bialgebra", a, x))
            continue
        checked += 1
        if h.counit_vec(value) != k.counit_coeff(a) * h.counit_coeff(x):
            failures.append(("counit", a, x))
        elif h.comult_vec(value) != {key: v for key, v in rhs.items() if v}:
            failures.append(("comult", a, x))
    return CheckReport(not failures, failures, skipped, checked)


def test_module_axiom_report_skips_by_the_leg_that_needs_a_value():
    """H4 is not cocommutative: D(x) = g (x) x + x (x) 1, so the value g . e_y
    that a module-algebra tuple (x, y', y) of the action of H4 on T(2,2)
    needs on its first leg is not needed on its second.  Here g . u leaves
    the budget once u has a term of degree 2, so (x, y, 1) is skipped for
    a word y of degree 2, and (x, 1, y) is checked."""
    h4, tv = catalog.build("H4"), carrier("T(2,2)")

    class SignAction(IntAction):
        """x acts by -1 and every other basis element of H4 by 1, and g
        raises on a vector with a term of degree 2."""

        acting, target, den = h4, tv, 1

        def act_int(self, a, u):
            if a == 1 and any(tv.degree(i) == 2 for i, _ in u):
                raise OutOfBudgetError("g . u leaves the budget")
            return [(i, -m if a == 2 else m) for i, m in u]

    action = SignAction()
    got = module_axiom_report(action)
    assert got == reference_module_axiom_report(h4, tv, action.act_rational)
    y = tv.index[(0, 1)]
    assert ("module-algebra", 2, y, 0) in got.skipped
    assert ("module-algebra", 2, 0, y) not in got.skipped


@pytest.mark.parametrize("name", ACTION_CARRIERS + ["T(2,5)", "U(e)#kC2"])
def test_truncated_primitives_match_reference(name):
    h = carrier(name)
    assert primitives(h) == reference_truncated_primitives(h)


# -- truncated checkers and smash builders, kept verbatim ------------------------

def reference_verify_trunc_diffop(tv, d_cols) -> CheckReport:
    """Coalgebra-homomorphism and difference-identity checks for a
    partially defined operator on a truncated carrier."""
    n = tv.dim
    failures = []
    skipped = []
    checked = 0
    for i in range(n):
        if d_cols[i] is None:
            continue
        if tv.counit_vec(d_cols[i]) != tv.counit_coeff(i):
            failures.append(("counit", tv.label(i)))
        lhs = tv.comult_vec(d_cols[i])
        rhs: dict = {}
        partial = False
        for (a, b, c) in tv.comult_triples(i):
            if d_cols[a] is None or d_cols[b] is None:
                partial = True
                break
            for p, x in enumerate(d_cols[a]):
                if not x:
                    continue
                for q, y in enumerate(d_cols[b]):
                    if y:
                        key = (p, q)
                        rhs[key] = rhs.get(key, ZERO) + c * x * y
        if partial:
            skipped.append(("coalgebra", tv.label(i)))
        else:
            rhs = {k: v for k, v in rhs.items() if v}
            if lhs != rhs:
                failures.append(("coalgebra", tv.label(i)))
    sweedler3: dict = {}
    for i in range(n):
        acc: dict = {}
        for (a, b, c) in tv.comult_triples(i):
            for (a1, a2, c2) in tv.comult_triples(a):
                key = (a1, a2, b)
                acc[key] = acc.get(key, ZERO) + c * c2
        sweedler3[i] = {k: v for k, v in acc.items() if v}
    for i in range(n):
        for j in range(n):
            try:
                prod = tv.mult_basis(i, j)
            except OutOfBudgetError:
                skipped.append(("pair", tv.label(i), tv.label(j)))
                continue
            try:
                lhs = zero_vec(n)
                for k, c in enumerate(prod):
                    if c:
                        if d_cols[k] is None:
                            raise OutOfBudgetError("image unknown")
                        lhs = vec_add(lhs, vec_scale(c, d_cols[k]))
                rhs = zero_vec(n)
                for (t1, t2, t3), c in sweedler3[i].items():
                    if d_cols[t1] is None or d_cols[j] is None:
                        raise OutOfBudgetError("image unknown")
                    term = tv.mult_vec(d_cols[t1], basis_vec(n, t2))
                    term = tv.mult_vec(term, d_cols[j])
                    term = tv.mult_vec(term, tv.antipode_basis(t3))
                    rhs = vec_add(rhs, vec_scale(c, term))
            except OutOfBudgetError:
                skipped.append(("pair", tv.label(i), tv.label(j)))
                continue
            checked += 1
            if lhs != rhs:
                failures.append(("pair", tv.label(i), tv.label(j)))
    return CheckReport(not failures, failures, skipped, checked)



def reference_cols_at(cols, carrier, u: Vec):
    """Apply a partially defined column table to a vector."""
    out = zero_vec(carrier.dim)
    for i, c in enumerate(u):
        if not c:
            continue
        if cols[i] is None:
            raise OutOfBudgetError("image column unknown")
        out = vec_add(out, vec_scale(c, cols[i]))
    return out


def reference_verify_crossed_hom_trunc(carrier, action: DerivationAction, cols) -> CheckReport:
    """Coalgebra-map and crossed-homomorphism checks for a partially
    defined map on a truncated carrier, with skip accounting."""
    n = carrier.dim
    failures = []
    skipped = []
    checked = 0
    for i in range(n):
        if cols[i] is None:
            skipped.append(("column", carrier.label(i)))
            continue
        if carrier.counit_vec(cols[i]) != carrier.counit_coeff(i):
            failures.append(("counit", carrier.label(i)))
        lhs = carrier.comult_vec(cols[i])
        rhs: dict = {}
        partial = False
        for (a, b, c) in carrier.comult_triples(i):
            if cols[a] is None or cols[b] is None:
                partial = True
                break
            for p, x in enumerate(cols[a]):
                if not x:
                    continue
                for q, y in enumerate(cols[b]):
                    if y:
                        key = (p, q)
                        rhs[key] = rhs.get(key, ZERO) + c * x * y
        if partial:
            skipped.append(("coalgebra", carrier.label(i)))
            continue
        rhs = {k: v for k, v in rhs.items() if v}
        if lhs != rhs:
            failures.append(("coalgebra", carrier.label(i)))
    for i in range(n):
        for j in range(n):
            try:
                prod = carrier.mult_basis(i, j)
                lhs = reference_cols_at(cols, carrier, prod)
                rhs = zero_vec(n)
                for (a1, a2, c) in carrier.comult_triples(i):
                    if cols[a1] is None or cols[j] is None:
                        raise OutOfBudgetError("image unknown")
                    acted = action.act_basis(a2, cols[j])
                    rhs = vec_add(rhs, vec_scale(c, carrier.mult_vec(cols[a1], acted)))
            except OutOfBudgetError:
                skipped.append(("pair", carrier.label(i), carrier.label(j)))
                continue
            checked += 1
            if lhs != rhs:
                failures.append(("pair", carrier.label(i), carrier.label(j)))
    return CheckReport(not failures, failures, skipped, checked)


def reference_crossed_hom_report(k, h, cols, act) -> CheckReport:
    """The crossed-homomorphism verdict, skip-aware, with no precondition
    checks: the coalgebra_map_report entries of pi, then
    pi(ab) = pi(a1)(a2 . pi(b)) on all basis pairs (a, b) of K, in rational
    arithmetic; a skipped pair carries the message of the first error."""
    co = coalgebra_map_report(k, h, cols)
    failures = co.failures
    skipped = co.skipped
    checked = 0
    for a in range(k.dim):
        for b in range(k.dim):
            try:
                lhs = apply_cols(cols, k.mult_basis(a, b), h.dim)
                rhs = zero_vec(h.dim)
                for (a1, a2, c) in k.comult_triples(a):
                    if cols[a1] is None or cols[b] is None:
                        raise OutOfBudgetError("image unknown")
                    rhs = vec_add(rhs, vec_scale(c, h.mult_vec(cols[a1], act(a2, cols[b]))))
            except OutOfBudgetError as exc:
                skipped.append((a, b, str(exc)))
                continue
            checked += 1
            if lhs != rhs:
                failures.append((a, b))
    return CheckReport(not failures, failures, skipped, checked)


def reference_smash_product(action: ActionData, name: str | None = None) -> FinDimHopf:
    """H # K for a module-bialgebra action of a cocommutative K.

    Basis pairs (x, a) in row-major order; multiplication
    (x # a)(y # b) = x(a1 . y) # a2 b and antipode
    S(x # a) = (S(a1) . S(x)) # S(a2).
    """
    k, h = action.acting, action.target
    if not is_cocommutative(k):
        raise ValueError("the acting Hopf algebra must be cocommutative")
    rep = validate_action(action, require_bialgebra=True)
    if not rep.ok:
        raise ValueError(f"action is not a module bialgebra: {rep.failures()}")

    nh, nk = h.dim, k.dim
    n = nh * nk

    def enc(x, a):
        return x * nk + a

    labels = [f"{h.label(x)}#{k.label(a)}" for x in range(nh) for a in range(nk)]

    mult = [[None] * n for _ in range(n)]
    for x in range(nh):
        for a in range(nk):
            for y in range(nh):
                for b in range(nk):
                    cell = zero_vec(n)
                    for (a1, a2, c) in k.comult_triples(a):
                        hpart = h.mult_vec(basis_vec(nh, x), action.tensor[a1][y])
                        kpart = k.mult_basis(a2, b)
                        for p, hv in enumerate(hpart):
                            if not hv:
                                continue
                            for q, kv in enumerate(kpart):
                                if kv:
                                    cell[enc(p, q)] += c * hv * kv
                    mult[enc(x, a)][enc(y, b)] = cell

    unit = zero_vec(n)
    for p, hv in enumerate(h.unit_vec()):
        for q, kv in enumerate(k.unit_vec()):
            if hv and kv:
                unit[enc(p, q)] = hv * kv

    comult = []
    for x in range(nh):
        for a in range(nk):
            triples = []
            for (x1, x2, c) in h.comult_triples(x):
                for (a1, a2, d) in k.comult_triples(a):
                    triples.append((enc(x1, a1), enc(x2, a2), c * d))
            comult.append(triples)

    counit = [h.counit_coeff(x) * k.counit_coeff(a) for x in range(nh) for a in range(nk)]

    cols = []
    for x in range(nh):
        for a in range(nk):
            col = zero_vec(n)
            sx = h.antipode_basis(x)
            for (a1, a2, c) in k.comult_triples(a):
                hpart = action.act(k.antipode_basis(a1), sx)
                kpart = k.antipode_basis(a2)
                for p, hv in enumerate(hpart):
                    if not hv:
                        continue
                    for q, kv in enumerate(kpart):
                        if kv:
                            col[enc(p, q)] += c * hv * kv
            cols.append(col)
    antipode = Mat.from_cols(cols)

    corad = None
    if h.coradical_group_basis is not None and k.coradical_group_basis is not None:
        if set(h.coradical_group_basis) == set(range(nh)) and \
           set(k.coradical_group_basis) == set(range(nk)):
            corad = list(range(n))

    smash = FinDimHopf(name or f"{h.name}#{k.name}", labels, mult, unit, comult,
                       counit, antipode, coradical_group_basis=corad)
    rep = validate_hopf(smash)
    if not rep.ok:
        raise AssertionError(f"smash product failed Hopf axioms: {rep.failures()}")
    return smash


def reference_smash_product_algebra_only(action: ActionData) -> FinDimHopf:
    """The smash multiplication on H (x) K without the Hopf-side
    preconditions; only the algebra structure is trustworthy.  Used for
    graph closure tests, which need nothing else."""
    k, h = action.acting, action.target
    nh, nk = h.dim, k.dim
    n = nh * nk

    def enc(x, a):
        return x * nk + a

    labels = [f"{h.label(x)}#{k.label(a)}" for x in range(nh) for a in range(nk)]
    mult = [[None] * n for _ in range(n)]
    for x in range(nh):
        for a in range(nk):
            for y in range(nh):
                for b in range(nk):
                    cell = zero_vec(n)
                    for (a1, a2, c) in k.comult_triples(a):
                        hpart = h.mult_vec(basis_vec(nh, x), action.tensor[a1][y])
                        kpart = k.mult_basis(a2, b)
                        for p, hv in enumerate(hpart):
                            if not hv:
                                continue
                            for q, kv in enumerate(kpart):
                                if kv:
                                    cell[enc(p, q)] += c * hv * kv
                    mult[enc(x, a)][enc(y, b)] = cell
    unit = zero_vec(n)
    unit[enc(0, 0)] = ONE
    for p, hv in enumerate(h.unit_vec()):
        for q, kv in enumerate(k.unit_vec()):
            unit[enc(p, q)] = hv * kv
    comult = []
    for x in range(nh):
        for a in range(nk):
            comult.append([
                (enc(x1, a1), enc(x2, a2), c * d)
                for (x1, x2, c) in h.comult_triples(x)
                for (a1, a2, d) in k.comult_triples(a)
            ])
    counit = [h.counit_coeff(x) * k.counit_coeff(a) for x in range(nh) for a in range(nk)]
    antipode = Mat.identity(n)  # placeholder: not part of the algebra-only contract
    return FinDimHopf(f"{h.name}#{k.name}(alg)", labels, mult, unit, comult,
                      counit, antipode)


# -- partial column tables and smash products --------------------------------------

class AdjointAction(IntAction):
    """a . u = a1 u S(a2) on a carrier, through its own rational products; a
    product that leaves the budget raises, so the pairs that need it are
    skipped.  The carriers here have integer structure constants, so the
    action takes integer vectors to integer vectors and den is 1."""

    den = 1

    def __init__(self, h):
        self.acting = self.target = self.h = h

    def act_basis(self, a, u):
        h = self.h
        out = zero_vec(h.dim)
        for (a1, a2, c) in h.comult_triples(a):
            left = h.mult_vec(basis_vec(h.dim, a1), u)
            out = vec_add(out, vec_scale(c, h.mult_vec(left, h.antipode_basis(a2))))
        return out

    def act_int(self, a, u):
        vec = zero_vec(self.h.dim)
        for k, m in u:
            vec[k] = Fraction(m)
        out = self.act_basis(a, vec)
        assert all(c.denominator == 1 for c in out)
        return [(k, c.numerator) for k, c in enumerate(out) if c]


PARTIAL_CARRIERS = ["T(2,2)", "T(2,3)", "U(e)#kC2"]


@cache
def column_seeds(name):
    """Column tables to perturb: the identity and u o eps, and on the tensor
    algebras the doubling difference operator and the crossed-hom extension
    of minus the letters."""
    h = carrier(name)
    tables = [[m.col(j) for j in range(h.dim)]
              for m in (identity_map(h).matrix, unit_counit_map(h).matrix)]
    if isinstance(h, TruncatedTensor):
        letters = [list(h.generator_vec(g)) for g in range(h.generators)]
        tables.append(column_table(diffop_from_hom(h, letters).details["D"], h.dim))
        neg = [[-c for c in v] for v in letters]
        tables.append(column_table(extend_crossed_hom_trunc(
            adjoint_derivation_action(h), neg).details["pibar"], h.dim))
    return tables


@st.composite
def partial_tables(draw, name):
    """A seed table with up to two entries redrawn and up to three columns
    made unknown."""
    h = carrier(name)
    cols = [None if c is None else list(c) for c in draw(st.sampled_from(column_seeds(name)))]
    for _ in range(draw(st.integers(0, 2))):
        j = draw(st.integers(0, h.dim - 1))
        if cols[j] is not None:
            cols[j][draw(st.integers(0, h.dim - 1))] = draw(coefficients)
    for j in draw(st.lists(st.integers(0, h.dim - 1), max_size=3)):
        cols[j] = None
    return cols


def assert_same_verdict(h, got: CheckReport, want: CheckReport, column_tag=None):
    """got, an index-keyed report of a surviving entry point, against want,
    a report of a rational reference above, labelled with basis words.

    got's entries are relabelled: (tag, k) as (tag, label k), and a pair
    failure (i, j) or skip (i, j, message) as ("pair", label i, label j).
    An unknown column's ("column", k) becomes (column_tag, label k), or is
    dropped where column_tag is None, as that reference does not record
    unknown columns.  The reference's ("counit", w) and ("coalgebra", w)
    failures at one word fold into one ("coalgebra", w), as
    coalgebra_map_report folds them (coalgebra_kinds keeps them apart).
    """
    def labelled(entries):
        out = []
        for tag, *rest in entries:
            if isinstance(tag, int):
                out.append(("pair", h.label(tag), h.label(rest[0])))
            elif tag != "column":
                out.append((tag, h.label(rest[0])))
            elif column_tag is not None:
                out.append((column_tag, h.label(rest[0])))
        return out

    folded = []
    for tag, *rest in want.failures:
        entry = ("coalgebra" if tag == "counit" else tag, *rest)
        if entry not in folded[-1:]:
            folded.append(entry)
    assert labelled(got.failures) == folded
    assert labelled(got.skipped) == want.skipped
    assert (got.ok, got.checked) == (want.ok, want.checked)


def coalgebra_kinds(h, cols):
    """coalgebra_map_failures of a column table in the references' labelled
    form: (failures, skipped), the failures ("counit", w) and
    ("coalgebra", w), the skips ("column", w) and ("coalgebra", w)."""
    failures = []
    skipped = []
    for k, kind in coalgebra_map_failures(h, h, cols):
        if kind in ("counit", "coalgebra"):
            failures.append((kind, h.label(k)))
        else:
            skipped.append(("column" if kind == "unknown" else "coalgebra", h.label(k)))
    return failures, skipped


@pytest.mark.parametrize("name", PARTIAL_CARRIERS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_truncated_diffop_check_matches_reference(name, data):
    h = carrier(name)
    cols = data.draw(partial_tables(name))
    got = check_diffop(h, cols)
    want = reference_verify_trunc_diffop(h, cols)
    assert_same_verdict(h, got, want)
    assert [e[1] for e in got.skipped if e[0] == "column"] == \
        [k for k, c in enumerate(cols) if c is None]
    failures, skipped = coalgebra_kinds(h, cols)
    assert failures == [e for e in want.failures if e[0] != "pair"]
    assert [e for e in skipped if e[0] != "column"] == \
        [e for e in want.skipped if e[0] != "pair"]


@pytest.mark.parametrize("name", PARTIAL_CARRIERS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_truncated_crossed_hom_check_matches_reference(name, data):
    h = carrier(name)
    cols = data.draw(partial_tables(name))
    kind = "rational"
    if isinstance(h, TruncatedTensor):
        kind = data.draw(st.sampled_from(["rational", "adjoint", "drawn"]))
    if kind == "adjoint":
        action = adjoint_derivation_action(h)
    elif kind == "drawn":
        # generator images from the pool give the action a denominator
        action = data.draw(derivation_actions(name))
    else:
        action = AdjointAction(h)
    want = reference_verify_crossed_hom_trunc(h, action, cols)
    got = crossed_hom_report(action, cols)
    assert_same_verdict(h, got, want, "column")
    if kind == "rational":
        assert got == reference_crossed_hom_report(h, h, cols, action.act_basis)
    else:
        assert got == reference_crossed_hom_report(
            h, h, cols, lambda a, u: reference_act_basis(action, a, u))
    failures, skipped = coalgebra_kinds(h, cols)
    assert failures == [e for e in want.failures if e[0] != "pair"]
    assert skipped == [e for e in want.skipped if e[0] != "pair"]


def test_crossed_hom_report_rejects_a_map_that_is_not_a_coalgebra_map():
    """The zero map on kC2 satisfies pi(ab) = pi(a1)(a2 . pi(b)) for the
    adjoint action on every pair, both sides being zero, but it is not a
    coalgebra map; the full verdict must say so at both basis elements."""
    kc2 = catalog.build("kC2")
    rep = crossed_hom_report(adjoint_action(kc2), [zero_vec(2), zero_vec(2)])
    assert not rep.ok
    assert rep.failures == [("coalgebra", 0), ("coalgebra", 1)]
    assert (rep.skipped, rep.checked) == ([], 4)


def reference_check_group_diffop(d: GroupMap) -> bool:
    """D(gh) = D(g) g D(h) g^-1 on all pairs."""
    if d.source is not d.target:
        raise ValueError("a group difference operator must map a group to itself")
    g = d.source
    for a in range(g.order):
        for b in range(g.order):
            rhs = g.mul(g.mul(g.mul(d(a), a), d(b)), g.inv(a))
            if d(g.mul(a, b)) != rhs:
                return False
    return True


@pytest.mark.parametrize("name", ["C2", "C4", "C2xC2"])
def test_check_group_diffop_matches_reference_on_every_self_map(name):
    g = catalog.build(name)
    verdicts = []
    for images in itertools.product(range(g.order), repeat=g.order):
        d = GroupMap(g, g, images)
        verdicts.append(check_group_diffop(d))
        assert verdicts[-1] == reference_check_group_diffop(d), images
    assert any(verdicts) and not all(verdicts)


SMASH_ACTIONS = ["action:inv:kC2:kC4", "kC2", "kC2xC2", "kS3", "kC4"]


def smash_action(name):
    """A catalog action, or the adjoint action of a catalog algebra."""
    built = catalog.build(name)
    return built if isinstance(built, ActionData) else adjoint_action(built)


@pytest.mark.parametrize("name", SMASH_ACTIONS)
def test_smash_export_matches_reference(name):
    action = smash_action(name)
    assert (formats.algebra_to_dict(smash_product(action))
            == formats.algebra_to_dict(reference_smash_product(action)))


def test_smash_builder_matches_algebra_only_reference_on_h8():
    """H8 is not cocommutative, so smash_product refuses its adjoint action;
    the builder's algebra and coalgebra data must still be the reference's."""
    adj = adjoint_action(catalog.build("H8"))
    b = TruncatedSmash(adj)
    ref = reference_smash_product_algebra_only(adj)
    n = ref.dim
    assert b.dim == n and [b.label(i) for i in range(n)] == ref.basis
    assert all(b.mult_basis(i, j) == ref.mult_basis(i, j) for i in range(n) for j in range(n))
    assert b.unit_vec() == ref.unit
    assert [b.counit_coeff(i) for i in range(n)] == [ref.counit_coeff(i) for i in range(n)]
    assert ([sorted(t for t in b.comult_triples(i) if t[2]) for i in range(n)]
            == [ref.comult_triples(i) for i in range(n)])


# -- Hopf axioms, kept verbatim -----------------------------------------------------

def reference_first_witness(fails):
    return fails[0] if fails else None


def reference_validate_hopf(h: FinDimHopf) -> AxiomReport:
    """Check every Hopf axiom exhaustively on basis tuples."""
    report = AxiomReport()
    n = h.dim

    fails = []
    for j in range(n):
        left = h.mult_vec(h.unit_vec(), basis_vec(n, j))
        right = h.mult_vec(basis_vec(n, j), h.unit_vec())
        if left != basis_vec(n, j) or right != basis_vec(n, j):
            fails.append((j,))
    report.record("unit", not fails, reference_first_witness(fails))

    fails = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = h.mult_vec(h.mult_basis(i, j), basis_vec(n, k))
                rhs = h.mult_vec(basis_vec(n, i), h.mult_basis(j, k))
                if lhs != rhs:
                    fails.append((i, j, k))
    report.record("associativity", not fails, reference_first_witness(fails))

    fails = []
    for k in range(n):
        left = zero_vec(n)
        right = zero_vec(n)
        for (i, j, c) in h.comult_triples(k):
            left = vec_add(left, vec_scale(c * h.counit_coeff(i), basis_vec(n, j)))
            right = vec_add(right, vec_scale(c * h.counit_coeff(j), basis_vec(n, i)))
        if left != basis_vec(n, k) or right != basis_vec(n, k):
            fails.append((k,))
    report.record("counit", not fails, reference_first_witness(fails))

    fails = []
    for k in range(n):
        lhs: dict = {}
        rhs: dict = {}
        for (i, j, c) in h.comult_triples(k):
            for (a, b, d) in h.comult_triples(i):
                key = (a, b, j)
                lhs[key] = lhs.get(key, ZERO) + c * d
            for (a, b, d) in h.comult_triples(j):
                key = (i, a, b)
                rhs[key] = rhs.get(key, ZERO) + c * d
        lhs = {key: v for key, v in lhs.items() if v}
        rhs = {key: v for key, v in rhs.items() if v}
        if lhs != rhs:
            fails.append((k,))
    report.record("coassociativity", not fails, reference_first_witness(fails))

    fails = []
    if h.comult_vec(h.unit_vec()) != reference_tensor_of(h.unit_vec(), h.unit_vec()):
        fails.append(("unit",))
    if h.counit_vec(h.unit_vec()) != ONE:
        fails.append(("counit-of-unit",))
    for i in range(n):
        for j in range(n):
            prod = h.mult_basis(i, j)
            lhs = h.comult_vec(prod)
            rhs = reference_tensor_mult(h, h.comult_vec(basis_vec(n, i)), h.comult_vec(basis_vec(n, j)))
            if lhs != rhs:
                fails.append((i, j))
                continue
            if h.counit_vec(prod) != h.counit_coeff(i) * h.counit_coeff(j):
                fails.append((i, j))
    report.record("bialgebra", not fails, reference_first_witness(fails))

    fails = []
    for k in range(n):
        left = zero_vec(n)
        right = zero_vec(n)
        for (i, j, c) in h.comult_triples(k):
            left = vec_add(left, vec_scale(c, h.mult_vec(h.antipode_basis(i), basis_vec(n, j))))
            right = vec_add(right, vec_scale(c, h.mult_vec(basis_vec(n, i), h.antipode_basis(j))))
        expected = h.scalars_to_unit(h.counit_coeff(k))
        if left != expected or right != expected:
            fails.append((k,))
    report.record("antipode", not fails, reference_first_witness(fails))

    return report


def reference_tensor_of(u: Vec, v: Vec) -> dict:
    out = {}
    for i, a in enumerate(u):
        if not a:
            continue
        for j, b in enumerate(v):
            if b:
                out[(i, j)] = a * b
    return out


def reference_tensor_mult(h, s: dict, t: dict) -> dict:
    """Product in H (x) H of two sparse tensors."""
    out: dict = {}
    for (i1, j1), a in s.items():
        for (i2, j2), b in t.items():
            c = a * b
            left = h.mult_basis(i1, i2)
            right = h.mult_basis(j1, j2)
            for k1, x in enumerate(left):
                if not x:
                    continue
                for k2, y in enumerate(right):
                    if y:
                        key = (k1, k2)
                        out[key] = out.get(key, ZERO) + c * x * y
    return {k: v for k, v in out.items() if v}


def test_validate_hopf_matches_reference_on_catalog():
    names = [name for name in catalog.names()
             if isinstance(catalog.build(name), FinDimHopf)]
    assert len(names) >= 7
    for name in names:
        h = catalog.build(name)
        assert validate_hopf(h).checks == reference_validate_hopf(h).checks, name
    smash = carrier("smash:inv:kC2:kC4")
    assert validate_hopf(smash).checks == reference_validate_hopf(smash).checks


@st.composite
def perturbed_algebras(draw):
    """A catalog algebra with one structure constant replaced by a pool
    coefficient, or one whole structure table scaled by one: the
    multiplication, comultiplication, counit, antipode or unit."""
    h = catalog.build(draw(st.sampled_from(FINITE + ["kC2", "kC4", "kD4"])))
    n = h.dim
    mult = [[h.mult_basis(i, j) for j in range(n)] for i in range(n)]
    unit = list(h.unit)
    comult = [h.comult_triples(k) for k in range(n)]
    counit = [h.counit_coeff(i) for i in range(n)]
    antipode = list(Mat.from_cols([h.antipode_basis(j) for j in range(n)]).entries)
    index = st.integers(0, n - 1)

    def position(vec):
        """Half the time one of the vector's nonzero entries, if it has any."""
        nonzero = [k for k, x in enumerate(vec) if x]
        if nonzero and draw(st.booleans()):
            return draw(st.sampled_from(nonzero))
        return draw(st.integers(0, len(vec) - 1))

    part = draw(st.sampled_from(["mult", "comult", "counit", "antipode", "unit"]))
    if draw(st.booleans()):
        c = draw(st.sampled_from([x for x in COEFF_POOL if x]))
        if part == "mult":
            mult = [[[c * x for x in cell] for cell in row] for row in mult]
        elif part == "comult":
            comult = [[(i, j, c * x) for (i, j, x) in t] for t in comult]
        elif part == "counit":
            counit = [c * x for x in counit]
        elif part == "antipode":
            antipode = [c * x for x in antipode]
        else:
            unit = [c * x for x in unit]
    else:
        c = draw(coefficients)
        if part == "mult":
            cell = mult[draw(index)][draw(index)]
            cell[position(cell)] = c
        elif part == "comult":
            comult[draw(index)].append((draw(index), draw(index), c))
        elif part == "counit":
            counit[draw(index)] = c
        elif part == "antipode":
            antipode[position(antipode)] = c
        else:
            unit[position(unit)] = c
    return FinDimHopf(h.name, h.basis, mult, unit, comult, counit,
                      Mat(n, n, antipode), h.coradical_group_basis)


@settings(max_examples=100, deadline=None)
@given(h=perturbed_algebras())
def test_validate_hopf_matches_reference_on_perturbed_algebras(h):
    assert validate_hopf(h).checks == reference_validate_hopf(h).checks


# -- generator-closure verdicts against the full scans, kept verbatim -----------------

def reference_scan_validate_hopf(h: FinDimHopf) -> AxiomReport:
    """Check every Hopf axiom exhaustively on basis tuples.

    The checks run on the integer structure table; each side of an
    identity is compared after cross-multiplying by the denominators the
    other side carries.
    """
    report = AxiomReport()
    n = h.dim
    t = int_structure(h)
    md, cd, ed, ad = t.mult_den, t.comult_den, t.counit_den, t.antipode_den
    uden, (unit,) = _sparse_ints([h.unit_vec()])

    def basis(i):
        return ((i, 1),)

    fails = []
    for j in range(n):
        # unit e_j and e_j unit carry md * uden
        one = [(j, md * uden)]
        if t.mul(unit, basis(j)) != one or t.mul(basis(j), unit) != one:
            fails.append((j,))
    report.record("unit", not fails, _first_witness(fails))

    fails = []
    for i in range(n):
        for j in range(n):
            ij = t.mult[i][j]
            for k in range(n):
                if t.mul(ij, basis(k)) != t.mul(basis(i), t.mult[j][k]):
                    fails.append((i, j, k))
    report.record("associativity", not fails, _first_witness(fails))

    fails = []
    for k in range(n):
        left: dict = {}
        right: dict = {}
        for (i, j, c) in t.comult[k]:
            left[j] = left.get(j, 0) + c * t.counit[i]
            right[i] = right.get(i, 0) + c * t.counit[j]
        expected = {k: cd * ed}
        if _nonzero(left) != expected or _nonzero(right) != expected:
            fails.append((k,))
    report.record("counit", not fails, _first_witness(fails))

    fails = []
    for k in range(n):
        lhs: dict = {}
        rhs: dict = {}
        for (i, j, c) in t.comult[k]:
            for (a, b, d) in t.comult[i]:
                key = (a, b, j)
                lhs[key] = lhs.get(key, 0) + c * d
            for (a, b, d) in t.comult[j]:
                key = (i, a, b)
                rhs[key] = rhs.get(key, 0) + c * d
        if _nonzero(lhs) != _nonzero(rhs):
            fails.append((k,))
    report.record("coassociativity", not fails, _first_witness(fails))

    fails = []
    # D(1) carries uden * cd, 1 (x) 1 carries uden^2
    co_unit: dict = {}
    for k, x in unit:
        for (i, j, c) in t.comult[k]:
            co_unit[(i, j)] = co_unit.get((i, j), 0) + x * c * uden
    if _nonzero(co_unit) != {(a, b): x * y * cd for a, x in unit for b, y in unit}:
        fails.append(("unit",))
    if sum(x * t.counit[k] for k, x in unit) != uden * ed:
        fails.append(("counit-of-unit",))
    for i in range(n):
        for j in range(n):
            prod = t.mult[i][j]
            # D(e_i e_j) carries md * cd, D(e_i) D(e_j) carries cd^2 md^2
            lhs = {}
            for k, x in prod:
                for (a, b, c) in t.comult[k]:
                    lhs[(a, b)] = lhs.get((a, b), 0) + x * c * cd * md
            rhs: dict = {}
            for (a, b, c) in t.comult[i]:
                for (p, q, d) in t.comult[j]:
                    for k1, x in t.mult[a][p]:
                        cdx = c * d * x
                        for k2, y in t.mult[b][q]:
                            rhs[(k1, k2)] = rhs.get((k1, k2), 0) + cdx * y
            if _nonzero(lhs) != _nonzero(rhs):
                fails.append((i, j))
                continue
            if sum(x * t.counit[k] for k, x in prod) * ed != t.counit[i] * t.counit[j] * md:
                fails.append((i, j))
    report.record("bialgebra", not fails, _first_witness(fails))

    fails = []
    for k in range(n):
        # S(e_i) e_j and e_i S(e_j) summed carry cd * ad * md, eps(e_k) 1
        # carries ed * uden
        terms = t.comult[k]
        left = _combine((c, t.mul(t.antipode[i], basis(j))) for (i, j, c) in terms)
        right = _combine((c, t.mul(basis(i), t.antipode[j])) for (i, j, c) in terms)
        scale = t.counit[k] * cd * ad * md
        expected = [(p, x * scale) for p, x in unit] if scale else []
        if [(p, x * ed * uden) for p, x in left] != expected or \
                [(p, x * ed * uden) for p, x in right] != expected:
            fails.append((k,))
    report.record("antipode", not fails, _first_witness(fails))

    return report


@st.composite
def closure_perturbed_algebras(draw):
    """A catalog algebra with one structure constant replaced, or one term
    added, away from the unit: a product e_i e_j with neither factor the
    unit, or the comultiplication of a basis element other than the unit.
    The unit axiom and D(1) = 1 (x) 1 keep holding, so validate_hopf reads
    associativity, and the bialgebra pairs when associativity holds, on the
    closure rows first."""
    h = catalog.build(draw(st.sampled_from(FINITE + ["kC2", "kC4", "kD4"])))
    n = h.dim
    u = h.unit.index(ONE)
    mult = [[h.mult_basis(i, j) for j in range(n)] for i in range(n)]
    comult = [h.comult_triples(k) for k in range(n)]
    other = st.sampled_from([i for i in range(n) if i != u])
    c = draw(coefficients)
    if draw(st.booleans()):
        mult[draw(other)][draw(other)][draw(st.integers(0, n - 1))] = c
    else:
        index = st.integers(0, n - 1)
        comult[draw(other)].append((draw(index), draw(index), c))
    return FinDimHopf(h.name, h.basis, mult, h.unit, comult,
                      [h.counit_coeff(i) for i in range(n)],
                      Mat.from_cols([h.antipode_basis(j) for j in range(n)]),
                      h.coradical_group_basis)


@settings(max_examples=100, deadline=None)
@given(h=closure_perturbed_algebras())
def test_validate_hopf_matches_full_scan_away_from_the_unit(h):
    assert validate_hopf(h).checks == reference_scan_validate_hopf(h).checks


def test_a_failing_closure_row_reruns_the_full_scan_for_the_first_witness():
    """x y = xy is replaced by x y = 1 in H8, keeping the unit axiom, so
    (x x) y = y but x (x y) = x: the closure row x fails, and the report
    is the full scan's, whatever the draws of the property above."""
    h = catalog.build("H8")
    mult = [[h.mult_basis(i, j) for j in range(8)] for i in range(8)]
    mult[1][2] = basis_vec(8, 0)
    bad = FinDimHopf("H8", h.basis, mult, h.unit, [h.comult_triples(k) for k in range(8)],
                     [h.counit_coeff(i) for i in range(8)],
                     Mat.from_cols([h.antipode_basis(j) for j in range(8)]),
                     h.coradical_group_basis)
    want = reference_scan_validate_hopf(bad).checks
    assert validate_hopf(bad).checks == want
    assert [(axiom, witness) for axiom, ok, witness in want if not ok][0] == (
        "associativity", (1, 1, 2))


def test_validate_hopf_matches_full_scan_on_catalog():
    for name in catalog.names():
        h = catalog.build(name)
        if isinstance(h, FinDimHopf):
            assert validate_hopf(h).checks == reference_scan_validate_hopf(h).checks, name


def plan_h8_candidates(monkeypatch) -> list:
    """The matrices that phase 4 of classify_diffops checks on plan:H8."""
    from hopfdiff import diffops
    from hopfdiff.solver import classify_diffops

    seen = []
    verdict = diffops.is_diffop

    def spy(h, matrix):
        seen.append(matrix)
        return verdict(h, matrix)

    monkeypatch.setattr(diffops, "is_diffop", spy)
    classify_diffops(catalog.build("plan:H8"))
    return seen


def test_is_diffop_matches_check_diffop_on_plan_h8_candidates(monkeypatch):
    h = catalog.build("H8")
    candidates = plan_h8_candidates(monkeypatch)
    assert len(candidates) == 36
    passed = 0
    for m in candidates:
        op = is_diffop(h, m)
        full = check_diffop(h, m)
        assert (op is not None) == isinstance(full, DiffOp)
        assert (op is not None) == (coalgebra_map_report(h, h, m).ok
                                    and diff_identity_report(h, m).ok)
        if op is not None:
            assert op == full
            passed += 1
        else:
            assert full == reference_check_diffop(h, LinMap(h, h, m).matrix)
    assert passed == 6


@cache
def endomorphism_images_of_s3() -> list:
    """The basis images of the 10 difference operators of kS3."""
    h = carrier("kS3")
    return [[op.map.matrix.col(j).index(ONE) for j in range(h.dim)]
            for op in all_diffops_on_group_algebra(h)]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_is_diffop_matches_full_report_on_maps_of_s3(data):
    """Maps S3 -> S3 lifted linearly: half the draws are arbitrary, half
    are difference operators, so both verdicts are sampled."""
    h = carrier("kS3")
    if data.draw(st.booleans()):
        images = data.draw(st.lists(st.integers(0, 5), min_size=6, max_size=6))
    else:
        images = data.draw(st.sampled_from(endomorphism_images_of_s3()))
    m = mat_map(h, h, Mat.from_cols([basis_vec(6, g) for g in images]))
    full = coalgebra_map_report(h, h, m).ok and diff_identity_report(h, m).ok
    assert (is_diffop(h, m) is not None) == full
    assert isinstance(check_diffop(h, m), DiffOp) == full


# -- module-action axioms, algebra maps and the truncated convolution, kept verbatim --

def reference_associativity_failures(a: ActionData) -> list:
    """Basis triples (i, j, x) at which (ij) . x = i . (j . x) fails."""
    k, h = a.acting, a.target
    return [(i, j, x) for i in range(k.dim) for j in range(k.dim) for x in range(h.dim)
            if a.act(k.mult_basis(i, j), basis_vec(h.dim, x))
            != a.act_rational(i, a.tensor[j][x])]


def reference_validate_action(a: ActionData, require_bialgebra: bool = False) -> AxiomReport:
    """Exhaustive module-algebra (and optionally module-bialgebra) axioms."""
    k, h = a.acting, a.target
    report = AxiomReport()

    fails = [(x,) for x in range(h.dim)
             if a.act(k.unit_vec(), basis_vec(h.dim, x)) != basis_vec(h.dim, x)]
    report.record("module-unit-of-K", not fails, fails[0] if fails else None)

    fails = reference_associativity_failures(a)
    report.record("module-associativity", not fails, fails[0] if fails else None)

    fails = [(i,) for i in range(k.dim)
             if a.act_rational(i, h.unit_vec()) != vec_scale(k.counit_coeff(i), h.unit_vec())]
    report.record("acts-on-unit", not fails, fails[0] if fails else None)

    fails = []
    for i in range(k.dim):
        for x in range(h.dim):
            for y in range(h.dim):
                lhs = a.act(basis_vec(k.dim, i), h.mult_basis(x, y))
                rhs = zero_vec(h.dim)
                for (a1, a2, c) in k.comult_triples(i):
                    rhs = vec_add(rhs, vec_scale(c, h.mult_vec(
                        a.tensor[a1][x], a.tensor[a2][y])))
                if lhs != rhs:
                    fails.append((i, x, y))
    report.record("module-algebra", not fails, fails[0] if fails else None)

    if require_bialgebra:
        fails = []
        for i in range(k.dim):
            for x in range(h.dim):
                v = a.tensor[i][x]
                if h.counit_vec(v) != k.counit_coeff(i) * h.counit_coeff(x):
                    fails.append((i, x))
                    continue
                lhs = h.comult_vec(v)
                rhs: dict = {}
                for (a1, a2, c) in k.comult_triples(i):
                    for (x1, x2, d) in h.comult_triples(x):
                        left = a.tensor[a1][x1]
                        right = a.tensor[a2][x2]
                        cd = c * d
                        for p, lv in enumerate(left):
                            if not lv:
                                continue
                            for q, rv in enumerate(right):
                                if rv:
                                    key = (p, q)
                                    rhs[key] = rhs.get(key, ZERO) + cd * lv * rv
                rhs = {kk: v2 for kk, v2 in rhs.items() if v2}
                if lhs != rhs:
                    fails.append((i, x))
        report.record("module-bialgebra", not fails, fails[0] if fails else None)

    return report


def reference_adjoint_tensor(h) -> list:
    """The tensor of adjoint_action as its loop built it: a . x = a1 x S(a2)."""
    tensor = []
    for a in range(h.dim):
        row = []
        for x in range(h.dim):
            acc = zero_vec(h.dim)
            for (i, j, c) in h.comult_triples(a):
                prod = h.mult_vec(h.mult_basis(i, x), h.antipode_basis(j))
                acc = vec_add(acc, vec_scale(c, prod))
            row.append(acc)
        tensor.append(row)
    return tensor


def reference_derived_module_tensor(pi: LinMap, action: ActionData) -> list:
    """The tensor of a ._pi x = pi(a1)(a2 . x) as derived_module_structure's
    loop built it."""
    k, h = action.acting, action.target
    tensor = []
    for a in range(k.dim):
        row = []
        for x in range(h.dim):
            acc = zero_vec(h.dim)
            for (a1, a2, c) in k.comult_triples(a):
                acc = vec_add(acc, vec_scale(c, h.mult_vec(
                    pi.image_of_basis(a1), action.tensor[a2][x])))
            row.append(acc)
        tensor.append(row)
    return tensor


def reference_derived_action_tensor(pi: LinMap, action: ActionData) -> list:
    """The tensor of a ._pi x = ad_{pi(a1)}(a2 . x) as derived_action's loop
    built it, over the double coproduct of a."""
    k, h = action.acting, action.target
    tensor = []
    for a in range(k.dim):
        row = []
        for x in range(h.dim):
            acc = zero_vec(h.dim)
            # a1 (x) a2 (x) a3, then pi(a1) (a3 . x) S(pi(a2))
            for (a1, a2, c) in k.comult_triples(a):
                for (a11, a12, d) in k.comult_triples(a1):
                    inner = h.mult_vec(pi.image_of_basis(a11),
                                       action.tensor[a2][x])
                    acc = vec_add(acc, vec_scale(c * d, h.mult_vec(
                        inner, h.antipode_vec(pi.image_of_basis(a12)))))
            row.append(acc)
        tensor.append(row)
    return tensor


def reference_derived_module_structure(pi: LinMap, action: ActionData) -> AxiomReport:
    """Associativity of a ._pi x = pi(a1)(a2 . x); the verdict matches the
    crossed-homomorphism identity (module characterization)."""
    k, h = action.acting, action.target
    tensor = reference_derived_module_tensor(pi, action)
    fails = reference_associativity_failures(ActionData(k, h, tensor))
    report = AxiomReport()
    report.record("derived-module-associativity", not fails, fails[0] if fails else None)
    return report


def reference_is_algebra_hom(f: LinMap) -> bool:
    dom, cod = f.domain, f.codomain
    if f.apply(dom.unit_vec()) != cod.unit_vec():
        return False
    for i in range(dom.dim):
        for j in range(dom.dim):
            lhs = f.apply(dom.mult_basis(i, j))
            rhs = cod.mult_vec(f.image_of_basis(i), f.image_of_basis(j))
            if lhs != rhs:
                return False
    return True


def reference_multiplicative_pairs(u_sd, smash, cols) -> tuple[int, int]:
    """The multiplicativity block of ``smash_vs_semidirect_trunc``: the
    checked in-budget pairs and the failing ones."""
    # multiplicativity on in-budget pairs
    fails = 0
    checked = 0
    for i in range(u_sd.dim):
        for j in range(u_sd.dim):
            if cols[i] is None or cols[j] is None:
                continue
            try:
                lhs = apply_cols(cols, u_sd.mult_basis(i, j), smash.dim)
                rhs = smash.mult_vec(cols[i], cols[j])
            except OutOfBudgetError:
                continue
            checked += 1
            if lhs != rhs:
                fails += 1
    return checked, fails


def reference_diffop_from_hom(tv: TruncatedTensor, phi: list[Vec]) -> CheckReport:
    """Build D = F * S from the algebra endomorphism F extending
    v -> v + phi(v), then verify the difference identity in budget.  A
    letter image is primitive when adding it to the basis of P(T) leaves
    the rank unchanged."""
    prim = primitives(tv)
    for v in phi:
        if len(reference_row_reduce([*prim, v])[1]) > len(prim):
            raise ValueError("letter images must be primitive (free Lie elements)")
    letter_images = [vec_add(tv.generator_vec(x), phi[x]) for x in range(tv.generators)]
    f_cols = _multiplicative_columns(tv, tv, letter_images)
    skipped = [("F", tv.label(i)) for i, c in enumerate(f_cols) if c is None]
    # D(w) = sum F(w1) S(w2)
    d_cols: list = []
    for i in range(tv.dim):
        try:
            acc = zero_vec(tv.dim)
            for (a, b, c) in tv.comult_triples(i):
                fa = f_cols[a]
                if fa is None:
                    raise OutOfBudgetError("F image out of budget")
                acc = vec_add(acc, vec_scale(c, tv.mult_vec(fa, tv.antipode_basis(b))))
            d_cols.append(acc)
        except OutOfBudgetError:
            d_cols.append(None)
            skipped.append(("D", tv.label(i)))
    report = reference_verify_trunc_diffop(tv, d_cols)
    report.skipped = skipped + report.skipped
    report.details["F"] = f_cols
    report.details["D"] = d_cols
    return report


def dual_hopf(h: FinDimHopf) -> FinDimHopf:
    """H* on the dual basis f_0, ..., f_{n-1}, from H's transposed structure
    constants: f_i f_j = sum c f_k over the triples (i, j, c) of D(e_k),
    D(f_k) = sum (e_i e_j)_k f_i (x) f_j, 1 = eps, eps(f_k) = 1_k, S = S^T."""
    n = h.dim
    products = [[h.mult_basis(i, j) for j in range(n)] for i in range(n)]
    mult = [[[sum((c for (a, b, c) in h.comult_triples(k) if (a, b) == (i, j)), ZERO)
              for k in range(n)] for j in range(n)] for i in range(n)]
    comult = [[(i, j, products[i][j][k]) for i in range(n) for j in range(n)]
              for k in range(n)]
    antipode = Mat.from_rows([h.antipode_basis(i) for i in range(n)])
    return FinDimHopf(f"{h.name}*", [f"f{i}" for i in range(n)], mult,
                      [h.counit_coeff(i) for i in range(n)], comult, list(h.unit), antipode)


def coregular_action(h: FinDimHopf) -> ActionData:
    """The left coregular action of H on H*, (a . f)(b) = f(ba): e_a . f_x
    = sum_b (e_b e_a)_x f_b."""
    n = h.dim
    return ActionData(h, dual_hopf(h), [[[h.mult_basis(b, a)[x] for b in range(n)]
                                         for x in range(n)] for a in range(n)])


def module_action(name):
    """A catalog action, or the trivial, adjoint or coregular action named
    name."""
    kind, _, alg = name.partition(":")
    if kind == "trivial":
        h = catalog.build(alg)
        return trivial_action(h, h)
    if kind == "adjoint":
        return adjoint_action(catalog.build(alg))
    if kind == "coregular":
        return coregular_action(catalog.build(alg))
    return catalog.build(name)


def check_perturbed_action(name, data):
    """validate_action on the action, or on a copy with one tensor entry
    replaced by a pool coefficient, must give the reference's whole axiom
    reports, witnesses included."""
    action = module_action(name)
    k, h = action.acting, action.target
    tensor = [[list(cell) for cell in row] for row in action.tensor]
    if data.draw(st.booleans()):
        cell = tensor[data.draw(st.integers(0, k.dim - 1))][data.draw(st.integers(0, h.dim - 1))]
        cell[data.draw(st.integers(0, h.dim - 1))] = data.draw(coefficients)
    action = ActionData(k, h, tensor)
    for require_bialgebra in (False, True):
        assert (validate_action(action, require_bialgebra).checks
                == reference_validate_action(action, require_bialgebra).checks)


@pytest.mark.parametrize("name", ["action:inv:kC2:kC4", "trivial:H4", "adjoint:kC2xC2",
                                  "adjoint:kS3", "coregular:H4"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_validate_action_matches_reference(name, data):
    check_perturbed_action(name, data)


@pytest.mark.parametrize("name", ["trivial:H8", "adjoint:H8"])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_validate_action_matches_reference_on_h8(name, data):
    """The adjoint action of H8 is a module algebra but not a module
    bialgebra."""
    check_perturbed_action(name, data)


def test_coregular_action_of_h4_is_a_module_algebra_in_one_leg_order_only():
    """H4 is not cocommutative and H4* is not commutative, so only the
    order a . (fg) = (a1 . f)(a2 . g) holds, not (a2 . f)(a1 . g)."""
    action = module_action("coregular:H4")
    k, h = action.acting, action.target
    assert validate_hopf(h).ok
    assert not is_cocommutative(k)
    assert any(h.mult_basis(x, y) != h.mult_basis(y, x) for x in range(4) for y in range(4))
    assert validate_action(action).ok
    swapped = [(a, x, y) for a in range(4) for x in range(4) for y in range(4)
               if action.act(basis_vec(4, a), h.mult_basis(x, y)) != sum(
                   (vec_scale(c, h.mult_vec(action.tensor[a2][x], action.tensor[a1][y]))
                    for (a1, a2, c) in k.comult_triples(a)), start=zero_vec(4))]
    assert swapped


def test_adjoint_action_of_h8_is_not_a_module_bialgebra():
    action = module_action("adjoint:H8")
    assert validate_action(action).ok
    assert not validate_action(action, require_bialgebra=True).ok


@pytest.mark.parametrize("name", ["kS3", "H4", "H8"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_derived_module_structure_matches_reference(name, data):
    h = carrier(name)
    pi = mat_map(h, h, data.draw(matrices(name)))
    action = adjoint_action(h)
    assert (derived_module_structure(pi, action).checks
            == reference_derived_module_structure(pi, action).checks)


TENSOR_ALGEBRAS = ["kS3", "kD4", "kC2xC2", "H8"]


@pytest.mark.parametrize("name", TENSOR_ALGEBRAS)
def test_adjoint_tensor_matches_reference(name):
    h = carrier(name)
    assert adjoint_action(h).tensor == reference_adjoint_tensor(h)


@pytest.mark.parametrize("name", TENSOR_ALGEBRAS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_derived_module_tensor_matches_reference(name, data):
    """The convolution-built tensor of a ._pi x, entry for entry, for
    sampled maps pi and the adjoint action."""
    h = carrier(name)
    pi = mat_map(h, h, data.draw(matrices(name)))
    action = adjoint_action(h)
    built = _convolved_action(h, h, _derived_module_columns(pi, action))
    assert built.tensor == reference_derived_module_tensor(pi, action)


def derived_action_cases():
    """(pi, action), with the algebra and the map as its id: u o eps with the adjoint action and the identity
    with the trivial action on the cocommutative tensor algebras, the
    inversion of kS3 with its adjoint action, and the catalog crossed
    homomorphism of kC2 into kC4."""
    for name in TENSOR_ALGEBRAS:
        h = carrier(name)
        if is_cocommutative(h):
            yield pytest.param(unit_counit_map(h), adjoint_action(h), id=f"{name}-ueps")
            yield pytest.param(identity_map(h), trivial_action(h, h), id=f"{name}-id")
    ks3 = carrier("kS3")
    yield pytest.param(LinMap(ks3, ks3, catalog.build("op:inv:kS3").cols),
                       adjoint_action(ks3), id="kS3-inv")
    action = catalog.build("action:inv:kC2:kC4")
    pi = LinMap(action.acting, action.target, catalog.build("op:crossed:kC2:kC4").cols)
    yield pytest.param(pi, action, id="kC2-kC4-crossed")


@pytest.mark.parametrize("pi, action", list(derived_action_cases()))
def test_derived_tensors_match_reference_on_crossed_homs(pi, action):
    """Both derived tensors, entry for entry, on crossed homomorphisms."""
    k, h = action.acting, action.target
    built = _convolved_action(k, h, _derived_module_columns(pi, action))
    assert built.tensor == reference_derived_module_tensor(pi, action)
    derived, _, report = derived_action(CrossedHom.verify(pi, action))
    assert report.ok
    assert derived.tensor == reference_derived_action_tensor(pi, action)


@pytest.mark.parametrize("name", FINITE + ["smash:inv:kC2:kC4"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_is_algebra_hom_matches_reference(name, data):
    """Sampled maps, and their convolution with the identity, which is an
    algebra map exactly for the difference operators among the seeds."""
    h = carrier(name)
    f = mat_map(h, h, data.draw(matrices(name)))
    if data.draw(st.booleans()):
        f = convolve(f, identity_map(h))
    assert is_algebra_hom(f) == reference_is_algebra_hom(f)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_algebra_map_between_algebras_matches_reference(data):
    k, h = carrier("kC2xC2"), catalog.build("kC4")
    f = mat_map(k, h, data.draw(matrices("kC2xC2", rows=h.dim, cols=k.dim)))
    assert is_algebra_hom(f) == reference_is_algebra_hom(f)


@cache
def lyndon_vectors(name):
    return [v for _, v in LyndonBasis(carrier(name)).vectors]


@pytest.mark.parametrize("name", ["T(2,3)", "T(2,4)"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_diffop_from_hom_matches_reference(name, data):
    """Whole verdicts, the F and D tables and the skip list in order
    included, for letter images drawn as pool combinations of bracketed
    Lyndon words; an unknown D column is the reference's ("D", word).
    A letter image may have a pool multiple of a word of degree at least
    two added, which no Lie element has, so that both reject it with
    the same message."""
    tv = carrier(name)
    basis = lyndon_vectors(name)
    long_words = [i for i in range(tv.dim) if tv.degree(i) >= 2]
    phi = []
    for _ in range(tv.generators):
        v = zero_vec(tv.dim)
        for w in data.draw(st.lists(st.integers(0, len(basis) - 1), max_size=3)):
            v = vec_add(v, vec_scale(data.draw(nonzero), basis[w]))
        if data.draw(st.booleans()):
            v[data.draw(st.sampled_from(long_words))] += data.draw(nonzero)
        phi.append(v)
    try:
        want = reference_diffop_from_hom(tv, phi)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            diffop_from_hom(tv, phi)
        assert str(got.value) == str(exc)
        return
    got = diffop_from_hom(tv, phi)
    assert_same_verdict(tv, got, want, "D")
    assert {**got.details, "D": column_table(got.details["D"], tv.dim)} == want.details


@cache
def semidirect_map(kind):
    """U(h x| g), U(h) # U(g) and the column table of the comparison map at
    budget 3, for the adjoint action of aff1 or a one-dimensional action by 1."""
    if kind == "aff1":
        action = adjoint_lie_action(FinLie.from_pairs(["a", "b"], {(0, 1): [0, 1]}, "aff1"))
    else:
        action = LieAction(FinLie.from_pairs(["x"], {}, "g"), FinLie.from_pairs(["u"], {}, "h"),
                           [Mat.from_cols([[1]])])
    rep = smash_vs_semidirect_trunc(action, 3)
    return rep["_u_semidirect"], rep["_smash"], rep["_columns"]


@pytest.mark.parametrize("kind", ["aff1", "one"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_multiplicative_pairs_match_reference(kind, data):
    """The checked and failing pairs of the comparison map, with up to two
    entries redrawn and up to three columns made unknown."""
    u_sd, smash, seed = semidirect_map(kind)
    cols = [list(c) for c in seed]
    for _ in range(data.draw(st.integers(0, 2))):
        cols[data.draw(st.integers(0, u_sd.dim - 1))][
            data.draw(st.integers(0, smash.dim - 1))] = data.draw(coefficients)
    for j in data.draw(st.lists(st.integers(0, u_sd.dim - 1), max_size=3)):
        cols[j] = None
    kinds = [kind for _, _, kind in algebra_map_failures(u_sd, smash, cols)]
    assert ((u_sd.dim ** 2 - kinds.count("skipped"), kinds.count("algebra"))
            == reference_multiplicative_pairs(u_sd, smash, cols))


# -- G(H) and P(H), and the degree systems of mm-check, kept verbatim ------------

def reference_coradical_group(h: FinDimHopf):
    """The declared group-like basis as a FinGroup, plus index maps."""
    if h.coradical_group_basis is None:
        raise ValueError("no declared group-algebra coradical")
    idxs = h.coradical_group_basis
    pos = {b: i for i, b in enumerate(idxs)}
    table = []
    for a in idxs:
        row = []
        for b in idxs:
            prod = h.mult_basis(a, b)
            hits = [i for i, c in enumerate(prod) if c]
            if len(hits) != 1 or prod[hits[0]] != ONE or hits[0] not in pos:
                raise ValueError("declared coradical is not closed under multiplication")
            row.append(pos[hits[0]])
        table.append(row)
    group = FinGroup([h.label(b) for b in idxs], table, name=f"G({h.name})")
    return group, idxs, pos


def reference_skew_primitives(h: FinDimHopf, g: Vec, k: Vec) -> list[Vec]:
    """Reduced-echelon basis of {c : D(c) = c (x) g + k (x) c}.

    g and k must be group-like.
    """
    if not is_grouplike(h, g) or not is_grouplike(h, k):
        raise ValueError("skew-primitive reference elements must be group-like")
    n = h.dim
    rows = []
    rhs_zero_rows = []
    # unknown c: D(c) - c(x)g - k(x)c = 0, a linear system over n unknowns
    for a in range(n):
        for b in range(n):
            row = [ZERO] * n
            for m in range(n):
                for (i, j, coeff) in h.comult_triples(m):
                    if i == a and j == b:
                        row[m] += coeff
            # c (x) g contributes c_a * g_b at position (a, b)
            row[a] -= g[b]
            # k (x) c contributes k_a * c_b
            row[b] -= k[a]
            if any(row):
                rows.append(row)
                rhs_zero_rows.append(ZERO)
    if not rows:
        return [basis_vec(n, i) for i in range(n)]
    return reference_solve_affine(rows, rhs_zero_rows, n)[1]


def reference_uniqueness_by_degree(tv, action, pi_gen_images, cols) -> dict:
    """Solve for the extension degree by degree: at each degree the
    coalgebra and crossed-homomorphism constraints are affine in the
    unknown images given the lower degrees.  The solution must be unique
    and equal to the supplied columns."""
    n = tv.dim
    known: list = [None] * n
    known[0] = tv.unit_vec()
    for g in range(tv.generators):
        known[tv.index[(g,)]] = pi_gen_images[g]
    for d in range(2, tv.budget + 1):
        idxs = [i for i in range(n) if tv.degree(i) == d]
        pos = {i: p for p, i in enumerate(idxs)}
        m = len(idxs)
        rows = []
        rhs = []

        def add_equation(coeff_map: dict, const: Vec):
            # sum_i coeff * value(i) = const, one scalar row per coordinate
            for coord in range(n):
                row = [ZERO] * (m * n)
                for i, c in coeff_map.items():
                    row[pos[i] * n + coord] = c
                rows.append(row)
                rhs.append(const[coord])

        # crossed-homomorphism equations for products landing in degree d
        for i in range(n):
            di = tv.degree(i)
            if di == 0 or known[i] is None:
                continue
            for j in range(n):
                dj = tv.degree(j)
                if dj == 0 or known[j] is None or di + dj != d:
                    continue
                try:
                    prod = tv.mult_basis(i, j)
                    rhs_vec = zero_vec(n)
                    for (a1, a2, c) in tv.comult_triples(i):
                        if known[a1] is None:
                            raise OutOfBudgetError("lower value unknown")
                        acted = action.act_basis(a2, known[j])
                        rhs_vec = vec_add(rhs_vec, vec_scale(c, tv.mult_vec(known[a1], acted)))
                except OutOfBudgetError:
                    continue
                coeff_map = {k: c for k, c in
                             ((k, prod[k]) for k in idxs) if c}
                if coeff_map:
                    add_equation(coeff_map, rhs_vec)
        if not rows:
            return {"unique": False, "matches": False, "witness": f"degree {d} unconstrained"}
        particular, kernel_basis = reference_solve_affine(rows, rhs, m * n)
        if particular is None or kernel_basis:
            return {"unique": False, "matches": False,
                    "witness": f"degree {d} solution space dim {len(kernel_basis)}"}
        for i in idxs:
            known[i] = particular[pos[i] * n:(pos[i] + 1) * n]
    matches = True
    witness = None
    for i in range(n):
        if cols[i] is None or known[i] is None:
            continue
        if list(cols[i]) != list(known[i]):
            matches = False
            witness = tv.label(i)
            break
    return {"unique": True, "matches": matches, "witness": witness}


def test_coradical_group_matches_reference():
    """Labels, table, indices and positions on every catalog algebra with a
    declared coradical, and on a smash product of two group algebras."""
    algebras = [catalog.build(name) for name in catalog.names()]
    algebras = [h for h in algebras if isinstance(h, FinDimHopf)] + [
        carrier("smash:inv:kC2:kC4")]
    declared = [h for h in algebras if h.coradical_group_basis is not None]
    assert len(declared) >= 8
    for h in declared:
        group, idxs, pos = coradical_group(h)
        want, want_idxs, want_pos = reference_coradical_group(h)
        assert (group.labels, group.table, group.name) == (want.labels, want.table, want.name)
        assert (idxs, pos) == (want_idxs, want_pos)


@pytest.mark.parametrize("name", ["H4", "H8", "kC2xC2", "kS3", "kD4", "U(e)#kC2"])
def test_skew_primitives_match_reference(name):
    """Every ordered pair of group-like basis elements: the declared ones on
    the finite algebras, 1 and s on the truncated smash product."""
    h = carrier(name)
    basis = [basis_vec(h.dim, i) for i in range(h.dim)]
    group_likes = [v for v in basis if is_grouplike(h, v)]
    assert len(group_likes) >= 2
    for g in group_likes:
        for k in group_likes:
            assert skew_primitives(h, g, k) == reference_skew_primitives(h, g, k)


def reference_one_pass_skew_primitives(h, g: Vec, k: Vec) -> list[Vec]:
    """Reduced-echelon basis of {c : D(c) = c (x) g + k (x) c} on any
    carrier, finite or truncated; g and k must be group-like.

    Row (a, b) of the system is the coefficient of e_a (x) e_b in
    D(c) - c (x) g - k (x) c, one column per coordinate of c.  One pass
    over comult_triples(m) for every basis element m fills all rows at
    once, the group-like terms are subtracted after it, and the nonzero
    rows are solved in ascending (a, b) order.
    """
    if not is_grouplike(h, g) or not is_grouplike(h, k):
        raise ValueError("skew-primitive reference elements must be group-like")
    n = h.dim
    rows: dict = {}
    for m in range(n):
        for (a, b, c) in h.comult_triples(m):
            row = rows.setdefault((a, b), {})
            row[m] = row.get(m, ZERO) + c
    # c (x) g puts c_a g_b at (a, b), and k (x) c puts k_a c_b there
    for b, c in enumerate(g):
        if c:
            for a in range(n):
                row = rows.setdefault((a, b), {})
                row[a] = row.get(a, ZERO) - c
    for a, c in enumerate(k):
        if c:
            for b in range(n):
                row = rows.setdefault((a, b), {})
                row[b] = row.get(b, ZERO) - c
    dense = []
    for key in sorted(rows):
        if any(rows[key].values()):
            row = [ZERO] * n
            for m, c in rows[key].items():
                row[m] = c
            dense.append(row)
    return reference_kernel(*reference_row_reduce(dense), n)


ALGEBRA_NAMES = [name for name in catalog.names()
                 if isinstance(catalog.build(name), FinDimHopf)]
PRIMITIVE_CARRIERS = ["T(2,2)", "T(2,3)", "T(2,4)", "T(2,5)", "T(2,6)", "U(sl2,3)"]


@pytest.mark.parametrize("name", ALGEBRA_NAMES + PRIMITIVE_CARRIERS)
def test_skew_primitives_match_one_pass_reference(name):
    """Every ordered pair of group-like basis elements of every catalog
    algebra, H4 and H8 included, and the primitives of the truncated
    carriers: the sparse integer reduction gives the basis that the Fraction
    reference elimination gives on the dense rational rows."""
    h = carrier(name)
    if name in PRIMITIVE_CARRIERS:
        pairs = [(h.unit_vec(), h.unit_vec())]
    else:
        basis = [basis_vec(h.dim, i) for i in range(h.dim)]
        group_likes = [v for v in basis if is_grouplike(h, v)]
        assert len(group_likes) >= 2
        pairs = list(itertools.product(group_likes, repeat=2))
    for g, k in pairs:
        assert skew_primitives(h, g, k) == reference_one_pass_skew_primitives(h, g, k)


def reference_tensor_mult_basis(tv, i: int, j: int) -> Vec:
    w = tv.words[i] + tv.words[j]
    if len(w) > tv.budget:
        raise OutOfBudgetError(
            f"degree {len(w)} exceeds budget {tv.budget}",
            degrees=(len(tv.words[i]), len(tv.words[j])))
    return basis_vec(tv.dim, tv.index[w])


def reference_enveloping_mult_basis(u, i: int, j: int) -> Vec:
    di, dj = u.degree(i), u.degree(j)
    if di + dj > u.budget:
        raise OutOfBudgetError(
            f"degree {di + dj} exceeds budget {u.budget}", degrees=(di, dj))
    out = zero_vec(u.dim)
    for mono, c in u._normalize(u._mono_seq(i) + u._mono_seq(j)).items():
        out[u.index[mono]] += c
    return out


def reference_int_mult_table(h, mult_basis) -> tuple:
    """The product table of IntStructure as it was built before the
    truncated carriers returned their out-of-budget errors unraised: every
    product through mult_basis, each error raised and caught, and the
    dense rows made sparse over their common denominator."""
    n = h.dim
    values = []
    for i in range(n):
        for j in range(n):
            try:
                values.append(mult_basis(h, i, j))
            except OutOfBudgetError as exc:
                values.append(exc)
    terms = [v if isinstance(v, OutOfBudgetError)
             else [(k, c) for k, c in enumerate(v) if c]
             for v in values]
    den = lcm(1, *(c.denominator for v in terms if not isinstance(v, OutOfBudgetError)
                   for _, c in v))
    flat = [v if isinstance(v, OutOfBudgetError)
            else tuple((k, c.numerator * (den // c.denominator)) for k, c in v)
            for v in terms]
    return den, [flat[i * n:(i + 1) * n] for i in range(n)]


def stored_form(value):
    """A table entry, with a stored error as its class, message and
    degrees."""
    if isinstance(value, OutOfBudgetError):
        return (type(value), str(value), value.degrees)
    return value


@pytest.mark.parametrize("name", ["T(2,2)", "T(2,3)", "T(2,4)", "T(2,5)", "T(2,6)", "T(3,4)",
                                  "U(sl2,3)"])
def test_int_structure_products_match_raised_errors(name):
    """Every product row and every stored error: the carriers' mult_terms
    give the table that catching mult_basis's errors gave, message and
    degrees included; the carriers' own mult_basis still raises them."""
    h = carrier(name)
    mult_basis = (reference_tensor_mult_basis if isinstance(h, TruncatedTensor)
                  else reference_enveloping_mult_basis)
    den, table = reference_int_mult_table(h, mult_basis)
    t = int_structure(h)
    assert t.mult_den == den
    assert ([[stored_form(v) for v in row] for row in t.mult]
            == [[stored_form(v) for v in row] for row in table])
    errors = [v for row in table for v in row if isinstance(v, OutOfBudgetError)]
    assert errors or name == "T(2,2)" or name.startswith("U")
    for i in range(h.dim):
        for j in range(h.dim):
            assert (budget_outcome(h.mult_basis, i, j)
                    == budget_outcome(mult_basis, h, i, j))


def reference_smash_mult_basis(smash, i: int, j: int) -> Vec:
    """TruncatedSmash.mult_basis as it was before the builder tabulated
    sparse products, without its cache."""
    if smash.degree(i) + smash.degree(j) > smash.budget:
        raise OutOfBudgetError("smash product exceeds budget",
                               degrees=(smash.degree(i), smash.degree(j)))
    x, a = smash.pairs[i]
    y, b = smash.pairs[j]
    cached = zero_vec(smash.dim)
    for (a1, a2, c) in smash.k.comult_triples(a):
        acted = smash.action.act_rational(a1, basis_vec(smash.h.dim, y))
        hpart = smash.h.mult_vec(basis_vec(smash.h.dim, x), acted)
        reference_smash_vec(smash, hpart, smash.k.mult_basis(a2, b), cached, c)
    return cached


def reference_product(h, i: int, j: int) -> Vec:
    """The dense product of basis elements i and j by the carrier's own
    rule: the stored integer table of a FinDimHopf over its denominator,
    the old mult_basis bodies of the truncated carriers and of the smash
    builder."""
    if isinstance(h, FinDimHopf):
        t = int_structure(h)
        dense = [Fraction(0)] * h.dim
        for k, m in t.mult[i][j]:
            dense[k] = Fraction(m, t.mult_den)
        return dense
    if isinstance(h, TruncatedTensor):
        return reference_tensor_mult_basis(h, i, j)
    if isinstance(h, TruncatedEnveloping):
        return reference_enveloping_mult_basis(h, i, j)
    return reference_smash_mult_basis(h, i, j)


def reference_mult_vec(h, u: Vec, v: Vec) -> Vec:
    """u v in Fraction arithmetic over the dense reference products, taken
    in row-major order of the basis pairs, so that the first pair that
    leaves the budget raises."""
    out = [Fraction(0)] * h.dim
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            if a and b:
                for k, c in enumerate(reference_product(h, i, j)):
                    out[k] += a * b * c
    return out


PRODUCT_CARRIERS = ["kC2", "H4", "H8", "T(2,4)", "T(3,3)", "U(aff1,4)", "smash:inv:kC2:kC4",
                    "U(e,3)#kC2"]


@pytest.mark.parametrize("name", PRODUCT_CARRIERS)
def test_mult_basis_is_the_dense_form_of_mult_terms(name):
    """Every basis product: mult_terms gives the reference product's
    nonzero terms in ascending order, or its error, message and degrees
    included, unraised; mult_basis is the dense form of mult_terms and
    raises a fresh copy of that error."""
    h = carrier(name)
    errors = 0
    for i in range(h.dim):
        for j in range(h.dim):
            want = budget_outcome(reference_product, h, i, j)
            terms = h.mult_terms(i, j)
            if isinstance(terms, OutOfBudgetError):
                errors += 1
                assert want == ("out of budget", str(terms), terms.degrees)
                with pytest.raises(OutOfBudgetError) as raised:
                    h.mult_basis(i, j)
                assert raised.value is not terms
            else:
                assert [k for k, _ in terms] == sorted({k for k, _ in terms})
                assert all(c for _, c in terms)
                dense = zero_vec(h.dim)
                for k, c in terms:
                    dense[k] = c
                assert dense == want
            assert budget_outcome(h.mult_basis, i, j) == want
    assert errors or isinstance(h, FinDimHopf) or name == "smash:inv:kC2:kC4"


@st.composite
def low_vectors(draw, h):
    """A vector with pool coefficients on the first basis elements only;
    the truncated carriers order their bases by degree, so a short support
    keeps products within the budget."""
    top = draw(st.integers(1, h.dim))
    return draw(st.lists(coefficients, min_size=top, max_size=top)) + [ZERO] * (h.dim - top)


@pytest.mark.parametrize("name", PRODUCT_CARRIERS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_mult_vec_matches_dense_reference(name, data):
    """mult_vec equals the dense Fraction reference, or raises its message
    and degrees, those of the first basis pair that leaves the budget."""
    h = carrier(name)
    u, v = data.draw(low_vectors(h)), data.draw(low_vectors(h))
    assert budget_outcome(h.mult_vec, u, v) == budget_outcome(reference_mult_vec, h, u, v)


@pytest.mark.parametrize("name", PRODUCT_CARRIERS)
def test_mult_vec_raises_at_the_first_pair_out_of_budget(name):
    """The sum of all basis elements squared: every pair is nonzero, so the
    first pair in row-major order that leaves the budget names the error."""
    h = carrier(name)
    ones = [ONE] * h.dim
    assert budget_outcome(h.mult_vec, ones, ones) == budget_outcome(
        reference_mult_vec, h, ones, ones)


def mm_systems(budget):
    """(carrier, action, letter images, columns) of mm-check at two
    generators, for three pairs of letter images: the default -a, -b; a
    degree-one pair; and -a + [a, b], -b, whose bracket term leaves the
    budget in some equations.  Each comes with its extension and two
    perturbations of it."""
    tv = carrier(f"T(2,{budget})")
    action = adjoint_derivation_action(tv)
    a, b = tv.generator_vec(0), tv.generator_vec(1)
    bracket = lyndon_vectors(f"T(2,{budget})")[2]
    for pi in ([vec_scale(-1, a), vec_scale(-1, b)],
               [vec_add(a, vec_scale(2, b)), vec_scale(Fraction(-1, 2), a)],
               [vec_sub(bracket, a), vec_scale(-1, b)]):
        cols = column_table(extend_crossed_hom_trunc(action, pi).details["pibar"], tv.dim)
        yield tv, action, pi, cols
        changed = list(cols)
        changed[tv.index[(0, 1)]] = vec_add(cols[tv.index[(0, 1)]],
                                            basis_vec(tv.dim, tv.dim - 1))
        yield tv, action, pi, changed
        unknown = list(cols)
        unknown[tv.index[(1, 0)]] = None
        unknown[tv.index[(0, 1)]] = vec_scale(2, cols[tv.index[(0, 1)]])
        yield tv, action, pi, unknown


def assert_uniqueness_matches(got, want):
    """Equal results, except where a degree system is short of rank after
    an equation was skipped for the budget: the reference calls that a
    failure (unconstrained, or a positive solution dimension), and it is
    undecided, unique None with witness "degree d"."""
    if got["unique"] is None:
        assert got["matches"] is None and want["unique"] is False
        assert (want["witness"] == got["witness"] + " unconstrained"
                or want["witness"].startswith(got["witness"] + " solution space dim ")
                and not want["witness"].endswith(" dim 0"))
    else:
        assert got == want


@pytest.mark.parametrize("budget", [3, 4])
def test_uniqueness_by_degree_matches_reference(budget):
    results = []
    for tv, action, pi, cols in mm_systems(budget):
        got = _uniqueness_by_degree(action, pi, cols)
        assert_uniqueness_matches(got, reference_uniqueness_by_degree(tv, action, pi, cols))
        results.append((got["unique"], got["matches"]))
    assert results[:6] == [(True, True), (True, False), (True, False)] * 2
    # pi(a) pi(a) leaves the budget, so degree 2 is undecided, not failed
    assert results[6:] == [(None, None)] * 3


def test_uniqueness_by_degree_witnesses_match_reference():
    """An inconsistent degree system, and systems left short of rank or
    empty by skipped equations, from actions that are not derivation
    actions."""
    tv = carrier("T(2,3)")
    b = tv.index[(1,)]
    pi = [vec_scale(-1, tv.generator_vec(g)) for g in range(2)]
    cols = [None] * tv.dim

    def raise_on(letters):
        def act(a, u):
            if a in letters:
                raise OutOfBudgetError("stub")
            return u
        return act

    class StubAction(IntAction):
        """act_int over denominator 1, read by the integer systems; the
        reference reads its rational adapter act_basis."""

        acting, target, den = tv, tv, 1
        act_basis = IntAction.act_rational

        def __init__(self, act):
            self.act_int = act

    witnesses = []
    for act in (lambda a, u: [(k, (a + 1) * m) for k, m in u], raise_on({b}),
                raise_on(set(range(1, tv.dim)))):
        action = StubAction(act)
        got = _uniqueness_by_degree(action, pi, cols)
        assert_uniqueness_matches(got, reference_uniqueness_by_degree(tv, action, pi, cols))
        witnesses.append((got["unique"], got["witness"]))
    # the stubs that raise skip equations, so their short systems are
    # undecided; the reference gave "solution space dim 30" and
    # "unconstrained" at degree 2
    assert witnesses == [(False, "degree 3 solution space dim 0"), (None, "degree 2"),
                         (None, "degree 2")]


def reference_free_crossed_hom_values(action: DerivationAction, gen_images: list[Vec]):
    """Values in H of the free crossed homomorphism on the bracketed
    Lyndon basis of K, a truncated tensor algebra, from its generator
    images.  Entries that leave the budget come back as None."""
    k, h = action.acting, action.target
    values: dict = {}

    def lie_vec(word):
        return k.from_word_coeffs(bracket_expansion(word))

    def value(word):
        if word in values:
            return values[word]
        if len(word) == 1:
            out = gen_images[word[0]]
        else:
            u, v = standard_factorization(word)
            du, dv = value(u), value(v)
            if du is None or dv is None:
                out = None
            else:
                try:
                    uu, vv = lie_vec(u), lie_vec(v)
                    out = vec_sub(reference_act(action, uu, dv), reference_act(action, vv, du))
                    bracket = vec_sub(h.mult_vec(du, dv), h.mult_vec(dv, du))
                    out = vec_add(out, bracket)
                except OutOfBudgetError:
                    out = None
        values[word] = out
        return out

    return [(w, value(w)) for w, _ in LyndonBasis(k).vectors]


def reference_pibar_columns(action: DerivationAction, pi_gen_images: list[Vec]):
    """Images in H of K's basis monomials under the product-formula
    extension.  Out-of-budget columns are None."""
    h = action.target
    cols = []
    for i in range(action.acting.dim):
        factors = action.acting.monomial_factors(i)
        acc = h.unit_vec()
        try:
            for g in reversed(factors):
                left = h.mult_vec(pi_gen_images[g], acc)
                acc = vec_add(left, reference_derivation(action, g, acc))
            cols.append(acc)
        except OutOfBudgetError:
            cols.append(None)
    return cols


def reference_lie_restriction(action: DerivationAction, pi_gen_images, cols) -> tuple:
    """(failures, skipped) of the restriction of a column table to the
    Lie subspace, as mm_instance_check's step (i) evaluated them."""
    k, h = action.acting, action.target
    failures, skipped = [], []
    for (w, expected) in reference_free_crossed_hom_values(action, pi_gen_images):
        if expected is None:
            skipped.append(("lie-restriction", "".join(map(str, w))))
            continue
        try:
            got = apply_cols(cols, k.from_word_coeffs(bracket_expansion(w)), h.dim)
        except OutOfBudgetError:
            skipped.append(("lie-restriction", "".join(map(str, w))))
            continue
        if got != expected:
            failures.append(("lie-restriction", "".join(map(str, w))))
    return failures, skipped


@pytest.mark.parametrize("budget", [3, 4])
def test_extension_and_restriction_values_match_reference(budget):
    """The integer extension and free values against the rational ones,
    and the Lie-restriction entries of mm_instance_check for the computed,
    perturbed and unknown column tables of every mm-check system."""
    outcomes = []
    for tv, action, pi, cols in mm_systems(budget):
        pibar = extend_crossed_hom_trunc(action, pi).details["pibar"]
        assert column_table(pibar, action.target.dim) == reference_pibar_columns(action, pi)
        assert free_crossed_hom_values(action, pi) == \
            reference_free_crossed_hom_values(action, pi)
        report = mm_instance_check(action, pi, candidate_cols=cols)
        got = ([f for f in report.failures if f[0] == "lie-restriction"],
               [s for s in report.skipped if s[0] == "lie-restriction"])
        assert got == reference_lie_restriction(action, pi, cols)
        outcomes.append(tuple(map(len, got)))
    # the perturbed tables fail on [a, b] and its brackets, the unknown
    # ones skip them, and the third letter-image pair leaves the budget
    assert any(failed for failed, _ in outcomes) and any(skipped for _, skipped in outcomes)
    assert outcomes[0] == (0, 0)


@pytest.mark.parametrize("budget", [3, 4])
def test_mm_instance_check_skips_match_reference_in_order(budget):
    """Every skip entry of mm_instance_check, in order, for each pair of
    letter images of mm_systems: the extension's entries, the Lie
    restriction's, the undecided uniqueness degree, then every tuple that
    the reference module-axiom loops skip, which the report keeps as runs
    and builds only here."""
    tv = carrier(f"T(2,{budget})")
    action = adjoint_derivation_action(tv)
    module = reference_module_axiom_report(tv, tv, action.act_rational).skipped
    for _, _, pi, _ in list(mm_systems(budget))[::3]:
        report = mm_instance_check(action, pi)
        cols = reference_pibar_columns(action, pi)
        want = reference_crossed_hom_report(tv, tv, cols, action.act_basis).skipped
        want += reference_lie_restriction(action, pi, cols)[1]
        uniq = report.details["uniqueness"]
        if uniq["unique"] is None:
            want.append(("uniqueness", uniq["witness"]))
        got = list(report.skipped)
        assert got == want + module
        assert len(report.skipped) == len(got)
        assert got[-1] in report.skipped and ("module", 0, 0, 0) not in report.skipped


def reference_comult_triples(tv: TruncatedTensor, i: int):
    """The coshuffle coproduct of word i over its 2^|w| position masks."""
    w = tv.words[i]
    counts: dict = {}
    for mask in range(1 << len(w)):
        left = tuple(w[p] for p in range(len(w)) if mask >> p & 1)
        right = tuple(w[p] for p in range(len(w)) if not mask >> p & 1)
        key = (tv.index[left], tv.index[right])
        counts[key] = counts.get(key, 0) + 1
    return sorted((a, b, rat(c)) for (a, b), c in counts.items())


@pytest.mark.parametrize("generators, budget", [(2, 4), (2, 6), (3, 5)])
def test_shuffle_coproduct_matches_mask_enumeration(generators, budget):
    tv = TruncatedTensor(generators, budget)
    for i in range(tv.dim):
        assert tv.comult_triples(i) == reference_comult_triples(tv, i)


# -- the monoid on difference operators ---------------------------------------------

def reference_star(h: FinDimHopf, d: LinMap, dprime: LinMap) -> DiffOp:
    """The monoid product D * D' on difference operators of a
    cocommutative Hopf algebra.

    Both defining expressions ((D*id) o D') * D and (D o (D'*id)) * D'
    are computed and must agree; the result is re-verified.
    """
    if not is_cocommutative(h):
        raise ValueError("the star product needs a cocommutative Hopf algebra")
    ident = mat_map(h, h, Mat.identity(h.dim))
    f = convolve(d, ident)
    fprime = convolve(dprime, ident)
    first = convolve(f.compose(dprime), d)
    second = convolve(d.compose(fprime), dprime)
    if first.matrix != second.matrix:
        raise ValueError("the two defining formulas disagree; is H cocommutative?")
    result = check_diffop(h, first)
    if not isinstance(result, DiffOp):
        raise ValueError(f"star product failed verification: {result.witness}")
    return result


def reference_monoid_table(h, ops):
    """The loop of cmd_monoid_table, with LookupError for its InputError."""
    table = []
    associative = True
    for i, a in enumerate(ops):
        row = []
        for j, b in enumerate(ops):
            prod = reference_star(h, a.map, b.map)
            match = next((k for k, c in enumerate(ops)
                          if c.map.matrix == prod.map.matrix), None)
            if match is None:
                raise LookupError("star product left the enumerated set")
            row.append(match)
        table.append(row)
    for i in range(len(ops)):
        for j in range(len(ops)):
            for k in range(len(ops)):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    associative = False
    endos = [diff_to_endo(h, op.map) for op in ops]
    transport_ok = True
    for i in range(len(ops)):
        for j in range(len(ops)):
            if endos[i].compose(endos[j]).matrix != endos[table[i][j]].matrix:
                transport_ok = False
    return table, associative, transport_ok


@pytest.mark.parametrize("name", ["kC2", "kC4", "kC2xC2", "kS3", "kD4"])
def test_monoid_table_matches_reference(name):
    h = carrier(name)
    ops = all_diffops_on_group_algebra(h)
    got = monoid_table(h, ops)
    assert got == reference_monoid_table(h, ops)
    assert got[1] and got[2]


def rescaled(h: FinDimHopf, scale: list) -> FinDimHopf:
    """h on the basis scale[i] * e_i, so its structure constants and its
    operators' matrices have denominators other than 1."""
    n = h.dim
    mult = [[[scale[i] * scale[j] * c / scale[k] for k, c in enumerate(h.mult_basis(i, j))]
             for j in range(n)] for i in range(n)]
    comult = [[(i, j, c * scale[k] / (scale[i] * scale[j])) for (i, j, c) in h.comult_triples(k)]
              for k in range(n)]
    antipode = Mat(n, n, [h.antipode_basis(j)[k] * scale[j] / scale[k]
                          for k in range(n) for j in range(n)])
    return FinDimHopf(f"{h.name}-rescaled", h.basis, mult,
                      [c / scale[k] for k, c in enumerate(h.unit_vec())], comult,
                      [scale[i] * h.counit_coeff(i) for i in range(n)], antipode)


def test_monoid_table_matches_reference_on_a_rescaled_basis():
    """kS3 on the basis e_0, 2 e_1, e_2 / 2, 3 e_3, 2 e_4 / 3, e_5, with the
    operators carried over and one listed twice: products need their keys
    reduced, and the first of two equal operators is the match."""
    h = carrier("kS3")
    scale = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3), Fraction(2, 3), Fraction(1)]
    k = rescaled(h, scale)
    assert validate_hopf(k).ok
    ops = []
    for op in all_diffops_on_group_algebra(h):
        m = Mat(h.dim, h.dim, [op.map.matrix[(r, c)] * scale[c] / scale[r]
                               for r in range(h.dim) for c in range(h.dim)])
        ops.append(check_diffop(k, mat_map(k, k, m)))
    assert all(isinstance(op, DiffOp) for op in ops)
    ops.append(ops[3])
    got = monoid_table(k, ops)
    assert got == reference_monoid_table(k, ops)
    assert all(len(ops) - 1 not in row for row in got[0])


def test_monoid_table_with_an_operator_dropped_exits_two(capsys, monkeypatch):
    """Without the unit of the monoid the products leave the list; the
    command says so and exits 2."""
    h = carrier("kS3")
    ops = all_diffops_on_group_algebra(h)
    table = reference_monoid_table(h, ops)[0]
    unit = next(e for e in range(len(ops))
                if all(table[e][a] == a == table[a][e] for a in range(len(ops))))
    with pytest.raises(LookupError):
        reference_monoid_table(h, ops[:unit] + ops[unit + 1:])
    monkeypatch.setattr("hopfdiff.diffops.all_diffops_on_group_algebra",
                        lambda h: ops[:unit] + ops[unit + 1:])
    code = cli.run(["monoid-table", "--algebra", "kS3"])
    out = capsys.readouterr()
    assert code == 2
    assert "left the enumerated set" in json.loads(out.out)["error"]
    assert "Traceback" not in out.err


def test_star_matches_reference_on_every_ks3_pair():
    h = carrier("kS3")
    ops = all_diffops_on_group_algebra(h)
    for a in ops:
        for b in ops:
            assert star(h, a.map, b.map) == reference_star(h, a.map, b.map)


# -- three verdicts on sampled maps ---------------------------------------------------

THREE_VERDICT_CARRIERS = ["kC2xC2", "kS3", "kD4"]


@st.composite
def candidate_maps(draw, name):
    """A map on a catalog algebra: one of its sampled coalgebra maps
    (difference operators first), the lift of a random function on the
    group on group algebras, or a perturbed matrix."""
    h = carrier(name)
    kind = draw(st.sampled_from(["sampled", "function", "perturbed"]))
    if kind == "sampled":
        return draw(st.sampled_from(coalgebra_maps_for(h, random.Random(0), 12))).matrix
    if kind == "function" and name in THREE_VERDICT_CARRIERS:
        images = draw(st.lists(st.integers(0, h.dim - 1), min_size=h.dim, max_size=h.dim))
        return Mat.from_cols([basis_vec(h.dim, g) for g in images])
    m = draw(st.sampled_from(coalgebra_maps_for(h, random.Random(0), 12))).matrix
    entries = list(m.entries)
    for _ in range(draw(st.integers(1, 2))):
        entries[draw(st.integers(0, len(entries) - 1))] = draw(coefficients)
    return Mat(h.dim, h.dim, entries)


@pytest.mark.parametrize("name", THREE_VERDICT_CARRIERS + ["H4", "H8"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_three_diffop_verdicts_agree(name, data):
    h = carrier(name)
    m = data.draw(candidate_maps(name))
    d = mat_map(h, h, m)
    verdict = isinstance(check_diffop(h, d), DiffOp)
    assert check_diffop_prime(h, m) == verdict
    if name in THREE_VERDICT_CARRIERS and is_coalgebra_hom(d):
        assert is_algebra_hom(diff_to_endo(h, d)) == verdict


# -- the smash layer and the Rota-Baxter identity, kept verbatim -----------------

def reference_smash_vec(smash, hvec: Vec, kvec: Vec, out: Vec | None = None, scale=ONE) -> Vec:
    """out += scale * hvec # kvec over the pair index of a smash builder,
    into a fresh zero vector by default; a pair outside a truncated index
    raises OutOfBudgetError."""
    out = zero_vec(smash.dim) if out is None else out
    for x, hv in enumerate(hvec):
        if not hv:
            continue
        for a, kv in enumerate(kvec):
            if kv:
                idx = smash.index.get((x, a))
                if idx is None:
                    raise OutOfBudgetError("smash component out of budget")
                out[idx] += scale * hv * kv
    return out


def reference_smash_antipode_basis(smash, i: int) -> Vec:
    """TruncatedSmash.antipode_basis in Fraction arithmetic."""
    x, a = smash.pairs[i]
    out = zero_vec(smash.dim)
    sx = smash.h.antipode_basis(x)
    for (a1, a2, c) in smash.k.comult_triples(a):
        acted = smash.action.act(smash.k.antipode_basis(a1), sx)
        reference_smash_vec(smash, acted, smash.k.antipode_basis(a2), out, c)
    return out


def reference_graph_vector(k, cols, a: int, smash) -> Vec:
    """pi(a1) # a2 for basis a of K and pi given by a column table; an
    unknown column, or a pair outside a truncated index, raises
    OutOfBudgetError."""
    vec = zero_vec(smash.dim)
    for (a1, a2, c) in k.comult_triples(a):
        if cols[a1] is None:
            raise OutOfBudgetError("image column unknown")
        reference_smash_vec(smash, cols[a1], basis_vec(k.dim, a2), vec, c)
    return vec


def graph_column_vector(k, cols, a: int, smash) -> Vec:
    """actions._graph_column of a column table, over its denominator, as
    a rational vector."""
    (icols, den), t = int_columns(cols), int_structure(k)
    return column_table(([_graph_column(t, icols, a, smash)], den * t.comult_den),
                        smash.dim)[0]


def reference_compatibility_failures(action, d_h, d_k) -> list:
    """Label pairs (a, x) of a basis element of K and one of H at which
    D_H(a1 . x1)(a2 . x2) = D_K(a1) a2 . D_H(x1) x2 fails, for the action
    of K = action.acting on H = action.target.

    d_h and d_k are column tables.
    """
    h, k = action.target, action.acting
    act = action.act_rational
    failures = []
    for a in range(k.dim):
        for x in range(h.dim):
            lhs = zero_vec(h.dim)
            rhs = zero_vec(h.dim)
            for (a1, a2, c) in k.comult_triples(a):
                acting = k.mult_vec(d_k[a1], basis_vec(k.dim, a2))
                for (x1, x2, e) in h.comult_triples(x):
                    term = h.mult_vec(apply_cols(d_h, act(a1, basis_vec(h.dim, x1)), h.dim),
                                      act(a2, basis_vec(h.dim, x2)))
                    _add_scaled(lhs, c * e, term)
                    moved = h.mult_vec(d_h[x1], basis_vec(h.dim, x2))
                    _add_scaled(rhs, c * e, action.act(acting, moved))
            if lhs != rhs:
                failures.append((k.label(a), h.label(x)))
    return failures


def reference_smash_extension_columns(action, d_h, d_k, smash) -> list:
    """The columns of D(x # a) = D_H(x1) x2 (D_K(a1) . S_H(x3)) # D_K(a2),
    one per pair (x, a) of the smash builder's index, in its order, for
    the action of K = action.acting on H = action.target.

    d_h and d_k are column tables.
    """
    h, k = action.target, action.acting
    sweedler = [sweedler_expand(h, basis_vec(h.dim, x), 2) for x in range(h.dim)]
    cols = []
    for (x, a) in smash.index:
        col = zero_vec(smash.dim)
        for (x1, x2, x3), c in sweedler[x].items():
            base = h.mult_vec(d_h[x1], basis_vec(h.dim, x2))
            for (a1, a2, e) in k.comult_triples(a):
                hpart = h.mult_vec(base, action.act(d_k[a1], h.antipode_basis(x3)))
                reference_smash_vec(smash, hpart, d_k[a2], col, c * e)
        cols.append(col)
    return cols


def reference_smash_restrictions(smash, cols, d_h, d_k) -> tuple[bool, bool]:
    """Whether the operator with column table cols on a smash builder has
    D(x # 1) = D_H(x) # 1 and D(1 # a) = 1 # D_K(a) on every basis x of H
    and a of K, for column tables d_h and d_k."""
    h, k = smash.h, smash.k
    hunit, kunit = h.unit_vec(), k.unit_vec()

    def d(hvec, kvec):
        return apply_cols(cols, reference_smash_vec(smash, hvec, kvec), smash.dim)

    return (all(d(basis_vec(h.dim, x), kunit) == reference_smash_vec(smash, d_h[x], kunit)
                for x in range(h.dim)),
            all(d(hunit, basis_vec(k.dim, a)) == reference_smash_vec(smash, hunit, d_k[a])
                for a in range(k.dim)))


def reference_rota_baxter_identity_report(h, matrix: Mat) -> CheckReport:
    """B(x)B(y) = B(x1 B(x2) y S(B(x3))) on all basis pairs."""
    failures = []
    n = h.dim
    for i in range(n):
        terms = sweedler_expand(h, basis_vec(n, i), 2).items()
        for j in range(n):
            lhs = h.mult_vec(matrix.col(i), matrix.col(j))
            rhs = zero_vec(n)
            for (t1, t2, t3), c in terms:
                inner = h.mult_vec(basis_vec(n, t1), matrix.col(t2))
                inner = h.mult_vec(inner, basis_vec(n, j))
                inner = h.mult_vec(inner, h.antipode_vec(matrix.col(t3)))
                rhs = vec_add(rhs, vec_scale(c, matrix.apply(inner)))
            if lhs != rhs:
                failures.append((i, j))
    return CheckReport(not failures, failures, [], n * n)


def swap_action() -> ActionData:
    """kC2 acting on kC2xC2 by the swap x <-> y of the generators."""
    kc2, kv = catalog.build("kC2"), catalog.build("kC2xC2")
    swap = [0, 2, 1, 3]
    return ActionData(kc2, kv, [[basis_vec(4, x) for x in range(4)],
                                [basis_vec(4, swap[x]) for x in range(4)]])


# the module-bialgebra actions of the compatibility and extension oracle,
# with the number of (D_H, D_K) pairs over every difference operator of
# each factor and the number of compatible ones: 292 pairs, 266 compatible
PAIR_ACTIONS = {
    "inv:kC2:kC4": (lambda: catalog.build("action:inv:kC2:kC4"), 8, 6),
    "trivial:kC2:kC4": (lambda: trivial_action(catalog.build("kC2"), catalog.build("kC4")),
                        8, 8),
    "trivial:kC2:kS3": (lambda: trivial_action(catalog.build("kC2"), catalog.build("kS3")),
                        20, 20),
    "trivial:kC2xC2:kC4": (lambda: trivial_action(catalog.build("kC2xC2"),
                                                  catalog.build("kC4")), 64, 64),
    "trivial:kC2xC2:kS3": (lambda: trivial_action(catalog.build("kC2xC2"),
                                                  catalog.build("kS3")), 160, 160),
    "swap:kC2:kC2xC2": (swap_action, 32, 8),
}


def group_diffop_columns(h) -> list:
    """The column tables of every difference operator on a group algebra."""
    return [op.map.columns() for op in all_diffops_on_group_algebra(h)]


def assert_smash_builder_matches_reference(smash):
    """Every product, antipode and the unit of a smash builder against the
    Fraction references, an out-of-budget product by its message."""
    n = smash.dim
    for i in range(n):
        assert smash.antipode_basis(i) == reference_smash_antipode_basis(smash, i)
        for j in range(n):
            assert outcome(smash.mult_basis, i, j) == \
                outcome(reference_smash_mult_basis, smash, i, j)
    assert smash.unit_vec() == reference_smash_vec(smash, smash.h.unit_vec(),
                                                   smash.k.unit_vec())


def compare_pair(action, smash, d_h, d_k) -> bool:
    """The compatibility failures of a pair against the reference, and for a
    compatible pair its extension columns and restriction verdicts, also on
    the identity of the smash product; whether the pair is compatible."""
    fails = compatibility_failures(action, d_h, d_k)
    assert fails == reference_compatibility_failures(action, d_h, d_k)
    identity = [basis_vec(smash.dim, i) for i in range(smash.dim)]
    assert smash_restrictions(smash, identity, d_h, d_k) == \
        reference_smash_restrictions(smash, identity, d_h, d_k)
    if fails:
        return False
    got = smash_extension_columns(action, d_h, d_k, smash)
    cols = column_table(got, smash.dim)
    assert cols == reference_smash_extension_columns(action, d_h, d_k, smash)
    assert smash_restrictions(smash, got, d_h, d_k) == \
        reference_smash_restrictions(smash, cols, d_h, d_k) == (True, True)
    return True


@pytest.mark.parametrize("name", PAIR_ACTIONS)
def test_smash_layer_matches_reference_on_every_pair(name):
    """The smash builder, graph vectors of sampled column tables (one with
    an unknown column), and every pair of difference operators of the two
    factors through the compatibility check, the extension and its
    restrictions, against the Fraction references."""
    build, pairs, compatible = PAIR_ACTIONS[name]
    action = build()
    assert validate_action(action, require_bialgebra=True).ok
    h, k = action.target, action.acting
    smash = TruncatedSmash(action)
    assert_smash_builder_matches_reference(smash)
    rng = random.Random(name)
    for unknown in (None, 1):
        cols = [[rng.choice(COEFF_POOL) for _ in range(h.dim)] for _ in range(k.dim)]
        if unknown is not None:
            cols[unknown] = None
        for a in range(k.dim):
            assert outcome(graph_column_vector, k, cols, a, smash) == \
                outcome(reference_graph_vector, k, cols, a, smash)
    verdicts = [compare_pair(action, smash, d_h, d_k)
                for d_h in group_diffop_columns(h) for d_k in group_diffop_columns(k)]
    assert (len(verdicts), sum(verdicts)) == (pairs, compatible)


@pytest.mark.parametrize("budget", range(1, 6))
def test_smash_layer_matches_reference_on_the_sign_action(budget):
    """The sign action of kC2 on U(e) at budgets 1-5: the truncated smash
    builder, the compatible pair of ckmm-mixed (id on U(e), u o eps on
    kC2) and the incompatible pair (id, id)."""
    u_env = TruncatedEnveloping(FinLie.from_pairs(["e"], {}, "abelian1"), budget)
    kc2 = catalog.build("kC2")
    action = sign_action_on_enveloping(u_env, kc2)
    smash = TruncatedSmash(action, budget)
    assert_smash_builder_matches_reference(smash)
    d_h = [basis_vec(u_env.dim, i) for i in range(u_env.dim)]
    assert compare_pair(action, smash, d_h, [basis_vec(2, 0), basis_vec(2, 0)])
    assert not compare_pair(action, smash, d_h, [basis_vec(2, 0), basis_vec(2, 1)])


@pytest.mark.parametrize("name, failing, first", [
    ("kS3", 18, [(1, 2), (1, 3)]),
    ("H8", 24, [(1, 4)]),
])
def test_rota_baxter_report_matches_reference_where_the_identity_fails(name, failing, first):
    """The identity map fails the Rota-Baxter identity, which no command
    reaches: the whole report must be the reference's."""
    h = catalog.build(name)
    got = rota_baxter_identity_report(h, mat_map(h, h, Mat.identity(h.dim)))
    assert got == reference_rota_baxter_identity_report(h, Mat.identity(h.dim))
    assert (len(got.failures), got.checked) == (failing, h.dim ** 2)
    assert got.failures[:len(first)] == first


def test_rota_baxter_report_matches_reference_on_sampled_maps():
    """The sampled maps of acceptance criterion 4, Rota-Baxter or not."""
    rng = random.Random(20260809)
    for name in ("kC2", "kC4", "kS3", "H4", "H8"):
        h = catalog.build(name)
        for m in coalgebra_maps_for(h, rng, 40):
            assert rota_baxter_identity_report(h, m) == \
                reference_rota_baxter_identity_report(h, m.matrix)
