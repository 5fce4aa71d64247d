import tracemalloc
from fractions import Fraction

import pytest

from hopfdiff import truncated
from hopfdiff.exactlin import Mat, row_space_basis
from hopfdiff.freelie import (
    adjoint_derivation_action,
    ckmm_truncated_instance,
    diffop_from_hom,
    extend_crossed_hom_trunc,
    free_crossed_hom_values,
    graph_dims_check,
    mm_instance_check,
    smash_vs_semidirect_trunc,
    trivial_derivation_action,
)
from hopfdiff.truncated import (
    BudgetCapError,
    TruncatedEnveloping,
    TruncatedTensor,
    bracket_expansion,
    graded_dims,
    lyndon_dims,
    lyndon_words,
    witt_dimension,
    words_up_to,
)
from hopfdiff.hopf import (
    OutOfBudgetError,
    is_cocommutative,
    primitives,
    sweedler_expand,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vec,
)
from hopfdiff.lie import FinLie, LieAction

F = Fraction


def test_words_are_length_then_lex():
    words = words_up_to(2, 2)
    assert words == [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]


def test_lyndon_words_and_witt_counts():
    by_len = lyndon_words(2, 4)
    assert by_len[1] == [(0,), (1,)]
    assert by_len[2] == [(0, 1)]
    assert by_len[3] == [(0, 0, 1), (0, 1, 1)]
    assert len(by_len[4]) == 3 == witt_dimension(2, 4)
    assert witt_dimension(3, 2) == 3
    assert witt_dimension(1, 2) == 0


def test_bracket_expansion_degree_two():
    assert bracket_expansion((0, 1)) == {(0, 1): F(1), (1, 0): F(-1)}


def test_coshuffle_letter_is_primitive():
    tv = TruncatedTensor(2, 3)
    a = tv.index[(0,)]
    assert tv.comult_triples(a) == [(0, a, F(1)), (a, 0, F(1))]


def test_coshuffle_of_ab():
    tv = TruncatedTensor(2, 3)
    ab = tv.index[(0, 1)]
    triples = {(i, j): c for (i, j, c) in tv.comult_triples(ab)}
    assert triples == {
        (0, ab): F(1), (ab, 0): F(1),
        (tv.index[(0,)], tv.index[(1,)]): F(1),
        (tv.index[(1,)], tv.index[(0,)]): F(1)}


def test_coshuffle_unit():
    tv = TruncatedTensor(2, 3)
    assert tv.comult_triples(0) == [(0, 0, F(1))]


def test_coshuffle_is_cocommutative_and_algebra_map():
    tv = TruncatedTensor(2, 4)
    assert is_cocommutative(tv)
    # Delta(uv) = Delta(u)Delta(v) on in-budget pairs
    for i in range(1, tv.dim):
        for j in range(1, tv.dim):
            try:
                prod = tv.mult_basis(i, j)
            except OutOfBudgetError:
                continue
            lhs = tv.comult_vec(prod)
            rhs = {}
            for (a1, a2, c) in tv.comult_triples(i):
                for (b1, b2, d) in tv.comult_triples(j):
                    left = tv.mult_basis(a1, b1)
                    right = tv.mult_basis(a2, b2)
                    for p, x in enumerate(left):
                        if not x:
                            continue
                        for q, y in enumerate(right):
                            if y:
                                rhs[(p, q)] = rhs.get((p, q), F(0)) + c * d * x * y
            assert lhs == {k: v for k, v in rhs.items() if v}


def test_out_of_budget_products_are_flagged():
    tv = TruncatedTensor(2, 2)
    with pytest.raises(OutOfBudgetError):
        tv.mult_basis(tv.index[(0, 1)], tv.index[(1,)])


@pytest.mark.parametrize("kind", ["tensor", "enveloping"])
def test_stored_budget_error_is_raised_as_fresh_copies(kind):
    """One error is stored per budget and pair of degrees; each raise of it
    is a distinct copy with its message and degrees, so no raise grows the
    stored error's traceback."""
    if kind == "tensor":
        h = TruncatedTensor(2, 2)
    else:
        h = TruncatedEnveloping(FinLie.from_pairs(["u", "v"], {}, "h"), 2)
    a, b = h.generator_vec(0).index(1), h.generator_vec(1).index(1)
    ab = h.mult_basis(a, b).index(1)
    stored = h.mult_terms(ab, a)
    assert stored is h.mult_terms(ab, b) and stored is not h.mult_terms(a, ab)
    raised = []
    for _ in range(2):
        with pytest.raises(OutOfBudgetError) as info:
            h.mult_basis(ab, a)
        raised.append(info.value)
    first, second = raised
    assert first is not second and stored not in raised
    assert str(first) == str(second) == str(stored) == "degree 3 exceeds budget 2"
    assert first.degrees == second.degrees == stored.degrees == (2, 1)
    assert stored.__traceback__ is None


def test_budget_caps_enforced():
    with pytest.raises(ValueError):
        TruncatedTensor(2, 8)
    with pytest.raises(ValueError):
        TruncatedTensor(4, 3)
    with pytest.raises(BudgetCapError, match="budget capped at 7"):
        TruncatedEnveloping(FinLie.from_pairs(["u"], {}, "abelian1"), 8)
    assert TruncatedEnveloping(FinLie.from_pairs(["u"], {}, "abelian1"), 7).dim == 8


@pytest.mark.parametrize("generators, budget", [(-2, 3), (0, 3), (2, 0), (2, -1)])
def test_below_range_rejected_before_enumerating_words(monkeypatch, generators, budget):
    # words_up_to never terminates for a negative letter count; failing it
    # here turns a missing range check into a failure instead of a hang
    def unreachable(*args):
        raise AssertionError("words enumerated for an out-of-range carrier")

    monkeypatch.setattr(truncated, "words_up_to", unreachable)
    with pytest.raises(BudgetCapError, match="at least 1"):
        TruncatedTensor(generators, budget)


def test_lyndon_dims_cross_check():
    dims = lyndon_dims(2, 4)
    assert dims["agree"]
    assert dims["lyndon"] == [2, 1, 2, 3]
    assert lyndon_dims(1, 4)["lyndon"] == [1, 0, 0, 0]
    assert lyndon_dims(3, 2)["lyndon"] == [3, 3]


def test_primitives_of_degree_two_truncation():
    tv = TruncatedTensor(2, 2)
    prim = primitives(tv)
    assert len(prim) == 3  # a, b and ab - ba


def test_diffop_from_phi_zero_is_ueps():
    tv = TruncatedTensor(2, 4)
    rep = diffop_from_hom(tv, [zero_vec(tv.dim), zero_vec(tv.dim)])
    assert rep.ok
    for i, col in enumerate(rep.details["D"]):
        expected = zero_vec(tv.dim)
        expected[0] = tv.counit_coeff(i)
        assert col == expected


def test_diffop_from_doubling():
    tv = TruncatedTensor(2, 4)
    rep = diffop_from_hom(tv, [list(tv.generator_vec(0)), list(tv.generator_vec(1))])
    assert rep.ok
    d = rep.details["D"]
    assert d[tv.index[(0,)]] == list(tv.generator_vec(0))  # D(a) = a
    expected = zero_vec(tv.dim)
    expected[tv.index[(0, 1)]] = F(2)
    expected[tv.index[(1, 0)]] = F(-1)
    assert d[tv.index[(0, 1)]] == expected  # D(ab) = 2ab - ba


def test_diffop_from_bracket_image():
    tv = TruncatedTensor(2, 3)
    phi_a = tv.from_word_coeffs({(0, 1): 1, (1, 0): -1})
    rep = diffop_from_hom(tv, [phi_a, zero_vec(tv.dim)])
    assert rep.ok
    assert rep.checked > 0
    assert rep.skipped  # budget exhaustion is reported, not hidden


def test_diffop_from_hom_rejects_non_primitive_images():
    tv = TruncatedTensor(2, 3)
    bad = list(tv.word_vec((0, 1)))  # ab alone is not a Lie element
    with pytest.raises(ValueError, match="primitive"):
        diffop_from_hom(tv, [bad, zero_vec(tv.dim)])


def test_extend_crossed_hom_pi_zero_trivial_action():
    tv = TruncatedTensor(2, 3)
    triv = trivial_derivation_action(tv, tv)
    rep = extend_crossed_hom_trunc(triv, [zero_vec(tv.dim), zero_vec(tv.dim)])
    assert rep.ok
    cols = rep.details["pibar"]
    assert cols[0] == tv.unit_vec()
    for g in range(2):
        assert cols[tv.index[(g,)]] == zero_vec(tv.dim)


def test_extend_crossed_hom_minus_id_adjoint():
    tv = TruncatedTensor(2, 3)
    adj = adjoint_derivation_action(tv)
    neg = [[-c for c in tv.generator_vec(g)] for g in range(2)]
    rep = extend_crossed_hom_trunc(adj, neg)
    assert rep.ok
    assert rep.checked > 0


def test_free_crossed_hom_values_recursion():
    tv = TruncatedTensor(2, 3)
    adj = adjoint_derivation_action(tv)
    neg = [[-c for c in tv.generator_vec(g)] for g in range(2)]
    values = dict(free_crossed_hom_values(adj, neg))
    # the unique crossed homomorphism extending -id on letters is -id on
    # the whole free Lie algebra
    bracket_ab = tv.from_word_coeffs(bracket_expansion((0, 1)))
    assert values[(0, 1)] == [-c for c in bracket_ab]


def test_mm_instance_check_passes_and_detects_perturbation():
    tv = TruncatedTensor(2, 3)
    adj = adjoint_derivation_action(tv)
    neg = [[-c for c in tv.generator_vec(g)] for g in range(2)]
    rep = mm_instance_check(adj, neg)
    assert rep.ok
    assert rep.details["uniqueness"]["unique"]
    cols = [None if c is None else list(c) for c in rep.details["pibar"]]
    cols[tv.index[(0, 1)]][tv.index[(1, 0)]] += F(1)
    bad = mm_instance_check(adj, neg, candidate_cols=cols)
    assert not bad.ok
    assert bad.failures


def test_mm_instance_check_budget_skip_leaves_uniqueness_undecided():
    """pi(a) = -a + [a, b], pi(b) = -b at budget 3: the degree-2 equation
    for aa needs pi(a) pi(a), which leaves the budget, so degree 2 is short
    of rank.  That is recorded as a skip, not as a failure."""
    tv = TruncatedTensor(2, 3)
    adj = adjoint_derivation_action(tv)
    a, b = tv.generator_vec(0), tv.generator_vec(1)
    bracket = tv.from_word_coeffs(bracket_expansion((0, 1)))
    pi = [[x - y for x, y in zip(bracket, a)], [-c for c in b]]
    rep = mm_instance_check(adj, pi)
    assert rep.ok and not rep.failures
    assert rep.details["uniqueness"] == {"unique": None, "matches": None,
                                         "witness": "degree 2"}
    assert ("uniqueness", "degree 2") in rep.skipped


def test_mm_instance_check_skip_accounting_at_budget_four():
    """The counts of `free-lie mm-check --generators 2 --budget 4`: every
    tuple is either checked or skipped for an out-of-budget product."""
    tv = TruncatedTensor(2, 4)
    adj = adjoint_derivation_action(tv)
    neg = [[-c for c in tv.generator_vec(g)] for g in range(2)]
    rep = mm_instance_check(adj, neg)
    assert rep.ok and not rep.failures
    assert rep.checked == 129
    assert len(rep.skipped) == 59830
    club = rep.details["action"]
    assert club.ok
    assert club.checked == 1545
    assert len(club.skipped) == 58998
    kinds = {}
    for entry in club.skipped:
        kinds[entry[0]] = kinds.get(entry[0], 0) + 1
    assert kinds == {"module": 28996, "module-algebra": 29222, "bialgebra": 780}


def test_mm_instance_check_memory_at_budget_five():
    """The skipped module-axiom tuples are kept as one run per table row:
    one check at budget 5, which skips 503 274 tuples, peaks under 16 MB of
    traced allocations (44 MB when every skipped tuple was built)."""
    tv = TruncatedTensor(2, 5)
    adj = adjoint_derivation_action(tv)
    neg = [[-c for c in tv.generator_vec(g)] for g in range(2)]
    tracemalloc.start()
    try:
        rep = mm_instance_check(adj, neg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and len(rep.skipped) == 503274
    assert peak < 16 * 2 ** 20


def test_mm_instance_pi_zero():
    tv = TruncatedTensor(2, 3)
    adj = adjoint_derivation_action(tv)
    rep = mm_instance_check(adj, [zero_vec(tv.dim), zero_vec(tv.dim)])
    assert rep.ok


def test_mm_instance_check_into_another_carrier():
    """The trivial action of T(2, 3) on the polynomial algebra U(<u, v>) and
    pi = (u, v): the extension is the algebra map a -> u, b -> v, read
    on T(2, 3)'s 15 words with values among U(<u, v>)'s 10 monomials, and
    it is the unique in-budget solution degree by degree."""
    tv = TruncatedTensor(2, 3)
    uh = TruncatedEnveloping(FinLie.from_pairs(["u", "v"], {}, "h"), 3)
    action = trivial_derivation_action(tv, uh)
    pi = [uh.generator_vec(0), uh.generator_vec(1)]
    rep = mm_instance_check(action, pi)
    assert rep.ok and not rep.failures
    assert rep.details["uniqueness"] == {"unique": True, "matches": True, "witness": None}
    cols = rep.details["pibar"]
    assert cols[tv.index[(0, 1)]] == cols[tv.index[(1, 0)]] == uh.mult_vec(*pi)


def test_truncated_enveloping_pbw():
    heis = FinLie.from_pairs(["p", "q", "z"], {(0, 1): [0, 0, 1]}, "heis")
    u = TruncatedEnveloping(heis, 3)
    assert graded_dims(u) == [1, 3, 6, 10]
    # q p = p q - z in the PBW order
    qp = u.mult_basis(u.index[(0, 1, 0)], u.index[(1, 0, 0)])
    expected = zero_vec(u.dim)
    expected[u.index[(1, 1, 0)]] = F(1)
    expected[u.index[(0, 0, 1)]] = F(-1)
    assert qp == expected


def test_truncated_enveloping_primitives_are_the_lie_algebra():
    sl2 = FinLie.from_pairs(
        ["e", "f", "h"], {(0, 1): [0, 0, 1], (0, 2): [-2, 0, 0], (1, 2): [0, 2, 0]},
        "sl2")
    u = TruncatedEnveloping(sl2, 3)
    prim = primitives(u)
    gens = [list(u.generator_vec(g)) for g in range(3)]
    assert row_space_basis(prim) == row_space_basis(gens)


def test_smash_vs_semidirect_nontrivial():
    g1 = FinLie.from_pairs(["x"], {}, "g")
    h1 = FinLie.from_pairs(["u"], {}, "h")
    action = LieAction(g1, h1, [Mat.from_cols([[1]])])
    rep = smash_vs_semidirect_trunc(action, 3)
    assert rep["ok"]
    assert rep["dims"] == [1, 2, 3, 4]


def test_smash_vs_semidirect_trivial_polynomial_case():
    g1 = FinLie.from_pairs(["x"], {}, "g")
    h1 = FinLie.from_pairs(["u"], {}, "h")
    rep = smash_vs_semidirect_trunc(LieAction(g1, h1, [Mat.zero(1, 1)]), 3)
    assert rep["ok"] and rep["dims"] == [1, 2, 3, 4]


def test_smash_vs_semidirect_adjoint_aff1():
    aff1 = FinLie.from_pairs(["a", "b"], {(0, 1): [0, 1]}, "aff1")
    from hopfdiff.lie import adjoint_lie_action

    rep = smash_vs_semidirect_trunc(adjoint_lie_action(aff1), 3)
    assert rep["ok"]


def test_truncated_smash_antipode_axiom_over_an_enveloping_factor():
    """S(t1) t2 = t1 S(t2) = eps(t) 1 on every basis element of
    U(aff1) # U(aff1) within the budget.  The acting factor has
    primitives, so the two legs of its coproduct differ, as they never do
    in a group algebra."""
    aff1 = FinLie.from_pairs(["a", "b"], {(0, 1): [0, 1]}, "aff1")
    from hopfdiff.hopf import basis_vec
    from hopfdiff.lie import adjoint_lie_action

    smash = smash_vs_semidirect_trunc(adjoint_lie_action(aff1), 3)["_smash"]
    n = smash.dim
    for i in range(n):
        left = right = zero_vec(n)
        for (p, q, c) in smash.comult_triples(i):
            sp, sq = smash.antipode_basis(p), smash.antipode_basis(q)
            left = vec_add(left, vec_scale(c, smash.mult_vec(sp, basis_vec(n, q))))
            right = vec_add(right, vec_scale(c, smash.mult_vec(basis_vec(n, p), sq)))
        assert left == right == vec_scale(smash.counit_coeff(i), smash.unit_vec())


def test_graph_dims_instance():
    g1 = FinLie.from_pairs(["x"], {}, "g")
    h1 = FinLie.from_pairs(["u"], {}, "h")
    action = LieAction(g1, h1, [Mat.from_cols([[1]])])
    rep = graph_dims_check(action, [[F(1)]], 3)
    assert rep["ok"]
    assert rep["graph_filtration_dims"] == [1, 2, 3, 4]


def test_graph_dims_on_a_target_of_another_dimension():
    """g = <x> acting on the abelian h = <u, v> by diag(1, 2), with pi(x) = u.
    The extension's columns are indexed by U(g)'s monomials and take their
    values in U(h), multiplied there and started from U(h)'s unit; the
    graph then has the graded dimensions of U(g), whatever dim h is."""
    g1 = FinLie.from_pairs(["x"], {}, "g")
    h2 = FinLie.from_pairs(["u", "v"], {}, "h")
    action = LieAction(g1, h2, [Mat.from_cols([[1, 0], [0, 2]])])
    rep = graph_dims_check(action, [[F(1), F(0)]], 3)
    assert rep["graph_filtration_dims"] == [1, 2, 3, 4]
    assert rep["expected_dims"] == [1, 2, 3, 4]
    assert rep["ok"] is True


def test_ckmm_truncated_instance():
    rep = ckmm_truncated_instance(3)
    assert rep["ok"]
    assert rep["compatible"]
    assert rep["incompatible_pair_rejected"]
    assert rep["incompatible_witness"] == ("s", "e")
    assert rep["extension_pairs_skipped"] > 0  # honest budget accounting


def test_derived_action_primitive_formula_on_truncation():
    """The derived action a ._pi x = pi(a1)(a3 . x) S(pi(a2)), computed from
    its definition over the double coproduct of a, equals [pi(a), x] + a . x
    for primitive a and x, on T(2, 4) with the adjoint derivation action and
    pi the doubling difference operator.  The letters and [a, b] are the
    primitives; every product stays within the budget."""
    tv = TruncatedTensor(2, 4)
    adj = adjoint_derivation_action(tv)
    pi_cols = diffop_from_hom(
        tv, [list(tv.generator_vec(0)), list(tv.generator_vec(1))]).details["D"]

    def derived(a, x):
        out = zero_vec(tv.dim)
        for (a1, a2, a3), c in sweedler_expand(tv, a, 2).items():
            left = tv.mult_vec(pi_cols[a1], adj.act_basis(a3, x))
            out = vec_add(out, vec_scale(c, tv.mult_vec(left, tv.antipode_vec(pi_cols[a2]))))
        return out

    a, b = tv.generator_vec(0), tv.generator_vec(1)
    ab = vec_sub(tv.mult_vec(a, b), tv.mult_vec(b, a))
    for av in (a, b, ab):
        pia = Mat.from_cols(pi_cols).apply(av)
        for x in (a, b):
            bracket = vec_sub(tv.mult_vec(pia, x), tv.mult_vec(x, pia))
            assert derived(av, x) == vec_add(bracket, adj.act(av, x))
