from fractions import Fraction

import pytest

from hopfdiff import freelie
from hopfdiff.exactlin import Mat, row_space_basis
from hopfdiff.freelie import (
    BudgetCapError,
    LyndonBasis,
    TruncatedEnveloping,
    TruncatedTensor,
    adjoint_derivation_action,
    bracket_expansion,
    ckmm_truncated_instance,
    diffop_from_hom,
    extend_crossed_hom_trunc,
    free_crossed_hom_values,
    graph_dims_check,
    lyndon_dims,
    lyndon_words,
    mm_instance_check,
    smash_vs_semidirect_trunc,
    trivial_derivation_action,
    truncated_primitives,
    witt_dimension,
    words_up_to,
)
from hopfdiff.hopf import OutOfBudgetError, is_cocommutative, zero_vec
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


def test_budget_caps_enforced():
    with pytest.raises(ValueError):
        TruncatedTensor(2, 7)
    with pytest.raises(ValueError):
        TruncatedTensor(4, 3)


@pytest.mark.parametrize("generators, budget", [(-2, 3), (0, 3), (2, 0), (2, -1)])
def test_below_range_rejected_before_enumerating_words(monkeypatch, generators, budget):
    # words_up_to never terminates for a negative letter count; failing it
    # here turns a missing range check into a failure instead of a hang
    def unreachable(*args):
        raise AssertionError("words enumerated for an out-of-range carrier")

    monkeypatch.setattr(freelie, "words_up_to", unreachable)
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
    prim = truncated_primitives(tv)
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
    rep = extend_crossed_hom_trunc(tv, triv, [zero_vec(tv.dim), zero_vec(tv.dim)])
    assert rep.ok
    cols = rep.details["pibar"]
    assert cols[0] == tv.unit_vec()
    for g in range(2):
        assert cols[tv.index[(g,)]] == zero_vec(tv.dim)


def test_extend_crossed_hom_minus_id_adjoint():
    tv = TruncatedTensor(2, 3)
    adj = adjoint_derivation_action(tv)
    neg = [[-c for c in tv.generator_vec(g)] for g in range(2)]
    rep = extend_crossed_hom_trunc(tv, adj, neg)
    assert rep.ok
    assert rep.checked > 0


def test_free_crossed_hom_values_recursion():
    tv = TruncatedTensor(2, 3)
    adj = adjoint_derivation_action(tv)
    neg = [[-c for c in tv.generator_vec(g)] for g in range(2)]
    values = dict(free_crossed_hom_values(tv, adj, neg, LyndonBasis(tv)))
    # the unique crossed homomorphism extending -id on letters is -id on
    # the whole free Lie algebra
    bracket_ab = tv.from_word_coeffs(bracket_expansion((0, 1)))
    assert values[(0, 1)] == [-c for c in bracket_ab]


def test_mm_instance_check_passes_and_detects_perturbation():
    tv = TruncatedTensor(2, 3)
    adj = adjoint_derivation_action(tv)
    neg = [[-c for c in tv.generator_vec(g)] for g in range(2)]
    rep = mm_instance_check(tv, adj, neg)
    assert rep.ok
    assert rep.details["uniqueness"]["unique"]
    cols = [None if c is None else list(c) for c in rep.details["pibar"]]
    cols[tv.index[(0, 1)]][tv.index[(1, 0)]] += F(1)
    bad = mm_instance_check(tv, adj, neg, candidate_cols=cols)
    assert not bad.ok
    assert bad.failures


def test_mm_instance_pi_zero():
    tv = TruncatedTensor(2, 3)
    adj = adjoint_derivation_action(tv)
    rep = mm_instance_check(tv, adj, [zero_vec(tv.dim), zero_vec(tv.dim)])
    assert rep.ok


def test_truncated_enveloping_pbw():
    heis = FinLie.from_pairs(["p", "q", "z"], {(0, 1): [0, 0, 1]}, "heis")
    u = TruncatedEnveloping(heis, 3)
    assert u.graded_dims() == [1, 3, 6, 10]
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
    prim = truncated_primitives(u)
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


def test_graph_dims_instance():
    g1 = FinLie.from_pairs(["x"], {}, "g")
    h1 = FinLie.from_pairs(["u"], {}, "h")
    action = LieAction(g1, h1, [Mat.from_cols([[1]])])
    rep = graph_dims_check(action, [[F(1)]], 3)
    assert rep["ok"]
    assert rep["graph_filtration_dims"] == [1, 2, 3, 4]


def test_ckmm_truncated_instance():
    rep = ckmm_truncated_instance(3)
    assert rep["ok"]
    assert rep["compatible"]
    assert rep["incompatible_pair_rejected"]
    assert rep["incompatible_witness"] == ("s", "e")
    assert rep["extension_pairs_skipped"] > 0  # honest budget accounting


def test_derived_action_primitive_formula_on_truncation():
    """The derived-action restriction to primitives: a ._pi x equals
    [pi(a), x] + a . x for primitive a, x (checked on the letters with an
    in-budget crossed homomorphism pi = the doubling difference operator)."""
    tv = TruncatedTensor(2, 4)
    adj = adjoint_derivation_action(tv)
    rep = diffop_from_hom(tv, [list(tv.generator_vec(0)), list(tv.generator_vec(1))])
    pi_cols = rep.details["D"]
    from hopfdiff.hopf import vec_add, vec_scale, vec_sub

    for a in range(2):
        av = tv.generator_vec(a)
        ai = tv.index[(a,)]
        for x in range(2):
            xv = tv.generator_vec(x)
            # a ._pi x = pi(a1)(a3 . x) S pi(a2) expanded over
            # Delta2(a) = a(x)1(x)1 + 1(x)a(x)1 + 1(x)1(x)a for primitive a
            pia = pi_cols[ai]
            term1 = tv.mult_vec(pia, xv)  # pi(a) x S(pi(1)) = pi(a) x
            term2 = vec_scale(F(-1), tv.mult_vec(xv, pia))  # pi(1) x S(pi(a)) = -x pi(a)
            term3 = adj.derivation(a, xv)  # pi(1)(a . x)S(pi(1))
            lhs = vec_add(vec_add(term1, term2), term3)
            bracket = vec_sub(tv.mult_vec(pia, xv), tv.mult_vec(xv, pia))
            rhs = vec_add(bracket, adj.derivation(a, xv))
            assert lhs == rhs
