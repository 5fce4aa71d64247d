"""Pinned skip accounting of the truncated checkers.

Every in-budget pair is checked, every other pair is skipped, and an
unknown image column is recorded once.  The counts below are those of
`free-lie diffop-from-hom`, `free-lie ckmm-mixed` and the crossed-hom
extension behind `free-lie mm-check`, at two generators, and the
multiplicativity pairs of `smash_vs_semidirect_trunc`.
"""

import pytest

from hopfdiff.freelie import (
    adjoint_derivation_action,
    ckmm_truncated_instance,
    diffop_from_hom,
    extend_crossed_hom_trunc,
    smash_vs_semidirect_trunc,
)
from hopfdiff.truncated import TruncatedTensor
from hopfdiff.exactlin import Mat
from hopfdiff.hopf import OutOfBudgetError, vec_sub, zero_vec
from hopfdiff.lie import FinLie, LieAction, adjoint_lie_action


@pytest.mark.parametrize("budget, checked, skipped", [(3, 49, 176), (4, 129, 832)])
def test_diffop_from_hom_counts(budget, checked, skipped):
    tv = TruncatedTensor(2, budget)
    rep = diffop_from_hom(tv, [zero_vec(tv.dim), zero_vec(tv.dim)])
    assert rep.ok and not rep.failures
    assert (rep.checked, len(rep.skipped)) == (checked, skipped)


@pytest.mark.parametrize("budget, checked, skipped", [(3, 40, 24), (4, 60, 40)])
def test_ckmm_mixed_extension_counts(budget, checked, skipped):
    rep = ckmm_truncated_instance(budget)
    assert rep["ok"] and rep["extension_is_diffop"]
    assert (rep["extension_pairs_checked"], rep["extension_pairs_skipped"]) == (checked, skipped)


def test_extend_crossed_hom_counts_at_budget_four():
    tv = TruncatedTensor(2, 4)
    adj = adjoint_derivation_action(tv)
    neg = [[-c for c in tv.generator_vec(g)] for g in range(2)]
    rep = extend_crossed_hom_trunc(adj, neg)
    assert rep.ok
    assert (rep.checked, len(rep.skipped)) == (129, 832)


def _bracket_phi(tv):
    """phi(a) = [a, b], phi(b) = 0: F and D leave the budget on long words."""
    ab = vec_sub(tv.word_vec((0, 1)), tv.word_vec((1, 0)))
    return [ab, zero_vec(tv.dim)]


def _column_entries(skipped):
    """The basis indices of the skip entries that name an unknown image column."""
    return [entry[1] for entry in skipped if entry[0] == "column"]


def test_unknown_diffop_columns_are_recorded_once():
    tv = TruncatedTensor(2, 3)
    rep = diffop_from_hom(tv, _bracket_phi(tv))
    assert rep.ok
    unknown = [i for i, col in enumerate(rep.details["D"].cols)
               if isinstance(col, OutOfBudgetError)]
    assert len(unknown) == 8
    assert _column_entries(rep.skipped) == unknown
    assert (rep.checked, len(rep.skipped)) == (18, 223)


def test_unknown_crossed_hom_columns_are_recorded_once():
    tv = TruncatedTensor(2, 3)
    rep = extend_crossed_hom_trunc(adjoint_derivation_action(tv), _bracket_phi(tv))
    assert rep.ok
    unknown = [i for i, col in enumerate(rep.details["pibar"].cols)
               if isinstance(col, OutOfBudgetError)]
    assert len(unknown) == 5
    assert _column_entries(rep.skipped) == unknown
    assert (rep.checked, len(rep.skipped)) == (28, 203)


def _lie_action(kind):
    """A one-dimensional Lie algebra acting on another by 1 or by 0, or the
    adjoint action of the two-dimensional non-abelian one."""
    if kind == "aff1":
        return adjoint_lie_action(FinLie.from_pairs(["a", "b"], {(0, 1): [0, 1]}, "aff1"))
    g1 = FinLie.from_pairs(["x"], {}, "g")
    h1 = FinLie.from_pairs(["u"], {}, "h")
    return LieAction(g1, h1, [Mat.from_cols([[1]]) if kind == "one" else Mat.zero(1, 1)])


@pytest.mark.parametrize("kind, budget, checked", [
    ("one", 3, 35), ("one", 4, 70), ("zero", 3, 35), ("zero", 4, 70),
    ("aff1", 3, 165), ("aff1", 4, 495)])
def test_smash_vs_semidirect_multiplicative_pairs(kind, budget, checked):
    rep = smash_vs_semidirect_trunc(_lie_action(kind), budget)
    assert rep["ok"] and rep["multiplicative"]
    assert rep["skipped"] == []
    assert rep["multiplicative_pairs_checked"] == checked
