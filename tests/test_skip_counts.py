"""Pinned skip accounting of the truncated checkers.

Every in-budget pair is checked, every other pair is skipped, and an
unknown image column is recorded once.  The counts below are those of
`free-lie diffop-from-hom`, `free-lie ckmm-mixed` and the crossed-hom
extension behind `free-lie mm-check`, at two generators.
"""

import pytest

from hopfdiff.freelie import (
    TruncatedTensor,
    adjoint_derivation_action,
    ckmm_truncated_instance,
    diffop_from_hom,
    extend_crossed_hom_trunc,
)
from hopfdiff.hopf import vec_sub, zero_vec


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
    rep = extend_crossed_hom_trunc(tv, adj, neg)
    assert rep.ok
    assert (rep.checked, len(rep.skipped)) == (129, 832)


def _bracket_phi(tv):
    """phi(a) = [a, b], phi(b) = 0: F and D leave the budget on long words."""
    ab = vec_sub(tv.word_vec((0, 1)), tv.word_vec((1, 0)))
    return [ab, zero_vec(tv.dim)]


def _column_entries(skipped):
    """The labels of the skip entries that name an unknown image column."""
    return [entry[1] for entry in skipped if entry[0] in ("D", "column")]


def test_unknown_diffop_columns_are_recorded_once():
    tv = TruncatedTensor(2, 3)
    rep = diffop_from_hom(tv, _bracket_phi(tv))
    assert rep.ok
    unknown = [tv.label(i) for i, col in enumerate(rep.details["D"]) if col is None]
    assert len(unknown) == 8
    assert _column_entries(rep.skipped) == unknown
    assert (rep.checked, len(rep.skipped)) == (18, 223)


def test_unknown_crossed_hom_columns_are_recorded_once():
    tv = TruncatedTensor(2, 3)
    rep = extend_crossed_hom_trunc(tv, adjoint_derivation_action(tv), _bracket_phi(tv))
    assert rep.ok
    unknown = [tv.label(i) for i, col in enumerate(rep.details["pibar"]) if col is None]
    assert len(unknown) == 5
    assert _column_entries(rep.skipped) == unknown
    assert (rep.checked, len(rep.skipped)) == (28, 203)
