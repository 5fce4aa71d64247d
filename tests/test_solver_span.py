"""Span oracle for the rows a search branch builds its constraints on.

``_Branch.equations`` builds the counit, comultiplication and
difference-identity constraints on the block generators' rows only, and
its docstring proves that every other row is a constant linear transport
of a kept one.  The builder that took every row is kept below verbatim as
the reference: ``AllRowsTables.diff_pairs`` and ``AllRowsBranch.equations``.
On every branch of plan:H4, plan:kC2xC2 and plan:H8, and of the derived
plans of A(4, 0), A(4, 1), A(6, 1) and H4 (x) H4 (three blocks), each
stage's reduced echelon form over the union of both monomial sets must be
the reference's.  A seeded fault shows that the comparison can fail:
dropping the rows of one generator of H4 (x) H4 changes the span.

On these algebras each transport L_g(v) = D(g) g v S(g) maps basis
vectors to signed basis vectors, so after deduplication the kept rows
are even the same equations as all rows (the equation sets of
``test_solver_oracle.py`` stay equal); the span is what the proof gives
in general.
"""

from fractions import Fraction

import pytest

from hopfdiff import catalog
from hopfdiff.exactlin import int_echelon
from hopfdiff.fingroup import coradical_group
from hopfdiff.groups import diffop_from_endo, enumerate_endos
from hopfdiff.solver import (
    SearchPlan,
    _acc,
    _acc_product,
    _Branch,
    _dedupe,
    _equation,
    _PlanTables,
    derive_plan,
)
from test_solver_families import algebra


class AllRowsTables(_PlanTables):
    def diff_pairs(self):
        """Basis pairs used for the phase-3 difference-identity
        constraints: every pair touching the coradical, plus coset
        elements against the scheduled generators.  These cover the
        defining relations; phase 4 re-verifies all pairs regardless, so
        a sparser necessary set here only costs extra candidates, never
        completeness."""
        n = self.h.dim
        gset = set(self.plan.grouplike_indices)
        gens = {block.generator for block in self.plan.blocks}
        return [(i, j) for i in range(n) for j in range(n)
                if i in gset or j in gset or i in gens or j in gens]


class AllRowsBranch(_Branch):
    def equations(self):
        """Constraint equations for this branch in two stages: the counit and
        comultiplication ones, then the same list with the difference identity's.

        The counit and comultiplication constraints alone usually pin the
        candidate set; the symbolic difference-identity constraints are
        generated only when a first pass stays underdetermined, since
        every candidate is re-verified exhaustively afterwards either way.
        """
        t = self.tables.t
        n = self.h.dim
        cols, den = self.images
        eqs: list[dict] = []
        gset = set(self.plan.grouplike_indices)
        # counit constraints for the scheduled generators
        for block in self.plan.blocks:
            acc: dict = {}
            for k, form in enumerate(cols[block.generator]):
                _acc(acc, t.counit[k], form)
            eqs.append(_equation(acc, 1, {(0, 0): den * t.counit[block.generator]}))
        # comultiplication constraints for every non-coradical basis
        # element, times comult_den * den^2
        for b in range(n):
            if b in gset:
                continue
            lhs: dict = {}
            for k, form in enumerate(cols[b]):
                if not form:
                    continue
                for (i, j, c) in t.comult[k]:
                    _acc(lhs.setdefault((i, j), {}), c, form)
            rhs: dict = {}
            for (i, j, c) in t.comult[b]:
                di, dj = cols[i], cols[j]
                for a, fa in enumerate(di):
                    if not fa:
                        continue
                    for bb, fb in enumerate(dj):
                        if fb:
                            _acc_product(rhs.setdefault((a, bb), {}), c, fa, fb)
            for key in set(lhs) | set(rhs):
                eqs.append(_equation(lhs.get(key, {}), den, rhs.get(key, {})))
        yield _dedupe(eqs)
        # the difference identity on the phase-3 pair set; the right side
        # carries den^2 sweedler_den mult_den^3 antipode_den, the left side
        # den mult_den
        scale = den * t.sweedler_den * t.mult_den ** 2 * t.antipode_den
        for i, j in self.tables.diff_pairs():
            lhs_vec = [{} for _ in range(n)]
            for k, c in t.mult[i][j]:
                for m, form in enumerate(cols[k]):
                    if form:
                        _acc(lhs_vec[m], c, form)
            rhs_vec = [{} for _ in range(n)]
            dj = cols[j]
            for t1, t2, right in self.tables.sweedler_rows(i):
                # (D(t1) t2) D(j) sum_t3 w S(t3)
                for k, mid in enumerate(self._poly_mult_vec(self._left_part(t1, t2), dj)):
                    if mid:
                        for m, c in right[k]:
                            _acc(rhs_vec[m], c, mid)
            for m in range(n):
                eqs.append(_equation(lhs_vec[m], scale, rhs_vec[m]))
        yield _dedupe(eqs)


def plan_of(name):
    return catalog.build(name).validate() if name.startswith("plan:") else derive_plan(
        algebra(name))


def branch_images(plan):
    """The restriction to G(H) of each branch, one per coradical endomorphism."""
    group, idxs, _ = coradical_group(plan.target)
    for endo in enumerate_endos(group):
        d_group = diffop_from_endo(endo)
        yield {idxs[g]: idxs[d_group(g)] for g in range(group.order)}


def reduced(eqs, monos) -> list:
    """The reduced echelon form of the equations over the monomials monos,
    each row divided by its pivot entry."""
    midx = {m: i for i, m in enumerate(monos)}
    rows, pivots = int_echelon([{midx[m]: c for m, c in e.items()} for e in eqs], len(monos))
    return [{monos[i]: Fraction(c, row[p]) for i, c in row.items()}
            for row, p in zip(rows, pivots)]


def stage_spans(kept, every):
    """(kept, reference) reduced forms of each stage, over the union of the
    two stages' monomials."""
    for got, want in zip(kept, every, strict=True):
        monos = sorted(set().union(*got, *want), reverse=True)
        yield reduced(got, monos), reduced(want, monos)


NAMES = ["plan:H4", "plan:kC2xC2", "plan:H8", "A(4,0)", "A(4,1)", "A(6,1)", "H4(x)H4"]


@pytest.mark.parametrize("name", NAMES)
def test_generator_rows_span_every_row(name):
    plan = plan_of(name)
    tables, every = _PlanTables(plan), AllRowsTables(plan)
    for d_on_group in branch_images(plan):
        kept = list(_Branch(tables, d_on_group).equations())
        for got, want in stage_spans(kept, AllRowsBranch(every, d_on_group).equations()):
            assert got == want


def test_dropping_a_generators_rows_changes_the_span():
    """The seeded fault: the branch keeps the images and parameters of all
    three blocks of H4 (x) H4, but builds its rows without the first
    generator's."""
    plan = plan_of("H4(x)H4")
    assert len(plan.blocks) == 3
    every = AllRowsTables(plan)
    for d_on_group in branch_images(plan):
        faulty = _Branch(_PlanTables(plan), d_on_group)
        faulty.plan = faulty.tables.plan = SearchPlan(
            plan.target, plan.grouplike_indices, plan.blocks[1:])
        reference = AllRowsBranch(every, d_on_group).equations()
        for got, want in stage_spans(faulty.equations(), reference):
            assert got != want
