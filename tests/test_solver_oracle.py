"""Differential oracle for the solver's integer polynomial layer.

The rational polynomial layer of the classification engine is kept below
verbatim as the reference: the ``p_*`` functions, the branch that built
the counit, comultiplication and difference-identity constraints as
``Fraction`` polynomials, and the engine with its ``_linear_phase``, which
substituted the affine solution table with ``p_subst``.  Where it called
``exactlin.solve_affine``, ``exactlin.kernel`` and
``exactlin.row_space_basis`` it now solves with the Fraction elimination
of ``reference_linalg``, so the reference does not
run the integer elimination it checks.  The integer layer stores every
equation primitive, so equations are compared up to scale.

The engine's linear phase first reduces the equations over their
monomials, quadratic ones first, so it solves every linear consequence of
the span, not only the equations that are linear as written.  Its oracle
reduces with ``reference_linalg`` and runs the verbatim reference linear
phase on the reduced rows, until no reduced row is linear, and compares
the reduced equation spans.

The reference engine also keeps its character dispatch, which pinned
every coset coordinate of the first generator at once from the q(p) = r
candidate set; the engine only records that set and branches on one form
at a time.

The q(p) = r candidate set formed each entry from ``Fraction`` products;
that construction is kept as the reference for the integer one.

Hypothesis draws polynomials and substitution tables with coefficients
from the sampling pool {0, +-1, +-1/2, 2}.  On plan:H4, plan:kC2xC2 and
all sixteen plan:H8 branches the per-branch equation sets, the images,
and the engine's solutions, record and residual must be equal.  A last check
compares the engine's solutions, record and residual with the reference
engine's on all 34 branches of plan:H4, plan:kC2xC2 and plan:H8.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfdiff import catalog
from hopfdiff.exactlin import ONE, ZERO, rat
from hopfdiff.fingroup import FinGroup, coradical_group
from hopfdiff.groups import diffop_from_endo, enumerate_endos
from hopfdiff.hopf import FinDimHopf, basis_vec, sweedler_expand
from hopfdiff.solver import (
    NotFiniteError,
    SearchPlan,
    _Branch,
    _Engine,
    _Images,
    _PlanTables,
    _primitive,
    _subst,
    _subst_form,
    f2_characters,
    rational_roots,
    solve_quadratic_in_group_algebra,
)
from reference_linalg import (reference_kernel, reference_row_reduce, reference_row_space,
                              reference_solve_affine)
from sampling import COEFF_POOL


# -- the rational polynomial layer, kept verbatim --------------------------------

# monomial = sorted tuple of variable indices (with repetition); () = 1

Poly = dict


def p_const(c) -> Poly:
    c = rat(c)
    return {(): c} if c else {}


def p_var(i: int) -> Poly:
    return {(i,): ONE}


def p_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for m, c in b.items():
        v = out.get(m, ZERO) + c
        if v:
            out[m] = v
        elif m in out:
            del out[m]
    return out


def p_scale(c, a: Poly) -> Poly:
    c = rat(c)
    if not c:
        return {}
    return {m: c * v for m, v in a.items()}


def p_sub(a: Poly, b: Poly) -> Poly:
    return p_add(a, p_scale(-1, b))


def p_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(sorted(m1 + m2))
            v = out.get(m, ZERO) + c1 * c2
            if v:
                out[m] = v
            elif m in out:
                del out[m]
    return out


def p_degree(a: Poly) -> int:
    return max((len(m) for m in a), default=0)


def p_eval_const(a: Poly):
    """The constant value if the poly has no variables, else None."""
    if not a:
        return ZERO
    if len(a) == 1 and () in a:
        return a[()]
    return None


def p_subst(a: Poly, table: list[Poly]) -> Poly:
    """Substitute old variable i -> affine poly table[i] (in new variables)."""
    out: Poly = {}
    for m, c in a.items():
        term = p_const(c)
        for i in m:
            term = p_mul(term, table[i])
        out = p_add(out, term)
    return out


def p_canonical(a: Poly):
    items = tuple(sorted(a.items(), key=lambda kv: (len(kv[0]), kv[0])))
    if not items:
        return items
    lead = items[0][1]
    return tuple((m, c / lead) for m, c in items)


# -- the rational branch and engine, kept verbatim ------------------------------

def _acc_scaled(acc: Poly, c, poly: Poly):
    """acc += c * poly, in place; zeros are cleaned later."""
    if not c or not poly:
        return
    for m, v in poly.items():
        acc[m] = acc.get(m, ZERO) + c * v


def _clean(poly: Poly) -> Poly:
    return {m: c for m, c in poly.items() if c}


class ReferenceBranch:
    def __init__(self, h: FinDimHopf, plan: SearchPlan, group: FinGroup,
                 pos_of_grouplike: dict, d_on_group: dict, sweedler3=None):
        self.h = h
        self.plan = plan
        self.group = group
        self.pos = pos_of_grouplike
        self.nvars = sum(h.dim for _ in plan.blocks)
        self.record: list | None = None
        self.sweedler3 = sweedler3 or [
            sweedler_expand(h, basis_vec(h.dim, i), 2) for i in range(h.dim)]
        self._left_cache: dict = {}
        # affine image polynomials per basis element
        n = h.dim
        images: list[list[Poly]] = [None] * n
        for b, target in d_on_group.items():
            images[b] = [p_const(ONE if t == target else ZERO) for t in range(n)]
        var0 = 0
        for block in plan.blocks:
            gen_vec = [p_var(var0 + k) for k in range(n)]
            var0 += n
            for b, (g, _) in sorted(block.cosets.items()):
                if b == block.generator:
                    images[b] = gen_vec
                    continue
                # D(g c) = D(g) g U S(g), affine in the unknown U
                dg = d_on_group[g]
                prefix = h.mult_basis(dg, g)
                sg = h.antipode_basis(g)
                images[b] = self._sandwich(prefix, gen_vec, sg)
        self.images = images

    def _sandwich(self, left_vec, mid_polys, right_vec):
        h = self.h
        n = h.dim
        # left_vec and right_vec are constant coordinate vectors
        out = [dict() for _ in range(n)]
        for i, a in enumerate(left_vec):
            if not a:
                continue
            for j, pj in enumerate(mid_polys):
                if not pj:
                    continue
                part = h.mult_basis(i, j)
                for k, c in enumerate(part):
                    if not c:
                        continue
                    for l, b in enumerate(right_vec):
                        if not b:
                            continue
                        for m, d in enumerate(h.mult_basis(k, l)):
                            if d:
                                out[m] = p_add(out[m], p_scale(a * c * b * d, pj))
        return out

    # -- equation generation ------------------------------------------------

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

    def equations(self, include_diff_identity: bool) -> list[Poly]:
        """Constraint polynomials for this branch.

        The counit and comultiplication constraints alone usually pin the
        candidate set; the symbolic difference-identity constraints are
        generated only when a first pass stays underdetermined, since
        every candidate is re-verified exhaustively afterwards either way.
        """
        h = self.h
        n = h.dim
        eqs: list[Poly] = []
        gset = set(self.plan.grouplike_indices)
        # counit constraints for the scheduled generators
        for block in self.plan.blocks:
            acc: Poly = {}
            for k in range(n):
                _acc_scaled(acc, h.counit_coeff(k), self.images[block.generator][k])
            eqs.append(p_sub(_clean(acc), p_const(h.counit_coeff(block.generator))))
        # comultiplication constraints for every non-coradical basis element
        for b in range(n):
            if b in gset:
                continue
            lhs: dict = {}
            for k in range(n):
                pk = self.images[b][k]
                if not pk:
                    continue
                for (i, j, c) in h.comult_triples(k):
                    _acc_scaled(lhs.setdefault((i, j), {}), c, pk)
            rhs: dict = {}
            for (i, j, c) in h.comult_triples(b):
                di, dj = self.images[i], self.images[j]
                for a, pa in enumerate(di):
                    if not pa:
                        continue
                    for bb, pb in enumerate(dj):
                        if not pb:
                            continue
                        _acc_scaled(rhs.setdefault((a, bb), {}), c, p_mul(pa, pb))
            for key in set(lhs) | set(rhs):
                eqs.append(p_sub(_clean(lhs.get(key, {})), _clean(rhs.get(key, {}))))
        if not include_diff_identity:
            return _dedupe(eqs)
        # the difference identity on the phase-3 pair set
        for i, j in self.diff_pairs():
            lhs_vec = [dict() for _ in range(n)]
            prod = h.mult_basis(i, j)
            for k, c in enumerate(prod):
                if not c:
                    continue
                for m, pm in enumerate(self.images[k]):
                    if pm:
                        _acc_scaled(lhs_vec[m], c, pm)
            rhs_vec = [dict() for _ in range(n)]
            dj = self.images[j]
            for (left, t3, c) in self._left_parts(i):
                # (D(t1) t2) D(j) S(t3)
                mid = self._poly_mult_vec(left, dj)
                term = self._translate_right_const(mid, h.antipode_basis(t3))
                for m in range(n):
                    if term[m]:
                        _acc_scaled(rhs_vec[m], c, term[m])
            for m in range(n):
                eqs.append(p_sub(_clean(lhs_vec[m]), _clean(rhs_vec[m])))
        return _dedupe(eqs)

    def _left_parts(self, i):
        """Precomputed (D(t1) t2, t3, coeff) rows of the third Sweedler
        power of basis element i; shared across right-hand factors."""
        cached = self._left_cache.get(i)
        if cached is None:
            cached = [
                (self._translate_right(self.images[t1], t2), t3, c)
                for (t1, t2, t3), c in self.sweedler3[i].items()
            ]
            self._left_cache[i] = cached
        return cached

    def _translate_right(self, polys, basis_idx):
        h = self.h
        n = h.dim
        out = [dict() for _ in range(n)]
        for k, pk in enumerate(polys):
            if not pk:
                continue
            for m, c in enumerate(h.mult_basis(k, basis_idx)):
                if c:
                    _acc_scaled(out[m], c, pk)
        return [_clean(p) for p in out]

    def _translate_right_const(self, polys, vec):
        h = self.h
        n = h.dim
        out = [dict() for _ in range(n)]
        for k, pk in enumerate(polys):
            if not pk:
                continue
            for l, b in enumerate(vec):
                if not b:
                    continue
                for m, c in enumerate(h.mult_basis(k, l)):
                    if c:
                        _acc_scaled(out[m], b * c, pk)
        return [_clean(p) for p in out]

    def _poly_mult_vec(self, u, v):
        h = self.h
        n = h.dim
        out = [dict() for _ in range(n)]
        for i, pi in enumerate(u):
            if not pi:
                continue
            for j, pj in enumerate(v):
                if not pj:
                    continue
                prod = p_mul(pi, pj)
                if not prod:
                    continue
                for m, c in enumerate(h.mult_basis(i, j)):
                    if c:
                        _acc_scaled(out[m], c, prod)
        return [_clean(p) for p in out]


class ReferenceEngine:
    """Exact elimination over the branch parameters with root branching."""

    def __init__(self, branch: ReferenceBranch, chars, char_group: FinGroup):
        self.branch = branch
        self.chars = chars
        self.char_group = char_group
        self.partial_reason: str | None = None

    def run(self):
        images = self.branch.images
        eqs = self.branch.equations(include_diff_identity=False)
        solutions = self._solve(eqs, images, self.branch.nvars, dispatch_done=False)
        if solutions is None:
            self.partial_reason = None
            self.branch.record = None
            eqs = self.branch.equations(include_diff_identity=True)
            solutions = self._solve(eqs, images, self.branch.nvars, dispatch_done=False)
        return solutions

    # each solution is a full list of constant image vectors
    def _solve(self, eqs, images, nvars, dispatch_done):
        eqs, images, nvars, consistent = self._linear_phase(eqs, images, nvars)
        if not consistent:
            return []
        eqs = [e for e in eqs if e]
        if nvars == 0:
            # with no parameters left every equation is a constant
            if any(p_eval_const(e) for e in eqs):
                return []
            return [self._freeze(images)]
        if not eqs:
            self.partial_reason = f"{nvars} parameters remain unconstrained"
            return None
        # character dispatch over the generator coset block; its
        # precondition (pinned coradical part) may only hold deeper in the
        # tree, so keep offering it until it fires once
        if not dispatch_done:
            dispatched = self._try_block_dispatch(eqs, images, nvars)
            if dispatched is not None:
                return dispatched
        # single-form branching
        reducer = self._span_reducer(eqs)
        forms = self._candidate_forms(images, nvars)
        for form in forms:
            if not _has_linear_part(form):
                continue
            roots = self._root_set(form, reducer)
            if roots is None:
                continue
            out = []
            for root in roots:
                pin = p_sub(form, p_const(root))
                sub = self._solve(eqs + [pin], images, nvars, dispatch_done)
                if sub is None:
                    return None
                out.extend(sub)
            return out
        self.partial_reason = (
            f"{nvars} parameters with {len(eqs)} nonlinear constraints outside "
            "the group-algebra quadratic pattern")
        return None

    def _freeze(self, images):
        n = self.branch.h.dim
        cols = []
        for b in range(n):
            col = []
            for k in range(n):
                c = p_eval_const(images[b][k])
                assert c is not None
                col.append(c)
            cols.append(col)
        return cols

    def _linear_phase(self, eqs, images, nvars):
        while True:
            linear = [e for e in eqs if e and p_degree(e) <= 1]
            if not linear:
                return eqs, images, nvars, True
            rows = []
            rhs = []
            for e in linear:
                row = [ZERO] * nvars
                for m, c in e.items():
                    if m:
                        row[m[0]] += c
                rows.append(row)
                rhs.append(-e.get((), ZERO))
            particular, kernel_basis = reference_solve_affine(rows, rhs, nvars)
            if particular is None:
                return eqs, images, nvars, False
            k = len(kernel_basis)
            table = []
            for i in range(nvars):
                poly = p_const(particular[i])
                for j, kv in enumerate(kernel_basis):
                    if kv[i]:
                        poly = p_add(poly, {(j,): kv[i]})
                table.append(poly)
            eqs = _dedupe([p_subst(e, table) for e in eqs if p_degree(e) > 1])
            images = [[p_subst(p, table) for p in vec] for vec in images]
            nvars = k
            if not any(e and p_degree(e) <= 1 for e in eqs):
                return eqs, images, nvars, True

    def _candidate_forms(self, images, nvars):
        """Deterministic form order: coradical-part characters of each
        generator image, then coset-part characters, then raw parameters."""
        h = self.branch.h
        forms = []
        for block in self.branch.plan.blocks:
            u = images[block.generator]
            corad = self.branch.plan.grouplike_indices
            coset_by_g = {g: b for b, (g, _) in block.cosets.items()}
            for chi in self.chars:
                f: Poly = {}
                for g in corad:
                    f = p_add(f, p_scale(chi[self.branch.pos[g]], u[g]))
                forms.append(f)
            for chi in self.chars:
                f = {}
                for g in corad:
                    b = coset_by_g[g]
                    f = p_add(f, p_scale(chi[self.branch.pos[g]], u[b]))
                forms.append(f)
        for i in range(nvars):
            forms.append(p_var(i))
        return forms

    def _span_reducer(self, eqs):
        """Row-echelon view of the equation span over the monomial basis;
        shared by every root-set query at one search node."""
        monos = set()
        for e in eqs:
            monos.update(e)
        monos = sorted(monos, key=lambda m: (len(m), m))
        midx = {m: i for i, m in enumerate(monos)}
        rows = []
        for e in eqs:
            row = [ZERO] * len(monos)
            for m, c in e.items():
                row[midx[m]] = c
            rows.append(row)
        echelon = reference_row_space(rows)
        pivots = [next(i for i, x in enumerate(row) if x) for row in echelon]
        return monos, midx, echelon, pivots

    @staticmethod
    def _residue(poly, monos, midx, echelon, pivots):
        """Reduce against the span; coordinates come back as a dict keyed
        by monomial so that monomials outside the span basis (which no
        equation can ever cancel) stay distinguishable."""
        vec = [ZERO] * len(monos)
        outside = {}
        for m, c in poly.items():
            i = midx.get(m)
            if i is None:
                outside[m] = outside.get(m, ZERO) + c
            else:
                vec[i] = c
        for row, p in zip(echelon, pivots):
            if vec[p]:
                f = vec[p]
                vec = [x - f * y for x, y in zip(vec, row)]
        out = {("in", i): c for i, c in enumerate(vec) if c}
        out.update({("out", m): c for m, c in outside.items() if c})
        return out

    def _root_set(self, form, reducer):
        """Rational roots forced on an affine form by the equation span,
        or None when the span contains no univariate consequence."""
        monos, midx, echelon, pivots = reducer
        f2 = p_mul(form, form)
        r2 = self._residue(f2, monos, midx, echelon, pivots)
        r1 = self._residue(form, monos, midx, echelon, pivots)
        r0 = self._residue(p_const(ONE), monos, midx, echelon, pivots)
        keys = sorted(set(r2) | set(r1) | set(r0), key=repr)
        rows = [[r.get(k, ZERO) for r in (r2, r1, r0)] for k in keys]
        null = reference_kernel(*reference_row_reduce(rows), 3 if rows else 0)
        roots = None
        for vec in null:
            a, b, c = vec[0], vec[1], vec[2]
            if not a and not b:
                continue
            try:
                r = set(rational_roots([c, b, a]))
            except NotFiniteError:
                continue
            roots = r if roots is None else (roots & r)
            if roots is not None and not roots:
                return []
        return None if roots is None else sorted(roots)

    def _try_block_dispatch(self, eqs, images, nvars):
        """Recognize the q(p) = r shape over the coset block of the first
        scheduled generator and solve it through the character transform,
        recording the intermediate candidate set."""
        plan = self.branch.plan
        if not plan.blocks or not self.char_group.has_exponent_two():
            return None
        block = plan.blocks[0]
        u = images[block.generator]
        corad = plan.grouplike_indices
        # coradical part of the image must already be pinned
        if any(p_eval_const(u[g]) is None for g in corad):
            return None
        coset_by_g = {g: b for b, (g, _) in block.cosets.items()}
        p_forms = []
        for g in corad:
            p_forms.append(u[coset_by_g[g]])
        if all(p_eval_const(f) is not None for f in p_forms):
            return None  # nothing left to solve here
        rhat = []
        reducer = self._span_reducer(eqs)
        for chi in self.chars:
            f: Poly = {}
            for g in corad:
                f = p_add(f, p_scale(chi[self.branch.pos[g]], u[coset_by_g[g]]))
            const = p_eval_const(f)
            if const is not None:
                rhat.append(const * const)
                continue
            roots = self._root_set(f, reducer)
            if roots is None:
                return None
            if not roots:
                return []
            if len(roots) == 1:
                rhat.append(roots[0] * roots[0])
            elif len(roots) == 2 and roots[0] == -roots[1]:
                rhat.append(roots[1] * roots[1])
            else:
                return None
        n_g = self.char_group.order
        inv = Fraction(1, n_g)
        r_vec = [inv * sum(self.chars[c][g] * rhat[c] for c in range(len(self.chars)))
                 for g in range(n_g)]
        candidates = solve_quadratic_in_group_algebra(self.char_group, [0, 0, 1], r_vec)
        if self.branch.record is None:
            self.branch.record = candidates
        out = []
        for cand in candidates:
            pins = []
            for g in corad:
                pos = self.branch.pos[g]
                pins.append(p_sub(u[coset_by_g[g]], p_const(cand[pos])))
            sub = self._solve(eqs + pins, images, nvars, dispatch_done=True)
            if sub is None:
                return None
            out.extend(sub)
        return out


def _has_linear_part(form: Poly) -> bool:
    return any(len(m) == 1 for m in form)


def _dedupe(eqs):
    out = []
    seen = set()
    for e in eqs:
        if not e:
            continue
        key = p_canonical(e)
        if key not in seen:
            seen.add(key)
            out.append(e)
    return out


# -- conversions between the two layers ---------------------------------------------

def to_equation(poly: Poly) -> dict:
    """A rational polynomial as a primitive integer equation."""
    den = math.lcm(1, *(c.denominator for c in poly.values()))
    eq = {}
    for m, c in poly.items():
        key = (0,) * (2 - len(m)) + tuple(i + 1 for i in m)
        eq[key] = int(c * den)
    return _primitive(eq)


def to_poly(eq: dict) -> Poly:
    """An integer equation as a rational polynomial."""
    return {tuple(i - 1 for i in key if i): Fraction(c) for key, c in eq.items()}


def to_rational(form: dict, den: int) -> Poly:
    """An integer affine form over den as a rational polynomial."""
    return {(() if k == 0 else (k - 1,)): Fraction(c, den) for k, c in form.items() if c}


def to_table(table: list[Poly]) -> list[dict]:
    """An affine substitution table as integer rows over one denominator,
    index 0 standing for the constant."""
    den = math.lcm(1, *(c.denominator for p in table for c in p.values()))
    rows = [{0: den}]
    for p in table:
        rows.append({(0 if not m else m[0] + 1): int(c * den) for m, c in p.items()})
    return rows


def equation_set(eqs) -> set:
    return {frozenset(e.items()) for e in eqs}


coefficients = st.sampled_from(COEFF_POOL)


@st.composite
def polys(draw, nvars, max_degree=2):
    monos = [()] + [(i,) for i in range(nvars)]
    if max_degree == 2:
        monos += list(itertools.combinations_with_replacement(range(nvars), 2))
    poly = {}
    for m in draw(st.lists(st.sampled_from(monos), max_size=6)):
        c = draw(coefficients)
        if c:
            poly[m] = c
    return poly


@st.composite
def tables(draw, nvars):
    """Affine images of nvars old parameters in up to three new ones."""
    k = draw(st.integers(0, 3))
    return [draw(polys(k, max_degree=1)) for _ in range(nvars)]


# -- properties ----------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_substitution_matches_reference_up_to_scale(data):
    nvars = data.draw(st.integers(1, 4))
    poly = data.draw(polys(nvars))
    table = data.draw(tables(nvars))
    rows = to_table(table)
    assert _subst(to_equation(poly), rows) == to_equation(p_subst(poly, table))
    # affine forms (images) are substituted exactly, over the table's den
    form = data.draw(polys(nvars, max_degree=1))
    int_form = {(0 if not m else m[0] + 1): int(c * 2) for m, c in form.items()}
    assert to_rational(_subst_form(int_form, rows), 2 * rows[0][0]) == p_subst(form, table)


def reference_reduce(eqs) -> list[Poly]:
    """The reduced rows of the span of eqs over their monomials, taken with
    the quadratic monomials first."""
    monos = sorted(set().union(*eqs), key=lambda m: (-len(m), m))
    rows, _ = reference_row_reduce([[e.get(m, ZERO) for m in monos] for e in eqs])
    return [p for p in ({m: c for m, c in zip(monos, row) if c} for row in rows) if p]


def reference_linear_phase(eqs, images, nvars):
    """The engine's linear phase by its contract: reduce the equations, run
    the verbatim reference linear phase on the reduced rows, and repeat
    until no reduced row is linear."""
    while True:
        eqs = reference_reduce(eqs)
        if all(p_degree(e) > 1 for e in eqs):
            return eqs, images, nvars, True
        eqs, images, nvars, consistent = ReferenceEngine._linear_phase(None, eqs, images, nvars)
        if not consistent:
            return eqs, images, nvars, False


def span_key(eqs) -> set:
    """The span of eqs as the set of its reduced rows, each up to scale."""
    return {p_canonical(e) for e in reference_reduce(list(eqs))}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_linear_phase_matches_reference(data):
    """The reduced rows with no quadratic monomial span every linear
    consequence of the equations, so the linear phase solves all of them,
    not only the equations that are linear as written."""
    nvars = data.draw(st.integers(1, 4))
    eqs = [e for e in data.draw(st.lists(polys(nvars), min_size=1, max_size=5)) if e]
    eqs += [e for e in data.draw(st.lists(polys(nvars, max_degree=1), max_size=3)) if e]
    images = [[p_var(k) for k in range(nvars)]]
    want = reference_linear_phase(eqs, images, nvars)
    got = _Engine._linear_phase([to_equation(e) for e in eqs],
                                _Images([[{k + 1: 1} for k in range(nvars)]], 1), nvars)
    assert (got[3] is not None) == want[3]
    if want[3]:
        assert got[2] == want[2]
        assert [to_rational(f, got[1].den) for f in got[1].cols[0]] == want[1][0]
        assert span_key(map(to_poly, got[0])) == span_key(want[0])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_root_set_matches_reference(data):
    """Roots forced on form / den by the span of the equations."""
    nvars = data.draw(st.integers(1, 3))
    eqs = [e for e in data.draw(st.lists(polys(nvars), min_size=1, max_size=4)) if e]
    form = data.draw(polys(nvars, max_degree=1).filter(_has_linear_part))
    den = data.draw(st.sampled_from([1, 2, 3]))
    scale = math.lcm(*(c.denominator for c in form.values()))
    int_form = {(0 if not m else m[0] + 1): int(c * scale) for m, c in form.items()}
    ref = object.__new__(ReferenceEngine)
    want = ref._root_set(p_scale(Fraction(1, den), form), ref._span_reducer(_dedupe(eqs)))
    new = object.__new__(_Engine)
    got = new._root_set(int_form, den * scale,
                        _Engine._reduce([to_equation(e) for e in _dedupe(eqs)]))
    assert got == want


def reference_solve_quadratic(group: FinGroup, q_coeffs, r_vec) -> list[list[Fraction]]:
    """solve_quadratic_in_group_algebra as it formed each entry from
    Fraction products, kept verbatim."""
    chars, _ = f2_characters(group)
    n = group.order
    r_vec = [rat(c) for c in r_vec]
    if len(r_vec) != n:
        raise ValueError("target element has wrong length")
    q_coeffs = [rat(c) for c in q_coeffs]
    per_char = []
    for chi in chars:
        rhat = sum(chi[g] * r_vec[g] for g in range(n))
        shifted = list(q_coeffs)
        shifted[0] = shifted[0] - rhat
        roots = rational_roots(shifted)
        if not roots:
            return []
        per_char.append(roots)
    out = []
    inv_order = Fraction(1, n)
    for combo in itertools.product(*per_char):
        p = [inv_order * sum(chars[c][g] * combo[c] for c in range(len(chars)))
             for g in range(n)]
        out.append(p)
    return out


def elementary_two_group(rank: int) -> FinGroup:
    """(C2)^rank, the element i the bit vector i, the product xor."""
    n = 1 << rank
    return FinGroup([str(i) for i in range(n)], [[i ^ j for j in range(n)] for i in range(n)])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_quadratic_candidates_match_reference(data):
    """The candidate set over (C2)^1..3, the same list in the same order.
    Each character's transform of r is q at a drawn value, so every
    character has a root, unless r is drawn outright."""
    group = elementary_two_group(data.draw(st.integers(1, 3)))
    values = st.sampled_from(COEFF_POOL + [Fraction(1, 3), Fraction(-2, 3), Fraction(3, 4)])
    q = [data.draw(values) for _ in range(3)]
    if not q[2] and not q[1]:
        q[1] = ONE
    if data.draw(st.booleans()):
        r = [data.draw(values) for _ in range(group.order)]
    else:
        chars, _ = f2_characters(group)
        rhat = [q[0] + q[1] * t + q[2] * t * t
                for t in (data.draw(values) for _ in chars)]
        r = [sum(chi[g] * x for chi, x in zip(chars, rhat)) / group.order
             for g in range(group.order)]
    assert solve_quadratic_in_group_algebra(group, q, r) == reference_solve_quadratic(group, q, r)


def branch_pairs(name):
    """(reference, integer) branches of a plan, one per coradical endomorphism."""
    plan = catalog.build(name).validate()
    h = plan.target
    group, idxs, pos = coradical_group(h)
    tables = _PlanTables(plan)
    for endo in enumerate_endos(group):
        d_group = diffop_from_endo(endo)
        d_on_group = {idxs[g]: idxs[d_group(g)] for g in range(group.order)}
        yield (group, ReferenceBranch(h, plan, group, pos, d_on_group),
               _Branch(tables, d_on_group))


BRANCHES = [("plan:H4", 0), ("plan:H4", 1)] + [("plan:kC2xC2", i) for i in range(16)] + [
    ("plan:H8", i) for i in range(16)]


@pytest.mark.parametrize("name, index", BRANCHES)
def test_branch_matches_reference(name, index):
    group, ref, new = list(branch_pairs(name))[index]
    cols, den = new.images
    assert [[to_rational(f, den) for f in col] for col in cols] == ref.images
    # the two stages: without and then with the difference identity
    stages = list(new.equations())
    assert len(stages) == 2
    for include, got in zip((False, True), stages):
        want = ref.equations(include_diff_identity=include)
        assert len(got) == len(want)
        assert equation_set(got) == {frozenset(to_equation(e).items()) for e in want}
    # the second stage is the first with the difference identity appended
    assert stages[1][:len(stages[0])] == stages[0]
    chars, _ = f2_characters(group)
    want_engine = ReferenceEngine(ref, chars, group)
    got_engine = _Engine(new)
    assert rational_solutions(got_engine.run(), len(cols)) == want_engine.run()
    assert new.record == ref.record
    assert got_engine.partial_reason == want_engine.partial_reason


def rational_solutions(solutions, n: int):
    """The engine's solutions, each the IntColumns of the image of every
    basis element, as rational column tables; None stays None."""
    if solutions is None:
        return None
    return [[[Fraction(dict(col).get(k, 0), den) for k in range(n)] for col in cols]
            for cols, den in solutions]


@pytest.mark.parametrize("name", ["plan:H4", "plan:kC2xC2", "plan:H8"])
def test_engine_matches_reference_engine(name):
    """One search path: the engine branches on one form at a time and only
    records the q(p) = r candidate set, while the reference pins the whole
    coset block from that set.  On every branch both reach the same
    solutions, in the same order, the same record and the same residual."""
    for group, ref, new in branch_pairs(name):
        chars, _ = f2_characters(group)
        want_engine = ReferenceEngine(ref, chars, group)
        got_engine = _Engine(new)
        assert rational_solutions(got_engine.run(), new.h.dim) == want_engine.run()
        assert new.record == ref.record
        assert got_engine.partial_reason == want_engine.partial_reason
