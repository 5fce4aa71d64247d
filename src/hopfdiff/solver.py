"""Classification engine for difference operators on small pointed Hopf
algebras.

The search runs in four phases:

1. restrictions to the declared group-like coradical are enumerated as
   group difference operators (through the endomorphism bijection);
2. for each restriction, the images of the scheduled generators are
   treated as exact affine unknowns and every counit / comultiplication
   constraint that is affine in them is solved immediately;
3. the remaining polynomial constraints (the difference identity on all
   basis pairs plus the quadratic comultiplication blocks) are reduced by
   repeated exact linear elimination; residual quadratic systems are
   dispatched through the character transform of the coradical group when
   they take the univariate shape q(p) = r over its group algebra, and
   any shape beyond that downgrades the certificate to partial;
4. every surviving candidate is re-verified by the full difference
   operator check, and the bijective filter is applied last.

No step ever samples or rounds; a complete certificate means the listed
operators are provably all of them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .exactlin import Mat, ONE, ZERO, invert, kernel, rat, row_space_basis, solve_affine
from .hopf import FinDimHopf, basis_vec, sweedler_expand
from .groups import FinGroup, enumerate_endos, diffop_from_endo
from .diffops import DiffOp, check_diffop

# ---------------------------------------------------------------------------
# sparse exact polynomials in the branch parameters
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


# ---------------------------------------------------------------------------
# rational root extraction

class NotFiniteError(Exception):
    """A univariate constraint degenerated to 0 = 0."""


def rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots of sum coeffs[k] t^k, in increasing order.

    Raises NotFiniteError for the zero polynomial.
    """
    coeffs = [rat(c) for c in coeffs]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if not coeffs:
        raise NotFiniteError("zero polynomial has every rational as a root")
    if len(coeffs) == 1:
        return []
    if len(coeffs) == 2:
        return [-coeffs[0] / coeffs[1]]
    if len(coeffs) == 3:
        c, b, a = coeffs
        disc = b * b - 4 * a * c
        if disc < 0:
            return []
        root = _rational_sqrt(disc)
        if root is None:
            return []
        return sorted({(-b - root) / (2 * a), (-b + root) / (2 * a)})
    # generic rational-root-theorem fallback for higher degree
    denom = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom) for c in coeffs]
    lead, const = ints[-1], ints[0]
    if const == 0:
        shifted = rational_roots([rat(c) for c in coeffs[1:]])
        return sorted(set(shifted) | {ZERO})
    roots = set()
    for p in _divisors(abs(const)):
        for q in _divisors(abs(lead)):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if not sum(c * cand ** k for k, c in enumerate(coeffs)):
                    roots.add(cand)
    return sorted(roots)


def _rational_sqrt(x: Fraction):
    if x < 0:
        return None
    pn = math.isqrt(x.numerator)
    pd = math.isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


def _divisors(n: int):
    out = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


# ---------------------------------------------------------------------------
# characters of an elementary abelian 2-group

def f2_characters(group: FinGroup):
    """All characters of an exponent-2 group, values in {1, -1}.

    Returns (characters, exponent vectors); characters are ordered by the
    generator-subset mask, so the trivial character comes first.
    """
    if not group.has_exponent_two():
        raise ValueError("the group must be elementary abelian of exponent 2")
    gens = group.generating_set()
    exps = {group.identity: 0}
    frontier = [group.identity]
    while frontier:
        g = frontier.pop(0)
        for gi, gen in enumerate(gens):
            h = group.mul(g, gen)
            if h not in exps:
                exps[h] = exps[g] ^ (1 << gi)
                frontier.append(h)
    chars = []
    for mask in range(1 << len(gens)):
        chars.append([
            ONE if bin(mask & exps[g]).count("1") % 2 == 0 else -ONE
            for g in range(group.order)
        ])
    return chars, exps


def solve_quadratic_in_group_algebra(group: FinGroup, q_coeffs, r_vec) -> list[list[Fraction]]:
    """All p in the group algebra of an elementary abelian 2-group with
    q(p) = r, via the character transform.

    q_coeffs are the coefficients of a univariate rational polynomial q
    (constant first); r_vec is the target element over the group basis.
    The character transform diagonalizes multiplication, so the equation
    splits into one univariate equation per character; branches with no
    rational root contribute no solutions.  The result is exact and
    complete, ordered deterministically.
    """
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


# ---------------------------------------------------------------------------
# search plans

@dataclass
class GeneratorBlock:
    """One scheduled generator c and the factorization of its coset.

    cosets maps every basis index b in the coset to (g, c) with b = g c
    exactly (coefficient one), g a declared group-like basis index.
    """

    generator: int
    cosets: dict


@dataclass
class SearchPlan:
    target: FinDimHopf
    grouplike_indices: list[int]
    blocks: list[GeneratorBlock]
    commutation: dict | None = None

    def validate(self):
        h = self.target
        n = h.dim
        gset = set(self.grouplike_indices)
        covered = set(gset)
        for block in self.blocks:
            member_indices = set(block.cosets.keys())
            if block.generator not in member_indices:
                raise ValueError("a generator must belong to its own coset block")
            for b, (g, c) in block.cosets.items():
                if c != block.generator:
                    raise ValueError("coset entries must factor through the block generator")
                if g not in gset:
                    raise ValueError("coset factor is not a declared group-like")
                if h.mult_basis(g, c) != basis_vec(n, b):
                    raise ValueError(
                        f"coset factorization fails: basis {h.label(b)} != "
                        f"{h.label(g)} * {h.label(c)}")
            covered |= member_indices
            # triangularity: the generator's coproduct lives on
            # (coradical + own coset) x (coradical + own coset)
            allowed = gset | member_indices
            for (i, j, _) in h.comult_triples(block.generator):
                if i not in allowed or j not in allowed:
                    raise ValueError(
                        f"triangularity fails: coproduct of {h.label(block.generator)} "
                        f"meets {h.label(i)} (x) {h.label(j)}")
        if covered != set(range(n)):
            missing = sorted(set(range(n)) - covered)
            raise ValueError(f"plan does not cover basis indices {missing}")
        if self.commutation:
            # advisory data; only sanity-checked for type
            if not isinstance(self.commutation, dict):
                raise ValueError("commutation data must be a mapping")
        return self


@dataclass
class BranchReport:
    index: int
    group_images: list[str]
    status: str  # complete | empty | partial
    operators: list = field(default_factory=list)  # image matrices (list of columns)
    quadratic_candidates: list | None = None
    residual: str | None = None


@dataclass
class ClassificationResult:
    algebra: str
    operators: list  # list of DiffOp
    certificate: str  # complete | partial
    branches: list = field(default_factory=list)
    bijective_only: bool = False


# ---------------------------------------------------------------------------
# the per-branch polynomial search

def _acc_scaled(acc: Poly, c, poly: Poly):
    """acc += c * poly, in place; zeros are cleaned later."""
    if not c or not poly:
        return
    for m, v in poly.items():
        acc[m] = acc.get(m, ZERO) + c * v


def _clean(poly: Poly) -> Poly:
    return {m: c for m, c in poly.items() if c}


class _Branch:
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


class _Engine:
    """Exact elimination over the branch parameters with root branching."""

    def __init__(self, branch: _Branch, chars, char_group: FinGroup):
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
            sol = solve_affine(Mat.from_rows(rows), rhs)
            if sol.inconsistent:
                return eqs, images, nvars, False
            k = len(sol.kernel_basis)
            table = []
            for i in range(nvars):
                poly = p_const(sol.particular[i])
                for j, kv in enumerate(sol.kernel_basis):
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
        echelon = row_space_basis(rows)
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
        null = kernel(Mat.from_rows(rows))
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


# ---------------------------------------------------------------------------
# the public entry points

def coradical_group(h: FinDimHopf):
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


def classify_diffops(plan: SearchPlan, bijective_only: bool = False) -> ClassificationResult:
    plan.validate()
    h = plan.target
    group, idxs, pos = coradical_group(h)
    try:
        chars, _ = f2_characters(group)
    except ValueError:
        chars = None
    branches = []
    operators = []
    certificate = "complete"
    endos = enumerate_endos(group)
    sweedler3 = [sweedler_expand(h, basis_vec(h.dim, i), 2) for i in range(h.dim)]
    for bi, endo in enumerate(endos):
        d_group = diffop_from_endo(endo)
        d_on_group = {idxs[g]: idxs[d_group(g)] for g in range(group.order)}
        labels = [h.label(d_on_group[b]) for b in idxs]
        if not plan.blocks:
            cols = [basis_vec(h.dim, d_on_group.get(b, b)) for b in range(h.dim)]
            ops = [cols]
            record = None
            partial = None
        else:
            branch = _Branch(h, plan, group, pos, d_on_group, sweedler3)
            engine = _Engine(branch, chars or [], group)
            if chars is None:
                ops = None
                engine.partial_reason = "coradical group is not elementary abelian of exponent 2"
            else:
                ops = engine.run()
            record = branch.record
            partial = engine.partial_reason
        if ops is None:
            branches.append(BranchReport(bi, labels, "partial", [],
                                         record, partial))
            certificate = "partial"
            continue
        # phase 4: the engine only imposes necessary conditions, so the
        # full exhaustive check is the arbiter for every candidate
        verified = []
        for cols in ops:
            mat = Mat.from_cols(cols)
            res = check_diffop(h, mat)
            if isinstance(res, DiffOp):
                verified.append(res)
        branches.append(BranchReport(
            bi, labels, "complete" if verified else "empty",
            [[list(op.map.matrix.col(j)) for j in range(h.dim)] for op in verified],
            record))
        operators.extend(verified)
    if bijective_only:
        operators = [op for op in operators if op.bijective]
        for br in branches:
            br.operators = [
                cols for cols in br.operators
                if invert(Mat.from_cols(cols)) is not None
            ]
    # canonical order: by image matrix, lexicographically
    operators.sort(key=lambda op: tuple(tuple(op.map.matrix.col(j))
                                        for j in range(h.dim)))
    deduped = []
    seen = set()
    for op in operators:
        key = tuple(op.map.matrix.entries)
        if key not in seen:
            seen.add(key)
            deduped.append(op)
    return ClassificationResult(h.name, deduped, certificate, branches, bijective_only)


@dataclass
class PublishedDiff:
    matched: list
    missing: list  # expected operators not produced
    extra: list  # produced operators not expected
    entry_mismatches: list  # (expected_name, closest_diff_positions)

    @property
    def equal(self):
        return not self.missing and not self.extra


def verify_against_published(result: ClassificationResult, expected) -> PublishedDiff:
    """Set comparison between a classification and published tables.

    expected is a list of {name, images}; images are basis-image vectors.
    Mismatches are pinpointed entry by entry against the closest computed
    operator.
    """
    computed = []
    for op in result.operators:
        computed.append(tuple(tuple(rat(c) for c in op.map.matrix.col(j))
                              for j in range(op.map.matrix.cols)))
    expected_tables = []
    for table in expected:
        expected_tables.append(
            (table.get("name", "?"),
             tuple(tuple(rat(c) for c in col) for col in table["images"])))
    comp_set = set(computed)
    exp_set = {t for _, t in expected_tables}
    matched = [name for name, t in expected_tables if t in comp_set]
    missing = [name for name, t in expected_tables if t not in comp_set]
    extra = [t for t in computed if t not in exp_set]
    entry_mismatches = []
    for name, t in expected_tables:
        if t in comp_set or not computed:
            continue
        best = min(computed, key=lambda c: _diff_count(c, t))
        positions = [(j, k) for j in range(len(t)) for k in range(len(t[j]))
                     if best[j][k] != t[j][k]]
        entry_mismatches.append((name, positions))
    return PublishedDiff(matched, missing, extra, entry_mismatches)


def _diff_count(a, b):
    return sum(1 for j in range(len(a)) for k in range(len(a[j])) if a[j][k] != b[j][k])
