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
   repeated exact linear elimination, then branched on the rational roots
   that the equations force on one affine form at a time.  Over an
   exponent-two coradical the characters order those forms, and the
   solutions of q(p) = r over the group algebra that the character
   transform gives are recorded, not used to solve.  A branch is partial
   only when this engine stalls: no form is left whose roots are forced;
4. every surviving candidate is re-verified by the full difference
   operator check, and the bijective filter is applied last.

No step ever samples or rounds; a complete certificate means the listed
operators are provably all of them.

The polynomial layer runs on integers.  Every image coordinate is an
affine form in the branch parameters with integer coefficients, over one
denominator shared by all images of a branch.  Every constraint has degree
at most two and reads "= 0", so it is stored as a primitive integer
polynomial with its first coefficient positive, which is also its key for
deduplication.  Substituting the solution space of the linear constraints
is one change of variables T applied to each equation's coefficient
matrix Q (T^t Q T).  Each round of the linear phase reduces the equations
over their monomials, quadratic ones first, and solves the rows left linear,
both on sparse integer rows (:func:`hopfdiff.exactlin.int_echelon`).  The
constraints are built from the integer structure table
(:func:`hopfdiff.hopf.int_structure`), and what does not depend on the
branch is built once per plan.  ``Fraction`` values appear only in roots,
in the recorded candidate sets and in the frozen operators.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from math import gcd, isqrt, lcm

from .exactlin import Mat, ONE, Record, int_echelon, int_kernel, rat
from .hopf import FinDimHopf, int_structure
from .groups import FinGroup, coradical_group, enumerate_endos, diffop_from_endo

# ---------------------------------------------------------------------------
# integer polynomials of degree at most two in the branch parameters
#
# Index 0 stands for the constant 1 and index k + 1 for the parameter u_k.
# An affine form is a dict {index: int}, read over a denominator kept beside
# it.  An equation is a dict {(a, b): int} with a <= b, the coefficients of
# the monomials x_a x_b with x_0 = 1 and x_(k+1) = u_k, so (0, 0) is the
# constant and (0, k + 1) the linear term of u_k; sorted keys list the
# constant, then the linear and then the quadratic terms.  Every equation
# reads "= 0", so it is stored primitive with its first coefficient
# positive: two equations are multiples of one another exactly when they
# are equal.


def _acc(acc: dict, c: int, form: dict) -> None:
    """acc += c * form, in place; zeros are cleaned later."""
    for k, v in form.items():
        acc[k] = acc.get(k, 0) + c * v


def _acc_product(acc: dict, c: int, v: dict, w: dict) -> None:
    """acc += c * v * w for affine forms v and w, in place."""
    for x, a in v.items():
        ca = c * a
        for y, b in w.items():
            key = (x, y) if x <= y else (y, x)
            acc[key] = acc.get(key, 0) + ca * b


def _primitive(eq: dict) -> dict:
    """The equation divided by the gcd of its coefficients, signed so that
    its first coefficient is positive; zeros are dropped."""
    eq = {m: c for m, c in eq.items() if c}
    if eq:
        g = gcd(*eq.values())
        if eq[min(eq)] < 0:
            g = -g
        if g != 1:
            eq = {m: c // g for m, c in eq.items()}
    return eq


def _equation(lhs: dict, scale: int, rhs: dict) -> dict:
    """The equation scale * lhs = rhs for an affine form lhs and a
    quadratic form rhs."""
    eq = {(0, k): scale * c for k, c in lhs.items()}
    for m, c in rhs.items():
        eq[m] = eq.get(m, 0) - c
    return _primitive(eq)


def _pin(form: dict, den: int, value: Fraction) -> dict:
    """The equation form / den = value."""
    return _equation(form, value.denominator, {(0, 0): den * value.numerator})


def _is_const(form: dict) -> bool:
    return form.keys() <= {0}


def _subst_form(form: dict, table: list) -> dict:
    """An affine form after the change of variables x_old = table x_new."""
    out: dict = {}
    for k, c in form.items():
        _acc(out, c, table[k])
    return {k: c for k, c in out.items() if c}


def _subst(eq: dict, table: list) -> dict:
    """An equation after the change of variables x_old = table x_new, up to
    scale: the coefficient matrix Q becomes T^t Q T, one row of Q T at a
    time."""
    rows: dict = {}
    for (a, b), c in eq.items():
        _acc(rows.setdefault(a, {}), c, table[b])
    out: dict = {}
    for a, row in rows.items():
        for x, t in table[a].items():
            for y, v in row.items():
                key = (x, y) if x <= y else (y, x)
                out[key] = out.get(key, 0) + t * v
    return _primitive(out)


# ---------------------------------------------------------------------------
# rational root extraction

class NotFiniteError(Exception):
    """A univariate constraint degenerated to 0 = 0."""


def rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots of sum coeffs[k] t^k, in increasing order, for
    a polynomial of degree at most two.

    Raises NotFiniteError for the zero polynomial and ValueError above
    degree two.
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
    if len(coeffs) > 3:
        raise ValueError("only polynomials of degree at most two are solved")
    c, b, a = coeffs
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    root = _rational_sqrt(disc)
    if root is None:
        return []
    return sorted({(-b - root) / (2 * a), (-b + root) / (2 * a)})


def _rational_sqrt(x: Fraction):
    if x < 0:
        return None
    pn = isqrt(x.numerator)
    pd = isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


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

class GeneratorBlock(Record):
    """One scheduled generator c and the factorization of its coset.

    cosets maps every basis index b in the coset to (g, c) with b = g c
    exactly (coefficient one), g a declared group-like basis index.
    """

    _fields = ("generator", "cosets")

    def __init__(self, generator: int, cosets: dict):
        self.generator = generator
        self.cosets = cosets


class SearchPlan(Record):
    """The declared coradical G(H) and the blocks of the coset rule.

    The rule is all the engine needs; the shape of the coproducts is not
    restricted:

    - every basis element is a group-like or g c for one block generator
      c, and every difference operator has D(g c) = D(g) g D(c) S(g),
      since the double coproduct of a group-like g is g (x) g (x) g.  So
      the branch images (:class:`_Branch`) cover every operator;
    - the counit, comultiplication and difference-identity constraints
      are necessary conditions whatever the coproducts are, and they stay
      of degree at most two in the branch parameters;
    - the engine pins one affine form at a time to the roots the
      equations force on it, so no root is lost; the q(p) = r candidate
      set is only recorded;
    - phase 4 checks every candidate with the full difference-operator
      check.
    """

    _fields = ("target", "grouplike_indices", "blocks", "commutation")

    def __init__(self, target: FinDimHopf, grouplike_indices: list[int],
                 blocks: list[GeneratorBlock], commutation: dict | None = None):
        self.target = target
        self.grouplike_indices = grouplike_indices
        self.blocks = blocks
        self.commutation = commutation

    def validate(self):
        """The coset rule on the plan's own generators: the group-likes are
        the declared coradical and the blocks are disjoint full cosets."""
        h = self.target
        _, idxs, _ = coradical_group(h)  # a missing or malformed declaration raises here
        if sorted(self.grouplike_indices) != sorted(idxs):
            raise ValueError(f"plan group-likes {self.grouplike_indices} are not the "
                             f"declared coradical {list(idxs)} of {h.name}")
        full = _coset_blocks(h, idxs, [block.generator for block in self.blocks])
        for block, coset in zip(self.blocks, full):
            if block.cosets != coset.cosets:
                raise ValueError(f"the block of {h.label(block.generator)} must cover its "
                                 f"coset {coset.cosets} exactly, not {block.cosets}")
        # advisory data; only sanity-checked for type
        if self.commutation and not isinstance(self.commutation, dict):
            raise ValueError("commutation data must be a mapping")
        return self


def _coset_blocks(h: FinDimHopf, idxs: list, generators=None) -> list:
    """The coset rule: each generator c starts the block {g c : g in G(H)},
    and every g c must be a single basis vector, with coefficient one, that
    neither the coradical nor an earlier block holds; the blocks must cover
    the basis.  With no generators given, the basis is walked in order and
    each element outside the coradical and the earlier blocks is the next
    generator."""
    n = h.dim
    covered = set(idxs)
    blocks = []
    for c in range(n) if generators is None else generators:
        if generators is None and c in covered:
            continue
        if not 0 <= c < n:
            raise ValueError(f"plan generator {c} is not a basis index of {h.name}")
        cosets = {}
        for g in idxs:
            prod = h.mult_basis(g, c)
            hits = [i for i, v in enumerate(prod) if v]
            if len(hits) != 1 or prod[hits[0]] != ONE or hits[0] in covered or hits[0] in cosets:
                raise ValueError(f"{h.label(c)} fits no block: {h.label(g)} * {h.label(c)} = "
                                 f"{h.element_str(prod)} is not a basis vector outside the "
                                 f"coradical and the earlier blocks")
            cosets[hits[0]] = (g, c)
        covered.update(cosets)
        blocks.append(GeneratorBlock(c, cosets))
    if len(covered) != n:
        raise ValueError(f"plan does not cover basis indices {sorted(set(range(n)) - covered)}")
    return blocks


def derive_plan(h: FinDimHopf) -> SearchPlan:
    """The search plan of h by the coset rule; its commutation notes are
    the products c g of each block generator c with each generator g of G(H)."""
    group, idxs, _ = coradical_group(h)
    blocks = _coset_blocks(h, idxs)
    gens = [idxs[g] for g in group.generating_set()]
    commutation = {h.label(b.generator) + h.label(g): h.element_str(h.mult_basis(b.generator, g))
                   for b in blocks for g in gens}
    return SearchPlan(h, list(idxs), blocks, commutation or None)


class BranchReport(Record):
    _fields = ("index", "group_images", "status", "operators", "quadratic_candidates",
               "residual")

    def __init__(self, index: int, group_images: list[str], status: str,
                 operators: list | None = None, quadratic_candidates: list | None = None,
                 residual: str | None = None):
        self.index = index
        self.group_images = group_images
        self.status = status  # complete | empty | partial
        # image matrices (list of columns)
        self.operators = [] if operators is None else operators
        self.quadratic_candidates = quadratic_candidates
        self.residual = residual


class ClassificationResult(Record):
    _fields = ("algebra", "operators", "certificate", "branches", "bijective_only")

    def __init__(self, algebra: str, operators: list, certificate: str,
                 branches: list | None = None, bijective_only: bool = False):
        self.algebra = algebra
        self.operators = operators  # list of DiffOp
        self.certificate = certificate  # complete | partial
        self.branches = [] if branches is None else branches
        self.bijective_only = bijective_only


# ---------------------------------------------------------------------------
# the per-branch polynomial search

_Images = namedtuple("_Images", "cols den")
_Images.__doc__ = """The image of every basis element: cols[b][k] is an affine form in
the parameters, and the image coordinate is cols[b][k] / den."""


class _PlanTables:
    """The parts of the search that do not depend on the branch, built once
    per classification: the coradical group, its characters when it has
    exponent two, and the tables from the plan's integer structure table."""

    def __init__(self, plan: SearchPlan):
        h = plan.target
        self.h = h
        self.plan = plan
        self.group, self.idxs, self.pos = coradical_group(h)
        self.signs = ([[int(x) for x in chi] for chi in f2_characters(self.group)[0]]
                      if self.group.has_exponent_two() else [])
        self.t = t = int_structure(h)
        self.nvars = h.dim * len(plan.blocks)
        self._sandwiches: dict = {}
        self._sweedler: dict = {}
        # the denominator of a coset image D(g c) = D(g) g U S(g), and so of
        # every image of a branch
        self.den = t.mult_den ** 3 * t.antipode_den

    def sandwich(self, dg: int, g: int) -> list:
        """Row j: the sparse vector den * (dg g) e_j S(g)."""
        key = (dg, g)
        rows = self._sandwiches.get(key)
        if rows is None:
            t = self.t
            prefix = t.mult[dg][g]
            rows = self._sandwiches[key] = [
                t.mul(t.mul(prefix, ((j, 1),)), t.antipode[g]) for j in range(t.dim)]
        return rows

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

    def sweedler_rows(self, i: int) -> list:
        """The third Sweedler power of basis element i grouped by its first
        two legs: (t1, t2, rows) with rows[k] the sparse vector of
        e_k sum_t3 w S(t3), over sweedler_den * mult_den * antipode_den."""
        out = self._sweedler.get(i)
        if out is None:
            t = self.t
            sigma: dict = {}
            for t1, t2, t3, w in t.sweedler3[i]:
                acc = sigma.setdefault((t1, t2), {})
                for k, s in t.antipode[t3]:
                    acc[k] = acc.get(k, 0) + w * s
            out = []
            for (t1, t2), acc in sigma.items():
                vec = tuple((k, c) for k, c in sorted(acc.items()) if c)
                if vec:
                    out.append((t1, t2, [t.mul(((k, 1),), vec) for k in range(t.dim)]))
            self._sweedler[i] = out
        return out


class _Branch:
    def __init__(self, tables: _PlanTables, d_on_group: dict):
        self.tables = tables
        self.h = tables.h
        self.plan = tables.plan
        self.pos = tables.pos
        self.signs = tables.signs
        self.nvars = tables.nvars
        self.record: list | None = None
        self._left_cache: dict = {}
        n = self.h.dim
        den = tables.den
        cols: list = [None] * n
        for b, target in d_on_group.items():
            cols[b] = [{0: den} if k == target else {} for k in range(n)]
        var0 = 1
        for block in self.plan.blocks:
            cols[block.generator] = [{var0 + k: den} for k in range(n)]
            for b, (g, _) in block.cosets.items():
                if b == block.generator:
                    continue
                # D(g c) = D(g) g U S(g), affine in the unknown U
                out = [{} for _ in range(n)]
                for j, row in enumerate(tables.sandwich(d_on_group[g], g)):
                    for m, c in row:
                        out[m][var0 + j] = c
                cols[b] = out
            var0 += n
        self.images = _Images(cols, den)

    # -- equation generation ------------------------------------------------

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

    def _character_forms(self, col, indices):
        """sum_g chi(g) col[b] over the coradical g and the matching
        entries b of indices, one affine form per character."""
        corad = self.plan.grouplike_indices
        pos = self.pos
        for chi in self.signs:
            f: dict = {}
            for g, b in zip(corad, indices):
                _acc(f, chi[pos[g]], col[b])
            yield {k: c for k, c in f.items() if c}

    def _candidate_forms(self, images, nvars):
        """Deterministic form order, each form with its denominator:
        coradical-part characters of each generator image, then coset-part
        characters, then raw parameters."""
        corad = self.plan.grouplike_indices
        for block in self.plan.blocks:
            u = images.cols[block.generator]
            coset_by_g = {g: b for b, (g, _) in block.cosets.items()}
            for f in self._character_forms(u, corad):
                yield f, images.den
            for f in self._character_forms(u, [coset_by_g[g] for g in corad]):
                yield f, images.den
        for i in range(nvars):
            yield {i + 1: 1}, 1

    def _quadratic_candidates(self, images, roots_of):
        """The solutions p of q(p) = r over the coset block of the first
        scheduled generator, through the character transform, or None when
        the shape does not apply: the coradical part of the image is not
        pinned, the coset part is, or a character form has no root set of
        the shape p = +-r.  roots_of(form, den) is the node's root set of a
        form."""
        if not self.signs:
            return None
        plan = self.plan
        block = plan.blocks[0]
        cols, den = images
        u = cols[block.generator]
        corad = plan.grouplike_indices
        if not all(_is_const(u[g]) for g in corad):
            return None
        coset_by_g = {g: b for b, (g, _) in block.cosets.items()}
        if all(_is_const(u[coset_by_g[g]]) for g in corad):
            return None
        # the square of each character form of p, the transform of r
        rhat = []
        for f in self._character_forms(u, [coset_by_g[g] for g in corad]):
            roots = ([Fraction(f.get(0, 0), den)] if _is_const(f)
                     else roots_of(f, den))
            if not roots or len(roots) == 2 and roots[0] != -roots[1]:
                return None
            rhat.append(roots[-1] ** 2)
        n_g = self.tables.group.order
        r_vec = [sum(chi[g] * r for chi, r in zip(self.signs, rhat)) / n_g for g in range(n_g)]
        return solve_quadratic_in_group_algebra(self.tables.group, [0, 0, 1], r_vec)

    def _left_part(self, t1: int, t2: int) -> list:
        """D(t1) t2 as affine forms over den * mult_den; shared across
        right-hand factors."""
        key = (t1, t2)
        cached = self._left_cache.get(key)
        if cached is None:
            mult = self.tables.t.mult
            cached = [{} for _ in range(self.h.dim)]
            for k, form in enumerate(self.images.cols[t1]):
                if form:
                    for m, c in mult[k][t2]:
                        _acc(cached[m], c, form)
            self._left_cache[key] = cached
        return cached

    def _poly_mult_vec(self, u: list, v: list) -> list:
        """The product in H of two vectors of affine forms, as quadratic
        forms over mult_den times their denominators."""
        mult = self.tables.t.mult
        out = [{} for _ in range(self.h.dim)]
        for i, pi in enumerate(u):
            if not pi:
                continue
            row = mult[i]
            for j, pj in enumerate(v):
                if pj:
                    for m, c in row[j]:
                        _acc_product(out[m], c, pi, pj)
        return out


class _Engine:
    """Exact elimination over the branch parameters with root branching;
    the branch gives the equation stages, the candidate forms and the record."""

    def __init__(self, branch: _Branch):
        self.branch = branch
        self.partial_reason: str | None = None

    def run(self):
        """The solutions of the first equation stage the search settles, else None."""
        for eqs in self.branch.equations():
            self.partial_reason = self.branch.record = None
            solutions = self._solve(eqs, self.branch.images, self.branch.nvars)
            if solutions is not None:
                break
        return solutions

    # each solution is a full list of constant image vectors
    def _solve(self, eqs, images, nvars):
        eqs, images, nvars, reducer = self._linear_phase(eqs, images, nvars)
        if reducer is None:
            return []
        if nvars == 0:
            # every equation left would be a constant, and the linear phase
            # has solved those
            return [self._freeze(images)]
        if not eqs:
            self.partial_reason = f"{nvars} parameters remain unconstrained"
            return None
        memo: dict = {}

        def roots_of(form, den):
            """_root_set at this node, once per (form, den)."""
            key = (frozenset(form.items()), den)
            if key not in memo:
                memo[key] = self._root_set(form, den, reducer)
            return memo[key]

        # the q(p) = r candidate set is recorded at the first node where its
        # precondition (pinned coradical part) holds; it is not used to solve
        if self.branch.record is None:
            self.branch.record = self.branch._quadratic_candidates(images, roots_of)
        # single-form branching
        for form, den in self.branch._candidate_forms(images, nvars):
            if _is_const(form):
                continue
            roots = roots_of(form, den)
            if roots is None:
                continue
            out = []
            for root in roots:
                sub = self._solve(eqs + [_pin(form, den, root)], images, nvars)
                if sub is None:
                    return None
                out.extend(sub)
            return out
        self.partial_reason = (
            f"{nvars} parameters with {len(eqs)} nonlinear constraints outside "
            "the group-algebra quadratic pattern")
        return None

    @staticmethod
    def _freeze(images):
        cols, den = images
        assert all(_is_const(form) for col in cols for form in col)
        return [[Fraction(form.get(0, 0), den) for form in col] for col in cols]

    @staticmethod
    def _reduce(eqs):
        """int_echelon of the equations over their monomials m, column midx[m]
        in descending order so that quadratic ones come first: (midx, rows,
        pivots)."""
        midx = {m: i for i, m in enumerate(sorted(set().union(*eqs), reverse=True))}
        return (midx, *int_echelon([{midx[m]: c for m, c in e.items()} for e in eqs], len(midx)))

    @staticmethod
    def _linear_phase(eqs, images, nvars):
        """Reduce the equations, solve the rows with no quadratic monomial,
        which span every linear consequence, and substitute their solution
        space into the rest, until no linear row is left.  The last
        reduction is the node's reducer, None if the equations are
        inconsistent."""
        while True:
            reducer = _Engine._reduce(eqs)
            monos = list(reducer[0])
            eqs = [{monos[i]: c for i, c in row.items()} for row in reducer[1]]
            # the rows are in pivot order, so the quadratic ones come first
            k = sum(monos[p][0] > 0 for p in reducer[2])
            if k == len(eqs):
                return eqs, images, nvars, reducer
            # rows of [A | b] for A u = b
            rows = []
            for e in eqs[k:]:
                row = {b - 1: c for (_, b), c in e.items() if b}
                if (0, 0) in e:
                    row[nvars] = -e[(0, 0)]
                rows.append(row)
            echelon, pivots = int_echelon(rows, nvars + 1)
            if pivots[-1] == nvars:
                return eqs, images, nvars, None
            # u_p = (b - sum_f row[f] u_f) / row[p] for each pivot p, the free
            # parameters u_f renumbered in order; every entry over tden
            pivot_set = set(pivots)
            free = [c for c in range(nvars) if c not in pivot_set]
            new = {c: j + 1 for j, c in enumerate(free)}
            tden = lcm(*(row[p] for row, p in zip(echelon, pivots)))
            table = [None] * (nvars + 1)
            table[0] = {0: tden}
            for c, j in new.items():
                table[c + 1] = {j: tden}
            for row, p in zip(echelon, pivots):
                m = tden // row[p]
                entry = {new[c]: -m * x for c, x in row.items() if c in new}
                if nvars in row:
                    entry[0] = m * row[nvars]
                table[p + 1] = entry
            eqs = [_subst(e, table) for e in eqs[:k]]
            cols = [[_subst_form(form, table) for form in col] for col in images.cols]
            den = images.den * tden
            g = gcd(den, *(c for col in cols for form in col for c in form.values()))
            if g > 1:
                den //= g
                cols = [[{k: c // g for k, c in form.items()} for form in col]
                        for col in cols]
            images = _Images(cols, den)
            nvars = len(new)

    @staticmethod
    def _residue(eq, midx, echelon, pivots):
        """Reduce against the span: (coordinates, den) with the residue
        equal to coordinates / den.  Coordinates are keyed by column index,
        and monomials outside the span basis (which no equation can ever
        cancel) by themselves."""
        vec = {}
        outside = {}
        for m, c in eq.items():
            i = midx.get(m)
            if i is None:
                outside[m] = c
            else:
                vec[i] = c
        # the rows are reduced, so each is zero at every other pivot and the
        # multiples to subtract are read off the unreduced vector
        hits = [(row, p) for row, p in zip(echelon, pivots) if p in vec]
        den = lcm(*(row[p] for row, p in hits))
        out = {i: den * c for i, c in vec.items()}
        for row, p in hits:
            f = den // row[p] * vec[p]
            for i, x in row.items():
                out[i] = out.get(i, 0) - f * x
        res = {i: c for i, c in out.items() if c}
        res.update((m, den * c) for m, c in outside.items())
        return res, den

    def _root_set(self, form, den, reducer):
        """Rational roots forced on the affine form / den by the equation
        span, or None when the span contains no univariate consequence."""
        square: dict = {}
        _acc_product(square, 1, form, form)
        linear = {(0, k): c for k, c in form.items()}
        # residues of (form / den)^2, form / den and 1
        (r2, d2), (r1, d1), (r0, d0) = (
            self._residue(eq, *reducer) for eq in (square, linear, {(0, 0): 1}))
        d2 *= den * den
        d1 *= den
        common = lcm(d2, d1, d0)
        keys = set(r2) | set(r1) | set(r0)
        rows = [{c: x for c, (r, d) in enumerate(((r2, d2), (r1, d1), (r0, d0)))
                 if (x := r.get(k, 0) * (common // d))}
                for k in keys]
        # the reduced-echelon kernel basis, one vector (a, b, c) per free
        # column; no rows means that 1 reduces to zero, so the equations
        # are inconsistent and give no root set
        kernel = int_kernel(*int_echelon(rows, 3), 3) if rows else []
        roots = None
        for a, b, c in kernel:
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


def _dedupe(eqs):
    out = []
    seen = set()
    for e in eqs:
        if not e:
            continue
        key = frozenset(e.items())
        if key not in seen:
            seen.add(key)
            out.append(e)
    return out


# ---------------------------------------------------------------------------
# the public entry points

def classify_diffops(plan: SearchPlan, bijective_only: bool = False) -> ClassificationResult:
    # imported here, so a process that only builds or exports a plan does
    # not compile the difference-operator layer
    from .diffops import DiffOp, check_diffop

    plan.validate()
    h = plan.target
    tables = _PlanTables(plan)
    group, idxs = tables.group, tables.idxs
    branches = []
    operators = []
    certificate = "complete"
    for bi, endo in enumerate(enumerate_endos(group)):
        d_group = diffop_from_endo(endo)
        d_on_group = {idxs[g]: idxs[d_group(g)] for g in range(group.order)}
        labels = [h.label(d_on_group[b]) for b in idxs]
        branch = _Branch(tables, d_on_group)
        engine = _Engine(branch)
        ops = engine.run()
        if ops is None:
            branches.append(BranchReport(bi, labels, "partial", [],
                                         branch.record, engine.partial_reason))
            certificate = "partial"
            continue
        # phase 4: the engine only imposes necessary conditions, so the
        # full exhaustive check is the arbiter for every candidate
        verified = []
        for cols in ops:
            res = check_diffop(h, Mat.from_cols(cols))
            if isinstance(res, DiffOp):
                verified.append(res)
        status = "complete" if verified else "empty"
        if bijective_only:
            verified = [op for op in verified if op.bijective]
        branches.append(BranchReport(
            bi, labels, status,
            [[list(op.map.matrix.col(j)) for j in range(h.dim)] for op in verified],
            branch.record))
        operators.extend(verified)
    # canonical order: by image matrix, lexicographically.  No operator is
    # listed twice: each leaf of a branch's search tree has its own value of
    # the form it was pinned on, and the branches differ on G(H)
    operators.sort(key=lambda op: tuple(tuple(op.map.matrix.col(j))
                                        for j in range(h.dim)))
    return ClassificationResult(h.name, operators, certificate, branches, bijective_only)


class PublishedDiff(Record):
    _fields = ("matched", "missing", "extra", "entry_mismatches")

    def __init__(self, matched: list, missing: list, extra: list, entry_mismatches: list):
        self.matched = matched
        self.missing = missing  # expected operators not produced
        self.extra = extra  # produced operators not expected
        self.entry_mismatches = entry_mismatches  # (expected_name, closest_diff_positions)

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
