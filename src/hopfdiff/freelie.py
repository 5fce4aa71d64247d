"""Degree-truncated free constructions: the tensor Hopf algebra with the
coshuffle coproduct, Lyndon bases of free Lie algebras, truncated
universal enveloping algebras, smash products of truncated carriers, and
the instance checks that relate them.

Truncation is honest: a product whose total degree exceeds the budget
raises OutOfBudgetError, and every exhaustive check reports exactly
which tuples it had to skip.  Comultiplication, counit and antipode
always stay inside the budget and are total.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .exactlin import Mat, ONE, ZERO, in_span, invert, rat, row_space_basis, solve_affine
from .hopf import (
    CarrierOps,
    OutOfBudgetError,
    Vec,
    basis_vec,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vec,
)

MAX_BUDGET = 6
MAX_GENERATORS = 3
DEFAULT_BUDGET = 4


# ---------------------------------------------------------------------------
# words and Lyndon combinatorics

def words_up_to(k: int, budget: int):
    """All words over k letters of length <= budget, length-then-lex."""
    out = [()]
    for n in range(1, budget + 1):
        out.extend(itertools.product(range(k), repeat=n))
    return out


def lyndon_words(k: int, budget: int):
    """Lyndon words over k letters up to the budget, by Duval's algorithm,
    grouped by length."""
    by_len = {n: [] for n in range(1, budget + 1)}
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if m <= budget:
            by_len[m].append(tuple(w))
        while len(w) < budget:
            w.append(w[-m])
        while w and w[-1] == k - 1:
            w.pop()
    return by_len


def witt_dimension(k: int, n: int) -> int:
    """Number of Lyndon words of length n over k letters (necklace count)."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _moebius(d) * k ** (n // d)
    return total // n


def _moebius(n: int) -> int:
    if n == 1:
        return 1
    result = 1
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def standard_factorization(w):
    """w = uv with v the longest proper Lyndon suffix."""
    if len(w) < 2:
        raise ValueError("only words of length >= 2 factor")
    for i in range(1, len(w)):
        if _is_lyndon(w[i:]):
            return w[:i], w[i:]
    raise AssertionError("unreachable: the last letter is a Lyndon suffix")


def _is_lyndon(w) -> bool:
    return all(w < w[i:] for i in range(1, len(w)))


def bracket_expansion(w) -> dict:
    """The bracketed Lyndon word as a word-coefficient dictionary."""
    if len(w) == 1:
        return {w: ONE}
    u, v = standard_factorization(w)
    left = bracket_expansion(u)
    right = bracket_expansion(v)
    out: dict = {}
    for wu, cu in left.items():
        for wv, cv in right.items():
            c = cu * cv
            key = wu + wv
            out[key] = out.get(key, ZERO) + c
            key = wv + wu
            out[key] = out.get(key, ZERO) - c
    return {k: c for k, c in out.items() if c}


# ---------------------------------------------------------------------------
# the truncated tensor Hopf algebra

class BudgetCapError(ValueError):
    """A truncated carrier was asked for with a budget or generator count
    below 1, or beyond MAX_BUDGET or MAX_GENERATORS."""


class TruncatedTensor(CarrierOps):
    """T(V) truncated in degree, with concatenation product and the
    coshuffle coproduct (letters primitive)."""

    def __init__(self, generators: int, budget: int):
        if budget < 1 or generators < 1:
            raise BudgetCapError("budget and generators must be at least 1")
        if budget > MAX_BUDGET or generators > MAX_GENERATORS:
            raise BudgetCapError(
                f"budget capped at {MAX_BUDGET} with at most {MAX_GENERATORS} generators")
        self.generators = generators
        self.budget = budget
        self.words = words_up_to(generators, budget)
        self.index = {w: i for i, w in enumerate(self.words)}
        self.dim = len(self.words)
        self._letters = "abc"
        self._comult_cache: dict = {}

    def degree(self, i: int) -> int:
        return len(self.words[i])

    def label(self, i: int) -> str:
        w = self.words[i]
        return "".join(self._letters[c] for c in w) if w else "1"

    def unit_vec(self) -> Vec:
        return basis_vec(self.dim, 0)

    def mult_basis(self, i: int, j: int) -> Vec:
        w = self.words[i] + self.words[j]
        if len(w) > self.budget:
            raise OutOfBudgetError(
                f"degree {len(w)} exceeds budget {self.budget}",
                degrees=(len(self.words[i]), len(self.words[j])))
        return basis_vec(self.dim, self.index[w])

    def comult_triples(self, i: int):
        cached = self._comult_cache.get(i)
        if cached is None:
            w = self.words[i]
            counts: dict = {}
            for mask in range(1 << len(w)):
                left = tuple(w[p] for p in range(len(w)) if mask >> p & 1)
                right = tuple(w[p] for p in range(len(w)) if not mask >> p & 1)
                key = (self.index[left], self.index[right])
                counts[key] = counts.get(key, 0) + 1
            cached = sorted((a, b, rat(c)) for (a, b), c in counts.items())
            self._comult_cache[i] = cached
        return cached

    def counit_coeff(self, i: int) -> Fraction:
        return ONE if i == 0 else ZERO

    def antipode_basis(self, i: int) -> Vec:
        w = self.words[i]
        sign = ONE if len(w) % 2 == 0 else -ONE
        return vec_scale(sign, basis_vec(self.dim, self.index[w[::-1]]))

    def word_vec(self, w) -> Vec:
        return basis_vec(self.dim, self.index[tuple(w)])

    def from_word_coeffs(self, d: dict) -> Vec:
        out = zero_vec(self.dim)
        for w, c in d.items():
            out[self.index[tuple(w)]] += rat(c)
        return out

    def monomial_factors(self, i: int):
        """A basis word as the list of its generator factors."""
        return list(self.words[i])

    def generator_vec(self, g: int) -> Vec:
        return basis_vec(self.dim, self.index[(g,)])

    def top_degree(self, u: Vec) -> int:
        return max((self.degree(i) for i, c in enumerate(u) if c), default=0)

    def __repr__(self):
        return f"TruncatedTensor({self.generators} letters, budget {self.budget})"


@dataclass
class LyndonBasis:
    """Per-degree Lyndon words with their bracketed expansions in T(V)."""

    tensor: TruncatedTensor
    by_degree: dict = field(init=False)
    vectors: list = field(init=False)  # flat list of (word, Vec)

    def __post_init__(self):
        k, budget = self.tensor.generators, self.tensor.budget
        self.by_degree = lyndon_words(k, budget)
        for n in range(1, budget + 1):
            expected = witt_dimension(k, n)
            if len(self.by_degree[n]) != expected:
                raise AssertionError(
                    f"Lyndon count at degree {n} is {len(self.by_degree[n])}, "
                    f"necklace count says {expected}")
        self.vectors = []
        for n in range(1, budget + 1):
            for w in self.by_degree[n]:
                self.vectors.append((w, self.tensor.from_word_coeffs(bracket_expansion(w))))

    def dims(self) -> list[int]:
        return [len(self.by_degree[n]) for n in range(1, self.tensor.budget + 1)]


def truncated_primitives(carrier) -> list[Vec]:
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
    sol = solve_affine(Mat.from_rows(rows), [ZERO] * len(rows))
    return sol.kernel_basis


def lyndon_dims(generators: int, budget: int) -> dict:
    """Lyndon counts per degree, cross-checked three ways: Duval
    enumeration, the necklace-count formula, and the graded dimensions of
    the primitive space of the truncated tensor algebra."""
    tensor = TruncatedTensor(generators, budget)
    basis = LyndonBasis(tensor)
    duval = basis.dims()
    witt = [witt_dimension(generators, n) for n in range(1, budget + 1)]
    prim = truncated_primitives(tensor)
    graded = [0] * budget
    for v in prim:
        degs = {tensor.degree(i) for i, c in enumerate(v) if c}
        if len(degs) != 1:
            raise AssertionError("primitive basis vector is not homogeneous")
        graded[degs.pop() - 1] += 1
    return {
        "lyndon": duval,
        "necklace": witt,
        "primitive_dims": graded,
        "agree": duval == witt == graded,
    }


# ---------------------------------------------------------------------------
# truncated universal enveloping algebras (PBW basis)

class TruncatedEnveloping(CarrierOps):
    """U(g) of a finite-dimensional Lie algebra, truncated in PBW degree.

    Basis monomials are exponent tuples over the Lie basis; products are
    straightened exactly, which never raises the degree, so any product
    of total degree within the budget is exact.
    """

    def __init__(self, lie, budget: int):
        if budget < 1:
            raise BudgetCapError("budget must be at least 1")
        self.lie = lie
        self.budget = budget
        self.monomials = []
        for total in range(budget + 1):
            self.monomials.extend(_exponents(lie.dim, total))
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self.dim = len(self.monomials)
        self._norm_cache: dict = {}
        self._mult_cache: dict = {}

    def degree(self, i: int) -> int:
        return sum(self.monomials[i])

    def label(self, i: int) -> str:
        mono = self.monomials[i]
        if not any(mono):
            return "1"
        parts = []
        for g, e in enumerate(mono):
            if e == 1:
                parts.append(self.lie.labels[g])
            elif e > 1:
                parts.append(f"{self.lie.labels[g]}^{e}")
        return ".".join(parts)

    def unit_vec(self) -> Vec:
        return basis_vec(self.dim, 0)

    def _normalize(self, seq) -> dict:
        """Straighten a generator sequence into sorted monomials."""
        cached = self._norm_cache.get(seq)
        if cached is not None:
            return cached
        for pos in range(len(seq) - 1):
            a, b = seq[pos], seq[pos + 1]
            if a > b:
                swapped = seq[:pos] + (b, a) + seq[pos + 2:]
                out = dict(self._normalize(swapped))
                bracket = self.lie.bracket_tensor[a][b]
                for g, c in enumerate(bracket):
                    if c:
                        for mono, c2 in self._normalize(seq[:pos] + (g,) + seq[pos + 2:]).items():
                            out[mono] = out.get(mono, ZERO) + c * c2
                out = {m: c for m, c in out.items() if c}
                self._norm_cache[seq] = out
                return out
        mono = [0] * self.lie.dim
        for g in seq:
            mono[g] += 1
        out = {tuple(mono): ONE}
        self._norm_cache[seq] = out
        return out

    def _mono_seq(self, i: int):
        return tuple(g for g, e in enumerate(self.monomials[i]) for _ in range(e))

    def mult_basis(self, i: int, j: int) -> Vec:
        cached = self._mult_cache.get((i, j))
        if cached is not None:
            return cached
        di, dj = self.degree(i), self.degree(j)
        if di + dj > self.budget:
            raise OutOfBudgetError(
                f"degree {di + dj} exceeds budget {self.budget}", degrees=(di, dj))
        out = zero_vec(self.dim)
        for mono, c in self._normalize(self._mono_seq(i) + self._mono_seq(j)).items():
            out[self.index[mono]] += c
        self._mult_cache[(i, j)] = out
        return out

    def comult_triples(self, i: int):
        mono = self.monomials[i]
        ranges = [range(e + 1) for e in mono]
        triples = []
        for sub in itertools.product(*ranges):
            coeff = ONE
            for e, b in zip(mono, sub):
                coeff *= comb(e, b)
            left = tuple(sub)
            right = tuple(e - b for e, b in zip(mono, sub))
            triples.append((self.index[left], self.index[right], coeff))
        return sorted(triples)

    def counit_coeff(self, i: int) -> Fraction:
        return ONE if i == 0 else ZERO

    def antipode_basis(self, i: int) -> Vec:
        seq = self._mono_seq(i)
        sign = ONE if len(seq) % 2 == 0 else -ONE
        out = zero_vec(self.dim)
        for mono, c in self._normalize(seq[::-1]).items():
            out[self.index[mono]] += sign * c
        return out

    def monomial_factors(self, i: int):
        return list(self._mono_seq(i))

    def generator_vec(self, g: int) -> Vec:
        mono = [0] * self.lie.dim
        mono[g] = 1
        return basis_vec(self.dim, self.index[tuple(mono)])

    def top_degree(self, u: Vec) -> int:
        return max((self.degree(i) for i, c in enumerate(u) if c), default=0)

    def graded_dims(self) -> list[int]:
        out = [0] * (self.budget + 1)
        for m in self.monomials:
            out[sum(m)] += 1
        return out

    def __repr__(self):
        return f"TruncatedEnveloping({self.lie!r}, budget {self.budget})"


def _exponents(width: int, total: int):
    if width == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _exponents(width - 1, total - head):
            yield (head,) + rest


# ---------------------------------------------------------------------------
# module actions on truncated carriers

class DerivationAction:
    """Action of the generators of one carrier on another by derivations,
    extended to monomials by composition (the enveloping-algebra module
    structure).  gen_images[x][y] is the image of target generator y
    under the derivation attached to acting generator x."""

    def __init__(self, acting, target, gen_images):
        self.acting = acting
        self.target = target
        self.gen_images = gen_images

    def derivation(self, x: int, u: Vec) -> Vec:
        """Apply the derivation of acting generator x to u."""
        t = self.target
        out = zero_vec(t.dim)
        for i, c in enumerate(u):
            if not c:
                continue
            factors = t.monomial_factors(i)
            for pos in range(len(factors)):
                pieces = [t.generator_vec(g) for g in factors]
                pieces[pos] = self.gen_images[x][factors[pos]]
                term = t.unit_vec()
                for piece in pieces:
                    term = t.mult_vec(term, piece)
                out = vec_add(out, vec_scale(c, term))
        return out

    def act_basis(self, a: int, u: Vec) -> Vec:
        """Module action of an acting basis monomial, by composing the
        derivations of its factors."""
        out = list(u)
        for x in reversed(self.acting.monomial_factors(a)):
            out = self.derivation(x, out)
        return out

    def act(self, a_vec: Vec, u: Vec) -> Vec:
        out = zero_vec(self.target.dim)
        for a, c in enumerate(a_vec):
            if c:
                out = vec_add(out, vec_scale(c, self.act_basis(a, u)))
        return out


def adjoint_derivation_action(carrier) -> DerivationAction:
    """The adjoint action of a truncated carrier on itself: generators act
    by commutator brackets."""
    k = _generator_count(carrier)
    images = []
    for x in range(k):
        xv = carrier.generator_vec(x)
        row = []
        for y in range(k):
            yv = carrier.generator_vec(y)
            row.append(vec_sub(carrier.mult_vec(xv, yv), carrier.mult_vec(yv, xv)))
        images.append(row)
    return DerivationAction(carrier, carrier, images)


def trivial_derivation_action(acting, target) -> DerivationAction:
    k = _generator_count(acting)
    m = _generator_count(target)
    images = [[zero_vec(target.dim) for _ in range(m)] for _ in range(k)]
    return DerivationAction(acting, target, images)


def _generator_count(carrier) -> int:
    if isinstance(carrier, TruncatedTensor):
        return carrier.generators
    if isinstance(carrier, TruncatedEnveloping):
        return carrier.lie.dim
    raise TypeError("not a truncated carrier")


# ---------------------------------------------------------------------------
# difference operators on the truncated tensor algebra

@dataclass
class TruncReport:
    """Verification outcome over a truncated carrier."""

    ok: bool
    failures: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    checked: int = 0
    details: dict = field(default_factory=dict)


def algebra_endo_from_letters(tv: TruncatedTensor, letter_images: list[Vec]):
    """The algebra endomorphism with the given letter images; columns for
    words whose image would leave the budget are marked None."""
    cols: list = [tv.unit_vec()]
    for i in range(1, tv.dim):
        w = tv.words[i]
        try:
            acc = tv.unit_vec()
            for letter in w:
                acc = tv.mult_vec(acc, letter_images[letter])
            cols.append(acc)
        except OutOfBudgetError:
            cols.append(None)
    return cols


def diffop_from_hom(tv: TruncatedTensor, phi: list[Vec]) -> TruncReport:
    """Build D = F * S from the algebra endomorphism F extending
    v -> v + phi(v), then verify the difference identity in budget.

    phi maps each letter to an element of the free Lie algebra inside the
    carrier (a primitive vector); budget overruns are reported, never
    skipped silently.
    """
    prim = row_space_basis(truncated_primitives(tv))
    for v in phi:
        if not in_span(prim, v):
            raise ValueError("letter images must be primitive (free Lie elements)")
    letter_images = [vec_add(tv.generator_vec(x), phi[x]) for x in range(tv.generators)]
    f_cols = algebra_endo_from_letters(tv, letter_images)
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
    report = verify_trunc_diffop(tv, d_cols)
    report.skipped = skipped + report.skipped
    report.details["F"] = f_cols
    report.details["D"] = d_cols
    return report


def verify_trunc_diffop(tv, d_cols) -> TruncReport:
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
    return TruncReport(not failures, failures, skipped, checked)


# ---------------------------------------------------------------------------
# crossed-homomorphism extension to the enveloping level

def free_crossed_hom_values(carrier, action: DerivationAction, gen_images: list[Vec],
                            lyndon: "LyndonBasis"):
    """Values of the free crossed homomorphism on the bracketed Lyndon
    basis, from its generator images.

    On a free Lie algebra any generator assignment extends uniquely to a
    crossed homomorphism; the value on [u, v] is
    phi(u)(d v) - phi(v)(d u) + [d u, d v], computed recursively down the
    standard factorization.  Entries that leave the budget come back as
    None.
    """
    values: dict = {}

    def lie_vec(word):
        return carrier.from_word_coeffs(bracket_expansion(word))

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
                    out = vec_sub(action.act(uu, dv), action.act(vv, du))
                    bracket = vec_sub(carrier.mult_vec(du, dv), carrier.mult_vec(dv, du))
                    out = vec_add(out, bracket)
                except OutOfBudgetError:
                    out = None
        values[word] = out
        return out

    return [(w, value(w)) for w, _ in lyndon.vectors]


def extend_crossed_hom_trunc(carrier, action: DerivationAction,
                             pi_gen_images: list[Vec]) -> TruncReport:
    """The enveloping-level extension of a Lie crossed homomorphism:
    pi_bar(x1...xn) = (pi(x1) + phi(x1)) ... (pi(xn) + phi(xn))(1) on the
    monomial basis, verified as a coalgebra map satisfying the
    Hopf crossed-homomorphism identity on all in-budget pairs.
    """
    cols = pibar_columns(carrier, action, pi_gen_images)
    report = verify_crossed_hom_trunc(carrier, action, cols)
    report.details["pibar"] = cols
    # restriction to primitive degree one must match the generator images
    k = _generator_count(carrier)
    for g in range(k):
        if cols_at(cols, carrier, carrier.generator_vec(g)) != pi_gen_images[g]:
            report.ok = False
            report.failures.append(("degree-one restriction", g))
    return report


def pibar_columns(carrier, action: DerivationAction, pi_gen_images: list[Vec]):
    """Images of basis monomials under the product-formula extension.
    Out-of-budget columns are None."""
    cols = []
    for i in range(carrier.dim):
        factors = carrier.monomial_factors(i)
        acc = carrier.unit_vec()
        try:
            for g in reversed(factors):
                left = carrier.mult_vec(pi_gen_images[g], acc)
                acc = vec_add(left, action.derivation(g, acc))
            cols.append(acc)
        except OutOfBudgetError:
            cols.append(None)
    return cols


def cols_at(cols, carrier, u: Vec):
    """Apply a partially defined column table to a vector."""
    out = zero_vec(carrier.dim)
    for i, c in enumerate(u):
        if not c:
            continue
        if cols[i] is None:
            raise OutOfBudgetError("image column unknown")
        out = vec_add(out, vec_scale(c, cols[i]))
    return out


def verify_crossed_hom_trunc(carrier, action: DerivationAction, cols) -> TruncReport:
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
                lhs = cols_at(cols, carrier, prod)
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
    return TruncReport(not failures, failures, skipped, checked)


def mm_instance_check(tv: TruncatedTensor, action: DerivationAction,
                      pi_gen_images: list[Vec],
                      candidate_cols=None) -> TruncReport:
    """Instance check of the enveloping-extension compatibility:

    (i) the product-formula extension restricts on primitives to the free
    crossed homomorphism it came from; (ii) it is the unique in-budget
    coalgebra map satisfying the crossed-homomorphism identity degree by
    degree; (iii) the extended action is a module-bialgebra action on all
    in-budget tuples.  A candidate column table may be supplied to test
    against (the perturbation hook); it defaults to the computed one.
    """
    lyndon = LyndonBasis(tv)
    report = extend_crossed_hom_trunc(tv, action, pi_gen_images)
    cols = report.details["pibar"] if candidate_cols is None else candidate_cols
    if candidate_cols is not None:
        sub = verify_crossed_hom_trunc(tv, action, cols)
        report.ok = report.ok and sub.ok
        report.failures.extend(sub.failures)

    # (i) restriction to the Lie subspace
    lie_values = free_crossed_hom_values(tv, action, pi_gen_images, lyndon)
    for (w, expected) in lie_values:
        if expected is None:
            report.skipped.append(("lie-restriction", "".join(map(str, w))))
            continue
        try:
            got = cols_at(cols, tv, tv.from_word_coeffs(bracket_expansion(w)))
        except OutOfBudgetError:
            report.skipped.append(("lie-restriction", "".join(map(str, w))))
            continue
        if got != expected:
            report.ok = False
            report.failures.append(("lie-restriction", "".join(map(str, w))))

    # (ii) degree-by-degree uniqueness of the in-budget extension
    uniq = _uniqueness_by_degree(tv, action, pi_gen_images, cols)
    report.details["uniqueness"] = uniq
    if not uniq["unique"] or not uniq["matches"]:
        report.ok = False
        report.failures.append(("uniqueness", uniq.get("witness")))

    # (iii) the extended action is a module bialgebra action in budget
    club = extended_action_bialgebra_check(tv, action)
    report.details["action"] = club
    if not club.ok:
        report.ok = False
        report.failures.extend(club.failures)
    report.skipped.extend(club.skipped)
    return report


def _uniqueness_by_degree(tv, action, pi_gen_images, cols) -> dict:
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
        sol = solve_affine(Mat.from_rows(rows), rhs)
        if sol.inconsistent or sol.kernel_basis:
            return {"unique": False, "matches": False,
                    "witness": f"degree {d} solution space dim {len(sol.kernel_basis)}"}
        for i in idxs:
            known[i] = sol.particular[pos[i] * n:(pos[i] + 1) * n]
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


def extended_action_bialgebra_check(carrier, action: DerivationAction) -> TruncReport:
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
                    lhs = action.act(ab, basis_vec(n, x))
                    rhs = action.act_basis(a, action.act_basis(b, basis_vec(n, x)))
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
                    lhs = action.act_basis(a, xy)
                    rhs = zero_vec(n)
                    for (a1, a2, c) in carrier.comult_triples(a):
                        rhs = vec_add(rhs, vec_scale(c, carrier.mult_vec(
                            action.act_basis(a1, basis_vec(n, x)),
                            action.act_basis(a2, basis_vec(n, y)))))
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
                acted = action.act_basis(a, basis_vec(n, x))
                lhs = carrier.comult_vec(acted)
                rhs: dict = {}
                for (a1, a2, c) in carrier.comult_triples(a):
                    for (x1, x2, e) in carrier.comult_triples(x):
                        left = action.act_basis(a1, basis_vec(n, x1))
                        right = action.act_basis(a2, basis_vec(n, x2))
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
    return TruncReport(not failures, failures, skipped, checked)


# ---------------------------------------------------------------------------
# truncated smash products

class TruncatedSmash(CarrierOps):
    """H # K for truncated or finite-dimensional carriers.

    act_basis(a, vec) must implement the module-algebra action of the
    K-basis element a on H; the constructors below build it for
    derivation actions (primitives) and sign actions (group-likes).
    """

    def __init__(self, h, k, act_basis, budget: int, name: str = "smash"):
        self.h = h
        self.k = k
        self.act_basis_fn = act_basis
        self.budget = budget
        self.name = name
        hdeg = getattr(h, "degree", None) or (lambda i: 0)
        kdeg = getattr(k, "degree", None) or (lambda i: 0)
        self.pairs = [(x, a) for x in range(h.dim) for a in range(k.dim)
                      if hdeg(x) + kdeg(a) <= budget]
        self.index = {p: i for i, p in enumerate(self.pairs)}
        self.dim = len(self.pairs)
        self._hdeg = hdeg
        self._kdeg = kdeg

    def degree(self, i: int) -> int:
        x, a = self.pairs[i]
        return self._hdeg(x) + self._kdeg(a)

    def label(self, i: int) -> str:
        x, a = self.pairs[i]
        return f"{self.h.label(x)}#{self.k.label(a)}"

    def unit_vec(self) -> Vec:
        out = zero_vec(self.dim)
        for x, hv in enumerate(self.h.unit_vec()):
            if not hv:
                continue
            for a, kv in enumerate(self.k.unit_vec()):
                if kv:
                    out[self.index[(x, a)]] = hv * kv
        return out

    def _embed(self, hvec: Vec, kvec: Vec, out: Vec, scale):
        for x, hv in enumerate(hvec):
            if not hv:
                continue
            for a, kv in enumerate(kvec):
                if kv:
                    idx = self.index.get((x, a))
                    if idx is None:
                        raise OutOfBudgetError("smash component out of budget")
                    out[idx] += scale * hv * kv

    def mult_basis(self, i: int, j: int) -> Vec:
        x, a = self.pairs[i]
        y, b = self.pairs[j]
        if self.degree(i) + self.degree(j) > self.budget:
            raise OutOfBudgetError("smash product exceeds budget",
                                   degrees=(self.degree(i), self.degree(j)))
        out = zero_vec(self.dim)
        for (a1, a2, c) in self.k.comult_triples(a):
            acted = self.act_basis_fn(a1, basis_vec(self.h.dim, y))
            hpart = self.h.mult_vec(basis_vec(self.h.dim, x), acted)
            kpart = self.k.mult_basis(a2, b)
            self._embed(hpart, kpart, out, c)
        return out

    def comult_triples(self, i: int):
        x, a = self.pairs[i]
        triples = []
        for (x1, x2, c) in self.h.comult_triples(x):
            for (a1, a2, d) in self.k.comult_triples(a):
                triples.append((self.index[(x1, a1)], self.index[(x2, a2)], c * d))
        return triples

    def counit_coeff(self, i: int):
        x, a = self.pairs[i]
        return self.h.counit_coeff(x) * self.k.counit_coeff(a)

    def antipode_basis(self, i: int) -> Vec:
        x, a = self.pairs[i]
        out = zero_vec(self.dim)
        sx = self.h.antipode_basis(x)
        for (a1, a2, c) in self.k.comult_triples(a):
            acted = zero_vec(self.h.dim)
            for g, kv in enumerate(self.k.antipode_basis(a1)):
                if kv:
                    acted = vec_add(acted, vec_scale(kv, self.act_basis_fn(g, sx)))
            kpart = self.k.antipode_basis(a2)
            self._embed(acted, kpart, out, c)
        return out

    def embed_h(self, hvec: Vec) -> Vec:
        out = zero_vec(self.dim)
        self._embed(hvec, self.k.unit_vec(), out, ONE)
        return out

    def embed_k(self, kvec: Vec) -> Vec:
        out = zero_vec(self.dim)
        self._embed(self.h.unit_vec(), kvec, out, ONE)
        return out

    def __repr__(self):
        return f"TruncatedSmash({self.name}, dim={self.dim})"


def smash_vs_semidirect_trunc(lie_action, budget: int) -> dict:
    """Instance check that U(h x| g) and U(h) # U(g) agree up to the
    budget: the map (u, x) -> u#1 + 1#x extends to an exact graded
    isomorphism, multiplicative on every in-budget pair."""
    from .lie import semidirect

    g, h = lie_action.acting, lie_action.target
    sd = semidirect(lie_action)
    u_sd = TruncatedEnveloping(sd, budget)
    uh = TruncatedEnveloping(h, budget)
    ug = TruncatedEnveloping(g, budget)
    images = []
    for x in range(g.dim):
        row = [_embed_degree_one(uh, lie_action.phi[x].col(j)) for j in range(h.dim)]
        images.append(row)
    action = DerivationAction(ug, uh, images)
    smash = TruncatedSmash(uh, ug, action.act_basis, budget,
                           name=f"U({h.name})#U({g.name})")

    # the map on semidirect generators, extended multiplicatively
    gen_cols = []
    for i in range(sd.dim):
        if i < h.dim:
            gen_cols.append(smash.embed_h(uh.generator_vec(i)))
        else:
            gen_cols.append(smash.embed_k(ug.generator_vec(i - h.dim)))
    cols = []
    skipped = []
    for i in range(u_sd.dim):
        try:
            acc = smash.unit_vec()
            for gidx in u_sd.monomial_factors(i):
                acc = smash.mult_vec(acc, gen_cols[gidx])
            cols.append(acc)
        except OutOfBudgetError:
            cols.append(None)
            skipped.append(u_sd.label(i))
    report: dict = {"skipped": skipped}
    report["graded_dims_match"] = u_sd.graded_dims() == _smash_graded_dims(smash)
    report["dims"] = u_sd.graded_dims()
    mat = Mat.from_cols([c for c in cols if c is not None])
    report["bijective"] = (len([c for c in cols if c is not None]) == smash.dim
                           and invert(mat) is not None)
    # multiplicativity on in-budget pairs
    fails = 0
    checked = 0
    for i in range(u_sd.dim):
        for j in range(u_sd.dim):
            if cols[i] is None or cols[j] is None:
                continue
            try:
                lhs = cols_at(cols, u_sd, u_sd.mult_basis(i, j))
                rhs = smash.mult_vec(cols[i], cols[j])
            except OutOfBudgetError:
                continue
            checked += 1
            if lhs != rhs:
                fails += 1
    report["multiplicative_pairs_checked"] = checked
    report["multiplicative"] = fails == 0
    # coalgebra compatibility on basis columns
    co_ok = True
    for i in range(u_sd.dim):
        if cols[i] is None:
            continue
        lhs = smash.comult_vec(cols[i])
        rhs: dict = {}
        partial = False
        for (a, b, c) in u_sd.comult_triples(i):
            if cols[a] is None or cols[b] is None:
                partial = True
                break
            for p, x in enumerate(cols[a]):
                if not x:
                    continue
                for q, y in enumerate(cols[b]):
                    if y:
                        rhs[(p, q)] = rhs.get((p, q), ZERO) + c * x * y
        if partial:
            continue
        rhs = {k: v for k, v in rhs.items() if v}
        if lhs != rhs:
            co_ok = False
    report["coalgebra_compatible"] = co_ok
    report["ok"] = (report["graded_dims_match"] and report["bijective"]
                    and report["multiplicative"] and co_ok)
    report["_smash"] = smash
    report["_u_semidirect"] = u_sd
    report["_columns"] = cols
    return report


def _embed_degree_one(u_env: TruncatedEnveloping, lie_vec) -> Vec:
    out = zero_vec(u_env.dim)
    for g, c in enumerate(lie_vec):
        if c:
            out = vec_add(out, vec_scale(rat(c), u_env.generator_vec(g)))
    return out


def _smash_graded_dims(smash: TruncatedSmash) -> list[int]:
    out = [0] * (smash.budget + 1)
    for i in range(smash.dim):
        out[smash.degree(i)] += 1
    return out


def graph_dims_check(lie_action, pi_gen_images_lie, budget: int) -> dict:
    """Instance check that the graph of the extended crossed homomorphism
    has the graded dimensions of the enveloping algebra of the Lie-level
    graph."""
    rep = smash_vs_semidirect_trunc(lie_action, budget)
    smash: TruncatedSmash = rep["_smash"]
    uh: TruncatedEnveloping = smash.h
    ug: TruncatedEnveloping = smash.k
    g = lie_action.acting
    # Lie-level graph dimension equals dim g; enveloping dims are the
    # monomial counts in dim(g) variables
    expected = [0] * (budget + 1)
    for total in range(budget + 1):
        expected[total] = comb(total + g.dim - 1, g.dim - 1)
    cum_expected = list(itertools.accumulate(expected))
    action = DerivationAction(ug, uh, [[
        _embed_degree_one(uh, lie_action.phi[x].col(j)) for j in range(lie_action.target.dim)]
        for x in range(g.dim)])
    pi_images = [_embed_degree_one(uh, v) for v in pi_gen_images_lie]
    cols = pibar_columns(ug, action, pi_images)
    vectors_by_degree: dict = {}
    for i in range(ug.dim):
        if cols[i] is None:
            continue
        vec = zero_vec(smash.dim)
        for (a1, a2, c) in ug.comult_triples(i):
            if cols[a1] is None:
                vec = None
                break
            for p, hv in enumerate(cols[a1]):
                if hv:
                    idx = smash.index.get((p, a2))
                    if idx is None:
                        vec = None
                        break
                    vec[idx] += c * hv
            if vec is None:
                break
        if vec is not None:
            vectors_by_degree.setdefault(ug.degree(i), []).append(vec)
    dims = []
    pool: list = []
    for d in range(budget + 1):
        pool.extend(vectors_by_degree.get(d, []))
        dims.append(len(row_space_basis(pool)))
    return {
        "graph_filtration_dims": dims,
        "expected_dims": cum_expected,
        "ok": dims == cum_expected,
    }


# ---------------------------------------------------------------------------
# the truncated mixed structure-theorem instance

def sign_action_on_enveloping(u_env: TruncatedEnveloping, kc2) -> "callable":
    """kC2 acting on U of a one-dimensional Lie algebra by the sign of the
    degree: the generator of C2 acts as the algebra automorphism e -> -e."""

    def act_basis(a: int, vec: Vec) -> Vec:
        if a == 0:
            return list(vec)
        return [(-c if u_env.degree(i) % 2 else c) for i, c in enumerate(vec)]

    return act_basis


def ckmm_truncated_instance(budget: int) -> dict:
    """The mixed pointed-cocommutative instance: k[C2] acting by sign on
    the truncated enveloping algebra of the one-dimensional Lie algebra,
    with the compatible difference pair (id on U, u o eps on kC2).

    Verifies the compatibility identity, builds the smash extension,
    checks it is a difference operator on every in-budget pair, restricts
    it back to the group of group-likes and the primitive space, and
    reproduces the operator from those restrictions.
    """
    from .catalog import build_kC2
    from .lie import FinLie

    g1 = FinLie.from_pairs(["e"], {}, "abelian1")
    u_env = TruncatedEnveloping(g1, budget)
    kc2 = build_kC2()
    act = sign_action_on_enveloping(u_env, kc2)
    smash = TruncatedSmash(u_env, kc2, act, budget, name="U(e)#kC2")
    n_u, n_k = u_env.dim, kc2.dim

    d_h = [basis_vec(n_u, i) for i in range(n_u)]          # id on U
    d_k = [basis_vec(n_k, 0), basis_vec(n_k, 0)]           # u o eps on kC2

    report: dict = {"budget": budget}

    # compatibility: D_H(a1 . x1)(a2 . x2) = D_K(a1) a2 . D_H(x1) x2
    fails = []
    for a in range(n_k):
        for x in range(n_u):
            lhs = zero_vec(n_u)
            for (a1, a2, c) in kc2.comult_triples(a):
                for (x1, x2, e) in u_env.comult_triples(x):
                    term = u_env.mult_vec(_apply_cols(d_h, act(a1, basis_vec(n_u, x1))),
                                          act(a2, basis_vec(n_u, x2)))
                    lhs = vec_add(lhs, vec_scale(c * e, term))
            rhs = zero_vec(n_u)
            for (a1, a2, c) in kc2.comult_triples(a):
                acting = kc2.mult_vec(d_k[a1], basis_vec(n_k, a2))
                for (x1, x2, e) in u_env.comult_triples(x):
                    moved = u_env.mult_vec(d_h[x1], basis_vec(n_u, x2))
                    acted = zero_vec(n_u)
                    for gk, kv in enumerate(acting):
                        if kv:
                            acted = vec_add(acted, vec_scale(kv, act(gk, moved)))
                    rhs = vec_add(rhs, vec_scale(c * e, acted))
            if lhs != rhs:
                fails.append((kc2.label(a), u_env.label(x)))
    report["compatible"] = not fails
    report["compatibility_witness"] = fails[0] if fails else None

    # the incompatible pair (id on U, id on kC2) must be rejected
    d_k_bad = [basis_vec(n_k, 0), basis_vec(n_k, 1)]
    bad_witness = None
    for a in range(n_k):
        for x in range(n_u):
            lhs = zero_vec(n_u)
            for (a1, a2, c) in kc2.comult_triples(a):
                for (x1, x2, e) in u_env.comult_triples(x):
                    term = u_env.mult_vec(_apply_cols(d_h, act(a1, basis_vec(n_u, x1))),
                                          act(a2, basis_vec(n_u, x2)))
                    lhs = vec_add(lhs, vec_scale(c * e, term))
            rhs = zero_vec(n_u)
            for (a1, a2, c) in kc2.comult_triples(a):
                acting = kc2.mult_vec(d_k_bad[a1], basis_vec(n_k, a2))
                for (x1, x2, e) in u_env.comult_triples(x):
                    moved = u_env.mult_vec(d_h[x1], basis_vec(n_u, x2))
                    acted = zero_vec(n_u)
                    for gk, kv in enumerate(acting):
                        if kv:
                            acted = vec_add(acted, vec_scale(kv, act(gk, moved)))
                    rhs = vec_add(rhs, vec_scale(c * e, acted))
            if lhs != rhs and bad_witness is None:
                bad_witness = (kc2.label(a), u_env.label(x))
    report["incompatible_pair_rejected"] = bad_witness is not None
    report["incompatible_witness"] = bad_witness

    # the smash extension D(x#a) = D_H(x1) x2 (D_K(a1) . S(x3)) # D_K(a2)
    cols = []
    for i in range(smash.dim):
        x, a = smash.pairs[i]
        sw: dict = {}
        for (x1, x2, c) in u_env.comult_triples(x):
            for (x11, x12, c2) in u_env.comult_triples(x1):
                key = (x11, x12, x2)
                sw[key] = sw.get(key, ZERO) + c * c2
        col = zero_vec(smash.dim)
        for (t1, t2, t3), c in sw.items():
            if not c:
                continue
            base = u_env.mult_vec(d_h[t1], basis_vec(n_u, t2))
            for (a1, a2, e) in kc2.comult_triples(a):
                acted = zero_vec(n_u)
                for gk, kv in enumerate(d_k[a1]):
                    if kv:
                        acted = vec_add(acted, vec_scale(kv, act(gk, u_env.antipode_basis(t3))))
                hpart = u_env.mult_vec(base, acted)
                kpart = d_k[a2]
                for p, hv in enumerate(hpart):
                    if not hv:
                        continue
                    for q, kv2 in enumerate(kpart):
                        if kv2:
                            col[smash.index[(p, q)]] += c * e * hv * kv2
        cols.append(col)
    diff_rep = verify_trunc_diffop(smash, cols)
    report["extension_is_diffop"] = diff_rep.ok
    report["extension_pairs_checked"] = diff_rep.checked
    report["extension_pairs_skipped"] = len(diff_rep.skipped)

    # restrictions
    ok_h = all(cols[smash.index[(x, 0)]] == _embed_pair(smash, d_h[x], 0)
               for x in range(n_u))
    ok_k = all(cols[smash.index[(0, a)]] == _embed_pair(smash, d_k[a], 0, k_side=True)
               for a in range(n_k))
    report["restricts_to_dh"] = ok_h
    report["restricts_to_dk"] = ok_k

    # group-likes and primitives of the smash
    prim = truncated_primitives(smash)
    e_vec = zero_vec(smash.dim)
    e_vec[smash.index[(u_env.index[(1,)], 0)]] = ONE
    report["primitive_dim"] = len(prim)
    report["primitive_is_e"] = (len(prim) == 1 and
                                row_space_basis(prim) == row_space_basis([e_vec]))
    # D on the primitive: identity (a difference operator on the abelian
    # one-dimensional Lie algebra); D on group-likes: the trivial one
    d_on_e = cols[smash.index[(u_env.index[(1,)], 0)]]
    report["restriction_on_primitive_is_id"] = d_on_e == e_vec
    d_on_s = cols[smash.index[(0, 1)]]
    unit = smash.unit_vec()
    report["restriction_on_grouplike_is_trivial"] = d_on_s == unit
    report["ok"] = all(report[k] for k in (
        "compatible", "incompatible_pair_rejected", "extension_is_diffop",
        "restricts_to_dh", "restricts_to_dk", "primitive_is_e",
        "restriction_on_primitive_is_id", "restriction_on_grouplike_is_trivial"))
    return report


def _apply_cols(cols, vec: Vec) -> Vec:
    out = zero_vec(len(cols[0]))
    for i, c in enumerate(vec):
        if c:
            out = vec_add(out, vec_scale(c, cols[i]))
    return out


def _embed_pair(smash: TruncatedSmash, vec: Vec, other: int, k_side: bool = False) -> Vec:
    out = zero_vec(smash.dim)
    for i, c in enumerate(vec):
        if c:
            key = (other, i) if k_side else (i, other)
            out[smash.index[key]] = c
    return out
