"""Degree-truncated free carriers: words and Lyndon combinatorics, the
tensor Hopf algebra T(V) with the coshuffle coproduct, its Lyndon basis,
and truncated universal enveloping algebras.

These are the carriers of :mod:`hopfdiff.freelie`, which imports them
back; they need only :mod:`hopfdiff.hopf` and :mod:`hopfdiff.exactlin`,
so ``free-lie lyndon-dims`` runs without the action layer.  Truncation is
honest: ``mult_terms``, the one product each carrier implements, returns
the OutOfBudgetError of a product above the budget unraised, so the
integer structure table stores it without a raise and catch per product.
There is one such error per budget and pair of degrees, and it is raised
only as a copy.
Comultiplication, counit and antipode always stay inside the budget and
are total.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from .exactlin import ONE, ZERO, Record, rat
from .hopf import CarrierOps, OutOfBudgetError, Vec, basis_vec, primitives, zero_vec

MAX_BUDGET = 7
MAX_GENERATORS = 3
DEFAULT_BUDGET = 4

# the one OutOfBudgetError of each (budget, degree, degree) above the budget
_BEYOND: dict = {}


def _beyond(budget: int, di: int, dj: int) -> OutOfBudgetError:
    """The stored error of a product of degrees di and dj above the
    budget, returned unraised."""
    exc = _BEYOND.get((budget, di, dj))
    if exc is None:
        exc = _BEYOND[(budget, di, dj)] = OutOfBudgetError(
            f"degree {di + dj} exceeds budget {budget}", degrees=(di, dj))
    return exc


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
    """The bracketed Lyndon word as a dictionary of integer word
    coefficients."""
    if len(w) == 1:
        return {w: 1}
    u, v = standard_factorization(w)
    left = bracket_expansion(u)
    right = bracket_expansion(v)
    out: dict = {}
    for wu, cu in left.items():
        for wv, cv in right.items():
            c = cu * cv
            key = wu + wv
            out[key] = out.get(key, 0) + c
            key = wv + wu
            out[key] = out.get(key, 0) - c
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
        self._shuffle_cache: dict = {0: {(0, 0): 1}}

    def degree(self, i: int) -> int:
        return len(self.words[i])

    def label(self, i: int) -> str:
        w = self.words[i]
        return "".join(self._letters[c] for c in w) if w else "1"

    def unit_vec(self) -> Vec:
        return basis_vec(self.dim, 0)

    def mult_terms(self, i: int, j: int):
        """The one term (k, 1) of the product of words i and j, or the
        OutOfBudgetError for a product above the budget, unraised."""
        u, v = self.words[i], self.words[j]
        if len(u) + len(v) > self.budget:
            return _beyond(self.budget, len(u), len(v))
        return ((self.index[u + v], ONE),)

    def comult_triples(self, i: int):
        cached = self._comult_cache.get(i)
        if cached is None:
            cached = self._comult_cache[i] = sorted(
                (a, b, rat(c)) for (a, b), c in self._shuffles(i).items())
        return cached

    def _shuffles(self, i: int) -> dict:
        """{(a, b): c} with D(word i) = sum c a (x) b, by the recursion
        D(w x) = D(w) (x (x) 1 + 1 (x) x) from the prefix's counts."""
        counts = self._shuffle_cache.get(i)
        if counts is None:
            words, index = self.words, self.index
            *prefix, x = words[i]
            counts = {}
            for (a, b), c in self._shuffles(index[tuple(prefix)]).items():
                for key in ((index[words[a] + (x,)], b), (a, index[words[b] + (x,)])):
                    counts[key] = counts.get(key, 0) + c
            self._shuffle_cache[i] = counts
        return counts

    def counit_coeff(self, i: int) -> Fraction:
        return ONE if i == 0 else ZERO

    def antipode_basis(self, i: int) -> Vec:
        w = self.words[i]
        out = zero_vec(self.dim)
        out[self.index[w[::-1]]] = ONE if len(w) % 2 == 0 else -ONE
        return out

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

    def __repr__(self):
        return f"TruncatedTensor({self.generators} letters, budget {self.budget})"


class LyndonBasis(Record):
    """Per-degree Lyndon words with their bracketed expansions in T(V)."""

    _fields = ("tensor", "by_degree", "vectors")

    def __init__(self, tensor: TruncatedTensor):
        self.tensor = tensor
        k, budget = tensor.generators, tensor.budget
        self.by_degree = lyndon_words(k, budget)
        for n in range(1, budget + 1):
            expected = witt_dimension(k, n)
            if len(self.by_degree[n]) != expected:
                raise AssertionError(
                    f"Lyndon count at degree {n} is {len(self.by_degree[n])}, "
                    f"necklace count says {expected}")
        self.vectors = []  # flat list of (word, Vec)
        for n in range(1, budget + 1):
            for w in self.by_degree[n]:
                self.vectors.append((w, tensor.from_word_coeffs(bracket_expansion(w))))

    def dims(self) -> list[int]:
        return [len(self.by_degree[n]) for n in range(1, self.tensor.budget + 1)]


def lyndon_dims(generators: int, budget: int) -> dict:
    """Lyndon counts per degree, cross-checked three ways: Duval
    enumeration, the necklace-count formula, and the graded dimensions of
    the primitive space of the truncated tensor algebra."""
    tensor = TruncatedTensor(generators, budget)
    basis = LyndonBasis(tensor)
    duval = basis.dims()
    witt = [witt_dimension(generators, n) for n in range(1, budget + 1)]
    prim = primitives(tensor)
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
        if budget > MAX_BUDGET:
            raise BudgetCapError(f"budget capped at {MAX_BUDGET}")
        self.lie = lie
        self.generators = lie.dim
        self.budget = budget
        self.monomials = []
        for total in range(budget + 1):
            self.monomials.extend(_exponents(lie.dim, total))
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self.dim = len(self.monomials)
        self._norm_cache: dict = {}

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

    def mult_terms(self, i: int, j: int):
        """The nonzero terms (k, c) of the straightened product in
        ascending k, or the OutOfBudgetError for a product above the
        budget, unraised."""
        di, dj = self.degree(i), self.degree(j)
        if di + dj > self.budget:
            return _beyond(self.budget, di, dj)
        return sorted((self.index[mono], c) for mono, c in
                      self._normalize(self._mono_seq(i) + self._mono_seq(j)).items() if c)

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

    def __repr__(self):
        return f"TruncatedEnveloping({self.lie!r}, budget {self.budget})"


def graded_dims(carrier) -> list[int]:
    """The number of basis elements of each degree 0..budget of a
    truncated carrier."""
    out = [0] * (carrier.budget + 1)
    for i in range(carrier.dim):
        out[carrier.degree(i)] += 1
    return out


def _exponents(width: int, total: int):
    if width == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _exponents(width - 1, total - head):
            yield (head,) + rest
