"""Independent exact checks for the benchmark's correctness gates.

Everything here reads the JSON payloads that ``hopfdiff catalog <name>``
exports and recomputes from the raw structure constants with
``fractions.Fraction`` alone.  It imports nothing from ``hopfdiff``, so a
fault in the program's own verifiers cannot hide behind a matching fault
here.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)


class Algebra:
    """A Hopf algebra read from an exported algebra payload.

    ``mult[i][j]`` is the coordinate vector of e_i e_j, ``comult[k]`` the
    triples (i, j, c) of Delta(e_k), and the antipode payload lists matrix
    rows, so S(e_j) is column j.
    """

    def __init__(self, payload: dict):
        self.name = payload["name"]
        self.labels = list(payload["basis"])
        self.dim = n = len(self.labels)
        self.mult = [[[Fraction(c) for c in cell] for cell in row]
                     for row in payload["mult"]]
        self.comult = [[(int(i), int(j), Fraction(c)) for i, j, c in triples]
                       for triples in payload["comult"]]
        self.counit = [Fraction(c) for c in payload["counit"]]
        rows = [[Fraction(c) for c in row] for row in payload["antipode"]]
        self.antipode_cols = [[rows[r][c] for r in range(n)] for c in range(n)]
        # Delta^2 = (Delta (x) id) Delta on each basis element
        self.delta2 = []
        for k in range(n):
            acc: dict = {}
            for a, b, c in self.comult[k]:
                for i, j, d in self.comult[a]:
                    key = (i, j, b)
                    acc[key] = acc.get(key, ZERO) + c * d
            self.delta2.append({key: v for key, v in acc.items() if v})

    def mul(self, u: list, v: list) -> list:
        out = [ZERO] * self.dim
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if not b:
                    continue
                for k, m in enumerate(self.mult[i][j]):
                    if m:
                        out[k] += a * b * m
        return out

    def basis(self, i: int) -> list:
        out = [ZERO] * self.dim
        out[i] = Fraction(1)
        return out

    def coproduct(self, u: list) -> dict:
        out: dict = {}
        for k, a in enumerate(u):
            if a:
                for i, j, c in self.comult[k]:
                    out[(i, j)] = out.get((i, j), ZERO) + a * c
        return {key: v for key, v in out.items() if v}

    def counit_of(self, u: list) -> Fraction:
        return sum((a * e for a, e in zip(u, self.counit)), ZERO)


def apply(cols: list, u: list) -> list:
    """The linear map with the given basis-image columns, applied to u."""
    out = [ZERO] * len(cols[0])
    for j, a in enumerate(u):
        if a:
            for i, c in enumerate(cols[j]):
                if c:
                    out[i] += a * c
    return out


def to_cols(images) -> list:
    """Basis-image columns as Fractions (accepts strings or numbers)."""
    return [[Fraction(c) for c in col] for col in images]


def rows_to_cols(rows) -> list:
    rows = [[Fraction(c) for c in row] for row in rows]
    return [list(col) for col in zip(*rows)]


def coalgebra_witness(h: Algebra, cols: list):
    """First basis index k where Delta D(e_k) != (D (x) D) Delta(e_k) or
    eps D(e_k) != eps(e_k); None for a coalgebra map."""
    for k in range(h.dim):
        rhs: dict = {}
        for i, j, c in h.comult[k]:
            for a, x in enumerate(cols[i]):
                if x:
                    for b, y in enumerate(cols[j]):
                        if y:
                            rhs[(a, b)] = rhs.get((a, b), ZERO) + c * x * y
        rhs = {key: v for key, v in rhs.items() if v}
        if h.coproduct(cols[k]) != rhs or h.counit_of(cols[k]) != h.counit[k]:
            return k
    return None


def diff_identity_witness(h: Algebra, cols: list):
    """First basis pair (i, j) where D(x y) != D(x1) x2 D(y) S(x3) for
    x = e_i, y = e_j; None when the identity holds on every pair."""
    n = h.dim
    for i in range(n):
        for j in range(n):
            lhs = apply(cols, h.mult[i][j])
            rhs = [ZERO] * n
            for (t1, t2, t3), c in h.delta2[i].items():
                term = h.mul(h.mul(h.mul(cols[t1], h.basis(t2)), cols[j]),
                             h.antipode_cols[t3])
                rhs = [r + c * t for r, t in zip(rhs, term)]
            if lhs != rhs:
                return (i, j)
    return None


def diffop_verdict(h: Algebra, cols: list):
    """(True, None) for a difference operator, else (False, witness) with
    witness ("coalgebra", k) or ("identity", i, j)."""
    k = coalgebra_witness(h, cols)
    if k is not None:
        return False, ("coalgebra", k)
    pair = diff_identity_witness(h, cols)
    if pair is not None:
        return False, ("identity",) + pair
    return True, None


def rank(cols: list) -> int:
    rows = [list(c) for c in cols if any(c)]
    r = 0
    width = len(rows[0]) if rows else 0
    for c in range(width):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def matmul_rows(a: list, b: list) -> list:
    """Product of two matrices given as rows."""
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO)
             for j in range(len(b[0]))] for i in range(len(a))]


# -- finite groups by multiplication table -----------------------------------

def endomorphisms(table: list) -> list:
    """Every map f with f(ab) = f(a) f(b), by exhaustive search over image
    assignments.  Pairs are tested as soon as a, b and ab all have images,
    so each pair is tested exactly once and no candidate is skipped."""
    n = len(table)
    pairs_at = [[] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            pairs_at[max(a, b, table[a][b])].append((a, b))
    found = []
    f = [0] * n

    def extend(k):
        if k == n:
            found.append(tuple(f))
            return
        for img in range(n):
            f[k] = img
            if all(f[table[a][b]] == table[f[a]][f[b]] for a, b in pairs_at[k]):
                extend(k + 1)

    extend(0)
    return found


def idempotent_count(maps: list) -> int:
    return sum(1 for f in maps if all(f[f[a]] == f[a] for a in range(len(f))))


def witt_dims(generators: int, budget: int) -> list:
    """Dimensions of the free Lie algebra by degree, from the necklace
    formula (1/n) sum_{d | n} mu(d) k^(n/d)."""
    def mobius(m):
        out, p = 1, 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if m > 1 else out

    return [sum(mobius(d) * generators ** (n // d) for d in range(1, n + 1) if n % d == 0) // n
            for n in range(1, budget + 1)]
