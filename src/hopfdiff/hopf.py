"""Finite-dimensional Hopf algebras given by exact structure constants.

A :class:`FinDimHopf` stores the multiplication table, unit, sparse
comultiplication, counit and antipode of a Hopf algebra over the
rationals, together with an optional declared group-algebra coradical.
All axioms can be verified exhaustively on basis tuples; every verdict
is exact.

Convolution and the coalgebra-map check run on integer numerators: a
carrier's structure constants are scaled once to integers over one shared
denominator per table (:func:`int_structure`, memoized on the carrier),
and a map's matrix to integer columns over the lcm of its denominators
(:func:`int_columns`).  Comparisons are cross-multiplied by the known
denominators, and ``Fraction`` values are built only for returned
matrices, so every result is identical to rational arithmetic.

The same basis-indexed interface (``mult_basis``, ``comult_triples``,
``counit_coeff``, ``antipode_basis``) is implemented by the
degree-truncated carriers in :mod:`hopfdiff.freelie`; truncated
multiplication may raise :class:`OutOfBudgetError`, which exhaustive
checks translate into an explicit skip entry rather than a silent pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .exactlin import Mat, ONE, Rat, ZERO, invert, rat, rat_str, solve_affine

Vec = list  # rational coordinate vector over a fixed basis
Triples = list  # sparse tensor [(i, j, coeff)]


class OutOfBudgetError(Exception):
    """A product left the degree budget of a truncated algebra."""

    def __init__(self, message, degrees=None):
        super().__init__(message)
        self.degrees = degrees


def zero_vec(n: int) -> Vec:
    return [ZERO] * n


def basis_vec(n: int, i: int) -> Vec:
    v = [ZERO] * n
    v[i] = ONE
    return v


def vec_add(u: Vec, v: Vec) -> Vec:
    return [a + b for a, b in zip(u, v)]


def vec_sub(u: Vec, v: Vec) -> Vec:
    return [a - b for a, b in zip(u, v)]


def vec_scale(c: Rat, v: Vec) -> Vec:
    if not c:
        return [ZERO] * len(v)
    return [c * a for a in v]


def vec_is_zero(v: Vec) -> bool:
    return not any(v)


def vec_str(v: Vec, labels: list[str]) -> str:
    """Signed rational-coefficient combination of basis labels, basis order."""
    parts = []
    for c, lab in zip(v, labels):
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        term = lab if mag == 1 else f"{rat_str(mag)}*{lab}"
        parts.append((sign, term))
    if not parts:
        return "0"
    first_sign, first_term = parts[0]
    out = ("-" if first_sign == "-" else "") + first_term
    for sign, term in parts[1:]:
        out += f" {sign} {term}"
    return out


class CarrierOps:
    """Coordinate-vector arithmetic over the shared basis-indexed
    interface (mult_basis, comult_triples, counit_coeff, antipode_basis,
    unit_vec, label, dim).  Truncated carriers raise OutOfBudgetError
    from mult_basis; everything here propagates it."""

    def mult_vec(self, u: Vec, v: Vec) -> Vec:
        out = zero_vec(self.dim)
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if not b:
                    continue
                c = a * b
                for k, m in enumerate(self.mult_basis(i, j)):
                    if m:
                        out[k] += c * m
        return out

    def comult_vec(self, u: Vec) -> dict:
        out: dict = {}
        for k, a in enumerate(u):
            if not a:
                continue
            for (i, j, c) in self.comult_triples(k):
                key = (i, j)
                out[key] = out.get(key, ZERO) + a * c
        return {k: v for k, v in out.items() if v}

    def counit_vec(self, u: Vec) -> Rat:
        return sum((a * self.counit_coeff(i) for i, a in enumerate(u) if a), ZERO)

    def antipode_vec(self, u: Vec) -> Vec:
        out = zero_vec(self.dim)
        for j, a in enumerate(u):
            if not a:
                continue
            for i, s in enumerate(self.antipode_basis(j)):
                if s:
                    out[i] += a * s
        return out

    def scalars_to_unit(self, c: Rat) -> Vec:
        return vec_scale(c, self.unit_vec())

    def element_str(self, u: Vec) -> str:
        return vec_str(u, [self.label(i) for i in range(self.dim)])


class FinDimHopf(CarrierOps):
    """Hopf algebra by structure constants over an ordered basis.

    mult[i][j]  -- coordinate vector of (basis i)(basis j)
    unit        -- coordinate vector of 1
    comult[k]   -- sparse triples (i, j, c) with D(basis k) = sum c bi (x) bj
    counit      -- rational per basis element
    antipode    -- Mat whose column j is S(basis j)
    coradical_group_basis -- optional indices declared to span a group
                   algebra coradical (enables complete group-like lists)
    """

    def __init__(self, name, basis, mult, unit, comult, counit, antipode,
                 coradical_group_basis=None):
        self.name = name
        self.basis = list(basis)
        n = len(self.basis)
        self.dim = n
        if len(mult) != n or any(len(row) != n for row in mult):
            raise ValueError("mult tensor must be dim x dim")
        self.mult = [[[rat(c) for c in cell] for cell in row] for row in mult]
        for row in self.mult:
            for cell in row:
                if len(cell) != n:
                    raise ValueError("mult entries must be coordinate vectors")
        if len(unit) != n:
            raise ValueError("unit vector has wrong length")
        self.unit = [rat(c) for c in unit]
        if len(comult) != n:
            raise ValueError("comult must list triples per basis element")
        self.comult = [sorted(((int(i), int(j), rat(c)) for (i, j, c) in triples if rat(c)),
                              key=lambda t: (t[0], t[1])) for triples in comult]
        for triples in self.comult:
            for (i, j, _) in triples:
                if not (0 <= i < n and 0 <= j < n):
                    raise ValueError("comult index out of range")
        if len(counit) != n:
            raise ValueError("counit vector has wrong length")
        self.counit = [rat(c) for c in counit]
        if antipode.rows != n or antipode.cols != n:
            raise ValueError("antipode matrix has wrong shape")
        self.antipode = antipode
        self.coradical_group_basis = (
            None if coradical_group_basis is None else list(coradical_group_basis)
        )
        # dense and sparse caches for hot loops
        self._mult_cache = self.mult
        self._mult_sparse = [
            [[(k, c) for k, c in enumerate(cell) if c] for cell in row]
            for row in self.mult
        ]
        # integer tables for the exhaustive checks, built by int_structure
        self._int_structure = None

    # -- basis-indexed interface shared with truncated carriers ----------

    def mult_basis(self, i: int, j: int) -> Vec:
        return self._mult_cache[i][j]

    def comult_triples(self, k: int) -> Triples:
        return self.comult[k]

    def counit_coeff(self, i: int) -> Rat:
        return self.counit[i]

    def antipode_basis(self, j: int) -> Vec:
        return self.antipode.col(j)

    def unit_vec(self) -> Vec:
        return self.unit

    def label(self, i: int) -> str:
        return self.basis[i]

    # -- arithmetic on coordinate vectors --------------------------------

    def mult_vec(self, u: Vec, v: Vec) -> Vec:
        out = zero_vec(self.dim)
        sparse = self._mult_sparse
        for i, a in enumerate(u):
            if not a:
                continue
            row = sparse[i]
            for j, b in enumerate(v):
                if not b:
                    continue
                c = a * b
                for k, m in row[j]:
                    out[k] += c * m
        return out

    def mult_sparse(self, i: int, j: int):
        return self._mult_sparse[i][j]

    def element_str(self, u: Vec) -> str:
        return vec_str(u, self.basis)

    def __repr__(self):
        return f"FinDimHopf({self.name!r}, dim={self.dim})"


@dataclass
class Element:
    """An element of a fixed algebra, held as exact coordinates."""

    algebra: FinDimHopf
    coords: Vec

    def __post_init__(self):
        if len(self.coords) != self.algebra.dim:
            raise ValueError("coordinate length does not match basis size")
        self.coords = [rat(c) for c in self.coords]

    def __str__(self):
        return self.algebra.element_str(self.coords)


@dataclass
class LinMap:
    """Linear map between algebras; column j is the image of basis j."""

    domain: FinDimHopf
    codomain: FinDimHopf
    matrix: Mat

    def __post_init__(self):
        if self.matrix.rows != self.codomain.dim or self.matrix.cols != self.domain.dim:
            raise ValueError("matrix shape does not match domain/codomain bases")

    def apply(self, u: Vec) -> Vec:
        return self.matrix.apply(u)

    def image_of_basis(self, j: int) -> Vec:
        return self.matrix.col(j)

    def compose(self, other: "LinMap") -> "LinMap":
        """self after other."""
        if other.codomain is not self.domain:
            raise ValueError("composition domains do not match")
        return LinMap(other.domain, self.codomain, self.matrix.mul(other.matrix))

    def __eq__(self, other):
        return (
            isinstance(other, LinMap)
            and self.domain is other.domain
            and self.codomain is other.codomain
            and self.matrix == other.matrix
        )


def identity_map(h: FinDimHopf) -> LinMap:
    return LinMap(h, h, Mat.identity(h.dim))


def unit_counit_map(k: FinDimHopf, h: FinDimHopf | None = None) -> LinMap:
    """u o eps : K -> H, the convolution unit."""
    h = h or k
    cols = [vec_scale(k.counit_coeff(j), h.unit_vec()) for j in range(k.dim)]
    return LinMap(k, h, Mat.from_cols(cols))


def antipode_map(h: FinDimHopf) -> LinMap:
    return LinMap(h, h, h.antipode)


def map_from_images(domain: FinDimHopf, codomain: FinDimHopf, images: list[Vec]) -> LinMap:
    return LinMap(domain, codomain, Mat.from_cols(images))


def convolve(f: LinMap, g: LinMap) -> LinMap:
    """Convolution product: x -> f(x1) g(x2)."""
    if f.domain is not g.domain or f.codomain is not g.codomain:
        raise ValueError("convolution needs equal domains and codomains")
    dom, cod = f.domain, f.codomain
    co = int_structure(dom)
    prod = int_structure(cod)
    fcols, fden = int_columns(f.matrix)
    gcols, gden = int_columns(g.matrix)
    den = co.comult_den * prod.mult_den * fden * gden
    cols = []
    for k in range(dom.dim):
        acc = [0] * cod.dim
        for (i, j, c) in co.comult[k]:
            for p, x in prod.mul(fcols[i], gcols[j]):
                acc[p] += c * x
        cols.append(acc)
    entries = [Fraction(x, den) if x else ZERO for row in zip(*cols) for x in row]
    return LinMap(dom, cod, Mat(cod.dim, dom.dim, entries))


def sweedler_expand(h, x_coords: Vec, n: int) -> dict:
    """Iterated comultiplication as a sparse rank-(n+1) tensor.

    Keys are index tuples of length n+1; coassociativity makes the result
    independent of the expansion order.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    current = {}
    for i, a in enumerate(x_coords):
        if a:
            current[(i,)] = a
    for _ in range(n):
        nxt: dict = {}
        for key, a in current.items():
            head, last = key[:-1], key[-1]
            for (i, j, c) in h.comult_triples(last):
                k = head + (i, j)
                val = nxt.get(k, ZERO) + a * c
                if val:
                    nxt[k] = val
                elif k in nxt:
                    del nxt[k]
        current = nxt
    return current


# -- integer structure tables --------------------------------------------------

def _num(c: Rat, den: int) -> int:
    """The numerator of c over den, a multiple of its denominator."""
    return c.numerator * (den // c.denominator)


def _sparse_ints(vectors: list) -> tuple[int, list]:
    """Rational vectors as sparse integer tuples ((k, m), ...) over their
    common denominator; a stored OutOfBudgetError is kept as it is."""
    den = lcm(1, *(c.denominator for v in vectors if not isinstance(v, OutOfBudgetError)
                   for c in v if c))
    return den, [v if isinstance(v, OutOfBudgetError)
                 else tuple((k, _num(c, den)) for k, c in enumerate(v) if c)
                 for v in vectors]


def _copy(exc: OutOfBudgetError) -> OutOfBudgetError:
    """A fresh copy of a stored error, so raising it never grows the
    stored traceback."""
    return OutOfBudgetError(str(exc), exc.degrees)


def _attempt(fn, *args):
    """fn(*args), or the OutOfBudgetError it raised."""
    try:
        return fn(*args)
    except OutOfBudgetError as exc:
        return exc


class IntStructure:
    """A carrier's structure constants as integers over one shared
    denominator per table.

    mult[i][j]   -- sparse row of mult_den * (basis i)(basis j), or the
                    OutOfBudgetError a truncated carrier raised for it
    antipode[j]  -- sparse column of antipode_den * S(basis j), or the error
    comult[k]    -- triples (i, j, c) of comult_den * D(basis k)
    counit[i]    -- counit_den * eps(basis i)
    sweedler3[i] -- terms (t1, t2, t3, w) of sweedler_den * D^2(basis i),
                    in sweedler_expand order
    """

    def __init__(self, h):
        n = self.dim = h.dim
        self.mult_den, flat = _sparse_ints(
            [_attempt(h.mult_basis, i, j) for i in range(n) for j in range(n)])
        self.mult = [flat[i * n:(i + 1) * n] for i in range(n)]
        self.antipode_den, self.antipode = _sparse_ints(
            [_attempt(h.antipode_basis, j) for j in range(n)])
        comult = [h.comult_triples(k) for k in range(n)]
        self.comult_den = lcm(1, *(c.denominator for t in comult for (_, _, c) in t))
        self.comult = [tuple((i, j, _num(c, self.comult_den)) for (i, j, c) in t)
                       for t in comult]
        counit = [h.counit_coeff(i) for i in range(n)]
        self.counit_den = lcm(1, *(c.denominator for c in counit))
        self.counit = [_num(c, self.counit_den) for c in counit]
        sweedler = [sweedler_expand(h, basis_vec(n, i), 2) for i in range(n)]
        self.sweedler_den = lcm(1, *(w.denominator for s in sweedler for w in s.values()))
        self.sweedler3 = [tuple((*t, _num(w, self.sweedler_den)) for t, w in s.items())
                          for s in sweedler]

    def mul(self, u, v) -> list:
        """mult_den * u v for sparse integer vectors, as a sparse list.

        Basis products are taken in the order CarrierOps.mult_vec takes
        them, so a product that leaves the budget raises the same
        OutOfBudgetError as the rational product would.  A stored
        OutOfBudgetError passed as u or v (an antipode column, or an
        earlier product kept by the caller) is raised again first.
        """
        for arg in (u, v):
            if arg.__class__ is OutOfBudgetError:
                raise _copy(arg)
        out = [0] * self.dim
        mult = self.mult
        for a, x in u:
            row = mult[a]
            for b, y in v:
                cell = row[b]
                if cell.__class__ is OutOfBudgetError:
                    raise _copy(cell)
                c = x * y
                for k, m in cell:
                    out[k] += c * m
        return [(k, c) for k, c in enumerate(out) if c]


def int_structure(h) -> IntStructure:
    """The integer structure table of a carrier, built on first use and
    memoized on the carrier."""
    table = getattr(h, "_int_structure", None)
    if table is None:
        table = h._int_structure = IntStructure(h)
    return table


class IntColumns(NamedTuple):
    """A matrix as sparse integer columns over one denominator."""

    cols: list
    den: int


def int_columns(matrix) -> IntColumns:
    """The columns of a Mat as sparse integer tuples over the lcm of its
    denominators; an IntColumns is returned as it is."""
    if isinstance(matrix, IntColumns):
        return matrix
    ratios = [c.as_integer_ratio() for c in matrix.entries]
    den = lcm(*{d for _, d in ratios})
    width = matrix.cols
    cols = [tuple((r, p * (den // d)) for r, (p, d) in enumerate(ratios[j::width]) if p)
            for j in range(width)]
    return IntColumns(cols, den)


def coalgebra_map_failures(dom, cod, matrix):
    """Basis indices k of dom, in order, at which the map with this matrix
    fails D(f(x)) = f(x1) (x) f(x2) or eps(f(x)) = eps(x)."""
    src = int_structure(dom)
    dst = int_structure(cod)
    cols, den = int_columns(matrix)
    # lhs carries den * dst.comult_den, rhs den^2 * src.comult_den
    lhs_scale = den * src.comult_den
    rhs_scale = dst.comult_den
    for k in range(dom.dim):
        img = cols[k]
        lhs: dict = {}
        for a, x in img:
            for (p, q, c) in dst.comult[a]:
                lhs[(p, q)] = lhs.get((p, q), 0) + x * c
        rhs: dict = {}
        for (i, j, c) in src.comult[k]:
            for p, x in cols[i]:
                cx = c * x
                for q, y in cols[j]:
                    rhs[(p, q)] = rhs.get((p, q), 0) + cx * y
        lhs = {key: v * lhs_scale for key, v in lhs.items() if v}
        rhs = {key: v * rhs_scale for key, v in rhs.items() if v}
        counit = sum(x * dst.counit[a] for a, x in img)
        if (lhs != rhs or counit * src.counit_den
                != src.counit[k] * den * dst.counit_den):
            yield k


# -- axiom validation --------------------------------------------------------

@dataclass
class AxiomReport:
    """Outcome of an exhaustive axiom suite; failures carry a witness."""

    checks: list = field(default_factory=list)  # (axiom, ok, witness)

    def record(self, axiom: str, ok: bool, witness=None):
        self.checks.append((axiom, ok, witness))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [(a, w) for a, ok, w in self.checks if not ok]

    def as_dict(self):
        return {
            "ok": self.ok,
            "checks": [
                {"axiom": a, "ok": ok, "witness": None if w is None else list(w)}
                for a, ok, w in self.checks
            ],
        }


def _first_witness(fails):
    return fails[0] if fails else None


def validate_hopf(h: FinDimHopf) -> AxiomReport:
    """Check every Hopf axiom exhaustively on basis tuples."""
    report = AxiomReport()
    n = h.dim

    fails = []
    for j in range(n):
        left = h.mult_vec(h.unit_vec(), basis_vec(n, j))
        right = h.mult_vec(basis_vec(n, j), h.unit_vec())
        if left != basis_vec(n, j) or right != basis_vec(n, j):
            fails.append((j,))
    report.record("unit", not fails, _first_witness(fails))

    fails = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = h.mult_vec(h.mult_basis(i, j), basis_vec(n, k))
                rhs = h.mult_vec(basis_vec(n, i), h.mult_basis(j, k))
                if lhs != rhs:
                    fails.append((i, j, k))
    report.record("associativity", not fails, _first_witness(fails))

    fails = []
    for k in range(n):
        left = zero_vec(n)
        right = zero_vec(n)
        for (i, j, c) in h.comult_triples(k):
            left = vec_add(left, vec_scale(c * h.counit_coeff(i), basis_vec(n, j)))
            right = vec_add(right, vec_scale(c * h.counit_coeff(j), basis_vec(n, i)))
        if left != basis_vec(n, k) or right != basis_vec(n, k):
            fails.append((k,))
    report.record("counit", not fails, _first_witness(fails))

    fails = []
    for k in range(n):
        lhs: dict = {}
        rhs: dict = {}
        for (i, j, c) in h.comult_triples(k):
            for (a, b, d) in h.comult_triples(i):
                key = (a, b, j)
                lhs[key] = lhs.get(key, ZERO) + c * d
            for (a, b, d) in h.comult_triples(j):
                key = (i, a, b)
                rhs[key] = rhs.get(key, ZERO) + c * d
        lhs = {key: v for key, v in lhs.items() if v}
        rhs = {key: v for key, v in rhs.items() if v}
        if lhs != rhs:
            fails.append((k,))
    report.record("coassociativity", not fails, _first_witness(fails))

    fails = []
    if h.comult_vec(h.unit_vec()) != _tensor_of(h.unit_vec(), h.unit_vec()):
        fails.append(("unit",))
    if h.counit_vec(h.unit_vec()) != ONE:
        fails.append(("counit-of-unit",))
    for i in range(n):
        for j in range(n):
            prod = h.mult_basis(i, j)
            lhs = h.comult_vec(prod)
            rhs = _tensor_mult(h, h.comult_vec(basis_vec(n, i)), h.comult_vec(basis_vec(n, j)))
            if lhs != rhs:
                fails.append((i, j))
                continue
            if h.counit_vec(prod) != h.counit_coeff(i) * h.counit_coeff(j):
                fails.append((i, j))
    report.record("bialgebra", not fails, _first_witness(fails))

    fails = []
    for k in range(n):
        left = zero_vec(n)
        right = zero_vec(n)
        for (i, j, c) in h.comult_triples(k):
            left = vec_add(left, vec_scale(c, h.mult_vec(h.antipode_basis(i), basis_vec(n, j))))
            right = vec_add(right, vec_scale(c, h.mult_vec(basis_vec(n, i), h.antipode_basis(j))))
        expected = h.scalars_to_unit(h.counit_coeff(k))
        if left != expected or right != expected:
            fails.append((k,))
    report.record("antipode", not fails, _first_witness(fails))

    return report


def _tensor_of(u: Vec, v: Vec) -> dict:
    out = {}
    for i, a in enumerate(u):
        if not a:
            continue
        for j, b in enumerate(v):
            if b:
                out[(i, j)] = a * b
    return out


def _tensor_mult(h, s: dict, t: dict) -> dict:
    """Product in H (x) H of two sparse tensors."""
    out: dict = {}
    for (i1, j1), a in s.items():
        for (i2, j2), b in t.items():
            c = a * b
            left = h.mult_basis(i1, i2)
            right = h.mult_basis(j1, j2)
            for k1, x in enumerate(left):
                if not x:
                    continue
                for k2, y in enumerate(right):
                    if y:
                        key = (k1, k2)
                        out[key] = out.get(key, ZERO) + c * x * y
    return {k: v for k, v in out.items() if v}


def is_cocommutative(h) -> bool:
    for k in range(h.dim):
        t = {(i, j): c for (i, j, c) in h.comult_triples(k)}
        if t != {(j, i): c for (i, j), c in t.items()}:
            return False
    return True


# -- distinguished elements --------------------------------------------------

def is_grouplike(h: FinDimHopf, c: Vec) -> bool:
    if h.counit_vec(c) != ONE:
        return False
    return h.comult_vec(c) == _tensor_of(c, c)


@dataclass
class GrouplikeResult:
    elements: list[Vec]
    complete: bool


def grouplikes(h: FinDimHopf) -> GrouplikeResult:
    """Group-like elements of H.

    With a declared group-algebra coradical the declared basis elements
    are verified (group-like, closed under product and inverse) and
    returned as the complete list; otherwise only basis elements are
    scanned and the result is flagged possibly incomplete.
    """
    n = h.dim
    if h.coradical_group_basis is not None:
        decl = h.coradical_group_basis
        elements = []
        for idx in decl:
            v = basis_vec(n, idx)
            if not is_grouplike(h, v):
                raise ValueError(f"declared coradical element {h.label(idx)} is not group-like")
            elements.append(v)
        decl_set = set(decl)
        for a in decl:
            inverse_found = False
            for b in decl:
                prod = h.mult_basis(a, b)
                hits = [k for k, x in enumerate(prod) if x]
                if len(hits) != 1 or prod[hits[0]] != ONE or hits[0] not in decl_set:
                    raise ValueError(
                        f"declared coradical not closed under multiplication at "
                        f"({h.label(a)}, {h.label(b)})"
                    )
                if prod == h.unit_vec():
                    inverse_found = True
            if not inverse_found:
                raise ValueError(f"declared coradical element {h.label(a)} has no inverse")
        return GrouplikeResult(elements, True)
    elements = [basis_vec(n, i) for i in range(n) if is_grouplike(h, basis_vec(n, i))]
    return GrouplikeResult(elements, False)


def skew_primitives(h: FinDimHopf, g: Vec, k: Vec) -> list[Vec]:
    """Reduced-echelon basis of {c : D(c) = c (x) g + k (x) c}.

    g and k must be group-like.
    """
    if not is_grouplike(h, g) or not is_grouplike(h, k):
        raise ValueError("skew-primitive reference elements must be group-like")
    n = h.dim
    rows = []
    rhs_zero_rows = []
    # unknown c: D(c) - c(x)g - k(x)c = 0, a linear system over n unknowns
    for a in range(n):
        for b in range(n):
            row = [ZERO] * n
            for m in range(n):
                for (i, j, coeff) in h.comult_triples(m):
                    if i == a and j == b:
                        row[m] += coeff
            # c (x) g contributes c_a * g_b at position (a, b)
            row[a] -= g[b]
            # k (x) c contributes k_a * c_b
            row[b] -= k[a]
            if any(row):
                rows.append(row)
                rhs_zero_rows.append(ZERO)
    if not rows:
        return [basis_vec(n, i) for i in range(n)]
    sol = solve_affine(Mat.from_rows(rows), rhs_zero_rows)
    return sol.kernel_basis


def primitives(h: FinDimHopf) -> list[Vec]:
    """Reduced-echelon basis of {c : D(c) = c (x) 1 + 1 (x) c}."""
    return skew_primitives(h, h.unit_vec(), h.unit_vec())


# -- homomorphism tests -------------------------------------------------------

def is_coalgebra_hom(f: LinMap) -> bool:
    return next(coalgebra_map_failures(f.domain, f.codomain, f.matrix), None) is None


def is_algebra_hom(f: LinMap) -> bool:
    dom, cod = f.domain, f.codomain
    if f.apply(dom.unit_vec()) != cod.unit_vec():
        return False
    for i in range(dom.dim):
        for j in range(dom.dim):
            lhs = f.apply(dom.mult_basis(i, j))
            rhs = cod.mult_vec(f.image_of_basis(i), f.image_of_basis(j))
            if lhs != rhs:
                return False
    return True


def is_hopf_automorphism(f: LinMap) -> bool:
    """Algebra + coalgebra homomorphism, invertible, commutes with S."""
    if f.domain is not f.codomain:
        return False
    if not is_algebra_hom(f) or not is_coalgebra_hom(f):
        return False
    if invert(f.matrix) is None:
        return False
    h = f.domain
    return f.matrix.mul(h.antipode) == h.antipode.mul(f.matrix)


def grouplike_inverse(h: FinDimHopf, g: Vec) -> Vec:
    """Inverse of a group-like element, via the antipode."""
    return h.antipode_vec(g)
