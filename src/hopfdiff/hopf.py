"""Finite-dimensional Hopf algebras given by exact structure constants.

A :class:`FinDimHopf` stores the multiplication table, unit, sparse
comultiplication, counit and antipode of a Hopf algebra over the
rationals, together with an optional declared group-algebra coradical.
All axioms can be verified exhaustively on basis tuples; every verdict
is exact.

Convolution and the algebra-map and coalgebra-map checks run on integer
numerators: a carrier's structure constants are scaled once to integers
over one shared denominator per table (:func:`int_structure`, memoized
on the carrier), and a map's matrix to integer columns over the lcm of
its denominators (:func:`int_columns`).  Comparisons are cross-multiplied by the known
denominators, and ``Fraction`` values are built only for returned
matrices, so every result is identical to rational arithmetic.  The
action layer (:mod:`hopfdiff.actions`, :mod:`hopfdiff.freelie`) runs on
these integer tables too.

The same basis-indexed interface (``mult_basis``, ``comult_triples``,
``counit_coeff``, ``antipode_basis``) is implemented by the
degree-truncated carriers in :mod:`hopfdiff.truncated` and by the smash
builder in :mod:`hopfdiff.actions`; truncated multiplication may raise
:class:`OutOfBudgetError`, which exhaustive checks translate into an
explicit skip entry rather than a silent pass.  A map given by a column
table may leave columns unknown (None); checks skip and record what needs
them.  Every checker returns a :class:`CheckReport`.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import compress, count, repeat
from math import lcm
from operator import is_not
from types import SimpleNamespace

from .exactlin import Mat, ONE, Rat, Record, ZERO, int_echelon, int_kernel, invert, rat, rat_str

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


def _add_scaled(out: Vec, c: Rat, v: Vec) -> None:
    """out += c v in place, over the nonzero entries of v."""
    for k, x in enumerate(v):
        if x:
            out[k] += c * x


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
    from mult_basis; everything here propagates it, except mult_terms,
    which returns it, and which a carrier overrides where it has its
    products sparse or can name the error without raising it."""

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

    def mult_terms(self, i: int, j: int):
        """The nonzero terms (k, c) of the product of basis elements i and
        j in ascending k, or the OutOfBudgetError that mult_basis raises
        for it, returned unraised."""
        v = _attempt(self.mult_basis, i, j)
        return v if v.__class__ is OutOfBudgetError else [(k, c) for k, c in enumerate(v) if c]

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
        # sparse cache for hot loops
        self._mult_sparse = [
            [[(k, c) for k, c in enumerate(cell) if c] for cell in row]
            for row in self.mult
        ]
        # integer tables for the exhaustive checks, built by int_structure
        self._int_structure = None
        # the validate_hopf report, computed by axiom_report
        self._axiom_report = None

    # -- basis-indexed interface shared with truncated carriers ----------

    def mult_basis(self, i: int, j: int) -> Vec:
        return self.mult[i][j]

    def mult_terms(self, i: int, j: int):
        return self._mult_sparse[i][j]

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

    def element_str(self, u: Vec) -> str:
        return vec_str(u, self.basis)

    def __repr__(self):
        return f"FinDimHopf({self.name!r}, dim={self.dim})"


class Element(Record):
    """An element of a fixed algebra, held as exact coordinates."""

    _fields = ("algebra", "coords")

    def __init__(self, algebra: FinDimHopf, coords: Vec):
        if len(coords) != algebra.dim:
            raise ValueError("coordinate length does not match basis size")
        self.algebra = algebra
        self.coords = [rat(c) for c in coords]

    def __str__(self):
        return self.algebra.element_str(self.coords)


class LinMap(Record):
    """Linear map between algebras; column j is the image of basis j."""

    _fields = ("domain", "codomain", "matrix")

    def __init__(self, domain: FinDimHopf, codomain: FinDimHopf, matrix: Mat):
        if matrix.rows != codomain.dim or matrix.cols != domain.dim:
            raise ValueError("matrix shape does not match domain/codomain bases")
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix

    def apply(self, u: Vec) -> Vec:
        return self.matrix.apply(u)

    def image_of_basis(self, j: int) -> Vec:
        return self.matrix.col(j)

    def columns(self) -> list:
        """The column table: the image of every basis element."""
        return [self.matrix.col(j) for j in range(self.matrix.cols)]

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


def convolve(f: LinMap, g: LinMap) -> LinMap:
    """Convolution product: x -> f(x1) g(x2)."""
    if f.domain is not g.domain or f.codomain is not g.codomain:
        raise ValueError("convolution needs equal domains and codomains")
    dom, cod = f.domain, f.codomain
    cols, den = convolve_columns(dom, cod, f.matrix, g.matrix)
    entries = [Fraction(x, den) if x else ZERO
               for row in zip(*map(_stored, cols)) for x in row]
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
    # the identity test against the shared ZERO runs in C and skips the
    # zeros of zero_vec and basis_vec without a Fraction.__bool__ call
    return _int_terms([v if isinstance(v, OutOfBudgetError)
                       else [(k, v[k]) for k in compress(count(), map(is_not, v, repeat(ZERO)))
                             if v[k]]
                       for v in vectors])


def _int_terms(terms: list) -> tuple[int, list]:
    """Sparse rational vectors, lists of nonzero terms (k, c) in ascending
    k, as sparse integer tuples over their common denominator; a stored
    OutOfBudgetError is kept as it is."""
    den = lcm(1, *(c.denominator for v in terms if not isinstance(v, OutOfBudgetError)
                   for _, c in v))
    return den, [v if isinstance(v, OutOfBudgetError)
                 else tuple([(k, _num(c, den)) for k, c in v])
                 for v in terms]


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


def _stored(value):
    """A tabulated value, or a fresh copy of the OutOfBudgetError stored
    in its place, raised."""
    if value.__class__ is OutOfBudgetError:
        raise _copy(value)
    return value


class IntStructure:
    """A carrier's structure constants as integers over one shared
    denominator per table.

    mult[i][j]   -- sparse row of mult_den * (basis i)(basis j), or the
                    OutOfBudgetError a truncated carrier raises for it,
                    read from the carrier's mult_terms; the truncated
                    carriers return that error unraised, so no error is
                    raised and caught per product
    antipode[j]  -- sparse column of antipode_den * S(basis j), or the error
    comult[k]    -- triples (i, j, c) of comult_den * D(basis k)
    counit[i]    -- counit_den * eps(basis i)
    sweedler3[i] -- terms (t1, t2, t3, w) of sweedler_den * D^2(basis i),
                    in sweedler_expand order; only the difference-identity
                    check and the solver read it, so it is built on first
                    read
    """

    def __init__(self, h):
        self._sweedler = None
        n = self.dim = h.dim
        self.mult_den, flat = _int_terms(
            [h.mult_terms(i, j) for i in range(n) for j in range(n)])
        self.mult = [flat[i * n:(i + 1) * n] for i in range(n)]
        self.antipode_den, self.antipode = _sparse_ints(
            [_attempt(h.antipode_basis, j) for j in range(n)])
        comult = self._comult_triples = [h.comult_triples(k) for k in range(n)]
        self.comult_den = lcm(1, *(c.denominator for t in comult for (_, _, c) in t))
        self.comult = [tuple((i, j, _num(c, self.comult_den)) for (i, j, c) in t)
                       for t in comult]
        counit = [h.counit_coeff(i) for i in range(n)]
        self.counit_den = lcm(1, *(c.denominator for c in counit))
        self.counit = [_num(c, self.counit_den) for c in counit]

    def _sweedler_table(self) -> tuple[int, list]:
        if self._sweedler is None:
            # sweedler_expand reads only comult_triples; the table keeps the
            # triples, not the carrier that holds the table, so that no
            # reference cycle keeps a carrier alive after its last use
            n = self.dim
            coalgebra = SimpleNamespace(comult_triples=self._comult_triples.__getitem__)
            sweedler = [sweedler_expand(coalgebra, basis_vec(n, i), 2) for i in range(n)]
            den = lcm(1, *(w.denominator for s in sweedler for w in s.values()))
            self._sweedler = den, [tuple((*t, _num(w, den)) for t, w in s.items())
                                   for s in sweedler]
        return self._sweedler

    @property
    def sweedler_den(self) -> int:
        return self._sweedler_table()[0]

    @property
    def sweedler3(self) -> list:
        return self._sweedler_table()[1]

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


IntColumns = namedtuple("IntColumns", "cols den")
IntColumns.__doc__ = "A matrix as sparse integer columns over one denominator."


def int_columns(matrix) -> IntColumns:
    """The columns of a Mat as sparse integer tuples over the lcm of its
    denominators; an IntColumns is returned as it is.

    A column table (a list of coordinate vectors) may hold None for an
    image that is unknown.  Each such column is stored once as an
    OutOfBudgetError, which IntStructure.mul raises again for every
    product that needs it, so the checks skip exactly what needs it.
    """
    if isinstance(matrix, IntColumns):
        return matrix
    if not isinstance(matrix, Mat):
        den, cols = _sparse_ints([OutOfBudgetError("image column unknown") if c is None
                                  else c for c in matrix])
        return IntColumns(cols, den)
    ratios = [c.as_integer_ratio() for c in matrix.entries]
    den = lcm(*{d for _, d in ratios})
    width = matrix.cols
    # tuples are built from lists, not generators: a tuple grown from a
    # generator bypasses the interpreter's tuple free lists but is freed
    # into them, so thousands of columns would fill them
    cols = [tuple([(r, p * (den // d)) for r, (p, d) in enumerate(ratios[j::width]) if p])
            for j in range(width)]
    return IntColumns(cols, den)


def convolve_columns(dom, cod, f, g) -> tuple[list, int]:
    """The columns of x -> f(x1) g(x2), for maps from dom to cod given as
    matrices, column tables or IntColumns, as dense integer lists over
    the returned denominator.

    A column that needs an unknown image of f or g, or a product that
    leaves a truncated cod's budget, is the OutOfBudgetError that
    computing it raised.
    """
    co = int_structure(dom)
    prod = int_structure(cod)
    fcols, fden = int_columns(f)
    gcols, gden = int_columns(g)
    cols = []
    for k in range(dom.dim):
        acc = [0] * cod.dim
        try:
            for (i, j, c) in co.comult[k]:
                for p, x in prod.mul(fcols[i], gcols[j]):
                    acc[p] += c * x
        except OutOfBudgetError as exc:
            acc = exc
        cols.append(acc)
    return cols, co.comult_den * prod.mult_den * fden * gden


def algebra_map_failures(dom, cod, matrix):
    """(i, j, kind) for the basis pairs of dom, in order, at which the map
    f with this matrix or column table is not a checked algebra map.

    kind is "algebra" where f(e_i e_j) != f(e_i) f(e_j), and "skipped"
    where either side needs an unknown column or a product that leaves a
    truncated carrier's budget.  The unit is not checked here.
    """
    src = int_structure(dom)
    dst = int_structure(cod)
    cols, den = int_columns(matrix)
    # lhs carries den * src.mult_den, rhs den^2 * dst.mult_den
    lhs_scale = den * dst.mult_den
    rhs_scale = src.mult_den
    for i in range(dom.dim):
        row = src.mult[i]
        for j in range(dom.dim):
            try:
                lhs = [0] * cod.dim
                for k, x in _stored(row[j]):
                    for p, y in _stored(cols[k]):
                        lhs[p] += x * y
                rhs = dst.mul(cols[i], cols[j])
            except OutOfBudgetError:
                yield i, j, "skipped"
                continue
            if [(p, x * lhs_scale) for p, x in enumerate(lhs) if x] != \
                    [(p, x * rhs_scale) for p, x in rhs]:
                yield i, j, "algebra"


def coalgebra_map_failures(dom, cod, matrix):
    """(k, kind) for the basis indices k of dom, in order, at which the map
    with this matrix or column table is not a checked coalgebra map.

    kind is "counit" where eps(f(x)) != eps(x) and "coalgebra" where
    D(f(x)) != f(x1) (x) f(x2).  An unknown column k gives (k, "unknown")
    alone; where f(x1) (x) f(x2) needs an unknown column, (k, "skipped")
    stands in for the comultiplication check.
    """
    src = int_structure(dom)
    dst = int_structure(cod)
    cols, den = int_columns(matrix)
    unknown = {k for k, col in enumerate(cols) if col.__class__ is OutOfBudgetError}
    # lhs carries den * dst.comult_den, rhs den^2 * src.comult_den
    lhs_scale = den * src.comult_den
    rhs_scale = dst.comult_den
    for k in range(dom.dim):
        if k in unknown:
            yield k, "unknown"
            continue
        img = cols[k]
        counit = sum(x * dst.counit[a] for a, x in img)
        if counit * src.counit_den != src.counit[k] * den * dst.counit_den:
            yield k, "counit"
        if unknown and any(i in unknown or j in unknown for (i, j, _) in src.comult[k]):
            yield k, "skipped"
            continue
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
        if lhs != rhs:
            yield k, "coalgebra"


def coalgebra_map_report(dom, cod, matrix) -> CheckReport:
    """The coalgebra-map check of a matrix or column table from dom to cod
    as a report over coalgebra_map_failures.

    A basis index k failing the counit or the comultiplication check is
    one ("coalgebra", k) failure.  An unknown column k is skipped as
    ("column", k), and a comultiplication check that needs an unknown
    column as ("coalgebra", k); checked counts the other indices.
    """
    failures = []
    skipped = []
    for k, kind in coalgebra_map_failures(dom, cod, matrix):
        if kind == "unknown":
            skipped.append(("column", k))
        elif kind == "skipped":
            skipped.append(("coalgebra", k))
        elif ("coalgebra", k) not in failures[-1:]:
            failures.append(("coalgebra", k))
    return CheckReport(not failures, failures, skipped, dom.dim - len(skipped))


def apply_cols(cols, u: Vec, dim: int) -> Vec:
    """sum u_i cols[i] for a column table of dim-vectors; a None column
    that u needs is an unknown image and raises OutOfBudgetError."""
    out = zero_vec(dim)
    for i, c in enumerate(u):
        if not c:
            continue
        if cols[i] is None:
            raise OutOfBudgetError("image column unknown")
        _add_scaled(out, c, cols[i])
    return out


class CheckReport(Record):
    """Exhaustive-verification outcome with explicit skip accounting."""

    _fields = ("ok", "failures", "skipped", "checked", "details")

    def __init__(self, ok: bool, failures: list | None = None,
                 skipped: list | None = None, checked: int = 0,
                 details: dict | None = None):
        self.ok = ok
        self.failures = [] if failures is None else failures
        self.skipped = [] if skipped is None else skipped
        self.checked = checked
        self.details = {} if details is None else details

    @property
    def witness(self):
        return self.failures[0] if self.failures else None


# -- axiom validation --------------------------------------------------------

class AxiomReport(Record):
    """Outcome of an exhaustive axiom suite; failures carry a witness."""

    _fields = ("checks",)

    def __init__(self, checks: list | None = None):
        self.checks = [] if checks is None else checks  # (axiom, ok, witness)

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


class InvalidAlgebraError(ValueError):
    """An algebra or an action that fails a named axiom of report; error
    says what it fails to be and names identify it ({"algebra": name})."""

    def __init__(self, subject: str, error: str, names: dict, report: AxiomReport):
        self.error = error
        self.names = names
        self.report = report
        self.axiom, self.witness = report.failures()[0]
        super().__init__(f"{subject} fails the {self.axiom} axiom at {self.witness}")


def _first_witness(fails):
    return fails[0] if fails else None


def validate_hopf(h: FinDimHopf) -> AxiomReport:
    """Check every Hopf axiom exhaustively on basis tuples.

    The checks run on the integer structure table; each side of an
    identity is compared after cross-multiplying by the denominators the
    other side carries.
    """
    report = AxiomReport()
    n = h.dim
    t = int_structure(h)
    md, cd, ed, ad = t.mult_den, t.comult_den, t.counit_den, t.antipode_den
    uden, (unit,) = _sparse_ints([h.unit_vec()])

    def basis(i):
        return ((i, 1),)

    fails = []
    for j in range(n):
        # unit e_j and e_j unit carry md * uden
        one = [(j, md * uden)]
        if t.mul(unit, basis(j)) != one or t.mul(basis(j), unit) != one:
            fails.append((j,))
    report.record("unit", not fails, _first_witness(fails))

    fails = []
    for i in range(n):
        for j in range(n):
            ij = t.mult[i][j]
            for k in range(n):
                if t.mul(ij, basis(k)) != t.mul(basis(i), t.mult[j][k]):
                    fails.append((i, j, k))
    report.record("associativity", not fails, _first_witness(fails))

    fails = []
    for k in range(n):
        left: dict = {}
        right: dict = {}
        for (i, j, c) in t.comult[k]:
            left[j] = left.get(j, 0) + c * t.counit[i]
            right[i] = right.get(i, 0) + c * t.counit[j]
        expected = {k: cd * ed}
        if _nonzero(left) != expected or _nonzero(right) != expected:
            fails.append((k,))
    report.record("counit", not fails, _first_witness(fails))

    fails = []
    for k in range(n):
        lhs: dict = {}
        rhs: dict = {}
        for (i, j, c) in t.comult[k]:
            for (a, b, d) in t.comult[i]:
                key = (a, b, j)
                lhs[key] = lhs.get(key, 0) + c * d
            for (a, b, d) in t.comult[j]:
                key = (i, a, b)
                rhs[key] = rhs.get(key, 0) + c * d
        if _nonzero(lhs) != _nonzero(rhs):
            fails.append((k,))
    report.record("coassociativity", not fails, _first_witness(fails))

    fails = []
    # D(1) carries uden * cd, 1 (x) 1 carries uden^2
    co_unit: dict = {}
    for k, x in unit:
        for (i, j, c) in t.comult[k]:
            co_unit[(i, j)] = co_unit.get((i, j), 0) + x * c * uden
    if _nonzero(co_unit) != {(a, b): x * y * cd for a, x in unit for b, y in unit}:
        fails.append(("unit",))
    if sum(x * t.counit[k] for k, x in unit) != uden * ed:
        fails.append(("counit-of-unit",))
    for i in range(n):
        for j in range(n):
            prod = t.mult[i][j]
            # D(e_i e_j) carries md * cd, D(e_i) D(e_j) carries cd^2 md^2
            lhs = {}
            for k, x in prod:
                for (a, b, c) in t.comult[k]:
                    lhs[(a, b)] = lhs.get((a, b), 0) + x * c * cd * md
            rhs: dict = {}
            for (a, b, c) in t.comult[i]:
                for (p, q, d) in t.comult[j]:
                    for k1, x in t.mult[a][p]:
                        cdx = c * d * x
                        for k2, y in t.mult[b][q]:
                            rhs[(k1, k2)] = rhs.get((k1, k2), 0) + cdx * y
            if _nonzero(lhs) != _nonzero(rhs):
                fails.append((i, j))
                continue
            if sum(x * t.counit[k] for k, x in prod) * ed != t.counit[i] * t.counit[j] * md:
                fails.append((i, j))
    report.record("bialgebra", not fails, _first_witness(fails))

    fails = []
    for k in range(n):
        # S(e_i) e_j and e_i S(e_j) summed carry cd * ad * md, eps(e_k) 1
        # carries ed * uden
        left = [0] * n
        right = [0] * n
        for (i, j, c) in t.comult[k]:
            for p, x in t.mul(t.antipode[i], basis(j)):
                left[p] += c * x
            for p, x in t.mul(basis(i), t.antipode[j]):
                right[p] += c * x
        expected = [0] * n
        for p, x in unit:
            expected[p] = t.counit[k] * x * cd * ad * md
        left = [x * ed * uden for x in left]
        right = [x * ed * uden for x in right]
        if left != expected or right != expected:
            fails.append((k,))
    report.record("antipode", not fails, _first_witness(fails))

    return report


def _nonzero(d: dict) -> dict:
    return {k: v for k, v in d.items() if v}


def axiom_report(h: FinDimHopf) -> AxiomReport:
    """validate_hopf(h), computed on first use and memoized on h."""
    if h._axiom_report is None:
        h._axiom_report = validate_hopf(h)
    return h._axiom_report


def _tensor_of(u: Vec, v: Vec) -> dict:
    out = {}
    for i, a in enumerate(u):
        if not a:
            continue
        for j, b in enumerate(v):
            if b:
                out[(i, j)] = a * b
    return out


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


class GrouplikeResult(Record):
    _fields = ("elements", "complete")

    def __init__(self, elements: list[Vec], complete: bool):
        self.elements = elements
        self.complete = complete


def grouplikes(h: FinDimHopf) -> GrouplikeResult:
    """Group-like elements of H.

    With a declared group-algebra coradical the declared basis elements
    are verified as a group (:func:`hopfdiff.groups.coradical_group`, which
    raises ValueError naming the first fault) and returned as the complete
    list; otherwise only basis elements are scanned and the result is
    flagged possibly incomplete.
    """
    n = h.dim
    if h.coradical_group_basis is not None:
        from .groups import coradical_group

        _, idxs, _ = coradical_group(h)
        return GrouplikeResult([basis_vec(n, i) for i in idxs], True)
    elements = [basis_vec(n, i) for i in range(n) if is_grouplike(h, basis_vec(n, i))]
    return GrouplikeResult(elements, False)


def skew_primitives(h, g: Vec, k: Vec) -> list[Vec]:
    """Reduced-echelon basis of {c : D(c) = c (x) g + k (x) c} on any
    carrier, finite or truncated; g and k must be group-like.

    Row (a, b) of the system is the coefficient of e_a (x) e_b in
    D(c) - c (x) g - k (x) c, one column per coordinate of c, as a sparse
    integer row over the lcm of the coefficients' denominators.  One pass
    over comult_triples(m) for every basis element m fills all rows at
    once, the group-like terms are subtracted after it, and the rows are
    reduced by exactlin.int_echelon; exactlin.int_kernel reads the kernel
    off the reduced echelon form, which is unique, one vector per free
    column.
    """
    if not is_grouplike(h, g) or not is_grouplike(h, k):
        raise ValueError("skew-primitive reference elements must be group-like")
    n = h.dim
    triples = [h.comult_triples(m) for m in range(n)]
    den = lcm(1, *(c.denominator for t in triples for (_, _, c) in t),
              *(c.denominator for c in g), *(c.denominator for c in k))
    rows: dict = {}
    for m, t in enumerate(triples):
        for (a, b, c) in t:
            row = rows.setdefault((a, b), {})
            row[m] = row.get(m, 0) + _num(c, den)
    # c (x) g puts c_a g_b at (a, b), and k (x) c puts k_a c_b there
    for b, c in enumerate(g):
        if c:
            x = _num(c, den)
            for a in range(n):
                row = rows.setdefault((a, b), {})
                row[a] = row.get(a, 0) - x
    for a, c in enumerate(k):
        if c:
            x = _num(c, den)
            for b in range(n):
                row = rows.setdefault((a, b), {})
                row[b] = row.get(b, 0) - x
    echelon, pivots = int_echelon(
        [{m: x for m, x in row.items() if x} for row in rows.values()], n)
    return int_kernel(echelon, pivots, n)


def primitives(h) -> list[Vec]:
    """Reduced-echelon basis of {c : D(c) = c (x) 1 + 1 (x) c} on any
    carrier, finite or truncated."""
    return skew_primitives(h, h.unit_vec(), h.unit_vec())


# -- homomorphism tests -------------------------------------------------------

def is_coalgebra_hom(f: LinMap) -> bool:
    return next(coalgebra_map_failures(f.domain, f.codomain, f.matrix), None) is None


def is_algebra_hom(f: LinMap) -> bool:
    """f(1) = 1 and f(xy) = f(x) f(y), stopping at the first failure."""
    dom, cod = f.domain, f.codomain
    if f.apply(dom.unit_vec()) != cod.unit_vec():
        return False
    return next(algebra_map_failures(dom, cod, f.matrix), None) is None


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
