"""Finite-dimensional Hopf algebras given by exact structure constants.

A :class:`FinDimHopf` stores the multiplication table, unit, sparse
comultiplication, counit and antipode of a Hopf algebra over the
rationals, together with an optional declared group-algebra coradical.
All axioms can be verified exhaustively on basis tuples; every verdict
is exact.

The axiom checks run on integer numerators: a carrier's structure
constants are scaled once to integers over one shared denominator per
table (:func:`int_structure`, memoized on the carrier, each table built
on first read), and comparisons are cross-multiplied by the known
denominators, so every verdict is identical to rational arithmetic.
Convolution and the algebra-map and coalgebra-map checks, the
map-level code that only the operator and action layers run, live in
:mod:`hopfdiff.maps` on the same tables, so a command that only resolves
and checks an algebra does not compile them.  The action layer
(:mod:`hopfdiff.actions`, :mod:`hopfdiff.freelie`) and
:mod:`hopfdiff.diffops` run on these integer tables too.

A sparse integer vector is a sequence of pairs (k, m) in ascending k
with no m zero.  In a table of such vectors, an entry that could not be
formed (a product above a truncated carrier's budget, an unknown image)
is stored as its OutOfBudgetError, and a sum that needs it raises a fresh
copy of it (:func:`_copy`) at the first term that needs it, reading no
later term.  Every integer checker forms its sums by two helpers that
keep this rule: :func:`_combine`, the sum of c v over (c, v) pairs, and
:func:`_apply_int`, the sum of c cols[i] over a sparse u; and every
coproduct comparison by two more, :func:`_coproduct`, comult_den D(u)
as {(i, j): m}, and :func:`_tensor_sum`, the sum of c u (x) v.  Three sums
stay dense accumulators, each because it measured faster so on a 2-core
machine: :meth:`IntStructure.mul`, faster on a dimension-8 algebra
(ROADMAP item 19 owns that choice); the right side of the
difference-identity pair loop (``hopfdiff.diffops._identity_failures``),
where a dict took the full reports of the 36 plan:H8 phase-4 candidates
from 0.043 to 0.047 s (best of 11 passes; phase 4 itself reads closure
rows and took 0.012 s with either); and the product inlined in the
module-algebra loop of :func:`hopfdiff.actions.module_axiom_report`,
which through ``mul`` and :func:`_combine` took ``free-lie mm-check
--budget 7`` from 1.4 to 2.3 s in process.

Identities that are linear in their first argument and hold for a
product w g once they hold for w and for g are proven from generator
rows: :func:`generating_rows` gives the unit and a generating set, found
greedily and proven to span by ``int_echelon``, and a pass on those rows
against every basis element is a proof for every row.
:func:`validate_hopf` reads associativity and the bialgebra pairs this
way, and :func:`hopfdiff.diffops.is_diffop` the difference identity.  A
failure on the rows reruns the full scan, so every witness is the full
scan's.

The same basis-indexed interface (``mult_terms``, ``comult_triples``,
``counit_coeff``, ``antipode_basis``) is implemented by the
degree-truncated carriers in :mod:`hopfdiff.truncated` and by the smash
builder in :mod:`hopfdiff.actions`.  ``mult_terms``, the one product a
carrier implements, returns the :class:`OutOfBudgetError` of a product
beyond a truncated carrier's budget unraised, and exhaustive checks turn
it into an explicit skip entry rather than a silent pass.  Every
skip-aware checker returns a :class:`CheckReport`.
"""

from __future__ import annotations

from itertools import compress, count, repeat
from math import gcd, lcm
from operator import is_not
from types import SimpleNamespace

from .exactlin import Mat, ONE, Rat, Record, ZERO, int_echelon, int_kernel, rat, rat_str

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
    interface (mult_terms, comult_triples, counit_coeff, antipode_basis,
    unit_vec, label, dim).  mult_terms(i, j), the one product a carrier
    implements, gives the nonzero terms (k, c) of e_i e_j in ascending k,
    or the OutOfBudgetError of a product beyond the budget, unraised;
    mult_basis and mult_vec raise a fresh copy of it."""

    def mult_basis(self, i: int, j: int) -> Vec:
        out = zero_vec(self.dim)
        for k, c in _stored(self.mult_terms(i, j)):
            out[k] = c
        return out

    def mult_vec(self, u: Vec, v: Vec) -> Vec:
        out = zero_vec(self.dim)
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if not b:
                    continue
                c = a * b
                for k, m in _stored(self.mult_terms(i, j)):
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
    """Rational vectors as sparse integer tuples over their common
    denominator; a stored OutOfBudgetError is kept as it is."""
    # the identity test against the shared ZERO runs in C and skips the
    # zeros of zero_vec and basis_vec without a Fraction.__bool__ call
    return _int_terms([v if isinstance(v, OutOfBudgetError)
                       else [(k, v[k]) for k in compress(count(), map(is_not, v, repeat(ZERO)))
                             if v[k]]
                       for v in vectors])


def _int_terms(terms: list) -> tuple[int, list]:
    """Sparse rational vectors, lists of nonzero terms (k, c) in ascending
    k, as sparse integer tuples over their common denominator."""
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


def _combine(terms) -> list:
    """The sparse integer vector sum c v over the pairs (c, v) of terms."""
    acc: dict = {}
    get = acc.get
    for c, v in terms:
        if v.__class__ is OutOfBudgetError:
            raise _copy(v)
        for k, m in v:
            acc[k] = get(k, 0) + c * m
    return [(k, m) for k, m in sorted(acc.items()) if m]


def _apply_int(cols, u) -> list:
    """The sparse integer vector sum c cols[i] over the pairs (i, c) of u."""
    acc: dict = {}
    get = acc.get
    for i, c in u:
        col = cols[i]
        if col.__class__ is OutOfBudgetError:
            raise _copy(col)
        for k, m in col:
            acc[k] = get(k, 0) + c * m
    return [(k, m) for k, m in sorted(acc.items()) if m]


def _coproduct(t, u) -> dict:
    """comult_den * D(u) as {(i, j): m}, no m zero, for a sparse integer
    vector u and the integer structure table t of its carrier."""
    acc: dict = {}
    get = acc.get
    for k, x in u:
        for i, j, c in t.comult[k]:
            acc[(i, j)] = get((i, j), 0) + x * c
    return _nonzero(acc)


def _tensor_sum(terms) -> dict:
    """The sum c u (x) v over the triples (c, u, v) of terms, for sparse
    integer vectors u and v, as {(p, q): m}, no m zero."""
    acc: dict = {}
    get = acc.get
    for c, u, v in terms:
        for p, x in u:
            cx = c * x
            for q, y in v:
                acc[(p, q)] = get((p, q), 0) + cx * y
    return _nonzero(acc)


class _BuiltOnRead:
    """A table of an IntStructure, built on first read.  build(t) stores
    the table and its denominator in t's instance dict; this descriptor
    has no __set__, so every later read finds them there and never comes
    here."""

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, t, owner=None):
        if t is None:
            return self
        self.build(t)
        return t.__dict__[self.name]


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
                    in sweedler_expand order

    The comultiplication and counit tables are built at once.  The
    others, each with its denominator, are built on first read: the
    skew-primitive and group-like checks read only the comultiplication,
    and only the difference-identity check and the solver read D^2.
    """

    def __init__(self, h):
        # the carrier, until the product and antipode tables are built
        self._carrier = h
        # False until generating_rows computes it, since None is a result
        self._generating_rows = False
        n = self.dim = h.dim
        comult = self._comult_triples = [h.comult_triples(k) for k in range(n)]
        self.comult_den = lcm(1, *(c.denominator for t in comult for (_, _, c) in t))
        self.comult = [tuple((i, j, _num(c, self.comult_den)) for (i, j, c) in t)
                       for t in comult]
        counit = [h.counit_coeff(i) for i in range(n)]
        self.counit_den = lcm(1, *(c.denominator for c in counit))
        self.counit = [_num(c, self.counit_den) for c in counit]

    def _build_products(self):
        n, h = self.dim, self._carrier
        self.mult_den, flat = _int_terms(
            [h.mult_terms(i, j) for i in range(n) for j in range(n)])
        self.mult = [flat[i * n:(i + 1) * n] for i in range(n)]
        self._drop_carrier()

    def _build_antipode(self):
        self.antipode_den, self.antipode = _sparse_ints(
            [_attempt(self._carrier.antipode_basis, j) for j in range(self.dim)])
        self._drop_carrier()

    def _drop_carrier(self):
        # once both tables that read it are built, the table holds no
        # reference to the carrier that holds the table, so that no
        # reference cycle keeps a carrier alive after its last use
        if "mult" in self.__dict__ and "antipode" in self.__dict__:
            del self._carrier

    def _build_sweedler(self):
        # sweedler_expand reads only comult_triples; the table keeps the
        # triples, not the carrier, for the reason _drop_carrier gives
        n = self.dim
        coalgebra = SimpleNamespace(comult_triples=self._comult_triples.__getitem__)
        sweedler = [sweedler_expand(coalgebra, basis_vec(n, i), 2) for i in range(n)]
        den = self.sweedler_den = lcm(1, *(w.denominator for s in sweedler for w in s.values()))
        self.sweedler3 = [tuple((*t, _num(w, den)) for t, w in s.items()) for s in sweedler]

    mult = _BuiltOnRead(_build_products)
    mult_den = _BuiltOnRead(_build_products)
    antipode = _BuiltOnRead(_build_antipode)
    antipode_den = _BuiltOnRead(_build_antipode)
    sweedler3 = _BuiltOnRead(_build_sweedler)
    sweedler_den = _BuiltOnRead(_build_sweedler)

    def mul(self, u, v) -> list:
        """mult_den * u v for sparse integer vectors.

        Basis products are taken in the order CarrierOps.mult_vec takes
        them, so a product that leaves the budget raises the same
        OutOfBudgetError as the rational product would.  A stored error
        passed as u or v is raised again first.
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


def generating_rows(h) -> tuple | None:
    """The index of the unit, then generators of h in basis order, or None.

    The words are the unit and the left-normed products w g of a word w
    and a generator g, each formed by IntStructure.mul.  A basis element
    becomes a generator when it is not in the span of the words built so
    far; the span is kept in reduced echelon form by int_echelon, one word
    at a time, and each new word is multiplied by every generator.  The
    result is None when the unit is not a basis vector with coefficient 1,
    when a product leaves a truncated carrier's budget, or when the words
    span less than all of h: the products are h's own, so a table that
    fails the unit axiom can fall short.  No generating set is declared or
    guessed.  Memoized on int_structure(h).

    The closure verdicts (validate_hopf, hopfdiff.diffops.is_diffop) rest
    on one lemma.  Let I(x, y) be an identity linear in x, and S the set
    of x for which I(x, y) holds for every basis element y.  If every row
    returned here is in S, and w, g in S implies w g in S, then every
    word is in S by induction on its length, and the words span h, so S
    is all of h.  Each verdict proves the step for its identity in its
    own docstring.
    """
    t = int_structure(h)
    if t._generating_rows is False:
        t._generating_rows = _generating_rows(h, t)
    return t._generating_rows


def _generating_rows(h, t: IntStructure) -> tuple | None:
    n = t.dim
    den, (unit,) = _sparse_ints([h.unit_vec()])
    if den != 1 or len(unit) != 1 or unit[0][1] != 1:
        return None
    if any(cell.__class__ is OutOfBudgetError for row in t.mult for cell in row):
        return None
    echelon: list = []

    def grows(v) -> bool:
        """Whether v is outside the span; a word that is joins it."""
        nonlocal echelon
        grown, pivots = int_echelon(echelon + [dict(v)], n)
        if len(pivots) == len(echelon):
            return False
        echelon = grown
        return True

    grows(unit)
    words = [unit]
    rows = [unit[0][0]]
    for b in range(n):
        if len(echelon) == n:
            break
        if len(int_echelon(echelon + [{b: 1}], n)[1]) == len(echelon):
            continue
        rows.append(b)
        # every word times the new generator, then every new word times
        # every generator, until the span is closed under all of them
        pending = [(w, b) for w in words]
        for w, g in pending:
            v = t.mul(w, ((g, 1),))
            if grows(v):
                div = gcd(*(m for _, m in v))
                v = [(k, m // div) for k, m in v]
                words.append(v)
                pending.extend((v, g) for g in rows[1:])
    return tuple(rows) if len(echelon) == n else None


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

    Associativity and the bialgebra pairs are read first on the rows of
    generating_rows(h) only: associativity once the unit axiom has
    passed, the pairs once associativity, D(1) = 1 (x) 1 and eps(1) = 1
    have.  A restricted pass proves the full one by the lemma stated
    there; a restricted failure reruns the full scan, so the first witness
    is the full scan's.  The steps, for w and a generator g in the set S
    of rows x at which the identity holds for every y (and z):
    - associativity, (xy)z = x(yz):
      ((wg)y)z = (w(gy))z = w((gy)z) = w(g(yz)) = (wg)(yz),
      by w, w, g and w in S; nothing else is used.
    - the bialgebra pairs, D(xy) = D(x)D(y) and eps(xy) = eps(x)eps(y):
      D((wg)y) = D(w(gy)) = D(w)D(gy) = D(w)(D(g)D(y)) = (D(w)D(g))D(y)
      = D(wg)D(y), by associativity of H (so of H (x) H), w, g,
      associativity and w; eps is the same with scalars.
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
    closure = None if fails else generating_rows(h)

    def associativity_failures(rows):
        for i in rows:
            for j in range(n):
                ij = t.mult[i][j]
                for k in range(n):
                    if t.mul(ij, basis(k)) != t.mul(basis(i), t.mult[j][k]):
                        yield i, j, k

    witness = _closure_witness(associativity_failures, closure, n)
    report.record("associativity", witness is None, witness)
    if witness is not None:
        closure = None

    fails = []
    for k in range(n):
        terms = t.comult[k]
        expected = [(k, cd * ed)]
        if _combine((c * t.counit[i], basis(j)) for (i, j, c) in terms) != expected or \
                _combine((c * t.counit[j], basis(i)) for (i, j, c) in terms) != expected:
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
    if {key: v * uden for key, v in _coproduct(t, unit).items()} != \
            _tensor_sum(((cd, unit, unit),)):
        fails.append(("unit",))
    if sum(x * t.counit[k] for k, x in unit) != uden * ed:
        fails.append(("counit-of-unit",))

    def bialgebra_failures(rows):
        for i in rows:
            for j in range(n):
                prod = t.mult[i][j]
                # D(e_i e_j) carries md * cd, D(e_i) D(e_j) carries cd^2 md^2
                lhs = {key: v * cd * md for key, v in _coproduct(t, prod).items()}
                rhs = _tensor_sum((c * d, t.mult[a][p], t.mult[b][q])
                                  for (a, b, c) in t.comult[i] for (p, q, d) in t.comult[j])
                if lhs != rhs or \
                        sum(x * t.counit[k] for k, x in prod) * ed != \
                        t.counit[i] * t.counit[j] * md:
                    yield i, j

    # a failure at the unit is the first witness whatever the pairs give
    witness = fails[0] if fails else _closure_witness(bialgebra_failures, closure, n)
    report.record("bialgebra", witness is None, witness)

    fails = []
    for k in range(n):
        # S(e_i) e_j and e_i S(e_j) summed carry cd * ad * md, eps(e_k) 1
        # carries ed * uden
        terms = t.comult[k]
        left = _combine((c, t.mul(t.antipode[i], basis(j))) for (i, j, c) in terms)
        right = _combine((c, t.mul(basis(i), t.antipode[j])) for (i, j, c) in terms)
        scale = t.counit[k] * cd * ad * md
        expected = [(p, x * scale) for p, x in unit] if scale else []
        if [(p, x * ed * uden) for p, x in left] != expected or \
                [(p, x * ed * uden) for p, x in right] != expected:
            fails.append((k,))
    report.record("antipode", not fails, _first_witness(fails))

    return report


def _nonzero(d: dict) -> dict:
    return {k: v for k, v in d.items() if v}


def _closure_witness(failures, rows, n: int):
    """The first of failures(range(n)), or None when there is none.

    failures(rows) yields the failing tuples of the given rows in order.
    When rows is a closure set (generating_rows) and failures(rows)
    yields nothing, the caller's lemma proves that failures(range(n))
    yields nothing either, and it is not run.
    """
    if rows is not None and next(failures(rows), None) is None:
        return None
    return next(failures(range(n)), None)


def axiom_report(h: FinDimHopf) -> AxiomReport:
    """validate_hopf(h), computed on first use and memoized on h."""
    if h._axiom_report is None:
        h._axiom_report = validate_hopf(h)
    return h._axiom_report


def is_cocommutative(h) -> bool:
    for k in range(h.dim):
        t = {(i, j): c for (i, j, c) in h.comult_triples(k)}
        if t != {(j, i): c for (i, j), c in t.items()}:
            return False
    return True


# -- distinguished elements --------------------------------------------------

def is_grouplike(h: FinDimHopf, c: Vec) -> bool:
    """eps(c) = 1 and D(c) = c (x) c, the second on integer tables: for c
    over den, D(c) carries comult_den * den and c (x) c den^2."""
    if h.counit_vec(c) != ONE:
        return False
    t = int_structure(h)
    den, (u,) = _sparse_ints([c])
    return {key: v * den for key, v in _coproduct(t, u).items()} == \
        _tensor_sum(((t.comult_den, u, u),))


class GrouplikeResult(Record):
    _fields = ("elements", "complete")

    def __init__(self, elements: list[Vec], complete: bool):
        self.elements = elements
        self.complete = complete


def grouplikes(h: FinDimHopf) -> GrouplikeResult:
    """Group-like elements of H.

    With a declared group-algebra coradical the declared basis elements
    are verified as a group (:func:`hopfdiff.fingroup.coradical_group`, which
    raises ValueError naming the first fault) and returned as the complete
    list; otherwise only basis elements are scanned and the result is
    flagged possibly incomplete.
    """
    n = h.dim
    if h.coradical_group_basis is not None:
        from .fingroup import coradical_group

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
