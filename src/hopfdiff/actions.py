"""Module-algebra and module-bialgebra actions, smash products, graphs of
crossed homomorphisms, and the derived structures they induce.

The module(-bi)algebra axioms have one checker,
:func:`module_axiom_report`, the crossed-homomorphism identity one,
:func:`crossed_hom_report`, and the smash product one builder,
:class:`TruncatedSmash`.  All three work over the basis-indexed carrier
interface, so finite-dimensional and degree-truncated algebras share
them.  A finite carrier is a smash factor with an infinite budget.

An action is one object, an :class:`IntAction`: it names its carriers,
``acting`` (K) and ``target`` (H), and acts in integer arithmetic,
sparse integer vectors over one denominator.  The checkers, the smash
builder and the compatibility checks of :mod:`hopfdiff.diffops` take it
as their one argument.  :class:`ActionData` (a tabulated action) and
:class:`hopfdiff.freelie.DerivationAction` are its two kinds.

The action layer runs on integer tables.  The two checkers read both
carriers from :func:`hopfdiff.hopf.int_structure` and the action from
its ``act_int``, compared cross-multiplied by the known denominators, so
no ``Fraction`` is built inside their loops; the rational entry points
``act_rational`` and ``act`` are read off the same engine.  The smash
builder forms its products, antipodes and graph vectors the same way,
from the factors' tables and act_int, as sparse integer vectors over its
pair index (:meth:`TruncatedSmash.pair`).  Every report is identical to
the one rational arithmetic gives.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import filterfalse

from .exactlin import Record, _rat_vec, int_echelon, rank, rat
from .hopf import (
    AxiomReport,
    CarrierOps,
    CheckReport,
    FinDimHopf,
    IntColumns,
    InvalidAlgebraError,
    LinMap,
    OutOfBudgetError,
    Vec,
    _add_scaled,
    _apply_int,
    _attempt,
    _canonical,
    _combine,
    _coproduct,
    _first_witness,
    _sparse_ints,
    _stored,
    _tensor_sum,
    basis_vec,
    grouplikes,
    int_structure,
    is_cocommutative,
    primitives,
    validate_hopf,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vec,
)
from .maps import (antipode_map, coalgebra_map_report, convolve, convolve_columns,
                   identity_map, int_columns, is_algebra_hom, is_coalgebra_hom, unit_counit_map)


class IntAction:
    """An action of K = acting on H = target in integer arithmetic, the one
    argument of the checkers, the smash builder and the compatibility
    checks.

    act_int(a, u) is den * (basis a of K) . u for a sparse integer vector
    u of H (see hopfdiff.hopf), which the checkers compare as it is; den
    is one denominator for every a, and act_int raises OutOfBudgetError
    wherever the rational action of u raises.  act_rational and act are
    the rational entry points over it.
    """

    def act_int(self, a: int, u) -> list:
        raise NotImplementedError

    def basis_values(self) -> list:
        """values[a][x] = act_int(a, e_x), or the OutOfBudgetError it
        raised, for every basis pair."""
        n = self.target.dim
        return [[_attempt(self.act_int, a, ((x, 1),)) for x in range(n)]
                for a in range(self.acting.dim)]

    def act_rational(self, a: int, u: Vec) -> Vec:
        """Basis a of K acting on the rational H-vector u, through act_int."""
        den, (ints,) = _sparse_ints([u])
        return _rat_vec(self.act_int(a, ints), den * self.den, len(u))

    def act(self, a: Vec, u: Vec) -> Vec:
        """The K-vector a acting on the H-vector u; the result has the
        length of u."""
        out = zero_vec(len(u))
        for i, c in enumerate(a):
            if c:
                _add_scaled(out, c, self.act_rational(i, u))
        return out


class ActionData(IntAction):
    """A left action of K on H, stored as one H-vector per basis pair; H may
    be a truncated carrier that the action keeps in budget.

    tensor[a][x] is the coordinate vector of (basis a of K) . (basis x of H).
    It is given as that rational tensor or as the IntColumns of its cells,
    which the integer engine reads; the tensor is formed on first read.
    """

    def __init__(self, acting, target, tensor):
        self.acting = acting
        self.target = target
        n = target.dim
        if not isinstance(tensor, IntColumns):
            if len(tensor) != acting.dim or any(len(row) != n for row in tensor):
                raise ValueError("action tensor must be (dim K) x (dim H)")
            cells = [[rat(c) for c in cell] for row in tensor for cell in row]
            if any(len(cell) != n for cell in cells):
                raise ValueError("action entries must be H-coordinate vectors")
            tensor = int_columns(cells)
        self.den = tensor.den
        self._columns = [tensor.cols[a * n:(a + 1) * n] for a in range(acting.dim)]

    @cached_property
    def tensor(self) -> list:
        n = self.target.dim
        return [[_rat_vec(col, self.den, n) for col in row] for row in self._columns]

    def act_int(self, a: int, u) -> list:
        return _apply_int(self._columns[a], u)


def trivial_action(k: FinDimHopf, h: FinDimHopf) -> ActionData:
    """a . x = eps(a) x."""
    tensor = [[vec_scale(k.counit_coeff(a), basis_vec(h.dim, x)) for x in range(h.dim)]
              for a in range(k.dim)]
    return ActionData(k, h, tensor)


def _convolved_action(k, h, columns) -> ActionData:
    """The action of K on H whose a . x is column a of columns(x), the
    IntColumns of a convolution over K, for each basis x of H; a column
    that could not be formed raises its OutOfBudgetError."""
    convs = [([_stored(c) for c in cols], den) for cols, den in map(columns, range(h.dim))]
    den = math.lcm(*(d for _, d in convs))
    flat = [[(p, m * (den // d)) for p, m in cols[a]] for a in range(k.dim) for cols, d in convs]
    return ActionData(k, h, _canonical(flat, den))


def adjoint_action(h: FinDimHopf) -> ActionData:
    """a . x = a1 x S(a2), the convolution of a -> a x with S."""
    t = int_structure(h)
    return _convolved_action(h, h, lambda x: convolve_columns(
        h, h, IntColumns([row[x] for row in t.mult], t.mult_den), antipode_map(h).cols))


class SkipRuns:
    """The skipped tuples of a report as runs, with the length, order,
    membership and equality of the list of those tuples, which is built
    only where it is iterated.

    The loose tuples of head come first.  Each run (prefix, n, done) of
    runs then stands for prefix + (i,) for every i of range(n) outside
    done, the ascending indices its table row evaluated.
    """

    __hash__ = None

    def __init__(self, runs: list, head=()):
        self.runs = runs
        self.head = head

    def __len__(self):
        return len(self.head) + sum(n - len(done) for _, n, done in self.runs)

    def __iter__(self):
        yield from self.head
        for prefix, n, done in self.runs:
            for i in filterfalse(set(done).__contains__, range(n)):
                yield prefix + (i,)

    def __eq__(self, other):
        if isinstance(other, (list, SkipRuns)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self):
        return f"SkipRuns({list(self)!r})"


MODULE_AXIOMS = ("module", "module-algebra", "bialgebra")


def module_axiom_report(action: IntAction, axioms=MODULE_AXIOMS) -> CheckReport:
    """The module axioms of an action of K on H on every basis tuple,
    skip-aware.

    axioms names the loops to run: "module", (ab) . x = a . (b . x) at
    (a, b, x); "module-algebra", a . (xy) = (a1 . x)(a2 . y) at (a, x, y);
    "bialgebra", eps(a . x) = eps(a) eps(x) and then D(a . x) =
    (a1 . x1) (x) (a2 . x2) at (a, x), failing as "counit" or "comult".

    Both carriers are read from their integer structure tables and the
    action from act_int, whose values a . e_x are tabulated once, each as
    sparse integers or as the OutOfBudgetError it raised; each side of an
    identity is compared after cross-multiplying by the denominators the
    other side carries.

    A tuple whose evaluation raises OutOfBudgetError is skipped as (loop
    name, *tuple).  Which tuples these are is read from the stored
    entries, the value table's errors and the basis products that leave a
    truncated carrier's budget, so only the tuples they leave checkable
    are evaluated; this relies on an action raising on a vector only where
    it raises on one of its terms, as both kinds of action do.  Only an
    action on a vector of several terms that may cancel before it raises
    is tried.  The skips are a SkipRuns with one run per table row, in
    loop order: the row's prefix and the indices it evaluated.
    """
    k, h = action.acting, action.target
    nk, nh = k.dim, h.dim
    act_int, den = action.act_int, action.den
    tk, th = int_structure(k), int_structure(h)
    # values[a][x] is act_int of basis a on e_x, or the error it raised
    values = action.basis_values()
    # missing[a] holds the x whose value a . e_x is a stored error, and
    # left[a] and right[a] those that some a1 . x or a2 . x needs
    missing = [{x for x, v in enumerate(row) if v.__class__ is OutOfBudgetError}
               for row in values]
    left = [set().union(*(missing[a1] for a1, _, _ in terms)) for terms in tk.comult]
    right = [set().union(*(missing[a2] for _, a2, _ in terms)) for terms in tk.comult]
    everything = range(nh)
    failures = []
    runs = []

    def skip(prefix: tuple, done=()) -> int:
        """Record every index of a row outside done as skipped; the count
        of done."""
        if len(done) < nh:
            runs.append((prefix, nh, tuple(done)))
        return len(done)

    def acted(a: int, u):
        """act_int(a, u), or None where it raises: read off the value table
        where no term of u needs a stored error, and acted out only where
        several terms do, which may cancel."""
        if missing[a].isdisjoint([p for p, _ in u]):
            return _apply_int(values[a], u)
        if len(u) == 1:
            return None
        try:
            return act_int(a, u)
        except OutOfBudgetError:
            return None

    def module() -> int:
        # (ab) . x carries den * K's mult_den, a . (b . x) den^2
        checked = 0
        for a in range(nk):
            for b in range(nk):
                prod = tk.mult[a][b]
                if prod.__class__ is OutOfBudgetError:
                    skip(("module", a, b))
                    continue
                blocked = missing[b].union(*(missing[m] for m, _ in prod))
                done = []
                for x in filterfalse(blocked.__contains__, everything):
                    rhs = acted(a, values[b][x])
                    if rhs is None:
                        continue
                    done.append(x)
                    lhs = _combine((c, values[m][x]) for m, c in prod)
                    if [(p, v * den) for p, v in lhs] != [(p, v * tk.mult_den) for p, v in rhs]:
                        failures.append(("module", a, b, x))
                checked += skip(("module", a, b), done)
        return checked

    def module_algebra() -> int:
        # a . (xy) carries den * H's mult_den, (a1 . x)(a2 . y) den^2 times
        # H's mult_den and K's comult_den
        scale = tk.comult_den * den
        # beyond[x] holds the y whose basis product xy leaves H's budget,
        # and reach[(a1, x)] those that some term of a1 . x meets there
        beyond = [{y for y, v in enumerate(row) if v.__class__ is OutOfBudgetError}
                  for row in th.mult]
        reach: dict = {}
        checked = 0
        for a in range(nk):
            terms = tk.comult[a]
            for x in range(nh):
                if x in left[a]:
                    skip(("module-algebra", a, x))
                    continue
                row = th.mult[x]
                legs = []
                for a1, a2, c in terms:
                    far = reach.get((a1, x))
                    if far is None:
                        far = reach[(a1, x)] = set().union(
                            *(beyond[p] for p, _ in values[a1][x]))
                    legs.append((values[a1][x], far, values[a2], c))
                blocked = right[a] | beyond[x]
                done = []
                for y in filterfalse(blocked.__contains__, everything):
                    lhs = None
                    if not any(p in far for _, far, second, _ in legs for p, _ in second[y]):
                        lhs = acted(a, row[y])
                    if lhs is None:
                        continue
                    done.append(y)
                    # no product leaves the budget here: multiply in place,
                    # densely (see hopfdiff.hopf)
                    rhs = [0] * nh
                    for first, _, second, c in legs:
                        for p, v in first:
                            cells = th.mult[p]
                            for q, w in second[y]:
                                cvw = c * v * w
                                for r, z in cells[q]:
                                    rhs[r] += cvw * z
                    if [(p, v * scale) for p, v in lhs] != \
                            [(p, v) for p, v in enumerate(rhs) if v]:
                        failures.append(("module-algebra", a, x, y))
                checked += skip(("module-algebra", a, x), done)
        return checked

    def bialgebra() -> int:
        # eps(a . x) carries den * H's counit_den; D(a . x) den * H's
        # comult_den, (a1 . x1) (x) (a2 . x2) den^2 and both comult_dens
        scale = tk.comult_den * den
        checked = 0
        for a in range(nk):
            aterms = tk.comult[a]
            done = []
            for x in range(nh):
                value = values[a][x]
                xterms = th.comult[x]
                if value.__class__ is OutOfBudgetError \
                        or any(x1 in left[a] for x1, _, _ in xterms) \
                        or any(x2 in right[a] for _, x2, _ in xterms):
                    continue
                done.append(x)
                if sum(v * th.counit[p] for p, v in value) * tk.counit_den != \
                        tk.counit[a] * th.counit[x] * den:
                    failures.append(("counit", a, x))
                    continue
                lhs = _coproduct(th, value)
                rhs = _tensor_sum((c * e, values[a1][x1], values[a2][x2])
                                  for a1, a2, c in aterms for x1, x2, e in xterms)
                if {key: v * scale for key, v in lhs.items()} != rhs:
                    failures.append(("comult", a, x))
            checked += skip(("bialgebra", a), done)
        return checked

    loops = {"module": module, "module-algebra": module_algebra, "bialgebra": bialgebra}
    checked = sum(loops[label]() for label in axioms)
    return CheckReport(not failures, failures, SkipRuns(runs), checked)


# the AxiomReport names of validate_action, in order, and the one each
# failure label of module_axiom_report counts against
_ACTION_AXIOMS = ("module-unit-of-K", "module-associativity", "acts-on-unit",
                  "module-algebra", "module-bialgebra")
_AXIOM_NAMES = {"module": "module-associativity", "module-algebra": "module-algebra",
                "counit": "module-bialgebra", "comult": "module-bialgebra"}


def validate_action(a: ActionData, require_bialgebra: bool = False) -> AxiomReport:
    """Exhaustive module-algebra (and optionally module-bialgebra) axioms:
    the two unit axioms, then module_axiom_report's, each with its first
    witness."""
    k, h = a.acting, a.target
    one = h.unit_vec()
    fails = {
        "module-unit-of-K": [(x,) for x in range(h.dim)
                             if a.act(k.unit_vec(), basis_vec(h.dim, x)) != basis_vec(h.dim, x)],
        "acts-on-unit": [(i,) for i in range(k.dim)
                         if a.act_rational(i, one) != vec_scale(k.counit_coeff(i), one)]}
    axioms = MODULE_AXIOMS if require_bialgebra else MODULE_AXIOMS[:2]
    for label, *witness in module_axiom_report(a, axioms).failures:
        fails.setdefault(_AXIOM_NAMES[label], []).append(tuple(witness))
    report = AxiomReport()
    for axiom in _ACTION_AXIOMS[:4 + require_bialgebra]:
        report.record(axiom, not fails.get(axiom), _first_witness(fails.get(axiom)))
    return report


def _require_action(a: ActionData, require_bialgebra: bool) -> None:
    """Raise InvalidAlgebraError unless the action passes validate_action."""
    rep = validate_action(a, require_bialgebra)
    if not rep.ok:
        k, h = a.acting, a.target
        raise InvalidAlgebraError(
            f"action of {k.name} on {h.name}",
            "not a module bialgebra" if require_bialgebra else "not a module algebra",
            {"acting": k.name, "target": h.name}, rep)


def check_crossed_hom(pi: LinMap, action: ActionData) -> bool:
    """pi(ab) = pi(a1)(a2 . pi(b)) on all basis pairs.

    Raises InvalidAlgebraError when the action fails the module-algebra
    axioms, and ValueError when crossed_hom_report finds pi is not a
    coalgebra map.
    """
    k, h = action.acting, action.target
    if pi.domain is not k or pi.codomain is not h:
        raise ValueError("map endpoints must match the action")
    _require_action(action, False)
    return _crossed_hom_verdict(pi, action)


def _crossed_hom_verdict(pi: LinMap, action: ActionData) -> bool:
    """crossed_hom_report's verdict on pi, with no check of the action;
    raises ValueError when pi is not a coalgebra map."""
    report = crossed_hom_report(action, pi.cols)
    if any(f[0] == "coalgebra" for f in report.failures):
        raise ValueError("map is not a coalgebra homomorphism")
    return report.ok


def crossed_hom_report(action: IntAction, cols) -> CheckReport:
    """The crossed-homomorphism verdict, skip-aware, with no precondition
    checks: the coalgebra_map_report entries of pi, then
    pi(ab) = pi(a1)(a2 . pi(b)) on all basis pairs (a, b) of K.

    cols[a] is pi(basis a) in H, or None where that image is unknown, for
    the action of K = action.acting on H = action.target.  A pair whose
    evaluation needs an unknown column or leaves a truncated carrier's
    budget is skipped as (a, b, message); checked counts the pairs.

    The pair loop runs on the carriers' integer structure tables, pi's
    integer columns and the action's act_int, in the order of the
    rational evaluation: pi(ab), then per term pi(a1) times a2 . pi(b),
    so a skipped pair carries the message of the first error that
    evaluation raises.
    """
    k, h = action.acting, action.target
    icols, cden = cols = int_columns(cols)
    co = coalgebra_map_report(k, h, cols)
    failures = co.failures
    skipped = co.skipped
    act_int = action.act_int
    tk, th = int_structure(k), int_structure(h)
    # pi(ab) carries cden * K's mult_den, the sum over the terms
    # cden^2 * den times K's comult_den and H's mult_den
    lhs_scale = cden * tk.comult_den * th.mult_den * action.den
    rhs_scale = tk.mult_den

    def term(a1: int, a2: int, pib):
        """pi(a1)(a2 . pi(b)) for the integer column pib of pi(b)."""
        pia = icols[a1]
        if pia.__class__ is OutOfBudgetError or pib.__class__ is OutOfBudgetError:
            raise OutOfBudgetError("image unknown")
        return th.mul(pia, act_int(a2, pib))

    checked = 0
    for a in range(k.dim):
        row = tk.mult[a]
        terms = tk.comult[a]
        for b in range(k.dim):
            pib = icols[b]
            try:
                lhs = _apply_int(icols, _stored(row[b]))
                rhs = _combine((c, term(a1, a2, pib)) for a1, a2, c in terms)
            except OutOfBudgetError as exc:
                skipped.append((a, b, str(exc)))
                continue
            checked += 1
            if [(p, v * lhs_scale) for p, v in lhs] != [(p, v * rhs_scale) for p, v in rhs]:
                failures.append((a, b))
    return CheckReport(not failures, failures, skipped, checked)


class CrossedHom(Record):
    """A verified crossed homomorphism together with its action."""

    _fields = ("map", "action", "verified")

    def __init__(self, map: LinMap, action: ActionData, verified: bool = False):
        self.map = map
        self.action = action
        self.verified = verified

    @classmethod
    def verify(cls, pi: LinMap, action: ActionData) -> "CrossedHom":
        if not check_crossed_hom(pi, action):
            raise ValueError("crossed homomorphism identity fails")
        return cls(pi, action, True)


def crossed_hom_properties(ch: CrossedHom) -> AxiomReport:
    """The convolution-calculus identities every crossed homomorphism
    satisfies: pi(1) = 1, the two antipode exchange laws, and S pi being
    the convolution inverse of pi."""
    if not ch.verified:
        raise ValueError("verify the crossed homomorphism first")
    pi, action = ch.map, ch.action
    k, h = action.acting, action.target
    report = AxiomReport()

    report.record("preserves-unit", pi.apply(k.unit_vec()) == h.unit_vec())

    s_k, s_pi = antipode_map(k), antipode_map(h).compose(pi)
    t = int_structure(k)

    def acted(u: IntColumns, v: IntColumns, a: int) -> list:
        """u(a1) . v(a2) over comult_den * u.den * v.den * den, for basis a."""
        return _combine((c * x, action.act_int(b, v.cols[a2]))
                        for a1, a2, c in t.comult[a] for b, x in u.cols[a1])

    for axiom, lhs, u, v in (("S.pi = a1 . pi(S a2)", s_pi, identity_map(k), pi.compose(s_k)),
                             ("pi.S = S(a1) . S pi(a2)", pi.compose(s_k), s_k, s_pi)):
        (lcols, lden), rden = lhs.cols, t.comult_den * u.cols.den * v.cols.den * action.den
        fails = [(a,) for a in range(k.dim) if [(p, m * rden) for p, m in lcols[a]]
                 != [(p, m * lden) for p, m in acted(u.cols, v.cols, a)]]
        report.record(axiom, not fails, _first_witness(fails))

    unit = unit_counit_map(k, h)
    left = convolve(pi, s_pi)
    right = convolve(s_pi, pi)
    report.record("convolution-inverse", left == unit and right == unit)
    return report


# -- smash products -----------------------------------------------------------

class TruncatedSmash(CarrierOps):
    """H # K for truncated or finite-dimensional carriers, the one smash
    builder.

    Basis pairs (x, a) in row-major order, those of total degree within
    the budget; a carrier without a degree has degree 0, so over finite
    carriers with the default infinite budget every pair is kept.
    Multiplication (x # a)(y # b) = x(a1 . y) # a2 b and antipode
    S(x # a) = (S(a1) . S(x)) # S(a2), for a module-algebra action of
    K = action.acting on H = action.target.  coradical_group_basis is the
    whole pair index when both factors declare their whole basis
    group-like, and None otherwise.
    """

    def __init__(self, action: IntAction, budget=math.inf, name: str = "smash"):
        self.action = action
        self.h = h = action.target
        self.k = k = action.acting
        self.budget = budget
        self.name = name
        hdeg = getattr(h, "degree", None) or (lambda i: 0)
        kdeg = getattr(k, "degree", None) or (lambda i: 0)
        self.pairs = [(x, a) for x in range(h.dim) for a in range(k.dim)
                      if hdeg(x) + kdeg(a) <= budget]
        self.index = {p: i for i, p in enumerate(self.pairs)}
        self.dim = len(self.pairs)
        grouplike = all(set(getattr(f, "coradical_group_basis", None) or ()) == set(range(f.dim))
                        for f in (h, k))
        self.coradical_group_basis = list(range(self.dim)) if grouplike else None
        self._hdeg = hdeg
        self._kdeg = kdeg
        self._mult_cache: dict = {}

    def degree(self, i: int) -> int:
        x, a = self.pairs[i]
        return self._hdeg(x) + self._kdeg(a)

    def label(self, i: int) -> str:
        x, a = self.pairs[i]
        return f"{self.h.label(x)}#{self.k.label(a)}"

    def unit_vec(self) -> Vec:
        return smash_vec(self, self.h.unit_vec(), self.k.unit_vec())

    def mult_terms(self, i: int, j: int):
        """The sparse product of pairs i and j, or the first OutOfBudgetError
        forming it meets, unraised; computed once."""
        cached = self._mult_cache.get((i, j))
        if cached is None:
            cached = self._mult_cache[(i, j)] = _attempt(self._product, i, j)
        return cached

    def _product(self, i: int, j: int) -> list:
        if self.degree(i) + self.degree(j) > self.budget:
            raise OutOfBudgetError("smash product exceeds budget",
                                   degrees=(self.degree(i), self.degree(j)))
        x, a = self.pairs[i]
        y, b = self.pairs[j]
        th, tk = int_structure(self.h), int_structure(self.k)
        act_int = self.action.act_int
        # x (a1 . y) # a2 b, factors in the rational order, so errors match
        terms = _combine((c, self.pair(th.mul(((x, 1),), act_int(a1, ((y, 1),))),
                                       _stored(tk.mult[a2][b])))
                         for a1, a2, c in tk.comult[a])
        den = tk.comult_den * th.mult_den * self.action.den * tk.mult_den
        return [(p, Fraction(m, den)) for p, m in terms]

    def comult_triples(self, i: int):
        x, a = self.pairs[i]
        return [(self.index[(x1, a1)], self.index[(x2, a2)], c * d)
                for (x1, x2, c) in self.h.comult_triples(x)
                for (a1, a2, d) in self.k.comult_triples(a)]

    def counit_coeff(self, i: int):
        x, a = self.pairs[i]
        return self.h.counit_coeff(x) * self.k.counit_coeff(a)

    def antipode_basis(self, i: int) -> Vec:
        x, a = self.pairs[i]
        th, tk = int_structure(self.h), int_structure(self.k)
        act_int = self.action.act_int
        sx = _stored(th.antipode[x])
        # (S(a1) . S(x)) # S(a2)
        terms = _combine((c, self.pair(_combine((s, act_int(p, sx))
                                                for p, s in _stored(tk.antipode[a1])),
                                       _stored(tk.antipode[a2])))
                         for a1, a2, c in tk.comult[a])
        den = th.antipode_den * tk.comult_den * tk.antipode_den ** 2 * self.action.den
        return _rat_vec(terms, den, self.dim)

    def pair(self, u, v) -> list:
        """The sparse integer vector u # v over the pair index, for sparse
        integer vectors u of H and v of K; a pair outside a truncated index
        raises OutOfBudgetError."""
        index = self.index
        out = []
        for x, p in u:
            for a, q in v:
                i = index.get((x, a))
                if i is None:
                    raise OutOfBudgetError("smash component out of budget")
                out.append((i, p * q))
        return out

    def __repr__(self):
        return f"TruncatedSmash({self.name}, dim={self.dim})"


def smash_vec(smash, hvec: Vec, kvec: Vec) -> Vec:
    """hvec # kvec over the pair index of a smash builder (see pair)."""
    den, (u, v) = _sparse_ints([hvec, kvec])
    return _rat_vec(smash.pair(u, v), den * den, smash.dim)


def _validated_smash(action: IntAction) -> TruncatedSmash:
    """The smash builder of an action, validated as a Hopf algebra, with no
    check of the action itself."""
    smash = TruncatedSmash(action, name=f"{action.target.name}#{action.acting.name}")
    rep = validate_hopf(smash)
    if not rep.ok:
        raise AssertionError(f"smash product failed Hopf axioms: {rep.failures()}")
    return smash


def smash_product(action: ActionData) -> TruncatedSmash:
    """H # K for a module-bialgebra action of a cocommutative K: the smash
    builder, validated as a Hopf algebra."""
    if not is_cocommutative(action.acting):
        raise ValueError("the acting Hopf algebra must be cocommutative")
    _require_action(action, True)
    return _validated_smash(action)


def _graph_column(t, icols, a: int, smash) -> list:
    """comult_den * pi(a1) # a2 over icols' denominator, for K's integer
    structure table t; an unknown column, or a pair outside a truncated
    index, raises OutOfBudgetError."""
    return _combine((c, smash.pair(_stored(icols[a1]), ((a2, 1),))) for a1, a2, c in t.comult[a])


class GraphResult(Record):
    _fields = ("basis", "closed", "witness")

    def __init__(self, basis: list, closed: bool, witness: tuple | None):
        self.basis = basis  # int_echelon rows of Gr_pi inside H # K, in pivot order
        self.closed = closed  # closure under the smash multiplication
        self.witness = witness


def graph_of(pi: LinMap, action: ActionData, smash=None) -> GraphResult:
    """Span of (pi (x) id) Delta over the basis of K inside H # K, with a
    subalgebra verdict.  For a coalgebra map pi, which the caller checks
    (check_crossed_hom does), the verdict matches the crossed-homomorphism
    identity (graph characterization).  smash is the action's builder,
    built here by default.

    The basis is the int_echelon rows of the integer graph columns, and
    the witness (i, j) the first pair of basis rows, in pivot order, whose
    product leaves their span."""
    smash = smash or TruncatedSmash(action)
    t = int_structure(pi.domain)
    n = smash.dim
    basis, _ = int_echelon([dict(_graph_column(t, pi.cols.cols, a, smash))
                            for a in range(pi.domain.dim)], n)
    mul = int_structure(smash).mul
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            if rank(basis + [mul(u.items(), v.items())], n) > len(basis):
                return GraphResult(basis, False, (i, j))
    return GraphResult(basis, True, None)


def graph_hopf_iso(ch: CrossedHom, smash: TruncatedSmash | None = None):
    """Psi : K -> Gr_pi, a -> pi(a1) # a2, with inverse eps (x) id.

    Returns (Psi, inverse, report); K must be cocommutative.
    """
    pi, action = ch.map, ch.action
    k, h = action.acting, action.target
    if not is_cocommutative(k):
        raise ValueError("K must be cocommutative")
    if not ch.verified:
        raise ValueError("verify the crossed homomorphism first")
    smash = smash or smash_product(action)
    nk = k.dim
    cols, den = pi.cols
    tk, th = int_structure(k), int_structure(h)
    psi = LinMap(k, smash, IntColumns([_graph_column(tk, cols, a, smash) for a in range(nk)],
                                      den * tk.comult_den))
    eps_id = LinMap(smash, k, IntColumns([((a, e),) if e else () for e in th.counit
                                          for a in range(nk)], th.counit_den))

    report = AxiomReport()
    report.record("algebra-hom", is_algebra_hom(psi))
    report.record("coalgebra-hom", is_coalgebra_hom(psi))
    report.record("eps-id-section", eps_id.compose(psi) == identity_map(k))
    basis = graph_of(pi, action, smash=smash).basis
    report.record("lands-in-graph",
                  rank(basis + list(psi.cols.cols), smash.dim) == len(basis))
    # Psi on Gr: composite the other way restricted to the graph, on the
    # integer rows, so back(v) = v reads den * v on back's columns
    back, bden = psi.compose(eps_id).cols
    report.record("identity-on-graph",
                  all(_apply_int(back, v.items()) == [(p, x * bden) for p, x in sorted(v.items())]
                      for v in basis))
    report.record("commutes-with-antipode",
                  psi.compose(antipode_map(k)) == antipode_map(smash).compose(psi))
    return psi, eps_id, report


# -- derived structures --------------------------------------------------------

def _derived_module_columns(pi: LinMap, action: IntAction):
    """x -> the IntColumns of a -> a ._pi x = pi(a1)(a2 . x), the
    convolution of pi with a -> a . x read from basis_values()."""
    k, h = action.acting, action.target
    values = action.basis_values()
    return lambda x: convolve_columns(
        k, h, pi.cols, IntColumns([row[x] for row in values], action.den))


def derived_module_structure(pi: LinMap, action: ActionData) -> AxiomReport:
    """Associativity of a ._pi x = pi(a1)(a2 . x); the verdict matches the
    crossed-homomorphism identity (module characterization)."""
    derived = _convolved_action(action.acting, action.target,
                                _derived_module_columns(pi, action))
    fails = module_axiom_report(derived, ("module",)).failures
    report = AxiomReport()
    report.record("derived-module-associativity", not fails, fails[0][1:] if fails else None)
    return report


def derived_action(ch: CrossedHom) -> tuple[ActionData, CrossedHom, AxiomReport]:
    """The derived module-bialgebra action a ._pi x = ad_{pi(a1)}(a2 . x)
    for cocommutative K, together with the derived crossed homomorphism
    S o pi, both verified.  The group-like and primitive restriction
    formulas are checked as part of the report."""
    pi, action = ch.map, ch.action
    k, h = action.acting, action.target
    if not is_cocommutative(k):
        raise ValueError("K must be cocommutative")
    if not ch.verified:
        raise ValueError("verify the crossed homomorphism first")

    # pi(a1)(a3 . x) S(pi(a2)) = (pi * (a -> a . x) * S pi)(a), K cocommutative
    s_pi = antipode_map(h).compose(pi)
    module = _derived_module_columns(pi, action)
    derived = _convolved_action(k, h, lambda x: convolve_columns(
        k, h, module(x), s_pi.cols))

    report = validate_action(derived, require_bialgebra=True)
    report.record("derived-crossed-hom",
                  crossed_hom_report(derived, s_pi.cols).ok)

    # Restriction formulas on group-likes and primitives
    fails = []
    for gi, g in enumerate(grouplikes(k).elements):
        pg = pi.apply(g)
        pg_inv = h.antipode_vec(pg)
        for x in range(h.dim):
            xv = basis_vec(h.dim, x)
            lhs = derived.act(g, xv)
            rhs = h.mult_vec(h.mult_vec(pg, action.act(g, xv)), pg_inv)
            if lhs != rhs:
                fails.append((gi, x))
    report.record("grouplike-restriction", not fails, fails[0] if fails else None)

    fails = []
    for ai, a in enumerate(primitives(k)):
        pa = pi.apply(a)
        for x in range(h.dim):
            xv = basis_vec(h.dim, x)
            lhs = derived.act(a, xv)
            bracket = vec_sub(h.mult_vec(pa, xv), h.mult_vec(xv, pa))
            rhs = vec_add(bracket, action.act(a, xv))
            if lhs != rhs:
                fails.append((ai, x))
    report.record("primitive-restriction", not fails, fails[0] if fails else None)

    derived_ch = CrossedHom(s_pi, derived, verified=report.ok)
    return derived, derived_ch, report
