"""Difference-operator calculus on Hopf algebras.

A difference operator is a coalgebra endomorphism D with
D(xy) = D(x1) x2 D(y) S(x3).  This module verifies operators, relates
them to algebra endomorphisms through convolution, builds the monoid on
the verified set, conjugates by automorphisms, inverts to Rota-Baxter
operators, and extends compatible pairs to smash products.

:func:`check_diffop` is the one difference-operator verdict, for finite
and degree-truncated carriers (:mod:`hopfdiff.truncated`) alike.  It takes
a :class:`hopfdiff.hopf.LinMap`, its IntColumns, or a column table with
unknown images; pairs whose evaluation would leave the degree budget are
reported as skipped, never silently passed.

On a finite Hopf algebra whose axioms pass, the difference identity is
proven from generator rows: it is linear in x, and it holds at x = wg
once it holds at x = w and x = g (the derivation is in
:func:`_closure_verdict`), so checking x = 1 and each generator of
:func:`hopfdiff.hopf.generating_rows` against every basis element y
proves it on every pair.  :func:`is_diffop` is that verdict, stopping at
the first failure, and phase 4 of the classification solver uses it.
:func:`check_diffop` returns its DiffOp when it passes; on any failure it
runs the full scan, so every report, witness and ``checked`` count is
the full scan's.  Truncated carriers, column tables and algebras without
a unit basis vector always take the full scan.

The exhaustive coalgebra-map and difference-identity checks run on
integer numerators: the carrier's integer structure table
(:func:`hopfdiff.hopf.int_structure`) and the candidate's integer
columns, compared cross-multiplied by their known denominators.  Every
operator passes between functions as integer columns and no ``Fraction``
is built here, so every report is the one rational arithmetic gives.  The
Rota-Baxter check and inverse and the smash layer read the same tables;
the extension D(x # a) = D_H(x1) x2 (D_K(a1) . S_H(x3)) # D_K(a2) of a
compatible pair is the convolution F * S, F = D * id on each factor
(:func:`smash_extension_columns`).
"""

from __future__ import annotations

from math import gcd

from .exactlin import Record, rank
from .hopf import (
    CheckReport,
    FinDimHopf,
    IntColumns,
    LinMap,
    OutOfBudgetError,
    _apply_int,
    _attempt,
    _canonical,
    _combine,
    _copy,
    _flat,
    _sparse_ints,
    _stored,
    axiom_report,
    generating_rows,
    int_structure,
    is_cocommutative,
)
from .maps import (antipode_map, coalgebra_map_failures, coalgebra_map_report, convolve,
                   convolve_columns, identity_map, int_columns, inverse_columns,
                   is_hopf_automorphism)


class DiffOp(Record):
    """A verified difference operator; bijective is a rank test."""

    _fields = ("map", "verified", "bijective")

    def __init__(self, map: LinMap, verified: bool, bijective: bool):
        self.map = map
        self.verified = verified
        self.bijective = bijective


def _identity_failures(h, scaled: IntColumns, rows):
    """(i, j, None) for each pair at which D(xy) = D(x1) x2 D(y) S(x3)
    fails and (i, j, message) for each skipped pair, over x = e_i for i in
    rows and y = e_j for every j, in that order, for the integer columns
    of D.

    Each pair's products are taken in the order the rational evaluation
    takes them: D(xy), then per term D(x1) x2, times D(y), times S(x3).
    The first one that leaves a truncated carrier's budget, or needs an
    unknown column of a column table (see int_columns), skips the pair
    with that OutOfBudgetError message.
    """
    t = int_structure(h)
    cols, den = scaled
    n = h.dim
    # lhs carries den * mult_den, rhs den^2 * mult_den^3 * antipode_den * sweedler_den
    lhs_scale = den * t.mult_den ** 2 * t.antipode_den * t.sweedler_den
    # right[m][k] is mult_den * e_k S(e_m), or the OutOfBudgetError that
    # forming it raises, filled on first read: mul(mid, S(e_m)) is the sum
    # of mid's rows, and reading them in mid's order meets the first error
    # mul would raise
    right = [[None] * n for _ in range(n)]
    for i in rows:
        # D(t1) t2 does not depend on y; a budget error is kept and raised
        # again by mul only when the pair loop reaches that term
        terms = [(_attempt(t.mul, cols[t1], ((t2, 1),)), t3, w)
                 for (t1, t2, t3, w) in t.sweedler3[i]]
        for j in range(n):
            try:
                lhs = _apply_int(cols, _stored(t.mult[i][j]))
                # dense on purpose (see hopfdiff.hopf)
                rhs = [0] * n
                for left, t3, w in terms:
                    mid = t.mul(left, cols[j])
                    s = _stored(t.antipode[t3])
                    right_t3 = right[t3]
                    for k, x in mid:
                        row = right_t3[k]
                        if row is None:
                            row = right_t3[k] = _attempt(t.mul, ((k, 1),), s)
                        if row.__class__ is OutOfBudgetError:
                            raise _copy(row)
                        wx = w * x
                        for r, y in row:
                            rhs[r] += wx * y
            except OutOfBudgetError as exc:
                yield i, j, str(exc)
                continue
            if [(r, x * lhs_scale) for r, x in lhs] != [(r, x) for r, x in enumerate(rhs) if x]:
                yield i, j, None


def diff_identity_report(h, matrix) -> CheckReport:
    """D(xy) = D(x1) x2 D(y) S(x3) on all basis pairs, skip-aware: a pair
    that needs a product beyond a truncated carrier's budget, or an
    unknown column, is skipped with that message (_identity_failures)."""
    failures = []
    skipped = []
    for i, j, message in _identity_failures(h, int_columns(matrix), range(h.dim)):
        if message is None:
            failures.append((i, j))
        else:
            skipped.append((i, j, message))
    return CheckReport(not failures, failures, skipped, h.dim ** 2 - len(skipped))


def _square(h, candidate) -> IntColumns:
    """The IntColumns of a candidate operator on h (see check_diffop); one
    that is not h.dim x h.dim raises ValueError."""
    if isinstance(candidate, LinMap):
        shape = {candidate.domain.dim, candidate.codomain.dim}
    elif isinstance(candidate, IntColumns):
        shape = {len(candidate.cols)}
    else:
        shape = {len(candidate)} | {len(c) for c in candidate if c is not None}
    if shape != {h.dim}:
        raise ValueError(f"a difference operator on {h.name} is a {h.dim} x {h.dim} matrix")
    return int_columns(candidate)


def _closure_rows(h):
    """generating_rows(h) for a FinDimHopf whose Hopf axioms pass, else
    None."""
    if isinstance(h, FinDimHopf) and axiom_report(h).ok:
        return generating_rows(h)
    return None


def _closure_verdict(h, scaled: IntColumns, rows) -> DiffOp | None:
    """The DiffOp of scaled when it is a coalgebra map and the difference
    identity holds on the closure rows, else None; both checks stop at
    their first failure.

    This proves the identity on every pair.  It is linear in x, and with
    rows = generating_rows(h) the lemma stated there needs one step: if
    it holds at x = w and x = g for every y, it holds at x = wg.  Write
    Delta^2(x) = x1 (x) x2 (x) x3 for the iterated comultiplication.  By
    associativity and w, then g,
      D((wg)y) = D(w(gy)) = D(w1) w2 D(gy) S(w3)
               = D(w1) w2 D(g1) g2 D(y) S(g3) S(w3).
    Delta is multiplicative, so Delta^2(wg) = w1g1 (x) w2g2 (x) w3g3, and
    by w at y = g1, coassociativity, the antipode S(w3) w4 = eps(w3) 1,
    the counit, and S(ab) = S(b)S(a),
      D(w1g1) w2g2 D(y) S(w3g3)
          = D(w1) w2 D(g1) S(w3) w4 g2 D(y) S(w5 g3)
          = D(w1) w2 D(g1) g2 D(y) S(g3) S(w3),
    the same element.  Only the Hopf axioms of h, which _closure_rows
    requires, are used; that D is a coalgebra map is not.
    """
    if next(coalgebra_map_failures(h, h, scaled), None) is not None:
        return None
    if next(_identity_failures(h, scaled, rows), None) is not None:
        return None
    return _verified(h, scaled)


def is_diffop(h, candidate) -> DiffOp | None:
    """The DiffOp of a candidate (see check_diffop) that is a difference
    operator on h, else None, stopping at the first failure.

    On a FinDimHopf whose axiom_report passes and that has
    generating_rows, the difference identity is read on those rows only
    (_closure_verdict proves that this suffices); on any other carrier the
    verdict is check_diffop's.
    """
    scaled = _square(h, candidate)
    rows = _closure_rows(h)
    if rows is None:
        res = check_diffop(h, candidate)
        return res if isinstance(res, DiffOp) else None
    return _closure_verdict(h, scaled, rows)


def check_diffop(h, candidate) -> DiffOp | CheckReport:
    """The difference-operator verdict on a carrier, finite or truncated.

    The candidate is a LinMap, an IntColumns, or a column table with None
    for an unknown image, read as integer columns once for every check.
    A LinMap or IntColumns passing is_diffop's closure check, or else both
    exhaustive checks on every basis pair, comes back as a DiffOp.
    Otherwise, and always for a column table, the report comes back, with
    the coalgebra_map_report entries and then diff_identity_report's:
    failures or honest partial coverage are data, not exceptions.  A
    candidate that is not h.dim x h.dim raises ValueError.
    """
    scaled = _square(h, candidate)
    whole = isinstance(candidate, (LinMap, IntColumns))
    rows = _closure_rows(h) if whole else None
    if rows is not None and (op := _closure_verdict(h, scaled, rows)) is not None:
        return op
    co = coalgebra_map_report(h, h, scaled)
    ident = diff_identity_report(h, scaled)
    failures = co.failures + ident.failures
    skipped = co.skipped + ident.skipped
    if failures or skipped or not whole:
        return CheckReport(not failures, failures, skipped, ident.checked)
    return _verified(h, scaled)


def _verified(h, cols: IntColumns) -> DiffOp:
    """The DiffOp of columns proven to be a difference operator on h."""
    d = LinMap(h, h, cols)
    return DiffOp(d, verified=True, bijective=rank(d.cols.cols, h.dim) == h.dim)


def diff_to_endo(h: FinDimHopf, d: LinMap) -> LinMap:
    """F = D * id (convolution)."""
    return convolve(d, identity_map(h))


def endo_to_diff(h: FinDimHopf, f: LinMap) -> LinMap:
    """D = F * S (convolution)."""
    return convolve(f, antipode_map(h))


# -- the monoid on integer operator forms ----------------------------------------

def _operator_form(h, matrix) -> tuple[IntColumns, IntColumns]:
    """(D, F) for an operator D given as a LinMap, an IntColumns or a
    column table and F = D * id, both as IntColumns."""
    d = int_columns(matrix)
    return d, convolve_columns(h, h, d, identity_map(h).cols)


def _key(flat: list, den: int) -> tuple:
    """A flat dense matrix over den as a canonical key: the flat tuple over
    the smallest denominator."""
    g = gcd(den, *flat)
    return tuple(flat if g == 1 else [x // g for x in flat]), den // g


def _same(u: list, du: int, v: list, dv: int) -> bool:
    """u / du == v / dv for flat integer lists, cross-multiplied."""
    return u == v if du == dv else [x * dv for x in u] == [x * du for x in v]


def _star_row(h, a: tuple, bs: list) -> list:
    """The keys (see _key) of D * D' for the operator form a = (D, F) and
    each b = (D', F') in bs, F = D * id.

    With D(e_k) = sum c e_i (x) e_j, the two defining formulas are
    ((F o D') * D)(e_k) = sum c sum_r D'(e_i)_r F(e_r) D(e_j) and
    ((D o F') * D')(e_k) = sum c sum_r F'(e_i)_r sum_s D'(e_j)_s D(e_r) e_s,
    so the products F(e_r) D(e_j) and D(e_r) e_s are tabulated once for a
    and dropped after the row.  Both formulas are formed as flat integer
    lists and must agree, compared cross-multiplied; only the agreed
    product gets its key.
    """
    t = int_structure(h)
    n = h.dim
    d, f = a
    fd = [[t.mul(fr, dj) for dj in d.cols] for fr in f.cols]
    de = [[t.mul(dr, ((s, 1),)) for s in range(n)] for dr in d.cols]
    # first is over den * D'.den * F.den, second over den * D'.den * F'.den
    den = t.comult_den * t.mult_den * d.den
    keys = []
    for dprime, fprime in bs:
        first = [0] * (n * n)
        second = [0] * (n * n)
        for k, terms in enumerate(t.comult):
            o = k * n
            for i, j, c in terms:
                for r, x in dprime.cols[i]:
                    for p, y in fd[r][j]:
                        first[o + p] += c * x * y
                dj = dprime.cols[j]
                for r, x in fprime.cols[i]:
                    row = de[r]
                    for s, y in dj:
                        cxy = c * x * y
                        for p, z in row[s]:
                            second[o + p] += cxy * z
        if not _same(first, f.den, second, fprime.den):
            raise ValueError("the two defining formulas disagree; is H cocommutative?")
        keys.append(_key(first, den * dprime.den * f.den))
    return keys


def star(h: FinDimHopf, d: LinMap, dprime: LinMap) -> DiffOp:
    """The monoid product D * D' on difference operators of a
    cocommutative Hopf algebra.

    Both defining expressions ((D*id) o D') * D and (D o (D'*id)) * D'
    are computed on integer operator forms and must agree; the result is
    re-verified.
    """
    if not is_cocommutative(h):
        raise ValueError("the star product needs a cocommutative Hopf algebra")
    [(flat, den)] = _star_row(h, _operator_form(h, d), [_operator_form(h, dprime)])
    n = h.dim
    # flat runs column after column
    result = check_diffop(h, IntColumns([[(r, x) for r, x in enumerate(flat[o:o + n]) if x]
                                         for o in range(0, n * n, n)], den))
    if not isinstance(result, DiffOp):
        raise ValueError(f"star product failed verification: {result.witness}")
    return result


def monoid_table(h: FinDimHopf, ops: list[DiffOp]) -> tuple[list, bool, bool]:
    """(table, associative, transport_is_monoid_map) for the star product
    on a list of verified difference operators of a cocommutative h.

    table[i][j] is the first k with ops[k] = ops[i] * ops[j].  Each
    operator gets its integer form and F = D * id once; each row of
    products is formed by _star_row and every product is looked up by
    its key among the operators', so a product in the list is a
    difference operator by that operator's exhaustive check.  A product
    outside the list raises LookupError.  The transport D -> D * id is
    checked as F(D * D') = F(D) o F(D'), with the composite as a flat
    integer list cross-multiplied against the stored F.
    """
    if not is_cocommutative(h):
        raise ValueError("the star product needs a cocommutative Hopf algebra")
    n = h.dim
    forms = [_operator_form(h, op.map) for op in ops]
    index: dict = {}
    for k, (d, _) in enumerate(forms):
        index.setdefault(_key(_flat(d, n), d.den), k)
    endos = [_flat(f, n) for _, f in forms]
    table = []
    transport_ok = True
    for a in forms:
        row = []
        f = a[1]
        for key, (_, fprime) in zip(_star_row(h, a, forms), forms):
            match = index.get(key)
            if match is None:
                raise LookupError("star product left the enumerated set")
            row.append(match)
            if transport_ok:
                composite = [0] * (n * n)
                for o, col in zip(range(0, n * n, n), fprime.cols):
                    for r, x in col:
                        for p, y in f.cols[r]:
                            composite[o + p] += x * y
                transport_ok = _same(composite, f.den * fprime.den,
                                     endos[match], forms[match][1].den)
        table.append(row)
    # (ij)k = i(jk) for every k at once: row ij of the table against row i
    # read through row j
    associative = ([table[ij] for row in table for ij in row]
                   == [list(map(row.__getitem__, other)) for row in table for other in table])
    return table, associative, transport_ok


def conjugate(h: FinDimHopf, sigma: LinMap, d: LinMap) -> DiffOp:
    """sigma o D o sigma^-1 for a verified Hopf automorphism sigma."""
    if not is_hopf_automorphism(sigma):
        raise ValueError("sigma is not a Hopf algebra automorphism")
    sigma_inv = LinMap(h, h, inverse_columns(sigma.cols))
    result = check_diffop(h, sigma.compose(d).compose(sigma_inv))
    if not isinstance(result, DiffOp):
        raise ValueError(f"conjugated operator failed verification: {result.witness}")
    return result


def rota_baxter_identity_report(h, matrix) -> CheckReport:
    """B(x)B(y) = B(x1 B(x2) y S(B(x3))) on all basis pairs, on the integer
    structure table and B's integer columns, in that product order."""
    t = int_structure(h)
    cols, den = int_columns(matrix)
    n = h.dim
    sb = [_apply_int(t.antipode, col) for col in cols]  # S(B(e_k))
    # B(x)B(y) carries den^2 mult_den, each term sweedler_den mult_den^3
    # antipode_den den^3
    lhs_scale = t.sweedler_den * t.mult_den ** 2 * t.antipode_den * den
    failures = []
    for i in range(n):
        terms = [(t.mul(((t1, 1),), cols[t2]), t3, w) for t1, t2, t3, w in t.sweedler3[i]]
        for j in range(n):
            lhs = t.mul(cols[i], cols[j])
            rhs = _combine((w, _apply_int(cols, t.mul(t.mul(left, ((j, 1),)), sb[t3])))
                           for left, t3, w in terms)
            if [(p, v * lhs_scale) for p, v in lhs] != rhs:
                failures.append((i, j))
    return CheckReport(not failures, failures, [], n * n)


def rota_baxter_inverse(h: FinDimHopf, d: DiffOp) -> tuple[LinMap, CheckReport]:
    """B = D^-1 with the Rota-Baxter identity verified exhaustively, and
    the round trip (B^-1 is again a difference operator, and is D) checked."""
    if not is_cocommutative(h):
        raise ValueError("Rota-Baxter inversion needs a cocommutative Hopf algebra")
    if not d.bijective:
        raise ValueError("singular: the operator has no inverse")
    b = inverse_columns(d.map.cols)
    report = rota_baxter_identity_report(h, b)
    if report.ok:
        back = inverse_columns(b)
        round_trip = check_diffop(h, back)
        if not isinstance(round_trip, DiffOp) or back != d.map.cols:
            report = CheckReport(False, [("round-trip",)], [], report.checked)
    return LinMap(h, h, b), report


# -- difference module bialgebras and smash extensions -------------------------

class DiffModuleBialgebra(Record):
    """A compatible pair of difference Hopf algebras over an action of
    K = action.acting on H = action.target."""

    _fields = ("d_h", "d_k", "action", "verified")

    def __init__(self, d_h: LinMap, d_k: LinMap, action: "ActionData", verified: bool = False):
        self.d_h = d_h
        self.d_k = d_k
        self.action = action
        self.verified = verified


def compatibility_failures(action, d_h, d_k) -> list:
    """Label pairs (a, x), a before x, at which D_H(a1 . x1)(a2 . x2) =
    D_K(a1) a2 . D_H(x1) x2 fails, for operators d_h and d_k (IntColumns
    or column tables) and a module-bialgebra action of K = action.acting
    on H = action.target.

    With F = D * id (_operator_form) it reads F_H(a . x) = F_K(a) . F_H(x),
    as D(a . x) = (a1 . x1) (x) (a2 . x2) for a module bialgebra.  Both
    callers meet that: check_diff_module_bialgebra validates the action
    first, and the sign action of ckmm-mixed is a module bialgebra.
    """
    h, k = action.target, action.acting
    (fh, fh_den), (fk, fk_den) = _operator_form(h, d_h)[1], _operator_form(k, d_k)[1]
    values = action.basis_values()
    failures = []
    for a in range(k.dim):
        fa = _stored(fk[a])
        for x in range(h.dim):
            # F_H(a . x) carries den * fh_den, F_K(a) . F_H(x) fk_den more
            lhs = _apply_int(fh, _stored(values[a][x]))
            rhs = _combine((c, action.act_int(b, _stored(fh[x]))) for b, c in fa)
            if [(p, v * fk_den) for p, v in lhs] != rhs:
                failures.append((k.label(a), h.label(x)))
    return failures


def check_diff_module_bialgebra(action, d_h: LinMap, d_k: LinMap
                                ) -> DiffModuleBialgebra | CheckReport:
    """D_H(a1 . x1)(a2 . x2) = D_K(a1) a2 . D_H(x1) x2 on all basis pairs,
    for the action of K = action.acting on H = action.target."""
    from .actions import _require_action

    h, k = action.target, action.acting
    if not is_cocommutative(h) or not is_cocommutative(k):
        raise ValueError("both Hopf algebras must be cocommutative")
    _require_action(action, True)
    for name, hh, dd in (("H", h, d_h), ("K", k, d_k)):
        if dd.domain.dim != hh.dim or dd.codomain.dim != hh.dim:
            raise ValueError(f"D_{name} is not an operator on {hh.name}")
        res = check_diffop(hh, dd)
        if not isinstance(res, DiffOp):
            raise ValueError(f"D_{name} is not a difference operator: {res.witness}")

    failures = compatibility_failures(action, d_h.cols, d_k.cols)
    if failures:
        return CheckReport(False, failures, [], k.dim * h.dim)
    return DiffModuleBialgebra(d_h, d_k, action, verified=True)


def smash_extension_columns(action, d_h, d_k, smash) -> IntColumns:
    """The IntColumns of D(x # a) = D_H(x1) x2 (D_K(a1) . S_H(x3)) # D_K(a2),
    one column per pair (x, a) of the smash builder's index, in its order,
    for operators d_h and d_k of a compatible pair (compatibility_failures)
    of cocommutative factors; a column that leaves a budget is its error.

    D is F * S, for F(x # a) = F_H(x) # F_K(a) and F = D * id on each
    factor (_operator_form), a Hopf endomorphism of it.  So F is unital, a
    coalgebra map of the tensor coalgebra H # K, and multiplicative: as
    F_K is a coalgebra map, F(x # a) F(y # b) =
    F_H(x)(F_K(a1) . F_H(y)) # F_K(a2) F_K(b), which compatibility,
    F_H(a . y) = F_K(a) . F_H(y), makes F(x(a1 . y) # a2 b).  So F * S
    is a difference operator on the cocommutative H # K.  As
    S(x # 1) = S_H(x) # 1 and H # 1 is a subalgebra, it maps x # 1 to
    (F_H * S_H)(x) # 1 = D_H(x) # 1, and 1 # a to 1 # D_K(a) alike.
    These restrictions fix a difference operator, since D(x # a) =
    D((x # 1)(1 # a)) = D((x # 1)1) (x # 1)2 D(1 # a) S((x # 1)3), so
    F * S is the formula's.
    """
    _, (fh, fh_den) = _operator_form(action.target, d_h)
    _, (fk, fk_den) = _operator_form(action.acting, d_k)

    def f(x: int, a: int) -> list:
        return smash.pair(_stored(fh[x]), _stored(fk[a]))

    t = int_structure(smash)
    return convolve_columns(
        smash, smash, IntColumns([_attempt(f, x, a) for x, a in smash.pairs], fh_den * fk_den),
        IntColumns(t.antipode, t.antipode_den))


def smash_restrictions(smash, cols, d_h, d_k) -> tuple[bool, bool]:
    """Whether the operator cols on a smash builder has D(x # 1) = D_H(x) # 1
    and D(1 # a) = 1 # D_K(a) on every basis x of H and a of K, for
    IntColumns or column tables."""
    icols, den = int_columns(cols)
    dh, dk = int_columns(d_h), int_columns(d_k)
    _, (hunit, kunit) = _sparse_ints([smash.h.unit_vec(), smash.k.unit_vec()])

    def same(u, v, w, z, wz_den: int) -> bool:
        """D(u # v) == w # z, for w # z over wz_den times u # v's den."""
        lhs = _apply_int(icols, smash.pair(u, v))
        return [(p, m * wz_den) for p, m in lhs] == [(p, m * den) for p, m in smash.pair(w, z)]

    return (all(same(((x, 1),), kunit, dh.cols[x], kunit, dh.den) for x in range(smash.h.dim)),
            all(same(hunit, ((a, 1),), hunit, dk.cols[a], dk.den) for a in range(smash.k.dim)))


def extend_diff_smash(m: DiffModuleBialgebra) -> tuple["TruncatedSmash", DiffOp]:
    """The unique difference operator on H # K restricting to D_H and D_K:
    D(x # a) = D_H(x1) x2 (D_K(a1) . S_H(x3)) # D_K(a2).  The action was
    checked with the pair, so only the smash builder is validated here."""
    from .actions import _validated_smash

    if not m.verified:
        raise ValueError("the pair must be verified as a difference module bialgebra")
    smash = _validated_smash(m.action)
    d_h, d_k = m.d_h.cols, m.d_k.cols
    cols = smash_extension_columns(m.action, d_h, d_k, smash)
    result = check_diffop(smash, cols)
    if not isinstance(result, DiffOp):
        raise AssertionError(f"smash extension failed verification: {result.witness}")
    for name, ok in zip(("D_H", "D_K"), smash_restrictions(smash, cols, d_h, d_k)):
        if not ok:
            raise AssertionError(f"extension does not restrict to {name}")
    return smash, result


# -- structure-theorem instance checks -----------------------------------------

def restricts_to_group_diffop(h: FinDimHopf, d: LinMap):
    """The restriction of a difference operator to the declared group-like
    basis, as a group difference operator on G(H)."""
    from .fingroup import coradical_group
    from .groups import GroupMap, check_group_diffop

    group, idxs, pos = coradical_group(h)
    cols, den = d.cols
    images = []
    for a in idxs:
        # a basis vector e_b is the one term (b, den)
        col = cols[a]
        if len(col) != 1 or col[0][1] != den or col[0][0] not in pos:
            raise ValueError("operator does not permute the group-like basis into itself")
        images.append(pos[col[0][0]])
    gmap = GroupMap(group, group, tuple(images))
    return group, gmap, check_group_diffop(gmap)


def ckmm_instance_check(h: FinDimHopf, d: DiffOp) -> dict:
    """Structure-theorem check for a finite-dimensional pointed
    cocommutative difference Hopf algebra over the rationals.

    At this scale H must be a group algebra: primitives vanish, D
    restricts to a group difference operator, and rebuilding the operator
    from that restriction reproduces D exactly.  Truncated mixed
    instances are handled in :mod:`hopfdiff.freelie`.
    """
    from .fingroup import coradical_group
    from .hopf import primitives

    group, idxs, pos = coradical_group(h)
    if not is_cocommutative(h):
        raise ValueError("H must be cocommutative")
    report: dict = {"algebra": h.name}
    prim = primitives(h)
    report["primitive_dimension"] = len(prim)
    report["primitives_trivial"] = not prim
    if group.order != h.dim:
        report["pointed_group_algebra"] = False
        report["ok"] = False
        return report
    report["pointed_group_algebra"] = True
    _, gmap, is_group_diff = restricts_to_group_diffop(h, d.map)
    report["group_restriction_is_diffop"] = is_group_diff
    # smash reconstruction with trivial primitive part: the linear lift
    # of the group restriction must be D itself
    lift = _canonical([((idxs[gmap(pos[b])], 1),) for b in range(h.dim)], 1)
    report["reconstruction_identity"] = lift == d.map.cols
    report["ok"] = (report["primitives_trivial"] and is_group_diff
                    and report["reconstruction_identity"])
    return report


def all_diffops_on_group_algebra(h: FinDimHopf) -> list[DiffOp]:
    """Every difference operator on a group algebra, through the group
    bijection with endomorphisms; each lift is re-verified."""
    from .fingroup import coradical_group
    from .groups import diffop_from_endo, enumerate_endos

    group, idxs, pos = coradical_group(h)
    if group.order != h.dim:
        raise ValueError(f"{h.name} is not a group algebra: its declared group-likes "
                         f"span {group.order} of {h.dim} dimensions")
    ops = []
    for f in enumerate_endos(group):
        d = diffop_from_endo(f)
        res = check_diffop(h, IntColumns([((idxs[d(pos[b])], 1),) for b in range(h.dim)], 1))
        if not isinstance(res, DiffOp):
            raise AssertionError("group difference operator lift failed the Hopf check")
        ops.append(res)
    return ops
