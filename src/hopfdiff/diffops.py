"""Difference-operator calculus on Hopf algebras.

A difference operator is a coalgebra endomorphism D with
D(xy) = D(x1) x2 D(y) S(x3).  This module verifies operators, relates
them to algebra endomorphisms through convolution, builds the monoid on
the verified set, conjugates by automorphisms, inverts to Rota-Baxter
operators, and extends compatible pairs to smash products.

The checking entry points also accept the degree-truncated carriers
from :mod:`hopfdiff.freelie`; pairs whose evaluation would leave the
degree budget are reported as skipped, never silently passed.

The exhaustive coalgebra-map and difference-identity checks run on
integer numerators: the carrier's integer structure table
(:func:`hopfdiff.hopf.int_structure`) and the candidate's integer
columns, compared cross-multiplied by their known denominators.  No
``Fraction`` is built inside their loops, and every report is identical
to the one rational arithmetic gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactlin import Mat, ONE, invert
from .hopf import (
    FinDimHopf,
    LinMap,
    OutOfBudgetError,
    basis_vec,
    coalgebra_map_failures,
    convolve,
    int_columns,
    int_structure,
    is_cocommutative,
    is_hopf_automorphism,
    sweedler_expand,
    vec_add,
    vec_scale,
    zero_vec,
)


@dataclass
class CheckReport:
    """Exhaustive-verification outcome with explicit skip accounting."""

    ok: bool
    failures: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    checked: int = 0

    @property
    def witness(self):
        return self.failures[0] if self.failures else None


@dataclass
class DiffOp:
    """A verified difference operator."""

    map: LinMap
    verified: bool
    bijective: bool
    inverse: Mat | None = None


def coalgebra_hom_report(h, matrix: Mat) -> CheckReport:
    """Coalgebra-homomorphism check through the basis-indexed interface."""
    failures = [("coalgebra", k) for k in coalgebra_map_failures(h, h, matrix)]
    return CheckReport(not failures, failures, [], h.dim)


def diff_identity_report(h, matrix: Mat) -> CheckReport:
    """D(xy) = D(x1) x2 D(y) S(x3) on all basis pairs, skip-aware.

    Each pair's products are taken in the order the rational evaluation
    takes them: D(xy), then per term D(x1) x2, times D(y), times S(x3).
    The first one that leaves a truncated carrier's budget skips the pair
    with that product's OutOfBudgetError message.
    """
    t = int_structure(h)
    cols, den = int_columns(matrix)
    n = h.dim
    # lhs carries den * mult_den, rhs den^2 * mult_den^3 * antipode_den * sweedler_den
    lhs_scale = den * t.mult_den ** 2 * t.antipode_den * t.sweedler_den
    failures = []
    skipped = []
    checked = 0
    for i in range(n):
        # D(t1) t2 does not depend on y; a budget error is kept and raised
        # again by mul only when the pair loop reaches that term
        terms = []
        for (t1, t2, t3, w) in t.sweedler3[i]:
            try:
                left = t.mul(cols[t1], ((t2, 1),))
            except OutOfBudgetError as exc:
                left = exc
            terms.append((left, t.antipode[t3], w))
        for j in range(n):
            try:
                lhs = [0] * n
                for k, m in t.mul(((i, 1),), ((j, 1),)):
                    for r, x in cols[k]:
                        lhs[r] += m * x
                rhs = [0] * n
                for left, s, w in terms:
                    for r, x in t.mul(t.mul(left, cols[j]), s):
                        rhs[r] += w * x
            except OutOfBudgetError as exc:
                skipped.append((i, j, str(exc)))
                continue
            checked += 1
            if [x * lhs_scale for x in lhs] != rhs:
                failures.append((i, j))
    return CheckReport(not failures, failures, skipped, checked)


def check_diffop(h, matrix_or_map) -> DiffOp | CheckReport:
    """Verify a candidate difference operator.

    Returns a DiffOp on success and the failing CheckReport otherwise;
    failures are data, not exceptions.  The candidate is scaled to
    integer columns once, for both exhaustive checks.
    """
    matrix = matrix_or_map.matrix if isinstance(matrix_or_map, LinMap) else matrix_or_map
    scaled = int_columns(matrix)
    co = coalgebra_hom_report(h, scaled)
    if not co.ok:
        return co
    ident = diff_identity_report(h, scaled)
    if not ident.ok or ident.skipped:
        # failures, or honest partial coverage on a truncated carrier
        return ident
    inv = invert(matrix)
    return DiffOp(LinMap(h, h, matrix), verified=True,
                  bijective=inv is not None, inverse=inv)


def check_diffop_prime(h, matrix_or_map) -> bool:
    """The equivalent one-sided identity D(x1 y) x2 = D(x1) x2 D(y)."""
    matrix = matrix_or_map.matrix if isinstance(matrix_or_map, LinMap) else matrix_or_map
    if not coalgebra_hom_report(h, matrix).ok:
        return False
    n = h.dim
    for i in range(n):
        for j in range(n):
            lhs = zero_vec(n)
            rhs = zero_vec(n)
            for (x1, x2, c) in h.comult_triples(i):
                left = matrix.apply(h.mult_basis(x1, j))
                lhs = vec_add(lhs, vec_scale(c, h.mult_vec(left, basis_vec(n, x2))))
                right = h.mult_vec(matrix.col(x1), basis_vec(n, x2))
                rhs = vec_add(rhs, vec_scale(c, h.mult_vec(right, matrix.col(j))))
            if lhs != rhs:
                return False
    return True


def diff_to_endo(h: FinDimHopf, d: LinMap) -> LinMap:
    """F = D * id (convolution)."""
    return convolve(d, LinMap(h, h, Mat.identity(h.dim)))


def endo_to_diff(h: FinDimHopf, f: LinMap) -> LinMap:
    """D = F * S (convolution)."""
    return convolve(f, LinMap(h, h, h.antipode))


def star(h: FinDimHopf, d: LinMap, dprime: LinMap) -> DiffOp:
    """The monoid product D * D' on difference operators of a
    cocommutative Hopf algebra.

    Both defining expressions ((D*id) o D') * D and (D o (D'*id)) * D'
    are computed and must agree; the result is re-verified.
    """
    if not is_cocommutative(h):
        raise ValueError("the star product needs a cocommutative Hopf algebra")
    ident = LinMap(h, h, Mat.identity(h.dim))
    f = convolve(d, ident)
    fprime = convolve(dprime, ident)
    first = convolve(f.compose(dprime), d)
    second = convolve(d.compose(fprime), dprime)
    if first.matrix != second.matrix:
        raise ValueError("the two defining formulas disagree; is H cocommutative?")
    result = check_diffop(h, first)
    if not isinstance(result, DiffOp):
        raise ValueError(f"star product failed verification: {result.witness}")
    return result


def conjugate(h: FinDimHopf, sigma: LinMap, d: LinMap) -> DiffOp:
    """sigma o D o sigma^-1 for a verified Hopf automorphism sigma."""
    if not is_hopf_automorphism(sigma):
        raise ValueError("sigma is not a Hopf algebra automorphism")
    sigma_inv = invert(sigma.matrix)
    mat = sigma.matrix.mul(d.matrix).mul(sigma_inv)
    result = check_diffop(h, mat)
    if not isinstance(result, DiffOp):
        raise ValueError(f"conjugated operator failed verification: {result.witness}")
    return result


def rota_baxter_identity_report(h, matrix: Mat) -> CheckReport:
    """B(x)B(y) = B(x1 B(x2) y S(B(x3))) on all basis pairs."""
    failures = []
    n = h.dim
    for i in range(n):
        for j in range(n):
            lhs = h.mult_vec(matrix.col(i), matrix.col(j))
            rhs = zero_vec(n)
            for (t1, t2, t3), c in sweedler_expand(h, basis_vec(n, i), 2).items():
                inner = h.mult_vec(basis_vec(n, t1), matrix.col(t2))
                inner = h.mult_vec(inner, basis_vec(n, j))
                inner = h.mult_vec(inner, h.antipode_vec(matrix.col(t3)))
                rhs = vec_add(rhs, vec_scale(c, matrix.apply(inner)))
            if lhs != rhs:
                failures.append((i, j))
    return CheckReport(not failures, failures, [], n * n)


def rota_baxter_inverse(h: FinDimHopf, d: DiffOp) -> tuple[LinMap, CheckReport]:
    """B = D^-1 with the Rota-Baxter identity verified exhaustively, and
    the round trip (invert(B) is again a difference operator) checked."""
    if not is_cocommutative(h):
        raise ValueError("Rota-Baxter inversion needs a cocommutative Hopf algebra")
    if not d.bijective or d.inverse is None:
        raise ValueError("singular: the operator has no inverse")
    b = d.inverse
    report = rota_baxter_identity_report(h, b)
    if report.ok:
        back = invert(b)
        round_trip = check_diffop(h, back)
        if not isinstance(round_trip, DiffOp) or back != d.map.matrix:
            report = CheckReport(False, [("round-trip",)], [], report.checked)
    return LinMap(h, h, b), report


# -- difference module bialgebras and smash extensions -------------------------

@dataclass
class DiffModuleBialgebra:
    """A compatible pair of difference Hopf algebras over an action."""

    h: FinDimHopf
    d_h: LinMap
    k: FinDimHopf
    d_k: LinMap
    action: "ActionData"
    verified: bool = False


def check_diff_module_bialgebra(h: FinDimHopf, d_h: LinMap, k: FinDimHopf,
                                d_k: LinMap, action) -> DiffModuleBialgebra | CheckReport:
    """D_H(a1 . x1)(a2 . x2) = D_K(a1) a2 . D_H(x1) x2 on all basis pairs."""
    from .actions import validate_action

    if not is_cocommutative(h) or not is_cocommutative(k):
        raise ValueError("both Hopf algebras must be cocommutative")
    rep = validate_action(action, require_bialgebra=True)
    if not rep.ok:
        raise ValueError(f"action is not a module bialgebra: {rep.failures()}")
    for name, hh, dd in (("H", h, d_h), ("K", k, d_k)):
        res = check_diffop(hh, dd)
        if not isinstance(res, DiffOp):
            raise ValueError(f"D_{name} is not a difference operator: {res.witness}")

    failures = []
    for a in range(k.dim):
        for x in range(h.dim):
            lhs = zero_vec(h.dim)
            for (a1, a2, c) in k.comult_triples(a):
                for (x1, x2, e) in h.comult_triples(x):
                    term = h.mult_vec(d_h.apply(action.act_basis(a1, x1)),
                                      action.act_basis(a2, x2))
                    lhs = vec_add(lhs, vec_scale(c * e, term))
            rhs = zero_vec(h.dim)
            for (a1, a2, c) in k.comult_triples(a):
                acting = k.mult_vec(d_k.image_of_basis(a1), basis_vec(k.dim, a2))
                for (x1, x2, e) in h.comult_triples(x):
                    moved = h.mult_vec(d_h.image_of_basis(x1), basis_vec(h.dim, x2))
                    rhs = vec_add(rhs, vec_scale(c * e, action.act(acting, moved)))
            if lhs != rhs:
                failures.append((k.label(a), h.label(x)))
    if failures:
        return CheckReport(False, failures, [], k.dim * h.dim)
    return DiffModuleBialgebra(h, d_h, k, d_k, action, verified=True)


def extend_diff_smash(m: DiffModuleBialgebra, smash: FinDimHopf | None = None
                      ) -> tuple[FinDimHopf, DiffOp]:
    """The unique difference operator on H # K restricting to D_H and D_K:
    D(x # a) = D_H(x1) x2 (D_K(a1) . S_H(x3)) # D_K(a2)."""
    from .actions import smash_product

    if not m.verified:
        raise ValueError("the pair must be verified as a difference module bialgebra")
    h, k, action = m.h, m.k, m.action
    smash = smash or smash_product(action)
    nh, nk = h.dim, k.dim

    def enc(x, a):
        return x * nk + a

    cols = []
    for x in range(nh):
        sw = sweedler_expand(h, basis_vec(nh, x), 2)
        for a in range(nk):
            col = zero_vec(smash.dim)
            for (x1, x2, x3), c in sw.items():
                hpart_base = h.mult_vec(m.d_h.image_of_basis(x1), basis_vec(nh, x2))
                for (a1, a2, e) in k.comult_triples(a):
                    acted = action.act(m.d_k.image_of_basis(a1),
                                       h.antipode_basis(x3))
                    hpart = h.mult_vec(hpart_base, acted)
                    kpart = m.d_k.image_of_basis(a2)
                    for p, hv in enumerate(hpart):
                        if not hv:
                            continue
                        for q, kv in enumerate(kpart):
                            if kv:
                                col[enc(p, q)] += c * e * hv * kv
            cols.append(col)
    mat = Mat.from_cols(cols)
    result = check_diffop(smash, mat)
    if not isinstance(result, DiffOp):
        raise AssertionError(f"smash extension failed verification: {result.witness}")

    # restrictions to H # 1 and 1 # K must reproduce the inputs
    for x in range(nh):
        expected = zero_vec(smash.dim)
        for p, hv in enumerate(m.d_h.image_of_basis(x)):
            if hv:
                expected[enc(p, 0)] = hv
        if mat.col(enc(x, 0)) != expected:
            raise AssertionError("extension does not restrict to D_H")
    for a in range(nk):
        expected = zero_vec(smash.dim)
        for q, kv in enumerate(m.d_k.image_of_basis(a)):
            if kv:
                expected[enc(0, q)] = kv
        if mat.col(enc(0, a)) != expected:
            raise AssertionError("extension does not restrict to D_K")
    return smash, result


# -- structure-theorem instance checks -----------------------------------------

def restricts_to_group_diffop(h: FinDimHopf, d: LinMap):
    """The restriction of a difference operator to the declared group-like
    basis, as a group difference operator on G(H)."""
    from .groups import FinGroup, GroupMap, check_group_diffop

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
                raise ValueError("declared coradical is not a group basis")
            row.append(pos[hits[0]])
        table.append(row)
    group = FinGroup([h.label(b) for b in idxs], table, name=f"G({h.name})")
    images = []
    for a in idxs:
        img = d.image_of_basis(a)
        hits = [i for i, c in enumerate(img) if c]
        if len(hits) != 1 or img[hits[0]] != ONE or hits[0] not in pos:
            raise ValueError("operator does not permute the group-like basis into itself")
        images.append(pos[hits[0]])
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
    from .hopf import primitives

    if not is_cocommutative(h):
        raise ValueError("H must be cocommutative")
    if h.coradical_group_basis is None:
        raise ValueError("H must be pointed with a declared group-algebra coradical")
    report: dict = {"algebra": h.name}
    prim = primitives(h)
    report["primitive_dimension"] = len(prim)
    report["primitives_trivial"] = not prim
    if len(h.coradical_group_basis) != h.dim:
        report["pointed_group_algebra"] = False
        report["ok"] = False
        return report
    report["pointed_group_algebra"] = True
    group, gmap, is_group_diff = restricts_to_group_diffop(h, d.map)
    report["group_restriction_is_diffop"] = is_group_diff
    # smash reconstruction with trivial primitive part: the linear lift
    # of the group restriction must be D itself
    lift = Mat.from_cols([basis_vec(h.dim, h.coradical_group_basis[gmap(i)])
                          for i in range(group.order)])
    report["reconstruction_identity"] = lift == d.map.matrix
    report["ok"] = (report["primitives_trivial"] and is_group_diff
                    and report["reconstruction_identity"])
    return report


def all_diffops_on_group_algebra(h: FinDimHopf) -> list[DiffOp]:
    """Every difference operator on a group algebra, through the group
    bijection with endomorphisms; each lift is re-verified."""
    from .groups import diffop_from_endo, enumerate_endos

    group, _, _ = restricts_to_group_diffop(
        h, LinMap(h, h, Mat.identity(h.dim)))
    ops = []
    for f in enumerate_endos(group):
        d = diffop_from_endo(f)
        mat = Mat.from_cols([basis_vec(h.dim, d(a)) for a in range(group.order)])
        res = check_diffop(h, mat)
        if not isinstance(res, DiffOp):
            raise AssertionError("group difference operator lift failed the Hopf check")
        ops.append(res)
    return ops
