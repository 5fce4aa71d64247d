"""Linear maps between carriers: convolution, the algebra-map and
coalgebra-map checks, inverses and the automorphism test, on integer
numerators: a :class:`hopfdiff.hopf.LinMap`'s :class:`IntColumns` and its
carriers' integer structure tables (:func:`hopfdiff.hopf.int_structure`),
compared cross-multiplied by the known denominators.  No ``Fraction`` is
built here.  Sums go through the helpers of :mod:`hopfdiff.hopf` and keep
its rule for a stored OutOfBudgetError.

:func:`convolve_columns` is the one convolution loop, and
:func:`algebra_map_failures` and :func:`coalgebra_map_failures` the one
algebra-map and coalgebra-map checkers, for finite and truncated carriers
alike.  Each takes a LinMap, an IntColumns or a column table; the checks
skip and record what needs an unknown image.

Only the layers that check maps import this module
(:mod:`hopfdiff.diffops`, :mod:`hopfdiff.actions`, :mod:`hopfdiff.freelie`
and the catalog's operator builders), so the commands that only resolve
and check an algebra do not compile it.
"""

from __future__ import annotations

from math import lcm

from .exactlin import int_echelon, rank
from .hopf import (CheckReport, FinDimHopf, IntColumns, LinMap, OutOfBudgetError, _apply_int,
                   _attempt, _canonical, _combine, _coproduct, _stored, _tensor_sum,
                   int_columns, int_structure, vec_scale)


def identity_map(h: FinDimHopf) -> LinMap:
    return LinMap(h, h, IntColumns(tuple(((j, 1),) for j in range(h.dim)), 1))


def unit_counit_map(k: FinDimHopf, h: FinDimHopf | None = None) -> LinMap:
    """u o eps : K -> H, the convolution unit."""
    h = h or k
    return LinMap(k, h, [vec_scale(k.counit_coeff(j), h.unit_vec()) for j in range(k.dim)])


def antipode_map(h) -> LinMap:
    """S : H -> H."""
    t = int_structure(h)
    return LinMap(h, h, IntColumns(t.antipode, t.antipode_den))


def convolve(f: LinMap, g: LinMap) -> LinMap:
    """Convolution product: x -> f(x1) g(x2)."""
    if f.domain is not g.domain or f.codomain is not g.codomain:
        raise ValueError("convolution needs equal domains and codomains")
    dom, cod = f.domain, f.codomain
    cols, den = convolve_columns(dom, cod, f.cols, g.cols)
    return LinMap(dom, cod, IntColumns([_stored(c) for c in cols], den))


def inverse_columns(m: IntColumns) -> IntColumns | None:
    """The inverse of the square m = C / den, or None when m is singular: den
    times the rows of (C^t)^-1, read off the reduced echelon form
    [I | (C^t)^-1] of [C^t | I], whose row i int_echelon scales by row[i]."""
    n = len(m.cols)
    echelon, pivots = int_echelon([{**dict(col), n + j: 1} for j, col in enumerate(m.cols)],
                                  2 * n)
    if pivots != list(range(n)):
        return None
    den = lcm(*(row[i] for i, row in enumerate(echelon)))
    return _canonical([[(c - n, x * m.den * (den // row[i])) for c, x in sorted(row.items())
                        if c >= n] for i, row in enumerate(echelon)], den)


def convolve_columns(dom, cod, f, g) -> IntColumns:
    """The IntColumns of x -> f(x1) g(x2), for maps from dom to cod given
    as matrices, column tables or IntColumns.

    A column that needs an unknown image of f or g, or a product that
    leaves a truncated cod's budget, is the OutOfBudgetError that
    computing it raised.
    """
    co = int_structure(dom)
    prod = int_structure(cod)
    fcols, fden = int_columns(f)
    gcols, gden = int_columns(g)
    cols = [_attempt(_combine, ((c, prod.mul(fcols[i], gcols[j])) for (i, j, c) in terms))
            for terms in co.comult]
    return IntColumns(cols, co.comult_den * prod.mult_den * fden * gden)


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
                lhs = _apply_int(cols, _stored(row[j]))
                rhs = dst.mul(cols[i], cols[j])
            except OutOfBudgetError:
                yield i, j, "skipped"
                continue
            if [(p, x * lhs_scale) for p, x in lhs] != [(p, x * rhs_scale) for p, x in rhs]:
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
        lhs = _coproduct(dst, img)
        rhs = _tensor_sum((c, cols[i], cols[j]) for (i, j, c) in src.comult[k])
        if {key: v * lhs_scale for key, v in lhs.items()} != \
                {key: v * rhs_scale for key, v in rhs.items()}:
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


# -- homomorphism tests -------------------------------------------------------

def is_coalgebra_hom(f: LinMap) -> bool:
    return next(coalgebra_map_failures(f.domain, f.codomain, f.cols), None) is None


def is_algebra_hom(f: LinMap) -> bool:
    """f(1) = 1 and f(xy) = f(x) f(y), stopping at the first failure."""
    dom, cod = f.domain, f.codomain
    if f.apply(dom.unit_vec()) != cod.unit_vec():
        return False
    return next(algebra_map_failures(dom, cod, f.cols), None) is None


def is_hopf_automorphism(f: LinMap) -> bool:
    """Algebra + coalgebra homomorphism, invertible, commutes with S."""
    h = f.domain
    if h is not f.codomain or not is_algebra_hom(f) or not is_coalgebra_hom(f):
        return False
    s = antipode_map(h)
    return rank(f.cols.cols, h.dim) == h.dim and f.compose(s) == s.compose(f)
