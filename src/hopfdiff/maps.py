"""Linear maps between carriers: convolution and the algebra-map and
coalgebra-map checks, on integer numerators.

A map's matrix is scaled once to integer columns over the lcm of its
denominators (:func:`int_columns`), and its carriers' structure constants
come from their integer structure tables (:func:`hopfdiff.hopf.int_structure`).
Comparisons are cross-multiplied by the known denominators, and
``Fraction`` values are built only for returned matrices
(:func:`_rational_columns`), so every result is identical to rational
arithmetic.  Sums go through the helpers of :mod:`hopfdiff.hopf` and keep
its rule for a stored OutOfBudgetError.

:func:`convolve_columns` is the one convolution loop, and
:func:`algebra_map_failures` and :func:`coalgebra_map_failures` the one
algebra-map and coalgebra-map checkers, for finite and truncated carriers
alike.  Each takes a matrix, an :class:`IntColumns` or a column table
that may hold None for an unknown image; the checks skip and record what
needs it.

Only the layers that check maps import this module
(:mod:`hopfdiff.diffops`, :mod:`hopfdiff.actions`, :mod:`hopfdiff.freelie`
and the catalog's operator builders), so the commands that only resolve
and check an algebra do not compile it.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm

from .exactlin import Mat, _rat_vec, invert
from .hopf import (CheckReport, FinDimHopf, LinMap, OutOfBudgetError, _apply_int, _attempt,
                   _combine, _coproduct, _sparse_ints, _stored, _tensor_sum, int_structure,
                   vec_scale)


def identity_map(h: FinDimHopf) -> LinMap:
    return LinMap(h, h, Mat.identity(h.dim))


def unit_counit_map(k: FinDimHopf, h: FinDimHopf | None = None) -> LinMap:
    """u o eps : K -> H, the convolution unit."""
    h = h or k
    cols = [vec_scale(k.counit_coeff(j), h.unit_vec()) for j in range(k.dim)]
    return LinMap(k, h, Mat.from_cols(cols))


def convolve(f: LinMap, g: LinMap) -> LinMap:
    """Convolution product: x -> f(x1) g(x2)."""
    if f.domain is not g.domain or f.codomain is not g.codomain:
        raise ValueError("convolution needs equal domains and codomains")
    dom, cod = f.domain, f.codomain
    cols, den = convolve_columns(dom, cod, f.matrix, g.matrix)
    return LinMap(dom, cod, Mat.from_cols(_rational_columns(map(_stored, cols), den, cod.dim)))


def _rational_columns(cols, den: int, n: int) -> list:
    """The rational n-vectors of sparse integer columns over den, None for
    a stored error."""
    return [None if c.__class__ is OutOfBudgetError else _rat_vec(c, den, n) for c in cols]


IntColumns = namedtuple("IntColumns", "cols den")
IntColumns.__doc__ = "A matrix as sparse integer columns over one denominator."


def int_columns(matrix) -> IntColumns:
    """The columns of a Mat as sparse integer tuples over the lcm of its
    denominators; an IntColumns is returned as it is.

    A column table (a list of coordinate vectors) may hold None for an
    image that is unknown, stored as an OutOfBudgetError.
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
