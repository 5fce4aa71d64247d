"""Criterion 4's independent oracle for difference operators.

The one-sided identity D(x1 y) x2 = D(x1) x2 D(y), equivalent to the
difference identity for a coalgebra map D, checked on every basis pair
in ``Fraction`` vectors, beside the integer checker of
``hopfdiff.diffops.check_diffop`` that it is compared with.
"""

from hopfdiff.hopf import LinMap, basis_vec, vec_add, vec_scale, zero_vec
from hopfdiff.maps import coalgebra_map_report


def check_diffop_prime(h, matrix_or_map) -> bool:
    """The equivalent one-sided identity D(x1 y) x2 = D(x1) x2 D(y)."""
    matrix = matrix_or_map.matrix if isinstance(matrix_or_map, LinMap) else matrix_or_map
    if not coalgebra_map_report(h, h, [matrix.col(j) for j in range(matrix.cols)]).ok:
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
