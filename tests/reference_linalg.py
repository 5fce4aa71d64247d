"""Fraction-only linear algebra for the test oracles.

A plain Gauss-Jordan elimination over ``Fraction`` rows and the readers
of its reduced echelon form.  Nothing here imports ``hopfdiff``, so the
oracles that solve with it do not depend on the integer elimination of
``hopfdiff.exactlin`` that they check.
"""

from fractions import Fraction

ONE = Fraction(1)


def reference_row_reduce(rows):
    """In-place reduced row echelon form; returns (rows, pivot columns)."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = ONE / rows[r][c]
        if inv != 1:
            rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def reference_kernel(rows, pivots, n):
    """Null-space basis read off a reduced echelon form, one vector per
    free column among the first n."""
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def reference_solve_affine(rows, rhs, n):
    """All solutions of rows . v = rhs over n unknowns: (particular,
    kernel basis), with particular None when the system is inconsistent."""
    aug, pivots = reference_row_reduce([list(r) + [b] for r, b in zip(rows, rhs)])
    if n in pivots:
        return None, []
    particular = [Fraction(0)] * n
    for row, c in zip(aug, pivots):
        particular[c] = row[-1]
    return particular, reference_kernel(aug, pivots, n)
