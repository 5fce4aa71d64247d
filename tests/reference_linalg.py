"""Fraction-only linear algebra for the test oracles.

A plain Gauss-Jordan elimination over ``Fraction`` rows and the readers
of its reduced echelon form.  Nothing here imports ``hopfdiff``, so the
oracles that solve with it do not depend on the integer elimination of
``hopfdiff.exactlin`` that they check.
"""

from fractions import Fraction

ONE = Fraction(1)


def reference_row_reduce(rows):
    """In-place reduced row echelon form; returns (rows, pivot columns).
    Each row is copied once, so the caller's rows are not changed, and
    clearing a column subtracts only the pivot row's nonzero entries."""
    if not rows:
        return rows, []
    rows[:] = [list(row) for row in rows]
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
        prow = rows[r]
        inv = ONE / prow[c]
        support = [(j, x * inv) for j, x in enumerate(prow) if x]
        for j, x in support:
            prow[j] = x
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                for j, x in support:
                    row[j] -= f * x
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
