from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfdiff.exactlin import (
    Mat,
    _row_reduce,
    in_span,
    invert,
    kernel,
    rat,
    rat_str,
    row_space_basis,
    solve_affine,
)

F = Fraction
ONE = F(1)


def test_rat_parsing_and_serialization():
    assert rat("3/4") == F(3, 4)
    assert rat("-2") == F(-2)
    assert rat_str(F(1, 2)) == "1/2"
    assert rat_str(F(-5, 3)) == "-5/3"
    assert rat_str(F(7)) == "7"


def test_solve_scalar_division():
    sol = solve_affine(Mat(1, 1, [2]), [F(1)])
    assert sol.particular == [F(1, 2)]
    assert sol.kernel_basis == []


def test_solve_symmetry_case():
    sol = solve_affine(Mat(1, 2, [1, -1]), [F(0)])
    assert sol.particular == [F(0), F(0)]
    assert sol.kernel_basis == [[F(1), F(1)]]


def test_solve_contradictory_rows():
    sol = solve_affine(Mat(2, 1, [1, 1]), [F(0), F(1)])
    assert sol.inconsistent


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_affine(Mat(2, 1, [1, 1]), [F(0)])


def test_kernel_of_identity_is_empty():
    assert kernel(Mat.identity(3)) == []


def test_kernel_of_zero_is_standard_basis():
    basis = kernel(Mat.zero(2, 2))
    assert basis == [[F(1), F(0)], [F(0), F(1)]]


def test_kernel_rank_one():
    # row-reduce [[1,1],[2,2]] by hand: x0 = -x1, free x1 = 1
    basis = kernel(Mat.from_rows([[1, 1], [2, 2]]))
    assert basis == [[F(-1), F(1)]]


def test_invert_identity_and_swap():
    assert invert(Mat.identity(2)) == Mat.identity(2)
    swap = Mat.from_rows([[0, 1], [1, 0]])
    assert invert(swap) == swap


def test_invert_singular_rank_one():
    assert invert(Mat.from_rows([[1, 1], [1, 1]])) is None


def test_invert_requires_square():
    with pytest.raises(ValueError):
        invert(Mat.zero(2, 3))


def test_row_space_and_membership():
    basis = row_space_basis([[F(1), F(1), F(0)], [F(2), F(2), F(0)], [F(0), F(0), F(1)]])
    assert len(basis) == 2
    assert in_span(basis, [F(3), F(3), F(7)])
    assert not in_span(basis, [F(1), F(0), F(0)])


small_rats = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def matrices_with_rhs(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    entries = draw(st.lists(small_rats, min_size=rows * cols, max_size=rows * cols))
    rhs = draw(st.lists(small_rats, min_size=rows, max_size=rows))
    return Mat(rows, cols, entries), rhs


@settings(max_examples=120, deadline=None)
@given(matrices_with_rhs())
def test_solution_space_solves_exactly(data):
    a, b = data
    sol = solve_affine(a, b)
    if sol.inconsistent:
        return
    assert a.apply(sol.particular) == [rat(x) for x in b]
    for vec in sol.kernel_basis:
        shifted = [p + v for p, v in zip(sol.particular, vec)]
        assert a.apply(shifted) == [rat(x) for x in b]
        assert a.apply(vec) == [F(0)] * a.rows


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.data())
def test_invert_round_trip(n, data):
    entries = data.draw(st.lists(small_rats, min_size=n * n, max_size=n * n))
    a = Mat(n, n, entries)
    inv = invert(a)
    if inv is None:
        assert kernel(a) != []
    else:
        assert a.mul(inv) == Mat.identity(n)
        assert inv.mul(a) == Mat.identity(n)


@settings(max_examples=50, deadline=None)
@given(matrices_with_rhs())
def test_determinism(data):
    a, b = data
    first = solve_affine(Mat(a.rows, a.cols, list(a.entries)), list(b))
    second = solve_affine(Mat(a.rows, a.cols, list(a.entries)), list(b))
    assert first.particular == second.particular
    assert first.kernel_basis == second.kernel_basis


# ---------------------------------------------------------------------------
# differential oracle: the Fraction Gauss-Jordan elimination that the
# integer elimination replaced, kept verbatim as an independent reference


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
    free column."""
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [F(0)] * n
        v[fc] = F(1)
        for row, pc in zip(rows, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


sparse_nonzero = st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(bool)


@st.composite
def sparse_rows(draw, max_rows=12, max_cols=12, square=False):
    """Mostly-zero rational rows, with zero rows and duplicated (possibly
    rescaled) rows mixed in; zeros are fresh Fraction objects, not the
    module's shared ZERO."""
    nrows = draw(st.integers(1, max_rows))
    ncols = nrows if square else draw(st.integers(1, max_cols))
    density = draw(st.sampled_from([0.1, 0.25, 0.5, 1.0]))
    cells = draw(st.sets(st.integers(0, nrows * ncols - 1),
                         max_size=max(1, int(density * nrows * ncols))))
    values = draw(st.lists(sparse_nonzero, min_size=len(cells), max_size=len(cells)))
    rows = [[F(0) for _ in range(ncols)] for _ in range(nrows)]
    for cell, x in zip(sorted(cells), values):
        rows[cell // ncols][cell % ncols] = x
    if not square:
        for i in draw(st.lists(st.integers(0, nrows - 1), max_size=3)):
            scale = draw(sparse_nonzero)
            rows.append([scale * x for x in rows[i]])
        rows.extend([F(0)] * ncols for _ in range(draw(st.integers(0, 2))))
        rows = draw(st.permutations(rows))
    return rows


@settings(max_examples=300, deadline=None)
@given(sparse_rows())
def test_row_reduce_matches_fraction_reference(rows):
    ref_rows, ref_pivots = reference_row_reduce([list(r) for r in rows])
    got_rows, got_pivots = _row_reduce([list(r) for r in rows])
    assert got_pivots == ref_pivots
    assert got_rows == ref_rows[: len(ref_pivots)]
    assert not any(any(r) for r in ref_rows[len(ref_pivots):])


@settings(max_examples=200, deadline=None)
@given(sparse_rows(), st.data())
def test_entry_points_match_fraction_reference(rows, data):
    ncols = len(rows[0])
    a = Mat.from_rows(rows)
    ref_rows, ref_pivots = reference_row_reduce([list(r) for r in rows])
    ref_rows = ref_rows[: len(ref_pivots)]
    assert row_space_basis(rows) == ref_rows
    assert kernel(a) == reference_kernel(ref_rows, ref_pivots, ncols)

    b = data.draw(st.lists(st.one_of(st.just(F(0)), sparse_nonzero),
                           min_size=len(rows), max_size=len(rows)))
    aug, aug_pivots = reference_row_reduce([list(r) + [x] for r, x in zip(rows, b)])
    aug = aug[: len(aug_pivots)]
    sol = solve_affine(a, b)
    if ncols in aug_pivots:
        assert sol.inconsistent
    else:
        particular = [F(0)] * ncols
        for row, c in zip(aug, aug_pivots):
            particular[c] = row[-1]
        assert sol.particular == particular
        assert sol.kernel_basis == reference_kernel([r[:-1] for r in aug], aug_pivots, ncols)

    v = data.draw(st.lists(st.one_of(st.just(F(0)), sparse_nonzero),
                           min_size=ncols, max_size=ncols))
    _, with_v = reference_row_reduce([list(r) for r in rows] + [list(v)])
    assert in_span(row_space_basis(rows), v) == (len(with_v) == len(ref_pivots))
    for r in rows:
        assert in_span(row_space_basis(rows), r)


@settings(max_examples=200, deadline=None)
@given(sparse_rows(max_rows=8, square=True))
def test_invert_matches_fraction_reference(rows):
    n = len(rows)
    aug = [list(r) + [F(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    ref, pivots = reference_row_reduce(aug)
    inv = invert(Mat.from_rows(rows))
    if pivots != list(range(n)):
        assert inv is None
    else:
        assert inv == Mat.from_rows([r[n:] for r in ref])
