from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfdiff.exactlin import (
    Mat,
    _int_row,
    in_span,
    int_echelon,
    int_kernel,
    invert,
    rat,
    rat_str,
    row_space_basis,
)
from reference_linalg import reference_kernel, reference_row_reduce, reference_solve_affine

F = Fraction


def echelon_of(rows):
    """int_echelon of rational rows, each scaled to integers by _int_row."""
    return int_echelon([_int_row(list(r)) for r in rows], len(rows[0]))


def kernel_of(rows):
    """The null space of rational rows, read off int_echelon by int_kernel."""
    return int_kernel(*echelon_of(rows), len(rows[0]))


def solve(rows, b):
    """The solutions of rows . v = b read off int_echelon of [A | b]:
    (particular, int_kernel basis), with particular None when the system
    is inconsistent."""
    n = len(rows[0])
    echelon, pivots = echelon_of([list(r) + [x] for r, x in zip(rows, b)])
    if n in pivots:
        return None, []
    particular = [F(0)] * n
    for row, c in zip(echelon, pivots):
        particular[c] = F(row.get(n, 0), row[c])
    return particular, int_kernel(echelon, pivots, n)


def rational_rows(echelon, pivots, ncols):
    """int_echelon's rows divided by their pivot entries."""
    return [[F(row.get(k, 0), row[c]) for k in range(ncols)]
            for row, c in zip(echelon, pivots)]


def test_rat_parsing_and_serialization():
    assert rat("3/4") == F(3, 4)
    assert rat("-2") == F(-2)
    assert rat_str(F(1, 2)) == "1/2"
    assert rat_str(F(-5, 3)) == "-5/3"
    assert rat_str(F(7)) == "7"


def test_solve_scalar_division():
    particular, kernel = solve([[F(2)]], [F(1)])
    assert particular == [F(1, 2)]
    assert kernel == []


def test_solve_symmetry_case():
    particular, kernel = solve([[F(1), F(-1)]], [F(0)])
    assert particular == [F(0), F(0)]
    assert kernel == [[F(1), F(1)]]


def test_solve_contradictory_rows():
    particular, kernel = solve([[F(1)], [F(1)]], [F(0), F(1)])
    assert particular is None and kernel == []


def test_kernel_of_identity_is_empty():
    assert int_kernel(*int_echelon([{0: 1}, {1: 1}, {2: 1}], 3), 3) == []


def test_kernel_of_zero_is_standard_basis():
    assert int_echelon([{}, {}], 2) == ([], [])
    assert int_kernel([], [], 2) == [[F(1), F(0)], [F(0), F(1)]]


def test_kernel_rank_one():
    # row-reduce [[1,1],[2,2]] by hand: x0 = -x1, free x1 = 1
    echelon, pivots = int_echelon([{0: 1, 1: 1}, {0: 2, 1: 2}], 2)
    assert pivots == [0]
    assert int_kernel(echelon, pivots, 2) == [[F(-1), F(1)]]


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
    particular, kernel = solve([a.row(i) for i in range(a.rows)], b)
    if particular is None:
        return
    assert a.apply(particular) == [rat(x) for x in b]
    for vec in kernel:
        shifted = [p + v for p, v in zip(particular, vec)]
        assert a.apply(shifted) == [rat(x) for x in b]
        assert a.apply(vec) == [F(0)] * a.rows


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.data())
def test_invert_round_trip(n, data):
    entries = data.draw(st.lists(small_rats, min_size=n * n, max_size=n * n))
    a = Mat(n, n, entries)
    inv = invert(a)
    if inv is None:
        assert kernel_of([a.row(i) for i in range(n)]) != []
    else:
        assert a.mul(inv) == Mat.identity(n)
        assert inv.mul(a) == Mat.identity(n)


@settings(max_examples=50, deadline=None)
@given(matrices_with_rhs())
def test_determinism(data):
    a, b = data
    rat_rows = [a.row(i) for i in range(a.rows)]
    rows = [_int_row(r) for r in rat_rows]
    copies = [dict(r) for r in rows]
    first = int_echelon(rows, a.cols)
    assert rows == copies, "int_echelon changed its input rows"
    assert int_echelon(copies, a.cols) == first
    assert solve(rat_rows, b) == solve([list(r) for r in rat_rows], list(b))


# ---------------------------------------------------------------------------
# differential oracle: the Fraction Gauss-Jordan elimination that the
# integer elimination replaced (tests/reference_linalg.py) as an independent
# reference


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
    echelon, pivots = echelon_of(rows)
    assert pivots == ref_pivots
    assert all(x and isinstance(x, int) for row in echelon for x in row.values())
    assert rational_rows(echelon, pivots, len(rows[0])) == ref_rows[: len(ref_pivots)]
    assert not any(any(r) for r in ref_rows[len(ref_pivots):])


@settings(max_examples=200, deadline=None)
@given(sparse_rows(), st.data())
def test_entry_points_match_fraction_reference(rows, data):
    ncols = len(rows[0])
    ref_rows, ref_pivots = reference_row_reduce([list(r) for r in rows])
    ref_rows = ref_rows[: len(ref_pivots)]
    assert row_space_basis(rows) == ref_rows
    assert kernel_of(rows) == reference_kernel(ref_rows, ref_pivots, ncols)

    b = data.draw(st.lists(st.one_of(st.just(F(0)), sparse_nonzero),
                           min_size=len(rows), max_size=len(rows)))
    assert solve(rows, b) == reference_solve_affine(rows, b, ncols)

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
