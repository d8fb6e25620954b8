"""The elimination kernel against sympy's Matrix over Q(c)(x).

gauss_solve, matrix_inverse and det share one sparse Gauss-Jordan kernel;
the reference is sympy's own elimination on the same values, read through
FieldElem.f, with zero tests by cancel.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, cancel

from varpois import CoefficientField
from varpois.linsolve import det, gauss_solve, matrix_inverse

from helpers import field_elems

F = CoefficientField(["c"])


def expr(v):
    return v.f.as_expr()


def is0(e):
    return cancel(e) == 0


def same(v, e) -> bool:
    return is0(expr(v) - e)


@st.composite
def entries(draw):
    """A small element of Q(c)(x): zero about one time in three, else a
    polynomial from field_elems, sometimes over x + 1 or x + c."""
    if draw(st.integers(0, 2)) == 0:
        return F.zero
    v = draw(field_elems(F))
    den = draw(st.sampled_from([None, F.x + 1, F.x + F.param("c")]))
    return v if den is None else v / den


@st.composite
def matrices(draw, m, n):
    """An m x n matrix; with probability one half its last row is a
    combination of the rows above it, so the matrix is singular."""
    rows = [[draw(entries()) for _ in range(n)] for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        last = [F.zero] * n
        for row in rows[:-1]:
            k = draw(entries())
            last = [a + k * b for a, b in zip(last, row)]
        rows[-1] = last
    return rows


@st.composite
def systems(draw):
    """(rows, rhs, ncols): a sparse m x ncols system, square, wide or tall,
    whose right-hand side is sometimes the image of a vector (consistent)
    and sometimes drawn freely (often inconsistent when rows are
    dependent)."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    mat = draw(matrices(m, n))
    if draw(st.booleans()):
        x = [draw(entries()) for _ in range(n)]
        rhs = [sum((a * b for a, b in zip(row, x)), F.zero) for row in mat]
    else:
        rhs = [draw(entries()) for _ in range(m)]
    rows = [{j: v for j, v in enumerate(row) if not v.is_zero()}
            for row in mat]
    return rows, rhs, n, mat


@settings(max_examples=60, deadline=None)
@given(systems())
def test_gauss_solve_matches_sympy_rref(system):
    rows, rhs, n, mat = system
    aug = Matrix([[expr(v) for v in row] + [expr(b)]
                  for row, b in zip(mat, rhs)])
    R, pivots = aug.rref(iszerofunc=is0, simplify=cancel)
    particular, nullspace = gauss_solve(rows, rhs, n, F)
    if n in pivots:
        assert particular is None
        pivots = pivots[:-1]
    else:
        assert particular is not None and len(particular) == n
        want = [0] * n
        for r, c in enumerate(pivots):
            want[c] = R[r, n]
        assert all(same(v, e) for v, e in zip(particular, want))
    free = [c for c in range(n) if c not in pivots]
    assert len(nullspace) == len(free)
    for fc, vec in zip(free, nullspace):
        want = [0] * n
        want[fc] = 1
        for r, c in enumerate(pivots):
            want[c] = -R[r, fc]
        assert all(same(v, e) for v, e in zip(vec, want))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: matrices(n, n)))
def test_det_and_inverse_match_sympy(mat):
    A = Matrix([[expr(v) for v in row] for row in mat])
    want = A.det(method="berkowitz")
    assert same(det(mat, F), want)
    inv = matrix_inverse(mat, F)
    if is0(want):
        assert inv is None
    else:
        Ainv = A.inv(method="DM")
        assert all(same(v, Ainv[i, j]) for i, row in enumerate(inv)
                   for j, v in enumerate(row))


def test_det_sign_follows_row_swaps():
    one, zero, x = F.one, F.zero, F.x
    assert det([[zero, one], [one, zero]], F) == -one
    assert det([[zero, zero, x], [zero, one, zero], [one, zero, zero]], F) \
        == -x
    assert det([[zero, one, zero], [zero, zero, one], [one, zero, zero]],
               F) == one


@pytest.mark.parametrize("mat", [[[1, 2]], [[1], [2]], [[1, 2], [3]]])
def test_non_square_input_is_rejected(mat):
    mat = [[F.rational(v) for v in row] for row in mat]
    with pytest.raises(ValueError):
        matrix_inverse(mat, F)
    with pytest.raises(ValueError):
        det(mat, F)
