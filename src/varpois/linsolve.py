"""Exact Gaussian elimination over a coefficient field.

One sparse Gauss-Jordan kernel serves the linear systems of the rational
ansatz and the Horowitz reduction, matrix inverses and determinants.  Rows
are sparse dicts {column index: FieldElem}; column order is fixed by the
caller, which keeps results deterministic.
"""

from __future__ import annotations

from typing import Optional


def _eliminate(rows: list, ncols: int, field) -> tuple:
    """Bring sparse rows, free of zero entries, to reduced row echelon form
    on the columns below ncols, in place.  Entries in columns ncols and
    beyond are carried along as extra columns.

    The pivot of each column is its first nonzero entry at or below the
    current row.  Returns (pivots, sign): pivots[r] is (column, value before
    normalization) of the pivot in row r, and sign is -1 to the number of
    row swaps.
    """
    m = len(rows)
    zero = field.zero
    pivots = []
    sign = 1
    for col in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, m) if col in rows[i]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        piv = rows[r][col]
        inv = field.one / piv
        prow = rows[r] = {c: v * inv for c, v in rows[r].items()}
        for i in range(m):
            row = rows[i]
            f = row.get(col)
            if f is None or i == r:
                continue
            for c, v in prow.items():
                w = row.get(c, zero) - f * v
                if w.is_zero():
                    row.pop(c, None)
                else:
                    row[c] = w
        pivots.append((col, piv))
    return pivots, sign


def gauss_solve(rows: list, rhs: list, ncols: int, field):
    """Solve rows * gamma = rhs over the field.

    Returns (particular, nullspace): particular is a dense list of length
    ncols or None when the system is inconsistent; nullspace is a list of
    dense basis vectors of the homogeneous solution space.
    """
    work = [{c: v for c, v in r.items() if not v.is_zero()} for r in rows]
    for r, b in zip(work, rhs):
        if not b.is_zero():
            r[ncols] = b
    pivots, _ = _eliminate(work, ncols, field)
    rank = len(pivots)
    particular: Optional[list] = None
    if all(ncols not in r for r in work[rank:]):
        particular = [field.zero] * ncols
        for r, (c, _) in enumerate(pivots):
            particular[c] = work[r].get(ncols, field.zero)
    pivot_cols = {c for c, _ in pivots}
    nullspace = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for r, (c, _) in enumerate(pivots):
            coeff = work[r].get(fc)
            if coeff is not None:
                vec[c] = -coeff
        nullspace.append(vec)
    return particular, nullspace


def _square_rows(mat: list) -> list:
    """The sparse rows of a dense square matrix; ValueError otherwise."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError(f"matrix with {n} rows of lengths "
                         f"{[len(row) for row in mat]} is not square")
    return [{j: v for j, v in enumerate(row) if not v.is_zero()}
            for row in mat]


def matrix_inverse(mat: list, field) -> Optional[list]:
    """Inverse of a dense square matrix of field elements, or None."""
    n = len(mat)
    rows = _square_rows(mat)
    for i, row in enumerate(rows):
        row[n + i] = field.one
    pivots, _ = _eliminate(rows, n, field)
    if len(pivots) < n:
        return None
    return [[row.get(n + j, field.zero) for j in range(n)] for row in rows]


def det(mat: list, field):
    """Determinant of a dense square matrix over the field."""
    rows = _square_rows(mat)
    pivots, sign = _eliminate(rows, len(rows), field)
    if len(pivots) < len(rows):
        return field.zero
    out = field.one
    for _, piv in pivots:
        out = out * piv
    return out if sign == 1 else -out
