import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import Phase, assume, example, find, given, settings
from hypothesis import strategies as st

from varpois import (DegenerateLeadingMatrix, DegenerateShape, DiffAlgebra,
                     DiffPoly, Incomplete, InvariantViolation, LinForm,
                     Majorant, MatDiffOp, MatPseudoOp, NoRationalSolution,
                     NotAMajorant, NotSkewadjoint, PseudoDiffOp, ScalarDiffOp,
                     TruncationExceeded, dieudonne_det, kernel_dim_bound,
                     leading_matrix, majorant, majorant_preserving_reduce,
                     row_echelon, selfadjoint_product_space, solve_rational)
from varpois import diffop
from varpois.diffop import (DET_ZERO, INFINITE, DetValue,
                            _echelon_det, _field_value, _solve_by_ansatz,
                            format_scalar_op, solve_linform_system)
from varpois import zpoly
from varpois.field import x_coefficients
from varpois.zpoly import Poly

from helpers import (adjoint_reference, ansatz_reference, apply_row_ops,
                     canonical_forms, compose_reference, constant_rank,
                     det_by_division, diffpolys, echelon_by_division,
                     field_elems, from_right_form, from_split_form,
                     linform_matrix_reference, mat_compose_reference,
                     reference_elimination, right_coefficient_form,
                     rnd_mat_op, rnd_scalar_op, same_row_flags,
                     skewadjoint_decompose, skewadjoint_decompose_reference,
                     skewadjoint_op, split_form, triangular_form_has_x)

ALG = DiffAlgebra(1, ["c"])
D = ScalarDiffOp.d(ALG)
ONE = ScalarDiffOp.identity(ALG)
ZERO = ScalarDiffOp.zero(ALG)
U = ALG.jet(1)


def u_op():
    return ScalarDiffOp.mul_by(ALG.jet(1))


def test_compose_rule():
    """d o a = a d + a' and its second-order iterate."""
    u = ALG.jet(1)
    assert D.compose(u_op()) == ScalarDiffOp(ALG, {1: u, 0: u.derive()})
    d2u = ScalarDiffOp.d(ALG, 2).compose(u_op())
    assert d2u == ScalarDiffOp(ALG, {2: u, 1: u.derive() * 2,
                                     0: ALG.jet(1, 2)})
    A = rnd_scalar_op(random.Random(1), ALG)
    assert A.compose(ONE) == A and ONE.compose(A) == A


def test_adjoint_examples():
    u = ALG.jet(1)
    ud = u_op().compose(D)
    assert ud.adjoint() == ScalarDiffOp(ALG, {1: -u, 0: -u.derive()})
    assert D.adjoint() == ScalarDiffOp(ALG, {1: -ALG.one})
    c = ALG.param("c")
    cd3 = ScalarDiffOp(ALG, {3: c * ALG.one})
    assert cd3.adjoint() == ScalarDiffOp(ALG, {3: -c * ALG.one})


def test_adjoint_anti_involution():
    rng = random.Random(2)
    for _ in range(8):
        A = rnd_scalar_op(rng, ALG)
        B = rnd_scalar_op(rng, ALG)
        assert A.compose(B).adjoint() == B.adjoint().compose(A.adjoint())
        assert A.adjoint().adjoint() == A


def test_matrix_adjoint_anti_involution():
    rng = random.Random(3)
    alg2 = DiffAlgebra(2)
    for _ in range(4):
        A = rnd_mat_op(rng, alg2, quasiconstant=False)
        B = rnd_mat_op(rng, alg2, quasiconstant=False)
        assert A.compose(B).adjoint() == B.adjoint().compose(A.adjoint())


def test_canonical_forms():
    u = ALG.jet(1)
    ud = u_op().compose(D)
    b = right_coefficient_form(ud)
    assert b[1] == u and b[0] == -u.derive()
    cs, ds = split_form(ScalarDiffOp.d(ALG, 2))
    assert not cs and ds == {1: ALG.one}
    rng = random.Random(4)
    for _ in range(8):
        P = rnd_scalar_op(rng, ALG, max_order=4)
        forms = canonical_forms(P)
        assert from_right_form(ALG, forms["right"]) == P
        assert from_split_form(ALG, *forms["split"]) == P


def test_power_rearrangement_identity():
    """d^p o a d^q as a binomial double sum in the split basis, p, q <= 5."""
    u = ALG.jet(1)
    for p in range(6):
        for q in range(p):
            lhs = ScalarDiffOp.d(ALG, p).compose(
                ScalarDiffOp(ALG, {q: u}))
            rhs = ScalarDiffOp.zero(ALG)
            a = u
            derivs = {0: a}
            for j in range(1, p + q + 1):
                derivs[j] = derivs[j - 1].derive()
            for m in range(q, (p + q - 1) // 2 + 1):
                coef = math.comb(p - m - 1, m - q)
                if coef:
                    rhs = rhs + ScalarDiffOp.d(ALG, m + 1).compose(
                        ScalarDiffOp(ALG, {m: derivs[p + q - 2 * m - 1] * coef}))
            for m in range(q + 1, (p + q) // 2 + 1):
                coef = math.comb(p - m - 1, m - q - 1)
                if coef:
                    rhs = rhs + ScalarDiffOp.d(ALG, m).compose(
                        ScalarDiffOp(ALG, {m: derivs[p + q - 2 * m] * coef}))
            assert lhs == rhs, (p, q)


def test_skewadjoint_decompose():
    a, b = skewadjoint_decompose(D)
    assert a == {0: ALG.one * Fraction(1, 2)} and not b
    a, b = skewadjoint_decompose(ScalarDiffOp.d(ALG, 3))
    assert a == {1: ALG.one * Fraction(1, 2)} and not b
    a, b = skewadjoint_decompose(ZERO)
    assert not a and not b
    with pytest.raises(NotSkewadjoint):
        skewadjoint_decompose(ONE)
    rng = random.Random(5)
    for _ in range(6):
        S = skewadjoint_op(rng, ALG, quasiconstant=False)
        a, b = skewadjoint_decompose(S)
        rebuilt = ScalarDiffOp.zero(ALG)
        for m, am in a.items():
            inner = D.compose(ScalarDiffOp(ALG, {0: am})) + \
                ScalarDiffOp(ALG, {0: am}).compose(D)
            rebuilt = rebuilt + ScalarDiffOp.d(ALG, m).compose(inner).compose(
                ScalarDiffOp.d(ALG, m))
        for m, bm in b.items():
            rebuilt = rebuilt + ScalarDiffOp.d(ALG, m).compose(
                ScalarDiffOp(ALG, {m: bm}))
        assert rebuilt == S


def degenerate_leading_example():
    u = ALG.jet(1)
    return MatDiffOp(ALG, [[ONE, ScalarDiffOp.mul_by(u)],
                           [D, ScalarDiffOp.mul_by(u).compose(D)]])


def test_majorant():
    M = degenerate_leading_example()
    assert majorant(M) == Majorant([1, 1], [1, 0])
    assert majorant(MatDiffOp(ALG, [[ScalarDiffOp.d(ALG, 2)]])) == \
        Majorant([2], [0])
    diag = MatDiffOp(ALG, [[D, ZERO], [ZERO, ScalarDiffOp.d(ALG, 3)]])
    assert majorant(diag) == Majorant([1, 3], [0, 0])
    with pytest.raises(DegenerateShape):
        majorant(MatDiffOp(ALG, [[ZERO, ZERO], [ZERO, ZERO]]))


def test_majorant_minimality():
    """Any alternative majorant dominates the computed column bounds."""
    rng = random.Random(6)
    for _ in range(6):
        M = rnd_mat_op(rng, ALG, size=2, quasiconstant=True)
        if any(all(M.rows[i][j].is_zero() for i in range(2))
               for j in range(2)):
            continue
        mj = majorant(M)
        orders = [[e.order() for e in row] for row in M.rows]
        for N1 in range(mj.N[0], mj.N[0] + 2):
            for N2 in range(mj.N[1], mj.N[1] + 2):
                hs = []
                for i in range(2):
                    cand = [([N1, N2][j]) - orders[i][j]
                            for j in range(2) if orders[i][j] is not None]
                    hs.append(min(cand) if cand else 0)
                for j, n in enumerate((N1, N2)):
                    assert n >= mj.N[j]


def test_leading_matrix():
    M = degenerate_leading_example()
    mj = majorant(M)
    lm = leading_matrix(M, mj)
    assert [[p for (_, p) in row] for row in lm.entries] == [[0, 0], [1, 1]]
    assert not lm.is_nondegenerate(ALG)
    diag = MatDiffOp(ALG, [[D, ZERO], [ZERO, ScalarDiffOp.d(ALG, 3)]])
    lm2 = leading_matrix(diag, majorant(diag))
    assert lm2.is_nondegenerate(ALG)
    with pytest.raises(NotAMajorant):
        leading_matrix(diag, Majorant([0, 0], [0, 0]))


def test_leading_matrix_det_degree():
    """det of the leading matrix concentrates in degree sum(N) - sum(h)."""
    rng = random.Random(7)
    for _ in range(5):
        M = rnd_mat_op(rng, ALG, size=2, quasiconstant=True)
        try:
            mj = majorant(M)
        except DegenerateShape:
            continue
        dv = dieudonne_det(M)
        if dv.is_zero:
            continue
        assert dv.d <= sum(mj.N) - sum(mj.h)


def test_row_echelon():
    M = degenerate_leading_example()
    ech, ops = row_echelon(M)
    u = ALG.jet(1)
    assert ech.rows[1][0].is_zero()
    from varpois.diffalg import DiffRat
    assert ech.rows[1][1].coeffs[0] == DiffRat(-u.derive())
    # already upper triangular stays unchanged
    up = MatDiffOp(ALG, [[D, ONE], [ZERO, D]])
    ech2, ops2 = row_echelon(up)
    assert not ops2
    # replay oracle on random matrices
    rng = random.Random(8)
    for _ in range(5):
        W = rnd_mat_op(rng, ALG, size=3, quasiconstant=True)
        eW, opsW = row_echelon(W)
        assert apply_row_ops(W, opsW) == eW


def _rebuild(alg, a, b, size):
    """sum_m d^m o (d o a_m + a_m d) o d^m + sum_m d^m o b_m o d^m, for
    the blocks of skewadjoint_decompose on a size x size operator."""
    def block(m, v, odd):
        def entry(i, j):
            c = ScalarDiffOp(alg, {0: v[i][j] if size > 1 else v})
            inner = D.compose(c) + c.compose(D) if odd else c
            dm = ScalarDiffOp.d(alg, m)
            return dm.compose(inner).compose(dm)
        return MatDiffOp(alg, [[entry(i, j) for j in range(size)]
                               for i in range(size)])

    out = MatDiffOp(alg, [[ScalarDiffOp.zero(alg)] * size] * size)
    for m, v in a.items():
        out = out + block(m, v, True)
    for m, v in b.items():
        out = out + block(m, v, False)
    return out


def test_skewadjoint_decompose_even_order_blocks():
    """Even orders give the d^m o b_m o d^m blocks: the selfadjoint d^2
    and d o (1 + x^2) o d, and the skewadjoint [[0, d^2], [-d^2, 0]],
    each rebuilt from its blocks."""
    F = ALG.field
    x2 = ALG.from_scalar(F.one + F.x * F.x)
    for S, want in ((ScalarDiffOp.d(ALG, 2), ALG.one),
                    (D.compose(ScalarDiffOp(ALG, {0: x2})).compose(D), x2)):
        a, b = skewadjoint_decompose(S, selfadjoint=True)
        assert (a, b) == ({}, {1: want})
        assert _rebuild(ALG, a, b, 1) == MatDiffOp.scalar(S)
    d2 = ScalarDiffOp.d(ALG, 2)
    S = MatDiffOp(ALG, [[ZERO, d2], [ZERO, ZERO]])
    S = S - S.adjoint()
    a, b = skewadjoint_decompose(S)
    assert not a and list(b) == [1]
    assert _rebuild(ALG, a, b, 2) == S


@st.composite
def adjoint_symmetric_ops(draw):
    """(S, selfadjoint): S = M - M* or M + M* for a 1x1 or 2x2 M of order
    <= 3 whose coefficients carry x and jets of u of order <= 1."""
    size = draw(st.integers(1, 2))
    M = MatDiffOp(ALG, [[ScalarDiffOp(ALG, {
        n: draw(diffpolys(ALG, max_order=1, max_degree=1, max_terms=2,
                          with_x=True))
        for n in range(4) if draw(st.booleans())})
        for _ in range(size)] for _ in range(size)])
    selfadjoint = draw(st.booleans())
    return (M + M.adjoint() if selfadjoint else M - M.adjoint()), selfadjoint


@settings(max_examples=60, deadline=None)
@given(adjoint_symmetric_ops())
def test_skewadjoint_decompose_equals_the_matrix_loop(case):
    """Peeling every entry on its own gives the blocks that the matrix
    loop (skewadjoint_decompose_reference) takes off the whole operator,
    for matrix input and, at size 1, for the scalar operator."""
    S, selfadjoint = case
    want = skewadjoint_decompose_reference(S, selfadjoint)
    assert skewadjoint_decompose(S, selfadjoint) == want
    if S.m == 1:
        assert skewadjoint_decompose(S.rows[0][0], selfadjoint) == tuple(
            {m: v[0][0] for m, v in part.items()} for part in want)


def test_majorant_preserving_reduce_diag():
    diag = MatDiffOp(ALG, [[D, ZERO], [ZERO, D]])
    red, colperm, rowperm = majorant_preserving_reduce(diag, majorant(diag))
    assert red == diag


def test_majorant_preserving_reduce_pseudo():
    M = MatDiffOp(ALG, [[D, ONE], [ONE, D]])
    mj = majorant(M)
    MP = MatPseudoOp.from_mat_diff_op(M)
    red, colperm, rowperm = majorant_preserving_reduce(MP, mj)
    assert red.rows[1][0].order() is None
    assert [red.rows[i][i].order() for i in range(2)] == [1, 1]


def test_majorant_preserving_reduce_pseudo_clears_below_the_pivots():
    """[[d^2, x d], [d, 2]] has row gains h = (0, 1), so the row of gain 1
    comes first and the pseudodifferential reduction clears the entry below
    its pivot.  The result is upper triangular, with the diagonal orders
    N_j - h_j that the MatDiffOp reduction of the same matrix has."""
    F = ALG.field
    xd = ScalarDiffOp(ALG, {1: ALG.from_scalar(F.x)})
    M = MatDiffOp(ALG, [[ScalarDiffOp.d(ALG, 2), xd], [D, ONE + ONE]])
    mj = majorant(M)
    assert mj.h == (0, 1)
    red, colperm, rowperm = majorant_preserving_reduce(
        MatPseudoOp.from_mat_diff_op(M), mj)
    assert red.rows[1][0].order() is None
    ref, ref_colperm, ref_rowperm = majorant_preserving_reduce(M, mj)
    assert (colperm, rowperm) == (ref_colperm, ref_rowperm)
    N, h = [mj.N[c] for c in colperm], [mj.h[i] for i in rowperm]
    assert [red.rows[j][j].order() for j in range(2)] == \
        [ref.rows[j][j].order() for j in range(2)] == \
        [N[j] - h[j] for j in range(2)]


def test_majorant_preserving_reduce_degenerate():
    M = degenerate_leading_example()
    with pytest.raises(DegenerateLeadingMatrix):
        majorant_preserving_reduce(M, majorant(M))


def test_majorant_preserving_reduce_postcondition_random():
    """Diagonal orders exactly N_j - h_j, below-diagonal strictly smaller."""
    rng = random.Random(11)
    done = 0
    while done < 5:
        M = rnd_mat_op(rng, ALG, size=3, max_order=2, quasiconstant=True)
        try:
            mj = majorant(M)
            if not leading_matrix(M, mj).is_nondegenerate(ALG):
                continue
            red, colperm, rowperm = majorant_preserving_reduce(M, mj)
        except DegenerateShape:
            continue
        h = sorted((mj.h[i] for i in range(3)), reverse=True)
        N = [mj.N[c] for c in colperm]
        for j in range(3):
            assert red.rows[j][j].order() == N[j] - h[j]
            for i in range(j + 1, 3):
                e = red.rows[i][j]
                assert e.is_zero() or e.order() < N[j] - h[j]
        done += 1


def test_pseudo_composition_associative_on_trusted_range():
    F = ALG.field
    A = PseudoDiffOp(F, {1: F.one, 0: F.x}).inverse()
    B = PseudoDiffOp(F, {2: F.one, 0: F.one / (F.x + 1)})
    C = PseudoDiffOp(F, {1: F.x})
    lhs = A.compose(B).compose(C)
    rhs = A.compose(B.compose(C))
    floor = max(f for f in (lhs.floor, rhs.floor) if f is not None)
    top = max(lhs.order() or floor, rhs.order() or floor)
    for n in range(floor, top + 1):
        assert (lhs.coeff(n) - rhs.coeff(n)).is_zero(), n


def test_dieudonne_examples():
    from varpois.diffalg import DiffRat
    M = degenerate_leading_example()
    dv = dieudonne_det(M)
    assert not dv.is_zero and dv.d == 0
    assert dv.c == DiffRat(-ALG.jet(1, 1))
    diag = MatDiffOp(ALG, [[D, ZERO], [ZERO, ScalarDiffOp.d(ALG, 3)]])
    dv2 = dieudonne_det(diag)
    assert dv2.d == 4 and dv2.c == ALG.field.one
    assert dieudonne_det(MatDiffOp(ALG, [[ZERO, ZERO],
                                         [ZERO, ZERO]])) == DET_ZERO


def test_dieudonne_multiplicative():
    rng = random.Random(9)
    hits = 0
    for _ in range(10):
        A = rnd_mat_op(rng, ALG, size=2, quasiconstant=True)
        B = rnd_mat_op(rng, ALG, size=2, quasiconstant=True)
        da, db = dieudonne_det(A), dieudonne_det(B)
        dab = dieudonne_det(A.compose(B))
        if da.is_zero or db.is_zero:
            assert dab.is_zero
            continue
        hits += 1
        assert dab.d == da.d + db.d
        assert dab.c == da.c * db.c
    assert hits >= 5


def test_dieudonne_row_op_invariance():
    rng = random.Random(10)
    for _ in range(5):
        M = rnd_mat_op(rng, ALG, size=2, quasiconstant=True)
        dv = dieudonne_det(M)
        # add (an operator multiple of) row 0 to row 1
        P = rnd_scalar_op(rng, ALG, max_order=1, quasiconstant=True)
        rows = [list(M.rows[0]),
                [M.rows[1][j] + P.compose(M.rows[0][j]) for j in range(2)]]
        assert dieudonne_det(MatDiffOp(ALG, rows)) == dv


def test_kernel_dim_bound():
    assert kernel_dim_bound(MatDiffOp(ALG, [[ScalarDiffOp.d(ALG, 2)]])) == 2
    diag = MatDiffOp(ALG, [[D, ZERO], [ZERO, D]])
    assert kernel_dim_bound(diag) == 2
    assert kernel_dim_bound(MatDiffOp(ALG, [[ZERO, ZERO],
                                            [ZERO, ZERO]])) == INFINITE


def test_kernel_bound_met_by_rational_kernel():
    """For diag(d^(n_i)) conjugated by a constant matrix, the rational kernel
    has exactly the bound's dimension."""
    alg = DiffAlgebra(2)
    z = ScalarDiffOp.zero(alg)
    for n1, n2 in ((1, 2), (2, 3), (3, 1)):
        diag = MatDiffOp(alg, [[ScalarDiffOp.d(alg, n1), z],
                               [z, ScalarDiffOp.d(alg, n2)]])
        C = MatDiffOp.from_constant(alg, [[1, 1], [1, 2]])
        Cinv = MatDiffOp.from_constant(alg, [[2, -1], [-1, 1]])
        M = C.compose(diag).compose(Cinv)
        bound = kernel_dim_bound(M)
        sols = solve_rational(M)
        assert bound == n1 + n2 == sols.dim


def test_solve_rational_scalar():
    F = ALG.field
    M = MatDiffOp(ALG, [[D]])
    s = solve_rational(M, [F.x])
    assert s.particular == [F.x ** 2 / 2]
    assert s.homogeneous == [[F.one]]
    with pytest.raises(NoRationalSolution):
        solve_rational(M, [F.one / F.x])


def test_kernel_basis_is_the_one_back_substitution_builds():
    """[[d^2 + d, 1], [0, d]]: the pivot d^2 + d of y1 seeds (1, 0), and
    the pivot d of y2 seeds y2 = 1, which row 0 carries up to
    (d^2 + d) y1 = -1, y1 = 1 - x.  The basis is returned as built, not
    brought to the order an ansatz prints, [(1, 0), (-x, 1)]; the two span
    the same space."""
    F = ALG.field
    M = MatDiffOp(ALG, [[ScalarDiffOp.d(ALG, 2) + D, ONE], [ZERO, D]])
    basis = solve_rational(M).homogeneous
    assert basis == [[F.one, F.zero], [F.one - F.x, F.one]]
    for y in basis:
        assert M.apply([ALG.from_scalar(v) for v in y]) == [ALG.zero] * 2
    ansatz_basis = [[F.one, F.zero], [-F.x, F.one]]
    assert (constant_rank(basis) == constant_rank(ansatz_basis)
            == constant_rank(basis + ansatz_basis) == 2)


def test_pivot_with_poles_is_solved_by_the_ansatz():
    """d + 1 is not a monomial, so a right-hand side with poles goes to
    the ansatz at its certified bound: 1/x - 1/x^2 gives y = 1/x, and 1/x,
    which needs the exponential integral, certifies NoRationalSolution."""
    F = ALG.field
    M = MatDiffOp(ALG, [[D + ONE]])
    b = F.one / F.x - F.one / F.x ** 2
    assert solve_rational(M, [b]).particular == [F.one / F.x]
    with pytest.raises(NoRationalSolution):
        solve_rational(M, [F.one / F.x])


@st.composite
def pivots_facing_poles(draw):
    """(L, y): L a constant-coefficient operator of order <= 3 with two or
    three terms (not a monomial), and y a polynomial of degree <= 3 plus a
    nonzero proper fraction over one or two factors (x + a)^e, e <= 2, or
    x^2 + b, b > 0; over Q(x) or Q(c)(x)."""
    alg = draw(st.sampled_from([DiffAlgebra(1), ALG]))
    F = alg.field
    const = field_elems(F, with_x=False)
    nonzero = const.filter(lambda v: not v.is_zero())
    orders = draw(st.lists(st.integers(0, 3), min_size=2, max_size=3,
                           unique=True))
    L = ScalarDiffOp(alg, {n: alg.from_scalar(draw(nonzero))
                           for n in orders})
    poly = sum((draw(const) * F.x ** t
                for t in range(draw(st.integers(0, 4)))), F.zero)
    den = F.one
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            den = den * (F.x + draw(const)) ** draw(st.integers(1, 2))
        else:
            den = den * (F.x ** 2 + draw(st.integers(1, 3)))
    degree = max(x_coefficients(den))
    num = sum((draw(const) * F.x ** t for t in range(degree - 1)),
              draw(nonzero) * F.x ** (degree - 1))
    return L, poly + num / den


@settings(max_examples=30, deadline=None)
@given(pivots_facing_poles())
def test_pivot_facing_poles_is_solved_at_the_certified_bound(case):
    """A constant-coefficient pivot that is not a monomial, facing r = L y
    with poles, returns a y' with L y' = r: the ansatz at the bound
    max(deg num + m, deg den - 1) holds a solution whenever one exists."""
    L, y = case
    r = L.apply(y)
    assume(not r.is_zero())
    (found,) = solve_rational(MatDiffOp.scalar(L), [r]).particular
    assert L.apply(found) == r


def test_solve_rational_incomplete():
    """d y1 + y2 = 0, d y2 = 1/x needs y2 = log x: the bottom row of the
    triangular form certifies that no rational solution exists.  x d y = 1
    needs log x too, and its reduced row d y = 1/x is free of x, so that
    is certified as well; x y = 1 gives y = 1/x.  (x d + 1) y = 1/x, that
    is (x y)' = 1/x, keeps x in its triangular form, which leaves only the
    ansatz, whose exhaustion raises Incomplete."""
    F = ALG.field
    M = MatDiffOp(ALG, [[D, ScalarDiffOp.identity(ALG)],
                        [ScalarDiffOp.zero(ALG), D]])
    with pytest.raises(NoRationalSolution, match="logarithmic"):
        solve_rational(M, [F.zero, F.one / F.x])
    x = ALG.from_scalar(F.x)
    xd = MatDiffOp(ALG, [[ScalarDiffOp(ALG, {1: x})]])
    with pytest.raises(NoRationalSolution, match="logarithmic"):
        solve_rational(xd, [F.one])
    assert solve_rational(MatDiffOp(ALG, [[ScalarDiffOp(ALG, {0: x})]]),
                          [F.one]).particular == [F.one / F.x]
    xd1 = MatDiffOp(ALG, [[ScalarDiffOp(ALG, {1: x, 0: ALG.one})]])
    with pytest.raises(Incomplete,
                       match="no rational solution found with ansatz "
                             "degree 6"):
        solve_rational(xd1, [F.one / F.x])


def test_solve_rational_selfadjoint_system():
    """K = d^2: operators P of order <= 1 with K o P selfadjoint form the
    constants, dimension C(2,2) = 1."""
    K = MatDiffOp(ALG, [[ScalarDiffOp.d(ALG, 2)]])
    basis = selfadjoint_product_space(K)
    assert len(basis) == 1
    P = basis[0].rows[0][0]
    assert P.order() == 0 and P.coeff(0).is_quasiconstant()


def test_linform_system_rows():
    """solve_linform_system keeps LinForm equations, drops zero terms and
    names a term free of the unknowns; a system without equations leaves
    every atom free, so its kernel is infinite."""
    F = ALG.field
    a, b = LinForm.atom(F, "a"), LinForm.atom(F, "b")
    # a' = 0, with a zero term and a zero LinForm: a is a constant
    sols = solve_linform_system(
        ALG, [(0, a.derive()), (1, F.zero), (2, LinForm.zero(F))], ["a"])
    assert sols.homogeneous == [[F.one]]
    with pytest.raises(InvariantViolation, match="free of the unknowns"):
        solve_linform_system(ALG, [(0, a), (1, F.one)], ["a"])
    with pytest.raises(InvariantViolation, match="'a' has no pivot"):
        solve_linform_system(ALG, [], ["a", "b"])
    assert solve_rational(MatDiffOp(ALG, [[ZERO, ZERO]])).dim == INFINITE
    # a' = 0 and b = x: a is a constant, b is x
    sols = solve_linform_system(ALG, [(0, a.derive()), (1, b)], ["a", "b"],
                                [(1, F.x)])
    assert sols.particular == [F.zero, F.x]
    assert sols.homogeneous == [[F.one, F.zero]]


@st.composite
def linform_systems(draw):
    """(eqs, atoms, b): up to 3 LinForm equations in the atoms "p", "q"
    with derivatives of order <= 2, each None (no equation), zero or a few
    terms; coefficients with x or free of x, and b a right-hand side of
    small polynomials of degree <= 1 or None."""
    F = ALG.field
    atoms = ["p", "q"][:draw(st.integers(1, 2))]
    with_x = draw(st.booleans())
    coeff = field_elems(F, with_x=with_x)
    eqs = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["none", "zero", "form", "form"]))
        lf = None if kind == "none" else LinForm.zero(F)
        if kind == "form":
            for _ in range(draw(st.integers(1, 3))):
                atom = LinForm.atom(F, draw(st.sampled_from(atoms)),
                                    draw(st.integers(0, 2)))
                lf = lf + atom * draw(coeff.filter(lambda v: not v.is_zero()))
        eqs.append(lf)
    b = None
    if draw(st.booleans()):
        b = [draw(st.sampled_from([F.zero, F.one, F.x, F.x - 2]))
             for _ in eqs]
    return eqs, atoms, b


@settings(max_examples=80, deadline=None)
@given(system=linform_systems())
def test_linform_rows_equal_the_operator_matrix(system):
    """solve_linform_system, which reads its rows from LinForm.terms,
    equals solve_rational on the operator matrix of the same equations
    (linform_matrix_reference), with and without x, with and without a
    right-hand side, zero rows included: the same particular solution and
    basis, or the same error; without a right-hand side an infinite
    kernel is an InvariantViolation."""
    eqs, atoms, b = system
    keys = [i for i, lf in enumerate(eqs) if lf is not None]
    pairs = [(i, eqs[i]) for i in keys]
    if b is not None:
        rhs = [(i, v) for i, v in enumerate(b) if not v.is_zero()]
        keys = sorted(set(keys) | {i for i, _ in rhs})
        b = [b[i] for i in keys]
    # no equation at all: the reference is the zero operator
    M = linform_matrix_reference(ALG, [eqs[i] for i in keys] or [None], atoms)
    if b is not None and not keys:
        b = [ALG.field.zero]

    def outcome(solve):
        try:
            sols = solve()
        except (Incomplete, NoRationalSolution, InvariantViolation) as err:
            return type(err)
        return (sols.particular, sols.homogeneous, sols.free)

    want = outcome(lambda: solve_rational(M, b))
    if b is None:
        got = outcome(lambda: solve_linform_system(ALG, pairs, atoms))
        if want[1] is None:
            want = InvariantViolation
    else:
        got = outcome(lambda: solve_linform_system(ALG, pairs, atoms, rhs))
    assert got == want


def test_selfadjoint_space_dimensions():
    for N in range(1, 5):
        K = MatDiffOp(ALG, [[ScalarDiffOp.d(ALG, N)]])
        basis = selfadjoint_product_space(K)
        assert len(basis) == math.comb(N, 2)
        for P in basis:
            T = K.compose(P)
            assert (T - T.adjoint()).is_zero()


def test_selfadjoint_space_matrix_bound():
    alg = DiffAlgebra(2)
    z = ScalarDiffOp.zero(alg)
    d1 = ScalarDiffOp.d(alg, 1)
    K = MatDiffOp(alg, [[d1, ScalarDiffOp.identity(alg)], [z, d1]])
    basis = selfadjoint_product_space(K)
    assert len(basis) <= math.comb(1 * 2, 2)


def test_pseudo_ops():
    F = ALG.field
    P = PseudoDiffOp(F, {1: F.one, 0: F.x})
    inv = P.inverse()
    check = P.compose(inv)
    assert check.coeff(0).is_one()
    assert all(check.coeff(n).is_zero()
               for n in range(-3, 0))
    from varpois import TruncationExceeded
    with pytest.raises(TruncationExceeded):
        inv.coeff(inv.floor - 1)


def test_ansatz_degree_comes_from_the_pivots(monkeypatch):
    """With x in a coefficient of the triangular form the ansatz runs on
    its rows at degree 2 (sum of the pivot orders) + 4: 8 for x d^2 + 1,
    10 for diag(x d^2 + 1, d), 6 for [x d + 1, x d + 1] (one pivot, of
    order 1); a pivot d + 1 facing r = (x - 1)/x^2 takes its certified
    bound max(deg num + 0, deg den - 1) = 1.  x d^2, whose reduced row is
    d^2, reaches no ansatz."""
    F = ALG.field
    degrees = []

    def recording(M, b, degree_bound, den):
        degrees.append((M.n, degree_bound))
        return _solve_by_ansatz(M, b, degree_bound, den)

    monkeypatch.setattr(diffop, "_solve_by_ansatz", recording)
    x = ALG.from_scalar(F.x)
    xd1 = ScalarDiffOp(ALG, {1: x, 0: ALG.one})
    xd2 = ScalarDiffOp(ALG, {2: x, 0: ALG.one})
    solve_rational(MatDiffOp(ALG, [[ScalarDiffOp(ALG, {2: x})]]))
    assert degrees == []
    solve_rational(MatDiffOp(ALG, [[xd2]]))
    solve_rational(MatDiffOp(ALG, [[xd2, ZERO], [ZERO, D]]))
    solve_rational(MatDiffOp(ALG, [[xd1, xd1]]), [F.x])
    solve_rational(MatDiffOp(ALG, [[D + ONE]]), [F.one / F.x - F.one / F.x ** 2])
    assert degrees == [(1, 8), (2, 10), (2, 6), (1, 1)]


@st.composite
def constant_systems(draw):
    """An m x n MatDiffOp over ALG with m, n <= 3, entries of order <= 3
    and coefficients free of x (small rationals, c-linear, or zero).  A
    system may be underdetermined (m < n), or rank-deficient: a row
    repeated, or scaled by c."""
    F = ALG.field
    c = F.param("c")
    coeff = st.one_of(
        st.just(F.zero),
        st.builds(F.rational, st.integers(-3, 3), st.sampled_from([1, 2])),
        st.builds(lambda p, q: p * c + q, st.integers(-2, 2),
                  st.integers(-2, 2)))
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rows = [[ScalarDiffOp(ALG, {k: ALG.from_scalar(draw(coeff))
                                for k in range(draw(st.integers(0, 3)) + 1)})
             for _ in range(n)] for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        factor = draw(st.sampled_from([F.one, c]))
        rows[-1] = [e.scale(ALG.from_scalar(factor)) for e in rows[0]]
    return MatDiffOp(ALG, rows)


def _polynomials(draw, count):
    """count polynomials of degree <= 2 in x with coefficients in
    {-2..2} and c."""
    F = ALG.field
    c = F.param("c")
    coeff = st.one_of(st.builds(F.rational, st.integers(-2, 2)),
                      st.just(c))
    return [sum((draw(coeff) * F.x ** t for t in range(3)), F.zero)
            for _ in range(count)]


def _x_degree(v) -> int:
    """The degree in x of a polynomial v (-1 for zero)."""
    d = -1
    while not v.is_zero():
        v, d = v.derive(), d + 1
    return d


def _solves(M, y, b) -> bool:
    """M y = b, exactly."""
    return M.apply([ALG.from_scalar(v) for v in y]) == \
        [ALG.from_scalar(v) for v in b]


@settings(max_examples=120, deadline=None)
@given(M=constant_systems(), data=st.data())
def test_solve_rational_on_constant_systems_equals_ansatz(M, data):
    """On the triangular form: M y = b holds for a polynomial b; a finite
    kernel basis, as back-substitution builds it, is as long as the basis
    of an ansatz of degree above its top degree and spans the same space;
    an infinite kernel makes the ansatz
    kernel grow from degree 2 to 3; NoRationalSolution comes only where no
    ansatz solves."""
    F = ALG.field
    zero = [F.zero] * M.m
    b = _polynomials(data.draw, M.m) if data.draw(st.booleans()) else zero
    try:
        sols = solve_rational(M, b)
    except NoRationalSolution:
        with pytest.raises(Incomplete):
            _solve_by_ansatz(M, b, 6, F.one)
        return
    if b == zero:
        assert sols.particular is None
    else:
        assert _solves(M, sols.particular, b)
    if sols.dim == INFINITE:
        assert sols.homogeneous is None and sols.free
        grown = [len(_solve_by_ansatz(M, zero, cap, F.one).homogeneous)
                 for cap in (2, 3)]
        assert grown[0] < grown[1]
        return
    top = max((_x_degree(v) for y in sols.homogeneous for v in y),
              default=0)
    ansatz = _solve_by_ansatz(M, zero, top + 2, F.one).homogeneous
    assert len(sols.homogeneous) == len(ansatz) == \
        constant_rank(sols.homogeneous) == \
        constant_rank(sols.homogeneous + ansatz)
    for y in sols.homogeneous:
        assert _solves(M, y, zero)


def test_constant_systems_solve_on_the_triangular_form(monkeypatch):
    """d + 2 has no rational solution; diag(d^2, d) has the kernel 1, x in
    y1 and 1 in y2; [d, d] (y1 + y2 constant) has an infinite kernel, with
    y2 free; none of them reaches the ansatz, and neither does x d, whose
    reduced row d is free of x (kernel 1).  x d^2 - d, whose reduced row
    d^2 - (1/x) d keeps x, is solved by the ansatz (kernel 1, x^2)."""
    F = ALG.field
    calls = []

    def recording(M, b, degree_bound, den):
        calls.append(M)
        return _solve_by_ansatz(M, b, degree_bound, den)

    monkeypatch.setattr(diffop, "_solve_by_ansatz", recording)
    e = ScalarDiffOp(ALG, {1: ALG.one, 0: ALG.one * 2})
    assert solve_rational(MatDiffOp(ALG, [[e]])).homogeneous == []
    M = MatDiffOp(ALG, [[ScalarDiffOp.d(ALG, 2), ZERO], [ZERO, D]])
    assert solve_rational(M).homogeneous == [[F.one, F.zero], [F.x, F.zero],
                                             [F.zero, F.one]]
    wide = solve_rational(MatDiffOp(ALG, [[D, D]]))
    assert (wide.dim, wide.homogeneous, wide.free) == (INFINITE, None, (1,))
    xd = ScalarDiffOp(ALG, {1: ALG.from_scalar(F.x)})
    assert solve_rational(MatDiffOp(ALG, [[xd]])).homogeneous == [[F.one]]
    assert calls == []
    xd2 = ScalarDiffOp(ALG, {2: ALG.from_scalar(F.x), 1: -ALG.one})
    assert solve_rational(MatDiffOp(ALG, [[xd2]])).homogeneous == \
        [[F.one], [F.x ** 2]]
    assert len(calls) == 1


def test_unmentioned_unknown_makes_an_x_dependent_kernel_infinite(
        monkeypatch):
    """[x d + 1, 0] leaves y2 free, as [d, 0] does: the kernel is infinite
    with y2 in free, not the degree-capped slice of an ansatz, and the
    particular solution, from the ansatz on both unknowns, has y2 zero
    ((x y1)' = x gives y1 = x/2).  A linear-form system in a and b that
    never mentions b raises InvariantViolation naming b."""
    F = ALG.field
    calls = []

    def recording(M, b, degree_bound, den):
        calls.append(M)
        return _solve_by_ansatz(M, b, degree_bound, den)

    monkeypatch.setattr(diffop, "_solve_by_ansatz", recording)
    xd = ScalarDiffOp(ALG, {1: ALG.from_scalar(F.x), 0: ALG.one})
    for row, free in (([xd, ZERO], (1,)), ([ZERO, xd], (0,))):
        sols = solve_rational(MatDiffOp(ALG, [row]))
        assert (sols.dim, sols.particular, sols.free) == (INFINITE, None,
                                                          free)
    assert calls == []
    sols = solve_rational(MatDiffOp(ALG, [[xd, ZERO]]), [F.x])
    assert (sols.dim, sols.free) == (INFINITE, (1,))
    assert sols.particular == [F.x / 2, F.zero]
    assert [M.n for M in calls] == [2]
    wide = solve_rational(MatDiffOp(ALG, [[D, ZERO]]))
    assert (wide.dim, wide.free) == (INFINITE, (1,))
    a = LinForm.atom(F, "a")
    with pytest.raises(InvariantViolation, match="'b' has no pivot"):
        solve_linform_system(ALG, [(0, a.derive() * F.x)], ["a", "b"])
    sols = solve_linform_system(ALG, [(0, a.derive() * F.x + a)],
                                ["a", "b"], [(0, F.x)])
    assert (sols.dim, sols.particular) == (INFINITE, [F.x / 2, F.zero])


def test_x_dependent_systems_solve_on_the_triangular_form():
    """[x d, x d], that is x (y1 + y2)' = b, leaves y2 without a pivot:
    the kernel is infinite with y2 free, not the degree-capped slice of an
    ansatz, and for b = x the particular solution solves the system.  A
    zero row of the triangular form facing a nonzero right-hand side
    certifies NoRationalSolution, whether the reduction over F finds it
    ([x d; x d], b = (0, 1)) or row_echelon does ([x d; x d^2], where
    y' = 0 forces x y'' = 0)."""
    F = ALG.field
    xd = ScalarDiffOp(ALG, {1: ALG.from_scalar(F.x)})
    xd2 = ScalarDiffOp(ALG, {2: ALG.from_scalar(F.x)})
    M = MatDiffOp(ALG, [[xd, xd]])
    sols = solve_rational(M)
    assert (sols.dim, sols.free) == (INFINITE, (1,))
    sols = solve_rational(M, [F.x])
    assert (sols.dim, sols.free) == (INFINITE, (1,))
    assert _solves(M, sols.particular, [F.x])
    for rows in ([[xd], [xd]], [[xd], [xd2]]):
        with pytest.raises(NoRationalSolution, match="vanishes"):
            solve_rational(MatDiffOp(ALG, rows), [F.zero, F.one])


@st.composite
def x_dependent_full_rank_systems(draw):
    """(M, b): a square M with 1 or 2 unknowns, entries of order <= 2 with
    small polynomial coefficients, x in at least one and det M nonzero;
    b zero, polynomial, or with a pole at 0 or -1 in each entry."""
    F = ALG.field
    x = F.x
    coeff = st.sampled_from([F.zero, F.zero, F.one, -F.one, F.rational(2),
                             x, x + 1, x * x, 1 - x])
    n = draw(st.integers(1, 2))
    M = MatDiffOp(ALG, [[ScalarDiffOp(ALG, {k: ALG.from_scalar(draw(coeff))
                                            for k in range(draw(
                                                st.integers(0, 2)) + 1)})
                         for _ in range(n)] for _ in range(n)])
    assume(any(not c.is_constant() for row in M.rows for e in row
               for c in e.field_coeffs().values()))
    assume(not dieudonne_det(M).is_zero)
    kind = draw(st.sampled_from(["zero", "polynomial", "pole"]))
    if kind == "zero":
        return M, [F.zero] * n
    values = [F.one, x, x * x - 1, F.rational(3) * x + 2]
    if kind == "pole":
        values += [F.one / x, x / (x + 1), (x * x + 1) / (x * x)]
    return M, [draw(st.sampled_from(values)) for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(system=x_dependent_full_rank_systems())
@example(system=(MatDiffOp(ALG, [[ScalarDiffOp(ALG, {0: ALG.x()})]]),
                 [ALG.field.one]))
def test_x_dependent_systems_equal_the_ansatz_on_m(system):
    """For a square M of full rank with x in a coefficient, and x still in
    its triangular form, the ansatz on the triangular rows (degree
    2 (sum of the pivot orders) + 4, over the denominators of b) gives
    what the ansatz on M itself gives at degree 2 deg det M + 4
    (ansatz_reference): the row operations keep the solution set and the
    Dieudonne degree.  The same particular solution and basis, or the
    same exception.

    Where the triangular form is free of x (x y = 1 reduces to y = 1/x),
    the solution is certified: M y = b holds, the kernel contains the
    ansatz kernel, and where no solution is returned the ansatz on M finds
    none either."""
    M, b = system
    F = ALG.field

    def outcome(solve):
        try:
            sols = solve()
        except (Incomplete, NoRationalSolution) as err:
            return type(err)
        return sols.particular, sols.homogeneous, sols.free

    if triangular_form_has_x(M):
        assert outcome(lambda: solve_rational(M, b)) == \
            outcome(lambda: ansatz_reference(M, b))
        return
    homogeneous_rhs = all(v.is_zero() for v in b)
    ansatz_solves = homogeneous_rhs or \
        outcome(lambda: ansatz_reference(M, b)) is not Incomplete
    try:
        sols = solve_rational(M, b)
    except (Incomplete, NoRationalSolution):
        assert not ansatz_solves
        return
    if not homogeneous_rhs:
        assert _solves(M, sols.particular, b)
    ansatz = ansatz_reference(M, [F.zero] * M.m).homogeneous
    assert constant_rank(sols.homogeneous) == len(sols.homogeneous) == \
        constant_rank(sols.homogeneous + ansatz)
    for y in sols.homogeneous:
        assert _solves(M, y, [F.zero] * M.m)


@st.composite
def triangularizable_systems(draw):
    """(M, ms, orders): M = A diag(L_1..L_n) B with n <= 3, A and B
    unipotent (upper and lower triangular, ones on the diagonal, entries of
    order <= 1) and L_j = d^m_j L0_j, L0_j = c_j + (order <= 1), c_j != 0;
    every coefficient a small rational.  ms lists the m_j and orders the
    ord L_j."""
    F = ALG.field
    small = st.builds(F.rational, st.integers(-2, 2))

    def op(coeffs):
        return ScalarDiffOp(ALG, {k: ALG.from_scalar(v)
                                  for k, v in coeffs.items()})

    n = draw(st.integers(1, 3))
    pivots, ms = [], []
    for _ in range(n):
        m = draw(st.integers(0, 2))
        L0 = {0: F.rational(draw(st.sampled_from([-2, -1, 1, 3])))}
        if draw(st.booleans()):
            L0[1] = draw(small)
        pivots.append(op({k + m: v for k, v in L0.items()}))
        ms.append(m)

    def unipotent(upper):
        return MatDiffOp(ALG, [[ONE if i == j else
                                op({0: draw(small), 1: draw(small)})
                                if (i < j) == upper else ZERO
                                for j in range(n)] for i in range(n)])

    diag = MatDiffOp(ALG, [[pivots[i] if i == j else ZERO for j in range(n)]
                           for i in range(n)])
    M = unipotent(True).compose(diag).compose(unipotent(False))
    return M, ms, [L.order() for L in pivots]


@settings(max_examples=60, deadline=None)
@given(system=triangularizable_systems(), data=st.data())
def test_triangular_solver_on_triangularizable_systems(system, data):
    """M = A diag(d^m_j L0_j) B: M y = b for a polynomial b, and the
    rational kernel has dimension sum m_j, while kernel_dim_bound (deg det)
    is sum ord L_j; the two agree when every L0_j is constant."""
    M, ms, orders = system
    zero = [ALG.field.zero] * M.m
    b = _polynomials(data.draw, M.m)
    sols = solve_rational(M, b)
    if b == zero:
        assert sols.particular is None
    else:
        assert _solves(M, sols.particular, b)
    assert sols.dim == sum(ms)
    assert kernel_dim_bound(M) == sum(orders)
    for y in sols.homogeneous:
        assert _solves(M, y, zero)


@st.composite
def op_matrices(draw, with_x=False, jets=False):
    """A 2x2 MatDiffOp of order <= 2 over ALG with coefficients in F
    (constants in c unless with_x).  With jets the order-0 coefficients
    may also carry u; richer jets make elimination over V's fraction field
    swell to minutes."""
    def coeff(n):
        c = ALG.from_scalar(draw(field_elems(ALG.field, with_x)))
        if jets and n == 0 and draw(st.booleans()):
            c = c + ALG.from_scalar(draw(field_elems(ALG.field, False))) * U
        return c
    return MatDiffOp(ALG, [[ScalarDiffOp(ALG, {n: coeff(n) for n in range(3)
                                               if draw(st.booleans())})
                            for _ in range(2)] for _ in range(2)])


def pseudo(F, coeffs: dict) -> PseudoDiffOp:
    return PseudoDiffOp(F, {n: F.rational(v) for n, v in coeffs.items()})


def test_pseudo_det_zero_only_up_to_truncation():
    """det [[x d^10, 1], [1, q]] with q = (x d^10)^-1 + d^-30 is x d^-20,
    but the inverse of x d^10 is a series tracked only down to d^-23, so
    the Schur complement vanishes only up to truncation: elimination gives
    up instead of reporting a zero determinant.  The inverse of the
    constant d^10 is exact, so the same shape with pivot d^10 gives d^-20,
    and so does the shape at depth 3."""
    F = ALG.field
    pivot = PseudoDiffOp(F, {10: F.x})
    q = PseudoDiffOp(F, dict(pivot.inverse().coeffs)) + pseudo(F, {-30: 1})
    M = MatPseudoOp(F, [[pivot, pseudo(F, {0: 1})], [pseudo(F, {0: 1}), q]])
    with pytest.raises(TruncationExceeded):
        dieudonne_det(M)
    M = MatPseudoOp(F, [[pseudo(F, {10: 1}), pseudo(F, {0: 1})],
                        [pseudo(F, {0: 1}), pseudo(F, {-10: 1, -30: 1})]])
    assert dieudonne_det(M) == DetValue(F.one, -20)
    M = MatPseudoOp(F, [[pseudo(F, {1: 1}), pseudo(F, {0: 1})],
                        [pseudo(F, {0: 1}), pseudo(F, {-1: 1, -3: 1})]])
    assert dieudonne_det(M) == DetValue(F.one, -2)


def test_inverse_of_constant_monomial_is_exact():
    """c d^N with c' = 0 inverts to c^-1 d^-N with no truncation floor;
    x d still inverts to a truncated series."""
    F = ALG.field
    c = F.param("c")
    for op, inv in ((pseudo(F, {2: 3}), {-2: F.rational(Fraction(1, 3))}),
                    (PseudoDiffOp(F, {-1: c}), {1: F.one / c})):
        assert op.inverse().floor is None and op.inverse().coeffs == inv
        one = op.compose(op.inverse())
        assert one.floor is None and one.coeffs == {0: F.one}
    assert PseudoDiffOp(F, {1: F.x}).inverse().floor is not None
    assert pseudo(F, {1: 1, 0: 1}).inverse().floor is not None


def test_pseudo_det_of_singular_constant_matrix_is_zero():
    """[[d, d], [d, d]] is singular: its Schur complement d - d o d^-1 o d
    is exactly zero, so the skew-field determinant is 0 as in F[d]."""
    M = MatDiffOp(ALG, [[D, D], [D, D]])
    assert dieudonne_det(M) == DET_ZERO
    assert dieudonne_det(MatPseudoOp.from_mat_diff_op(M)) == DET_ZERO


@settings(max_examples=80, deadline=None)
@given(op_matrices(), st.dictionaries(st.integers(1, 2),
                                      field_elems(ALG.field, False),
                                      min_size=1))
def test_dieudonne_det_differential_equals_pseudo(M, shear):
    """The determinant of M in F[d] and in the skew field agree, for M and
    for M with row 1 += P o row 0 (P of order 1 or 2, so that the leading
    matrix is most often degenerate and elimination runs).  The skew path
    tracks finitely many coefficients, so it may give up
    (TruncationExceeded), but only where the determinant is zero: a
    nonzero Schur complement here has order >= -2, far above the depth."""
    P = ScalarDiffOp(ALG, {n: ALG.from_scalar(c) for n, c in shear.items()})
    S = MatDiffOp(ALG, [M.rows[0], [a + P.compose(b)
                                    for a, b in zip(M.rows[1], M.rows[0])]])
    assert dieudonne_det(S) == dieudonne_det(M)
    for A in (M, S):
        det = dieudonne_det(A)
        try:
            assert dieudonne_det(MatPseudoOp.from_mat_diff_op(A)) == det
        except TruncationExceeded:
            assert det.is_zero


@settings(max_examples=40, deadline=None)
@given(st.one_of(op_matrices(with_x=True), op_matrices(jets=True)))
def test_echelon_det_equals_leading_matrix_det(M):
    """With a nondegenerate leading matrix, the sign and diagonal of the
    elimination give the determinant read off the leading matrix."""
    try:
        maj = majorant(M)
    except DegenerateShape:
        assume(False)
    assume(leading_matrix(M, maj).is_nondegenerate(ALG))
    assert _echelon_det(M) == dieudonne_det(M)


def _is_echelon(E) -> bool:
    """The first nonzero column moves strictly right from row to row, and
    zero rows come last."""
    firsts = [next((j for j, e in enumerate(r) if not e.is_zero()), None)
              for r in E.rows]
    nonzero = [f for f in firsts if f is not None]
    return firsts[:len(nonzero)] == nonzero and \
        all(a < b for a, b in zip(nonzero, nonzero[1:]))


def _denominator_free(E) -> bool:
    """Every coefficient of every entry is a polynomial (x_coefficients
    raises on a fraction)."""
    for row in E.rows:
        for e in row:
            for c in e.coeffs.values():
                for v in (c.terms.values() if hasattr(c, "terms") else [c]):
                    try:
                        x_coefficients(v)
                    except ValueError:
                        return False
    return True


@st.composite
def echelon_matrices(draw, alg=ALG):
    """A 2x2 or 3x3 quasiconstant MatDiffOp, or a 2x2 one whose order-0
    coefficients may carry u, with coefficients c, c*x and c/(x + k).  Half
    of them get row 1 += P o row 0 for P of order 1 or 2, which most often
    makes the leading matrix degenerate, so that dieudonne_det eliminates.
    Orders stay small so that the division-based reference stays fast."""
    size, jets = draw(st.sampled_from([(2, False), (3, False), (2, True)]))
    F = alg.field
    top = 2 if size == 2 else 1

    def coeff(n):
        c = draw(field_elems(F))
        if draw(st.integers(0, 3)) == 0:
            c = c / (F.x + draw(st.integers(1, 2)))
        c = alg.from_scalar(c)
        if jets and n == 0 and draw(st.booleans()):
            c = c + alg.from_scalar(draw(field_elems(F, False))) * alg.jet(1)
        return c
    rows = [[ScalarDiffOp(alg, {n: coeff(n) for n in range(top + 1)
                                if draw(st.booleans())})
             for _ in range(size)] for _ in range(size)]
    if draw(st.booleans()):
        P = ScalarDiffOp(alg, {draw(st.integers(1, 2)):
                               alg.from_scalar(draw(field_elems(F, False)))})
        rows[1] = [a + P.compose(b) for a, b in zip(rows[1], rows[0])]
    return MatDiffOp(alg, rows)


def _pivot_row_gains_a_tail():
    """rows (1/(x+1) d + 1, 0, d), (1/(x+1) d^2 + (x^2+2x)/(x+1)^2 d, d,
    d^2), (d, 0, 0).  Division clears row 1 with row_1 - d o row_0 to
    (0, d, 0); the fraction-free kernel first scales row 0 by x + 1, and
    d o (x + 1) = (x + 1) d + 1 leaves a nonzero entry in column 2."""
    F = ALG.field
    a = ALG.from_scalar(F.one / (F.x + 1))
    b = ALG.from_scalar((F.x * F.x + 2 * F.x) / ((F.x + 1) * (F.x + 1)))
    one = ALG.one
    return MatDiffOp(ALG, [
        [ScalarDiffOp(ALG, {1: a, 0: one}), ZERO, D],
        [ScalarDiffOp(ALG, {2: a, 1: b}), D, ScalarDiffOp.d(ALG, 2)],
        [D, ZERO, ZERO]])


@settings(max_examples=60, deadline=None)
@given(echelon_matrices())
@example(_pivot_row_gains_a_tail())
def test_fraction_free_echelon_equals_division(M):
    """The fraction-free kernel and the division-based reference reach
    echelon forms E = U ref with U upper triangular and invertible over
    F[d] (or over K[d], K the fraction field of V): the pivot columns agree
    and each pivot is the reference pivot times an element of F (of K),
    hence the diagonal orders and the Dieudonne determinant agree, and the
    rows from any index on span the same module.  Entries right of a pivot
    may differ (see same_row_flags and the pinned example).  The rows have
    no denominators, and the recorded operations replay from M."""
    E, ops = row_echelon(M)
    ref, _ = echelon_by_division(M)
    assert same_row_flags(E, ref)
    assert _is_echelon(E) and _denominator_free(E)
    assert apply_row_ops(M, ops) == E
    det = det_by_division(M)
    assert _echelon_det(M) == det
    assert dieudonne_det(M) == det


def _leading_degenerate(M) -> bool:
    try:
        return not leading_matrix(M, majorant(M)).is_nondegenerate(ALG)
    except DegenerateShape:
        return True


@pytest.mark.parametrize("jets", [False, True])
@pytest.mark.parametrize("degenerate", [False, True])
def test_echelon_matrices_reach_both_determinant_paths(jets, degenerate):
    """The strategy above gives matrices with and without jets whose
    leading matrix is degenerate (dieudonne_det eliminates) and ones whose
    leading matrix is not."""
    find(echelon_matrices(),
         lambda M: M.is_quasiconstant() != jets
         and _leading_degenerate(M) == degenerate,
         settings=settings(max_examples=500, database=None, deadline=None,
                           phases=[Phase.generate]))


def test_row_echelon_jet_matrix_that_swelled():
    """A 2x2 operator with u and u' in its coefficients took 591 s in
    row_echelon when the elimination divided in V's fraction field; the
    fraction-free kernel reduces it in well under a second."""
    M = rnd_mat_op(random.Random(14), ALG, size=2, max_order=2,
                   quasiconstant=False)
    t0 = time.process_time()
    E, ops = row_echelon(M)
    assert time.process_time() - t0 < 10
    assert _is_echelon(E) and E.rows[1][0].is_zero()
    assert apply_row_ops(M, ops) == E
    assert leading_matrix(M, majorant(M)).is_nondegenerate(ALG)
    assert _echelon_det(M) == dieudonne_det(M)


def test_elimination_with_jets_builds_no_fraction_of_v(monkeypatch):
    """Entries with jets stay in V[d] during elimination: row_echelon builds
    no DiffRat, and _echelon_det builds one, for the determinant."""
    from varpois.diffalg import DiffRat
    built = []
    init = DiffRat.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)
    monkeypatch.setattr(DiffRat, "__init__", counted)
    M = rnd_mat_op(random.Random(14), ALG, size=2, max_order=2,
                   quasiconstant=False)
    row_echelon(M)
    row_echelon(degenerate_leading_example())
    assert not built
    _echelon_det(M)
    assert len(built) == 1
    # a determinant with jets is a DiffRat on either path, also when no
    # row was scaled (the [[1, u], [d, u d]] example takes the echelon path)
    det = dieudonne_det(degenerate_leading_example())
    assert type(det.c) is DiffRat and repr(det) == "DetValue((-u')*xi^0)"


def test_fraction_free_echelon_multiplies_no_polynomials_over_q(monkeypatch):
    """Polynomials of F are stored over Z, so a fraction-free elimination
    of polynomial entries multiplies no polynomials over Q (one with a
    coefficient that is not an int): here a 3x3 matrix with the orders of
    the benchmark's echelon3 jobs and coefficients a x + b, a and b
    rationals with denominators."""
    over_q = []
    mul = Poly.__mul__

    def counted(p, q):
        if any(type(c) is not int for c in p.values()):
            over_q.append(p)
        return mul(p, q)
    monkeypatch.setattr(Poly, "__mul__", counted)
    F = ALG.field
    Poly({(1,): Fraction(1, 2)}) * Poly({(1,): Fraction(1, 3)})
    assert len(over_q) == 1
    over_q.clear()
    rng = random.Random(3)

    def coeff():
        return ALG.from_scalar(F.rational(rng.randint(-5, 5), rng.randint(1, 4))
                               * F.x + F.rational(rng.randint(1, 5),
                                                  rng.randint(1, 6)))
    orders = ((2, 1, 0), (1, 2, 1), (0, 1, 2))
    M = MatDiffOp(ALG, [[ScalarDiffOp(ALG, {n: coeff() for n in range(k + 1)})
                         for k in row] for row in orders])
    E, ops = row_echelon(M)
    assert not over_q
    assert _is_echelon(E) and _denominator_free(E)
    assert apply_row_ops(M, ops) == E


def _benchmark_shaped(alg, rng, orders):
    """A matrix with the given entry orders, a rational leading coefficient
    and lower coefficients (a x + b)/(x + p), one pole p per matrix, as in
    the benchmark's echelon3 and det_product jobs."""
    F = alg.field

    def q():
        return F.rational(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
    pole = q()
    return MatDiffOp(alg, [[ScalarDiffOp(alg, {
        n: alg.from_scalar(q() if n == k else (q() * F.x + q()) / (F.x + pole))
        for n in range(k + 1)}) for k in row] for row in orders])


def test_one_generator_eliminations_make_no_sparse_gcds(monkeypatch):
    """Over Q(x) the gcds, cancellations and divisions of a fraction-free
    echelon3 elimination and of a det_product composition run on dense
    coefficient lists: no sparse GCDHEU and no sparse division.  The same
    inputs over Q(c)(x) take the sparse path and give the same results."""
    calls = []
    heugcd, div = zpoly._heugcd, zpoly._sparse_divrem
    monkeypatch.setattr(zpoly, "_heugcd",
                        lambda f, g: calls.append("heugcd") or heugcd(f, g))
    monkeypatch.setattr(zpoly, "_sparse_divrem",
                        lambda f, g: calls.append("div") or div(f, g))

    def run(alg):
        rng = random.Random(5)
        E, _ = row_echelon(_benchmark_shaped(
            alg, rng, ((2, 1, 0), (1, 2, 1), (0, 1, 2))))
        A, B = (_benchmark_shaped(alg, rng, ((1, 0), (1, 1)))
                for _ in range(2))
        return [[format_scalar_op(e) for e in row]
                for M in (E, A.compose(B)) for row in M.rows]
    over_q_of_x = run(DiffAlgebra(1))
    assert not calls
    assert run(ALG) == over_q_of_x
    assert "heugcd" in calls and "div" in calls


def test_no_value_of_q_of_x_is_built_on_a_poly(monkeypatch):
    """Over Q(x) every POLY and FRAC value is built on dense coefficient
    lists: an echelon3 elimination, a det_product composition and
    determinant, a selfadjoint product space and a rational kernel build
    no value of Q(x) on a Poly (over Q(c)(x) they all are)."""
    from varpois.field import FRAC, POLY, FieldElem
    built = {}
    init = FieldElem.__init__

    def recorded(self, field, kind, value):
        if kind in (POLY, FRAC):
            polys = (value.P,) if kind == POLY else (value.numer, value.denom)
            built.setdefault(field.params, set()).update(map(type, polys))
        init(self, field, kind, value)
    monkeypatch.setattr(FieldElem, "__init__", recorded)
    for alg in (DiffAlgebra(1), ALG):
        rng = random.Random(5)
        row_echelon(_benchmark_shaped(
            alg, rng, ((2, 1, 0), (1, 2, 1), (0, 1, 2))))
        A, B = (_benchmark_shaped(alg, rng, ((1, 0), (1, 1)))
                for _ in range(2))
        dieudonne_det(A.compose(B))
        e = alg.from_scalar(alg.field.rational(-3, 2))
        assert len(selfadjoint_product_space(
            MatDiffOp(alg, [[ScalarDiffOp(alg, {3: e})]]))) == 3
        z = ScalarDiffOp.zero(alg)
        assert solve_rational(MatDiffOp(alg, [
            [ScalarDiffOp(alg, {2: e}), z], [z, ScalarDiffOp(alg, {1: e})]])
        ).dim == 3
    assert built == {(): {zpoly._Dense}, ("c",): {Poly}}


# -- operator products against the term-by-term reference ---------------------

ALG_X = DiffAlgebra(1)


@st.composite
def product_coefficients(draw, alg, jets):
    """A small element of F, a third of the time divided by x + k or, over
    Q(c)(x), by x - c, as a DiffPoly; with jets, half the time plus a
    multiple of u or u'."""
    F = alg.field
    c = draw(field_elems(F))
    pole = draw(st.integers(0, 2))
    if pole == 1:
        c = c / (F.x + draw(st.integers(1, 2)))
    elif pole == 2 and F.params:
        c = c / (F.x - F.param(F.params[0]))
    p = alg.from_scalar(c)
    if jets and draw(st.booleans()):
        p = p + alg.from_scalar(draw(field_elems(F))) * alg.jet(
            1, draw(st.integers(0, 1)))
    return p


@st.composite
def product_ops(draw, alg, jets=False, in_field=False):
    """A scalar operator of order at most 2 with product_coefficients, or,
    with in_field, the same operator free of jets with its coefficients in
    F itself, as the row reduction holds them."""
    op = ScalarDiffOp(alg, {n: draw(product_coefficients(alg, jets and
                                                         not in_field))
                            for n in range(3) if draw(st.booleans())})
    return op.map_coeffs(_field_value) if in_field else op


def _same_op(a, b) -> bool:
    """Equal reprs, and coefficients of equal types (FieldElem or DiffPoly,
    and so on for the values of a DiffPoly)."""
    def types(op):
        return [(n, type(c), sorted(type(v).__name__ for v in c.terms.values())
                 if isinstance(c, DiffPoly) else None)
                for n, c in sorted(op.coeffs.items())]
    return repr(a) == repr(b) and types(a) == types(b)


def _one_over_x_plus_one_and_back(alg):
    """A = 1/(x+1), B = (x+1) d + x + 1: every product of A o B drops from
    a fraction to the POLY or RAT tier, and A o B - A o B cancels."""
    F = alg.field
    A = ScalarDiffOp(alg, {0: alg.from_scalar(F.one / (F.x + 1))})
    B = ScalarDiffOp(alg, {1: alg.from_scalar(F.x + 1),
                           0: alg.from_scalar(F.x + 1)})
    return A, B


@settings(max_examples=80, deadline=None)
@given(data=st.data(), alg=st.sampled_from([ALG_X, ALG]),
       kind=st.sampled_from(["poly", "jets", "field"]))
@example(data=None, alg=ALG_X, kind="pinned")
@example(data=None, alg=ALG, kind="pinned")
def test_operator_products_equal_the_term_by_term_reference(data, alg, kind):
    """compose, MatDiffOp.compose and adjoint give the reprs and coefficient
    types of the term-by-term reference (tests/helpers.py), over Q(x) (the
    dense path) and Q(c)(x) (the sparse Poly path), with DiffPoly
    coefficients with and without jets and with FieldElem coefficients.
    Half the time the matrix product holds A o B + A o (-B), whose sums
    cancel to zero; the pinned example drops each fraction to a polynomial
    or a rational."""
    if data is None:
        A, B = _one_over_x_plus_one_and_back(alg)
        C, E = -B, A
    else:
        draw_op = product_ops(alg, kind == "jets", kind == "field")
        A, B, C, E = (data.draw(draw_op) for _ in range(4))
        if data.draw(st.booleans()):
            C, E = -B, A
    for P in (A, B, C):
        assert _same_op(P.adjoint(), adjoint_reference(P))
        for Q in (A, B, C):
            assert _same_op(P.compose(Q), compose_reference(P, Q))
    M = MatDiffOp(alg, [[A, E], [C, B]])
    N = MatDiffOp(alg, [[B, A], [C, E]])
    for X, Y in ((M, N), (N, M), (MatDiffOp(alg, [[A, E]]),
                                  MatDiffOp(alg, [[B], [C]]))):
        got, want = X.compose(Y), mat_compose_reference(X, Y)
        assert all(_same_op(g, w) for rg, rw in zip(got.rows, want.rows)
                   for g, w in zip(rg, rw))
    if data is None:
        assert MatDiffOp(alg, [[A, E]]).compose(
            MatDiffOp(alg, [[B], [C]])).is_zero()
        assert repr(A.compose(B)) == "ScalarDiffOp(d + 1)"


@settings(max_examples=40, deadline=None)
@given(data=st.data(), alg=st.sampled_from([ALG_X, ALG]))
def test_linform_products_equal_the_term_by_term_reference(data, alg):
    """With LinForm coefficients inside DiffPoly constant terms, as in
    selfadjoint_product_space, the LinForm products are added with +:
    K o P, P o K, P* and [[K, K]] o [[P], [-P]] = 0 equal the reference."""
    F = alg.field
    K = data.draw(product_ops(alg))
    P = ScalarDiffOp(alg, {q: alg.from_scalar(
        LinForm.atom(F, q) * data.draw(field_elems(F)) + LinForm.atom(F, -1))
        for q in range(3) if data.draw(st.booleans())})
    assert _same_op(K.compose(P), compose_reference(K, P))
    assert _same_op(P.compose(K), compose_reference(P, K))
    assert _same_op(P.adjoint(), adjoint_reference(P))
    KK, PP = MatDiffOp(alg, [[K, K]]), MatDiffOp(alg, [[P], [-P]])
    assert KK.compose(PP).is_zero()
    assert _same_op(KK.compose(PP).rows[0][0],
                    mat_compose_reference(KK, PP).rows[0][0])


def test_a_coefficient_mixing_field_and_linform_values_raises():
    """(1 + d) o (L + x d) puts x (in F) and the LinForm L on the
    coefficient of d: a LinForm does not add to an element of F, so the
    product raises TypeError, as the term-by-term reference does."""
    F = ALG.field
    A = ScalarDiffOp(ALG, {0: ALG.one, 1: ALG.one})
    B = ScalarDiffOp(ALG, {0: ALG.from_scalar(LinForm.atom(F, "p")),
                           1: ALG.x()})
    for compose in (ScalarDiffOp.compose, compose_reference):
        with pytest.raises(TypeError):
            compose(A, B)


@settings(max_examples=40, deadline=None)
@given(st.one_of(echelon_matrices(), echelon_matrices(ALG_X)))
def test_elimination_equals_the_scale_then_subtract_step(M):
    """row_echelon (rows and recorded ops), majorant_preserving_reduce and
    dieudonne_det, run with the elimination step that scales, composes
    term by term and subtracts (helpers.reference_elimination), give the
    same reprs, over Q(c)(x) and Q(x), with and without jets."""
    def results():
        E, ops = row_echelon(M)
        out = [repr(E), repr(ops), repr(dieudonne_det(M)),
               repr(_echelon_det(M))]
        try:
            maj = majorant(M)
            reduced = majorant_preserving_reduce(M, maj)
        except (DegenerateShape, DegenerateLeadingMatrix) as exc:
            reduced = type(exc).__name__
        return out + [repr(reduced)]
    got = results()
    with reference_elimination():
        assert results() == got
