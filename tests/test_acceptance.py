"""Acceptance suite: one test per criterion, exact symbolic checks.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion.  All assertions are exact (tolerance zero).
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from varpois import (DiffAlgebra, DiffRat, KDiffOp, LambdaPoly,
                     LocalFunctional, MatDiffOp, Majorant, NotExact,
                     QuotientArray, ScalarDiffOp, SkewArray,
                     check_compatible, check_jacobi, check_skewadjoint,
                     chi_representative, cohomology_dim, d_k, delta_k,
                     dieudonne_det, dim_omega00, filtration_level, homotopy,
                     is_exact_1form,
                     kernel_dim_bound, magri_structure, majorant,
                     partial_action, reconstruct_density, reduce_closed,
                     run_hierarchy,
                     selfadjoint_product_space, sigma_space, skew_product,
                     solve_rational, solve_skew_equation,
                     variational_derivative, verify_involution)
from varpois.complexes import level_key
from varpois.polydiff import is_totally_skewsymmetric

from helpers import (_B_TABLE, _C_TABLE, de_rham_delta, gfz_structure,
                     hamiltonian_vf, rnd_diffpoly, rnd_mat_op, rnd_skew_array,
                     skewadjoint_decompose)

ALG = DiffAlgebra(1, ["c"])
ALG2 = DiffAlgebra(2)
U = ALG.jet(1)
C = ALG.param("c")
GFZ = gfz_structure(ALG)
MAGRI = magri_structure(ALG)
KD = MatDiffOp(ALG, [[ScalarDiffOp.d(ALG)]])


def _report(num, text):
    print(f"ACCEPTANCE {num:>2}: PASS - {text}")


def _diag_d(alg, order=1):
    return MatDiffOp(alg, [[ScalarDiffOp.d(alg, order) if i == j
                            else ScalarDiffOp.zero(alg)
                            for j in range(alg.nvars)]
                           for i in range(alg.nvars)])


def test_criterion_01_kdv_bihamiltonian():
    kdv = U * ALG.jet(1, 1) * 3 + C * ALG.jet(1, 3)
    h0 = LocalFunctional(U * U / 2)
    h1 = LocalFunctional((U ** 3 + C * U * ALG.jet(1, 2)) / 2)
    assert hamiltonian_vf(h0, MAGRI).P[0] == kdv
    assert hamiltonian_vf(h1, GFZ).P[0] == kdv
    _report(1, "KdV right-hand side from both Hamiltonian forms, exactly")


def test_criterion_02_magri_poisson_and_compatible():
    assert check_skewadjoint(MAGRI)
    ok, _ = check_jacobi(MAGRI)
    assert ok
    ok, _ = check_compatible(GFZ, MAGRI)
    assert ok
    _report(2, "Magri bracket Poisson for symbolic c and compatible with GFZ")


def test_criterion_03_complex_property_suite():
    rng = random.Random(101)
    count = 0
    for alg in (ALG, ALG2):
        K1 = _diag_d(alg, 1)
        K2 = _diag_d(alg, 2)
        dK = gfz_structure(alg)
        for k in range(4):
            for _ in range(3):
                P = rnd_skew_array(rng, alg, k, max_deg=1, max_order=1)
                assert de_rham_delta(de_rham_delta(P)).is_zero()
                for K in (K1, K2):
                    assert delta_k(delta_k(P, K), K).is_zero()
                    assert delta_k(partial_action(P), K) == \
                        partial_action(delta_k(P, K))
                dd = d_k(d_k(QuotientArray(P), dK), dK)
                assert dd.is_zero()
                count += 1
    assert count >= 20
    _report(3, f"delta^2, delta_K^2, d_K^2 and d-commutation on {count} "
               f"random arrays")


def test_criterion_04_homotopy_identity():
    rng = random.Random(102)
    checked = 0
    for alg in (ALG, ALG2):
        for N in (1, 2):
            K = _diag_d(alg, N)
            for k in (1, 2):
                trials = 0
                while trials < 4:
                    P = rnd_skew_array(rng, alg, k, max_deg=2, max_order=2)
                    m, i = filtration_level(P, N)
                    if level_key(m, i, alg.nvars) < 0 or m > 2:
                        trials += 1
                        continue
                    res = homotopy(delta_k(P, K), m, i, N) + \
                        delta_k(homotopy(P, m, i, N), K) - P
                    lm, li = filtration_level(res, N)
                    assert level_key(lm, li, alg.nvars) < \
                        level_key(m, i, alg.nvars)
                    checked += 1
                    trials += 1
    assert checked >= 20
    _report(4, f"homotopy identity with exact level drop on {checked} "
               f"random arrays")


def test_criterion_05_formality():
    rng = random.Random(103)
    for alg, K in ((ALG, KD), (ALG2, _diag_d(ALG2, 2))):
        for k in (1, 2):
            for _ in range(3):
                Q0 = rnd_skew_array(rng, alg, k - 1, max_deg=1, max_order=1)
                P = delta_k(Q0, K)
                Q, R = reduce_closed(P, K)
                assert R.is_zero()
                assert delta_k(Q, K) == P
    # bottom-slice inputs are returned untouched
    flat = SkewArray(ALG, 1)
    flat.set_entry((1,), LambdaPoly.const(ALG, 1, ALG.x()))
    Q, R = reduce_closed(flat, KD)
    assert Q.is_zero() and R == flat
    for N in (1, 2, 3):
        for alg in (ALG, ALG2):
            for k in range(5):
                count, basis = dim_omega00(N, alg.nvars, k, alg)
                assert count == math.comb(N * alg.nvars, k) == len(basis)
    _report(5, "reduction detects exactness, fixes the bottom slice, and "
               "the slice dimensions match the binomial counts")


def test_criterion_06_cohomology_dimensions():
    amat = {1: [[1]], 2: [[1, 1], [0, 1]]}
    for nv in (1, 2):
        alg = ALG if nv == 1 else ALG2
        for N in (1, 2):
            base = _diag_d(alg, N)
            K = MatDiffOp.from_constant(alg, amat[nv]).compose(base)
            for k in (0, 1, 2):
                expected = math.comb(N * nv, k + 1)
                res = cohomology_dim(K, k)
                assert res.dim == expected, (nv, N, k)
                assert not res.flagged_lower_bound
                basis, exp2, flagged = sigma_space(K, k)
                assert len(basis) == expected and not flagged
                for P in basis:
                    rep = chi_representative(P, K)
                    assert QuotientArray(delta_k(rep, K)).is_zero()
    shifted = MatDiffOp(ALG, [[ScalarDiffOp(ALG, {1: ALG.one, 0: ALG.one})]])
    res = cohomology_dim(shifted, 0)
    assert res.dim == 0 and res.flagged_lower_bound
    basis, expected, flagged = sigma_space(shifted, 0)
    assert len(basis) == 0 and flagged
    _report(6, "variational Poisson cohomology dimensions C(Nl, k+1) for "
               "constant-leading K, representatives closed, and the "
               "non-rational kernel flagged as a lower bound")


def test_criterion_07_appendix_regression():
    one = ScalarDiffOp.identity(ALG)
    d = ScalarDiffOp.d(ALG)
    a_op = ScalarDiffOp.mul_by(U)
    M = MatDiffOp(ALG, [[one, a_op], [d, a_op.compose(d)]])
    dv = dieudonne_det(M)
    assert not dv.is_zero and dv.d == 0
    assert dv.c == DiffRat(-ALG.jet(1, 1))
    assert majorant(M) == Majorant([1, 1], [1, 0])
    rng = random.Random(104)
    pairs = 0
    while pairs < 10:
        A = rnd_mat_op(rng, ALG, size=2, quasiconstant=True)
        B = rnd_mat_op(rng, ALG, size=2, quasiconstant=True)
        da, db = dieudonne_det(A), dieudonne_det(B)
        dab = dieudonne_det(A.compose(B))
        if da.is_zero or db.is_zero:
            assert dab.is_zero
            continue
        assert dab.d == da.d + db.d and dab.c == da.c * db.c
        pairs += 1
    for orders in itertools.product((1, 2, 3), repeat=2):
        alg = ALG2
        z = ScalarDiffOp.zero(alg)
        diag = MatDiffOp(alg, [[ScalarDiffOp.d(alg, orders[0]), z],
                               [z, ScalarDiffOp.d(alg, orders[1])]])
        assert kernel_dim_bound(diag) == sum(orders)
        assert solve_rational(diag).dim == sum(orders)
    _report(7, "Dieudonne example (-a', 0), multiplicativity on 10 pairs, "
               "the majorant (N=(1,1), h=(1,0)), and kernels of diagonal "
               "powers of d")


def test_criterion_08_scalar_selfadjoint_dimension():
    for N in (1, 2, 3, 4):
        K = MatDiffOp(ALG, [[ScalarDiffOp.d(ALG, N)]])
        basis = selfadjoint_product_space(K)
        assert len(basis) == math.comb(N, 2)
        for P in basis:
            assert (P.order() or 0) <= N - 1
            T = K.compose(P)
            assert (T - T.adjoint()).is_zero()
    _report(8, "selfadjoint-product solution spaces of dimension C(N,2) "
               "for K = d^N, N <= 4")


def _commutative_expansion_holds(n, terms):
    k1 = len(n)
    k = k1 - 1

    def lam0_pow(p):
        out = {}
        for combo in itertools.product(range(k1), repeat=p):
            key = [0] * k
            dp = 0
            for t in combo:
                if t < k:
                    key[t] += 1
                else:
                    dp += 1
            kk = tuple(key) + (dp,)
            out[kk] = out.get(kk, 0) + (-1) ** p
        return out

    def mono(m, dpow):
        out = {}
        for key, cv in lam0_pow(m[0]).items():
            kk = tuple(key[t] + m[1 + t] for t in range(k)) + \
                (key[k] + dpow,)
            out[kk] = out.get(kk, 0) + cv
        return out

    lhs = mono(n, 0)
    rhs = {}
    for cv, m, dp in terms:
        for key, v in mono(m, dp).items():
            rhs[key] = rhs.get(key, 0) + cv * v
    return all(lhs.get(kk, 0) == rhs.get(kk, 0)
               for kk in set(lhs) | set(rhs))


def test_criterion_09_coefficient_tables():
    for k in (1, 2):
        for n in itertools.product(range(4), repeat=k + 1):
            assert _commutative_expansion_holds(n, _C_TABLE.expansion(n)), n
            assert _commutative_expansion_holds(n, _B_TABLE.expansion(n)), n
    checked = 0
    for k in (1, 2):
        for n in itertools.product(range(5), repeat=k + 1):
            nu = sorted(n, reverse=True)
            support = _C_TABLE.expansion(n)
            values = {m: cv for cv, m, _ in support}
            if nu[0] - nu[1] == 1:
                assert values == {n: 1}
            for cv, m, _ in support:
                mu = sorted(m, reverse=True)
                assert mu[0] <= nu[0] + 1
                if nu[0] > nu[1]:
                    assert mu[0] <= nu[0]
                for a in range(k + 1):
                    if n[a] == nu[0]:
                        assert m[a] >= max(mu[1], nu[1])
                for b in range(k + 1):
                    if n[b] <= nu[1]:
                        assert m[b] >= n[b]
                for sigma in itertools.permutations(range(k + 1)):
                    ns = tuple(n[sigma[a]] for a in range(k + 1))
                    ms = tuple(m[sigma[a]] for a in range(k + 1))
                    assert _C_TABLE._c(ns, ms) == cv
                total = 0
                for a in range(k + 1):
                    total += _C_TABLE._c(n[:a] + (n[a] + 1,) + n[a + 1:], m)
                assert cv == -total
            checked += 1
    assert checked == 150
    _report(9, "monomial rewriting identities (entries <= 3) and the "
               "coefficient-table properties (entries <= 4), exhaustively")


def test_criterion_10_lenard_run():
    t0 = time.monotonic()
    state = run_hierarchy(MAGRI, GFZ, LocalFunctional(U * U / 2), 3)
    assert len(state.densities) == 4
    for n in range(3):
        lhs = GFZ.op.apply(list(variational_derivative(
            state.densities[n + 1].representative)))
        rhs = MAGRI.op.apply(list(variational_derivative(
            state.densities[n].representative)))
        assert all((a - b).is_zero() for a, b in zip(lhs, rhs))
    inv = verify_involution(state)
    assert all(all(row) for row in inv)
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _report(10, f"h0..h3 with exact recursion identities and the full "
                f"involution matrix under both brackets ({elapsed:.1f}s)")


def test_criterion_11_exactness_criterion():
    rng = random.Random(105)
    for _ in range(20):
        h = rnd_diffpoly(rng, ALG, max_order=2, max_degree=2, terms=3)
        grad = list(variational_derivative(h))
        assert is_exact_1form(grad)
        h2 = reconstruct_density(grad)
        assert list(variational_derivative(h2)) == grad
    rejected = 0
    while rejected < 20:
        h = rnd_diffpoly(rng, ALG, max_order=1, max_degree=2, terms=2)
        bad = [variational_derivative(h)[0] + ALG.jet(1, 1)]
        if is_exact_1form(bad):
            continue
        with pytest.raises(NotExact):
            reconstruct_density(bad)
        rejected += 1
    _report(11, "20 gradient round-trips and 20 rejected non-selfadjoint "
                "1-forms")


def test_criterion_12_skew_equation_closed_forms():
    K1 = MatDiffOp.identity(ALG, 1)
    x = ALG.field.x
    s_ops = [ScalarDiffOp(ALG, {1: ALG.one * 2}),
             ScalarDiffOp(ALG, {1: ALG.from_scalar(x),
                                0: ALG.from_scalar(ALG.field.rational(1, 2))})]
    for s_op in s_ops:
        S = KDiffOp.from_mat_diff_op(MatDiffOp(ALG, [[s_op]]))
        assert is_totally_skewsymmetric(S)
        # first closed form: half the right-hand side
        half = S.scale(Fraction(1, 2))
        assert skew_product(K1, half) == S
        P = solve_skew_equation(K1, S)
        assert skew_product(K1, P) == S
        # solver and closed form agree modulo the kernel
        assert skew_product(K1, P - half).is_zero()
        # second closed form for K = d: the skewadjoint antiderivative
        from varpois import rational_antiderivative
        a, b = skewadjoint_decompose(s_op)
        d1 = ScalarDiffOp.d(ALG)
        closed_form = ScalarDiffOp.zero(ALG)
        for m, am in a.items():
            anti = ALG.from_scalar(rational_antiderivative(am))
            inner = d1.compose(ScalarDiffOp(ALG, {0: anti})) + \
                ScalarDiffOp(ALG, {0: anti}).compose(d1)
            closed_form = closed_form + ScalarDiffOp.d(ALG, m).compose(
                inner).compose(ScalarDiffOp.d(ALG, m))
        closed_k = KDiffOp.from_mat_diff_op(MatDiffOp(ALG, [[closed_form]]))
        assert skew_product(KD, closed_k) == S
        solved = solve_skew_equation(KD, S)
        assert skew_product(KD, solved) == S
    _report(12, "closed forms for K = 1 (half the right-hand side) and "
                "K = d (skewadjoint antiderivative) at arity one")
