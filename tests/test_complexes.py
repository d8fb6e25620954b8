import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varpois
from varpois import (DiffAlgebra, LambdaPoly, LeadingCoeffNotIdentity,
                     MatDiffOp, NotClosed, NotQuasiconstant, OutOfFiltration,
                     QuotientArray, ScalarDiffOp, SkewArray, alpha_k,
                     cohomology_dim, d_k, delta_k, dim_omega00,
                     filtration_level, homotopy, magri_structure,
                     partial_action, partial_antiderivative, phi_s,
                     reduce_closed)
from varpois.complexes import level_key
from varpois.lambdapoly import format_lambda_poly
from varpois.pva import LambdaBracketStruct

from helpers import (EvVectorField, ad_field_on_operator, array_pairing,
                     as_one_form, as_skewadjoint_op, d_k_reference,
                     de_rham_delta, de_rham_delta_reference,
                     delta_k_reference, diffpolys, field_elems,
                     gfz_structure, hamiltonian_vf, phi_k1, rnd_diffpoly,
                     rnd_skew_array)

ALG = DiffAlgebra(1, ["c"])
ALG2 = DiffAlgebra(2)
U = ALG.jet(1)
KD = MatDiffOp(ALG, [[ScalarDiffOp.d(ALG)]])


def kd2():
    return MatDiffOp(ALG, [[ScalarDiffOp.d(ALG, 2)]])


def test_skew_storage_consistency():
    """Entries at permuted index tuples follow by simultaneous sign and
    variable permutation; repeated-index entries are alternating."""
    rng = random.Random(20)
    arr = rnd_skew_array(rng, ALG2, 2, max_deg=2, max_order=1)
    e12 = arr.entry((1, 2))
    e21 = arr.entry((2, 1))
    assert e21 == -(e12.compose_vars((1, 0)))
    e11 = arr.entry((1, 1))
    assert e11.compose_vars((1, 0)) == -e11


def test_de_rham_examples():
    P = SkewArray.from_function(ALG, U * U / 2)
    d = de_rham_delta(P)
    assert d.entry((1,)) == LambdaPoly.const(ALG, 1, U)
    assert de_rham_delta(SkewArray.from_one_form([ALG.one])).is_zero()
    dd = de_rham_delta(de_rham_delta(
        SkewArray.from_function(ALG, U ** 3 * ALG.jet(1, 1))))
    assert dd.is_zero()


def test_delta_k_examples():
    P = SkewArray.from_function(ALG, U * U / 2)
    d = delta_k(P, KD)
    assert d.entry((1,)) == LambdaPoly.monomial(ALG, 1, (1,), U)
    # identity twisting is the de Rham differential
    KI = MatDiffOp.identity(ALG, 1)
    rng = random.Random(21)
    for k in (0, 1, 2):
        arr = rnd_skew_array(rng, ALG, k, max_deg=1, max_order=1)
        assert delta_k(arr, KI) == de_rham_delta_reference(arr)
    # quasiconstant bottom-slice arrays are killed
    flat = SkewArray(ALG, 1)
    flat.set_entry((1,), LambdaPoly.const(ALG, 1, ALG.x()))
    assert delta_k(flat, KD).is_zero()


@st.composite
def skew_arrays(draw, alg, k):
    """A nonzero arity-k array on alg: each stored entry has some of the
    lambda-monomials of degree < 2 per slot, with sparse coefficients of
    jet order <= 1 (u_1 lam^(0, 1, ..) when all of them are zero)."""
    out = SkewArray(alg, k)
    for idx in itertools.combinations_with_replacement(
            range(1, alg.nvars + 1), k):
        L = LambdaPoly.zero(alg, k)
        for e in itertools.product(range(2), repeat=k):
            if draw(st.booleans()):
                L = L + LambdaPoly.monomial(alg, k, e, draw(diffpolys(
                    alg, max_order=1, max_terms=2)))
        out.set_entry(idx, L)
    if out.is_zero():
        out.set_entry((1,) * k, LambdaPoly.monomial(alg, k, tuple(range(k)),
                                                    alg.jet(1)))
    return out


@st.composite
def quasiconstant_ops(draw, alg):
    """A square operator on alg of order <= 2, its coefficients in F,
    with x or without."""
    with_x = draw(st.booleans())
    return MatDiffOp(alg, [[ScalarDiffOp(alg, {
        n: alg.from_scalar(draw(field_elems(alg.field, with_x)))
        for n in range(3) if draw(st.booleans())})
        for _ in range(alg.nvars)] for _ in range(alg.nvars)])


@st.composite
def arrays_and_quasiconstant_ops(draw):
    alg = draw(st.sampled_from([ALG, ALG2]))
    return (draw(skew_arrays(alg, draw(st.integers(0, 2)))),
            draw(quasiconstant_ops(alg).filter(lambda K: not K.is_zero())))


@settings(max_examples=40, deadline=None)
@given(arrays_and_quasiconstant_ops())
def test_delta_k_equals_the_expanded_sum(case):
    """delta_K through the master-formula generator factors equals the sum
    over alpha, j and n expanded term by term (delta_k_reference), for K
    with x and without."""
    P, K = case
    assert delta_k(P, K) == delta_k_reference(P, K)


def _current_algebra():
    """{u1 _lam u1} = (d + 2 lam) u1, {u1 _lam u2} = (d + lam) u2,
    {u2 _lam u2} = 0 on ALG2: a skewadjoint Poisson structure with jets
    in entries off the diagonal."""
    u1, u2 = ALG2.jet(1), ALG2.jet(2)
    return LambdaBracketStruct(MatDiffOp(ALG2, [
        [ScalarDiffOp(ALG2, {0: u1.derive(), 1: u1 * 2}),
         ScalarDiffOp(ALG2, {1: u2})],
        [ScalarDiffOp(ALG2, {0: u2.derive(), 1: u2}),
         ScalarDiffOp.zero(ALG2)]]))


@st.composite
def arrays_and_structures(draw):
    kind = draw(st.sampled_from(["magri", "current", "quasiconstant"]))
    if kind == "magri":
        alg, K = ALG, magri_structure(ALG)
    elif kind == "current":
        alg, K = ALG2, _current_algebra()
    else:
        alg = draw(st.sampled_from([ALG, ALG2]))
        K = LambdaBracketStruct(draw(quasiconstant_ops(alg)))
    return QuotientArray(draw(skew_arrays(alg, draw(st.integers(0, 2))))), K


@settings(max_examples=30, deadline=None)
@given(arrays_and_structures())
def test_d_k_equals_the_expanded_sum(case):
    """d_K, its delta_K-shaped terms through the generator factors, equals
    d_k_reference, which expands those terms as delta_k_reference does:
    for the Magri structure, a skewadjoint two-component structure with
    jets, and quasiconstant K with x and without."""
    P, K = case
    assert d_k(P, K).representative == d_k_reference(P, K)


def test_delta_k_requires_quasiconstant():
    H = magri_structure(ALG).op
    with pytest.raises(NotQuasiconstant):
        delta_k(SkewArray.from_function(ALG, U), H)


QUASICONSTANT_SITES = {
    "field_coeffs": lambda K: K.rows[0][0].field_coeffs(),
    "solve_rational": lambda K: varpois.solve_rational(K),
    "selfadjoint_product_space": lambda K: varpois.selfadjoint_product_space(K),
    "delta_k": lambda K: delta_k(SkewArray.from_function(ALG, U), K),
    "reduce_closed": lambda K: reduce_closed(SkewArray(ALG, 1), K),
    "cohomology_dim": lambda K: cohomology_dim(K, 0),
}


@pytest.mark.parametrize("site", sorted(QUASICONSTANT_SITES))
def test_not_quasiconstant_is_one_class(site):
    """Every check that an operator's coefficients lie in F raises the
    exported NotQuasiconstant, which is a ValueError, on d + u."""
    K = MatDiffOp(ALG, [[ScalarDiffOp(ALG, {1: ALG.one, 0: U})]])
    assert issubclass(NotQuasiconstant, ValueError)
    with pytest.raises(NotQuasiconstant):
        QUASICONSTANT_SITES[site](K)


def test_complex_property_random():
    rng = random.Random(22)
    for alg in (ALG, ALG2):
        K = MatDiffOp(alg, [[ScalarDiffOp.d(alg) if i == j
                             else ScalarDiffOp.zero(alg)
                             for j in range(alg.nvars)]
                            for i in range(alg.nvars)])
        for k in range(3):
            arr = rnd_skew_array(rng, alg, k, max_deg=1, max_order=1)
            assert de_rham_delta(de_rham_delta(arr)).is_zero()
            assert delta_k(delta_k(arr, K), K).is_zero()


def test_delta_k_commutes_with_partial_action():
    rng = random.Random(23)
    for k in (0, 1, 2):
        arr = rnd_skew_array(rng, ALG, k, max_deg=1, max_order=1)
        assert delta_k(partial_action(arr), KD) == \
            partial_action(delta_k(arr, KD))


def test_partial_action():
    P = SkewArray.from_one_form([U])
    out = partial_action(P)
    assert out.entry((1,)) == LambdaPoly(ALG, 1, {(0,): U.derive(), (1,): U})
    rng = random.Random(24)
    for _ in range(6):
        arr = rnd_skew_array(rng, ALG, 1, max_deg=1, max_order=1)
        if partial_action(arr).is_zero():
            assert arr.is_zero()


def test_filtration_level():
    # quasiconstant array of low degree sits at the bottom
    flat = SkewArray(ALG, 1)
    flat.set_entry((1,), LambdaPoly.const(ALG, 1, ALG.x()))
    assert filtration_level(flat, 1) == (0, 0)
    P = SkewArray.from_one_form([U])
    assert filtration_level(P, 1) == (0, 1)
    hi = SkewArray(ALG, 1)
    hi.set_entry((1,), LambdaPoly.monomial(ALG, 1, (3,), ALG.jet(1, 2)))
    assert filtration_level(hi, 1) == (2, 1)


def test_partial_antiderivative():
    assert partial_antiderivative(U * U, 1, 0) == U ** 3 / 3
    assert partial_antiderivative(ALG.one, 1, 0) == U
    with pytest.raises(OutOfFiltration):
        partial_antiderivative(ALG.jet(1, 1), 1, 0)
    # out-of-filtration input for the homotopy is rejected
    P = SkewArray.from_one_form([ALG.jet(1, 1)])
    with pytest.raises(OutOfFiltration):
        homotopy(P, 0, 1, 1)


def test_homotopy_examples():
    P = SkewArray(ALG, 1)
    P.set_entry((1,), LambdaPoly.monomial(ALG, 1, (1,), U))
    h = homotopy(P, 0, 1, 1)
    assert h == SkewArray.from_function(ALG, U * U / 2)
    Pl = SkewArray(ALG, 1)
    Pl.set_entry((1,), LambdaPoly.monomial(ALG, 1, (1,), ALG.one))
    assert homotopy(Pl, 0, 1, 1) == SkewArray.from_function(ALG, U)
    Pc = SkewArray(ALG, 1)
    Pc.set_entry((1,), LambdaPoly.const(ALG, 1, ALG.one))
    assert homotopy(Pc, 0, 1, 1).is_zero()


def test_homotopy_identity_random():
    """h(delta_K P) + delta_K(h P) - P drops to the previous level."""
    rng = random.Random(25)
    checked = 0
    for alg in (ALG, ALG2):
        K = MatDiffOp(alg, [[ScalarDiffOp.d(alg) if i == j
                             else ScalarDiffOp.zero(alg)
                             for j in range(alg.nvars)]
                            for i in range(alg.nvars)])
        for k in (1, 2):
            for _ in range(4):
                P = rnd_skew_array(rng, alg, k, max_deg=2, max_order=2)
                m, i = filtration_level(P, 1)
                if level_key(m, i, alg.nvars) < 0:
                    continue
                res = homotopy(delta_k(P, K), m, i, 1) + \
                    delta_k(homotopy(P, m, i, 1), K) - P
                lm, li = filtration_level(res, 1)
                assert level_key(lm, li, alg.nvars) < \
                    level_key(m, i, alg.nvars)
                checked += 1
    assert checked >= 10


def test_reduce_closed():
    P = SkewArray(ALG, 1)
    P.set_entry((1,), LambdaPoly.monomial(ALG, 1, (1,), U))
    Q, R = reduce_closed(P, KD)
    assert R.is_zero() and Q == SkewArray.from_function(ALG, U * U / 2)
    Pc = SkewArray(ALG, 1)
    Pc.set_entry((1,), LambdaPoly.const(ALG, 1, ALG.x()))
    Q2, R2 = reduce_closed(Pc, KD)
    assert Q2.is_zero() and R2 == Pc
    with pytest.raises(NotClosed):
        reduce_closed(SkewArray.from_one_form([U]), KD)


def test_reduce_closed_detects_exact_random():
    rng = random.Random(26)
    for k in (1, 2):
        for _ in range(4):
            Q0 = rnd_skew_array(rng, ALG, k - 1, max_deg=1, max_order=1)
            P = delta_k(Q0, KD)
            Q, R = reduce_closed(P, KD)
            assert R.is_zero()
            assert delta_k(Q, KD) == P


def test_reduce_closed_nonidentity_leading():
    K2 = MatDiffOp(ALG, [[ScalarDiffOp(ALG, {1: ALG.one * 2})]])
    rng = random.Random(27)
    Q0 = rnd_skew_array(rng, ALG, 0, max_deg=1, max_order=1)
    P = delta_k(Q0, K2)
    Q, R = reduce_closed(P, K2)
    assert R.is_zero() and delta_k(Q, K2) == P


def test_reduce_sweep_order_stability():
    """R is pinned by uniqueness: recompute from a shifted representative."""
    rng = random.Random(28)
    for _ in range(4):
        C = SkewArray(ALG, 1)
        C.set_entry((1,), LambdaPoly.const(ALG, 1,
                                           ALG.from_scalar(ALG.field.x)))
        Q0 = rnd_skew_array(rng, ALG, 0, max_deg=0, max_order=1)
        P = C + delta_k(Q0, KD)
        _, R = reduce_closed(P, KD)
        assert R == C


def test_phi_s_functoriality():
    rng = random.Random(29)
    S = [[ALG.field.rational(2)]]
    T = [[ALG.field.rational(3)]]
    TS = [[ALG.field.rational(6)]]
    for k in (1, 2):
        P = rnd_skew_array(rng, ALG, k, max_deg=1, max_order=1)
        assert phi_s(phi_s(P, T), S) == phi_s(P, TS)
        # homomorphism of complexes
        KS = KD.compose(MatDiffOp.from_constant(ALG, S))
        assert phi_s(delta_k(P, KD), S) == delta_k(phi_s(P, S), KS)


def test_alpha_k():
    assert alpha_k(SkewArray.from_function(ALG, ALG.x()), KD) == \
        SkewArray.from_function(ALG, ALG.one)
    s = ALG.from_scalar(ALG.field.x)
    P = SkewArray(ALG, 1)
    P.set_entry((1,), LambdaPoly.const(ALG, 1, s))
    out = alpha_k(P, KD)
    want = SkewArray(ALG, 1)
    want.set_entry((1,), LambdaPoly.const(ALG, 1, ALG.one))
    assert out == want
    assert alpha_k(SkewArray(ALG, 2), KD).is_zero()
    K2 = MatDiffOp(ALG, [[ScalarDiffOp(ALG, {1: ALG.one * 2})]])
    with pytest.raises(LeadingCoeffNotIdentity):
        alpha_k(P, K2)


def test_dim_omega00():
    assert dim_omega00(1, 1, 0, ALG)[0] == 1
    assert dim_omega00(1, 1, 2, ALG)[0] == 0
    count, basis = dim_omega00(2, 2, 3, ALG2)
    assert count == 4 == len(basis)
    # each block of equal indices carries its alternating sum of monomials,
    # with coefficients +-1
    assert [{key: format_lambda_poly(L) for key, L in arr.entries.items()}
            for arr in basis] == [
        {(1, 2, 2): "-l3 + l2"}, {(1, 2, 2): "-l1*l3 + l1*l2"},
        {(1, 1, 2): "-l2 + l1"}, {(1, 1, 2): "-l2*l3 + l1*l3"}]
    (vandermonde,) = dim_omega00(3, 1, 3, ALG)[1]
    assert format_lambda_poly(vandermonde.entries[(1, 1, 1)]) == (
        "-l2*l3^2 + l2^2*l3 + l1*l3^2 + -l1*l2^2 + -l1^2*l3 + l1^2*l2")
    for N in (1, 2, 3):
        for nv, alg in ((1, ALG), (2, ALG2)):
            for k in range(5):
                count, basis = dim_omega00(N, nv, k, alg)
                assert count == math.comb(N * nv, k) == len(basis)


def test_dim_omega00_rejects_a_negative_arity():
    with pytest.raises(ValueError, match="k must be nonnegative, got -1"):
        dim_omega00(1, 1, -1, ALG)


def test_cohomology_dim_rejects_a_negative_arity():
    """k = -1 would count the one arity-0 slice as H^-1."""
    with pytest.raises(ValueError, match="k must be nonnegative, got -1"):
        cohomology_dim(KD, -1)


def test_cohomology_dims():
    assert cohomology_dim(KD, 0).dim == 1
    assert cohomology_dim(KD, 1).dim == 0
    r = cohomology_dim(kd2(), 1)
    assert r.dim == 1 and not r.flagged_lower_bound
    shifted = MatDiffOp(ALG, [[ScalarDiffOp(ALG, {1: ALG.one, 0: ALG.one})]])
    r2 = cohomology_dim(shifted, 0)
    assert r2.dim == 0 and r2.flagged_lower_bound


def test_quotient_equality():
    """P = 0 in the quotient iff P lies in the image of the d-action."""
    rng = random.Random(30)
    for k in (1, 2):
        for _ in range(5):
            arr = rnd_skew_array(rng, ALG, k, max_deg=1, max_order=1)
            assert QuotientArray(partial_action(arr)).is_zero()
            if not arr.is_zero() and k >= 1:
                shifted = arr + partial_action(arr)
                assert QuotientArray(shifted) == QuotientArray(arr)


def test_d_k_at_bottom_is_hamiltonian_field():
    from varpois import LocalFunctional
    G = gfz_structure(ALG)
    P = QuotientArray(SkewArray.from_function(ALG, U * U / 2))
    vec = as_one_form(d_k(P, G))
    assert vec == hamiltonian_vf(LocalFunctional(U * U / 2), G).P


def test_d_k_squares_to_zero():
    H = magri_structure(ALG)
    rng = random.Random(31)
    for _ in range(3):
        arr = rnd_skew_array(rng, ALG, 1, max_deg=1, max_order=1)
        dd = d_k(d_k(QuotientArray(arr), H), H)
        assert dd.is_zero()


def test_d_k_vs_delta_k_for_quasiconstant_skew():
    G = gfz_structure(ALG)
    rng = random.Random(32)
    for k in (0, 1, 2):
        arr = rnd_skew_array(rng, ALG, k, max_deg=1, max_order=1)
        lhs = d_k(QuotientArray(arr), G).representative
        sign = 1 if (k + 1) % 2 == 0 else -1
        rhs = delta_k(arr, KD).scale(sign)
        assert QuotientArray(lhs) == QuotientArray(rhs)


def test_d_k_rejects_bad_operator():
    bad = LambdaBracketStruct(MatDiffOp(ALG, [[ScalarDiffOp(
        ALG, {0: U})]]))
    with pytest.raises(NotQuasiconstant):
        d_k(QuotientArray(SkewArray.from_function(ALG, U)), bad)


def test_d_k_not_poisson_is_the_exported_class():
    """S - S* with S = u d^3 is skewadjoint but fails Jacobi; d_K's error
    is caught as varpois.NotPoisson."""
    S = ScalarDiffOp(ALG, {3: U})
    K = LambdaBracketStruct.from_scalar_op(S - S.adjoint())
    with pytest.raises(varpois.NotPoisson):
        d_k(QuotientArray(SkewArray.from_function(ALG, U)), K)


def test_d_k_matches_adjoint_action_on_one_forms():
    """Under the arity-2 operator identification, d_K of a 1-form class is
    the bracket action on the corresponding evolutionary field:
    d_K(F) corresponds to -(X_F(K) - K o D_F* - D_F o K)."""
    rng = random.Random(33)
    for K in (gfz_structure(ALG), magri_structure(ALG)):
        for _ in range(4):
            F = [rnd_diffpoly(rng, ALG, max_order=1, max_degree=2, terms=2)]
            dq = d_k(QuotientArray(SkewArray.from_one_form(F)), K)
            S = as_skewadjoint_op(dq)
            assert (S + S.adjoint()).is_zero()
            assert S == -ad_field_on_operator(EvVectorField(F), K)


def test_d_k_well_defined_on_quotient():
    """d_K sends the image of the d-action into itself: representatives
    differing by d-exact arrays give the same class."""
    rng = random.Random(34)
    H = magri_structure(ALG)
    for _ in range(4):
        arr = rnd_skew_array(rng, ALG, 1, max_deg=1, max_order=1)
        shift = partial_action(rnd_skew_array(rng, ALG, 1, max_deg=1,
                                              max_order=1))
        lhs = d_k(QuotientArray(arr + shift), H)
        rhs = d_k(QuotientArray(arr), H)
        assert lhs == rhs


def test_pairing_oracle_for_quotient_equality():
    """Nondegeneracy: a class is zero iff its polydifferential values vanish
    (checked statistically on random arguments)."""
    rng = random.Random(35)
    for k in (1, 2):
        for _ in range(4):
            arr = rnd_skew_array(rng, ALG, k, max_deg=1, max_order=1)
            gs = [[rnd_diffpoly(rng, ALG, terms=2)] for _ in range(k)]
            # exact arrays pair to zero against everything
            exact = partial_action(arr)
            assert array_pairing(exact, gs).is_zero()
            if not QuotientArray(arr).is_zero():
                hits = sum(
                    0 if array_pairing(arr, [[rnd_diffpoly(rng, ALG,
                                                           terms=2)]
                                             for _ in range(k)]).is_zero()
                    else 1
                    for _ in range(6))
                assert hits > 0


def test_phi_k1():
    D = ScalarDiffOp.d(ALG)
    S = MatDiffOp(ALG, [[D]])
    out = phi_k1(S, KD)
    assert out == MatDiffOp(ALG, [[ScalarDiffOp(ALG, {3: -ALG.one})]])
    assert (out + out.adjoint()).is_zero()
    assert phi_k1(MatDiffOp(ALG, [[ScalarDiffOp.zero(ALG)]]), KD).is_zero()
    # k=0 comparison: K(d)F matches the Hamiltonian field on gradients
    G = gfz_structure(ALG)
    from varpois import LocalFunctional, variational_derivative
    h = U ** 3 / 2
    grad = list(variational_derivative(h))
    assert KD.apply(grad) == hamiltonian_vf(LocalFunctional(h), G).P
