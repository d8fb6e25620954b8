import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import varpois.diffalg as diffalg_module
import varpois.lenard as lenard_module
from varpois import (DiffAlgebra, HierarchyState, InvariantViolation,
                     LambdaBracketStruct, LocalFunctional, MatDiffOp,
                     NoPreimage, NotExact, NotPoisson, NotSkewadjoint,
                     ScalarDiffOp, UnsupportedK, functional_eq, gfz_structure,
                     hamiltonian_vf, magri_structure, run_hierarchy,
                     variational_derivative, verify_involution)
from varpois.lenard import StepCertificate, _invert_k_on, lenard_step
from varpois.linsolve import det

from helpers import (commuting_flows, diffpolys, field_elems,
                     invert_k_by_constant_inverse, invert_k_reference,
                     involution_matrix_reference)

ALG = DiffAlgebra(1, ["c"])
U = ALG.jet(1)
C = ALG.param("c")
H = magri_structure(ALG)
K = gfz_structure(ALG)


@pytest.fixture(scope="module")
def kdv_state():
    return run_hierarchy(H, K, LocalFunctional(U * U / 2), 3)


def test_first_step_density(kdv_state):
    h1 = kdv_state.densities[1]
    target = LocalFunctional((U ** 3 + C * U * ALG.jet(1, 2)) / 2)
    assert functional_eq(h1, target)


def test_recursion_identities(kdv_state):
    """K delta h_(n+1) = H delta h_n holds exactly at every step."""
    for n in range(3):
        lhs = K.op.apply(list(variational_derivative(
            kdv_state.densities[n + 1].representative)))
        rhs = H.op.apply(list(variational_derivative(
            kdv_state.densities[n].representative)))
        assert all((a - b).is_zero() for a, b in zip(lhs, rhs))
    assert all(c.recursion_exact for c in kdv_state.certificates)


def test_evolution_equation(kdv_state):
    rhs = hamiltonian_vf(kdv_state.densities[1], K).P[0]
    assert rhs == U * ALG.jet(1, 1) * 3 + C * ALG.jet(1, 3)


def test_involution(kdv_state):
    inv = verify_involution(kdv_state)
    assert all(all(row) for row in inv)


def test_commuting_flows(kdv_state):
    assert commuting_flows(kdv_state)


def test_density_normalization(kdv_state):
    """Re-running reconstructs the same cosets."""
    again = run_hierarchy(H, K, LocalFunctional(U * U / 2), 2)
    for a, b in zip(again.densities, kdv_state.densities[:3]):
        assert functional_eq(a, b)


def test_steps_zero():
    st = run_hierarchy(H, K, LocalFunctional(U * U / 2), 0)
    assert len(st.densities) == 1


def test_no_preimage_obstruction():
    """H = d, K = d^3 on the quadratic seed: the second antiderivative hits
    delta(u)/delta u = 1, so there is no preimage."""
    H2 = LambdaBracketStruct.from_scalar_op(ScalarDiffOp.d(ALG))
    K2 = LambdaBracketStruct.from_scalar_op(ScalarDiffOp.d(ALG, 3))
    state = HierarchyState(H2, K2, [LocalFunctional(U * U / 2)])
    with pytest.raises(NoPreimage):
        lenard_step(state)


def test_unsupported_k_rejected():
    bad = LambdaBracketStruct.from_scalar_op(
        ScalarDiffOp(ALG, {0: U}))
    state = HierarchyState(H, bad, [LocalFunctional(U * U / 2)])
    with pytest.raises(UnsupportedK):
        lenard_step(state)


ALG2 = DiffAlgebra(2)
_D1, _D3, _Z = (ScalarDiffOp.d(ALG2), ScalarDiffOp.d(ALG2, 3),
                ScalarDiffOp.zero(ALG2))
K2 = LambdaBracketStruct(MatDiffOp(ALG2, [[_D1.scale(2), _D1], [_D1, _D1]]))
H2 = LambdaBracketStruct(MatDiffOp(ALG2, [[_D3, _Z], [_Z, _D3]]))


def test_two_component_constant_pair():
    """A constant symmetric pair on two components: the K-inversion runs
    through the constant diagonalization and every step certifies."""
    u1, u2 = ALG2.jet(1), ALG2.jet(2)
    seed = LocalFunctional((u1 * u1 + u2 * u2) / 2)
    st = run_hierarchy(H2, K2, seed, 2)
    assert len(st.densities) == 3
    for n in range(2):
        lhs = K2.op.apply(list(variational_derivative(
            st.densities[n + 1].representative)))
        rhs = H2.op.apply(list(variational_derivative(
            st.densities[n].representative)))
        assert all((a - b).is_zero() for a, b in zip(lhs, rhs))
    assert all(all(r) for r in verify_involution(st))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_triangular_inversion_equals_constant_inverse(data):
    """K = A diag(c_j d^(m_j)) with A and c_j in F, A invertible, and
    F = K G for a random G: the triangular solve returns the G' of the
    constant-inverse reference exactly, and K G' = F."""
    field = ALG2.field
    amat = [[data.draw(field_elems(field)) for _ in range(2)]
            for _ in range(2)]
    assume(not det(amat, field).is_zero())
    cs = [data.draw(field_elems(field)) for _ in range(2)]
    assume(not any(c.is_zero() for c in cs))
    orders = [data.draw(st.integers(0, 3)) for _ in range(2)]
    Kmat = MatDiffOp(ALG2, [[ScalarDiffOp(ALG2, {orders[j]: ALG2.from_scalar(
        a * cs[j])}) for j, a in enumerate(row)] for row in amat])
    G = [data.draw(diffpolys(ALG2, max_order=1, max_terms=2, with_x=True))
         for _ in range(2)]
    F = Kmat.apply(G)
    Ks = LambdaBracketStruct(Kmat)
    G2 = _invert_k_on(HierarchyState(Ks, Ks, []), F)
    assert G2 == invert_k_by_constant_inverse(Kmat, F)
    assert Kmat.apply(G2) == F


def _outcome(solve):
    """The G that solve() returns, or the type, message and witness of the
    UnsupportedK or NoPreimage it raises."""
    try:
        return solve()
    except (NoPreimage, UnsupportedK) as err:
        return type(err), str(err), getattr(err, "witness", None)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_upper_triangular_inversion_equals_the_reference_loop(data):
    """K = A o T with A invertible over F and T upper triangular: diagonal
    c_j d^(m_j), c_j in F (with x), and a quasiconstant entry above it.
    With F = K G for a random G in V^2, the driver's inversion through the
    solver's back-substitution gives what the driver's own bottom-up loop
    gave (tests/helpers.invert_k_reference), a G' or the same error, and
    K G' = F."""
    field = ALG2.field
    amat = [[data.draw(field_elems(field)) for _ in range(2)]
            for _ in range(2)]
    assume(not det(amat, field).is_zero())
    cs = [data.draw(field_elems(field)) for _ in range(2)]
    assume(not any(c.is_zero() for c in cs))
    orders = [data.draw(st.integers(0, 2)) for _ in range(2)]
    above = ScalarDiffOp(ALG2, {k: ALG2.from_scalar(data.draw(
        field_elems(field))) for k in range(data.draw(st.integers(0, 3)))})
    diag = [ScalarDiffOp(ALG2, {m: ALG2.from_scalar(c)})
            for m, c in zip(orders, cs)]
    A = MatDiffOp(ALG2, [[ScalarDiffOp(ALG2, {0: ALG2.from_scalar(a)})
                          for a in row] for row in amat])
    Kmat = A.compose(MatDiffOp(ALG2, [[diag[0], above], [_Z, diag[1]]]))
    G = [data.draw(diffpolys(ALG2, max_order=1, max_terms=2, with_x=True))
         for _ in range(2)]
    F = Kmat.apply(G)
    Ks = LambdaBracketStruct(Kmat)
    G2 = _outcome(lambda: _invert_k_on(HierarchyState(Ks, Ks, []), F))
    assert G2 == _outcome(lambda: invert_k_reference(Kmat, F))
    if isinstance(G2, list):
        assert Kmat.apply(G2) == F


def test_mixed_order_column_gets_a_step():
    """K = [[d^3, d], [d, 0]] is quasiconstant with triangular form
    diag(d, d), though its first column mixes orders: from
    (u1^2 + u2^2)/2 under H = diag(d, d) the step gives
    G = (u2, u1 - u2''), the gradient of u1 u2 - u2 u2'' / 2."""
    Kmix = LambdaBracketStruct(MatDiffOp(ALG2, [[_D3, _D1], [_D1, _Z]]))
    Hd = LambdaBracketStruct(MatDiffOp(ALG2, [[_D1, _Z], [_Z, _D1]]))
    u1, u2 = ALG2.jet(1), ALG2.jet(2)
    u2xx = ALG2.jet(2, 2)
    state = HierarchyState(Hd, Kmix,
                           [LocalFunctional((u1 * u1 + u2 * u2) / 2)])
    h1 = lenard_step(state)
    assert functional_eq(h1, LocalFunctional(u1 * u2 - u2 * u2xx / 2))
    assert state.gradients[1] == [u2, u1 - u2xx]


_ONE2 = ScalarDiffOp.identity(ALG2)


@pytest.mark.parametrize("Hs, op, reason", [
    (H, MatDiffOp.scalar(ScalarDiffOp(ALG, {3: ALG.one, 1: ALG.one})),
     "pivot is not a single d-power"),
    (H2, MatDiffOp(ALG2, [[_D1, _ONE2], [-_ONE2, _D1]]),
     "pivot is not a single d-power"),
    (H2, MatDiffOp(ALG2, [[_D1, _D1], [_D1, _D1]]), "K is singular")])
def test_unsupported_k_reasons(Hs, op, reason):
    """d^3 + d, and [[d, 1], [-1, d]] whose triangular form ends in
    -1 - d^2, wait for a solver of L y = r; [[d, d], [d, d]] is
    singular."""
    seed = LocalFunctional(Hs.alg.jet(1) ** 2)
    state = HierarchyState(Hs, LambdaBracketStruct(op), [seed])
    with pytest.raises(UnsupportedK, match=reason):
        lenard_step(state)


def test_incompatible_pair_rejected():
    bad = LambdaBracketStruct.from_scalar_op(
        ScalarDiffOp(ALG, {1: U.derive(),
                           0: ALG.jet(1, 2).scale(ALG.field.rational(1, 2))}))
    with pytest.raises(NotPoisson) as err:
        run_hierarchy(bad, K, LocalFunctional(U * U / 2), 1)
    triple, residual = err.value.witness
    assert triple == (1, 1, 1) and not residual.is_zero()


def test_k_is_triangularized_once_per_hierarchy(monkeypatch):
    """K is fixed along a hierarchy, so three KdV steps bring it to
    triangular form once."""
    calls = []
    echelon = lenard_module.row_echelon
    monkeypatch.setattr(lenard_module, "row_echelon",
                        lambda M: calls.append(M) or echelon(M))
    state = run_hierarchy(H, K, LocalFunctional(U * U / 2), 3)
    assert len(state.densities) == 4 and len(calls) == 1


def test_involution_reuses_the_step_images(monkeypatch):
    """verify_involution takes H g_n and K g_(n+1) from the steps that
    computed them: three KdV steps and the involution check apply an
    operator six times (H g_0, K g_1, ..., K g_3), not twelve.  A state
    built by hand, with no images stored, gives the same matrix."""
    calls = []
    apply = MatDiffOp.apply
    monkeypatch.setattr(MatDiffOp, "apply",
                        lambda self, v: calls.append(self) or apply(self, v))
    state = run_hierarchy(H, K, LocalFunctional(U * U / 2), 3)
    matrix = verify_involution(state)
    assert len(calls) == 6
    assert matrix == [[True] * 4] * 4
    fresh = HierarchyState(H, K, state.densities)
    assert verify_involution(fresh) == matrix
    assert len(calls) == 12


def test_involution_matches_all_pairs(kdv_state):
    """The a < b pairs filled out by skewsymmetry give the matrix of all n^2
    brackets under both structures."""
    assert verify_involution(kdv_state) == \
        involution_matrix_reference(kdv_state)
    u1, u2 = ALG2.jet(1), ALG2.jet(2)
    st2 = run_hierarchy(H2, K2, LocalFunctional((u1 * u1 + u2 * u2) / 2), 2)
    assert verify_involution(st2) == involution_matrix_reference(st2)
    loose = HierarchyState(H, K, [LocalFunctional(U * U / 2),
                                  LocalFunctional(ALG.jet(1, 1) ** 2),
                                  LocalFunctional(U ** 3)])
    expected = [[True, False, False], [False, True, False],
                [False, False, True]]
    assert verify_involution(loose) == expected
    assert involution_matrix_reference(loose) == expected


@st.composite
def densities(draw, alg):
    """A quadratic jet monomial plus a few random terms, so that most
    pairs of densities are not in involution."""
    jets = [alg.jet(draw(st.integers(1, alg.nvars)), draw(st.integers(0, 1)))
            for _ in range(2)]
    return LocalFunctional(jets[0] * jets[1] + draw(
        diffpolys(alg, max_order=1, max_degree=3, max_terms=2)))


@settings(max_examples=30, deadline=None)
@given(data=st.data(), pair=st.sampled_from([(H, K), (H2, K2)]))
def test_involution_matches_all_pairs_random(data, pair):
    """Densities outside a hierarchy, so that some pairs fail."""
    Hs, Ks = pair
    dens = data.draw(st.lists(densities(Hs.alg), min_size=2, max_size=3))
    state = HierarchyState(Hs, Ks, dens)
    assert verify_involution(state) == involution_matrix_reference(state)


def test_involution_needs_skewadjoint_brackets(kdv_state):
    not_skew = LambdaBracketStruct.from_scalar_op(ScalarDiffOp.d(ALG, 2))
    for Hs, Ks in ((H, not_skew), (not_skew, K)):
        state = HierarchyState(Hs, Ks, kdv_state.densities)
        with pytest.raises(NotSkewadjoint):
            verify_involution(state)


def test_state_keeps_each_density_gradient(kdv_state):
    """gradients[n] is delta h_n / delta u, for the seed and for every
    density a step added."""
    assert len(kdv_state.gradients) == len(kdv_state.densities) == 4
    for h, grad in zip(kdv_state.densities, kdv_state.gradients):
        assert grad == list(variational_derivative(h.representative))


def test_failed_recursion_is_a_named_error(monkeypatch):
    """A density that breaks K delta h_(n+1) = H delta h_n, here from an
    inversion of K that returns a wrong but exact preimage, raises
    InvariantViolation, which python -O keeps, and the state stays as it
    was."""
    import varpois.lenard as lenard_module
    monkeypatch.setattr(lenard_module, "_invert_k_on",
                        lambda state, F: [U * U * 3])
    state = HierarchyState(H, K, [LocalFunctional(U * U / 2)])
    with pytest.raises(InvariantViolation, match="recursion identity"):
        lenard_step(state)
    assert len(state.densities) == len(state.gradients) == 1
    assert state.certificates == []


def test_non_gradient_preimage_is_not_exact():
    """K = diag(d, d), H = [[0, d], [-d, 0]] from (u1^2 + u2^2)/2: the
    preimage (u2, -u1) is not a variational gradient.  NotExact carries
    D_G - D_G* as its witness, and the state stays as it was."""
    z = ScalarDiffOp.zero(ALG2)
    Kd = LambdaBracketStruct(MatDiffOp(ALG2, [[_D1, z], [z, _D1]]))
    Hs = LambdaBracketStruct(MatDiffOp(ALG2, [[z, _D1], [-_D1, z]]))
    u1, u2 = ALG2.jet(1), ALG2.jet(2)
    state = HierarchyState(Hs, Kd, [LocalFunctional((u1 * u1 + u2 * u2) / 2)])
    with pytest.raises(NotExact, match="not a variational gradient") as err:
        lenard_step(state)
    two = ScalarDiffOp.identity(ALG2).scale(2)
    assert (err.value.witness - MatDiffOp(ALG2, [[z, two], [-two, z]])).is_zero()
    assert len(state.densities) == len(state.gradients) == 1
    assert state.certificates == []


def _count_zero_tests(monkeypatch):
    """Count the integration-by-parts zero tests (is_total_derivative)."""
    calls = []
    real = diffalg_module.is_total_derivative
    monkeypatch.setattr(diffalg_module, "is_total_derivative",
                        lambda f: calls.append(f) or real(f))
    return calls


def test_involution_of_a_chain_makes_no_zero_test(monkeypatch):
    """Every link of a 4-step KdV hierarchy is exact, so the Lenard-Magri
    lemma settles every pair: no zero test runs.  A broken link brings
    them back, which shows that the counter sees them."""
    state = run_hierarchy(H, K, LocalFunctional(U * U / 2), 4)
    calls = _count_zero_tests(monkeypatch)
    assert all(all(row) for row in verify_involution(state))
    assert calls == []
    broken = HierarchyState(H, K, state.densities[:2] +
                            [LocalFunctional(ALG.jet(1, 1) ** 2)])
    verify_involution(broken)
    assert calls


def test_involution_across_a_broken_link(kdv_state):
    """[h0, h1, junk, h2]: the links h0-h1 and junk-h2 are broken at junk.
    Pairs inside {h0, h1} follow from the lemma; the pairs across junk are
    zero-tested, and the ones with h2 still vanish."""
    h0, h1, h2 = kdv_state.densities[:3]
    junk = LocalFunctional(ALG.jet(1, 1) ** 2)
    state = HierarchyState(H, K, [h0, h1, junk, h2])
    matrix = verify_involution(state)
    assert matrix == involution_matrix_reference(state)
    assert matrix[2] == [False, False, True, False]
    assert matrix[0][1] and matrix[0][3] and matrix[1][3]


def test_hand_given_densities_on_a_chain(kdv_state, monkeypatch):
    """Densities typed by hand, each off the reconstructed one by a total
    derivative, have the same gradients, so they satisfy every link and
    the lemma settles them without a zero test."""
    u1, u2 = ALG.jet(1, 1), ALG.jet(1, 2)
    hand = [LocalFunctional(U * U / 2 + (U * u1).derive()),
            LocalFunctional((U ** 3 + C * U * u2) / 2
                            + (U ** 2 * u1).derive())]
    state = HierarchyState(H, K, hand)
    for a, b in zip(hand, kdv_state.densities):
        assert functional_eq(a, b)
    expected = involution_matrix_reference(state)
    calls = _count_zero_tests(monkeypatch)
    assert verify_involution(state) == expected == [[True, True], [True, True]]
    assert calls == []


def test_involution_ignores_forged_certificates(kdv_state):
    """A hand-built state whose certificates claim an exact step still gets
    its links checked: h0 with u'^2 is not in involution."""
    state = HierarchyState(H, K, [kdv_state.densities[0],
                                  LocalFunctional(ALG.jet(1, 1) ** 2)],
                           [StepCertificate(1, True)])
    matrix = verify_involution(state)
    assert matrix == involution_matrix_reference(state)
    assert matrix == [[True, False], [False, True]]
