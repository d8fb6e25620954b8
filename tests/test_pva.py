import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from varpois import (DiffAlgebra, LambdaBracketStruct, LocalFunctional,
                     MatDiffOp, NotSkewadjoint, ScalarDiffOp, ShapeMismatch,
                     check_compatible, check_jacobi, check_skewadjoint,
                     functional_eq, jacobi_residual, lambda_bracket,
                     magri_structure, poisson_bracket)
from varpois import pva
from varpois.lambdapoly import LambdaPoly
from varpois.pva import compatibility_residual

from helpers import (EvVectorField, ad_field_on_operator,
                     compatibility_residual_reference, compatible_all_terms,
                     diffpolys, ev_apply, ev_commutator, field_elems,
                     gfz_structure, hamiltonian_vf, jacobi_all_triples,
                     jacobi_residual_reference, lambda_bracket_reference,
                     rnd_diffpoly, rnd_mat_op, rnd_scalar_op,
                     skewsymmetry_residual)

ALG = DiffAlgebra(1, ["c"])
U = ALG.jet(1)
GFZ = gfz_structure(ALG)
MAGRI = magri_structure(ALG)
ALG2 = DiffAlgebra(2)
U1, U2 = ALG2.jet(1), ALG2.jet(2)


def _vir_heis_op(alg):
    """{u1_lam u1} = (d + 2 lam) u1 + lam^3, {u1_lam u2} = (d + lam) u2,
    {u2_lam u2} = 3 lam: Virasoro acting on a current, a u-dependent
    Poisson structure on two variables."""
    u1, u2 = alg.jet(1), alg.jet(2)
    three = alg.from_scalar(alg.field.rational(3))
    return MatDiffOp(alg, [
        [ScalarDiffOp(alg, {0: u1.derive(), 1: u1 * 2, 3: alg.one}),
         ScalarDiffOp(alg, {1: u2})],
        [ScalarDiffOp(alg, {0: u2.derive(), 1: u2}),
         ScalarDiffOp(alg, {1: three})]])


VIR_HEIS = LambdaBracketStruct(_vir_heis_op(ALG2))


def _not_poisson():
    """{u_lam u} = u' lam + u''/2: skewadjoint but not Poisson."""
    return LambdaBracketStruct.from_scalar_op(
        ScalarDiffOp(ALG, {1: U.derive(), 0: ALG.jet(1, 2) * Fraction(1, 2)}))


@st.composite
def skew_brackets(draw, alg):
    """M - M* for a random M of order <= 2: quasiconstant, u-dependent, or
    (two variables) the Virasoro-current structure plus such a term in one
    entry, so that the first failing triple varies."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(
        ["quasiconstant", "jets"] + (["perturbed"] if alg.nvars > 1 else [])))
    order = draw(st.integers(1, 2))
    if kind != "perturbed":
        M = rnd_mat_op(rng, alg, alg.nvars, order,
                       quasiconstant=kind == "quasiconstant")
        return LambdaBracketStruct(M - M.adjoint())
    rows = [[ScalarDiffOp.zero(alg)] * alg.nvars for _ in range(alg.nvars)]
    i, j = rng.randrange(alg.nvars), rng.randrange(alg.nvars)
    rows[i][j] = rnd_scalar_op(rng, alg, order, quasiconstant=False)
    N = MatDiffOp(alg, rows)
    return LambdaBracketStruct(_vir_heis_op(alg) + N - N.adjoint())


def test_bracket_on_generators():
    b = lambda_bracket(U, U, GFZ)
    assert b == LambdaPoly.monomial(ALG, 1, (1,), ALG.one)
    m = lambda_bracket(U, U, MAGRI)
    c = ALG.param("c")
    expected = LambdaPoly(ALG, 1, {(0,): U.derive(), (1,): U * 2, (3,): c})
    assert m == expected


def test_bracket_master_formula():
    b = lambda_bracket(U * U, U, GFZ)
    expected = LambdaPoly(ALG, 1, {(1,): U * 2, (0,): U.derive() * 2})
    assert b == expected


def test_sesquilinearity():
    rng = random.Random(11)
    for H in (GFZ, MAGRI):
        for _ in range(5):
            f = rnd_diffpoly(rng, ALG)
            g = rnd_diffpoly(rng, ALG)
            base = lambda_bracket(f, g, H)
            left = lambda_bracket(f.derive(), g, H)
            assert left == LambdaPoly.monomial(ALG, 1, (1,), -ALG.one) * base
            right = lambda_bracket(f, g.derive(), H)
            shifted = LambdaPoly.monomial(ALG, 1, (1,), ALG.one) * base + \
                base.dcoeff()
            assert right == shifted


def test_skewsymmetry_for_skewadjoint():
    rng = random.Random(12)
    for H in (GFZ, MAGRI):
        for _ in range(5):
            f = rnd_diffpoly(rng, ALG)
            g = rnd_diffpoly(rng, ALG)
            assert skewsymmetry_residual(H, f, g).is_zero()


def test_check_skewadjoint():
    assert check_skewadjoint(GFZ)
    assert check_skewadjoint(MAGRI)
    ident = LambdaBracketStruct.from_scalar_op(ScalarDiffOp.identity(ALG))
    assert not check_skewadjoint(ident)


def test_check_jacobi():
    ok, wit = check_jacobi(GFZ)
    assert ok and wit is None
    ok, wit = check_jacobi(MAGRI)
    assert ok


def test_jacobi_failure_witness():
    """{u_lam u} = u' lam + u''/2 is skewadjoint but not Poisson."""
    bad = _not_poisson()
    assert check_skewadjoint(bad)
    ok, wit = check_jacobi(bad)
    assert not ok
    triple, residual = wit
    assert triple == (1, 1, 1) and not residual.is_zero()
    direct = jacobi_residual(bad, U, U, U)
    assert direct == residual


def test_jacobi_not_skew_raises():
    """The identity is not skewadjoint.  Being quasiconstant, it passes
    check_jacobi(H, require_skew=False), yet its residual on (u^2, u, u)
    is -4: without skewsymmetry the generator verdict says nothing about
    other triples."""
    ident = LambdaBracketStruct.from_scalar_op(ScalarDiffOp.identity(ALG))
    with pytest.raises(NotSkewadjoint):
        check_jacobi(ident)
    assert check_jacobi(ident, require_skew=False) == (True, None)
    res = jacobi_residual(ident, U * U, U, U)
    assert res == LambdaPoly.monomial(ALG, 2, (0, 0), ALG.one * -4)
    assert res == jacobi_residual_reference(ident, U * U, U, U)


def test_generator_sufficiency():
    """Jacobi on generators implies vanishing residual on random triples."""
    rng = random.Random(13)
    for _ in range(10):
        f = rnd_diffpoly(rng, ALG, terms=2)
        g = rnd_diffpoly(rng, ALG, terms=2)
        h = rnd_diffpoly(rng, ALG, terms=2)
        assert jacobi_residual(MAGRI, f, g, h).is_zero()


def test_compatibility():
    ok, _ = check_compatible(GFZ, MAGRI)
    assert ok
    ok, _ = check_compatible(MAGRI, MAGRI)
    assert ok
    d3 = LambdaBracketStruct.from_scalar_op(ScalarDiffOp.d(ALG, 3))
    ok, _ = check_compatible(GFZ, d3)
    assert ok
    assert compatible_all_terms(GFZ, d3) == (True, None)


def test_jacobi_antisymmetric_in_first_two_generators():
    """For skewadjoint H, J(b, a, c)(mu, lam) = -J(a, b, c)(lam, mu), so
    check_jacobi visits only the triples with a <= b."""
    rng = random.Random(17)
    perturb = rnd_mat_op(rng, ALG2, 2, 2, quasiconstant=False)
    for op in (_vir_heis_op(ALG2), perturb - perturb.adjoint(),
               _vir_heis_op(ALG2) + perturb - perturb.adjoint()):
        H = LambdaBracketStruct(op)
        for c in (1, 2):
            forward = jacobi_residual(H, U1, U2, ALG2.jet(c))
            swapped = jacobi_residual(H, U2, U1, ALG2.jet(c))
            assert swapped.compose_vars((1, 0)) == -forward


def test_compatible_without_skew_visits_all_triples():
    """A pair with a member that is not skewadjoint keeps the full loop:
    with H the Virasoro-current operator without its (1, 2) entry, the
    mixed terms of (H, H) are -2 J_H, which first fails on (2, 1, 2)."""
    rows = _vir_heis_op(ALG2).rows
    rows[0][1] = ScalarDiffOp.zero(ALG2)
    H = LambdaBracketStruct(MatDiffOp(ALG2, rows))
    ok, wit = check_compatible(H, H)
    assert not ok and wit[0] == (2, 1, 2)
    assert (ok, wit) == compatible_all_terms(H, H)


def test_jacobi_failure_witness_two_components():
    """The Virasoro-current structure with u1 u2 d + d u1 u2 added to its
    (2, 2) entry fails first on (1, 2, 2): the shortcut reports the triple
    and residual of the all-triples loop."""
    assert check_jacobi(VIR_HEIS) == (True, None)
    rows = [[ScalarDiffOp.zero(ALG2)] * 2 for _ in range(2)]
    rows[1][1] = ScalarDiffOp(ALG2, {1: U1 * U2})
    N = MatDiffOp(ALG2, rows)
    bad = LambdaBracketStruct(_vir_heis_op(ALG2) + N - N.adjoint())
    ok, wit = check_jacobi(bad)
    assert not ok and wit[0] == (1, 2, 2)
    assert (ok, wit) == jacobi_all_triples(bad)


def test_jacobi_without_skew_visits_all_triples():
    """Without skewadjointness J(b, a, c) is not tied to J(a, b, c): the
    Virasoro-current operator with its (1, 2) entry dropped first fails on
    (2, 1, 2), which require_skew=False (d_K's call) must still reach."""
    rows = _vir_heis_op(ALG2).rows
    rows[0][1] = ScalarDiffOp.zero(ALG2)
    H = LambdaBracketStruct(MatDiffOp(ALG2, rows))
    with pytest.raises(NotSkewadjoint):
        check_jacobi(H)
    ok, wit = check_jacobi(H, require_skew=False)
    assert not ok and wit[0] == (2, 1, 2)
    assert (ok, wit) == jacobi_all_triples(H)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), alg=st.sampled_from([ALG, ALG2]))
def test_check_jacobi_equals_all_triples(data, alg):
    """The quasiconstant rule and the a <= b triples give the verdict and
    the first witness of the all-triples loop."""
    H = data.draw(skew_brackets(alg))
    assert check_jacobi(H) == jacobi_all_triples(H)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), alg=st.sampled_from([ALG, ALG2]))
def test_check_jacobi_without_skew_equals_all_triples(data, alg):
    """With require_skew=False (d_K's call) H need not be skewadjoint, so
    every triple is visited: skew plus a quasiconstant non-skew part."""
    H = data.draw(skew_brackets(alg))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    C = rnd_mat_op(rng, alg, alg.nvars, 2, quasiconstant=True)
    K = LambdaBracketStruct(H.op + C)
    assert check_jacobi(K, require_skew=False) == jacobi_all_triples(K)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), alg=st.sampled_from([ALG, ALG2]))
def test_check_compatible_equals_all_terms(data, alg):
    """Skipping the terms with a quasiconstant inner operator, and for a
    skewadjoint pair the triples with a > b, leaves the verdict and the
    witness residual of the six-term loop; half the time K gets a
    quasiconstant part that is not skewadjoint, and every triple is
    visited."""
    H = data.draw(skew_brackets(alg))
    K = data.draw(skew_brackets(alg))
    if data.draw(st.booleans()):
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
        K = LambdaBracketStruct(
            K.op + rnd_mat_op(rng, alg, alg.nvars, 2, quasiconstant=True))
    assert check_compatible(H, K) == compatible_all_terms(H, K)


@st.composite
def _with_jet(draw, alg, max_degree):
    """A small element of V (x and the field's parameter in its
    coefficients, jets of order <= 1) plus a nonzero multiple of one jet,
    so that it is not in F."""
    c = draw(field_elems(alg.field).filter(lambda v: not v.is_zero()))
    jet = alg.jet(draw(st.integers(1, alg.nvars)), draw(st.integers(0, 1)))
    return draw(diffpolys(alg, max_order=1, max_degree=max_degree,
                          max_terms=2, with_x=True)) + jet * c


@st.composite
def bracket_structs(draw, alg):
    """An l x l operator of order <= 2 whose coefficients carry jets, x and
    the field's parameter, skewadjoint (M - M*) or not (M)."""
    M = MatDiffOp(alg, [[ScalarDiffOp(alg, {n: draw(_with_jet(alg, 1)) for n
                                            in range(draw(st.integers(0, 2))
                                                     + 1)})
                         for _ in range(alg.nvars)]
                        for _ in range(alg.nvars)])
    return LambdaBracketStruct(M - M.adjoint() if draw(st.booleans()) else M)


def _elements(draw, alg, count, max_degree):
    """`count` elements of V outside F; a later one repeats the one before
    it half the time, so that f = g also occurs."""
    out = []
    for _ in range(count):
        out.append(out[-1] if out and draw(st.booleans())
                   else draw(_with_jet(alg, max_degree)))
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data(), alg=st.sampled_from([ALG, ALG2]))
def test_lambda_bracket_equals_reference(data, alg):
    """The left factor applied to g gives the per-term master formula."""
    H = data.draw(bracket_structs(alg))
    f, g = _elements(data.draw, alg, 2, max_degree=2)
    assert lambda_bracket(f, g, H) == lambda_bracket_reference(f, g, H)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), alg=st.sampled_from([ALG, ALG2]))
def test_jacobi_residual_equals_reference(data, alg):
    """One left factor for f and one for g, reused across the coefficients
    of the inner brackets, give the reference residual term for term."""
    H = data.draw(bracket_structs(alg))
    f, g, h = _elements(data.draw, alg, 3, max_degree=1)
    assert jacobi_residual(H, f, g, h) == jacobi_residual_reference(H, f, g, h)


def test_jacobi_residual_builds_each_left_factor_once(monkeypatch):
    """The residual is the mixed terms with H inside and outside, and the
    inner left factors of f and g serve as the outer ones too: two factors
    for f != g, one for f = g.  (The outer bracket's factors are built on
    the coefficients of {f_lam g}, new elements, and are not counted.)
    The structure is skewadjoint and not Poisson, so the residual takes
    the full expansion."""
    bad = _not_poisson()
    built = []

    class Counting(pva._LeftFactor):
        __slots__ = ()

        def __init__(self, f, H):
            built.append(f)
            super().__init__(f, H)
    monkeypatch.setattr(pva, "_LeftFactor", Counting)
    for f, g, want in ((U, U.derive() * U, 2), (U * U, U * U, 1)):
        built.clear()
        res = jacobi_residual(bad, f, g, U)
        assert sum(1 for p in built if p is f or p is g) == want
        assert res == jacobi_residual_reference(bad, f, g, U)


def _pencil_member(a, b, g):
    """a (u' + 2u d) + b d + g d^3 on one variable: a member of the Magri
    pencil, Poisson for all rationals a, b, g."""
    return LambdaBracketStruct.from_scalar_op(ScalarDiffOp(ALG, {
        0: U.derive() * a, 1: U * (2 * a) + ALG.one * b, 3: ALG.one * g}))


@st.composite
def poisson_structures(draw):
    """A fresh Poisson structure, so that its verdict is taken anew: a
    Magri-pencil member with random rationals, the Magri bracket with
    symbolic c, or the Virasoro-current structure on two variables."""
    kind = draw(st.sampled_from(["pencil", "magri", "vir_heis"]))
    if kind == "pencil":
        return _pencil_member(*(draw(st.fractions(-3, 3, max_denominator=3))
                                for _ in range(3)))
    if kind == "magri":
        return magri_structure(ALG)
    return LambdaBracketStruct(_vir_heis_op(ALG2))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_poisson_residual_equals_reference(data):
    """On a Poisson structure, confirmed on every generator triple by the
    reference, jacobi_residual returns zero from the generator verdict,
    and the reference residual of elements of jet degree <= 2 agrees."""
    H = data.draw(poisson_structures())
    assert jacobi_all_triples(H) == (True, None)
    f, g, h = _elements(data.draw, H.alg, 3, max_degree=2)
    assert jacobi_residual(H, f, g, h) == jacobi_residual_reference(H, f, g,
                                                                    h)


def test_poisson_residuals_run_the_generator_loop_once(monkeypatch):
    """The first residual on a Poisson structure takes its verdict on the
    generator triples; later residuals, and check_jacobi, read the kept
    verdict, and no residual after the first builds a left factor."""
    loops, built = [], []
    check_triples = pva._check_triples

    def counting_loop(*args, **kwargs):
        loops.append(args)
        return check_triples(*args, **kwargs)

    class Counting(pva._LeftFactor):
        __slots__ = ()

        def __init__(self, f, H):
            built.append(f)
            super().__init__(f, H)
    monkeypatch.setattr(pva, "_check_triples", counting_loop)
    monkeypatch.setattr(pva, "_LeftFactor", Counting)
    H = LambdaBracketStruct(_vir_heis_op(ALG2))
    rng = random.Random(18)
    for i in range(4):
        built.clear()
        f, g, h = (rnd_diffpoly(rng, ALG2) for _ in range(3))
        assert jacobi_residual(H, f, g, h).is_zero()
        assert len(loops) == 1
        assert (len(built) > 0) == (i == 0)
    assert check_jacobi(H) == (True, None) and len(loops) == 1


@settings(max_examples=30, deadline=None)
@given(data=st.data(), alg=st.sampled_from([ALG, ALG2]))
def test_non_skewadjoint_residual_equals_reference(data, alg):
    """A quasiconstant H that is not skewadjoint has an ok verdict from
    check_jacobi(H, require_skew=False), and its residual still equals the
    reference: the zero shortcut needs skewsymmetry."""
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    H = LambdaBracketStruct(rnd_mat_op(rng, alg, alg.nvars, 2,
                                       quasiconstant=True))
    assume(not check_skewadjoint(H))
    assert check_jacobi(H, require_skew=False) == (True, None)
    f, g, h = _elements(data.draw, alg, 3, max_degree=2)
    assert jacobi_residual(H, f, g, h) == jacobi_residual_reference(H, f, g,
                                                                    h)


@settings(max_examples=20, deadline=None)
@given(data=st.data(), alg=st.sampled_from([ALG, ALG2]))
def test_compatibility_residual_equals_reference(data, alg):
    """Left factors per structure and element, inner and outer, give the
    reference six-term expression term for term."""
    H = data.draw(bracket_structs(alg))
    K = data.draw(bracket_structs(alg))
    f, g, h = _elements(data.draw, alg, 3, max_degree=1)
    assert compatibility_residual(H, K, f, g, h) == \
        compatibility_residual_reference(H, K, f, g, h)


def test_bracket_size_must_match_algebra():
    """A bracket on l variables is an l x l operator."""
    d2 = ScalarDiffOp.d(ALG2)
    with pytest.raises(ShapeMismatch):
        LambdaBracketStruct(MatDiffOp(ALG2, [[d2]]))
    with pytest.raises(ShapeMismatch):
        LambdaBracketStruct(MatDiffOp(ALG2, [[d2, d2]]))
    with pytest.raises(ShapeMismatch):
        LambdaBracketStruct.from_scalar_op(d2)


def test_ev_apply():
    up = ALG.jet(1, 1)
    X = EvVectorField([U])
    assert ev_apply(X, up) == up
    assert ev_apply(EvVectorField([U * U]), U) == U * U
    rng = random.Random(14)
    for _ in range(6):
        P = EvVectorField([rnd_diffpoly(rng, ALG)])
        f = rnd_diffpoly(rng, ALG)
        assert ev_apply(P, f.derive()) == ev_apply(P, f).derive()


def test_ev_commutator():
    up = ALG.jet(1, 1)
    assert ev_commutator(EvVectorField([U]), EvVectorField([up])).is_zero()
    e = ev_commutator(EvVectorField([U * U]), EvVectorField([U]))
    assert e.P[0] == -(U * U)
    P = EvVectorField([U * up])
    assert ev_commutator(P, P).is_zero()


def test_ad_field_on_operator():
    zero = EvVectorField([ALG.zero])
    assert ad_field_on_operator(zero, GFZ).is_zero()
    res = ad_field_on_operator(EvVectorField([U]), GFZ)
    assert res == MatDiffOp(ALG, [[ScalarDiffOp(ALG, {1: ALG.one * (-2)})]])
    X = hamiltonian_vf(LocalFunctional(U ** 3 / 2), GFZ)
    assert ad_field_on_operator(X, GFZ).is_zero()


def test_hamiltonian_fields_preserve_bracket_random():
    rng = random.Random(15)
    for _ in range(5):
        h = rnd_diffpoly(rng, ALG, max_order=1, terms=2)
        X = hamiltonian_vf(LocalFunctional(h), GFZ)
        assert ad_field_on_operator(X, GFZ).is_zero()


def test_hamiltonian_vf_kdv():
    c = ALG.param("c")
    kdv = U * U.derive() * 3 + c * ALG.jet(1, 3)
    h0 = LocalFunctional(U * U / 2)
    h1 = LocalFunctional((U ** 3 + c * U * ALG.jet(1, 2)) / 2)
    assert hamiltonian_vf(h0, MAGRI).P[0] == kdv
    assert hamiltonian_vf(h1, GFZ).P[0] == kdv
    const = LocalFunctional(ALG.from_scalar(ALG.field.rational(5)))
    assert hamiltonian_vf(const, MAGRI).is_zero()


def test_poisson_bracket():
    h0 = LocalFunctional(U * U / 2)
    assert poisson_bracket(h0, h0, GFZ).is_zero()
    assert poisson_bracket(LocalFunctional(U), h0, GFZ).is_zero()
    c = ALG.param("c")
    h1 = LocalFunctional((U ** 3 + c * U * ALG.jet(1, 2)) / 2)
    assert poisson_bracket(h0, h1, GFZ).is_zero()
    assert poisson_bracket(h0, h1, MAGRI).is_zero()


def test_poisson_bracket_skewsymmetry():
    rng = random.Random(16)
    for _ in range(5):
        f = LocalFunctional(rnd_diffpoly(rng, ALG, terms=2))
        g = LocalFunctional(rnd_diffpoly(rng, ALG, terms=2))
        lhs = poisson_bracket(f, g, MAGRI)
        rhs = poisson_bracket(g, f, MAGRI)
        assert functional_eq(lhs, LocalFunctional(-rhs.representative))


def test_poisson_bracket_jacobi_on_functionals():
    monos = [LocalFunctional(U ** 2), LocalFunctional(U ** 3),
             LocalFunctional(U * ALG.jet(1, 1) ** 2)]
    for f in monos:
        for g in monos:
            for h in monos:
                t1 = poisson_bracket(f, poisson_bracket(g, h, GFZ), GFZ)
                t2 = poisson_bracket(g, poisson_bracket(f, h, GFZ), GFZ)
                t3 = poisson_bracket(poisson_bracket(f, g, GFZ), h, GFZ)
                total = t1.representative - t2.representative - \
                    t3.representative
                assert functional_eq(LocalFunctional(total),
                                     LocalFunctional(ALG.zero))
