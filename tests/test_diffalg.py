import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from varpois import (DiffAlgebra, LocalFunctional, NotExact, UndecidableResidue,
                     antiderivative_in_v, frechet, functional_eq, higher_euler,
                     is_exact_1form, is_total_derivative, reconstruct_density,
                     variational_derivative)
from varpois.complexes import SkewArray, reduce_closed
from varpois.diffalg import DiffRat, format_diff_poly
from varpois.diffop import MatDiffOp, ScalarDiffOp

from helpers import (coefficient, de_rham_delta, diffpolys,
                     functional_eq_reference, rnd_diffpoly)

ALG1 = DiffAlgebra(1)
ALG1C = DiffAlgebra(1, ["c"])
ALG2 = DiffAlgebra(2)
ALG2C = DiffAlgebra(2, ["c"])


@pytest.fixture
def alg():
    return DiffAlgebra(1, ["c"])


def test_total_derivative_examples(alg):
    u = alg.jet(1)
    assert alg.x().derive() == alg.one
    assert u.derive() == alg.jet(1, 1)
    assert (u * u / 2).derive() == u * alg.jet(1, 1)


def test_total_derivative_leibniz_random(alg):
    rng = random.Random(2)
    for _ in range(10):
        f = rnd_diffpoly(rng, alg)
        g = rnd_diffpoly(rng, alg)
        assert (f * g).derive() == f.derive() * g + f * g.derive()


def test_jet_partial_examples(alg):
    u, up = alg.jet(1), alg.jet(1, 1)
    assert (u * up).jet_partial(1, 1) == u
    assert (alg.x() ** 3).jet_partial(1, 0).is_zero()


def test_jet_partial_commutator(alg):
    """[d/du^(n), d] = d/du^(n-1) on random elements."""
    rng = random.Random(3)
    for _ in range(10):
        f = rnd_diffpoly(rng, alg, max_order=2)
        for n in (1, 2):
            lhs = f.derive().jet_partial(1, n) - f.jet_partial(1, n).derive()
            assert lhs == f.jet_partial(1, n - 1)


def test_variational_derivative_examples(alg):
    u = alg.jet(1)
    c = alg.param("c")
    assert variational_derivative(u * u / 2)[0] == u
    f = (u ** 3 + c * u * alg.jet(1, 2)) / 2
    assert variational_derivative(f)[0] == \
        u * u * Fraction(3, 2) + c * alg.jet(1, 2)


def test_variational_derivative_kills_derivatives(alg):
    rng = random.Random(4)
    for _ in range(12):
        f = rnd_diffpoly(rng, alg, with_x=True)
        assert all(g.is_zero()
                   for g in variational_derivative(f.derive()))


def test_higher_euler(alg):
    u, up = alg.jet(1), alg.jet(1, 1)
    assert coefficient(higher_euler(u, 1), (0,)) == alg.one
    e = higher_euler(u * up, 1)
    assert coefficient(e, (1,)) == -u and coefficient(e, (0,)).is_zero()
    # evaluation at lambda = 0 recovers the variational derivative
    e3 = higher_euler(u ** 3, 1)
    assert coefficient(e3, (0,)) == variational_derivative(u ** 3)[0]
    rng = random.Random(9)
    for _ in range(8):
        f = rnd_diffpoly(rng, alg)
        assert coefficient(higher_euler(f, 1), (0,)) == \
            variational_derivative(f)[0]


def test_functional_eq_undecidable(alg):
    """Residues whose integrability branches on parameters are surfaced."""
    w = alg.from_scalar(alg.field.param("c") / alg.field.x)
    with pytest.raises(UndecidableResidue):
        functional_eq(LocalFunctional(w), LocalFunctional(alg.zero))


def test_frechet_examples(alg):
    u = alg.jet(1)
    c = alg.param("c")
    d1 = frechet([u])
    assert d1 == MatDiffOp.from_constant(alg, [[1]])
    g = [u * u * Fraction(3, 2) + c * alg.jet(1, 2)]
    d2 = frechet(g)
    assert (d2 - d2.adjoint()).is_zero()
    d3 = frechet([alg.jet(1, 1)])
    assert not (d3 - d3.adjoint()).is_zero()


def test_is_exact_1form(alg):
    u = alg.jet(1)
    c = alg.param("c")
    assert is_exact_1form([u])
    assert is_exact_1form([u * u * Fraction(3, 2) + c * alg.jet(1, 2)])
    assert not is_exact_1form([alg.jet(1, 1)])


def test_reconstruct_density(alg):
    u = alg.jet(1)
    c = alg.param("c")
    h = reconstruct_density([u])
    assert functional_eq(LocalFunctional(h), LocalFunctional(u * u / 2))
    g = [u * u * Fraction(3, 2) + c * alg.jet(1, 2)]
    h2 = reconstruct_density(g)
    target = (u ** 3 + c * u * alg.jet(1, 2)) / 2
    assert functional_eq(LocalFunctional(h2), LocalFunctional(target))
    with pytest.raises(NotExact, match="not a variational gradient") as err:
        reconstruct_density([alg.jet(1, 1)])
    # F = u': D_F = d, so D_F - D_F* = 2 d
    two_d = MatDiffOp.scalar(ScalarDiffOp.d(alg).scale(2))
    assert (err.value.witness - two_d).is_zero()


def test_reconstruct_roundtrip_random(alg):
    rng = random.Random(5)
    for _ in range(10):
        h = rnd_diffpoly(rng, alg)
        grad = list(variational_derivative(h))
        assert is_exact_1form(grad)
        h2 = reconstruct_density(grad)
        assert list(variational_derivative(h2)) == grad


@settings(max_examples=80, deadline=None)
@given(data=st.data(), alg=st.sampled_from([ALG1C, ALG2]),
       exact=st.booleans())
def test_homotopy_verdict_equals_the_frechet_criterion(data, alg, exact):
    """reconstruct_density accepts F, by delta h = F for its homotopy
    density h, exactly when D_F is selfadjoint (is_exact_1form): for
    F = delta h0 of a random h0, and for a random F, mostly not exact."""
    polys = diffpolys(alg, max_order=2, max_degree=3, with_x=True)
    if exact:
        F = list(variational_derivative(data.draw(polys)))
    else:
        F = [data.draw(polys) for _ in range(alg.nvars)]
    try:
        h = reconstruct_density(F)
    except NotExact:
        assert not is_exact_1form(F)
    else:
        assert is_exact_1form(F)
        assert list(variational_derivative(h)) == F


def test_reconstruct_against_homotopy_reduction(alg):
    """The reduction chain at K = identity lands in the same coset."""
    rng = random.Random(6)
    KI = MatDiffOp.identity(alg, 1)
    for _ in range(5):
        h = rnd_diffpoly(rng, alg, max_order=1)
        grad = list(variational_derivative(h))
        h1 = reconstruct_density(grad)
        lift = de_rham_delta(SkewArray.from_function(alg, h1))
        Q, R = reduce_closed(lift, KI)
        assert R.is_zero()
        qval = Q.entries.get((), None)
        q = qval.as_diffpoly() if qval is not None else alg.zero
        assert (q - h1).is_quasiconstant()


def test_functional_eq(alg):
    u, up = alg.jet(1), alg.jet(1, 1)
    zero = LocalFunctional(alg.zero)
    assert functional_eq(LocalFunctional(u * up), zero)
    assert not functional_eq(LocalFunctional(u), zero)
    assert functional_eq(LocalFunctional(alg.x()), zero)


def test_antiderivative_in_v(alg):
    rng = random.Random(8)
    for _ in range(10):
        g = rnd_diffpoly(rng, alg, with_x=True)
        f = g.derive()
        v = antiderivative_in_v(f)
        assert (v.derive() - f).is_zero()
    assert is_total_derivative((alg.jet(1) * alg.jet(1, 1)).derive())
    assert not is_total_derivative(alg.jet(1))


def test_printing_terms_sorted(alg):
    u = alg.jet(1)
    s = format_diff_poly(u ** 2 + u.derive() + alg.one)
    assert s.index("u'") < s.index("1")


def test_antiderivative_in_v_two_components():
    """Non-exact products of two components raise NotExact as soon as the
    top jet's coefficient reaches past the antiderivative's top jet;
    integrating u1'u2' by parts regardless cycles u1'u2' -> -u1''u2 ->
    u1'u2'."""
    u1p, u2p = ALG2.jet(1, 1), ALG2.jet(2, 1)
    for f in (u1p * u2p, ALG2.jet(1, 2) * u2p, ALG2.jet(2, 2) * u1p,
              ALG2.jet(1, 2) * ALG2.jet(2, 2)):
        with pytest.raises(NotExact, match="beyond its antiderivative"):
            antiderivative_in_v(f)
        assert not is_total_derivative(f)
    rng = random.Random(11)
    for _ in range(10):
        f = rnd_diffpoly(rng, ALG2, with_x=True).derive()
        assert (antiderivative_in_v(f).derive() - f).is_zero()


def _residues(field):
    """Quasiconstant residues: integrable, not integrable, and (with the
    parameter c) integrable only for some values of c."""
    x, one = field.x, field.one
    out = [field.zero, one, x, one / x, one / (x * x), one / (x * x + 1)]
    if field.params:
        c = field.param("c")
        out += [c * x, c / x, c / (x * x + 1), (c - 1) / x]
    return out


def _outcome(eq, a, b):
    try:
        return eq(a, b)
    except UndecidableResidue:
        return "undecidable"


@settings(max_examples=80, deadline=None)
@given(data=st.data(), alg=st.sampled_from([ALG1, ALG1C, ALG2, ALG2C]))
def test_functional_eq_matches_reference(data, alg):
    """Integration by parts decides V/dV exactly as the variational
    derivative followed by the residue test, UndecidableResidue included."""
    a = data.draw(diffpolys(alg, with_x=True))
    exact = data.draw(diffpolys(alg, with_x=True)).derive()
    noise = data.draw(st.one_of(st.just(alg.zero),
                                diffpolys(alg, max_terms=1)))
    residue = alg.from_scalar(data.draw(st.sampled_from(
        _residues(alg.field))))
    A, B = LocalFunctional(a), LocalFunctional(a + exact + noise + residue)
    got = _outcome(functional_eq, A, B)
    assert got == _outcome(functional_eq_reference, A, B)
    if got is True:
        w = B.representative - A.representative
        assert (antiderivative_in_v(w).derive() - w).is_zero()


def test_undecidable_residue_in_both_paths():
    c, x = ALG2C.field.param("c"), ALG2C.field.x
    w = ALG2C.from_scalar(c / x) + (ALG2C.jet(1) * ALG2C.jet(2, 1)).derive()
    for eq in (functional_eq, functional_eq_reference):
        with pytest.raises(UndecidableResidue):
            eq(LocalFunctional(w), LocalFunctional(ALG2C.zero))


def test_diffrat_cancels_a_common_factor_of_jets():
    """(u' + u'') u'' / (u' + u''): the factor cancels, and den = u' + u''
    stays over u''' + (u' + u'') u'', which it does not divide."""
    u = ALG1.jet
    den = u(1, 1) + u(1, 2)
    q = DiffRat(den * u(1, 2), den)
    assert q.den == ALG1.one and q.num == u(1, 2)
    r = DiffRat(den * u(1, 2) + u(1, 3), den)
    assert r.den == den and r.num == den * u(1, 2) + u(1, 3)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), alg=st.sampled_from([ALG1, ALG1C, ALG2]))
def test_diffrat_of_a_multiple(data, alg):
    """den * q / den gives q back, also over den squared, with field
    coefficients in x and c."""
    den = data.draw(diffpolys(alg, max_order=2, max_degree=2, max_terms=3,
                              with_x=True))
    q = data.draw(diffpolys(alg, max_order=2, max_degree=2, max_terms=3,
                            with_x=True))
    if den.is_zero():
        return
    rat = DiffRat(den * q, den)
    assert rat.den == alg.one and rat.num == q
    rat = DiffRat(den * q * den, den * den)
    assert rat.den == alg.one and rat.num == q


def _sympy_poly(p):
    """A DiffPoly with polynomial coefficients as a sympy expression in x,
    the parameters and one symbol per jet variable."""
    out = 0
    for mono, c in p.terms.items():
        term = c.f.as_expr()
        for (n, i), e in mono:
            term *= sympy.Symbol(f"u{i}_{n}") ** e
        out += term
    return sympy.expand(out)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), alg=st.sampled_from([ALG1, ALG1C, ALG2]))
def test_diffrat_is_in_lowest_terms(data, alg):
    """DiffRat(a g, b g) equals DiffRat(a, b), and the stored num and den
    share no non-constant factor (sympy's gcd)."""
    def draw(terms=3):
        return data.draw(diffpolys(alg, max_order=2, max_degree=2,
                                   max_terms=terms, with_x=True))
    a, b, g = draw(), draw(), draw(2)
    assume(not b.is_zero() and not g.is_zero())
    want, got = DiffRat(a, b), DiffRat(a * g, b * g)
    assert got == want
    for r in (want, got):
        if r.den != alg.one:
            common = sympy.gcd(_sympy_poly(r.num), _sympy_poly(r.den))
            assert not common.free_symbols, (r, common)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), alg=st.sampled_from([ALG1, ALG1C, ALG2]),
       shared=st.booleans())
def test_diffrat_sums_match_cross_multiplication(data, alg, shared):
    """a + b and a - b equal (a.num*b.den +- b.num*a.den)/(a.den*b.den);
    over a shared denominator the sum's denominator divides it instead of
    being its square."""
    def draw():
        return data.draw(diffpolys(alg, max_order=2, max_degree=2,
                                   max_terms=3, with_x=True))
    den = draw()
    other = den if shared else draw()
    assume(not den.is_quasiconstant() and not other.is_zero())
    a, b = DiffRat(draw(), den), DiffRat(draw(), other)
    for got, ref_num in ((a + b, a.num * b.den + b.num * a.den),
                         (a - b, a.num * b.den - b.num * a.den)):
        assert got == DiffRat(ref_num, a.den * b.den)
        if a.den == b.den:
            assert DiffRat(a.den, got.den).den == alg.one
