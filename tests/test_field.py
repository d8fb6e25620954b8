import random
import signal
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import QQ, ZZ, Mul, Symbol, cancel, gcd_list, lcm_list
from sympy.polys.fields import field as sympy_field
from sympy.polys.polyerrors import HeuristicGCDFailed
from sympy.polys.rings import ring as sympy_ring

from varpois import (CoefficientField, DiffAlgebra, DiffPoly,
                     InvariantViolation, UndecidableResidue, parse_session,
                     rational_antiderivative)
from varpois import field as field_module
from varpois import zpoly
from varpois.field import (FRAC, POLY, RAT, _cancel, _exquo, _format_poly,
                           _from_terms, _gcd, _lcm, _primitive_parts,
                           _reduced, _unflat, clear_denominators, dot,
                           format_field_elem, x_coefficients)
from varpois.zpoly import Poly, Rational, divrem, ground

from helpers import diffpolys, field_elems, rnd_field_elem, x_degree


@pytest.fixture
def F():
    return CoefficientField(["c"])


def test_field_arithmetic_exact(F):
    """(a/b)*(b/a) = 1 for nonzero a, b."""
    rng = random.Random(1)
    for _ in range(20):
        a = rnd_field_elem(rng, F)
        b = rnd_field_elem(rng, F)
        if a.is_zero() or b.is_zero():
            continue
        assert ((a / b) * (b / a)).is_one()


def test_derivation(F):
    x, c = F.x, F.param("c")
    assert x.derive().is_one()
    assert c.derive().is_zero()
    q = (x ** 2 + c) / (x - 1)
    # quotient rule against direct expansion
    num, den = x ** 2 + c, x - 1
    assert q.derive() == (num.derive() * den - num * den.derive()) / den ** 2


def test_constants_detected(F):
    assert F.param("c").is_constant()
    assert not F.x.is_constant()
    assert (F.param("c") / (F.param("c") + 1)).is_constant()
    assert F.rational(3, 2).is_rational_number()
    assert F.rational(3, 2).as_fraction() == Fraction(3, 2)


def test_polynomial_antiderivative(F):
    x = F.x
    a = rational_antiderivative(x ** 3 + x)
    assert a is not None and (a.derive() - (x ** 3 + x)).is_zero()


def test_proper_fraction_antiderivative(F):
    x = F.x
    a = rational_antiderivative(1 / x ** 2)
    assert a is not None and (a.derive() - 1 / x ** 2).is_zero()


def test_log_term_rejected(F):
    assert rational_antiderivative(1 / F.x) is None
    # residue visible only after Hermite reduction
    x = F.x
    assert rational_antiderivative((2 * x + 1) / (x ** 2 + 1) ** 2) is None


def test_parameter_branching_raises(F):
    with pytest.raises(UndecidableResidue):
        rational_antiderivative(F.param("c") / F.x)
    with pytest.raises(UndecidableResidue):
        rational_antiderivative(F.param("c") / (F.x + 2))


def test_log_coefficient_with_an_integer_numerator_is_rejected(F):
    """A log coefficient such as 1/c or 1/(c + 1) vanishes at no value of
    c, so the input has no antiderivative in F at any value: None."""
    x, c = F.x, F.param("c")
    for v in (1 / (c * x), (x ** 2 + 1) / (c * x), 1 / ((c + 1) * x)):
        assert rational_antiderivative(v) is None, v


HF = CoefficientField(["c"])


@settings(max_examples=40, deadline=None)
@given(field_elems(HF), field_elems(HF),
       st.sampled_from([HF.one, HF.rational(-2), HF.param("c")]),
       st.integers(1, 2))
def test_horowitz_solve_over_parameters(p, r, s, k):
    """g' for g = p/(x + s)^k + r/(x^2 + 1) has a repeated factor in its
    denominator, so the Horowitz system is solved over Q(c).  Adding
    t/(x + 2) leaves a logarithm: at every c for a nonzero rational t
    (None), and for t = c only at c != 0 (UndecidableResidue).  So the
    residue is read against a monic d1, also after the Hermite step."""
    x = HF.x
    g = p / (x + s) ** k + r / (x ** 2 + 1)
    v = g.derive()
    if v.is_zero():
        return
    a = rational_antiderivative(v)
    assert a is not None and a.derive() == v
    assert rational_antiderivative(v + 1 / (x + 2)) is None
    assert rational_antiderivative(v + HF.rational(-2, 3) / (x + 2)) is None
    with pytest.raises(UndecidableResidue):
        rational_antiderivative(v + HF.param("c") / (x + 2))


def test_antiderivative_roundtrip_random(F):
    rng = random.Random(7)
    found = 0
    for _ in range(40):
        v = rnd_field_elem(rng, F) * rnd_field_elem(rng, F)
        den = F.x ** rng.randint(0, 2) + rng.randint(1, 3)
        v = v / den
        try:
            a = rational_antiderivative(v)
        except UndecidableResidue:
            continue
        if a is not None:
            found += 1
            assert (a.derive() - v).is_zero()
    assert found > 5


def test_printing_roundtrip(F):
    x, c = F.x, F.param("c")
    v = (3 * x ** 2 - c * x + Fraction(1, 2)) / (x + c)
    s = format_field_elem(v)
    assert "x" in s and "c" in s


def test_horowitz_invariant_is_a_named_error(F, monkeypatch):
    """A broken invariant raises InvariantViolation, which python -O keeps:
    here a gcd of x^2 and 2x that does not divide x^2."""
    monkeypatch.setattr(field_module, "_gcd",
                        lambda a, b: Poly({(1, 0): 1, (0, 0): 1}))
    with pytest.raises(InvariantViolation, match="does not divide"):
        rational_antiderivative(F.one / (F.x * F.x))


# -- the tiers against plain sympy FracField arithmetic -----------------------

class Twin:
    """A CoefficientField beside plain sympy FracField arithmetic over Q on
    the same generators (x first), and a session over the same field."""

    def __init__(self, *params):
        self.field = CoefficientField(params)
        self.ref, *self.gens = sympy_field(",".join(("x",) + params), QQ)
        self.session = parse_session(
            "vars 1\n" + (f"params {' '.join(params)}\n" if params else ""))

    def elem_gens(self):
        return (self.field.x,) + tuple(map(self.field.param, self.field.params))


C0 = Twin()
C1 = Twin("c")
C2 = Twin("a", "b")
TWINS = {T.field.params: T for T in (C0, C1, C2)}
TIER_NAMES = {RAT: "rat", POLY: "poly", FRAC: "frac"}


def ref_tier(r) -> int:
    """The lowest tier that holds the sympy fraction r."""
    if not r.denom.is_ground:
        return FRAC
    return RAT if r.numer.is_ground else POLY


def ref_format(r, T) -> str:
    """The printed form of a canonical sympy fraction: numerator over
    denominator, the numerator parenthesized unless it is one term with no
    sign, the denominator unless it is an integer or a bare power."""
    ns = _format_poly(T.field, r.numer)
    if r.denom == r.denom.ring.one:
        return ns
    ds = _format_poly(T.field, r.denom)
    if len(r.numer.terms()) > 1 or ns.startswith("-"):
        ns = f"({ns})"
    (mono, coeff), *rest = r.denom.terms()
    bare = not rest and (not any(mono) or
                         coeff == 1 and sum(e > 0 for e in mono) == 1)
    return f"{ns}/{ds if bare else f'({ds})'}"


def from_ref(r, T):
    """Rebuild r term by term from the generators and rationals: a second
    route to the same value."""
    F = T.field

    def poly(p):
        out = F.zero
        for mono, q in p.terms():
            t = F.rational(int(q.numerator), int(q.denominator))
            for g, e in zip(T.elem_gens(), mono):
                t = t * g ** e
            out = out + t
        return out
    return poly(r.numer) / poly(r.denom)


@st.composite
def monomials(draw, T, nonzero=False):
    """(FieldElem, sympy) pairs for q*x^i*p_1^j_1*... with a small rational
    q; the exponent of x is at most 2, of each parameter at most 1."""
    q = Fraction(draw(st.integers(1, 3) if nonzero else st.integers(-3, 3)),
                 draw(st.sampled_from([1, 2, 3])))
    v, r = T.field.rational(q), T.ref(QQ(q.numerator, q.denominator))
    for k, (g, rg) in enumerate(zip(T.elem_gens(), T.gens)):
        e = draw(st.integers(0, 2 if k == 0 else 1))
        v, r = v * g ** e, r * rg ** e
    return v, r


@st.composite
def small_polys(draw, T, nonconstant=False):
    """(FieldElem, sympy) pairs for a polynomial in x and the parameters
    with a few small rational coefficients."""
    v, r = T.field.zero, T.ref.zero
    for _ in range(draw(st.integers(1, 3))):
        tv, tr = draw(monomials(T))
        v, r = v + tv, r + tr
    if nonconstant and r.numer.is_ground:
        v, r = v + T.field.x, r + T.gens[0]
    return v, r


@st.composite
def tiered(draw, T, tier):
    """An operand of the given tier, with its sympy twin."""
    if tier == RAT:
        q = Fraction(draw(st.integers(-4, 4)), draw(st.sampled_from([1, 2, 3])))
        return T.field.rational(q), T.ref(QQ(q.numerator, q.denominator))
    num = draw(small_polys(T, nonconstant=(tier == POLY)))
    if tier == POLY:
        return num
    den = draw(small_polys(T, nonconstant=True))
    if num[1] == 0:
        num = T.field.one, T.ref.one
    return num[0] / den[0], num[1] / den[1]


def zz_ring(n):
    """sympy's Z[x, ...] in n generators, the reference ring."""
    return sympy_ring(",".join(("x", "c", "y1", "y2", "y3")[:n]), ZZ)[0]


ZZ_RINGS = {n: zz_ring(n) for n in (1, 2, 3, 4)}


def to_sympy(p, n):
    if type(p) is zpoly._Dense:
        p = zpoly._sparse(p)
    return ZZ_RINGS[n].from_dict(dict(p))


def stored_terms(v, p) -> dict:
    """The terms of a polynomial stored by v's field, which is a dense
    coefficient list exactly when the field has no parameters."""
    want = Poly if v.field.params else zpoly._Dense
    assert type(p) is want, (type(p), want)
    return field_module._terms(v.field, p)


def check_stored_over_zz(v):
    """A fraction is stored over Z: numerator and denominator integral,
    coprime (sympy's gcd), of joint content 1, with a positive leading
    coefficient below."""
    num, den = v._v.numer, v._v.denom
    n = len(v.field.params) + 1
    coeffs = list(chain(stored_terms(v, num).values(),
                        stored_terms(v, den).values()))
    assert all(type(c) is int for c in coeffs)
    assert reduce(gcd, coeffs) == 1, (num, den)
    assert to_sympy(num, n).gcd(to_sympy(den, n)) == 1, (num, den)
    assert den.LC > 0, (num, den)


def check_poly_stored_over_zz(v):
    """A polynomial is stored as P/m: P with integer coefficients, m a
    positive int, gcd(content P, m) = 1."""
    P, m = v._v.P, v._v.m
    coeffs = stored_terms(v, P).values()
    assert all(type(c) is int for c in coeffs), P
    assert type(m) is int and m >= 1, m
    assert reduce(gcd, coeffs, m) == 1, (P, m)


def check_same(v, r):
    """v is the value r, stored in its lowest tier and printed as before."""
    T = TWINS[v.field.params]
    if v._k == FRAC:
        check_stored_over_zz(v)
    elif v._k == POLY:
        check_poly_stored_over_zz(v)
    assert v.f == r and v.f.numer == r.numer and v.f.denom == r.denom
    assert v._k == ref_tier(r), (TIER_NAMES[v._k], r)
    assert format_field_elem(v) == ref_format(r, T)
    assert v.is_zero() == (not r)
    assert v.is_one() == (r == T.ref.one)
    assert v.is_rational_number() == (ref_tier(r) == RAT)
    assert v.is_constant() == (r.diff(T.gens[0]) == 0 or
                               all(m[0] == 0 for m in r.numer.monoms()) and
                               all(m[0] == 0 for m in r.denom.monoms()))
    if r:
        assert x_degree(v) == (r.numer.degree(0) - r.denom.degree(0))
    w = from_ref(r, T)
    assert w == v and hash(w) == hash(v) and w._k == v._k


tiers = st.sampled_from([RAT, POLY, FRAC])


def check_tier_pair(data, T, ta, tb):
    a, ra = data.draw(tiered(T, ta))
    b, rb = data.draw(tiered(T, tb))
    check_same(a, ra)
    check_same(b, rb)
    check_same(a + b, ra + rb)
    check_same(a - b, ra - rb)
    check_same(b - a, rb - ra)
    check_same(a * b, ra * rb)
    check_same(-a, -ra)
    check_same(a.derive(), ra.diff(T.gens[0]))
    if rb:
        check_same(a / b, ra / rb)
    else:
        with pytest.raises(ZeroDivisionError):
            a / b
    n = data.draw(st.integers(-2, 3))
    if n == 0:
        check_same(a ** n, T.ref.one)
    elif n > 0:
        check_same(a ** n, ra ** n)
    elif ra:
        check_same(a ** n, T.ref.one / ra ** -n)
    else:
        with pytest.raises(ZeroDivisionError):
            a ** n
    assert (a == b) == (ra == rb)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), ta=tiers, tb=tiers)
def test_tiers_match_sympy_fracfield(data, ta, tb):
    """Every op on every tier pair agrees with sympy FracField arithmetic,
    and lands in the lowest tier that can hold its value."""
    check_tier_pair(data, C1, ta, tb)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), ta=tiers, tb=tiers)
def test_tiers_match_sympy_fracfield_two_params(data, ta, tb):
    """The same over Q(a, b)(x)."""
    check_tier_pair(data, C2, ta, tb)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), ta=tiers, tb=tiers)
def test_tiers_match_sympy_fracfield_no_params(data, ta, tb):
    """The same over Q(x), whose one-generator gcds run on dense lists."""
    check_tier_pair(data, C0, ta, tb)


python_numbers = st.one_of(st.integers(-3, 3),
                           st.builds(Fraction, st.integers(-3, 3),
                                     st.integers(1, 3)))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), T=st.sampled_from([C0, C1, C2]), ta=tiers,
       k=python_numbers)
def test_tiers_with_python_numbers(data, T, ta, k):
    """int and Fraction operands on either side, and equality with them."""
    a, ra = data.draw(tiered(T, ta))
    rk = T.ref(QQ(Fraction(k).numerator, Fraction(k).denominator))
    check_same(a + k, ra + rk)
    check_same(k + a, ra + rk)
    check_same(a - k, ra - rk)
    check_same(k - a, rk - ra)
    check_same(a * k, ra * rk)
    check_same(k * a, ra * rk)
    if k:
        check_same(a / k, ra / rk)
    if ra:
        check_same(k / a, rk / ra)
    assert (a == k) == (ra == rk)
    if a == k:
        assert a.as_fraction() == k


def _fold(field, triples):
    """sum a*b*k by the operators, one cancellation per step."""
    out = field.zero
    for a, b, k in triples:
        out = out + a * b * k
    return out


def check_dot(T, triples, want):
    """dot agrees with the fold of * and + (stored form, tier and hash),
    with the sympy value want, and runs at most one polynomial gcd."""
    gcds = []
    cofactors = field_module.cofactors

    def counted(f, g):
        gcds.append(1)
        return cofactors(f, g)
    field_module.cofactors = counted
    try:
        v = dot(T.field, triples)
    finally:
        field_module.cofactors = cofactors
    assert len(gcds) <= 1
    fold = _fold(T.field, triples)
    assert v == fold and v._k == fold._k and hash(v) == hash(fold)
    check_same(v, want)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), T=st.sampled_from([C0, C1]),
       pairs=st.lists(st.tuples(tiers, tiers), max_size=5))
def test_dot_equals_the_fold_of_products(data, T, pairs):
    """dot(triples) is the sum of a*b*k over every tier pair (RAT, POLY,
    FRAC), over Q(x) and Q(c)(x), with k from -3 to 3, and equals the sum
    taken one product and one addition at a time."""
    triples, want = [], T.ref.zero
    for ta, tb in pairs:
        a, ra = data.draw(tiered(T, ta))
        b, rb = data.draw(tiered(T, tb))
        k = data.draw(st.integers(-3, 3))
        triples.append((a, b, k))
        want += ra * rb * k
    check_dot(T, triples, want)


@pytest.mark.parametrize("T", [C0, C1], ids=["Q(x)", "Q(c)(x)"])
def test_dot_examples(T):
    """The empty sum, k != 1, sums that cancel to zero and sums that drop
    from fractions to a polynomial or a rational."""
    F, x = T.field, T.gens[0]
    X, half = F.x, F.rational(1, 2)
    f, g = 1 / (X + 1), X / (X - 2)
    rf, rg = 1 / (x + 1), x / (x - 2)
    check_dot(T, [], T.ref.zero)
    assert dot(F, [])._k == RAT
    check_dot(T, [(f, g, 3), (half, X, -4)], 3 * rf * rg - 2 * x)
    check_dot(T, [(f, g, 2), (g, f, -2)], T.ref.zero)
    check_dot(T, [(f, X + 1, 1), (half, F.rational(2), -1)], T.ref.zero)
    check_dot(T, [(f, X * X + X, 2), (g, X - 2, 1)], 3 * x)
    check_dot(T, [(f, X + 1, 5), (X / 3, X, 0)], T.ref(5))
    check_dot(T, [(f, f, 1), (f, -f, 1), (X / 2, X / 3, 6), (X, X, -1)],
              T.ref.zero)


def test_dot_flips_the_sign_of_the_cancelled_denominator(monkeypatch):
    """A gcd over Z is unique up to sign: where cofactors returns the
    negated gcd, the cancelled denominator of the total has a negative
    leading coefficient, and dot flips both parts to the canonical form."""
    for T in (C0, C1):
        F, x = T.field, T.gens[0]
        X = F.x
        triples = [(1 / (X + 1), X, 1), (1 / (X - 1), F.one, 2)]
        want = _fold(F, triples)
        cofactors = field_module.cofactors
        monkeypatch.setattr(field_module, "cofactors", lambda f, g: tuple(
            -p for p in cofactors(f, g)))
        v = dot(F, triples)
        monkeypatch.undo()
        assert v == want and v._v.denom.LC > 0
        check_same(v, x / (x + 1) + 2 / (x - 1))


def test_polynomials_are_reduced_over_their_integer_denominator():
    """P/m is kept in lowest terms: sums, derivatives and products that
    cancel part of m (or all of it, or the polynomial) land in the lowest
    tier with the reduced pair."""
    F, (x, c) = C1.field, C1.gens
    X, cc = F.x, F.param("c")
    half, third = F.rational(1, 2), F.rational(1, 3)
    check_same(X / 6 + X / 3, x / 2)
    assert (X / 6 + X / 3)._v.m == 2
    check_same((X ** 3 / 3).derive(), x ** 2)
    assert (X ** 3 / 3).derive()._v.m == 1
    check_same(F.rational(2, 3) * (3 * X / 2), x)
    assert (F.rational(2, 3) * (3 * X / 2))._v.m == 1
    v = (X + half) - X
    check_same(v, C1.ref(QQ(1, 2)))
    assert v._k == RAT
    check_same(X / 2 - X / 2, C1.ref.zero)
    assert (X / 2 - X / 2).is_zero()
    w = cc * X / 2
    check_same(w, c * x / 2)
    assert w._k == POLY and format_field_elem(w) == "x*c/2"
    assert hash(w) == hash(X * (cc * half)) and w == X * (cc * half)
    check_same((2 * X + 1) / 2 + half, x + 1)
    check_same((X + third) * 3, 3 * x + 1)


def test_one_term_denominators_are_parenthesized(F):
    x, c = F.x, F.param("c")
    assert format_field_elem(1 / (3 * x)) == "1/(3*x)"
    assert format_field_elem((x + 1) / (c * x)) == "(x + 1)/(x*c)"
    assert format_field_elem((x + 1) / (2 * c)) == "(x + 1)/(2*c)"
    assert format_field_elem(c / x ** 2) == "c/x^2"
    assert format_field_elem((x + 1) / 2) == "(x + 1)/2"


@settings(max_examples=100, deadline=None)
@given(data=st.data(), T=st.sampled_from([C0, C1, C2]), ta=tiers)
def test_printed_values_read_back(data, T, ta):
    """The session parser reads a printed value back as the same value,
    also over a one-term denominator such as 3*x or x*c."""
    v, _ = data.draw(tiered(T, ta))
    if data.draw(st.booleans()):
        v = v / data.draw(monomials(T, nonzero=True))[0]
    s = format_field_elem(v)
    assert T.session.evaluate(s) == T.session.alg.from_scalar(v), s


@settings(max_examples=60, deadline=None)
@given(data=st.data(), tiers_=st.lists(tiers, min_size=1, max_size=4))
def test_clear_denominators_matches_lcm_reference(data, tiers_):
    """D is sympy's lcm over Z of the denominators, so a repeated factor
    counts once; each v*D split by powers of x sums back to v*D."""
    F = C1.field
    pairs = [data.draw(tiered(C1, t)) for t in tiers_]
    if data.draw(st.booleans()):
        pairs.append(pairs[0])
    values = [v for v, _ in pairs]
    den = lcm_list([r.denom.as_expr() for _, r in pairs if r] or [1],
                   *(g.as_expr() for g in C1.gens), domain=ZZ)
    D, cleared = clear_denominators(values)
    check_same(D, C1.ref(den))
    for (v, r), p in zip(pairs, cleared):
        check_same(p, r * D.f)
        total = F.zero
        for k, c in x_coefficients(p).items():
            assert c.is_constant() and not c.is_zero()
            total = total + c * F.x ** k
        assert total == p
    with pytest.raises(ValueError):
        x_coefficients(F.one / (F.x + 1))


def test_clear_denominators_counts_a_repeated_factor_once(F):
    x = F.x
    D, cleared = clear_denominators([F.rational(k) / (2 * x + 1)
                                     for k in (1, 3, 5, 7)])
    assert D == 2 * x + 1
    assert cleared == [F.rational(k) for k in (1, 3, 5, 7)]
    D, _ = clear_denominators([1 / (2 * x + 1), 1 / ((2 * x + 1) * x),
                               F.rational(1, 2)])
    assert D == 2 * x * (2 * x + 1)


# -- dense storage on Q(x) against the sparse path -----------------------------

def stored_form(v) -> tuple:
    """(tier, stored value) with every polynomial read as its terms
    {(i, j): c} of x^i c^j, so a value of Q(x) and its embedding in
    Q(c)(x) compare directly."""
    def terms(p):
        return {m + (0,) * (2 - len(m)): c
                for m, c in field_module._terms(v.field, p).items()}
    if v._k == RAT:
        return RAT, v._v
    if v._k == POLY:
        return POLY, terms(v._v.P), v._v.m
    return FRAC, terms(v._v.numer), terms(v._v.denom)


def check_dense_like_sparse(v, w, r):
    """v over Q(x) is r and is stored as its embedding w in Q(c)(x) is,
    with every polynomial a dense coefficient list, never a Poly."""
    assert v.f == r
    assert stored_form(v) == stored_form(w), (v, w)
    if v._k == POLY:
        assert type(v._v.P) is zpoly._Dense
    elif v._k == FRAC:
        assert type(v._v.numer) is type(v._v.denom) is zpoly._Dense


@settings(max_examples=150, deadline=None)
@given(data=st.data(), ta=tiers, tb=tiers, n=st.integers(-2, 3))
def test_dense_storage_matches_the_sparse_path(data, ta, tb, n):
    """Every tier operation on random Q(x) values agrees with sympy and
    stores what the same values embedded in Q(c)(x) store on the sparse
    path: + - * /, pow, derive, x_coefficients, clear_denominators and
    rational_antiderivative."""
    (a, ra), (b, rb) = data.draw(tiered(C0, ta)), data.draw(tiered(C0, tb))
    A, B = from_ref(ra, C1), from_ref(rb, C1)
    check_dense_like_sparse(a, A, ra)
    check_dense_like_sparse(b, B, rb)
    check_dense_like_sparse(a + b, A + B, ra + rb)
    check_dense_like_sparse(a - b, A - B, ra - rb)
    check_dense_like_sparse(a * b, A * B, ra * rb)
    check_dense_like_sparse(a.derive(), A.derive(), ra.diff(C0.gens[0]))
    if rb:
        check_dense_like_sparse(a / b, A / B, ra / rb)
    if ra or n >= 0:
        one = C0.ref.one
        check_dense_like_sparse(a ** n, A ** n, one if n == 0 else ra ** n
                                if n > 0 else one / ra ** -n)
    if a._k != FRAC:
        coeffs, Coeffs = x_coefficients(a), x_coefficients(A)
        assert coeffs.keys() == Coeffs.keys()
        total = C0.ref.zero
        for k, c in coeffs.items():
            check_dense_like_sparse(c, Coeffs[k], c.f)
            total += c.f * C0.gens[0] ** k
        assert total == ra
    (D, cleared), (D1, cleared1) = (clear_denominators([a, b]),
                                    clear_denominators([A, B]))
    check_dense_like_sparse(D, D1, D.f)
    for p, p1, r in zip(cleared, cleared1, (ra, rb)):
        check_dense_like_sparse(p, p1, r * D.f)
    anti, anti1 = rational_antiderivative(a), rational_antiderivative(A)
    assert (anti is None) == (anti1 is None)
    if anti is not None:
        check_dense_like_sparse(anti, anti1, anti.f)
        assert anti.f.diff(C0.gens[0]) == ra


def test_rationals_use_only_the_ground_type_constructor(monkeypatch):
    """Rationals are built through the constructor Rational(p, q) that
    Fraction shares, and used only through the operators both have: with
    Fraction in its place the field computes the same values."""
    monkeypatch.setattr(field_module, "_Q", Fraction)
    F = CoefficientField(["c"])
    x, c = F.x, F.param("c")
    half = F.rational(3, 6)
    assert half.as_fraction() == Fraction(1, 2)
    assert F.rational(Fraction(-4, 6)).as_fraction() == Fraction(-2, 3)
    assert (half + Fraction(1, 3)).as_fraction() == Fraction(5, 6)
    assert (Fraction(1, 3) - half).as_fraction() == Fraction(-1, 6)
    assert format_field_elem(x * Fraction(2, 3) + c) == "(2*x + 3*c)/3"
    assert format_field_elem(Fraction(1, 2) / (x + c)) == "1/(2*x + 2*c)"
    assert (x ** -2 * x ** 2).is_one()


def test_equal_values_hash_equal(F):
    """Equal values built by different routes (a square and a product)
    hash equal."""
    x, c = F.x, F.param("c")
    for a, b in (((x - 1) ** 2, x * x - 2 * x + 1),
                 (((x + c) / (x - 1)) ** 2,
                  (x * x + 2 * c * x + c * c) / (x * x - 2 * x + 1))):
        assert a == b and hash(a) == hash(b)


ALG = DiffAlgebra(1, ["c"])


def rational_coefficients(c):
    """The rational coefficients of a RAT or POLY element, read over Q."""
    num, den = c.f.numer, c.f.denom
    return [q / den.LC for q in num.coeffs()]


def _as_expr(p: DiffPoly):
    """A differential polynomial as a sympy expression, one symbol per
    jet."""
    return sum((c.f.as_expr() * Mul(*(Symbol(f"u{n}_{i}") ** e
                                      for (n, i), e in mono))
                for mono, c in p.terms.items()), 0)


# The primitive-parts properties on two shapes: jet polynomials over Q(c)(x),
# and jet-free polynomials over Q(x), the shape of the rows of an echelon3
# job, whose extended ring has the one generator x.
JETS = diffpolys(ALG, max_order=1, max_degree=1, with_x=True)
ALG0 = DiffAlgebra(1)
JET_FREE = diffpolys(ALG0, max_degree=0, max_terms=4, with_x=True)


def check_divides_by_the_gcd(alg, common, start, polys):
    """For start = common*s and polys p_i = common*r_i: the factor times
    each quotient gives back p_i, the quotients have integer coefficients
    of gcd 1, and the factor is the gcd of start and the p_i (sympy's
    gcd_list) up to a rational."""
    polys = [p * common for p in polys if not (p * common).is_zero()]
    start = start * common
    if start.is_zero() or not polys:
        return
    factor, quotients = _primitive_parts(start.terms,
                                         [p.terms for p in polys])
    f = alg.one if factor is None else DiffPoly(alg, factor)
    for p, q in zip(polys, quotients):
        assert DiffPoly(alg, q) * f == p
    rationals = [r for q in quotients for c in q.values()
                 for r in rational_coefficients(c)]
    assert all(r.denominator == 1 for r in rationals)
    assert reduce(gcd, (int(r.numerator) for r in rationals), 0) == 1
    ref = gcd_list([_as_expr(start)] + [_as_expr(p) for p in polys])
    assert cancel(_as_expr(f) / ref).is_Rational


@settings(max_examples=60, deadline=None)
@given(common=JETS, start=JETS, polys=st.lists(JETS, min_size=1, max_size=3))
def test_primitive_parts_divides_by_the_gcd(common, start, polys):
    check_divides_by_the_gcd(ALG, common, start, polys)


@settings(max_examples=60, deadline=None)
@given(common=JET_FREE, start=JET_FREE,
       polys=st.lists(JET_FREE, min_size=1, max_size=3))
def test_primitive_parts_divides_by_the_gcd_jet_free(common, start, polys):
    check_divides_by_the_gcd(ALG0, common, start, polys)


def check_coprime_with_content_one(alg, common, polys, shared, extra, pick):
    """Polynomials with RAT and POLY coefficients, some of them multiples
    of a common factor, divided from a start that is a multiple of one of
    them: factor * part_i = p_i, the parts have no common factor over
    Z[x, params, jets] (sympy's gcd_list) and joint rational content
    one."""
    polys = [p * common if s else p for p, s in zip(polys, shared)]
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return
    start = polys[pick % len(polys)] * (alg.one if extra.is_zero() else extra)
    factor, parts = _primitive_parts(start.terms, [p.terms for p in polys])
    f = alg.one if factor is None else DiffPoly(alg, factor)
    parts = [DiffPoly(alg, q) for q in parts]
    for p, q in zip(polys, parts):
        assert q * f == p
    rationals = [r for q in parts for c in q.terms.values()
                 for r in rational_coefficients(c)]
    assert all(r.denominator == 1 for r in rationals)
    assert reduce(gcd, (int(r.numerator) for r in rationals), 0) == 1
    assert gcd_list([_as_expr(q) for q in parts]).is_Rational


@settings(max_examples=60, deadline=None)
@given(common=JETS, polys=st.lists(JETS, min_size=1, max_size=4),
       shared=st.lists(st.booleans(), min_size=4, max_size=4),
       extra=JETS, pick=st.integers(0, 3))
def test_primitive_parts_are_coprime_with_content_one(common, polys, shared,
                                                      extra, pick):
    check_coprime_with_content_one(ALG, common, polys, shared, extra, pick)


@settings(max_examples=60, deadline=None)
@given(common=JET_FREE, polys=st.lists(JET_FREE, min_size=1, max_size=4),
       shared=st.lists(st.booleans(), min_size=4, max_size=4),
       extra=JET_FREE, pick=st.integers(0, 3))
def test_primitive_parts_are_coprime_with_content_one_jet_free(
        common, polys, shared, extra, pick):
    check_coprime_with_content_one(ALG0, common, polys, shared, extra, pick)


# -- the kernels against sympy's PolyElement methods --------------------------

@st.composite
def z_polys(draw, n, max_terms=4, max_degree=3):
    """A polynomial of Z[x, ...] in n generators: zero, a constant, or a few
    terms of x-degree up to max_degree and degree up to 1 in each other
    generator, with coefficients of either sign; dense for n = 1, as the
    field stores it."""
    exps = st.tuples(st.integers(0, max_degree),
                     *[st.integers(0, 1)] * (n - 1))
    p = Poly()
    for m, c in draw(st.lists(st.tuples(exps, st.integers(-9, 9)),
                              max_size=max_terms)):
        if c:
            p = p + Poly({m: c})
    return zpoly._dense(p) if n == 1 else p


@st.composite
def z_pairs(draw, n, max_terms=4):
    """(a, b) = (k*s*p, l*s*q): a shared factor s (often 1, possibly
    negative) and a shared integer content, so cancellations have work."""
    s = draw(st.one_of(st.just(ground(n, 1)), z_polys(n, 3, 2)))
    k, l = draw(st.integers(1, 12)), draw(st.integers(-12, 12))
    shared = draw(st.sampled_from([1, 2, 6]))
    a = (draw(z_polys(n, max_terms)) * s).mul_ground(k * shared)
    b = (draw(z_polys(n, max_terms)) * s).mul_ground(l * shared)
    return a, b


def reference_gcd(sa, sb):
    """sympy's gcd with a positive leading coefficient; sympy's sparse
    heuristic has no fallback, so its dense gcd steps in where it fails."""
    try:
        h = sa.gcd(sb)
    except HeuristicGCDFailed:
        h = sa.ring.dmp_inner_gcd(sa, sb)[0]
    return -h if h.LC < 0 else h


def check_kernels(n, a, b):
    """_cancel, _gcd, _lcm and divrem give what sympy gives: the same
    canonical cancellation, gcd and lcm, and a division that is exact
    exactly when sympy's is, with the same quotient then."""
    sa, sb = to_sympy(a, n), to_sympy(b, n)
    h = reference_gcd(sa, sb)
    assert to_sympy(_gcd(a, b), n) == h
    if b:
        num, den = _cancel(a, b)
        p, q = sa.exquo(h), sb.exquo(h)
        if q.LC < 0:
            p, q = -p, -q
        assert (to_sympy(num, n), to_sympy(den, n)) == (p, q)
        q, r = divrem(a, b)
        sq, sr = sa.div(sb)
        assert q * b + r == a
        assert (not r) == (not sr)
        if not r:
            assert to_sympy(q, n) == sq == to_sympy(_exquo(a, b), n)
        else:
            with pytest.raises(InvariantViolation):
                _exquo(a, b)
    if a and b:
        assert to_sympy(_lcm(a, b), n) == sa * sb.exquo(h)


X = zpoly._Dense((1, 0))
ONE = ground(1, 1)
ZERO = ground(1, 0)


@settings(max_examples=300, deadline=None)
@given(pair=z_pairs(1))
@example(pair=(ZERO, X.mul_ground(2) + ONE))
@example(pair=(ground(1, 6), ground(1, -4)))
@example(pair=((X ** 2).mul_ground(-6) + ground(1, 6),
               X.mul_ground(4) - ground(1, 4)))
@example(pair=(((X + ONE) ** 2).mul_ground(3), (X + ONE).mul_ground(-9)))
@example(pair=(X.mul_ground(2) + ground(1, 4), X.mul_ground(-2) - ground(1, 4)))
@example(pair=(ZERO, ZERO))
def test_one_generator_kernels_match_sparse_sympy(pair):
    """On Z[x] (dense coefficient lists)."""
    check_kernels(1, *pair)


@settings(max_examples=200, deadline=None)
@given(pair=z_pairs(2))
def test_kernels_match_sympy_two_generators(pair):
    """On Z[x, c] (sparse terms)."""
    check_kernels(2, *pair)


@settings(max_examples=100, deadline=None)
@given(pair=z_pairs(4, max_terms=3))
def test_kernels_match_sympy_four_generators(pair):
    """On Z[x, c, y1, y2], the shape of _primitive_parts with two jets."""
    check_kernels(4, *pair)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2, 4]), data=st.data())
def test_prs_fallback_gives_the_heuristic_gcd(n, data):
    """With GCDHEU allowed no evaluation point, every gcd comes from the
    subresultant PRS, and the kernels still give sympy's results."""
    a, b = data.draw(z_pairs(n, max_terms=3 if n < 4 else 2))
    old = zpoly.HEU_GCD_MAX
    zpoly.HEU_GCD_MAX = 0
    try:
        check_kernels(n, a, b)
    finally:
        zpoly.HEU_GCD_MAX = old


def _four_generator_coprime_pair():
    """A coprime pair in Z[x, c, y1, y2] of x-degree 5, on which a
    primitive PRS with recursive contents runs for minutes."""
    def term(c, *m):
        return Poly({m: c})
    f = (term(1, 5, 0, 0, 0) + term(131, 4, 1, 2, 1) - term(13, 3, 2, 0, 2)
         - term(14, 1, 0, 1, 1) - term(114, 0, 1, 0, 2))
    g = term(-47, 5, 0, 1, 1) + term(87, 3, 0, 0, 0) - term(33, 1, 0, 0, 0)
    return 4, f, g


def _seeded_shared_linear_factor():
    """(p s, q s) in Z[x, c]: p and q of 8 terms, x-degree 12 and c-degree
    up to 4 with coefficients in [-140, 140], and s a 2-term factor of
    degree up to 1 in each generator; the shape of a fraction over
    Q(c)(x)."""
    rng = random.Random(7)

    def poly():
        p = Poly({(12, rng.randint(0, 4)): rng.choice([-1, 1]) * rng.randint(
            1, 140)})
        while len(p) < 8:
            m, c = (rng.randint(0, 11), rng.randint(0, 4)), rng.randint(
                -140, 140)
            if c and m not in p:
                p[m] = c
        return p
    s = Poly({(1, rng.randint(0, 1)): rng.randint(1, 3),
              (0, rng.randint(0, 1)): rng.choice([-3, -2, -1, 1, 2, 3])})
    return 2, poly() * s, poly() * s


@pytest.mark.parametrize("build", [_four_generator_coprime_pair,
                                   _seeded_shared_linear_factor])
def test_prs_fallback_finishes_on_swelling_inputs(build, monkeypatch):
    """With GCDHEU allowed no evaluation point, the PRS fallback gives
    sympy's gcd on inputs where a primitive PRS swells: each must finish
    inside 5 s."""
    n, a, b = build()
    monkeypatch.setattr(zpoly, "HEU_GCD_MAX", 0)

    def too_slow(signum, frame):
        raise TimeoutError(f"{build.__name__} took more than 5 s")
    old = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(5)
    try:
        check_kernels(n, a, b)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@settings(max_examples=40, deadline=None)
@given(pair=z_pairs(3, max_terms=3))
def test_prs_fallback_on_the_images(pair):
    """With GCDHEU failing on every operand in fewer than three
    generators, dense or sparse, a gcd over Z[x, c, y] takes the gcds of
    its images by the PRS and still gives sympy's results."""
    heugcd = zpoly._heugcd

    def failing_below_three(f, g):
        if type(f) is zpoly._Dense or zpoly.nvars(f) < 3:
            raise zpoly._HeuristicGCDFailed
        return heugcd(f, g)
    zpoly._heugcd = failing_below_three
    try:
        check_kernels(3, *pair)
    finally:
        zpoly._heugcd = heugcd


def test_heuristic_limit_zero_reaches_the_fallback(monkeypatch):
    """The retry limit is what the PRS fallback hangs on: at 0 the
    heuristic raises at once on both forms, a dense pair and a sparse
    one."""
    a = (X + ONE) * (X - ONE)
    b = (X + ONE) ** 2
    a2, b2 = (Poly({(k, 1): c for (k,), c in zpoly._sparse(p).items()})
              for p in (a, b))
    monkeypatch.setattr(zpoly, "HEU_GCD_MAX", 0)
    for f, g in ((a, b), (a2, b2)):
        with pytest.raises(zpoly._HeuristicGCDFailed):
            zpoly._heugcd(f, g)
    assert _gcd(a, b) == X + ONE
    assert _gcd(a2, b2) == Poly({(1, 1): 1, (0, 1): 1})


def _prem_reference_pair(n, f, g):
    """zpoly._prem on the coefficient lists in x of f and g, and sympy's
    prem, both as sympy polynomials in n generators."""
    r = zpoly._prem(zpoly._in_x0(f), zpoly._in_x0(g))
    got = zpoly._from_x0(r) if r else ground(n, 0)
    return to_sympy(got, n), to_sympy(f, n).prem(to_sympy(g, n))


C = Poly({(0, 1): 1})
X2 = Poly({(1, 0): 1})


@st.composite
def prem_inputs(draw):
    """(n, f, g): f and g in Z[x] (n = 1) or Z[x, c] (n = 2), sparse, with
    deg_x f >= deg_x g."""
    n = draw(st.sampled_from([1, 2]))
    f, g = draw(z_polys(n, 6, 5)), draw(z_polys(n, 4, 3))
    assume(f and g and f.degree(0) >= g.degree(0))
    return n, f, g


@settings(max_examples=200, deadline=None)
@given(prem_inputs())
@example((1, X ** 4 + X + ground(1, 3), (X ** 2).mul_ground(2) + ONE))
@example((2, X2 ** 4 + X2 + C, C * X2 ** 2 + ground(2, 1)))
def test_prem_matches_sympy(case):
    """The pseudo-remainder lc(G)^(deg F - deg G + 1) F mod G of
    coefficient lists over Z (one generator) and Z[c] (two) is sympy's
    prem.  Sparse inputs often give remainders that skip a degree, so the
    division takes fewer steps than deg F - deg G + 1 and the lc factor
    of the steps left is applied at the end: x^4 + x + 3 by 2x^2 + 1
    skips x^3, giving 8x + 26 where the remainder without that factor is
    4x + 13 (the examples, over Z and, with lc = c, over Z[c])."""
    got, want = _prem_reference_pair(*case)
    assert got == want


@pytest.mark.parametrize("n, f, g, s", [
    (1, X ** 5 - (X ** 2).mul_ground(2) * X + X.mul_ground(3) - ONE,
     (X ** 3).mul_ground(2) + X, X - ground(1, 2)),
    (2, C * X2 ** 5 + C * X2 ** 2 - X2 + ground(2, 2),
     X2 ** 3 - X2.mul_ground(2) + ground(2, 1), X2 - ground(2, 2))])
def test_prs_gcd_across_a_degree_gap(n, f, g, s):
    """A subresultant PRS whose remainders drop two degrees at once
    (degrees 6, 4, 2, 1: the d > 1 branch of _prs_gcd's psi update) gives
    sympy's gcd, here the shared factor s."""
    a, b = f * s, g * s
    h = to_sympy(zpoly._prs_gcd(a, b), n)
    assert h == reference_gcd(to_sympy(a, n), to_sympy(b, n))
    assert h == to_sympy(s, n)


def test_sparse_gcd_recurses_through_the_dense_kernel(monkeypatch):
    """A gcd over Z[x, c] evaluates x and takes the gcd of the images in c
    through cofactors: GCDHEU never runs on a Poly in one generator, and
    it runs on the dense images."""
    seen = []
    heugcd = zpoly._heugcd
    monkeypatch.setattr(zpoly, "_heugcd", lambda f, g: seen.append(
        "dense" if type(f) is zpoly._Dense else zpoly.nvars(f))
        or heugcd(f, g))
    x, c, one = Poly({(1, 0): 1}), Poly({(0, 1): 1}), ground(2, 1)
    common = x + c.mul_ground(2) - one
    a = common * (x * c + one)
    b = common * (x - c).mul_ground(-3)
    assert _gcd(a, b) == common
    assert set(seen) == {2, "dense"}


rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@settings(max_examples=300, deadline=None)
@given(a=rationals, b=rationals, k=st.integers(-6, 6), n=st.integers(-3, 3))
def test_rational_matches_fraction(a, b, k, n):
    """Rational gives Fraction's values, in lowest terms with a positive
    denominator, and Fraction's equality and hash."""
    A = Rational(a.numerator * 6, a.denominator * 6)
    B = Rational(-b.numerator, -b.denominator)

    def same(r, f):
        assert type(r) is Rational
        assert (r.numerator, r.denominator) == (f.numerator, f.denominator)
        assert r == f and hash(r) == hash(f) and bool(r) == bool(f)
    same(A, a)
    same(B, b)
    same(A + B, a + b)
    same(A - B, a - b)
    same(A * B, a * b)
    same(-A, -a)
    same(A + k, a + k)
    same(A - k, a - k)
    same(A * k, a * k)
    if b:
        same(A / B, a / b)
    if k:
        same(A / k, a / k)
    if a:
        same(k / A, k / a)
    if a or n >= 0:
        same(A ** n, a ** n)
    else:
        with pytest.raises(ZeroDivisionError):
            A ** n
    assert (A == B) == (a == b) and (A == k) == (a == k)
    with pytest.raises(ZeroDivisionError):
        Rational(k, 0)


@st.composite
def flat_numerators(draw):
    """(field, P, m, names) for _unflat: P over x, the field's parameters
    (none, c, or c and e) and one or two extra generators, with groups
    that are a lone constant term, a constant with more terms, or free of
    the constant; its coefficients share a factor with m half the time."""
    field = CoefficientField(draw(st.sampled_from([[], ["c"], ["c", "e"]])))
    k = len(field._zm)
    names = [("v", i) for i in range(draw(st.integers(1, 2)))]
    m = draw(st.integers(1, 12))
    shared = draw(st.sampled_from([1, m]))
    terms = {}
    for tail in draw(st.lists(st.tuples(*[st.integers(0, 2)] * len(names)),
                              min_size=1, max_size=4, unique=True)):
        heads = draw(st.lists(st.tuples(*[st.integers(0, 2)] * k),
                              min_size=1, max_size=3, unique=True))
        if draw(st.booleans()):
            heads = [field._zm] + [h for h in heads if h != field._zm][:
                draw(st.integers(0, 2))]
        for head in heads:
            c = draw(st.integers(-6, 6).filter(bool)) * shared
            terms[head + tail] = c
    return field, Poly(terms), m, names


@settings(max_examples=150, deadline=None)
@given(flat_numerators())
def test_unflat_equals_one_reduced_polynomial_per_coefficient(case):
    """_unflat reads a lone term free of x and the parameters as a plain
    rational, with no polynomial built; every coefficient, in value and
    in tier, equals _reduced of its polynomial over m."""
    field, P, m, names = case
    k = len(field._zm)
    grouped = {}
    for exps, c in P.items():
        grouped.setdefault(exps[k:], {})[exps[:k]] = c
    expected = {tuple((v, e) for v, e in zip(names, tail) if e):
                _reduced(field, _from_terms(field, group), m)
                for tail, group in grouped.items()}
    out = _unflat(field, P, m, names)
    assert out.keys() == expected.keys()
    for mono, c in expected.items():
        assert out[mono] == c and out[mono]._k == c._k
