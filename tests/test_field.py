import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.fields import field as sympy_field

from varpois import (CoefficientField, InvariantViolation, UndecidableResidue,
                     rational_antiderivative)
from varpois import field as field_module
from varpois.field import (FRAC, POLY, RAT, _format_poly, _poly_lcm,
                          clear_denominators, format_field_elem,
                          x_coefficients)

from helpers import rnd_field_elem


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
    monkeypatch.setattr(field_module, "_xp_gcd",
                        lambda a, b: [F.one, F.one])
    with pytest.raises(InvariantViolation, match="does not divide"):
        rational_antiderivative(F.one / (F.x * F.x))


# -- the tiers against plain sympy FracField arithmetic -----------------------

REF, RX, RC = sympy_field("x,c", QQ)
TIERED = CoefficientField(["c"])
TIER_NAMES = {RAT: "rat", POLY: "poly", FRAC: "frac"}


def ref_tier(r) -> int:
    """The lowest tier that holds the sympy fraction r."""
    if not r.denom.is_ground:
        return FRAC
    return RAT if r.numer.is_ground else POLY


def ref_format(r) -> str:
    """The printed form of a canonical sympy fraction, as format_field_elem
    printed it when every element was a sympy FracElement."""
    ns = _format_poly(TIERED, r.numer)
    if r.denom == r.denom.ring.one:
        return ns
    ds = _format_poly(TIERED, r.denom)
    if len(r.numer.terms()) > 1 or ns.startswith("-"):
        ns = f"({ns})"
    if len(r.denom.terms()) > 1:
        ds = f"({ds})"
    return f"{ns}/{ds}"


def from_ref(r):
    """Rebuild r term by term from x, c and rationals: a second route to
    the same value."""
    x, c = TIERED.x, TIERED.param("c")

    def poly(p):
        out = TIERED.zero
        for (i, j), q in p.terms():
            out = out + TIERED.rational(int(q.numerator),
                                        int(q.denominator)) * x ** i * c ** j
        return out
    return poly(r.numer) / poly(r.denom)


@st.composite
def small_polys(draw, nonconstant=False):
    """(FieldElem, sympy) pairs for a polynomial in x and c with a few
    small rational coefficients."""
    v, r = TIERED.zero, REF.zero
    for _ in range(draw(st.integers(1, 3))):
        q = Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 2, 3])))
        i, j = draw(st.integers(0, 2)), draw(st.integers(0, 1))
        v = v + TIERED.rational(q) * TIERED.x ** i * TIERED.param("c") ** j
        r = r + QQ(q.numerator, q.denominator) * RX ** i * RC ** j
    if nonconstant and r.numer.is_ground:
        v, r = v + TIERED.x, r + RX
    return v, r


@st.composite
def tiered(draw, tier):
    """An operand of the given tier, with its sympy twin."""
    if tier == RAT:
        q = Fraction(draw(st.integers(-4, 4)), draw(st.sampled_from([1, 2, 3])))
        return TIERED.rational(q), REF(QQ(q.numerator, q.denominator))
    num = draw(small_polys(nonconstant=(tier == POLY)))
    if tier == POLY:
        return num
    den = draw(small_polys(nonconstant=True))
    if num[1] == 0:
        num = TIERED.one, REF.one
    return num[0] / den[0], num[1] / den[1]


def check_same(v, r):
    """v is the value r, stored in its lowest tier and printed as before."""
    assert v.f == r and v.f.numer == r.numer and v.f.denom == r.denom
    assert v._k == ref_tier(r), (TIER_NAMES[v._k], r)
    assert format_field_elem(v) == ref_format(r)
    assert v.is_zero() == (not r)
    assert v.is_one() == (r == REF.one)
    assert v.is_rational_number() == (ref_tier(r) == RAT)
    assert v.is_constant() == (r.diff(RX) == 0 or
                               all(m[0] == 0 for m in r.numer.monoms()) and
                               all(m[0] == 0 for m in r.denom.monoms()))
    if r:
        assert v.x_degree() == (r.numer.degree(0) - r.denom.degree(0))
    w = from_ref(r)
    assert w == v and hash(w) == hash(v) and w._k == v._k


tiers = st.sampled_from([RAT, POLY, FRAC])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), ta=tiers, tb=tiers)
def test_tiers_match_sympy_fracfield(data, ta, tb):
    """Every op on every tier pair agrees with sympy FracField arithmetic,
    and lands in the lowest tier that can hold its value."""
    a, ra = data.draw(tiered(ta))
    b, rb = data.draw(tiered(tb))
    check_same(a, ra)
    check_same(b, rb)
    check_same(a + b, ra + rb)
    check_same(a - b, ra - rb)
    check_same(b - a, rb - ra)
    check_same(a * b, ra * rb)
    check_same(-a, -ra)
    check_same(a.derive(), ra.diff(RX))
    if rb:
        check_same(a / b, ra / rb)
    else:
        with pytest.raises(ZeroDivisionError):
            a / b
    n = data.draw(st.integers(-2, 3))
    if n == 0:
        check_same(a ** n, REF.one)
    elif n > 0:
        check_same(a ** n, ra ** n)
    elif ra:
        check_same(a ** n, REF.one / ra ** -n)
    else:
        with pytest.raises(ZeroDivisionError):
            a ** n
    assert (a == b) == (ra == rb)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), ta=tiers,
       k=st.one_of(st.integers(-3, 3),
                   st.builds(Fraction, st.integers(-3, 3),
                             st.integers(1, 3))))
def test_tiers_with_python_numbers(data, ta, k):
    """int and Fraction operands on either side, and equality with them."""
    a, ra = data.draw(tiered(ta))
    rk = REF(QQ(Fraction(k).numerator, Fraction(k).denominator))
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


@settings(max_examples=60, deadline=None)
@given(data=st.data(), tiers_=st.lists(tiers, min_size=1, max_size=4))
def test_clear_denominators_matches_lcm_reference(data, tiers_):
    """The lcm of the sympy denominators, folded left to right as the
    ansatz solver did before the tiers; each v*D split by powers of x sums
    back to v*D."""
    pairs = [data.draw(tiered(t)) for t in tiers_]
    values = [v for v, _ in pairs]
    den = None
    for _, r in pairs:
        if r:
            den = r.denom if den is None else _poly_lcm(den, r.denom)
    D, cleared = clear_denominators(values)
    check_same(D, REF.one if den is None else REF(den))
    for (v, r), p in zip(pairs, cleared):
        check_same(p, r * D.f)
        total = TIERED.zero
        for k, c in x_coefficients(p).items():
            assert c.is_constant() and not c.is_zero()
            total = total + c * TIERED.x ** k
        assert total == p
    with pytest.raises(ValueError):
        x_coefficients(TIERED.one / (TIERED.x + 1))


def test_rationals_use_only_the_ground_type_constructor(monkeypatch):
    """sympy's QQ.dtype is gmpy2's mpq or python-flint's fmpq when either is
    installed; rationals must be built through the constructor all of them
    share, not through methods of the pure-Python type."""
    monkeypatch.setattr(field_module, "_Q", lambda *a: QQ.dtype(*a))
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
    """sympy squares a polynomial in place after hashing it; the element's
    hash must not depend on that cached value."""
    x, c = F.x, F.param("c")
    for a, b in (((x - 1) ** 2, x * x - 2 * x + 1),
                 (((x + c) / (x - 1)) ** 2,
                  (x * x + 2 * c * x + c * c) / (x * x - 2 * x + 1))):
        assert a == b and hash(a) == hash(b)
