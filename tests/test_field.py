import random
from fractions import Fraction

import pytest

from varpois import (CoefficientField, InvariantViolation, UndecidableResidue,
                     rational_antiderivative)
from varpois import field as field_module
from varpois.field import format_field_elem

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
