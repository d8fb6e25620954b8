"""Exact arithmetic in the quasiconstant coefficient field Q(p_1,...,p_r)(x).

The derivation is d/dx; parameters are constants (their derivative is zero).
Every element is stored in the lowest of three tiers that can hold it:

- RAT: a plain rational, a sympy ``QQ`` number;
- POLY: a polynomial over Q in x and the parameters that is not a plain
  rational, a bare sympy ``PolyElement``;
- FRAC: a fraction whose denominator is not a plain rational, a sympy
  ``FracElement`` of a fraction field over Z on the same generators, in the
  canonical form of ``PolyElement.cancel``: numerator and denominator in
  Z[x, params], coprime, of joint content 1, with a positive leading
  coefficient below.

Each value has exactly one stored form, so equality and hashing compare the
tier and the stored value.  Arithmetic dispatches on the operand tiers: rat
with rat is rational arithmetic, rat with poly scales or shifts the
polynomial, poly with poly stays in the ring, and a gcd cancellation runs
only where a common factor can appear (a quotient of polynomials, a product
with a fraction, a sum of fractions, the derivative of a fraction).  Those
gcds run in Z[x, params]: a polynomial operand enters as P/m with P
integral, so sympy never converts between its rings over Q and over Z.  A
sum of a fraction and a polynomial, or a fraction scaled by a rational, only
needs its integer content normalized.  Values are read over Q:
``FieldElem.f`` is an element of sympy's Q(x, params), and printing,
``clear_denominators`` and ``rational_antiderivative`` take numerators and
denominators over Q.  ``_primitive_parts`` divides polynomials over F's
polynomial ring, possibly in further variables such as the jets of V, by
their common factor: the content that fraction-free elimination removes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Optional

from sympy import QQ, ZZ, Symbol
from sympy.polys.fields import field as _sympy_field
from sympy.polys.rings import PolyRing

from .linsolve import gauss_solve

_Q = QQ.dtype
RAT, POLY, FRAC = range(3)


class UndecidableResidue(Exception):
    """The rational-antiderivative test branches on parameter values."""


class InvariantViolation(ArithmeticError):
    """An identity that exact arithmetic guarantees failed to hold."""


def accumulate(out: dict, key, value) -> None:
    """out[key] += value in a sparse dict whose absent keys stand for zero;
    a key whose sum is zero is deleted."""
    old = out.get(key)
    if old is not None:
        value = old + value
    if value.is_zero():
        out.pop(key, None)
    else:
        out[key] = value


@lru_cache(maxsize=None)
def _sympy_fields(names: tuple) -> tuple:
    """sympy's fraction fields over Q and over Z on the generators names."""
    names = ",".join(names)
    return _sympy_field(names, QQ)[0], _sympy_field(names, ZZ)[0]


class CoefficientField:
    """The field F = Q(p_1,...,p_r)(x) with derivation d/dx.

    Generator 0 is x; generators 1..r are the declared parameters.
    """

    def __init__(self, params: Iterable[str] = ()):
        self.params = tuple(params)
        for p in self.params:
            if p in ("x", "d") or not p.isidentifier():
                raise ValueError(f"bad parameter name {p!r}")
        self._field, self._zfield = _sympy_fields(("x",) + self.params)
        self._ring = self._field.ring
        self._zring = self._zfield.ring
        self._gens = self._ring.gens
        self._zm = self._ring.zero_monom
        self.zero = FieldElem(self, RAT, _Q(0))
        self.one = FieldElem(self, RAT, _Q(1))
        self.x = FieldElem(self, POLY, self._gens[0])

    def __eq__(self, other):
        return isinstance(other, CoefficientField) and self.params == other.params

    def __hash__(self):
        return hash(("CoefficientField", self.params))

    def __repr__(self):
        ps = ",".join(self.params)
        return f"CoefficientField(x{',' if ps else ''}{ps})"

    def param(self, name: str) -> "FieldElem":
        return FieldElem(self, POLY, self._gens[1 + self.params.index(name)])

    def rational(self, num, den=1) -> "FieldElem":
        q = Fraction(num, den) if den != 1 else Fraction(num)
        return FieldElem(self, RAT, _Q(q.numerator, q.denominator))

    def coerce(self, v) -> "FieldElem":
        if isinstance(v, FieldElem):
            if v.field != self:
                raise ValueError("element from a different coefficient field")
            return v
        if isinstance(v, (int, Fraction)):
            return self.rational(v)
        raise TypeError(f"cannot coerce {type(v).__name__} into {self!r}")


# -- tier constructors and arithmetic on (tier, value) pairs -------------------
#
# These take (tier, value) pairs and return elements.  The FieldElem methods
# call them and never each other, so each public operation is one call
# whatever the operand tiers.

def _from_poly(field: CoefficientField, p) -> "FieldElem":
    """The polynomial p over Q in its lowest tier."""
    if len(p) != 1:
        return FieldElem(field, POLY, p) if p else field.zero
    c = p.get(field._zm)
    return FieldElem(field, POLY, p) if c is None else FieldElem(field, RAT, c)


def _integral(field: CoefficientField, p, ring=None) -> tuple:
    """(m, P) with p = P/m for a polynomial p over Q: P in Z[x, params], or
    in `ring`, that ring with more generators, and m the least common
    denominator of the coefficients of p.  p maps exponent tuples of the
    target ring to rationals (a sympy polynomial or a plain dict)."""
    ring = field._zring if ring is None else ring
    m = 1
    for c in p.values():
        m = lcm(m, c.denominator)
    if m == 1:
        return 1, ring.dtype({k: c.numerator for k, c in p.items()})
    return m, ring.dtype({k: c.numerator * (m // c.denominator)
                          for k, c in p.items()})


def _over(field: CoefficientField, p, m=1):
    """P/m as a polynomial over Q, for P in Z[x, params] (a sympy polynomial
    or a dict of its terms) and an integer m."""
    return field._ring.dtype({k: _Q(c, m) for k, c in p.items()})


def _zz_parts(field: CoefficientField, k, v) -> tuple:
    """Numerator and denominator in Z[x, params] of a POLY or FRAC value."""
    if k == FRAC:
        return v.numer, v.denom
    m, p = _integral(field, v)
    return p, field._zring.ground_new(m)


def _from_cancelled(field: CoefficientField, num, den) -> "FieldElem":
    """num/den, already in canonical form over Z, in its lowest tier."""
    if len(den) == 1:
        c = den.get(field._zm)
        if c is not None:
            return _from_poly(field, _over(field, num, c))
    return FieldElem(field, FRAC, field._zfield.raw_new(num, den))


def _from_frac(field: CoefficientField, r) -> "FieldElem":
    """A fraction produced by sympy arithmetic over Z (hence cancelled)."""
    return _from_cancelled(field, r.numer, r.denom)


def _from_coprime(field: CoefficientField, num, den) -> "FieldElem":
    """num/den for num, den in Z[x, params] with no common polynomial
    factor: only the integer content and the sign need normalizing, no gcd
    of polynomials."""
    if len(den) == 1 and field._zm in den:
        return _from_poly(field, _over(field, num, den[field._zm]))
    g = 0
    for c in chain(num.values(), den.values()):
        g = gcd(g, c)
        if g == 1:
            break
    else:
        num, den = num.quo_ground(g), den.quo_ground(g)
    if den.LC < 0:
        num, den = -num, -den
    return FieldElem(field, FRAC, field._zfield.raw_new(num, den))


def _poly_plus_rat(p, q, zm):
    """p + q for a polynomial p and a rational q; never a plain rational
    when p is not one."""
    out = p.copy()
    c = out.get(zm)
    if c is None:
        if q:
            out[zm] = q
        return out
    c = c + q
    if c:
        out[zm] = c
    else:
        del out[zm]
    return out


def _frac_plus(field, f, kb, b) -> "FieldElem":
    """f + b for a fraction f and a rational or polynomial b = B/m: the sum
    (m*numer + B*denom)/(m*denom) has no new common polynomial factor."""
    if kb == RAT:
        if not b:
            return FieldElem(field, FRAC, f)
        m, added = b.denominator, f.denom.mul_ground(b.numerator)
    else:
        m, bz = _integral(field, b)
        added = f.denom * bz
    num, den = f.numer, f.denom
    if m != 1:
        num, den = num.mul_ground(m), den.mul_ground(m)
    return _from_coprime(field, num + added, den)


def _add(field, ka, a, kb, b) -> "FieldElem":
    if ka > kb:
        ka, a, kb, b = kb, b, ka, a
    if kb == RAT:
        return FieldElem(field, RAT, a + b)
    if kb == POLY:
        if ka == RAT:
            return FieldElem(field, POLY, _poly_plus_rat(b, a, field._zm))
        return _from_poly(field, a + b)
    if ka == FRAC:
        return _from_frac(field, a + b)
    return _frac_plus(field, b, ka, a)


def _mul(field, ka, a, kb, b) -> "FieldElem":
    if ka > kb:
        ka, a, kb, b = kb, b, ka, a
    if ka == RAT:
        if kb == RAT:
            return FieldElem(field, RAT, a * b)
        if not a:
            return field.zero
        if a == 1:
            return FieldElem(field, kb, b)
        if kb == POLY:
            return FieldElem(field, POLY, b.mul_ground(a))
        return _from_coprime(field, b.numer.mul_ground(a.numerator),
                             b.denom.mul_ground(a.denominator))
    if kb == POLY:
        return FieldElem(field, POLY, a * b)
    if ka == FRAC:
        return _from_frac(field, a * b)
    na, da = _zz_parts(field, ka, a)
    return _from_cancelled(field, *(na * b.numer).cancel(da * b.denom))


def _div(field, ka, a, kb, b) -> "FieldElem":
    if kb == RAT:
        if not b:
            raise ZeroDivisionError("division by zero field element")
        if ka == RAT:
            return FieldElem(field, RAT, a / b)
        return _mul(field, RAT, 1 / b, ka, a)
    if ka == RAT:
        if not a:
            return field.zero
        nb, db = _zz_parts(field, kb, b)
        return _from_coprime(field, db.mul_ground(a.numerator),
                             nb.mul_ground(a.denominator))
    if ka == FRAC and kb == FRAC:
        return _from_frac(field, a / b)
    na, da = _zz_parts(field, ka, a)
    nb, db = _zz_parts(field, kb, b)
    return _from_cancelled(field, *(na * db).cancel(da * nb))


def _pow(field, k, v, n: int) -> "FieldElem":
    """v**n for n >= 0; a power of a canonical fraction is canonical."""
    if n == 0:
        return field.one
    return FieldElem(field, k, v ** n)


def _numer_denom(v: "FieldElem"):
    """Numerator and denominator polynomials of v over Q in the canonical
    form of ``PolyElement.cancel``."""
    field = v.field
    ring = field._ring
    if v._k == RAT:
        return ring.ground_new(v._v.numerator), ring.ground_new(v._v.denominator)
    if v._k == POLY:
        m, num = v._v.clear_denoms()
        return num, ring.ground_new(m)
    return _over(field, v._v.numer), _over(field, v._v.denom)


class FieldElem:
    """One element of a CoefficientField; immutable.

    ``_k`` is the tier (RAT, POLY or FRAC) and ``_v`` the stored value; see
    the module docstring.
    """

    __slots__ = ("field", "_k", "_v")

    def __init__(self, field: CoefficientField, kind: int, value):
        self.field = field
        self._k = kind
        self._v = value

    @property
    def f(self):
        """The value as a sympy FracElement of the field's fraction field
        over Q."""
        return self.field._field.raw_new(*_numer_denom(self))

    # -- arithmetic ---------------------------------------------------------

    def _operand(self, other):
        """(tier, value) of another operand, or None if unsupported."""
        if isinstance(other, FieldElem):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("mixed coefficient fields")
            return other._k, other._v
        if isinstance(other, int):
            return RAT, _Q(other)
        if isinstance(other, Fraction):
            return RAT, _Q(other.numerator, other.denominator)
        return None

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _add(self.field, self._k, self._v, *o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _add(self.field, self._k, self._v, o[0], -o[1])

    def __rsub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _add(self.field, o[0], o[1], self._k, -self._v)

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _mul(self.field, self._k, self._v, *o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _div(self.field, self._k, self._v, *o)

    def __rtruediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        if self.is_zero():
            raise ZeroDivisionError("division by zero field element")
        return _div(self.field, o[0], o[1], self._k, self._v)

    def __pow__(self, n: int):
        if n >= 0:
            return _pow(self.field, self._k, self._v, n)
        if self.is_zero():
            raise ZeroDivisionError("negative power of zero")
        p = _pow(self.field, self._k, self._v, -n)
        return _div(self.field, RAT, _Q(1), p._k, p._v)

    def __neg__(self):
        return FieldElem(self.field, self._k, -self._v)

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return (self._k == other._k and self._v == other._v
                    and self.field == other.field)
        if isinstance(other, (int, Fraction)):
            return self._k == RAT and self._v == other
        return NotImplemented

    def __hash__(self):
        # sympy caches a polynomial's hash and some of its in-place
        # operations change the polynomial after hashing it, so the hash is
        # taken from the terms.
        if self._k == RAT:
            return hash((self.field, self._v))
        if self._k == POLY:
            return hash((self.field, frozenset(self._v.items())))
        return hash((self.field, frozenset(self._v.numer.items()),
                     frozenset(self._v.denom.items())))

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self._k == RAT and not self._v

    def is_one(self) -> bool:
        return self._k == RAT and self._v == 1

    def derive(self) -> "FieldElem":
        """d/dx; parameters are killed."""
        field, v = self.field, self._v
        if self._k == RAT:
            return field.zero
        if self._k == POLY:
            return _from_poly(field, v.diff(0))
        num, den = v.numer, v.denom
        return _from_cancelled(field, *(num.diff(0) * den - num * den.diff(0))
                               .cancel(den ** 2))

    def is_constant(self) -> bool:
        """True iff free of x, i.e. in the constant subfield C = Q(params)."""
        if self._k == RAT:
            return True
        if self._k == POLY:
            return all(m[0] == 0 for m in self._v)
        return all(m[0] == 0 for m in self._v.numer) and \
            all(m[0] == 0 for m in self._v.denom)

    def is_rational_number(self) -> bool:
        """True iff a plain rational (free of x and of all parameters)."""
        return self._k == RAT

    def as_fraction(self) -> Fraction:
        if self._k != RAT:
            raise ValueError(f"{self} is not a plain rational number")
        return Fraction(int(self._v.numerator), int(self._v.denominator))

    def x_degree(self) -> int:
        """Degree in x of the numerator minus that of the denominator."""
        if self._k == RAT:
            return 0
        if self._k == POLY:
            return max(m[0] for m in self._v)
        return max(m[0] for m in self._v.numer) - \
            max(m[0] for m in self._v.denom)

    def __repr__(self):
        return f"FieldElem({format_field_elem(self)})"


# -- printing ----------------------------------------------------------------

def _format_poly(field: CoefficientField, p) -> str:
    names = ("x",) + field.params
    terms = sorted(p.terms(), reverse=True)
    if not terms:
        return "0"
    parts = []
    for mono, coeff in terms:
        q = Fraction(int(coeff.numerator), int(coeff.denominator))
        factors = []
        for name, e in zip(names, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            body = str(abs(q))
        else:
            body = "*".join(factors)
            if abs(q) != 1:
                body = f"{abs(q)}*{body}"
        sign = "-" if q < 0 else "+"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def format_field_elem(v: FieldElem) -> str:
    num, den = _numer_denom(v)
    ns = _format_poly(v.field, num)
    if den == den.ring.one:
        return ns
    ds = _format_poly(v.field, den)
    if len(num.terms()) > 1 or ns.startswith("-"):
        ns = f"({ns})"
    # only a bare power or an integer may follow "/" unparenthesized:
    # 1/3*x reads as x/3
    if len(den.terms()) > 1 or "*" in ds:
        ds = f"({ds})"
    return f"{ns}/{ds}"


# -- polynomials in x over C ---------------------------------------------------

def x_coefficients(v: FieldElem) -> dict:
    """{k: c_k} with v = sum c_k x^k, each c_k a nonzero constant (free of
    x), for v a polynomial: a rational or a POLY-tier element."""
    if v._k == RAT:
        return {0: v} if v._v else {}
    if v._k != POLY:
        raise ValueError(f"{v} is not a polynomial")
    buckets: dict = {}
    for mono, coeff in v._v.items():
        buckets.setdefault(mono[0], {})[(0,) + mono[1:]] = coeff
    return {k: _from_poly(v.field, v._v.new(terms))
            for k, terms in buckets.items()}


def clear_denominators(values) -> tuple:
    """(D, [v*D for v in values]) for a nonempty sequence of elements, with
    D the lcm over Z[x, params] of the denominators of the nonzero values
    (one when there are none); each v*D is a polynomial, found by exact
    division rather than gcd cancellation."""
    values = list(values)
    field = values[0].field
    if all(v._k != FRAC for v in values):
        # integer denominators only: their lcm, without polynomial gcds
        m = 1
        for v in values:
            if v._k == RAT:
                m = lcm(m, v._v.denominator)
            else:
                for c in v._v.values():
                    m = lcm(m, c.denominator)
        q = _Q(m)
        return (FieldElem(field, RAT, q),
                [_mul(field, RAT, q, v._k, v._v) for v in values])
    # some value is a fraction, so some denominator is a real polynomial
    parts = [None if v.is_zero() else _numer_denom(v) for v in values]
    # over Z, not Q: a fold of sympy's lcm over Q (p q / monic gcd)
    # multiplies D by the leading coefficient of a repeated factor again
    den = None
    for q in dict.fromkeys(part[1] for part in parts if part is not None):
        q = _integral(field, q)[1]
        den = q if den is None else den.lcm(q)
    den = _over(field, den)
    cleared = []
    for v, part in zip(values, parts):
        if part is None:
            cleared.append(v)
            continue
        mult, rem = den.div(part[1])
        if rem:
            raise InvariantViolation("an lcm is not divisible by a factor")
        cleared.append(_from_poly(field, part[0] * mult))
    return _from_poly(field, den), cleared


@lru_cache(maxsize=None)
def _extended_zring(zring, nextra: int):
    """Z[x, params, y_1, ..., y_n]: the field's integral ring with n more
    generators (sympy builds a ring slowly, so each is built once)."""
    if not nextra:
        return zring
    return PolyRing(zring.symbols + tuple(Symbol(f"#{k}")
                                          for k in range(nextra)), ZZ)


def _primitive_parts(start: dict, polys: list) -> tuple:
    """Divide polynomials with coefficients in F by their common factor.

    A polynomial is a dict {mono: c}: mono is a tuple of (variable,
    exponent) pairs, sorted by variable, over variables of the caller's own
    (() for the constant term), and every c is a nonzero polynomial element
    (no FRAC).  The factor is g*q: g is the gcd in Z[x, params, variables]
    of `start` and of all of `polys`, with a positive leading coefficient,
    taken from `start` onwards and abandoned as soon as it is a constant; q
    is the positive rational content of the quotients.  Returns
    (g*q, [p / (g*q) for p in polys]), or (None, polys) when the factor is
    one or there is no polynomial.
    """
    if not polys:
        return None, polys
    field = next(iter(start.values())).field
    g = None
    if len(start) != 1 or () not in start or start[()]._k != RAT:
        names = sorted({v for p in chain((start,), polys) for mono in p
                        for v, _ in mono})
        slots = {v: k for k, v in enumerate(names)}
        ring = _extended_zring(field._zring, len(names))
        g = _integral(field, _flat(field, start, slots), ring)[1]
        if g.LC < 0:
            g = -g
        integral = []
        for p in polys:
            m, P = _integral(field, _flat(field, p, slots), ring)
            # g | P is common (g is often all of start), and a trial
            # division is cheaper than a gcd
            quo, rem = P.div(g)
            if not rem:
                integral.append((m, P, quo, g))
                continue
            g = g.gcd(P)
            if g.is_ground:
                g = None
                break
            integral.append((m, P, None, None))
    if g is not None:
        polys = [_unflat(field, quo if divisor is g else P.exquo(g), m,
                         names) for m, P, quo, divisor in integral]
    num, den = 0, 1
    for p in polys:
        for c in p.values():
            for q in _rationals(c):
                num, den = gcd(num, q.numerator), lcm(den, q.denominator)
    if g is None and num == den == 1:
        return None, polys
    q = _Q(num, den)
    factor = {(): FieldElem(field, RAT, q)} if g is None else \
        {mono: _mul(field, RAT, q, c._k, c._v)
         for mono, c in _unflat(field, g, 1, names).items()}
    if q != 1:
        inv = 1 / q
        polys = [{mono: _mul(field, RAT, inv, c._k, c._v)
                  for mono, c in p.items()} for p in polys]
    return factor, polys


def _rationals(c: FieldElem):
    """The rational coefficients of a RAT or POLY element."""
    return (c._v,) if c._k == RAT else c._v.values()


def _flat(field: CoefficientField, p: dict, slots: dict) -> dict:
    """The terms over Q of a dict {mono: c}, keyed by the exponents of x,
    params and then of the extra generators of `slots` (variable -> index),
    for _integral into the extended ring."""
    out = {}
    nextra = len(slots)
    for mono, c in p.items():
        tail = [0] * nextra
        for v, e in mono:
            tail[slots[v]] = e
        tail = tuple(tail)
        terms = ((field._zm, c._v),) if c._k == RAT else c._v.items()
        for fm, q in terms:
            out[fm + tail] = q
    return out


def _unflat(field: CoefficientField, P, m, names: list) -> dict:
    """The dict {mono: c} of P/m, for P in Z[x, params] with the extra
    generators `names` after x, params."""
    k = field._zring.ngens
    grouped: dict = {}
    for exps, c in P.items():
        grouped.setdefault(exps[k:], {})[exps[:k]] = c
    return {tuple((v, e) for v, e in zip(names, tail) if e):
            _from_poly(field, _over(field, terms, m))
            for tail, terms in grouped.items()}


def _x_poly(p: FieldElem) -> list:
    """Polynomial -> dense coefficient list in x over C (FieldElem values)."""
    cs = x_coefficients(p)
    return [cs.get(k, p.field.zero) for k in range(max(cs, default=0) + 1)]


def _xp_is_zero(a: list) -> bool:
    return all(c.is_zero() for c in a)


def _xp_trim(a: list) -> list:
    while len(a) > 1 and a[-1].is_zero():
        a = a[:-1]
    return a


def _xp_sub(a: list, b: list) -> list:
    n = max(len(a), len(b))
    f = a[0].field
    out = [(a[i] if i < len(a) else f.zero) - (b[i] if i < len(b) else f.zero)
           for i in range(n)]
    return _xp_trim(out)


def _xp_mul(a: list, b: list) -> list:
    f = a[0].field
    out = [f.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return _xp_trim(out)


def _xp_divmod(a: list, b: list) -> tuple[list, list]:
    f = a[0].field
    b = _xp_trim(b)
    if _xp_is_zero(b):
        raise ZeroDivisionError
    r = list(a)
    q = [f.zero] * max(1, len(a) - len(b) + 1)
    db, lb = len(b) - 1, b[-1]
    while not _xp_is_zero(r) and len(_xp_trim(r)) - 1 >= db:
        r = _xp_trim(r)
        k = len(r) - 1 - db
        c = r[-1] / lb
        q[k] = q[k] + c
        for i, bi in enumerate(b):
            r[k + i] = r[k + i] - c * bi
        r = _xp_trim(r[:-1] + [f.zero]) if r else r
    return _xp_trim(q), _xp_trim(r)


def _xp_gcd(a: list, b: list) -> list:
    a, b = _xp_trim(a), _xp_trim(b)
    while not _xp_is_zero(b):
        _, r = _xp_divmod(a, b)
        a, b = b, r
    if _xp_is_zero(a):
        return a
    lc = a[-1]
    return [c / lc for c in a]


def _xp_diff(a: list) -> list:
    # d/dx(c_i x^i) = c_i' x^i + i c_i x^(i-1); coefficients may carry x too,
    # though callers only pass x-free coefficient lists.
    f = a[0].field
    res = [f.zero] * len(a)
    for i, c in enumerate(a):
        res[i] = res[i] + c.derive()
        if i >= 1:
            res[i - 1] = res[i - 1] + i * c
    return _xp_trim(res)


def rational_antiderivative(v: FieldElem) -> Optional[FieldElem]:
    """Antiderivative of v in F when one exists; None when it provably does
    not; raises UndecidableResidue when the answer depends on parameter
    values.

    Splits off the polynomial part, then applies Horowitz-Ostrogradsky
    reduction: the proper part integrates rationally iff the residual with
    squarefree denominator vanishes.
    """
    if v.is_zero():
        return v.field.zero
    f = v.field
    num, den = (_x_poly(_from_poly(f, p)) for p in _numer_denom(v))
    q, r = _xp_divmod(num, den)
    x = f.x
    result = f.zero
    for i, c in enumerate(q):
        result = result + c / (i + 1) * x ** (i + 1)
    if _xp_is_zero(r):
        return result
    # proper part r/den; make den monic
    lc = den[-1]
    den = [c / lc for c in den]
    r = [c / lc for c in r]
    d2 = _xp_gcd(den, _xp_diff(den))
    d1, rem = _xp_divmod(den, d2)
    if not _xp_is_zero(rem):
        raise InvariantViolation("gcd(den, den') does not divide den")
    # H = d2' * d1 / d2 is a polynomial
    h, rem = _xp_divmod(_xp_mul(_xp_diff(d2), d1), d2)
    if not _xp_is_zero(rem):
        raise InvariantViolation("d2' * d1 is not divisible by d2")
    na, nb = len(d2) - 1, len(d1) - 1
    # unknowns: a_0..a_{na-1}, b_0..b_{nb-1};  r = a'*d1 - a*H + b*d2
    ncols = na + nb
    nrows = len(den) - 1
    rows = [{} for _ in range(nrows)]
    rhs = [r[i] if i < len(r) else f.zero for i in range(nrows)]
    for j in range(na):
        basis = [f.zero] * (j + 1)
        basis[j] = f.one
        contrib = _xp_sub(_xp_mul(_xp_diff(basis), d1), _xp_mul(basis, h))
        for i, c in enumerate(contrib[:nrows]):
            rows[i][j] = c
    for j in range(nb):
        basis = [f.zero] * (j + 1)
        basis[j] = f.one
        contrib = _xp_mul(basis, d2)
        for i, c in enumerate(contrib[:nrows]):
            rows[i][na + j] = c
    sol, _ = gauss_solve(rows, rhs, ncols, f)
    if sol is None:
        raise InvariantViolation("inconsistent Horowitz system")
    a, b = sol[:na], sol[na:]
    if all(c.is_zero() for c in b):
        if na > 0:
            anum = f.zero
            for i, c in enumerate(a):
                anum = anum + c * x ** i
            aden = f.zero
            for i, c in enumerate(d2):
                aden = aden + c * x ** i
            result = result + anum / aden
        return result
    if any((not c.is_zero()) and c.is_rational_number() for c in b):
        return None
    raise UndecidableResidue(
        "antiderivative existence depends on parameter values")

