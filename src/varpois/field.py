"""Exact arithmetic in the quasiconstant coefficient field Q(p_1,...,p_r)(x).

The derivation is d/dx; parameters are constants (their derivative is zero).
Every element is stored in the lowest of three tiers that can hold it:

- RAT: a plain rational, a ``zpoly.Rational``;
- POLY: a polynomial in x and the parameters that is not a plain rational,
  stored as P/m: P in Z[x, params] and m >= 1 an int with gcd(content P,
  m) = 1;
- FRAC: a fraction whose denominator is not a plain rational, stored as a
  pair numer/denom in Z[x, params], coprime, of joint content 1, with a
  positive leading coefficient below (the canonical form of sympy's
  ``PolyElement.cancel``).

Each value has exactly one stored form, so equality and hashing compare the
tier and the stored value.  Arithmetic dispatches on the operand tiers: rat
with rat is rational arithmetic, rat with poly scales or shifts the
polynomial, poly with poly stays in the ring, and a gcd cancellation runs
only where a common factor can appear (a quotient of polynomials, a product
with a fraction, a sum of fractions, the derivative of a fraction).  All
polynomial arithmetic is over Z (the integer-preserving elimination of
Bareiss, in the content form of Geddes-Czapor-Labahn): a POLY result only
needs the integer gcd of m and its coefficients, which stops at the first 1
and does not run at all when m = 1.  Every result with a fraction among its
operands, or a quotient by a polynomial, is read as a numerator and a
denominator over Z (``_zz_parts``) and cancelled (``_cancel``), whatever
the other operand's tier.  A sum of products, such as a coefficient of an
operator product, is one call of ``dot``, which cancels once on the total
instead of once per product and per partial sum.  Printing takes the
numerator and the denominator over Z.  ``_divide_content`` divides
numerators over Z (of F's polynomial ring, possibly in further variables
such as the jets of V) by their common factor with a known divisor: the
content that fraction-free elimination removes.  The elimination step calls
it on its integer sums, and ``_primitive_parts`` on polynomials with
coefficients in F.

The arithmetic under the tiers is the package's own (``zpoly``), so no
computation imports sympy; ``FieldElem.f`` converts a value to sympy's
Q(x, params) for reading it with sympy, and imports sympy when called.  How
a polynomial is stored follows the number of generators.  On F = Q(x),
with no parameters, every polynomial (the P of a POLY value, numer and
denom of a FRAC value) is a dense list of the int coefficients of x
(``zpoly._Dense``); with parameters it is a dict of sparse terms
(``zpoly.Poly``).  Both answer the same methods, so the tiers below never
ask which.  The gcds, cancellations and exact divisions go through four
kernels (``_cancel``, ``_gcd``, ``_lcm`` and ``zpoly.divrem``), which run
on the coefficient lists or on the terms by the type of their operands,
and through ``dot``, whose one ``_cancel`` serves a whole sum.
Only the readers that need terms (``FieldElem.f``, printing,
``x_coefficients``) and the passage of a value into and out of the ring
with jets (``_flat``, ``_unflat``), which is sparse, convert a dense
polynomial.

The rational-antiderivative test (Horowitz-Ostrogradsky) has no polynomial
arithmetic over C = Q(params) of its own: it splits the denominator with
those kernels and solves one ansatz through ``_match_x_coefficients``, the
builder that turns an identity in x into linear rows over C for every
ansatz system of the package."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Optional

from .linsolve import gauss_solve
from .zpoly import Poly, _dense, _sparse, cofactors, divrem, ground
from .zpoly import Rational as _Q

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


def extend_chain(chain: list, depth: int) -> list:
    """Extend the chain [c, c', c'', ...] in place to c^(depth), one derive
    per entry, and return it; the first zero derivative is stored as None
    and ends the chain, so an index at None or past the end reads zero."""
    while len(chain) <= depth and chain[-1] is not None:
        d = chain[-1].derive()
        chain.append(None if d.is_zero() else d)
    return chain


@lru_cache(maxsize=None)
def _sympy_field(names: tuple):
    """sympy's fraction field over Q on the generators names (imports
    sympy)."""
    from sympy import QQ
    from sympy.polys.fields import field
    return field(",".join(names), QQ)[0]


class CoefficientField:
    """The field F = Q(p_1,...,p_r)(x) with derivation d/dx.

    Generator 0 is x; generators 1..r are the declared parameters.
    """

    def __init__(self, params: Iterable[str] = ()):
        self.params = tuple(params)
        for p in self.params:
            if p in ("x", "d") or not p.isidentifier():
                raise ValueError(f"bad parameter name {p!r}")
        self._zm = (0,) * (1 + len(self.params))
        self.zero = FieldElem(self, RAT, _Q(0))
        self.one = FieldElem(self, RAT, _Q(1))
        self.x = FieldElem(self, POLY, _ZPoly(self._gen(0), 1))

    def __eq__(self, other):
        return isinstance(other, CoefficientField) and self.params == other.params

    def __hash__(self):
        return hash(("CoefficientField", self.params))

    def __repr__(self):
        ps = ",".join(self.params)
        return f"CoefficientField(x{',' if ps else ''}{ps})"

    def _gen(self, i: int):
        """Generator i of Z[x, params] (0 is x)."""
        return _from_terms(self, {self._zm[:i] + (1,) + self._zm[i + 1:]: 1})

    def param(self, name: str) -> "FieldElem":
        return FieldElem(self, POLY, _ZPoly(
            self._gen(1 + self.params.index(name)), 1))

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


def _terms(field: CoefficientField, P) -> dict:
    """{exponent tuple: int} of a polynomial of the field's ring, for the
    readers that need terms."""
    return P if field.params else _sparse(P)


def _from_terms(field: CoefficientField, terms: dict):
    """The polynomial of the field's ring with the given terms."""
    return Poly(terms) if field.params else _dense(terms)


# -- gcd kernels over Z ---------------------------------------------------------
#
# Every polynomial gcd, cancellation and exact division of this module runs
# through these, on ``zpoly``: one GCDHEU for the coefficient lists of a
# ``_Dense`` operand (one generator) and the sparse terms of a ``Poly``, and
# the subresultant PRS where the heuristic fails.  A gcd over Z is unique up
# to sign, so the canonical forms below do not depend on the path.

def _cancel(num, den) -> tuple:
    """num/den over Z in canonical form: coprime, of joint content 1, with
    a positive leading coefficient below (den != 0)."""
    if not num:
        return num, den ** 0
    _, p, q = cofactors(num, den)
    if q.LC < 0:
        p, q = -p, -q
    return p, q


def _gcd(a, b):
    """gcd(a, b) over Z, with a positive leading coefficient."""
    h = cofactors(a, b)[0]
    return -h if h.LC < 0 else h


def _lcm(a, b):
    """lcm(a, b) over Z: a*b / gcd(a, b), of the sign of a*b."""
    h, _, cfg = cofactors(a, b)
    return a * cfg if h.LC > 0 else -(a * cfg)


def _exquo(P, g):
    """P/g over Z, for a g known to divide P."""
    q, r = divrem(P, g)
    if r:
        raise InvariantViolation(f"{g} does not divide {P}")
    return q


# -- tier constructors and arithmetic on (tier, value) pairs -------------------
#
# These take (tier, value) pairs and return elements.  The FieldElem methods
# call them and never each other, so each public operation is one call
# whatever the operand tiers.

class _ZPoly:
    """A POLY value P/m: P in Z[x, params] not a constant and m >= 1 an
    int, with gcd(content P, m) = 1, so each value has one such pair."""

    __slots__ = ("P", "m")

    def __init__(self, P, m: int):
        self.P = P
        self.m = m

    def __eq__(self, other):
        return self.m == other.m and self.P == other.P

    def __neg__(self):
        return _ZPoly(-self.P, self.m)

    def __pow__(self, n: int):
        # content(P^n) = content(P)^n (Gauss), still prime to m^n
        return _ZPoly(self.P ** n, self.m ** n)


class _Frac:
    """A FRAC value numer/denom: numer and denom in Z[x, params], coprime,
    of joint content 1, with a positive leading coefficient below and denom
    not an integer."""

    __slots__ = ("numer", "denom")

    def __init__(self, numer, denom):
        self.numer = numer
        self.denom = denom

    def __eq__(self, other):
        return self.denom == other.denom and self.numer == other.numer

    def __neg__(self):
        return _Frac(-self.numer, self.denom)

    def __pow__(self, n: int):
        # coprime of joint content 1 with a positive leading coefficient
        # below stays so under powers
        return _Frac(self.numer ** n, self.denom ** n)


def _poly(field: CoefficientField, P, m: int = 1) -> "FieldElem":
    """P/m in its lowest tier, for P in Z[x, params] and m >= 1 with
    gcd(content P, m) = 1."""
    if not P.is_ground:
        return FieldElem(field, POLY, _ZPoly(P, m))
    return FieldElem(field, RAT, _Q(P.LC, m)) if P else field.zero


def _reduced(field: CoefficientField, P, m: int) -> "FieldElem":
    """P/m in its lowest tier, for P in Z[x, params] and an int m >= 1: the
    integer gcd stops at the first 1, and does not run when m = 1."""
    if m != 1 and P:
        g = P.content(m)
        if g != 1:
            P, m = P.quo_ground(g), m // g
    return _poly(field, P, m)


def _zz_parts(field: CoefficientField, k, v) -> tuple:
    """Numerator and denominator in Z[x, params] of a value: coprime, of
    joint content 1, with a positive leading coefficient below."""
    if k == FRAC:
        return v.numer, v.denom
    n = len(field._zm)
    if k == POLY:
        return v.P, ground(n, v.m)
    return ground(n, v.numerator), ground(n, v.denominator)


def _from_cancelled(field: CoefficientField, num, den) -> "FieldElem":
    """num/den, already in canonical form over Z, in its lowest tier."""
    if den.is_ground:
        return _poly(field, num, den.LC)
    return FieldElem(field, FRAC, _Frac(num, den))


def _poly_plus_rat(field, a: _ZPoly, q) -> "FieldElem":
    """P/m + r/s over l = lcm(m, s); never a plain rational."""
    if not q:
        return FieldElem(field, POLY, a)
    l = lcm(a.m, q.denominator)
    P = a.P if l == a.m else a.P.mul_ground(l // a.m)
    c = ground(len(field._zm), q.numerator * (l // q.denominator))
    return _reduced(field, P + c, l)


def _poly_plus_poly(field, a: _ZPoly, b: _ZPoly) -> "FieldElem":
    """P/m + Q/n over l = lcm(m, n)."""
    l = lcm(a.m, b.m)
    return _reduced(field, (a.P if l == a.m else a.P.mul_ground(l // a.m)) +
                    (b.P if l == b.m else b.P.mul_ground(l // b.m)), l)


def _add(field, ka, a, kb, b) -> "FieldElem":
    if ka > kb:
        ka, a, kb, b = kb, b, ka, a
    if kb == RAT:
        return FieldElem(field, RAT, a + b)
    if kb == POLY:
        if ka == RAT:
            return _poly_plus_rat(field, b, a)
        return _poly_plus_poly(field, a, b)
    na, da = _zz_parts(field, ka, a)
    if da == b.denom:
        num, den = na + b.numer, da
    else:
        num, den = na * b.denom + da * b.numer, da * b.denom
    return _from_cancelled(field, *_cancel(num, den))


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
            return _reduced(field, b.P.mul_ground(a.numerator),
                            a.denominator * b.m)
    elif kb == POLY:
        return _reduced(field, a.P * b.P, a.m * b.m)
    na, da = _zz_parts(field, ka, a)
    return _from_cancelled(field, *_cancel(na * b.numer, da * b.denom))


def _times(P, k: int):
    """P*k for a polynomial P over Z and an int k."""
    return P if k == 1 else P.mul_ground(k)


def dot(field: CoefficientField, triples) -> "FieldElem":
    """sum a*b*k over (a, b, k) triples of elements of F and ints, with at
    most one polynomial gcd.  Products over integer denominators meet over
    the lcm of those denominators, with one content reduction.  A product
    with a fraction keeps its numerator and denominator over Z uncancelled,
    and numerators over one polynomial denominator are added over the lcm
    of their integer factors.  Distinct denominators are combined by
    cross-multiplication, and one _cancel runs on the total."""
    q, polys = _Q(0), []   # the rational products; (P, m) for P/m
    fracs = {}             # polynomial denominator D -> (N, m): N/(m D)
    for a, b, k in triples:
        ka, va, kb, vb = a._k, a._v, b._k, b._v
        if ka > kb:
            ka, va, kb, vb = kb, vb, ka, va
        if kb == RAT:
            q = q + va * vb * k
            continue
        if ka == RAT:
            n, m = va.numerator * k, va.denominator
            if kb == POLY:
                polys.append((_times(vb.P, n), m * vb.m))
                continue
            num, den = _times(vb.numer, n), vb.denom
        elif kb == POLY:
            polys.append((_times(va.P * vb.P, k), va.m * vb.m))
            continue
        elif ka == POLY:
            num, den, m = _times(va.P * vb.numer, k), vb.denom, va.m
        else:
            num, den, m = _times(va.numer * vb.numer, k), \
                va.denom * vb.denom, 1
        if den in fracs:
            old, m0 = fracs[den]
            l = lcm(m0, m)
            num, m = _times(old, l // m0) + _times(num, l // m), l
        fracs[den] = (num, m)
    if not polys and not fracs:
        return FieldElem(field, RAT, q)
    l = lcm(q.denominator, *(m for _, m in polys))
    num = ground(len(field._zm), q.numerator * (l // q.denominator))
    for P, m in polys:
        num = _times(P, l // m) + num if num else _times(P, l // m)
    if not fracs:
        return _reduced(field, num, l)
    den = ground(len(field._zm), l)
    for D, (N, m) in fracs.items():
        D = _times(D, m)
        num, den = num * D + N * den, den * D
    return _from_cancelled(field, *_cancel(num, den))


def _div(field, ka, a, kb, b) -> "FieldElem":
    if kb == RAT:
        if not b:
            raise ZeroDivisionError("division by zero field element")
        if ka == RAT:
            return FieldElem(field, RAT, a / b)
        return _mul(field, RAT, 1 / b, ka, a)
    na, da = _zz_parts(field, ka, a)
    nb, db = _zz_parts(field, kb, b)
    return _from_cancelled(field, *_cancel(na * db, da * nb))


def _pow(field, k, v, n: int) -> "FieldElem":
    """v**n for n >= 0; a power of a canonical value is canonical."""
    if n == 0:
        return field.one
    return FieldElem(field, k, v ** n)


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
        over Q, for reading values with sympy; this imports sympy."""
        field = self.field
        K = _sympy_field(("x",) + field.params)
        num, den = (K.ring.from_dict({m: K.domain(c) for m, c in
                                      _terms(field, p).items()})
                    for p in _zz_parts(field, self._k, self._v))
        return K.raw_new(num, den)

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
        if self._k == RAT:
            return hash((self.field, self._v))
        if self._k == POLY:
            return hash((self.field, self._v.P, self._v.m))
        return hash((self.field, self._v.numer, self._v.denom))

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
            return _reduced(field, v.P.diff(0), v.m)
        num, den = v.numer, v.denom
        return _from_cancelled(field, *_cancel(
            num.diff(0) * den - num * den.diff(0), den ** 2))

    def is_constant(self) -> bool:
        """True iff free of x, i.e. in the constant subfield C = Q(params)."""
        if self._k == RAT:
            return True
        if self._k == POLY:
            return self._v.P.degree(0) == 0
        return self._v.numer.degree(0) == 0 == self._v.denom.degree(0)

    def is_rational_number(self) -> bool:
        """True iff a plain rational (free of x and of all parameters)."""
        return self._k == RAT

    def as_fraction(self) -> Fraction:
        if self._k != RAT:
            raise ValueError(f"{self} is not a plain rational number")
        return Fraction(int(self._v.numerator), int(self._v.denominator))

    def __repr__(self):
        return f"FieldElem({format_field_elem(self)})"


# -- printing ----------------------------------------------------------------

def _format_poly(field: CoefficientField, p: dict) -> str:
    """The terms {exponent tuple: coefficient} of a polynomial of Z[x,
    params], by descending exponent tuple."""
    names = ("x",) + field.params
    terms = sorted(p.items(), reverse=True)
    if not terms:
        return "0"
    parts = []
    for mono, q in terms:
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
    num, den = (_terms(v.field, p) for p in _zz_parts(v.field, v._k, v._v))
    ns = _format_poly(v.field, num)
    if den == {v.field._zm: 1}:
        return ns
    ds = _format_poly(v.field, den)
    if len(num) > 1 or ns.startswith("-"):
        ns = f"({ns})"
    # only a bare power or an integer may follow "/" unparenthesized:
    # 1/3*x reads as x/3
    if len(den) > 1 or "*" in ds:
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
    P, m = v._v.P, v._v.m
    buckets: dict = {}
    for mono, coeff in _terms(v.field, P).items():
        buckets.setdefault(mono[0], {})[(0,) + mono[1:]] = coeff
    return {k: _reduced(v.field, _from_terms(v.field, terms), m)
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
            m = lcm(m, v._v.denominator if v._k == RAT else v._v.m)
        q = _Q(m)
        return (FieldElem(field, RAT, q),
                [_mul(field, RAT, q, v._k, v._v) for v in values])
    # some value is a fraction, so some denominator is a real polynomial
    parts = [None if v.is_zero() else _zz_parts(field, v._k, v._v)
             for v in values]
    # over Z, not Q: a fold of sympy's lcm over Q (p q / monic gcd)
    # multiplies D by the leading coefficient of a repeated factor again
    den = None
    for q in dict.fromkeys(part[1] for part in parts if part is not None):
        den = q if den is None else _lcm(den, q)
    cleared = []
    for v, part in zip(values, parts):
        if part is None:
            cleared.append(v)
            continue
        cleared.append(_poly(field, part[0] * _exquo(den, part[1])))
    return _poly(field, den), cleared


def _match_x_coefficients(field, entries, rhs):
    """Turn sum_c gamma_c * entries[c] = rhs (FieldElem identity in x) into
    scalar rows over C by clearing denominators and matching powers of x."""
    _, cleared = clear_denominators(list(entries) + [rhs])
    cleared = [x_coefficients(p) for p in cleared]
    degrees = sorted(set().union(*cleared))
    rows = {d: {} for d in degrees}
    rhs_rows = {d: field.zero for d in degrees}
    for c, coeffs in enumerate(cleared[:-1]):
        for dkey, val in coeffs.items():
            rows[dkey][c] = val
    rhs_rows.update(cleared[-1])
    out_rows = [rows[d] for d in degrees]
    out_rhs = [rhs_rows[d] for d in degrees]
    return out_rows, out_rhs


def _primitive_parts(start: dict, polys: list) -> tuple:
    """Divide polynomials with coefficients in F by their common factor.

    A polynomial is a dict {mono: c}: mono is a tuple of (variable,
    exponent) pairs, sorted by variable, over variables of the caller's own
    (() for the constant term), and every c is a nonzero polynomial element
    (no FRAC).  The polynomials are read over Z[x, params, variables]
    (_flat) and divided by _divide_content, with `start` the known divisor;
    the factor is the gcd over Q[x, params, variables] of `start` and of
    all of `polys`, scaled so that the quotients have integer coefficients
    of joint content one.  Returns (factor, [p / factor for p in polys]),
    or (None, polys) when the factor is one or there is no polynomial.
    """
    if not polys:
        return None, polys
    field = next(iter(start.values())).field
    names = sorted({v for p in chain((start,), polys) for mono in p
                    for v, _ in mono})
    slots = {v: k for k, v in enumerate(names)}
    divided = _divide_content(_flat(field, start, slots)[0],
                              [_flat(field, p, slots) for p in polys])
    if divided is None:
        return None, polys
    G, den, parts = divided
    return _unflat(field, G, den, names), [_unflat(field, Q, 1, names)
                                           for Q in parts]


def _divide_content(start, numerators: list):
    """The content kernel of fraction-free elimination.  For numerators
    (P_i, m_i), standing for P_i/m_i with P_i != 0 in a ring Z[...], and
    a known divisor `start` != 0 in that ring: the common factor G/den of
    start and of the P_i/m_i, and the integer quotients P_i/(m_i G/den).
    G is g times an int, g the gcd of start and the P_i over Z[...],
    primitive with a positive leading coefficient, so G/den is the gcd
    over Q[...] scaled to leave quotients of joint content one.

    Only the primitive part of start can hold g's polynomial factors, and
    in a fraction-free step it is often all of g, so each P_i is first
    divided by the current candidate; where a remainder stays, cofactors
    shrinks the candidate to its gcd with P_i, and the quotients already
    taken are multiplied by the cofactor of the candidate, so no P_i is
    divided twice.  Returns (G, den, parts), or None when G/den = 1."""
    g = start
    c = g.content()
    if c != 1:
        g = g.quo_ground(c)
    if g.LC < 0:
        g = -g
    if g.is_ground:
        quotients = [P for P, _ in numerators]
    else:
        quotients = []
        for P, _ in numerators:
            Q, rem = divrem(P, g)
            if rem:
                h, cg, Q = cofactors(g, P)
                if h.LC < 0:
                    h, cg, Q = -h, -cg, -Q
                if h.is_ground:
                    # h = 1: no polynomial factor is common
                    g, quotients = h, [P for P, _ in numerators]
                    break
                g, quotients = h, [R * cg for R in quotients]
            quotients.append(Q)
    # P/m = g Q/m; num/den is the gcd of the contents of the Q/m
    num, den = 0, 1
    for Q, (_, m) in zip(quotients, numerators):
        c = Q.content()
        d = gcd(c, m)
        num, den = gcd(num, c // d), lcm(den, m // d)
    if g.is_ground and num == den == 1:
        return None
    parts = []
    for Q, (_, m) in zip(quotients, numerators):
        a, b = den, m * num
        d = gcd(a, b)
        a, b = a // d, b // d
        if a != 1:
            Q = Q.mul_ground(a)
        parts.append(Q.quo_ground(b) if b != 1 else Q)
    return g.mul_ground(num), den, parts


def _flat(field: CoefficientField, p: dict, slots: dict) -> tuple:
    """(P, m) with p = P/m for p = {mono: c}, each c a RAT or POLY element:
    P in Z[x, params] with the extra generators of `slots` (variable ->
    index) after x, params, and m the lcm of the denominators of the c.
    With no extra generator p is {(): c}, and P is c's numerator in the
    field's own ring."""
    if not slots:
        c = p[()]
        if c._k == RAT:
            return ground(len(field._zm), c._v.numerator), c._v.denominator
        return c._v.P, c._v.m
    m = 1
    for c in p.values():
        m = lcm(m, c._v.denominator if c._k == RAT else c._v.m)
    out = {}
    for mono, c in p.items():
        tail = [0] * len(slots)
        for v, e in mono:
            tail[slots[v]] = e
        tail = tuple(tail)
        if c._k == RAT:
            out[field._zm + tail] = c._v.numerator * (m // c._v.denominator)
            continue
        k = m // c._v.m
        for fm, a in _terms(field, c._v.P).items():
            out[fm + tail] = a * k
    return Poly(out), m


def _unflat(field: CoefficientField, P, m: int, names: list) -> dict:
    """The dict {mono: c} of P/m, for P in Z[x, params] with the extra
    generators `names` after x, params (_from_terms_over per
    coefficient)."""
    if not names:
        return {(): _reduced(field, P, m)}
    k = len(field._zm)
    grouped: dict = {}
    for exps, c in P.items():
        grouped.setdefault(exps[k:], {})[exps[:k]] = c
    return {tuple((v, e) for v, e in zip(names, tail) if e):
            _from_terms_over(field, terms, m)
            for tail, terms in grouped.items()}


def _from_terms_over(field: CoefficientField, terms: dict, m: int):
    """The element P/m for P = {exponents over x, params: int}, nonzero,
    and an int m >= 1: _reduced of P's polynomial, except that a lone term
    free of x and the parameters is the plain rational c/m, with no
    polynomial of the field's ring built for it."""
    if len(terms) == 1 and field._zm in terms:
        return FieldElem(field, RAT, _Q(terms[field._zm], m))
    return _reduced(field, _from_terms(field, terms), m)


def rational_antiderivative(v: FieldElem) -> Optional[FieldElem]:
    """Antiderivative of v in F when one exists; None when it provably does
    not; raises UndecidableResidue when the answer depends on parameter
    values.

    A polynomial integrates termwise.  A fraction num/den is split by the
    Horowitz-Ostrogradsky ansatz v = (q + a/d2)' + l b/d1 over C, with d2 =
    gcd(den, den') and d1 = den/d2 in Z[x, params] and l the leading
    coefficient of d1 in x, so that b is read against d1 made monic.  q is
    a polynomial without constant term, of degree at most deg num - deg den
    + 1; deg a < deg d2 and deg b < deg d1.  Times den the ansatz is the
    polynomial identity num = q' den + a' d1 - a h + l b d2, with h =
    d2' d1 / d2, matched coefficientwise in x; its solution is unique.  d1
    is squarefree, so v integrates in F iff b = 0.  A coefficient of b
    whose numerator in Z[params] is a nonzero integer (a nonzero rational,
    or one such as 1/c) vanishes at no value of the parameters, so it is a
    logarithm at every value; otherwise b vanishes only at special values.
    """
    field = v.field
    if v.is_zero():
        return field.zero
    x = field.x
    if v._k != FRAC:
        return sum((c / (k + 1) * x ** (k + 1)
                    for k, c in x_coefficients(v).items()), field.zero)
    num, den = v._v.numer, v._v.denom
    d2 = _gcd(den, den.diff(0))
    d1 = _exquo(den, d2)
    h = _exquo(d2.diff(0) * d1, d2)
    nq = max(0, num.degree(0) - den.degree(0) + 1)
    n2, n1 = d2.degree(0), d1.degree(0)
    lead = x_coefficients(_poly(field, d1))[n1]
    X = field._gen(0)
    # one column per coefficient of q, a and b: its term of the identity
    columns = ([_poly(field, (X ** (i + 1)).diff(0) * den) for i in range(nq)]
               + [_poly(field, (X ** j).diff(0) * d1 - X ** j * h)
                  for j in range(n2)]
               + [lead * _poly(field, X ** j * d2) for j in range(n1)])
    rows, rhs = _match_x_coefficients(field, columns, _poly(field, num))
    sol, null = gauss_solve(rows, rhs, len(columns), field)
    if sol is None or null:
        raise InvariantViolation("the Horowitz system has no unique solution")
    q, a, b = sol[:nq], sol[nq:nq + n2], sol[nq + n2:]
    if any(c._k == RAT and c._v or c._k == FRAC and c._v.numer.is_ground
           for c in b):
        return None
    if any(not c.is_zero() for c in b):
        raise UndecidableResidue(
            "antiderivative existence depends on parameter values")
    return (sum((c * x ** (i + 1) for i, c in enumerate(q)), field.zero) +
            sum((c * x ** j for j, c in enumerate(a)), field.zero) /
            _poly(field, d2))
