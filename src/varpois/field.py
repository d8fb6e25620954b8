"""Exact arithmetic in the quasiconstant coefficient field Q(p_1,...,p_r)(x).

Elements are reduced fractions of sparse polynomials over Q in x and the
declared parameter symbols.  The derivation is d/dx; parameters are constants
(their derivative is zero).  The heavy lifting (sparse polynomial fractions,
gcd cancellation) is delegated to sympy's polynomial fraction fields.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from sympy import QQ
from sympy.polys.fields import field as _sympy_field


class UndecidableResidue(Exception):
    """The rational-antiderivative test branches on parameter values."""


class InvariantViolation(ArithmeticError):
    """An identity that exact arithmetic guarantees failed to hold."""


class CoefficientField:
    """The field F = Q(p_1,...,p_r)(x) with derivation d/dx.

    Generator 0 is x; generators 1..r are the declared parameters.
    """

    def __init__(self, params: Iterable[str] = ()):
        self.params = tuple(params)
        for p in self.params:
            if p in ("x", "d") or not p.isidentifier():
                raise ValueError(f"bad parameter name {p!r}")
        names = ",".join(("x",) + self.params) if self.params else "x"
        self._field, *gens = _sympy_field(names, QQ)
        self._gens = gens
        self.zero = FieldElem(self, self._field.zero)
        self.one = FieldElem(self, self._field.one)
        self.x = FieldElem(self, gens[0])

    def __eq__(self, other):
        return isinstance(other, CoefficientField) and self.params == other.params

    def __hash__(self):
        return hash(("CoefficientField", self.params))

    def __repr__(self):
        ps = ",".join(self.params)
        return f"CoefficientField(x{',' if ps else ''}{ps})"

    def param(self, name: str) -> "FieldElem":
        return FieldElem(self, self._gens[1 + self.params.index(name)])

    def rational(self, num, den=1) -> "FieldElem":
        q = Fraction(num, den) if den != 1 else Fraction(num)
        val = self._field.ground_new(QQ(q.numerator, q.denominator))
        return FieldElem(self, val)

    def coerce(self, v) -> "FieldElem":
        if isinstance(v, FieldElem):
            if v.field != self:
                raise ValueError("element from a different coefficient field")
            return v
        if isinstance(v, (int, Fraction)):
            return self.rational(v)
        raise TypeError(f"cannot coerce {type(v).__name__} into {self!r}")


class FieldElem:
    """One element of a CoefficientField; immutable."""

    __slots__ = ("field", "f")

    def __init__(self, field: CoefficientField, f):
        self.field = field
        self.f = f

    # -- arithmetic ---------------------------------------------------------

    def _rhs(self, other):
        if isinstance(other, FieldElem):
            if other.field != self.field:
                raise ValueError("mixed coefficient fields")
            return other.f
        if isinstance(other, int):
            return self.field._field.ground_new(QQ(other))
        if isinstance(other, Fraction):
            return self.field._field.ground_new(QQ(other.numerator, other.denominator))
        return None

    def __add__(self, other):
        g = self._rhs(other)
        if g is None:
            return NotImplemented
        return FieldElem(self.field, self.f + g)

    __radd__ = __add__

    def __sub__(self, other):
        g = self._rhs(other)
        if g is None:
            return NotImplemented
        return FieldElem(self.field, self.f - g)

    def __rsub__(self, other):
        g = self._rhs(other)
        if g is None:
            return NotImplemented
        return FieldElem(self.field, g - self.f)

    def __mul__(self, other):
        g = self._rhs(other)
        if g is None:
            return NotImplemented
        return FieldElem(self.field, self.f * g)

    __rmul__ = __mul__

    def __truediv__(self, other):
        g = self._rhs(other)
        if g is None:
            return NotImplemented
        if g == 0:
            raise ZeroDivisionError("division by zero field element")
        return FieldElem(self.field, self.f / g)

    def __rtruediv__(self, other):
        g = self._rhs(other)
        if g is None:
            return NotImplemented
        if self.is_zero():
            raise ZeroDivisionError("division by zero field element")
        return FieldElem(self.field, g / self.f)

    def __pow__(self, n: int):
        return FieldElem(self.field, self.f ** n)

    def __neg__(self):
        return FieldElem(self.field, -self.f)

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.field == other.field and self.f == other.f
        if isinstance(other, (int, Fraction)):
            return self.f == self._rhs(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.f))

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.f

    def is_one(self) -> bool:
        return self.f == self.field._field.one

    def derive(self) -> "FieldElem":
        """d/dx; parameters are killed."""
        return FieldElem(self.field, self.f.diff(self.field._gens[0]))

    def is_constant(self) -> bool:
        """True iff free of x, i.e. in the constant subfield C = Q(params)."""
        return all(m[0] == 0 for m in self.f.numer.monoms()) and \
            all(m[0] == 0 for m in self.f.denom.monoms())

    def is_rational_number(self) -> bool:
        """True iff a plain rational (free of x and of all parameters)."""
        return all(all(e == 0 for e in m) for m in self.f.numer.monoms()) and \
            all(all(e == 0 for e in m) for m in self.f.denom.monoms())

    def as_fraction(self) -> Fraction:
        if not self.is_rational_number():
            raise ValueError(f"{self} is not a plain rational number")
        if self.is_zero():
            return Fraction(0)
        nc = list(self.f.numer.terms())[0][1]
        dc = list(self.f.denom.terms())[0][1]
        q = QQ(nc) / QQ(dc)
        return Fraction(int(q.numerator), int(q.denominator))

    def x_degree(self) -> int:
        """Degree in x of the numerator minus that of the denominator."""
        nd = max((m[0] for m in self.f.numer.monoms()), default=0)
        dd = max((m[0] for m in self.f.denom.monoms()), default=0)
        return nd - dd

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
    num, den = v.f.numer, v.f.denom
    ns = _format_poly(v.field, num)
    if den == den.ring.one:
        return ns
    ds = _format_poly(v.field, den)
    if len(num.terms()) > 1 or ns.startswith("-"):
        ns = f"({ns})"
    if len(den.terms()) > 1:
        ds = f"({ds})"
    return f"{ns}/{ds}"


# -- univariate (in x) machinery for the antiderivative test ------------------

def _x_poly(v: FieldElem, p) -> list:
    """PolyElement -> dense coefficient list in x over C (FieldElem values)."""
    field = v.field
    ring = p.ring
    buckets: dict[int, object] = {}
    for mono, coeff in p.terms():
        key = mono[0]
        rest = ring.term_new((0,) + mono[1:], coeff)
        buckets[key] = buckets.get(key, ring.zero) + rest
    deg = max(buckets, default=0)
    out = []
    for k in range(deg + 1):
        q = buckets.get(k, ring.zero)
        out.append(FieldElem(field, field._field.field_new(q)))
    while len(out) > 1 and out[-1].is_zero():
        out.pop()
    return out


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
    num = _x_poly(v, v.f.numer)
    den = _x_poly(v, v.f.denom)
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
    rows = [[f.zero] * ncols for _ in range(nrows)]
    rhs = [r[i] if i < len(r) else f.zero for i in range(nrows)]
    for j in range(na):
        basis = [f.zero] * (j + 1)
        basis[j] = f.one
        contrib = _xp_sub(_xp_mul(_xp_diff(basis), d1), _xp_mul(basis, h))
        for i, c in enumerate(contrib):
            if i < nrows:
                rows[i][j] = rows[i][j] + c
    for j in range(nb):
        basis = [f.zero] * (j + 1)
        basis[j] = f.one
        contrib = _xp_mul(basis, d2)
        for i, c in enumerate(contrib):
            if i < nrows:
                rows[i][na + j] = rows[i][na + j] + c
    sol = _solve_square(rows, rhs, f)
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


def _solve_square(rows, rhs, f) -> list:
    """Gaussian elimination; the Horowitz system is uniquely solvable."""
    m, n = len(rows), (len(rows[0]) if rows else 0)
    rows = [list(r) for r in rows]
    rhs = list(rhs)
    piv_of_col = {}
    row = 0
    for col in range(n):
        p = next((i for i in range(row, m) if not rows[i][col].is_zero()), None)
        if p is None:
            continue
        rows[row], rows[p] = rows[p], rows[row]
        rhs[row], rhs[p] = rhs[p], rhs[row]
        inv = f.one / rows[row][col]
        rows[row] = [c * inv for c in rows[row]]
        rhs[row] = rhs[row] * inv
        for i in range(m):
            if i != row and not rows[i][col].is_zero():
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[row])]
                rhs[i] = rhs[i] - c * rhs[row]
        piv_of_col[col] = row
        row += 1
    for i in range(row, m):
        if not rhs[i].is_zero():
            raise InvariantViolation("inconsistent Horowitz system")
    return [rhs[piv_of_col[c]] if c in piv_of_col else f.zero for c in range(n)]
