"""Exact integer arithmetic under the coefficient field: rationals, and
polynomials over Z in any number of generators with their gcds.

- ``Rational``: a rational in lowest terms with a positive denominator.  Its
  arithmetic is the gcd-normalized one of sympy's pure-Python ``PythonMPQ``
  (no float paths), and it hashes and compares equal as
  ``fractions.Fraction`` does.
- ``Poly``: a polynomial of Z[x_0, ..., x_(n-1)], n >= 2, a dict {exponent
  tuple: nonzero int}.  Terms are ordered lex by their exponent tuples, as
  in sympy's default ring, so ``LC`` is the coefficient of the largest
  tuple.  A ``Poly`` is mutable (its items can be set and deleted) and
  hashes by its terms, so hash it only once it is built.
- ``_Dense``: a polynomial of Z[x], one generator, as the tuple of its
  coefficients, highest degree first.  It has ``Poly``'s arithmetic and
  readers under the same names, so a caller treats both alike; ``ground(1,
  c)`` is dense.  ``_dense`` and ``_sparse`` convert between the two forms
  for readers that need terms.
- ``cofactors(f, g)``: (h, f/h, g/h) with h = gcd(f, g) over Z.  A
  one-term operand (for a ``_Dense``, a constant) is settled by the
  monomial gcd.  Otherwise one GCDHEU (Char, Geddes and Gonnet, J. Symb.
  Comput. 7, 1989) serves both forms: it sets x_0 to an integer, takes
  the gcd of the images (ints for a ``_Dense``; for a ``Poly``, through
  ``cofactors``, so images in one generator are ``_Dense``) and reads it
  back.  h has a positive leading coefficient, except where GCDHEU finds
  h as a quotient by an interpolated cofactor.  Where the heuristic fails
  ``HEU_GCD_MAX`` times, the subresultant PRS over Z[x_1, ...][x_0]
  (Brown and Traub, J. ACM 18, 1971) gives h with a positive leading
  coefficient; the gcds of coefficients it needs go back through
  ``cofactors``.
- ``divrem(P, g)``: division over Z that stops at the first leading term g
  does not divide; the remainder is zero exactly when g divides P.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from math import gcd, isqrt

HEU_GCD_MAX = 6  # evaluation points GCDHEU tries before the PRS fallback


class _HeuristicGCDFailed(Exception):
    """GCDHEU found no gcd at any of its evaluation points."""


# -- rationals -----------------------------------------------------------------

_HASH_MODULUS = sys.hash_info.modulus


class Rational:
    """p/q with gcd(p, q) = 1 and q >= 1; immutable.  The other operand of
    an operator may be a Rational, an int or a Fraction (anything with a
    numerator and a denominator in lowest terms)."""

    __slots__ = ("numerator", "denominator")

    def __new__(cls, numerator: int, denominator: int = 1):
        if not denominator:
            raise ZeroDivisionError(f"rational {numerator}/0")
        if denominator != 1:
            g = gcd(numerator, denominator)
            if denominator < 0:
                g = -g
            numerator, denominator = numerator // g, denominator // g
        return _rat(numerator, denominator)

    def __bool__(self):
        return bool(self.numerator)

    def __eq__(self, other):
        try:
            return (self.numerator == other.numerator
                    and self.denominator == other.denominator)
        except AttributeError:
            return NotImplemented

    def __hash__(self):
        # the hash of Fraction(p, q): p * q^-1 modulo the hash modulus
        p, q = self.numerator, self.denominator
        if q == 1:
            return hash(p)
        try:
            h = hash(hash(abs(p)) * pow(q, -1, _HASH_MODULUS))
        except ValueError:  # q is a multiple of the modulus
            h = sys.hash_info.inf
        h = h if p >= 0 else -h
        return -2 if h == -1 else h

    def __repr__(self):
        return f"Rational({self.numerator}, {self.denominator})"

    def __neg__(self):
        return _rat(-self.numerator, self.denominator)

    def __add__(self, other):
        ap, aq = self.numerator, self.denominator
        bp, bq = other.numerator, other.denominator
        g = gcd(aq, bq)
        if g == 1:
            return _rat(ap * bq + aq * bp, aq * bq)
        q1, q2 = aq // g, bq // g
        p = ap * q2 + bp * q1
        g2 = gcd(p, g)
        return _rat(p // g2, q1 * q2 * (g // g2))

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        ap, aq = self.numerator, self.denominator
        bp, bq = other.numerator, other.denominator
        x1, x2 = gcd(ap, bq), gcd(bp, aq)
        return _rat((ap // x1) * (bp // x2), (aq // x2) * (bq // x1))

    def __truediv__(self, other):
        return _quotient(self, other)

    def __rtruediv__(self, other):
        return _quotient(other, self)

    def __pow__(self, n: int):
        if n < 0:
            return _signed(self.denominator ** -n, self.numerator ** -n)
        return _rat(self.numerator ** n, self.denominator ** n)


_new = object.__new__


def _rat(p: int, q: int) -> Rational:
    """p/q for coprime p and q >= 1, without checks."""
    r = _new(Rational)
    r.numerator = p
    r.denominator = q
    return r


def _signed(p: int, q: int) -> Rational:
    """p/q for coprime p and q != 0."""
    if not q:
        raise ZeroDivisionError("rational division by zero")
    return _rat(-p, -q) if q < 0 else _rat(p, q)


def _quotient(a, b) -> Rational:
    """a/b for rationals in lowest terms (ints included)."""
    ap, aq = a.numerator, a.denominator
    bp, bq = b.numerator, b.denominator
    x1, x2 = gcd(ap, bp), gcd(bq, aq)
    return _signed(ap // x1 * (bq // x2), aq // x2 * (bp // x1))


# -- sparse polynomials over Z --------------------------------------------------

@lru_cache(maxsize=None)
def _monomial_mul(n: int):
    """(a, b) -> the componentwise sum of two exponent tuples of length n,
    as one tuple display (sympy builds its monomial products the same
    way)."""
    sums = "".join(f"a[{i}] + b[{i}], " for i in range(n))
    return eval(f"lambda a, b: ({sums})")


def nvars(p) -> int:
    """The number of generators of a nonzero polynomial."""
    return len(next(iter(p)))


def ground(n: int, c: int):
    """The constant c in n generators: a ``_Dense`` for one."""
    if n == 1:
        return _Dense((c,) if c else ())
    return Poly({(0,) * n: c}) if c else Poly()


class Poly(dict):
    """A polynomial of Z[x_0, ..., x_(n-1)]: {exponent tuple: nonzero int}.
    Polynomials in one generator are ``_Dense``; a ``Poly`` in one
    generator is only built by ``_sparse``, for readers that need terms."""

    __slots__ = ()

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __neg__(self):
        out = Poly()
        for m, c in self.items():
            out[m] = -c
        return out

    def __add__(self, other):
        out = Poly(self)
        get = out.get
        for m, c in other.items():
            c += get(m, 0)
            if c:
                out[m] = c
            else:
                del out[m]
        return out

    def __sub__(self, other):
        out = Poly(self)
        get = out.get
        for m, c in other.items():
            c = get(m, 0) - c
            if c:
                out[m] = c
            else:
                del out[m]
        return out

    def __mul__(self, other):
        out = Poly()
        if not self or not other:
            return out
        mul = _monomial_mul(nvars(self))
        get = out.get
        terms = list(other.items())
        for m1, c1 in self.items():
            for m2, c2 in terms:
                m = mul(m1, m2)
                out[m] = get(m, 0) + c1 * c2
        for m in [m for m, c in out.items() if not c]:
            del out[m]
        return out

    def __pow__(self, n: int):
        if n <= 1:
            return Poly(self) if n else Poly({(0,) * nvars(self): 1})
        if len(self) == 1:
            (m, c), = self.items()
            return Poly({tuple(e * n for e in m): c ** n})
        return _power(self, n)

    def mul_ground(self, k: int) -> "Poly":
        out = Poly()
        if k:
            for m, c in self.items():
                out[m] = c * k
        return out

    def quo_ground(self, k: int) -> "Poly":
        """The exact quotient by an int k that divides every coefficient."""
        out = Poly()
        for m, c in self.items():
            out[m] = c // k
        return out

    def diff(self, i: int) -> "Poly":
        """The derivative in generator i."""
        out = Poly()
        for m, c in self.items():
            e = m[i]
            if e:
                out[m[:i] + (e - 1,) + m[i + 1:]] = c * e
        return out

    def degree(self, i: int) -> int:
        """The degree in generator i; -1 for zero."""
        return max((m[i] for m in self), default=-1)

    @property
    def LC(self) -> int:
        """The coefficient of the lex-largest exponent tuple (0 for zero)."""
        return self[max(self)] if self else 0

    @property
    def is_ground(self) -> bool:
        """True for a constant, zero included."""
        return not self or len(self) == 1 and not any(next(iter(self)))

    def content(self, g: int = 0) -> int:
        """The gcd of g and the coefficients."""
        return content(self.values(), g)


def _power(base, n: int):
    """base**n for n >= 1 by square-and-multiply, for either form."""
    out = None
    while True:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if not n:
            return out
        base = base * base


def content(values, g: int = 0) -> int:
    """The gcd of g and the integers `values`, stopping at the first 1."""
    for c in values:
        g = gcd(g, c)
        if g == 1:
            break
    return g


def _primitive(p):
    """p over its positive integer content."""
    c = p.content() if p else 1
    return p if c == 1 else p.quo_ground(c)


def _sparse_divrem(P, g) -> tuple:
    """(q, r) with P = q g + r: the leading terms of P are divided out while
    g's leading term divides them, monomial and coefficient."""
    lm = max(g)
    lc = g[lm]
    tail = [(m, c) for m, c in g.items() if m != lm]
    mul = _monomial_mul(len(lm))
    q, r = Poly(), Poly(P)
    get = r.get
    while r:
        m = max(r)
        c, rem = divmod(r[m], lc)
        e = tuple(a - b for a, b in zip(m, lm))
        if rem or any(k < 0 for k in e):
            break
        q[e] = c
        del r[m]
        for mg, cg in tail:
            mm = mul(e, mg)
            v = get(mm, 0) - c * cg
            if v:
                r[mm] = v
            else:
                del r[mm]
    return q, r


def divrem(P, g) -> tuple:
    """(q, r) with P = q g + r over Z for g != 0; r = 0 exactly when g
    divides P.  ``_Dense``: division as sympy's ``dup_rr_div``; ints:
    ``divmod``."""
    if not P:
        return type(P)(), type(P)()
    if type(g) is _Dense:
        return _dup_div(P, g)
    if type(g) is int:
        return divmod(P, g)
    return _sparse_divrem(P, g)


# -- dense one-generator polynomials ---------------------------------------------

class _Dense(tuple):
    """A polynomial of Z[x]: its int coefficients, highest degree first,
    with no leading zero; () is zero.  Immutable, with ``Poly``'s methods
    under the same names (the generator index they take is always 0)."""

    __slots__ = ()

    def __neg__(self):
        return _Dense([-a for a in self])

    def __add__(self, other):
        if len(self) < len(other):
            self, other = other, self
        k = len(self) - len(other)
        out = list(self)
        for i, b in enumerate(other, k):
            out[i] += b
        return _Dense(out) if k else _strip(out)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if len(self) < len(other):
            self, other = other, self
        if len(other) <= 1:
            return self.mul_ground(other[0]) if other else other
        out = [0] * (len(self) + len(other) - 1)
        for i, b in enumerate(other):
            if b:
                for j, a in enumerate(self, i):
                    out[j] += a * b
        return _Dense(out)

    __rmul__ = __mul__  # not tuple repetition: an int operand raises

    def __pow__(self, n: int):
        return _power(self, n) if n else _Dense((1,))

    def mul_ground(self, k: int) -> "_Dense":
        return _Dense([a * k for a in self]) if k else _Dense()

    def quo_ground(self, k: int) -> "_Dense":
        """The exact quotient by an int k that divides every coefficient."""
        return _Dense([a // k for a in self])

    def diff(self, i: int) -> "_Dense":
        n = len(self) - 1
        return _Dense([a * (n - j) for j, a in enumerate(self[:-1])])

    def degree(self, i: int) -> int:
        return len(self) - 1

    @property
    def LC(self) -> int:
        return self[0] if self else 0

    @property
    def is_ground(self) -> bool:
        return len(self) < 2

    def content(self, g: int = 0) -> int:
        return content(self, g)

    def values(self):
        """The coefficients, zeros included."""
        return self


def _dense(p) -> _Dense:
    """The ``_Dense`` of the terms {(k,): c} of a one-generator polynomial."""
    if not p:
        return _Dense()
    n = max(p)[0]
    out = [0] * (n + 1)
    for (k,), c in p.items():
        out[n - k] = c
    return _Dense(out)


def _sparse(f) -> Poly:
    """The terms of a ``_Dense`` as a ``Poly`` in one generator, by
    ascending degree (the order of sympy's ``dup_to_dict``)."""
    n = len(f) - 1
    return Poly({(k,): f[n - k] for k in range(n + 1) if f[n - k]})


def _strip(f: list) -> _Dense:
    k = 0
    while k < len(f) and not f[k]:
        k += 1
    return _Dense(f[k:] if k else f)


def _dup_div(f, g) -> tuple:
    """(q, r) with f = q g + r, as sympy's ``dup_rr_div``: the leading
    coefficients of f are divided out, one degree at a time, while lc(g)
    divides them."""
    steps = len(f) - len(g) + 1
    if steps <= 0:
        return _Dense(), f
    lc, tail = g[0], g[1:]
    r = list(f)
    q = []
    for i in range(steps):
        c, rem = divmod(r[i], lc)
        if rem:
            break
        q.append(c)
        if c:
            for j, b in enumerate(tail, i + 1):
                r[j] -= c * b
    else:
        i = steps
    return _strip(q + [0] * (steps - len(q))), _strip(r[i:])


# -- gcds: GCDHEU, and the subresultant PRS where it fails ---------------------
#
# Both run on either form.  GCDHEU meets the form only in _evaluate (an int
# image of a _Dense, a polynomial in the other generators of a Poly),
# _interpolate (which reads either back into x_0) and _image_cofactors
# (math.gcd on ints, cofactors on polynomials); the PRS only in _in_x0 and
# _from_x0, whose coefficient lists hold ints, _Dense or Poly.

def _evaluate(p, x: int):
    """p with generator 0 set to x: an int for a ``_Dense``, otherwise a
    polynomial in the other generators, a ``_Dense`` when one is left."""
    if type(p) is _Dense:
        out = 0
        for c in p:
            out = out * x + c
        return out
    if nvars(p) == 2:
        coeffs = [0] * (p.degree(1) + 1)
        for (e, k), c in p.items():
            coeffs[-1 - k] += c * x ** e
        return _strip(coeffs)
    out = Poly()
    for m, c in p.items():
        rest = m[1:]
        c = c * x ** m[0] + out.get(rest, 0)
        if c:
            out[rest] = c
        else:
            del out[rest]
    return out


def _interpolate(h, x: int):
    """The polynomial whose coefficients of x_0^i are the digits of h in
    the symmetric residues base x: a ``_Dense`` for an int h; for h a
    polynomial in the generators after x_0, a ``Poly`` with a positive
    leading coefficient."""
    if type(h) is int:
        f = []
        half = x // 2
        while h:
            g = h % x
            if g > half:
                g -= x
            f.append(g)
            h = (h - g) // x
        f.reverse()
        return _Dense(f)
    f, i = Poly(), 0
    if type(h) is _Dense:  # the digits of each coefficient of x_1^k
        top = len(h) - 1
        for j, c in enumerate(h):
            for i, a in enumerate(reversed(_interpolate(c, x))):
                if a:
                    f[(i, top - j)] = a
        return -f if f.LC < 0 else f
    half = x // 2
    while h:
        g = Poly()
        for m, c in h.items():
            c %= x
            if c > half:
                c -= x
            if c:
                g[m] = c
        h = (h - g).quo_ground(x)
        for m, c in g.items():
            f[(i,) + m] = c
        i += 1
    return -f if f.LC < 0 else f


def _image_cofactors(a, b) -> tuple:
    """(h, a/h, b/h) with h = gcd(a, b) for nonzero ints or polynomials."""
    if type(a) is int:
        h = gcd(a, b)
        return h, a // h, b // h
    return cofactors(a, b)


def _heugcd(f, g) -> tuple:
    """GCDHEU for nonzero f, g of two or more terms: evaluate x_0 at a
    large integer, take the cofactors of the images (through ``cofactors``,
    so images in one generator run on dense lists), interpolate, and keep
    the first candidate h that divides both: the interpolated gcd made
    primitive, else f over the interpolated f/h, else g over the
    interpolated g/h."""
    cont = g.content(f.content())
    if cont != 1:
        f, g = f.quo_ground(cont), g.quo_ground(cont)
    f_norm = max(map(abs, f.values()))
    g_norm = max(map(abs, g.values()))
    B = 2 * min(f_norm, g_norm) + 29
    x = max(min(B, 99 * isqrt(B)),
            2 * min(f_norm // abs(f.LC), g_norm // abs(g.LC)) + 4)
    for _ in range(HEU_GCD_MAX):
        ff, gg = _evaluate(f, x), _evaluate(g, x)
        if ff and gg:
            h, cff, cfg = _image_cofactors(ff, gg)
            for p, image in ((None, h), (f, cff), (g, cfg)):
                h = _interpolate(image, x)
                if p is None:
                    h = _primitive(h)
                else:
                    h, r = divrem(p, h)
                    if r:
                        continue
                cff, r = divrem(f, h)
                if not r:
                    cfg, r = divrem(g, h)
                    if not r:
                        return h.mul_ground(cont), cff, cfg
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    raise _HeuristicGCDFailed


def _gcd_monom(f, g) -> tuple:
    """cofactors when f is one term: for a ``_Dense``, a constant."""
    if type(f) is _Dense:
        h = g.content(f[0])
        return _Dense((h,)), f.quo_ground(h), g.quo_ground(h)
    (mf, cf), = f.items()
    mh, ch = mf, cf
    for m, c in g.items():
        mh = tuple(map(min, mh, m))
        ch = gcd(ch, c)
    h = Poly({mh: ch})
    cff = Poly({tuple(a - b for a, b in zip(mf, mh)): cf // ch})
    cfg = Poly({tuple(a - b for a, b in zip(m, mh)): c // ch
                for m, c in g.items()})
    return h, cff, cfg


def _in_x0(p) -> list:
    """The coefficients of x_0^k in a nonzero p, highest k first: ints for a
    ``_Dense``, otherwise polynomials in the remaining generators."""
    if type(p) is _Dense:
        return list(p)
    out = [{} for _ in range(p.degree(0) + 1)]
    for m, c in p.items():
        out[-1 - m[0]][m[1:]] = c
    return [_dense(a) for a in out] if nvars(p) == 2 else list(map(Poly, out))


def _from_x0(coeffs: list):
    """The inverse of ``_in_x0``."""
    if type(coeffs[0]) is int:
        return _Dense(coeffs)
    out, top = Poly(), len(coeffs) - 1
    for k, c in enumerate(coeffs):
        for m, a in (_sparse(c) if type(c) is _Dense else c).items():
            out[(top - k,) + m] = a
    return out


def _primitive_in_x0(coeffs: list) -> tuple:
    """(content, primitive part) of a polynomial in x_0 given by its
    coefficient list: the gcd of the coefficients, and the list over it."""
    c = None
    for a in coeffs:
        if a:
            c = a if c is None else _image_cofactors(c, a)[0]
    return c, [divrem(a, c)[0] for a in coeffs]


def _prem(F: list, G: list) -> list:
    """The pseudo-remainder lc(G)^(deg F - deg G + 1) F mod G of
    coefficient lists in x_0, highest first, deg F >= deg G."""
    lc, n = G[0], len(G)
    r, N = F, len(F) - n + 1
    while len(r) >= n:
        lr = r[0]
        r = ([a * lc - b * lr for a, b in zip(r[1:], G[1:])]
             + [a * lc for a in r[n:]])
        N -= 1
        k = 0
        while k < len(r) and not r[k]:
            k += 1
        r = r[k:]
    return [a * lc ** N for a in r] if N else r


def _prs_gcd(f, g):
    """gcd(f, g) for nonzero f, g over Z, with a positive leading
    coefficient: the subresultant PRS in x_0 over Z[x_1, ...] (Brown and
    Traub, J. ACM 18, 1971) of the primitive parts.  Each pseudo-remainder
    is divided exactly by the known beta = -lc psi^delta, so only the
    inputs and the last remainder are made primitive, by gcds of their
    coefficients through ``cofactors``, GCDHEU first.  This is the
    fallback where GCDHEU fails."""
    cf, F = _primitive_in_x0(_in_x0(f))
    cg, G = _primitive_in_x0(_in_x0(g))
    c = _image_cofactors(cf, cg)[0]
    if len(F) < len(G):
        F, G = G, F
    lc, d = G[0], len(F) - len(G)
    psi = -lc ** d
    R = _prem(F, G)
    while len(R) > 1:  # signs left out: they change no exact division
        F, G, d = G, R, len(G) - len(R)
        beta = -lc * psi ** d
        R = [divrem(a, beta)[0] for a in _prem(F, G)]
        lc = G[0]
        psi = divrem((-lc) ** d, psi ** (d - 1))[0] if d > 1 else -lc
    # a zero remainder leaves G, the gcd up to content; a constant one,
    # coprime primitive parts
    G = [G[0] ** 0] if R else _primitive_in_x0(G)[1]
    h = _from_x0([a * c for a in G])
    return -h if h.LC < 0 else h


# -- the entry point ---------------------------------------------------------------

def cofactors(f, g) -> tuple:
    """(h, f/h, g/h) with h = gcd(f, g) over Z; a zero operand gives h =
    the other one with a nonnegative leading coefficient (and two zeros
    give zeros)."""
    if not f or not g:
        if not f and not g:
            return type(f)(), type(f)(), type(f)()
        p = g if not f else f
        s = -1 if p.LC < 0 else 1
        h, unit = p.mul_ground(s), (p ** 0).mul_ground(s)
        return (h, type(p)(), unit) if not f else (h, unit, type(p)())
    if len(f) == 1:
        return _gcd_monom(f, g)
    if len(g) == 1:
        h, cfg, cff = _gcd_monom(g, f)
        return h, cff, cfg
    try:
        return _heugcd(f, g)
    except _HeuristicGCDFailed:
        pass
    h = _prs_gcd(f, g)
    return h, divrem(f, h)[0], divrem(g, h)[0]
