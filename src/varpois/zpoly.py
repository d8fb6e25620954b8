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
- ``cofactors(f, g)``: (h, f/h, g/h) with h = gcd(f, g) over Z, by GCDHEU
  (Char, Geddes and Gonnet, J. Symb. Comput. 7, 1989) on the primitive
  parts.  On ``_Dense`` operands it runs on the coefficients.  On ``Poly``
  operands a one-term operand is settled by the monomial gcd; otherwise
  GCDHEU sets x_0 to an integer and recurses through ``cofactors`` on the
  images, so images in one generator are ``_Dense``.  h has a positive
  leading coefficient, except where GCDHEU finds h as a quotient by an
  interpolated cofactor.  Where the heuristic fails ``HEU_GCD_MAX`` times
  on a polynomial, a primitive PRS over Z[x_1, ...][x_0] gives its h with
  a positive leading coefficient.
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
    Polynomials in one generator are ``_Dense``; a ``Poly`` in fewer than
    two generators is only built inside the PRS fallback."""

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
        out = None
        base = self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

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
    divides P.  ``_Dense``: division as sympy's ``dup_rr_div``."""
    if not P:
        return type(P)(), type(P)()
    if type(g) is _Dense:
        return _dup_div(P, g)
    return _sparse_divrem(P, g)


# -- sparse GCDHEU ---------------------------------------------------------------

def _evaluate(p, x: int):
    """p with generator 0 set to x: a polynomial in the others, a
    ``_Dense`` when one is left."""
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
    """The polynomial whose coefficients of x_0^i, read in the symmetric
    residues base x, are the digits of h (a polynomial in the generators
    after x_0), with a positive leading coefficient."""
    f, i = Poly(), 0
    if type(h) is _Dense:  # the digits of each coefficient of x_1^k
        top = len(h) - 1
        for j, c in enumerate(h):
            for i, a in enumerate(reversed(_dup_interpolate(c, x))):
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


def _heugcd(f, g) -> tuple:
    """GCDHEU in Z[x_0, x_1, ...], two or more generators, for nonzero f,
    g: evaluate x_0 at a large integer, take the cofactors of the images
    (through ``cofactors``, so images in one generator run on dense lists),
    interpolate, and keep the first candidate that divides both."""
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
            h, cff, cfg = cofactors(ff, gg)
            h = _primitive(_interpolate(h, x))
            cff_, r = _sparse_divrem(f, h)
            if not r:
                cfg_, r = _sparse_divrem(g, h)
                if not r:
                    return h.mul_ground(cont), cff_, cfg_
            cff = _interpolate(cff, x)
            h, r = _sparse_divrem(f, cff)
            if not r:
                cfg_, r = _sparse_divrem(g, h)
                if not r:
                    return h.mul_ground(cont), cff, cfg_
            cfg = _interpolate(cfg, x)
            h, r = _sparse_divrem(g, cfg)
            if not r:
                cff_, r = _sparse_divrem(f, h)
                if not r:
                    return h.mul_ground(cont), cff_, cfg
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    raise _HeuristicGCDFailed


def _gcd_monom(f, g) -> tuple:
    """cofactors when f is one term."""
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


# -- the PRS fallback over Z[x_1, ...][x_0] ------------------------------------

def _in_x0(p) -> list:
    """The coefficients of x_0^k in a nonzero p, highest k first, each a
    polynomial in the remaining generators (exponent tuple () for none)."""
    out = [Poly() for _ in range(p.degree(0) + 1)]
    for m, c in p.items():
        out[-1 - m[0]][m[1:]] = c
    return out


def _from_x0(coeffs: list):
    """The inverse of ``_in_x0``."""
    out = Poly()
    top = len(coeffs) - 1
    for k, c in enumerate(coeffs):
        for m, a in c.items():
            out[(top - k,) + m] = a
    return out


def _gcd_list(polys):
    """The gcd of nonzero polynomials in the same generators, positive
    leading coefficient."""
    h = polys[0]
    for p in polys[1:]:
        if h.is_ground and h.content() == 1:
            break
        h = _prs_gcd(h, p)
    return -h if h.LC < 0 else h


def _split_content(coeffs: list) -> tuple:
    """(content, primitive part) of a polynomial in x_0 given by its
    coefficient list; the content is a polynomial in the other generators."""
    c = _gcd_list([a for a in coeffs if a])
    return c, [_sparse_divrem(a, c)[0] if a else a for a in coeffs]


def _prem(F: list, G: list) -> list:
    """F times a power of lc(G), reduced modulo G: a pseudo-remainder with
    the power left out, which changes only the content.  Coefficient lists
    in x_0, highest first; the coefficients are polynomials, or ints for
    ``_dup_prs_gcd``."""
    lc = G[0]
    r = F
    while len(r) >= len(G):
        lr = r[0]
        shifted = [a * lr for a in G] + [type(lr)()] * (len(r) - len(G))
        r = [a * lc - b for a, b in zip(r, shifted)]
        while r and not r[0]:
            r.pop(0)
    return r


def _prs_gcd(f, g):
    """gcd(f, g) for nonzero f, g over Z, with a positive leading
    coefficient: the primitive PRS in x_0 over Z[x_1, ...] (Geddes, Czapor
    and Labahn, 1992, section 7.3) with recursive contents.  This is the
    fallback where GCDHEU fails."""
    n = nvars(f)
    if n == 0:
        return Poly({(): gcd(f[()], g[()])})
    cf, F = _split_content(_in_x0(f))
    cg, G = _split_content(_in_x0(g))
    c = _gcd_list([cf, cg])
    if len(F) < len(G):
        F, G = G, F
    while len(G) > 1:
        R = _prem(F, G)
        if not R:
            break  # G divides F: the primitive parts have the gcd G
        F, G = G, _split_content(R)[1]
    else:
        G = [Poly({(0,) * (n - 1): 1})]  # a remainder free of x_0: coprime
    h = _from_x0([a * c for a in G])
    return -h if h.LC < 0 else h


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
        out, base = _Dense((1,)), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

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


def _dup_primitive(f: _Dense) -> _Dense:
    c = content(f)
    return f if c in (0, 1) else f.quo_ground(c)


def _dup_eval(f, x: int) -> int:
    out = 0
    for c in f:
        out = out * x + c
    return out


def _dup_interpolate(h: int, x: int) -> _Dense:
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


def _dup_heu_gcd(f: _Dense, g: _Dense) -> tuple:
    """GCDHEU on the coefficients of nonzero f, g: (h, f/h, g/h)."""
    df, dg = len(f) - 1, len(g) - 1
    cont = content(g, content(f))
    if cont != 1:
        f, g = f.quo_ground(cont), g.quo_ground(cont)
    if df == 0 or dg == 0:
        return _Dense((cont,)), f, g
    f_norm, g_norm = max(map(abs, f)), max(map(abs, g))
    B = 2 * min(f_norm, g_norm) + 29
    x = max(min(B, 99 * isqrt(B)),
            2 * min(f_norm // abs(f[0]), g_norm // abs(g[0])) + 4)
    for _ in range(HEU_GCD_MAX):
        ff, gg = _dup_eval(f, x), _dup_eval(g, x)
        if ff and gg:
            h = gcd(ff, gg)
            cff, cfg = ff // h, gg // h
            h = _dup_primitive(_dup_interpolate(h, x))
            cff_, r = _dup_div(f, h)
            if not r:
                cfg_, r = _dup_div(g, h)
                if not r:
                    return h.mul_ground(cont), cff_, cfg_
            cff = _dup_interpolate(cff, x)
            h, r = _dup_div(f, cff)
            if not r:
                cfg_, r = _dup_div(g, h)
                if not r:
                    return h.mul_ground(cont), cff, cfg_
            cfg = _dup_interpolate(cfg, x)
            h, r = _dup_div(g, cfg)
            if not r:
                cff_, r = _dup_div(f, h)
                if not r:
                    return h.mul_ground(cont), cff_, cfg
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    raise _HeuristicGCDFailed


def _dup_prs_gcd(f: _Dense, g: _Dense) -> _Dense:
    """gcd(f, g) for nonzero f, g, with a positive leading coefficient: the
    primitive PRS of ``_prs_gcd``, whose contents here are ints."""
    c = gcd(content(f), content(g))
    F, G = _dup_primitive(f), _dup_primitive(g)
    if len(F) < len(G):
        F, G = G, F
    while len(G) > 1:
        R = _prem(list(F), list(G))
        if not R:
            break  # G divides F: the primitive parts have the gcd G
        F, G = G, _dup_primitive(_Dense(R))
    else:
        G = _Dense((1,))  # a constant remainder: coprime parts
    return G.mul_ground(c if G[0] > 0 else -c)


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
    if type(f) is _Dense:
        try:
            return _dup_heu_gcd(f, g)
        except _HeuristicGCDFailed:
            pass
        h = _dup_prs_gcd(f, g)
    elif len(f) == 1:
        return _gcd_monom(f, g)
    elif len(g) == 1:
        h, cfg, cff = _gcd_monom(g, f)
        return h, cff, cfg
    else:
        try:
            return _heugcd(f, g)
        except _HeuristicGCDFailed:
            pass
        h = _prs_gcd(f, g)
    return h, divrem(f, h)[0], divrem(g, h)[0]
