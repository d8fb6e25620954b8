"""The differential polynomial algebra V = F[u_i^(n)] over F = Q(params)(x).

A DiffPoly is a sparse polynomial in the jet variables u_i^(n), i in 1..nvars,
n >= 0, with coefficients in the quasiconstant field F.  Monomial keys are
tuples of ((n, i), exponent) pairs sorted by (n, i), so equality is
structural.  The total derivative acts by

    d = d/dx + sum_{i,n} u_i^(n+1) d/du_i^(n).

Coefficients only need +, -, *, derive() and is_zero(); besides FieldElem
this admits the linear forms used by the differential-system solvers.

The variational derivative is taken in Horner form, f_0 - d(f_1 - d(f_2 -
...)) with f_n = df/du_i^(n): one derive per order, not n per order n.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .field import (CoefficientField, FieldElem, _primitive_parts,
                    accumulate, clear_denominators, extend_chain,
                    format_field_elem, rational_antiderivative)

Mono = tuple  # tuple of ((n, i), exp), sorted ascending by (n, i)


class NotExact(Exception):
    """The 1-form fails the selfadjointness (exactness) criterion.
    reconstruct_density sets witness to D_F - D_F*."""

    witness = None


class DiffAlgebra:
    """Context: number of dependent variables and the coefficient field."""

    def __init__(self, nvars: int = 1, params: Iterable[str] = ()):
        if nvars < 1:
            raise ValueError("need at least one dependent variable")
        self.nvars = nvars
        self.field = CoefficientField(params)
        self.zero = DiffPoly(self, {})
        self.one = DiffPoly(self, {(): self.field.one})

    def __eq__(self, other):
        return (isinstance(other, DiffAlgebra) and self.nvars == other.nvars
                and self.field == other.field)

    def __hash__(self):
        return hash(("DiffAlgebra", self.nvars, self.field))

    def __repr__(self):
        return f"DiffAlgebra(nvars={self.nvars}, params={self.field.params})"

    def jet(self, i: int, n: int = 0) -> "DiffPoly":
        """The variable u_i^(n); indices are 1-based."""
        if not 1 <= i <= self.nvars:
            raise IndexError(f"jet index {i} out of range 1..{self.nvars}")
        if n < 0:
            raise ValueError("jet order must be nonnegative")
        return DiffPoly(self, {(((n, i), 1),): self.field.one})

    def from_scalar(self, c) -> "DiffPoly":
        c = self.field.coerce(c) if not _is_scalar(c) else c
        if c.is_zero():
            return self.zero
        return DiffPoly(self, {(): c})

    def x(self) -> "DiffPoly":
        return self.from_scalar(self.field.x)

    def param(self, name: str) -> "DiffPoly":
        return self.from_scalar(self.field.param(name))


def _is_scalar(c) -> bool:
    return hasattr(c, "is_zero") and hasattr(c, "derive")


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for v, e in b:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def _mono_sort_key(m: Mono):
    """Display order of monomials: higher degree first, ties broken by
    comparing (variable, exponent) pairs from the largest variable (n, i)
    down, a larger variable counting as smaller.  Not a monomial order
    (u'' < u' but u''^2 > u' u'')."""
    return (mono_degree(m), tuple(sorted(((-n, -i), e) for (n, i), e in m)))


class DiffPoly:
    """Element of V (or of V tensored with a linear-form coefficient module).

    Immutable; do not mutate ``terms`` after construction.
    """

    __slots__ = ("alg", "terms")

    def __init__(self, alg: DiffAlgebra, terms: dict):
        self.alg = alg
        self.terms = terms

    # -- constructors & coercion ---------------------------------------------

    def _coerce(self, other) -> Optional["DiffPoly"]:
        if isinstance(other, DiffPoly):
            if other.alg is not self.alg and other.alg != self.alg:
                raise ValueError("mixed differential algebras")
            return other
        if isinstance(other, (int, Fraction, FieldElem)):
            return self.alg.from_scalar(self.alg.field.coerce(other))
        if _is_scalar(other):
            return DiffPoly(self.alg, {(): other})
        return None

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in o.terms.items():
            accumulate(out, m, c)
        return DiffPoly(self.alg, out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return DiffPoly(self.alg, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in o.terms.items():
                accumulate(out, _mono_mul(ma, mb), ca * cb)
        return DiffPoly(self.alg, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, FieldElem)):
            c = self.alg.field.coerce(other)
            inv = self.alg.field.one / c
            return self.scale(inv)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a differential polynomial")
        out = self.alg.one
        for _ in range(n):
            out = out * self
        return out

    def scale(self, c) -> "DiffPoly":
        if _is_scalar(c) and c.is_zero():
            return self.alg.zero
        out = {}
        for m, v in self.terms.items():
            w = v * c
            if not w.is_zero():
                out[m] = w
        return DiffPoly(self.alg, out)

    def __eq__(self, other):
        if isinstance(other, DiffRat):
            # a fraction is not a coefficient: DiffRat compares the values
            return NotImplemented
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash((self.alg, tuple(sorted(self.terms.items(),
                                            key=lambda kv: kv[0]))))

    def is_zero(self) -> bool:
        return not self.terms

    # -- differential structure ------------------------------------------------

    def derive(self) -> "DiffPoly":
        """Total derivative d = d/dx + sum u_i^(n+1) d/du_i^(n)."""
        out: dict = {}
        for m, c in self.terms.items():
            dc = c.derive()
            if not dc.is_zero():
                accumulate(out, m, dc)
            for idx, ((n, i), e) in enumerate(m):
                rest = list(m)
                if e == 1:
                    del rest[idx]
                else:
                    rest[idx] = ((n, i), e - 1)
                bumped = _mono_mul(tuple(rest), (((n + 1, i), 1),))
                accumulate(out, bumped, c if e == 1 else c * e)
        return DiffPoly(self.alg, out)

    def jet_partial(self, i: int, n: int) -> "DiffPoly":
        """Partial derivative with respect to u_i^(n)."""
        out: dict = {}
        key = (n, i)
        for m, c in self.terms.items():
            d = dict(m)
            if key not in d:
                continue
            e = d[key]
            if e == 1:
                del d[key]
            else:
                d[key] = e - 1
            accumulate(out, tuple(sorted(d.items())), c if e == 1 else c * e)
        return DiffPoly(self.alg, out)

    def jet_support(self) -> set:
        """All (n, i) pairs occurring in some monomial."""
        vs = set()
        for m in self.terms:
            vs.update(v for v, _ in m)
        return vs

    def max_jet(self) -> Optional[tuple]:
        """Lexicographically largest (n, i) present, or None."""
        vs = self.jet_support()
        return max(vs) if vs else None

    def is_quasiconstant(self) -> bool:
        return all(not m for m in self.terms)

    def quasiconstant_part(self):
        """Evaluation at u = 0 (all jets to zero): element of F."""
        return self.terms.get((), self.alg.field.zero)

    def jet_degree_parts(self) -> dict:
        """Split into homogeneous components by total degree in the jets."""
        parts: dict = {}
        for m, c in self.terms.items():
            parts.setdefault(mono_degree(m), {})[m] = c
        return {d: DiffPoly(self.alg, t) for d, t in parts.items()}

    # -- display ----------------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _mono_sort_key(kv[0]),
                      reverse=True)

    def __repr__(self):
        return f"DiffPoly({format_diff_poly(self)})"


def format_jet(i: int, n: int, nvars: int) -> str:
    base = "u" if nvars == 1 else f"u{i}"
    if n == 0:
        return base
    if n == 1:
        return base + "'"
    if n == 2:
        return base + "''"
    return base + f"^({n})"


def format_diff_poly(p: DiffPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for m, c in p.sorted_terms():
        if isinstance(c, FieldElem):
            cs = format_field_elem(c)
        else:
            cs = str(c)
        factors = [format_jet(i, n, p.alg.nvars) +
                   (f"^{e}" if e > 1 else "")
                   for (n, i), e in sorted(m, reverse=True)]
        neg = cs.startswith("-") and "+" not in cs[1:] and "-" not in cs[1:] \
            and "/" not in cs  # only simple leading-negative monomial coeffs
        if factors:
            if cs == "1":
                body = "*".join(factors)
                sign = "+"
            elif cs == "-1":
                body = "*".join(factors)
                sign = "-"
            elif neg:
                body = cs[1:] + "*" + "*".join(factors)
                sign = "-"
            else:
                if ("+" in cs[1:] or "-" in cs[1:] or "/" in cs) and "(" not in cs:
                    cs = f"({cs})"
                body = cs + "*" + "*".join(factors)
                sign = "+"
        else:
            if neg:
                body, sign = cs[1:], "-"
            else:
                if ("+" in cs[1:] or "-" in cs[1:]) and "(" not in cs:
                    cs = f"({cs})"
                body, sign = cs, "+"
        parts.append((sign, body))
    s0, b0 = parts[0]
    out = ("-" if s0 == "-" else "") + b0
    for s, b in parts[1:]:
        out += f" {s} {b}"
    return out


# -- calculus operators --------------------------------------------------------


def variational_derivative(f: DiffPoly) -> tuple:
    """delta f / delta u_i = sum_n (-d)^n f_n, f_n = df/du_i^(n), for i =
    1..nvars, in Horner form f_0 - d(f_1 - d(f_2 - ... - d f_N))."""
    out = []
    for i in range(1, f.alg.nvars + 1):
        top = max((n for (n, j) in f.jet_support() if j == i), default=-1)
        acc = f.jet_partial(i, top) if top >= 0 else f.alg.zero
        for n in range(top - 1, -1, -1):
            acc = f.jet_partial(i, n) - acc.derive()
        out.append(acc)
    return tuple(out)


class OutOfFiltration(Exception):
    """Input does not lie in the stated jet-filtration slice."""


def partial_antiderivative(f: DiffPoly, i: int, m: int,
                           check: bool = True) -> DiffPoly:
    """Inverse of d/du_i^(m) on polynomials: integrate each monomial in the
    single variable u_i^(m).  The result has positive degree in u_i^(m).
    With check=True the input may not involve jets beyond (m, i) in
    lexicographic order (the filtration slice where this inverts the
    partial)."""
    v = (m, i)
    if check and any(w > v for w in f.jet_support()):
        raise OutOfFiltration(
            f"element involves jets beyond order {m} of u{i}")
    out = f.alg.zero
    for mono, c in f.terms.items():
        d = dict(mono)
        e = d.get(v, 0)
        d[v] = e + 1
        out = out + DiffPoly(f.alg, {tuple(sorted(d.items())):
                                     c if e == 0 else c * Fraction(1, e + 1)})
    return out


def antiderivative_in_v(f: DiffPoly) -> DiffPoly:
    """Find g in V with g' = f, assuming f is a total derivative.

    Repeatedly strips the lexicographically top jet variable u_i^(n) by one
    integration by parts; the quasiconstant remainder, which is always
    eps(f), is integrated in x.  If f = G' + c, G's top jet is u_i^(n-1) and
    df/du_i^(n) = dG/du_i^(n-1) involves only jets up to (n-1, i), so a
    coefficient reaching beyond that proves f is not in dV.  Each step
    lowers the top jet strictly, so the loop ends.

    Raises NotExact if f is not in dV, and UndecidableResidue when the
    quasiconstant residue test branches on parameters.
    """
    alg = f.alg
    g = alg.zero
    rem = f
    while not rem.is_quasiconstant():
        n, i = rem.max_jet()
        if n == 0:
            raise NotExact(f"not a total derivative: top jet has order 0 "
                           f"(u{i} appears underived)")
        a = rem.jet_partial(i, n)
        if any(j > (n - 1, i) for j in a.jet_support()):
            raise NotExact("not a total derivative: the coefficient of the "
                           "top jet involves jets beyond its antiderivative")
        block = partial_antiderivative(a, i, n - 1, check=False)
        g = g + block
        rem = rem - block.derive()
    r = rem.quasiconstant_part()
    if not isinstance(r, FieldElem):
        raise TypeError("the quasiconstant residue needs field coefficients")
    anti = rational_antiderivative(r)
    if anti is None:
        raise NotExact("quasiconstant residue has no rational antiderivative")
    return g + alg.from_scalar(anti)


def is_total_derivative(f: DiffPoly) -> bool:
    """Membership test f in dV (exact, including the quasiconstant residue)."""
    try:
        antiderivative_in_v(f)
        return True
    except NotExact:
        return False


class LocalFunctional:
    """Class of a differential polynomial in V/dV (an integral ``int h``).

    Equality holds iff the difference lies in dV (see antiderivative_in_v):
    it integrates by parts down to a quasiconstant residue, and that residue
    is a total x-derivative in F.
    """

    __slots__ = ("representative",)

    def __init__(self, representative: DiffPoly):
        self.representative = representative

    @property
    def alg(self):
        return self.representative.alg

    def __add__(self, other):
        return LocalFunctional(self.representative + other.representative)

    def __sub__(self, other):
        return LocalFunctional(self.representative - other.representative)

    def __neg__(self):
        return LocalFunctional(-self.representative)

    def scale(self, c):
        return LocalFunctional(self.representative.scale(c))

    def variational_derivative(self):
        return variational_derivative(self.representative)

    def is_zero(self) -> bool:
        return functional_eq(self, LocalFunctional(self.alg.zero))

    def __eq__(self, other):
        if not isinstance(other, LocalFunctional):
            return NotImplemented
        return functional_eq(self, other)

    def __repr__(self):
        return f"int({format_diff_poly(self.representative)})"


def functional_eq(a: LocalFunctional, b: LocalFunctional) -> bool:
    """Equality in V/dV: a - b is a total derivative, decided by
    integration by parts.  May raise UndecidableResidue."""
    return is_total_derivative(a.representative - b.representative)


# -- exactness of 1-forms --------------------------------------------------------


def frechet(fvec: Sequence[DiffPoly]):
    """Frechet derivative of a vector F: the matrix operator with entries
    D_{ij} = sum_n (dF_i/du_j^(n)) d^n."""
    from .diffop import MatDiffOp, ScalarDiffOp
    alg = fvec[0].alg
    rows = []
    for fi in fvec:
        row = []
        for j in range(1, alg.nvars + 1):
            coeffs = {}
            for n in sorted({n for (n, jj) in fi.jet_support() if jj == j}):
                g = fi.jet_partial(j, n)
                if not g.is_zero():
                    coeffs[n] = g
            row.append(ScalarDiffOp(alg, coeffs))
        rows.append(row)
    return MatDiffOp(alg, rows)


def is_exact_1form(fvec: Sequence[DiffPoly]) -> bool:
    """True iff the Frechet derivative is selfadjoint, i.e. F = delta h/delta u
    for some density h."""
    d = frechet(fvec)
    return (d - d.adjoint()).is_zero()


def _homotopy_density(fvec: Sequence[DiffPoly]) -> tuple:
    """(h, delta h / delta u) for the homotopy density of F = fvec,
    h = sum_i int_0^1 u_i F_i(t u) dt: the jet-degree-d part of F_i
    contributes u_i F_i^(d) / (d + 1).

    delta h = F iff F is a variational gradient, so this is the exactness
    test, with one delta and no Frechet adjoint.  If F = delta h0, then as
    u -> t u commutes with d, integration by parts gives modulo dV
    d/dt h0(t u) = sum_(i,n) u_i^(n) (dh0/du_i^(n))(t u)
    = sum_i u_i (delta h0/delta u_i)(t u), so h = h0(u) - h0(0) modulo dV;
    delta kills dV and h0(0), which lies in F, so delta h = F.  (Olver,
    Applications of Lie Groups to Differential Equations: the homotopy
    operator of the variational complex.)
    """
    alg = fvec[0].alg
    h = alg.zero
    for i, fi in enumerate(fvec, start=1):
        ui = alg.jet(i, 0)
        for d, part in fi.jet_degree_parts().items():
            h = h + (ui * part) / (d + 1)
    return h, list(variational_derivative(h))


def reconstruct_density(fvec: Sequence[DiffPoly]) -> DiffPoly:
    """A density h with delta h/delta u = F (_homotopy_density); raises
    NotExact when delta h != F, that is when F is not exact, with
    D_F - D_F* (nonzero: F is exact iff its Frechet derivative D_F is
    selfadjoint) as its witness."""
    h, grad = _homotopy_density(fvec)
    if grad != list(fvec):
        d = frechet(fvec)
        err = NotExact("F is not a variational gradient: delta h != F")
        err.witness = d - d.adjoint()
        raise err
    return h


def higher_euler(f: DiffPoly, i: int):
    """Generating series of the higher Euler operators,
    E_lam(f) = sum_n (-lam-d)^n df/du_i^(n); at lam=0 this is the variational
    derivative.  All orders go to one accumulator, as in symbol_act."""
    from .lambdapoly import (LambdaPoly, _binomial_into, _collect,
                             _linear_powers)
    alg = f.alg
    orders = sorted({n for (n, j) in f.jet_support() if j == i} | {0})
    powers = _linear_powers({0: -1}, 1, orders[-1])
    out: dict = {}
    for n in orders:
        g = LambdaPoly.const(alg, 1, f.jet_partial(i, n))
        _binomial_into(out, -1, n, extend_chain([g], n), powers)
    return _collect(alg, 1, out)


# -- fraction field over V (for elimination with V-entries) ----------------------


class DiffRat:
    """Fraction num/den of differential polynomials in lowest terms: the
    F-denominators of num and den are cleared together, and their common
    factor, a gcd over Z[x, params, jets] times a rational content, is
    divided out by field._primitive_parts, which runs the content kernel
    of row reduction (field._divide_content).  A denominator in F is
    folded into num, so den is one or has a jet.  Supports the field
    protocol needed by row reduction."""

    __slots__ = ("num", "den")

    def __init__(self, num: DiffPoly, den: Optional[DiffPoly] = None):
        alg = num.alg
        if den is None:
            den = alg.one
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = alg.one
        elif not den.is_quasiconstant():
            _, cleared = clear_denominators(
                list(num.terms.values()) + list(den.terms.values()))
            cleared = iter(cleared)
            polys = [{mono: next(cleared) for mono in p.terms}
                     for p in (num, den)]
            polys = _primitive_parts(polys[1], polys)[1]
            num, den = DiffPoly(alg, polys[0]), DiffPoly(alg, polys[1])
        if den.is_quasiconstant():
            num = num.scale(alg.field.one / den.quasiconstant_part())
            den = alg.one
        self.num = num
        self.den = den

    @property
    def alg(self):
        return self.num.alg

    @classmethod
    def of(cls, v, alg: DiffAlgebra) -> "DiffRat":
        if isinstance(v, DiffRat):
            return v
        if isinstance(v, DiffPoly):
            return cls(v)
        return cls(alg.from_scalar(alg.field.coerce(v)))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other):
        o = DiffRat.of(other, self.alg)
        if self.den == o.den:
            return DiffRat(self.num + o.num, self.den)
        return DiffRat(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = DiffRat.of(other, self.alg)
        if self.den == o.den:
            return DiffRat(self.num - o.num, self.den)
        return DiffRat(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        return DiffRat.of(other, self.alg) - self

    def __neg__(self):
        return DiffRat(-self.num, self.den)

    def __mul__(self, other):
        o = DiffRat.of(other, self.alg)
        return DiffRat(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = DiffRat.of(other, self.alg)
        if o.is_zero():
            raise ZeroDivisionError
        return DiffRat(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return DiffRat.of(other, self.alg) / self

    def derive(self) -> "DiffRat":
        return DiffRat(self.num.derive() * self.den - self.num * self.den.derive(),
                       self.den * self.den)

    def __eq__(self, other):
        if isinstance(other, (DiffRat, DiffPoly, int, Fraction, FieldElem)):
            o = DiffRat.of(other, self.alg)
            return (self.num * o.den - o.num * self.den).is_zero()
        return NotImplemented

    def __hash__(self):
        raise TypeError("DiffRat is unhashable (no canonical form)")

    def __repr__(self):
        if self.den == self.alg.one:
            return format_diff_poly(self.num)
        return f"({format_diff_poly(self.num)})/({format_diff_poly(self.den)})"
