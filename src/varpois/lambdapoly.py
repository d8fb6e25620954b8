"""Polynomials in formal variables lam_1..lam_k with DiffPoly coefficients.

These are the entries of skewsymmetric arrays and of polydifferential
operators.  The variables commute with everything; the total derivative
enters only through explicit affine substitutions like (lam_1 + d)^m, which
expand binomially with d acting on the coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Callable, Optional

from .diffalg import DiffAlgebra, DiffPoly, format_diff_poly
from .field import FieldElem, accumulate, extend_chain


class LambdaPoly:
    """Sparse polynomial: dict from exponent tuples (length k) to DiffPoly."""

    __slots__ = ("alg", "k", "terms")

    def __init__(self, alg: DiffAlgebra, k: int, terms: dict):
        self.alg = alg
        self.k = k
        self.terms = terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, alg: DiffAlgebra, k: int) -> "LambdaPoly":
        return cls(alg, k, {})

    @classmethod
    def const(cls, alg: DiffAlgebra, k: int, p) -> "LambdaPoly":
        if isinstance(p, (int, Fraction, FieldElem)):
            p = alg.from_scalar(alg.field.coerce(p))
        if p.is_zero():
            return cls.zero(alg, k)
        return cls(alg, k, {(0,) * k: p})

    @classmethod
    def monomial(cls, alg: DiffAlgebra, k: int, exp: tuple, p) -> "LambdaPoly":
        if isinstance(p, (int, Fraction, FieldElem)):
            p = alg.from_scalar(alg.field.coerce(p))
        if p.is_zero():
            return cls.zero(alg, k)
        if len(exp) != k:
            raise ValueError(f"exponent {exp!r} does not have {k} slots")
        return cls(alg, k, {tuple(exp): p})

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "LambdaPoly"):
        if (self.alg is not other.alg and self.alg != other.alg
                or self.k != other.k):
            raise ValueError("incompatible lambda-polynomials")

    def __add__(self, other: "LambdaPoly") -> "LambdaPoly":
        self._check(other)
        out = dict(self.terms)
        for e, p in other.terms.items():
            accumulate(out, e, p)
        return LambdaPoly(self.alg, self.k, out)

    def __sub__(self, other: "LambdaPoly") -> "LambdaPoly":
        return self + (-other)

    def __neg__(self) -> "LambdaPoly":
        return LambdaPoly(self.alg, self.k, {e: -p for e, p in self.terms.items()})

    def __mul__(self, other) -> "LambdaPoly":
        if isinstance(other, LambdaPoly):
            self._check(other)
            out: dict = {}
            for ea, pa in self.terms.items():
                for eb, pb in other.terms.items():
                    accumulate(out, tuple(x + y for x, y in zip(ea, eb)),
                               pa * pb)
            return LambdaPoly(self.alg, self.k, out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "LambdaPoly":
        out = {}
        for e, p in self.terms.items():
            q = p * c
            if not q.is_zero():
                out[e] = q
        return LambdaPoly(self.alg, self.k, out)

    def __eq__(self, other):
        if not isinstance(other, LambdaPoly):
            return NotImplemented
        return self.alg == other.alg and self.k == other.k and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def degree_in(self, slot: int) -> int:
        return max((e[slot] for e in self.terms), default=0)

    def map_coeff(self, fn: Callable[[DiffPoly], DiffPoly]) -> "LambdaPoly":
        out = {}
        for e, p in self.terms.items():
            q = fn(p)
            if not q.is_zero():
                out[e] = q
        return LambdaPoly(self.alg, self.k, out)

    def derive(self) -> "LambdaPoly":
        """Total derivative applied to every coefficient."""
        return self.map_coeff(lambda p: p.derive())

    def shift_exp(self, slot: int, by: int = 1) -> "LambdaPoly":
        """Multiply by lam_slot^by."""
        out = {}
        for e, p in self.terms.items():
            ee = list(e)
            ee[slot] += by
            out[tuple(ee)] = p
        return LambdaPoly(self.alg, self.k, out)

    def compose_vars(self, sigma: tuple) -> "LambdaPoly":
        """Result(lam_1..lam_k) = self(lam_sigma(1), ..., lam_sigma(k)),
        sigma given 0-based as a tuple of images."""
        out = {}
        for e, p in self.terms.items():
            ee = [0] * self.k
            for j, exp in enumerate(e):
                ee[sigma[j]] += exp
            accumulate(out, tuple(ee), p)
        return LambdaPoly(self.alg, self.k, out)

    def drop_slot(self, pos: int) -> "LambdaPoly":
        """View in arity k-1 without the variable at pos; requires exponent
        zero there."""
        out = {}
        for e, p in self.terms.items():
            if e[pos] != 0:
                raise ValueError("cannot drop a slot with nonzero exponent")
            out[e[:pos] + e[pos + 1:]] = p
        return LambdaPoly(self.alg, self.k - 1, out)

    def as_diffpoly(self) -> DiffPoly:
        if self.k != 0:
            raise ValueError("not an arity-0 lambda-polynomial")
        return self.terms.get((), self.alg.zero)

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        return f"LambdaPoly({format_lambda_poly(self)})"


def format_lambda_poly(P: LambdaPoly) -> str:
    if P.is_zero():
        return "0"
    names = [f"l{j + 1}" for j in range(P.k)]
    parts = []
    for e, p in P.sorted_terms():
        mono = "*".join(f"{names[j]}^{x}" if x > 1 else names[j]
                        for j, x in enumerate(e) if x)
        ps = format_diff_poly(p)
        if mono:
            if ps == "1":
                parts.append(mono)
            elif ps == "-1":
                parts.append(f"-{mono}")
            else:
                if " " in ps or "/" in ps:
                    ps = f"({ps})"
                parts.append(f"{ps}*{mono}")
        else:
            parts.append(ps if " " not in ps else f"({ps})")
    return " + ".join(parts)


class _LambdaArray:
    """Arity-k array of lambda-polynomials: `entries` maps index tuples to
    nonzero LambdaPoly.  The linear structure acts on the stored entries
    key by key, and a sum holds them in sorted key order; a subclass fixes
    which index tuples are stored."""

    __slots__ = ("alg", "k", "entries")

    def __init__(self, alg: DiffAlgebra, k: int):
        self.alg = alg
        self.k = k
        self.entries = {}

    def _with(self, entries: dict):
        out = type(self)(self.alg, self.k)
        out.entries = entries
        return out

    def _check(self, other):
        if (self.alg is not other.alg and self.alg != other.alg
                or self.k != other.k):
            raise ValueError("incompatible arrays")

    def __add__(self, other):
        self._check(other)
        out = dict(self.entries)
        for key, v in other.entries.items():
            accumulate(out, key, v)
        return self._with(dict(sorted(out.items())))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._with({key: -v for key, v in self.entries.items()})

    def map_entries(self, fn):
        out = {}
        for key, v in self.entries.items():
            w = fn(v)
            if not w.is_zero():
                out[key] = w
        return self._with(out)

    def scale(self, c):
        return self.map_entries(lambda v: v.scale(c))

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.k == other.k and (self - other).is_zero()

    def _equations(self) -> list:
        """((key, e, mono), c) for every coefficient c of every
        lambda-coefficient of every entry, in sorted order."""
        return [((key, e, mono), c) for key in sorted(self.entries)
                for e, p in self.entries[key].sorted_terms()
                for mono, c in sorted(p.terms.items())]

    def __repr__(self):
        body = ", ".join(f"{key}: {format_lambda_poly(v)}"
                         for key, v in sorted(self.entries.items()))
        return f"{type(self).__name__}(k={self.k}, {{{body}}})"


# -- affine substitution machinery -------------------------------------------


def affine_apply_once(lin: dict, dsign: int, X: LambdaPoly) -> LambdaPoly:
    """(sum_s lin[s] lam_s + dsign*d) X, with d the total derivative acting
    on the coefficients of X.  dsign may be 0 (pure commutative shift)."""
    return affine_pow_on(lin, dsign, 1, X)


def _linear_powers(lin: dict, k: int, n: int) -> list:
    """[L^0, ..., L^n] for L = sum_s lin[s] lam_s, each a dict from
    exponent tuples (length k) to rational coefficients."""
    parts = [(s, c) for s, c in sorted(lin.items()) if c]
    powers = [{(0,) * k: 1}]
    for _ in range(n):
        nxt: dict = {}
        for e, a in powers[-1].items():
            for s, c in parts:
                ee = list(e)
                ee[s] += 1
                ee = tuple(ee)
                v = nxt.get(ee, 0) + a * c
                if v:
                    nxt[ee] = v
                else:
                    nxt.pop(ee, None)
        powers.append(nxt)
    return powers


def _binomial_into(out: dict, dsign: int, m: int, chain: list,
                   powers: list, scale: Optional[DiffPoly] = None) -> None:
    """Add (L + dsign*d)^m X = sum_j C(m,j) dsign^j L^(m-j) d^j X, times
    the DiffPoly scale when given, to the accumulator out (lam-exponent ->
    jet monomial -> coefficient), given the chain d^j X (j <= m when
    dsign != 0; extend_chain's, so it may stop at None) and the powers L^i
    (i <= m).  The expansion is valid because the lambda variables commute
    with d acting on the coefficients."""
    for j, X in enumerate(chain[:m + 1 if dsign else 1]):
        if X is None:
            break
        w = comb(m, j) * dsign ** j
        for f, p in X.terms.items():
            terms = (p if scale is None else scale * p).terms
            for e, a in powers[m - j].items():
                c = w * a
                acc = out.setdefault(tuple(x + y for x, y in zip(e, f)), {})
                for mono, v in terms.items():
                    accumulate(acc, mono,
                               v if c == 1 else (-v if c == -1 else v * c))


def _collect(alg: DiffAlgebra, k: int, out: dict) -> LambdaPoly:
    """The LambdaPoly of an accumulator filled by _binomial_into."""
    return LambdaPoly(alg, k, {e: DiffPoly(alg, t) for e, t in out.items()
                               if t})


def affine_pow_on(lin: dict, dsign: int, m: int, X: LambdaPoly) -> LambdaPoly:
    """(sum_s lin[s] lam_s + dsign*d)^m X, expanded binomially over one
    chain of derivatives of X."""
    out: dict = {}
    _binomial_into(out, dsign, m, extend_chain([X], m if dsign else 0),
                   _linear_powers(lin, X.k, m))
    return _collect(X.alg, X.k, out)


def symbol_act(P: LambdaPoly, lin: dict, dsign: int, X: LambdaPoly) -> LambdaPoly:
    """P(sum lin[s] lam_s + dsign*d)_-> X for an arity-1 symbol P: each term
    c*mu^m of P contributes c * (L + dsign*d)^m X, the coefficient c passing
    to the left of the derivative action.  All terms go to one
    accumulator."""
    if P.k != 1:
        raise ValueError("symbol_act expects an arity-1 symbol")
    top = P.degree_in(0)
    chain = extend_chain([X], top if dsign else 0)
    powers = _linear_powers(lin, X.k, top)
    out: dict = {}
    for (m,), c in P.terms.items():
        _binomial_into(out, dsign, m, chain, powers, c)
    return _collect(X.alg, X.k, out)


def subst_slot_neg(X: LambdaPoly, slot: int, into: tuple,
                   drop: bool) -> LambdaPoly:
    """Replace lam_slot by -(sum of lam_s for s in into) - d, with d acting
    leftward on the coefficients (i.e. differentiating them).  When slot is
    itself in `into` the substituted power re-feeds the same slot.  With
    drop=True the slot is removed from the arity.  Every power of lam_slot
    goes to one accumulator."""
    alg, k = X.alg, X.k
    by_power: dict = {}
    for e, p in X.terms.items():
        by_power.setdefault(e[slot], {})[e[:slot] + (0,) + e[slot + 1:]] = p
    powers = _linear_powers({s: -1 for s in into}, k, max(by_power, default=0))
    out: dict = {}
    for m, terms in by_power.items():
        _binomial_into(out, -1, m,
                       extend_chain([LambdaPoly(alg, k, terms)], m), powers)
    out = _collect(alg, k, out)
    return out.drop_slot(slot) if drop else out
