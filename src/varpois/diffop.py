"""Scalar, matrix, and pseudodifferential operators, and differential linear
algebra over the coefficient field: majorants, leading matrices, row echelon
form, majorant-preserving reduction, Dieudonne determinants, and the
solver for linear differential systems on a triangular form: certified when
that form is free of x (a pivot facing poles takes a rational ansatz at a
certified degree bound), a rational ansatz of guessed degree otherwise.  Row
reduction over F[d] (fraction-free, on rows without denominators) and
over the skew field of pseudodifferential operators is one kernel,
_Elimination.

Operators are sums a_n d^n, composed by d o a = a d + a'.  A coefficient
has one stored form, decided by ScalarDiffOp: a DiffPoly (an element of V)
only when it carries a jet, and otherwise its constant term, a FieldElem
(an element of F).  So `type(c) is DiffPoly` alone tells a coefficient
with jets from one in F, and equal operators print alike.  No operator
coefficient is a LinForm: linear forms live only in the lambda-arrays of
polydiff and complexes.  A composition, an entry of a matrix product and
an adjoint are each one sum of operator products (_compose_sum): the
products that land on one coefficient are summed by field.dot, so each
coefficient cancels once, not once per product and per partial sum.  A
step of the row reduction over F[d] sums its products on integer
numerators instead, and divides each sum once by the row's content
(_Elimination.sub).

The derivatives b, b', ... of a coefficient or an argument are one chain
(field.extend_chain), built once and shared by every order and entry that
reads it: one per component in MatDiffOp.apply, one per pivot row in the
elimination.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional, Sequence

from .diffalg import (DiffAlgebra, DiffPoly, DiffRat, _mono_mul,
                      format_diff_poly)
from .field import (FieldElem, InvariantViolation, _divide_content, _flat,
                    _match_x_coefficients, _unflat, accumulate,
                    clear_denominators, dot, extend_chain, format_field_elem,
                    rational_antiderivative, x_coefficients)
from .lambdapoly import LambdaPoly
from .linform import LinForm
from .linsolve import det as _dense_det
from .linsolve import _eliminate, gauss_solve, matrix_inverse


class ShapeMismatch(Exception):
    pass


class DegenerateShape(Exception):
    """Majorant of an all-zero matrix or column is undefined."""


class NotAMajorant(Exception):
    pass


class DegenerateLeadingMatrix(Exception):
    pass


class NotSkewadjoint(Exception):
    pass


class NotQuasiconstant(ValueError):
    """A coefficient that must lie in F depends on the jets u_i^(n)."""


class TruncationExceeded(Exception):
    """A pseudodifferential coefficient below the tracked depth was read."""


class LeadingCoeffSingular(Exception):
    pass


class NoRationalSolution(Exception):
    pass


class Incomplete(Exception):
    """The rational ansatz was exhausted without an answer."""


INFINITE = math.inf


class ScalarDiffOp:
    """Sum of c_n d^n.  A coefficient is a FieldElem (an element of F), or
    a DiffPoly when it carries a jet; never a LinForm.

    The constructor stores each nonzero coefficient in that form: a
    DiffPoly without jets becomes its constant term, so a quasiconstant
    operator holds no DiffPoly at all."""

    __slots__ = ("alg", "coeffs")

    def __init__(self, alg: DiffAlgebra, coeffs: dict):
        self.alg = alg
        self.coeffs = {n: c.terms.get((), c) if type(c) is DiffPoly
                       and len(c.terms) == 1 else c
                       for n, c in coeffs.items() if not c.is_zero()}

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, alg: DiffAlgebra) -> "ScalarDiffOp":
        return cls(alg, {})

    @classmethod
    def identity(cls, alg: DiffAlgebra) -> "ScalarDiffOp":
        return cls(alg, {0: alg.field.one})

    @classmethod
    def d(cls, alg: DiffAlgebra, n: int = 1) -> "ScalarDiffOp":
        return cls(alg, {n: alg.field.one})

    @classmethod
    def mul_by(cls, f) -> "ScalarDiffOp":
        """Multiplication operator by a differential polynomial."""
        return cls(f.alg, {0: f})

    # -- structure ------------------------------------------------------------

    def order(self) -> Optional[int]:
        """Largest n with nonzero coefficient; None for the zero operator."""
        return max(self.coeffs) if self.coeffs else None

    def leading_coefficient(self):
        n = self.order()
        return self.alg.field.zero if n is None else self.coeffs[n]

    def coeff(self, n: int):
        return self.coeffs.get(n, self.alg.field.zero)

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_quasiconstant(self) -> bool:
        return all(type(c) is not DiffPoly for c in self.coeffs.values())

    def field_coeffs(self) -> dict:
        """The coefficients, all in F, as stored: the dict itself, not to
        be mutated (like DiffPoly.terms).  Raises NotQuasiconstant when a
        coefficient carries a jet."""
        if not self.is_quasiconstant():
            raise NotQuasiconstant("operator is not quasiconstant")
        return self.coeffs

    # -- ring structure ---------------------------------------------------------

    def __add__(self, other: "ScalarDiffOp") -> "ScalarDiffOp":
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            accumulate(out, n, c)
        return ScalarDiffOp(self.alg, out)

    def __sub__(self, other: "ScalarDiffOp") -> "ScalarDiffOp":
        return self + (-other)

    def __neg__(self) -> "ScalarDiffOp":
        return ScalarDiffOp(self.alg, {n: -c for n, c in self.coeffs.items()})

    def scale(self, c) -> "ScalarDiffOp":
        return ScalarDiffOp(self.alg, {n: v * c for n, v in self.coeffs.items()})

    def compose(self, other: "ScalarDiffOp") -> "ScalarDiffOp":
        """(self o other): d^m o c = sum_j C(m, j) c^(j) d^(m-j)."""
        return _compose_sum(self.alg, [(self, other)], {})

    def __mul__(self, other):
        if isinstance(other, ScalarDiffOp):
            return self.compose(other)
        return self.scale(other)

    def adjoint(self) -> "ScalarDiffOp":
        """(sum c_n d^n)* = sum (-d)^n o c_n (coefficientwise; matrix
        transposition happens at the matrix level)."""
        alg, one = self.alg, self.alg.field.one
        return _compose_sum(alg, [(ScalarDiffOp(alg, {n: (-1) ** n * one}),
                                   ScalarDiffOp(alg, {0: c}))
                                  for n, c in self.coeffs.items()], {})

    def apply(self, f):
        """The operator applied to f in V, or to f in F when the operator
        is quasiconstant."""
        return self._apply_chain(extend_chain([f], self.order() or 0))

    def _apply_chain(self, chain: list):
        """sum c_n f^(n) off f's chain (extend_chain) to this order."""
        scalar = isinstance(chain[0], FieldElem)
        out = chain[0].field.zero if scalar else self.alg.zero
        for n, c in (self.field_coeffs() if scalar else self.coeffs).items():
            if n < len(chain) and chain[n] is not None:
                out = out + c * chain[n]
        return out

    def symbol(self, k: int = 1, slot: int = 0):
        """The operator symbol sum c_n lam_slot^n as a LambdaPoly."""
        terms = {}
        for n, c in self.coeffs.items():
            e = [0] * k
            e[slot] = n
            p = c if type(c) is DiffPoly else self.alg.from_scalar(c)
            terms[tuple(e)] = p
        return LambdaPoly(self.alg, k, terms)

    def __eq__(self, other):
        if not isinstance(other, ScalarDiffOp):
            return NotImplemented
        return self.alg == other.alg and (self - other).is_zero()

    def __repr__(self):
        return f"ScalarDiffOp({format_scalar_op(self)})"


def _compose_sum(alg: DiffAlgebra, pairs, derivatives: dict) -> ScalarDiffOp:
    """sum A o B over the (A, B) pairs of scalar operators, by d^m o b =
    sum_j C(m, j) b^(j) d^(m-j).  The products that land on one order and
    one jet monomial are summed by field.dot, so each coefficient cancels
    once.  Each coefficient is built in its stored form: a DiffPoly when a
    jet monomial survives in it, else its constant term.  derivatives maps
    id(b) to the chain b, b', ... (None from the first zero on) of each
    right coefficient b, while the right operands live."""
    sums: dict = {}     # (order, monomial) -> list of triples
    for A, B in pairs:
        for n, b in B.coeffs.items():
            chain = extend_chain(derivatives.setdefault(id(b), [b]),
                                 max(A.coeffs, default=0))
            for m, a in A.coeffs.items():
                for j, bj in enumerate(chain[:m + 1]):
                    if bj is None:
                        break
                    o, k = m + n - j, math.comb(m, j)
                    for ma, ca in _coefficient_terms(a).items():
                        for mb, cb in _coefficient_terms(bj).items():
                            sums.setdefault((o, _mono_mul(ma, mb)), []).append(
                                (ca, cb, k))
    coeffs: dict = {}
    for key, triples in sums.items():
        v = dot(alg.field, triples)
        if not v.is_zero():
            coeffs.setdefault(key[0], {})[key[1]] = v
    return ScalarDiffOp(alg, {o: DiffPoly(alg, c) if any(c) else c[()]
                              for o, c in coeffs.items()})


def format_scalar_op(op: ScalarDiffOp) -> str:
    if op.is_zero():
        return "0"
    bits = []
    for n in sorted(op.coeffs, reverse=True):
        c = op.coeffs[n]
        cs = format_diff_poly(c) if type(c) is DiffPoly else (
            format_field_elem(c) if isinstance(c, FieldElem) else str(c))
        if n == 0:
            bits.append(cs if " " not in cs else f"({cs})")
            continue
        dpart = "d" if n == 1 else f"d^{n}"
        if cs == "1":
            bits.append(dpart)
        elif cs == "-1":
            bits.append(f"-{dpart}")
        else:
            if " " in cs or "/" in cs:
                cs = f"({cs})"
            bits.append(f"{cs}*{dpart}")
    return " + ".join(bits)


class MatDiffOp:
    """Rectangular matrix of scalar differential operators."""

    __slots__ = ("alg", "rows", "m", "n")

    def __init__(self, alg: DiffAlgebra, rows: Sequence[Sequence[ScalarDiffOp]]):
        self.alg = alg
        self.rows = [list(r) for r in rows]
        self.m = len(self.rows)
        self.n = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.n for r in self.rows):
            raise ShapeMismatch("ragged matrix")

    @classmethod
    def identity(cls, alg: DiffAlgebra, size: int) -> "MatDiffOp":
        return cls(alg, [[ScalarDiffOp.identity(alg) if i == j
                          else ScalarDiffOp.zero(alg)
                          for j in range(size)] for i in range(size)])

    @classmethod
    def zero(cls, alg: DiffAlgebra, m: int, n: int) -> "MatDiffOp":
        return cls(alg, [[ScalarDiffOp.zero(alg) for _ in range(n)]
                         for _ in range(m)])

    @classmethod
    def scalar(cls, op: ScalarDiffOp) -> "MatDiffOp":
        return cls(op.alg, [[op]])

    @classmethod
    def from_constant(cls, alg: DiffAlgebra, mat: Sequence[Sequence]) -> "MatDiffOp":
        return cls(alg, [[ScalarDiffOp(alg, {0: alg.field.coerce(v)})
                          for v in row] for row in mat])

    def entry(self, i: int, j: int) -> ScalarDiffOp:
        return self.rows[i][j]

    def is_square(self) -> bool:
        return self.m == self.n

    def is_zero(self) -> bool:
        return all(e.is_zero() for r in self.rows for e in r)

    def is_quasiconstant(self) -> bool:
        return all(e.is_quasiconstant() for r in self.rows for e in r)

    def __add__(self, other: "MatDiffOp") -> "MatDiffOp":
        self._shape_eq(other)
        return MatDiffOp(self.alg, [[a + b for a, b in zip(ra, rb)]
                                    for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "MatDiffOp") -> "MatDiffOp":
        self._shape_eq(other)
        return MatDiffOp(self.alg, [[a - b for a, b in zip(ra, rb)]
                                    for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self) -> "MatDiffOp":
        return MatDiffOp(self.alg, [[-a for a in r] for r in self.rows])

    def _shape_eq(self, other: "MatDiffOp"):
        if (self.m, self.n) != (other.m, other.n):
            raise ShapeMismatch(f"{self.m}x{self.n} vs {other.m}x{other.n}")

    def compose(self, other: "MatDiffOp") -> "MatDiffOp":
        if self.n != other.m:
            raise ShapeMismatch(f"{self.m}x{self.n} o {other.m}x{other.n}")
        derivatives: dict = {}
        return MatDiffOp(self.alg, [[_compose_sum(self.alg, [
            (self.rows[i][t], other.rows[t][j]) for t in range(self.n)],
            derivatives) for j in range(other.n)] for i in range(self.m)])

    __mul__ = compose

    def adjoint(self) -> "MatDiffOp":
        """Transpose of entrywise adjoints: (A*)_{ij} = (A_{ji})*."""
        return MatDiffOp(self.alg, [[self.rows[j][i].adjoint()
                                     for j in range(self.m)]
                                    for i in range(self.n)])

    def apply(self, vec: Sequence[DiffPoly]) -> list:
        """The rows applied to vec, over one chain per component."""
        if len(vec) != self.n:
            raise ShapeMismatch("vector length mismatch")
        chains = [extend_chain([f], max(row[j].order() or 0 for row in
                                        self.rows)) for j, f in enumerate(vec)]
        return [sum((e._apply_chain(chain) for e, chain in zip(row, chains)),
                    self.alg.zero) for row in self.rows]

    def scale(self, c) -> "MatDiffOp":
        return MatDiffOp(self.alg, [[e.scale(c) for e in r] for r in self.rows])

    def order(self) -> Optional[int]:
        orders = [e.order() for r in self.rows for e in r if not e.is_zero()]
        return max(orders) if orders else None

    def __eq__(self, other):
        if not isinstance(other, MatDiffOp):
            return NotImplemented
        return (self.m, self.n) == (other.m, other.n) and (self - other).is_zero()

    def __repr__(self):
        body = ",".join("[" + ", ".join(format_scalar_op(e) for e in r) + "]"
                        for r in self.rows)
        return f"MatDiffOp([{body}])"


# -- pseudodifferential operators ------------------------------------------------


class PseudoDiffOp:
    """Quasiconstant pseudodifferential operator: finitely many tracked
    coefficients, orders bounded above; ``floor`` is the lowest order whose
    coefficient is trusted (None = all stored coefficients are exact and the
    rest vanish)."""

    __slots__ = ("field", "coeffs", "floor")

    def __init__(self, field, coeffs: dict, floor: Optional[int] = None):
        if floor is not None:
            coeffs = {n: c for n, c in coeffs.items() if n >= floor}
        self.field = field
        self.coeffs = {n: c for n, c in coeffs.items() if not c.is_zero()}
        self.floor = floor

    @classmethod
    def from_scalar_op(cls, op: ScalarDiffOp) -> "PseudoDiffOp":
        return cls(op.alg.field, op.field_coeffs(), None)

    @classmethod
    def zero(cls, field) -> "PseudoDiffOp":
        return cls(field, {}, None)

    @classmethod
    def identity(cls, field) -> "PseudoDiffOp":
        return cls(field, {0: field.one}, None)

    def order(self) -> Optional[int]:
        """Largest tracked order; None when no coefficient is left."""
        return max(self.coeffs) if self.coeffs else None

    def is_zero(self) -> bool:
        """True for the exact zero.  An operator with no coefficient left
        above its floor is zero only up to truncation: it is neither zero
        nor usable as a pivot, and raises TruncationExceeded."""
        if not self.coeffs and self.floor is not None:
            raise TruncationExceeded(f"operator vanishes only down to order "
                                     f"{self.floor}")
        return not self.coeffs

    def leading_coefficient(self) -> FieldElem:
        n = self.order()
        return self.field.zero if n is None else self.coeffs[n]

    def coeff(self, n: int) -> FieldElem:
        if self.floor is not None and n < self.floor:
            raise TruncationExceeded(f"coefficient of order {n} is below the "
                                     f"tracked depth {self.floor}")
        return self.coeffs.get(n, self.field.zero)

    def __add__(self, other: "PseudoDiffOp") -> "PseudoDiffOp":
        floor = _floor_max(self.floor, other.floor)
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            accumulate(out, n, c)
        return PseudoDiffOp(self.field, out, floor)

    def __sub__(self, other: "PseudoDiffOp") -> "PseudoDiffOp":
        return self + (-other)

    def __neg__(self) -> "PseudoDiffOp":
        return PseudoDiffOp(self.field, {n: -c for n, c in self.coeffs.items()},
                            self.floor)

    def scale(self, c: FieldElem) -> "PseudoDiffOp":
        return PseudoDiffOp(self.field,
                            {n: v * c for n, v in self.coeffs.items()},
                            self.floor)

    def compose(self, other: "PseudoDiffOp") -> "PseudoDiffOp":
        """d^m o c expands by the binomial series (infinite for m < 0);
        the result floor accounts for both inputs' floors and the tail."""
        sa, sb = self.order(), other.order()
        floor = None
        if self.floor is not None and sb is not None:
            floor = _floor_max(floor, self.floor + sb)
        if other.floor is not None and sa is not None:
            floor = _floor_max(floor, other.floor + sa)
        if self.floor is not None and sb is None:
            floor = _floor_max(floor, self.floor)
        if other.floor is not None and sa is None:
            floor = _floor_max(floor, other.floor)
        has_negative = any(n < 0 for n in self.coeffs)
        needs_tail = has_negative and any(not c.derive().is_zero()
                                          for c in other.coeffs.values())
        if floor is None and needs_tail:
            top = (sa or 0) + (sb or 0)
            floor = top - _DEFAULT_PSEUDO_DEPTH
        out: dict = {}
        for m, a in self.coeffs.items():
            for n, b in other.coeffs.items():
                j = 0
                bded = b
                while True:
                    key = m + n - j
                    if floor is not None and key < floor:
                        break
                    coef = math.comb(m, j) if m >= 0 else _neg_binom(m, j)
                    if coef:
                        accumulate(out, key, a * bded * Fraction(coef))
                    j += 1
                    if m >= 0 and j > m:
                        break
                    bded = bded.derive()
                    if bded.is_zero():
                        break
        return PseudoDiffOp(self.field, out, floor)

    def inverse(self) -> "PseudoDiffOp":
        """Right inverse to the tracked depth: self o result = 1 +
        O(d^(N - _DEFAULT_PSEUDO_DEPTH))."""
        N = self.order()
        if N is None:
            raise ZeroDivisionError("inverse of (truncation of) zero")
        lead = self.coeffs[N]
        if (self.floor is None and len(self.coeffs) == 1
                and lead.derive().is_zero()):
            # c d^N with c' = 0: d^N o c^-1 = c^-1 d^N, so c^-1 d^-N is exact
            return PseudoDiffOp(self.field, {-N: self.field.one / lead})
        inv = PseudoDiffOp(self.field, {-N: self.field.one / lead},
                           -N - _DEFAULT_PSEUDO_DEPTH)
        one = PseudoDiffOp.identity(self.field)
        for _ in range(_DEFAULT_PSEUDO_DEPTH + 1):
            r = one - self.compose(inv)
            ro = r.order()
            if ro is None or (inv.floor is not None and ro - N < inv.floor):
                break
            corr = PseudoDiffOp(self.field,
                                {ro - N: r.coeffs[ro] / lead}, inv.floor)
            inv = inv + corr
        return inv

    def __repr__(self):
        bits = [f"{format_field_elem(c)}*d^{n}"
                for n, c in sorted(self.coeffs.items(), reverse=True)]
        tail = f" + O(d^{self.floor - 1})" if self.floor is not None else ""
        return "PseudoDiffOp(" + (" + ".join(bits) or "0") + tail + ")"


_DEFAULT_PSEUDO_DEPTH = 12


def _floor_max(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def _neg_binom(m: int, j: int) -> int:
    # C(m, j) for negative m: m(m-1)...(m-j+1)/j!
    num = 1
    for t in range(j):
        num *= (m - t)
    return num // math.factorial(j)


class MatPseudoOp:
    """Square-or-rectangular matrix of pseudodifferential operators."""

    __slots__ = ("field", "rows", "m", "n")

    def __init__(self, field, rows):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.m = len(self.rows)
        self.n = len(self.rows[0]) if self.rows else 0

    @classmethod
    def from_mat_diff_op(cls, M: MatDiffOp) -> "MatPseudoOp":
        return cls(M.alg.field,
                   [[PseudoDiffOp.from_scalar_op(e) for e in r]
                    for r in M.rows])

    def entry(self, i, j):
        return self.rows[i][j]


# -- majorants and leading matrices ------------------------------------------------


class Majorant:
    """Column bounds N_j and row gains h_i with ord(L_ij) <= N_j - h_i."""

    __slots__ = ("N", "h")

    def __init__(self, N: Sequence[int], h: Sequence[int]):
        self.N = tuple(N)
        self.h = tuple(h)

    def __eq__(self, other):
        return isinstance(other, Majorant) and (self.N, self.h) == (other.N, other.h)

    def __repr__(self):
        return f"Majorant(N={list(self.N)}, h={list(self.h)})"


def _order_matrix(M) -> list:
    """Orders of the entries; None for zero entries."""
    return [[e.order() for e in row] for row in M.rows]


def majorant(M) -> Majorant:
    """The minimal majorant N_j = max_i ord(L_ij), h_i = min_j (N_j - n_ij),
    skipping zero entries; an all-zero column (or matrix) has no majorant."""
    orders = _order_matrix(M)
    m = len(orders)
    ncols = len(orders[0]) if orders else 0
    N = []
    for j in range(ncols):
        col = [orders[i][j] for i in range(m) if orders[i][j] is not None]
        if not col:
            raise DegenerateShape(f"column {j + 1} is identically zero")
        N.append(max(col))
    h = []
    for i in range(m):
        vals = [N[j] - orders[i][j] for j in range(ncols)
                if orders[i][j] is not None]
        h.append(min(vals) if vals else min(N))
    return Majorant(N, h)


class LeadingMatrix:
    """Monomial matrix a_{ij} xi^{N_j - h_i} extracted at a majorant."""

    __slots__ = ("entries", "maj")

    def __init__(self, entries: list, maj: Majorant):
        self.entries = entries  # (coefficient, power) pairs
        self.maj = maj

    def coefficient_matrix(self) -> list:
        return [[c for (c, _) in row] for row in self.entries]

    def is_nondegenerate(self, alg_or_field) -> bool:
        return not _leading_det(self, alg_or_field).is_zero()

    def __repr__(self):
        body = ",".join(
            "[" + ", ".join(f"({c!r})*xi^{p}" for c, p in row) + "]"
            for row in self.entries)
        return f"LeadingMatrix([{body}])"


def leading_matrix(M, maj: Majorant) -> LeadingMatrix:
    orders = _order_matrix(M)
    m, ncols = len(orders), len(orders[0])
    if len(maj.N) != ncols or len(maj.h) != m:
        raise NotAMajorant("majorant shape mismatch")
    for i in range(m):
        for j in range(ncols):
            if orders[i][j] is not None and orders[i][j] > maj.N[j] - maj.h[i]:
                raise NotAMajorant(
                    f"entry ({i + 1},{j + 1}) has order {orders[i][j]} "
                    f"> N_j - h_i = {maj.N[j] - maj.h[i]}")
    rows = []
    for i in range(m):
        row = []
        for j in range(ncols):
            p = maj.N[j] - maj.h[i]
            row.append((M.rows[i][j].coeff(p), p))
        rows.append(row)
    return LeadingMatrix(rows, maj)


def _leading_det(lm: LeadingMatrix, alg_or_field):
    """Determinant of the coefficient matrix of a square leading matrix:
    over F when every entry is quasiconstant, over the fraction field of V
    (DiffRat) otherwise.  The second argument is the DiffAlgebra, or F
    itself for pseudodifferential operators."""
    mat = lm.coefficient_matrix()
    if len(mat) != len(mat[0]):
        raise ShapeMismatch("nondegeneracy is for square matrices")
    if all(type(c) is not DiffPoly for row in mat for c in row):
        field = alg_or_field.field if isinstance(alg_or_field, DiffAlgebra) \
            else alg_or_field
        return _dense_det(mat, field)
    alg = alg_or_field
    fractions = SimpleNamespace(one=DiffRat(alg.one), zero=DiffRat(alg.zero))
    return _dense_det([[DiffRat.of(c, alg) for c in row] for row in mat],
                      fractions)


# -- elimination over operators ----------------------------------------------


def _monomial(like, c, k: int):
    """c d^k, in the ring of the operator `like`."""
    if isinstance(like, PseudoDiffOp):
        return PseudoDiffOp(like.field, {k: c})
    return ScalarDiffOp(like.alg, {k: c})


def _coefficient_terms(c) -> dict:
    """A coefficient as a polynomial over F in the jets: the terms of a
    DiffPoly, {(): c} for an element of F."""
    return c.terms if type(c) is DiffPoly else {(): c}


def _split(row) -> tuple:
    """(keys, polys): key (t, n) for each coefficient of d^n in entry t of
    the row, and that coefficient's _coefficient_terms."""
    keys = [(t, n) for t, e in enumerate(row) for n in e.coeffs]
    return keys, [_coefficient_terms(row[t].coeffs[n]) for t, n in keys]


class _Elimination:
    """Row reduction of an operator matrix: fraction-free over the Ore ring
    F[d] for a MatDiffOp (entries with jets stay in V[d]), over the skew
    field of pseudodifferential operators for a MatPseudoOp.

    A MatDiffOp's rows are kept free of denominators: a row holding a
    fraction of F is first multiplied by the lcm of its denominators, and
    every step multiplies the target row by the pivot's leading coefficient
    a instead of dividing by it, then divides the row by g, its content
    taken together with a (Beckermann-Cheng-Labahn, Fraction-free row
    reduction of matrices of Ore polynomials, J. Symb. Comput. 41, 2006).

    The step runs on integer rows (sub): every coefficient is read as a
    numerator over Z[x, params] with an int denominator, with the jets of
    the step as further generators when the rows carry jets, so F and V
    take one path.  Each coefficient of a row_j - c d^k o row_i is one sum
    of products over Z, and the pivot's derivatives are taken once per
    pivot.
    g divides a, so a polynomial factor of g divides a: a's primitive part
    is the one polynomial divisor worth trying before any gcd.  Where it
    divides every sum it is all of g's polynomial part (the rows of one
    matrix often share a factor, such as a cleared denominator, that a's
    primitive part is), and a gcd runs only at a sum that it does not
    divide (field._divide_content).

    ``ops`` records each row operation as ("swap", i, j); ("scale", j, a),
    meaning row_j <- a row_j; or ("sub", i, j, P, a, g), meaning
    row_j <- (a row_j - P o row_i) / g with g dividing the result exactly
    (a = g = 1 in the skew field).  ``sign`` is -1 to the number of swaps.
    """

    def __init__(self, M):
        self.ops: list = []
        self.sign = 1
        self.jets = False
        self._pivot = (None, None)   # row entries and their _derivatives
        if isinstance(M, MatPseudoOp):
            self.rows = [list(r) for r in M.rows]
            return
        self.alg = M.alg
        self.jets = not M.is_quasiconstant()
        self.rows = [list(r) for r in M.rows]
        for j in range(len(self.rows)):
            self._clear_denominators(j)

    def _coefficient(self, terms: dict):
        """The coefficient, in its stored form, whose _coefficient_terms
        are `terms`."""
        return DiffPoly(self.alg, terms) if any(terms) else terms[()]

    def _join(self, keys: list, polys: list, width: int) -> list:
        """The row of `width` entries whose coefficient of d^n in entry t
        has the _coefficient_terms polys[k], for keys[k] = (t, n)."""
        coeffs = [{} for _ in range(width)]
        for (t, n), terms in zip(keys, polys):
            coeffs[t][n] = self._coefficient(terms)
        return [ScalarDiffOp(self.alg, c) for c in coeffs]

    def _clear_denominators(self, j: int):
        """row_j <- D row_j for D the lcm of the denominators in the row,
        when one of its coefficients is a fraction."""
        row = self.rows[j]
        keys, polys = _split(row)
        values = [v for terms in polys for v in terms.values()]
        if not values:
            return
        D, cleared = clear_denominators(values)
        if D.is_rational_number():
            return
        cleared = iter(cleared)
        self.rows[j] = self._join(keys, [{mono: next(cleared) for mono in p}
                                         for p in polys], len(row))
        self.ops.append(("scale", j, self._coefficient({(): D})))

    def swap(self, i: int, j: int):
        rows = self.rows
        rows[i], rows[j] = rows[j], rows[i]
        self.ops.append(("swap", i, j))
        self.sign = -self.sign

    def _numerator(self, c, slots: dict) -> tuple:
        """(N, m) with c = N/m, m >= 1 an int and N in Z[x, params] with
        the jets of `slots` as further generators (none for F)."""
        return _flat(self.alg.field, _coefficient_terms(c), slots)

    def _derivatives(self, i: int, depth: int) -> dict:
        """{(t, n): [c, c', ..., c^(depth)]} for the coefficients c of d^n
        in the entries t of row i, a list cut by None at the first zero
        derivative.  The lists are kept while row i holds the same entries,
        so each derivative of a pivot's coefficient is taken once, however
        many steps use that pivot."""
        pivot = self.rows[i]
        row, chains = self._pivot
        if row is None or any(e is not f for e, f in zip(row, pivot)):
            chains = {(t, n): [c] for t, e in enumerate(pivot)
                      for n, c in e.coeffs.items()}
            self._pivot = (tuple(pivot), chains)
        for ys in chains.values():
            extend_chain(ys, depth)
        return chains

    def sub(self, i: int, j: int, P, a=None):
        """row_j <- (a row_j - P o row_i) / g over F[d], g the content of
        the result taken together with a; row_j -= P o row_i when a is None,
        in the skew field.

        Over F[d], by d^k o y = sum_s C(k, s) y^(s) d^(k-s), each
        coefficient of the result is one sum of products of numerators
        (_numerator) over one int denominator, from the coefficients of
        a, P and row_j and the pivot's derivatives (_derivatives).  The
        step's jet variables are named first, so every numerator is read
        in Z[x, params, jets] (field._flat; for F there are none) and the
        products are taken there.  field._divide_content finds g from a's
        primitive part and divides each sum once, and each coefficient of
        F (or of V) of the new row is built once, from its quotient
        (field._unflat)."""
        rows = self.rows
        if a is None:
            rows[j] = [x - P.compose(y) for x, y in zip(rows[j], rows[i])]
            self.ops.append(("sub", i, j, P, 1, 1))
            return
        field = self.alg.field
        depth = max(P.coeffs)
        chains = self._derivatives(i, depth)
        names = []
        if self.jets:
            coefficients = [a, *P.coeffs.values(),
                            *(c for e in rows[j] for c in e.coeffs.values()),
                            *(y for ys in chains.values()
                              for y in ys[:depth + 1] if y is not None)]
            names = sorted({v for c in coefficients
                            for mono in _coefficient_terms(c)
                            for v, _ in mono})
        slots = {v: k for k, v in enumerate(names)}
        A, ma = self._numerator(a, slots)
        sums: dict = {}   # (entry, order) -> [(numerator, denominator)]
        for t, e in enumerate(rows[j]):
            for n, c in e.coeffs.items():
                X, m = self._numerator(c, slots)
                sums[t, n] = [(A * X, ma * m)]
        for k, c in P.coeffs.items():
            C, mc = self._numerator(c, slots)
            C = -C
            for (t, n), ys in chains.items():
                for s in range(k + 1):
                    if ys[s] is None:
                        break
                    Y, m = self._numerator(ys[s], slots)
                    T, b = C * Y, math.comb(k, s)
                    sums.setdefault((t, n + k - s), []).append(
                        (T if b == 1 else T.mul_ground(b), mc * m))
        L = math.lcm(*(m for terms in sums.values() for _, m in terms))
        keys, numerators = [], []
        for key, terms in sums.items():
            N = None
            for T, m in terms:
                if m != L:
                    T = T.mul_ground(L // m)
                N = T if N is None else N + T
            if N:
                keys.append(key)
                numerators.append((N, L))
        divided = _divide_content(A, numerators) if numerators else None
        if divided is None:
            g = 1
        else:
            G, den, parts = divided
            numerators = [(Q, 1) for Q in parts]
            g = self._coefficient(_unflat(field, G, den, names))
        rows[j] = self._join(keys, [_unflat(field, Q, m, names)
                                    for Q, m in numerators], len(rows[j]))
        self.ops.append(("sub", i, j, P, a, g))

    def echelon(self):
        """Row echelon form in place; zero rows sink to the bottom.

        Over F[d] the pivot is an entry of least order, first row among
        ties, and an entry e below it is reduced by
        row_e <- lc_p row_e - lc_e d^(ord e - ord p) o row_p, so a column
        is cleared by repeated steps.  In the skew field every nonzero entry
        is a unit: the pivot is the first one (keeping the diagonal pivots
        that majorant_preserving_reduce sets up) and P = e o p^-1 clears an
        entry in one step.
        """
        rows = self.rows
        m = len(rows)
        if not m or not rows[0]:
            return
        skew = isinstance(rows[0][0], PseudoDiffOp)
        r = 0
        for col in range(len(rows[0])):
            if r >= m:
                break
            live = [i for i in range(r, m) if not rows[i][col].is_zero()]
            if not live:
                continue
            while True:
                piv = live[0] if skew else \
                    min(live, key=lambda i: rows[i][col].order())
                if piv != r:
                    self.swap(r, piv)
                p = rows[r][col]
                rest = [i for i in range(r + 1, m)
                        if not rows[i][col].is_zero()]
                if not rest:
                    break
                if skew:
                    inv = p.inverse()
                    for i in rest:
                        self.sub(r, i, rows[i][col].compose(inv))
                        # exact e o p^-1 clears e; drop the truncation tail
                        rows[i][col] = PseudoDiffOp.zero(p.field)
                else:
                    q, lc = p.order(), p.leading_coefficient()
                    for i in rest:
                        e = rows[i][col]
                        self.sub(r, i, _monomial(
                            e, e.leading_coefficient(), e.order() - q), lc)
                live = [i for i in range(r, m) if not rows[i][col].is_zero()]
            r += 1


def row_echelon(M: MatDiffOp):
    """Bring M to row echelon form by recorded elementary row operations.

    The elimination is fraction-free: rows stay polynomial (entries in
    F[d], or in V[d] when M carries jets), with no division by a leading
    coefficient.  Each op is ("swap", i, j); ("scale", j, a), meaning
    row_j <- a row_j, for the initial clearing of a row's denominators; or
    ("sub", i, j, P, a, g), meaning row_j <- (a row_j - P o row_i) / g, the
    division by the row's content exact.  Zero rows sink to the bottom.

    A step runs on integers (_Elimination.sub): the new row's coefficients
    are sums of products of numerators over Z[x, params], with the step's
    jets as further generators, each over one int denominator.  g is their
    content taken together with a, so g divides a and a's primitive part
    is the only polynomial divisor to try first: each sum is divided by it
    once, and a gcd runs only at a sum that it leaves a remainder in.
    """
    elim = _Elimination(M)
    elim.echelon()
    return MatDiffOp(M.alg, elim.rows), elim.ops


# -- majorant preserving reduction ------------------------------------------------


def majorant_preserving_reduce(M, maj: Majorant):
    """Reduce a square matrix with nondegenerate leading matrix by majorant
    preserving row operations (and column permutations).

    Differential input (MatDiffOp): diagonal orders become exactly N_j - h_j
    and below-diagonal orders strictly smaller.  The reduction is
    fraction-free, as in row_echelon, so each row of the result is the
    reduced row times a nonzero element of F (of V when M carries jets):
    the lcm of its denominators and the pivots' leading coefficients, over
    the contents divided out.  Pseudodifferential input (MatPseudoOp):
    upper triangular.  Returns (reduced, column permutation, row
    permutation).
    """
    pseudo = isinstance(M, MatPseudoOp)
    if M.m != M.n:
        raise ShapeMismatch("reduction is defined for square matrices")
    size = M.m
    if not leading_matrix(M, maj).is_nondegenerate(
            M.field if pseudo else M.alg):
        raise DegenerateLeadingMatrix("leading matrix is degenerate")

    elim = _Elimination(M)
    rowperm = sorted(range(size), key=lambda i: -maj.h[i])
    rows = elim.rows = [elim.rows[i] for i in rowperm]
    h = [maj.h[i] for i in rowperm]
    N = list(maj.N)
    colperm = list(range(size))

    for m in range(size):
        # clear row m below the pivots of rows 0..m-1, in rounds of
        # decreasing operator order (keeps every entry within the majorant)
        if m > 0:
            max_step = max(h[t] - h[m] for t in range(m))
            for step in range(max_step + 1):
                for t in range(m):
                    d = h[t] - h[m] - step
                    if d < 0:
                        continue
                    target = N[t] - h[m] - step
                    c = rows[m][t].coeff(target)
                    if c.is_zero():
                        continue
                    lc = rows[t][t].coeff(N[t] - h[t])
                    if pseudo:
                        elim.sub(t, m, _monomial(rows[t][t], c / lc, d))
                    else:
                        # lc row_m - c d^d o row_t: scaling a row by lc
                        # leaves its orders as they are
                        elim.sub(t, m, _monomial(rows[t][t], c, d), lc)
        # establish the pivot of row m (column swap if needed)
        want = None
        for k in range(m, size):
            c = rows[m][k].coeff(N[k] - h[m])
            if not c.is_zero():
                want = k
                break
        if want is None:
            raise DegenerateLeadingMatrix(
                f"no pivot available in row {m + 1}")
        if want != m:
            for r_ in rows:
                r_[m], r_[want] = r_[want], r_[m]
            N[m], N[want] = N[want], N[m]
            colperm[m], colperm[want] = colperm[want], colperm[m]
    if pseudo:
        # kill below-diagonal entries entirely; the diagonal pivots stay
        elim.echelon()
        return MatPseudoOp(M.field, elim.rows), colperm, rowperm
    return MatDiffOp(M.alg, rows), colperm, rowperm


# -- Dieudonne determinant ---------------------------------------------------------


class DetValue:
    """Dieudonne determinant c xi^d; None coefficient encodes the zero det."""

    __slots__ = ("c", "d")

    def __init__(self, c, d: Optional[int]):
        self.c = c
        self.d = d

    @property
    def is_zero(self) -> bool:
        return self.c is None

    def __eq__(self, other):
        if not isinstance(other, DetValue):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        return self.d == other.d and _values_equal(self.c, other.c)

    def __repr__(self):
        if self.is_zero:
            return "DetValue(0)"
        return f"DetValue(({self.c!r})*xi^{self.d})"


def _values_equal(a, b) -> bool:
    try:
        return bool(a == b)
    except (TypeError, ValueError):
        return False


DET_ZERO = DetValue(None, None)


def dieudonne_det(M) -> DetValue:
    """Multiplicative determinant of a square matrix (pseudo)differential
    operator: (leading coefficient class, xi-degree), or zero.

    When a nondegenerate leading matrix exists the value is read off from it;
    otherwise echelon reduction (Dieudonne-invariant) is used.
    """
    if M.m != M.n:
        raise ShapeMismatch("determinant of a non-square matrix")
    try:
        maj = majorant(M)
    except DegenerateShape:
        return DET_ZERO
    c = _leading_det(leading_matrix(M, maj),
                     M.field if isinstance(M, MatPseudoOp) else M.alg)
    if not c.is_zero():
        return DetValue(_simplify_coeff(c), sum(maj.N) - sum(maj.h))
    return _echelon_det(M)


def _echelon_det(M) -> DetValue:
    """The determinant from elimination: the swap sign times the product of
    the diagonal leading terms, over the product of the factors a / g by
    which the recorded operations scaled their rows."""
    elim = _Elimination(M)
    elim.echelon()
    diag = [elim.rows[i][i] for i in range(M.m)]
    if any(e.is_zero() for e in diag):
        return DET_ZERO
    num = diag[0].leading_coefficient()
    if elim.sign < 0:
        num = -num
    for e in diag[1:]:
        num = num * e.leading_coefficient()
    den = M.alg.one if elim.jets else 1
    for op in elim.ops:
        if op[0] == "scale":
            den = den * op[2]
        elif op[0] == "sub":
            den, num = den * op[4], num * op[5]
    if elim.jets:
        num = DiffRat(M.alg.one * num, den)
    elif den != 1:
        num = num / den
    return DetValue(_simplify_coeff(num), sum(e.order() for e in diag))


def _simplify_coeff(c):
    if isinstance(c, DiffRat) and c.den == c.alg.one and c.num.is_quasiconstant():
        return c.num.quasiconstant_part()
    return c


def kernel_dim_bound(M: MatDiffOp):
    """deg_xi det(M) when the determinant is nonzero; infinite otherwise."""
    dv = dieudonne_det(M)
    if dv.is_zero:
        return INFINITE
    return dv.d


# -- rational solutions of linear differential systems ------------------------------


class SolutionSet:
    """Affine solution set over the constants: particular + span(homogeneous);
    homogeneous is None for an infinite kernel, free the unknowns that no
    pivot determines."""

    __slots__ = ("particular", "homogeneous", "free")

    def __init__(self, particular, homogeneous, free=()):
        self.particular = particular
        self.homogeneous = homogeneous
        self.free = tuple(free)

    @property
    def dim(self):
        return INFINITE if self.homogeneous is None else len(self.homogeneous)

    def __repr__(self):
        return (f"SolutionSet(dim={self.dim}, "
                f"particular={'yes' if self.particular is not None else 'no'})")


def solve_rational(M: MatDiffOp,
                   b: Optional[Sequence[FieldElem]] = None) -> SolutionSet:
    """Rational solutions of M(d) u = b for quasiconstant M; b is zero when
    omitted, and then particular is None.

    Every M is solved on its triangular form (_solve_rows): a zero row
    whose right-hand side is not zero certifies NoRationalSolution, and an
    unknown without a pivot makes the kernel infinite (dim INFINITE).  A
    triangular form free of x is then solved exactly (so is x d y = 1,
    whose reduced row is d y = 1/x): a pivot L = d^m L0 facing a
    right-hand side num/den with poles, L0 not constant, is solved by an
    ansatz at the certified degree bound max(deg num + m, deg den - 1)
    (see _solve_pivot), so NoRationalSolution is certified there too.  With
    x in a coefficient the triangular rows go to a polynomial-in-x ansatz
    whose degree, twice the sum of the pivot orders plus four, comes from
    the triangular form: its kernel may miss solutions of higher degree,
    and Incomplete means it found no particular solution.
    """
    field, n = M.alg.field, M.n
    b = [field.zero] * M.m if b is None else [field.coerce(v) for v in b]
    if len(b) != M.m:
        raise ShapeMismatch("right-hand side length mismatch")
    rows = [{k * n + j: c for j, e in enumerate(row)
             for k, c in e.field_coeffs().items()} for row in M.rows]
    return _solve_rows(M.alg, rows, n, b)


def _solve_rows(alg: DiffAlgebra, rows: list, n: int,
                b: list) -> SolutionSet:
    """M(d) y = b for the quasiconstant M in n unknowns whose row i holds
    the coefficient of d^k y_j in column k n + j of rows[i], a sparse
    dict free of zero entries (consumed), on a triangular form over F[d]
    (De Sole-Kac, arXiv:1106.0082, Appendix).  The rows, with b as one
    more column, are first reduced over F in place, so that row_echelon,
    whose cost grows with the rows, sees at most n (ord M + 1) of them.
    Its operations are invertible over F[d], and _replay applies them to
    b.  A zero row whose right-hand side is not zero certifies
    NoRationalSolution, and an unknown without a pivot makes the kernel
    infinite.

    Whether the system is free of x is read from the triangular form, not
    from the rows as given: the reduction over F divides each row by its
    pivot coefficient.  Free of x, the rows are solved from the bottom up
    by _back_substitute with _solve_pivot, with an unknown without a pivot
    set to zero.  A pivot L = d^m L0, L0(0) != 0, has the polynomials of
    degree < m as its rational kernel: L0 is invertible on polynomials,
    and its kernel is exponential.  So y_j = x^s, s < m, seeded at the
    pivot j of row i and carried up through rows i-1, ..., 0 with
    right-hand side zero, gives a basis of the rational kernel, in the
    order of the pivots and then of s, as back-substitution builds it.
    A pivot with L0 not constant facing poles is solved by the ansatz at
    the certified bound of _solve_pivot.

    With x in a coefficient of the triangular form, its nonzero rows and
    the replayed b go to _solve_by_ansatz on all unknowns, over the
    denominators of the given b (the replay's derivatives and divisions
    add poles that y does not have), at degree 2 (sum of the pivot orders)
    + 4.  The row operations leave the Dieudonne degree as it is, so on a
    square system of full rank that is 2 deg det M + 4."""
    field, m = alg.field, len(rows)
    width = 1 + max((col for row in rows for col in row), default=0)
    for row, v in zip(rows, b):
        if not v.is_zero():
            row[width] = v
    rank = len(_eliminate(rows, width, field)[0])
    rhs = [row.pop(width, field.zero) for row in rows]
    U, ops = row_echelon(_as_matrix(alg, rows[:rank], n))
    x_free = all(c.is_constant() for row in U.rows for e in row
                 for c in e.coeffs.values())
    # rows rank.. hold no unknowns; the operations leave them as they are
    rhs = _replay(ops, rhs)
    pivots = [next((j for j, e in enumerate(row) if not e.is_zero()), None)
              for row in U.rows] + [None] * (m - rank)
    if any(j is None and not v.is_zero() for j, v in zip(pivots, rhs)):
        raise NoRationalSolution("a row of the triangular form vanishes, "
                                 "and its right-hand side does not")
    pivots = [j for j in pivots if j is not None]
    free = [j for j in range(n) if j not in pivots]
    homogeneous_rhs = all(v.is_zero() for v in b)
    if not x_free:
        if free and homogeneous_rhs:
            return SolutionSet(None, None, free)
        top = len(pivots)
        den = field.one if homogeneous_rhs else clear_denominators(b)[0]
        sols = _solve_by_ansatz(
            MatDiffOp(alg, U.rows[:top]), rhs[:top],
            2 * sum(U.rows[i][j].order() for i, j in enumerate(pivots)) + 4,
            den)
        return SolutionSet(sols.particular, None, free) if free else sols

    zero = [field.zero] * n
    particular = (None if homogeneous_rhs else
                  _back_substitute(U, pivots, rhs, list(zero), _solve_pivot))
    if free:
        return SolutionSet(particular, None, free)
    basis = []
    for i, j in enumerate(pivots):
        for s in range(min(U.rows[i][j].coeffs)):
            y = list(zero)
            y[j] = field.x ** s
            basis.append(_back_substitute(U, pivots[:i], zero, y,
                                          _solve_pivot))
    return SolutionSet(particular, basis)


def _as_matrix(alg: DiffAlgebra, rows: list, n: int) -> MatDiffOp:
    """The operator matrix of coefficient rows: column k n + j of a row is
    the coefficient of d^k in its entry j."""
    out = []
    for row in rows:
        entries = [{} for _ in range(n)]
        for col, c in row.items():
            entries[col % n][col // n] = c
        out.append([ScalarDiffOp(alg, e) for e in entries])
    return MatDiffOp(alg, out)


def _replay(ops: list, f: Sequence) -> list:
    """The right-hand side f (in F or in V) under the row operations ops
    that row_echelon recorded for M: each is invertible, so M y = f iff
    U y = _replay(ops, f) for U the echelon form."""
    f = list(f)
    for op in ops:
        if op[0] == "swap":
            _, i, j = op
            f[i], f[j] = f[j], f[i]
        elif op[0] == "scale":
            _, j, a = op
            f[j] = f[j] * a
        else:
            _, i, j, P, a, g = op
            f[j] = (f[j] * a - P.apply(f[i])) / g
    return f


def _back_substitute(U: MatDiffOp, pivots: Sequence[int], rhs: Sequence,
                     y: list, solve) -> list:
    """y with the unknowns pivots[i] of the rows i of the triangular form U
    solved from the last row up: y_j = solve(U_ij, r, j) for j = pivots[i]
    and r = rhs[i] - sum_(t > j) U_it y_t, so an unknown solved below, or
    seeded in y, is moved to the right-hand side.  The entries lie in F
    for the linear solver (_solve_pivot) and in V for the Lenard-Magri
    driver's inversion of K (lenard._solve_pivot_in_v); solve raises when
    its pivot has no solution."""
    for i in reversed(range(len(pivots))):
        j = pivots[i]
        r = rhs[i]
        for t in range(j + 1, len(y)):
            if not y[t].is_zero():
                r = r - U.rows[i][t].apply(y[t])
        y[j] = solve(U.rows[i][j], r, j)
    return y


def _solve_pivot(L: ScalarDiffOp, r: FieldElem, _column: int) -> FieldElem:
    """A rational y with L(d) y = r (y's column is not needed), for
    L = d^m L0 with constant coefficients, L0 = c + T and c != 0:
    z = int^m r by m calls of rational_antiderivative (NoRationalSolution
    on a logarithm), then y = L0^-1 z = (1/c) sum_i (-T/c)^i z, which ends
    because T lowers the degree of a polynomial.

    Unless T = 0, r must be a polynomial for that.  For r = num/den in
    lowest terms with poles, y = p/den is found by the ansatz with
    deg p <= max(deg num + m, deg den - 1), and an empty ansatz certifies
    NoRationalSolution.  The bound holds because L has constant
    coefficients: it maps polynomials to polynomials and proper fractions
    to proper fractions, and its top term turns a pole of order e into one
    of order e + ord L.  So a solution splits as y = P + Q, Q proper with
    its denominator dividing den, and L Q the proper part of r; P has
    degree deg (polynomial part of r) + m, and P = 0 may be taken when
    that part is zero (the rest of P is in the kernel)."""
    coeffs = L.field_coeffs()
    m = min(coeffs)
    c, T = coeffs[m], ScalarDiffOp(L.alg, {k - m: v for k, v in
                                           coeffs.items() if k > m})
    den, (num,) = clear_denominators([r])
    if not T.is_zero() and not den.is_constant():
        bound = max(max(x_coefficients(num)) + m,
                    max(x_coefficients(den)) - 1)
        try:
            return _solve_by_ansatz(MatDiffOp.scalar(L), [r], bound,
                                    den).particular[0]
        except Incomplete:
            raise NoRationalSolution(
                f"no rational solution of degree at most {bound} over the "
                "denominator of the right-hand side, a bound that holds "
                "one whenever one exists") from None
    for _ in range(m):
        r = rational_antiderivative(r)
        if r is None:
            raise NoRationalSolution(
                "antiderivative leaves a logarithmic term")
    y, term = r.field.zero, r / c
    while not term.is_zero():
        y, term = y + term, -T.apply(term) / c
    return y


def _solve_by_ansatz(M: MatDiffOp, b, degree_bound: int,
                     den: FieldElem) -> SolutionSet:
    """M(d) y = b with each y_j = p_j / den, p_j a polynomial of degree at
    most degree_bound; raises Incomplete when b is not zero and no such y
    solves."""
    field = M.alg.field
    homogeneous_rhs = all(v.is_zero() for v in b)
    powers = [field.x ** t / den for t in range(degree_bound + 1)]
    # unknown j * len(powers) + t is the coefficient of x^t / den in y_j
    rows, rhs = [], []
    for row, v in zip(M.rows, b):
        eqs, values = _match_x_coefficients(
            field, [e.apply(p) for e in row for p in powers], v)
        rows += eqs
        rhs += values
    particular, null = gauss_solve(rows, rhs, M.n * len(powers), field)
    if particular is None and not homogeneous_rhs:
        raise Incomplete(
            f"no rational solution found with ansatz degree {degree_bound}")

    def assemble(vec):
        return [sum((c * p for c, p in zip(vec[j * len(powers):], powers)
                     if not c.is_zero()), field.zero) for j in range(M.n)]

    basis = [y for y in map(assemble, null) if any(not v.is_zero() for v in y)]
    return SolutionSet(None if homogeneous_rhs else assemble(particular), basis)


# -- spaces of operators with (self)adjoint products ---------------------------------


def invertible_leading(K: MatDiffOp) -> tuple:
    """(K_N, K_N^-1): the leading coefficient of an l x l operator K of
    order N as a matrix over F, and its inverse.  This is the one check of
    the paper's class, K in F[d] on F^l with K_N invertible, for every
    caller.  Raises ShapeMismatch unless K is l x l for the l variables of
    its algebra, NotQuasiconstant when any coefficient of K carries a jet,
    and LeadingCoeffSingular when K is zero or K_N is singular."""
    if (K.m, K.n) != (K.alg.nvars,) * 2:
        raise ShapeMismatch(f"K on {K.alg.nvars} variables must be "
                            f"{K.alg.nvars}x{K.alg.nvars}, got {K.m}x{K.n}")
    if not K.is_quasiconstant():
        raise NotQuasiconstant("K must be quasiconstant")
    N = K.order()
    if N is None:
        raise LeadingCoeffSingular("zero operator")
    field = K.alg.field
    lead = [[e.coeff(N) for e in row] for row in K.rows]
    inv = lead if _is_identity(lead) else matrix_inverse(lead, field)
    if inv is None:
        raise LeadingCoeffSingular("leading coefficient is singular")
    return lead, inv


def _is_identity(mat: list) -> bool:
    return all(c.is_one() if i == j else c.is_zero()
               for i, row in enumerate(mat) for j, c in enumerate(row))


def selfadjoint_product_space(K: MatDiffOp) -> list:
    """Basis over C of {P : ord(P) <= ord(K) - 1, K o P selfadjoint}, read
    off polydiff.sigma_space(K*, 1): entry (i, j) of each P is sum c_n d^n
    for its arity-1 entry P_ij(lam) = sum c_n lam^n.  K must be
    quasiconstant with invertible leading coefficient (invertible_leading:
    NotQuasiconstant or LeadingCoeffSingular otherwise); an infinite space
    raises InvariantViolation.

    The two spaces are one.  sigma_space(K*, 1) solves <K o P>^- = 0
    (K** = K) over the arity-1 P of lam-degree at most ord(K) - 1.  With
    lam = d, module_action at k = 1 is the product K o P; S_1 is trivial,
    and the transposition tau in S_2 swaps the two indices and sends lam
    to -lam - d, so A^tau = A*.  Hence <A>^- = (A - A*)/2, and
    <K o P>^- = 0 says that K o P is selfadjoint."""
    from .polydiff import sigma_space
    invertible_leading(K)
    alg, size = K.alg, K.m
    return [MatDiffOp(alg, [[ScalarDiffOp(alg, {
        n: c for (n,), c in P.entry((i, j)).terms.items()})
        for j in range(1, size + 1)] for i in range(1, size + 1)])
        for P in sigma_space(K.adjoint(), 1)[0]]


def solve_linform_system(alg: DiffAlgebra, pairs, atoms: list,
                         rhs=None) -> SolutionSet:
    """Rational solutions of a linear system in the unknown functions atoms,
    given as the (key, c) pairs of _equations(): c is a LinForm in the
    atoms and their derivatives, or a term free of them, which must be
    zero (InvariantViolation otherwise).  Each LinForm is one row of
    _solve_rows, read from its terms: D^r atoms[j] is column r n + j, so
    the system is solved on its triangular form as solve_rational's is.

    rhs, as (key, value) pairs, is zero when omitted, and then the caller
    wants a basis of the kernel: an infinite kernel, as of a system
    without equations, raises InvariantViolation naming an atom that no
    pivot determines.  With rhs the rows are the keys of both, sorted by
    repr.

    Without rhs, a row that equals an earlier row or its negative is
    dropped, and nothing else changes.  _solve_rows first brings the rows
    to reduced row echelon form over F, and that form depends only on the
    row space: two matrices in reduced row echelon form with the same row
    space are equal (the pivots are the columns c where the vectors of the
    space that vanish before c span more than those that vanish up to c,
    and each nonzero row is the unique vector of the space with a 1 at its
    pivot and 0 at the other pivots).  A row that is plus or minus another
    row adds nothing to the row space, so the nonzero rows that reach
    row_echelon, and with them the triangular form and the basis, are the
    same; only the zero rows of the form, whose right-hand sides are all
    zero, are fewer.  With rhs each row keeps its right-hand side, so
    every row is kept."""
    field, n = alg.field, len(atoms)
    index = {a: j for j, a in enumerate(atoms)}
    eqs = {}
    for key, c in pairs:
        if isinstance(c, LinForm):
            eqs[key] = {r * n + index[a]: v for (a, r), v in c.terms.items()}
        elif not c.is_zero():
            raise InvariantViolation(
                "a term free of the unknowns in a linear-form equation")
    if rhs is None:
        rows, seen = [], set()
        for row in eqs.values():
            key = frozenset(row.items())
            if key not in seen:
                seen.update((key, frozenset((c, -v) for c, v in row.items())))
                rows.append(row)
        b = [field.zero] * len(rows)
    else:
        rhs = dict(rhs)
        keys = sorted(set(eqs) | set(rhs), key=repr)
        rows = [eqs.get(key, {}) for key in keys]
        b = [field.coerce(rhs.get(key, field.zero)) for key in keys]
    sols = _solve_rows(alg, rows, n, b)
    if rhs is None and sols.homogeneous is None:
        raise InvariantViolation(f"the kernel is infinite: unknown "
                                 f"{atoms[sols.free[0]]!r} has no pivot")
    return sols
