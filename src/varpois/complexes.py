"""Skewsymmetric arrays: the quasiconstant twistings delta_K of the de Rham
differential (which is delta_K at K = 1), the variational-complex
differential d_K (the CLI checks each cohomology representative with it),
the jet filtration, local homotopy operators, reduction of closed arrays to
quasiconstant normal forms, and cohomology dimension counts.

An arity-k array assigns to each index tuple (i_1..i_k) a polynomial in
lam_1..lam_k with DiffPoly coefficients, skewsymmetric under simultaneous
permutation of indices and variables.  Only nondecreasing index tuples are
stored; the rest follow by sign.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .diffalg import (DiffAlgebra, DiffPoly, LocalFunctional,
                      OutOfFiltration, functional_eq,
                      partial_antiderivative)
from .diffop import (MatDiffOp, NotQuasiconstant, _is_identity,
                     invertible_leading, solve_linform_system)
from .field import InvariantViolation, accumulate
from .lambdapoly import (LambdaPoly, _LambdaArray, affine_apply_once,
                         affine_pow_apply, affine_pow_on, subst_slot_neg)
from .linform import LinForm
from .pva import LambdaBracketStruct, NotPoisson, _LeftFactor, check_jacobi


class NotClosed(Exception):
    pass


class LeadingCoeffNotIdentity(Exception):
    pass


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    p = list(perm)
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            sign = -sign
    return sign


def _argsort_stable(t: Sequence[int]) -> list:
    return sorted(range(len(t)), key=lambda j: (t[j], j))


class SkewArray(_LambdaArray):
    """Skewsymmetric array of lambda-polynomials (arity k over nvars)."""

    __slots__ = ()

    def set_entry(self, idx: tuple, L: LambdaPoly, project: bool = True):
        """Install P_idx = L (idx arbitrary); stores the sorted-key entry."""
        if len(idx) != self.k:
            raise ValueError("index tuple arity mismatch")
        if L.is_zero():
            return
        perm = _argsort_stable(idx)
        key = tuple(idx[j] for j in perm)
        sign = _perm_sign(perm)
        canon = L.compose_vars(tuple(_inverse_perm(perm)))
        if sign < 0:
            canon = -canon
        canon = self._stabilizer_project(key, canon) if project else canon
        accumulate(self.entries, key, canon)

    def _stabilizer_project(self, key: tuple, L: LambdaPoly) -> LambdaPoly:
        groups = []
        start = 0
        for pos in range(1, self.k + 1):
            if pos == self.k or key[pos] != key[start]:
                if pos - start > 1:
                    groups.append(range(start, pos))
                start = pos
        if not groups:
            return L
        perms: list = [tuple(range(self.k))]
        for g in groups:
            new = []
            for base in perms:
                for sub in itertools.permutations(g):
                    p = list(base)
                    for a, b in zip(g, sub):
                        p[a] = base[b]
                    new.append(tuple(p))
            perms = new
        total = LambdaPoly.zero(self.alg, self.k)
        for p in perms:
            t = L.compose_vars(p)
            total = total + (t if _perm_sign(p) > 0 else -t)
        return total.scale(Fraction(1, len(perms)))

    def entry(self, idx: tuple) -> LambdaPoly:
        """P_idx for an arbitrary index tuple, by skewsymmetric extension."""
        if len(idx) != self.k:
            raise ValueError("index tuple arity mismatch")
        perm = _argsort_stable(idx)
        key = tuple(idx[j] for j in perm)
        stored = self.entries.get(key)
        if stored is None:
            return LambdaPoly.zero(self.alg, self.k)
        out = stored.compose_vars(tuple(perm))
        return out if _perm_sign(perm) > 0 else -out

    def all_keys(self):
        return itertools.product(range(1, self.alg.nvars + 1), repeat=self.k)

    @classmethod
    def from_function(cls, alg: DiffAlgebra, f: DiffPoly) -> "SkewArray":
        out = cls(alg, 0)
        if not f.is_zero():
            out.entries[()] = LambdaPoly.const(alg, 0, f)
        return out

    @classmethod
    def from_one_form(cls, vec: Sequence[DiffPoly]) -> "SkewArray":
        alg = vec[0].alg
        out = cls(alg, 1)
        for i, v in enumerate(vec, start=1):
            if not v.is_zero():
                out.entries[(i,)] = LambdaPoly.const(alg, 1, v)
        return out


def _inverse_perm(perm: Sequence[int]) -> list:
    inv = [0] * len(perm)
    for a, b in enumerate(perm):
        inv[b] = a
    return inv


# -- differentials ---------------------------------------------------------------


def _orders_of(L: LambdaPoly, i: int) -> list:
    orders = set()
    for p in L.terms.values():
        orders.update(n for (n, j) in p.jet_support() if j == i)
    return sorted(orders)


def delta_k(P: SkewArray, K: MatDiffOp) -> SkewArray:
    """Twisted differential for quasiconstant K:
    (delta_K P)_{i0..ik} = sum_alpha (-1)^alpha sum_{j,n}
    dP_{..alpha-hat..}/du_j^(n) (lam_alpha + d)^n K_{j,i_alpha}(lam_alpha)."""
    if not K.is_quasiconstant():
        raise NotQuasiconstant("delta_K needs a quasiconstant operator")
    factors = _generator_factors(LambdaBracketStruct(K))
    out = SkewArray(P.alg, P.k + 1)
    for idx in itertools.combinations_with_replacement(
            range(1, P.alg.nvars + 1), P.k + 1):
        out.set_entry(idx, _delta_terms(P, factors, idx), project=False)
    return out


def _generator_factors(K: LambdaBracketStruct) -> list:
    """The left factors {u_i _lam .} of the master formula under K, one per
    generator; their shifts (lam + d)^n K_ji serve every index tuple."""
    return [_LeftFactor(K.alg.jet(i), K) for i in range(1, K.nvars + 1)]


def _delta_terms(P: SkewArray, factors: list, idx: tuple) -> LambdaPoly:
    """The entry of delta_K P at idx, sum_alpha (-1)^alpha
    {u_(i_alpha) _(lam_alpha) P_(idx without alpha)}, by the master formula
    (Barakat-De Sole-Kac, Japan. J. Math. 4 (2009), Section 1) with the
    generator factors of K; K may have jet coefficients (the first group of
    terms of d_K)."""
    k1 = len(idx)
    total = LambdaPoly.zero(P.alg, k1)
    for a in range(k1):
        sub = P.entry(idx[:a] + idx[a + 1:])
        if sub.is_zero():
            continue
        piece = factors[idx[a] - 1].into(sub)
        if a:
            # the bracket's lam sits in slot 0; it moves to slot a
            piece = piece.compose_vars(
                (a,) + tuple(range(a)) + tuple(range(a + 1, k1)))
        total = total + piece if a % 2 == 0 else total - piece
    return total


def partial_action(P: SkewArray) -> SkewArray:
    """(dP)(lam_1..lam_k) = (d + lam_1 + ... + lam_k) P."""
    lin = {s: 1 for s in range(P.k)}
    return P.map_entries(lambda L: affine_apply_once(lin, 1, L))


# -- the variational quotient ------------------------------------------------------


class QuotientArray:
    """Class of a skewsymmetric array in the quotient by the image of the
    d-action (the variational complex).  Equality is decided on the normal
    form obtained by eliminating the last variable via
    lam_k -> -lam_1 - ... - lam_(k-1) - d (d differentiating coefficients)."""

    __slots__ = ("representative",)

    def __init__(self, representative: SkewArray):
        self.representative = representative

    @property
    def alg(self):
        return self.representative.alg

    @property
    def k(self):
        return self.representative.k

    def normal_form(self) -> dict:
        P = self.representative
        if P.k == 0:
            return {(): P.entries.get((), LambdaPoly.zero(P.alg, 0))}
        out = {}
        for key in sorted(P.entries):
            nf = subst_slot_neg(P.entries[key], P.k - 1,
                                tuple(range(P.k - 1)), drop=True)
            if not nf.is_zero():
                out[key] = nf
        return out

    def is_zero(self) -> bool:
        if self.k == 0:
            rep = self.representative.entries.get(())
            if rep is None:
                return True
            return functional_eq(LocalFunctional(rep.as_diffpoly()),
                                 LocalFunctional(self.alg.zero))
        return not self.normal_form()

    def __add__(self, other: "QuotientArray") -> "QuotientArray":
        return QuotientArray(self.representative + other.representative)

    def __sub__(self, other: "QuotientArray") -> "QuotientArray":
        return QuotientArray(self.representative - other.representative)

    def __neg__(self):
        return QuotientArray(-self.representative)

    def __eq__(self, other):
        if not isinstance(other, QuotientArray):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        return f"QuotientArray({self.representative!r})"


def d_k(P: QuotientArray, K: LambdaBracketStruct) -> QuotientArray:
    """The variational Poisson differential induced by ad K.

    Only offered when K is a sum of a skewadjoint and a quasiconstant
    operator, and K is Poisson; check_jacobi keeps its verdict on K, so
    each structure is checked once.
    """
    Kop = K.op
    sym_part = Kop + Kop.adjoint()
    if not sym_part.is_quasiconstant():
        raise NotQuasiconstant(
            "d_K needs K = skewadjoint + quasiconstant")
    ok, _ = check_jacobi(K, require_skew=False)
    if not ok:
        raise NotPoisson("K does not satisfy the Jacobi identity")
    alg = P.alg
    k = P.k
    k1 = k + 1
    rep = P.representative
    sign_out = 1 if (k + 1) % 2 == 0 else -1
    factors = _generator_factors(K)
    out = SkewArray(alg, k1)
    for idx in itertools.combinations_with_replacement(
            range(1, alg.nvars + 1), k1):
        # the delta_K-shaped terms, then the brackets landing inside the array
        total = _delta_terms(rep, factors, idx)
        for a in range(k1):
            for b in range(a + 1, k1):
                pos = [t for t in range(k1) if t not in (a, b)]
                ksym_ba = Kop.rows[idx[b] - 1][idx[a] - 1].symbol(k=k1,
                                                                  slot=a)
                for j in range(1, alg.nvars + 1):
                    ent = rep.entry((j,) + tuple(idx[t] for t in pos))
                    if ent.is_zero():
                        continue
                    for n in _orders_of(ksym_ba, j):
                        kpart = ksym_ba.map_coeff(
                            lambda p: p.jet_partial(j, n))
                        if kpart.is_zero():
                            continue
                        x_n = affine_pow_on({a: -1, b: -1}, -1, n, kpart)
                        piece = _compose_first_slot(ent, pos, x_n,
                                                    {a: 1, b: 1})
                        sgn = 1 if (a + b) % 2 == 0 else -1
                        total = total + (piece if sgn > 0 else -piece)
        out.set_entry(idx, total if sign_out > 0 else -total, project=False)
    return QuotientArray(out)


def _compose_first_slot(ent: LambdaPoly, pos: list, target: LambdaPoly,
                        lin: dict) -> LambdaPoly:
    """ent's first variable becomes (sum lin lam + d) acting rightward on
    target; its remaining variables map to positions pos (into target's
    arity)."""
    alg = ent.alg
    out = LambdaPoly.zero(alg, target.k)
    for e, c in ent.terms.items():
        m0 = e[0]
        shifted = affine_pow_on(lin, 1, m0, target)
        for r, exp in enumerate(e[1:]):
            if exp:
                shifted = shifted.shift_exp(pos[r], exp)
        out = out + shifted.scale(c)
    return out


# -- filtration, homotopy, reduction ---------------------------------------------


def level_key(m: int, i: int, nvars: int) -> int:
    """Linearize (m, i) with (m, 0) == (m-1, nvars); (0,0) maps to -1."""
    return m * nvars + i - 1


def key_to_level(key: int, nvars: int) -> tuple:
    if key < 0:
        return (0, 0)
    return (key // nvars, key % nvars + 1)


def filtration_level(P: SkewArray, N: int) -> tuple:
    """Minimal (m, i), in the order with (m,0) = (m-1,nvars), such that all
    coefficients lie in V_{m,i} and each entry has lam_alpha-degree at most
    m+N when i_alpha <= i, at most m+N-1 otherwise."""
    nvars = P.alg.nvars
    best = -1
    for key in sorted(P.entries):
        L = P.entries[key]
        for p in L.terms.values():
            for (n, j) in p.jet_support():
                best = max(best, level_key(n, j, nvars))
        for a in range(P.k):
            d = L.degree_in(a)
            if d >= N:
                best = max(best, level_key(d - N, key[a], nvars))
    return key_to_level(best, nvars)


def in_filtration(P: SkewArray, N: int, m: int, i: int) -> bool:
    lm, li = filtration_level(P, N)
    return level_key(lm, li, P.alg.nvars) <= level_key(m, i, P.alg.nvars)


def homotopy(P: SkewArray, m: int, i: int, N: int) -> SkewArray:
    """Local homotopy operator: (h_{m,i} P)_{i1..ik}(lam) is the coefficient
    of mu^(m+N) in P_{i,i1..ik}(mu, lam), integrated in u_i^(m)."""
    if P.k == 0:
        raise ValueError("homotopy lowers arity; got an arity-0 array")
    if not in_filtration(P, N, m, i):
        raise OutOfFiltration(f"array not in level ({m},{i})")
    alg = P.alg
    k = P.k - 1
    out = SkewArray(alg, k)
    for idx in itertools.combinations_with_replacement(
            range(1, alg.nvars + 1), k):
        L = P.entry((i,) + idx)
        coeff = LambdaPoly.zero(alg, k)
        for e, p in L.terms.items():
            if e[0] == m + N:
                coeff = coeff + LambdaPoly(alg, k, {e[1:]: p})
        if coeff.is_zero():
            continue
        integrated = coeff.map_coeff(lambda p: partial_antiderivative(p, i, m))
        out.set_entry(idx, integrated, project=False)
    return out


def leading_is_identity(K: MatDiffOp) -> bool:
    return _is_identity(invertible_leading(K)[0])


def phi_s(P: SkewArray, S: list) -> SkewArray:
    """(Phi_S P)_{i1..ik}(lam) = sum_j P_{j1..jk}(lam_1+d_1,...,lam_k+d_k)
    S_{j1 i1} ... S_{jk ik}, each d_alpha differentiating only its S factor."""
    alg = P.alg
    k = P.k
    field = alg.field
    out = SkewArray(alg, k)
    if k == 0:
        out.entries.update(P.entries)
        return out
    svals = [[alg.from_scalar(field.coerce(c)) for c in row] for row in S]
    for idx in itertools.combinations_with_replacement(
            range(1, alg.nvars + 1), k):
        total = LambdaPoly.zero(alg, k)
        for jtup in itertools.product(range(1, alg.nvars + 1), repeat=k):
            L = P.entry(jtup)
            if L.is_zero():
                continue
            for e, c in L.terms.items():
                prod = LambdaPoly.const(alg, k, c)
                for a in range(k):
                    factor = affine_pow_apply(
                        alg, {a: 1}, 1, e[a],
                        svals[jtup[a] - 1][idx[a] - 1], k=k)
                    prod = prod * factor
                total = total + prod
        out.set_entry(idx, total, project=False)
    return out


def _compose_constant(K: MatDiffOp, S: list) -> MatDiffOp:
    alg = K.alg
    smat = MatDiffOp.from_constant(alg, S)
    return K.compose(smat)


def reduce_closed(P: SkewArray, K: MatDiffOp):
    """Write a delta_K-closed array as P = delta_K Q + R with R in the
    quasiconstant bottom slice (unique).  K must be quasiconstant with
    invertible leading coefficient; internally the reduction runs for
    K o K_N^{-1} (leading coefficient identity) and transports back."""
    if not K.is_quasiconstant():
        raise NotQuasiconstant("reduction needs a quasiconstant operator")
    lead, inv = invertible_leading(K)
    if not _is_identity(lead):
        Q1, R1 = reduce_closed(phi_s(P, inv), _compose_constant(K, inv))
        return phi_s(Q1, lead), phi_s(R1, lead)
    alg = P.alg
    N = K.order()
    if not delta_k(P, K).is_zero():
        raise NotClosed("array is not delta_K closed")
    Q = SkewArray(alg, P.k - 1) if P.k > 0 else None
    cur = P
    nvars = alg.nvars
    key = level_key(*filtration_level(cur, N), nvars)
    while key >= 0 and not cur.is_zero():
        if cur.k == 0:
            break
        m, i = key_to_level(key, nvars)
        h = homotopy(cur, m, i, N)
        Q = Q + h if Q is not None else None
        cur = cur - delta_k(h, K)
        new_key = level_key(*filtration_level(cur, N), nvars)
        if new_key >= key:
            raise InvariantViolation("homotopy sweep failed to lower the level")
        key = new_key
    if cur.k == 0 and not cur.is_zero():
        ent = cur.entries.get(())
        if ent is not None and not ent.as_diffpoly().is_quasiconstant():
            raise NotClosed("closed 0-form must be quasiconstant")
    if Q is None:
        Q = SkewArray(alg, max(P.k - 1, 0))
    return Q, cur


def alpha_k(C: SkewArray, K: MatDiffOp) -> SkewArray:
    """alpha_k(C) = (1 - delta_K h_{0,1}) ... (1 - delta_K h_{0,l}) dC on the
    bottom slice; for arity 0 this is just the derivative."""
    if not leading_is_identity(K):
        raise LeadingCoeffNotIdentity(
            "normalize K to leading coefficient identity first")
    N = K.order()
    X = partial_action(C)
    if C.k == 0:
        return X
    for i in range(C.alg.nvars, 0, -1):
        X = X - delta_k(homotopy(X, 0, i, N), K)
    return X


def dim_omega00(N: int, nvars: int, k: int, alg: DiffAlgebra):
    """Dimension C(N*nvars, k) of the bottom slice, with an explicit basis
    of skewsymmetric quasiconstant arrays of degree < N per variable."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    basis = []
    if k == 0:
        return 1, [SkewArray.from_function(alg, alg.one)]
    for comp in _compositions(k, nvars, N):
        idx = tuple(i for i, n_i in enumerate(comp, start=1)
                    for _ in range(n_i))
        # the skew projection averages lam^e over the n_i! permutations of
        # each block of equal indices
        weight = math.prod(math.factorial(n_i) for n_i in comp)
        for choice in itertools.product(*(
                itertools.combinations(range(N), n_i) for n_i in comp)):
            e = tuple(n for degs in choice for n in reversed(degs))
            arr = SkewArray(alg, k)
            arr.set_entry(idx, LambdaPoly.monomial(alg, k, e, weight))
            if not arr.is_zero():
                basis.append(arr)
    count = math.comb(N * nvars, k)
    if len(basis) != count:
        raise InvariantViolation(f"{len(basis)} basis arrays, expected {count}")
    return count, basis


def _compositions(k: int, parts: int, cap: int):
    """All tuples (n_1..n_parts) with sum k and each n_i <= cap."""
    if parts == 1:
        if k <= cap:
            yield (k,)
        return
    for first in range(min(k, cap) + 1):
        for rest in _compositions(k - first, parts - 1, cap):
            yield (first,) + rest


class CohomologyResult:
    __slots__ = ("dim", "expected", "flagged_lower_bound", "kernel")

    def __init__(self, dim, expected, flagged, kernel):
        self.dim = dim
        self.expected = expected
        self.flagged_lower_bound = flagged
        self.kernel = kernel

    def __repr__(self):
        flag = ", flagged" if self.flagged_lower_bound else ""
        return f"CohomologyResult(dim={self.dim}, expected={self.expected}{flag})"


def cohomology_dim(K: MatDiffOp, k: int) -> CohomologyResult:
    """dim over C of the kernel of alpha_(k+1) on the bottom slice: the
    rational solutions of the induced linear differential system, which
    solve_linform_system finds on its triangular form.  Equals
    C(N*nvars, k+1) over a linearly closed field; the rational count is
    flagged as a lower bound when it falls short.

    For K free of x the count is certified, and a flag means solutions
    that are not rational; for K with x the triangular rows go to an
    ansatz of degree 2 (sum of the pivot orders) + 4, and a flag may also
    mean that it was too short (x d^2 at k = 0 gives 0 of 2 here and 1 of
    2 in sigma_space, both flagged)."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    alg = K.alg
    field = alg.field
    if not K.is_quasiconstant():
        raise NotQuasiconstant("cohomology_dim needs quasiconstant K")
    lead, inv = invertible_leading(K)
    Kn = K if _is_identity(lead) else _compose_constant(K, inv)
    N = K.order()
    expected = math.comb(N * alg.nvars, k + 1)
    if expected == 0:
        return CohomologyResult(0, 0, False, [])
    _, basis = dim_omega00(N, alg.nvars, k + 1, alg)
    unknown = SkewArray(alg, k + 1)
    for b, arr in enumerate(basis):
        unknown = unknown + arr.scale(LinForm.atom(field, b))
    image = alpha_k(unknown, Kn)
    kern = solve_linform_system(
        alg, image._equations(), list(range(len(basis)))).homogeneous
    dim = len(kern)
    return CohomologyResult(dim, expected, dim < expected, kern)
