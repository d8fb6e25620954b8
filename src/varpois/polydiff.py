"""Polydifferential operators on F^l: the symmetric-group action, total
skewsymmetrization, the module action of matrix differential operators,
the solvability spaces Sigma_k, and representatives of variational Poisson
cohomology classes.

A k-differential operator is an array over (k+1)-tuples of indices whose
entries are polynomials in lam_1..lam_k with quasiconstant coefficients; no
skewsymmetry is imposed by the storage.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

from .complexes import SkewArray, _inverse_perm, _perm_sign
from .diffalg import DiffAlgebra
from .diffop import (Incomplete, MatDiffOp, NoRationalSolution,
                     invertible_leading, solve_linform_system)
from .field import accumulate
from .lambdapoly import LambdaPoly, _LambdaArray, subst_slot_neg, symbol_act
from .linform import LinForm


class NotInSigma(Exception):
    pass


class KDiffOp(_LambdaArray):
    """Array of lambda-polynomials indexed by (k+1)-tuples of 1..nvars."""

    __slots__ = ()

    def __init__(self, alg: DiffAlgebra, k: int, entries: Optional[dict] = None):
        super().__init__(alg, k)
        for idx, L in (entries or {}).items():
            if not L.is_zero():
                self.entries[tuple(idx)] = L

    def entry(self, idx: tuple) -> LambdaPoly:
        return self.entries.get(tuple(idx), LambdaPoly.zero(self.alg, self.k))

    def all_keys(self):
        return itertools.product(range(1, self.alg.nvars + 1),
                                 repeat=self.k + 1)

    def set_entry(self, idx: tuple, L: LambdaPoly):
        if L.is_zero():
            self.entries.pop(tuple(idx), None)
        else:
            self.entries[tuple(idx)] = L

    @classmethod
    def from_mat_diff_op(cls, M: MatDiffOp) -> "KDiffOp":
        """Arity-1 operators are matrix differential operators (lam = d)."""
        out = cls(M.alg, 1)
        for i in range(M.m):
            for j in range(M.n):
                sym = M.rows[i][j].symbol()
                if not sym.is_zero():
                    out.entries[(i + 1, j + 1)] = sym
        return out


# -- symmetric group action ---------------------------------------------------------


def _sk_action(P: KDiffOp, sigma: Sequence[int]) -> KDiffOp:
    """Action of sigma in S_k = Perm(1..k) (given 0-based on {0..k} fixing 0):
    simultaneous permutation of trailing indices and variables."""
    k = P.k
    inv = _inverse_perm(sigma)
    var_map = tuple(sigma[a + 1] - 1 for a in range(k))
    out: dict = {}
    for idx, L in P.entries.items():
        new_idx = (idx[0],) + tuple(idx[inv[a]] for a in range(1, k + 1))
        accumulate(out, new_idx, L.compose_vars(var_map))
    return KDiffOp(P.alg, k, out)


def _tau_action(P: KDiffOp, alpha: int) -> KDiffOp:
    """Transposition of positions 0 and alpha (1-based alpha):
    swap the indices and substitute the alpha-th variable by
    -(lam_1 + ... + lam_k) - d (differentiating the coefficients)."""
    k = P.k
    out: dict = {}
    for idx, L in P.entries.items():
        new_idx = list(idx)
        new_idx[0], new_idx[alpha] = new_idx[alpha], new_idx[0]
        accumulate(out, tuple(new_idx),
                   subst_slot_neg(L, alpha - 1, tuple(range(k)), drop=False))
    return KDiffOp(P.alg, k, out)


def sigma_action(P: KDiffOp, sigma: Sequence[int]) -> KDiffOp:
    """Action of sigma in S_{k+1} = Perm(0..k) on a k-differential operator,
    extending the simultaneous index/variable permutations by the adjoint-like
    transpositions with position 0.  Satisfies (P^sigma)^tau = P^(tau sigma)."""
    sigma = tuple(sigma)
    if len(sigma) != P.k + 1:
        raise ValueError("permutation arity mismatch")
    if sigma[0] == 0:
        if all(sigma[a] == a for a in range(P.k + 1)):
            return P
        return _sk_action(P, sigma)
    beta = sigma[0]
    tau = list(range(P.k + 1))
    tau[0], tau[beta] = beta, 0
    sigma_rest = tuple(tau[sigma[a]] for a in range(P.k + 1))
    return _tau_action(sigma_action(P, sigma_rest), beta)


def is_skewsymmetric(P: KDiffOp) -> bool:
    """Antisymmetry under the S_k sub-action (position 0 fixed)."""
    k = P.k
    for t in range(1, k):
        sigma = list(range(k + 1))
        sigma[t], sigma[t + 1] = sigma[t + 1], sigma[t]
        if not (sigma_action(P, sigma) + P).is_zero():
            return False
    return True


def is_totally_skewsymmetric(P: KDiffOp) -> bool:
    if not is_skewsymmetric(P):
        return False
    if P.k >= 1 and not (_tau_action(P, 1) + P).is_zero():
        return False
    return True


def total_skewsymmetrize(P: KDiffOp) -> KDiffOp:
    """<P>^- = (1/(k+1)!) sum_sigma sign(sigma) P^sigma, summed by cosets of
    S_k (the permutations fixing 0), with one substitution in all.

    Let A = (1/k!) sum_(s in S_k) sign(s) P^s, the S_k-antisymmetrization
    of P: relabelings only, and A = P when P is skewsymmetric.  With
    tau_b = (0 b) (tau_0 = 1), every sigma is tau_b s for b = sigma(0)
    and s = tau_b sigma in S_k, uniquely, and sign(tau_b s) = -sign(s) for
    b >= 1.  As P^(tau s) = (P^s)^tau and the action is linear,

        sum_sigma sign(sigma) P^sigma = k! (A - sum_(a>=1) A^tau_a),

    so <P>^- = (A - sum_a A^tau_a)/(k+1).  For a >= 2, tau_a =
    (1 a) tau_1 (1 a), so A^tau_a = ((A^(1 a))^tau_1)^(1 a), and
    A^(1 a) = -A because (1 a) is an odd element of S_k.  Hence
    A^tau_a = -(A^tau_1)^(1 a): one substitution (tau_1) and k - 1
    relabelings take the place of the k * k! substitutions of the full sum.
    """
    k = P.k
    if k == 0:
        return P.scale(1)  # S_1 is trivial; a new array, as for k >= 1
    A = P
    if not is_skewsymmetric(P):
        A = KDiffOp(P.alg, k)
        for s in itertools.permutations(range(1, k + 1)):
            t = _sk_action(P, (0,) + s)
            A = A + (t if _perm_sign((0,) + s) > 0 else -t)
        A = A.scale(Fraction(1, math.factorial(k)))
    T = _tau_action(A, 1)
    out = A - T
    for a in range(2, k + 1):
        swap = list(range(k + 1))
        swap[1], swap[a] = a, 1
        out = out + _sk_action(T, swap)
    return out.scale(Fraction(1, k + 1))


def module_action(K: MatDiffOp, P: KDiffOp) -> KDiffOp:
    """(K o P)_{i0,...} = sum_j K_{i0 j}(lam_1 + ... + lam_k + d) P_{j,...};
    preserves skewsymmetry."""
    alg = P.alg
    k = P.k
    lin = {s: 1 for s in range(k)}
    out = KDiffOp(alg, k)
    for idx in P.all_keys():
        total = LambdaPoly.zero(alg, k)
        for j in range(1, alg.nvars + 1):
            ent = P.entry((j,) + tuple(idx[1:]))
            if ent.is_zero():
                continue
            op = K.rows[idx[0] - 1][j - 1]
            if op.is_zero():
                continue
            total = total + symbol_act(op.symbol(), lin, 1, ent)
        if not total.is_zero():
            out.entries[tuple(idx)] = total
    return out


# -- solvability spaces --------------------------------------------------------------


def _skew_atoms(alg: DiffAlgebra, k: int, ndeg: int) -> list:
    """Orbit representatives for skewsymmetric unknowns with lambda-exponents
    below ndeg: i0 free, the pairs ((n_t, i_t)) strictly decreasing
    (repeated pairs vanish)."""
    pair_choices = list(itertools.combinations(
        sorted(((n, i) for n in range(ndeg) for i in range(1, alg.nvars + 1)),
               reverse=True), k))
    atoms = []
    for i0 in range(1, alg.nvars + 1):
        for pairs in pair_choices:
            atoms.append((i0, pairs))
    return atoms


def _unknown_kdiffop(alg: DiffAlgebra, k: int, N: int) -> KDiffOp:
    """The generic skewsymmetric k-differential operator with LinForm
    coefficients over the atoms of _skew_atoms(alg, k, N): every canonical
    descending tuple of k distinct pairs (n, i) with n < N is one."""
    field = alg.field
    P = KDiffOp(alg, k)
    for i0 in range(1, alg.nvars + 1):
        for rest in itertools.product(range(1, alg.nvars + 1), repeat=k):
            terms = {}
            for exps in itertools.product(range(N), repeat=k):
                pairs = tuple((exps[t], rest[t]) for t in range(k))
                if len(set(pairs)) < k:
                    continue
                perm = sorted(range(k), key=lambda t: pairs[t], reverse=True)
                canon = tuple(pairs[t] for t in perm)
                sign = _perm_sign(perm)
                lf = LinForm.atom(field, (i0, canon))
                if sign < 0:
                    lf = -lf
                terms[tuple(exps)] = alg.from_scalar(lf)
            L = LambdaPoly(alg, k, terms)
            if not L.is_zero():
                P.entries[(i0,) + rest] = L
    return P


def _at(P: KDiffOp, atoms: list, vec: list) -> KDiffOp:
    """The generic unknown P with each atoms[t] set to vec[t]."""
    alg, values = P.alg, dict(zip(atoms, vec))
    return P.map_entries(lambda L: L.map_coeff(lambda p: alg.from_scalar(
        p.quasiconstant_part().evaluate(values))))


def sigma_space(K: MatDiffOp, k: int):
    """Basis over C of the skewsymmetric k-differential operators P of degree
    at most ord(K)-1 per variable with the total skewsymmetrization of
    K* o P vanishing.  Returns (basis, expected_dim, flagged).

    The system is solved on its triangular form (solve_linform_system).
    For K free of x the basis is certified, and a flag means solutions
    that are not rational; for K with x the triangular rows go to an
    ansatz of degree 2 (sum of the pivot orders) + 4, and a flag may also
    mean that it was too short."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    alg = K.alg
    invertible_leading(K)
    N = K.order()
    expected = math.comb(N * alg.nvars, k + 1)
    atoms = _skew_atoms(alg, k, N)
    if not atoms:
        return [], expected, expected > 0
    P = _unknown_kdiffop(alg, k, N)
    E = total_skewsymmetrize(module_action(K.adjoint(), P))
    sols = solve_linform_system(alg, E._equations(), atoms)
    basis = [_at(P, atoms, vec) for vec in sols.homogeneous]
    return basis, expected, len(basis) < expected


def solve_skew_equation(K: MatDiffOp, S: KDiffOp) -> KDiffOp:
    """Skewsymmetric P with sum_{sigma in S_{k+1}} sign(sigma) (K o P)^sigma
    / k! = S (the unnormalized total skewsymmetrization, matching the closed
    forms K=1 -> P = S/2 and K=d -> dP = S at arity one), for totally
    skewsymmetric S.

    P's lambda-degree starts at max(ord K - 1, deg S) per variable and is
    raised by one, twice, while NoRationalSolution or Incomplete says no
    P of that degree solves; the last error names the largest degree."""
    alg = K.alg
    k = S.k
    invertible_leading(K)
    N = K.order()
    if not is_totally_skewsymmetric(S):
        raise ValueError("right-hand side must be totally skewsymmetric")
    if S.is_zero():
        return KDiffOp(alg, k)
    d_s = max(max((L.degree_in(a) for a in range(k)), default=0)
              for L in S.entries.values())
    lam_deg = max(N - 1, d_s)
    rhs = S._equations()
    for ndeg in range(lam_deg + 1, lam_deg + 4):
        atoms = _skew_atoms(alg, k, ndeg)
        P = _unknown_kdiffop(alg, k, ndeg)
        E = total_skewsymmetrize(module_action(K, P)).scale(k + 1)
        try:
            return _at(P, atoms, solve_linform_system(
                alg, E._equations(), atoms, rhs).particular)
        except (Incomplete, NoRationalSolution) as err:
            last_err = err
    raise type(last_err)(f"no solution P of lambda-degree at most "
                         f"{ndeg - 1}: {last_err}") from last_err


def skew_product(K: MatDiffOp, P: KDiffOp) -> KDiffOp:
    """The unnormalized skewsymmetrization (k+1) <K o P>^- used by the
    skew-equation solver."""
    return total_skewsymmetrize(module_action(K, P)).scale(P.k + 1)


def chi_representative(P: KDiffOp, K: Optional[MatDiffOp] = None):
    """The array (sum_j P_{j,i1..ik}(lam) u_j): a closed representative of
    the cohomology class attached to P in Sigma_k(K*).  Given K, P is first
    checked to lie in Sigma_k(K*) (NotInSigma otherwise)."""
    alg = P.alg
    if K is not None:
        if not total_skewsymmetrize(module_action(K.adjoint(), P)).is_zero():
            raise NotInSigma("operator does not solve the Sigma equation")
    out = SkewArray(alg, P.k)
    for rest in itertools.combinations_with_replacement(
            range(1, alg.nvars + 1), P.k):
        total = LambdaPoly.zero(alg, P.k)
        for j in range(1, alg.nvars + 1):
            L = P.entry((j,) + rest)
            if L.is_zero():
                continue
            uj = alg.jet(j, 0)
            total = total + L.map_coeff(lambda p: p * uj)
        out.set_entry(rest, total, project=False)
    return out
