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
from functools import lru_cache
from typing import Optional, Sequence

from .complexes import SkewArray, _inverse_perm, _perm_sign
from .diffalg import DiffAlgebra
from .diffop import (Incomplete, MatDiffOp, NoRationalSolution,
                     invertible_leading, solve_linform_system)
from .field import accumulate, extend_chain
from .lambdapoly import (LambdaPoly, _LambdaArray, _linear_powers,
                         subst_slot_neg, symbol_act)
from .linform import LinForm


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


def _unknown_entries(nvars: int, k: int, ndeg: int) -> tuple:
    """The generic skewsymmetric k-differential operator of
    lambda-exponents below ndeg, (i0,) + rest -> {exps: (sign, atom)}
    with entry sign * atom at lam^exps, and its atoms: one (i0, pairs)
    per i0 and descending tuple of k distinct pairs (n, i), n < ndeg (a
    repeated pair vanishes), listed by i0 and then pairs descending."""
    out, atoms = {}, set()
    for i0 in range(1, nvars + 1):
        for rest in itertools.product(range(1, nvars + 1), repeat=k):
            terms = {}
            for exps in itertools.product(range(ndeg), repeat=k):
                pairs = tuple((exps[t], rest[t]) for t in range(k))
                if len(set(pairs)) < k:
                    continue
                perm = sorted(range(k), key=lambda t: pairs[t], reverse=True)
                atom = (i0, tuple(pairs[t] for t in perm))
                terms[exps] = (_perm_sign(perm), atom)
                atoms.add(atom)
            if terms:
                out[(i0,) + rest] = terms
    return out, sorted(atoms, key=lambda a: (-a[0], a[1]), reverse=True)


def _at(alg: DiffAlgebra, k: int, unknown: dict, atoms: list,
        vec: list) -> KDiffOp:
    """The generic unknown with each atoms[t] set to vec[t]."""
    values = dict(zip(atoms, vec))
    P = KDiffOp(alg, k)
    for idx, terms in unknown.items():
        L = {e: alg.from_scalar(values[a] if s > 0 else -values[a])
             for e, (s, a) in terms.items() if not values[a].is_zero()}
        if L:
            P.entries[idx] = LambdaPoly(alg, k, L)
    return P


def _symbols(K: MatDiffOp, depth: int) -> tuple:
    """(L, {(i, j): (c, taus)}): L is the least common denominator of the
    rational coefficients of K, L K_ij = sum_n c_n d^n with c = {n: c_n},
    and taus = [K_0, K_1, ...], to K_depth at most, holds the dicts
    {power: coefficient} of K_q(lam) = sum_n (-1)^n sum_u C(n, u)
    c_n^(q+u) lam^(n-u), so K_0(lam) = L K_ij(-lam).  A rational c_n is
    an int whose chain [c_n] ends there; any other is a FieldElem with
    its chain of derivatives (extend_chain) to the order K_depth reads."""
    entries = {(i, j): {n: c.as_fraction() if c.is_rational_number() else c
                        for n, c in op.coeffs.items()}
               for i, row in enumerate(K.rows, 1)
               for j, op in enumerate(row, 1) if op.coeffs}
    L = math.lcm(*(v.denominator for coeffs in entries.values()
                   for v in coeffs.values() if type(v) is Fraction))
    out = {}
    for ij, coeffs in entries.items():
        chains = {}
        for n, v in coeffs.items():
            if type(v) is Fraction:
                chains[n] = [v.numerator * (L // v.denominator)]
            else:
                chain = extend_chain([v * L], n + depth)
                chains[n] = chain[:-1] if chain[-1] is None else chain
        taus = []
        for q in range(min(depth + 1, max(map(len, chains.values())))):
            Kq: dict = {}
            for n, chain in chains.items():
                for u in range(min(n, len(chain) - 1 - q) + 1):
                    v = math.comb(n, u) * chain[q + u]
                    Kq[n - u] = Kq.get(n - u, 0) + (-v if n % 2 else v)
            taus.append({p: v for p, v in Kq.items() if v != 0})
        out[ij] = ({n: chain[0] for n, chain in chains.items()}, taus)
    return L, out


@lru_cache(maxsize=None)
def _tables(k: int, top: int, fmax: int, depth: int) -> tuple:
    """The integer tables of _table_equations, S = lam_1 + ... + lam_k:
    shift[n], n <= top, lists the (g, r, b) with (S + d)^n = sum b lam^g
    d^r, b = C(n, r) multinomial(g); tau[f][q], f <= fmax and q <
    min(f + 1, depth), those of (S + d)^(f-q) with b times (-1)^f C(f, q)."""
    powers = _linear_powers({s: 1 for s in range(k)}, k, top)
    shift = [[(g, r, math.comb(n, r) * a) for r in range(n + 1)
              for g, a in powers[n - r].items()] for n in range(top + 1)]
    return shift, [[[(g, r, (-b if f % 2 else b) * math.comb(f, q))
                     for g, r, b in shift[f - q]]
                    for q in range(min(f + 1, depth))]
                   for f in range(fmax + 1)]


def _table_equations(K: MatDiffOp, k: int, unknown: dict,
                     factor: Fraction) -> list:
    """The _equations() of factor (k+1) <K o P>^- for the generic unknown
    P of _unknown_entries (proof in sigma_space).  Rows are keyed (index
    tuple, lam-exponent) and hold the coefficient of each D^r p_a for
    L K (_symbols): an int while only rational coefficients meet it, else
    a FieldElem; each is divided by L and by 1/factor at the end."""
    field, nvars = K.alg.field, K.alg.nvars
    fmax = max([max(e, default=0) for t in unknown.values() for e in t],
               default=0)
    L, syms = _symbols(K, fmax)
    shift, tshift = _tables(k, max(K.order(), fmax), fmax,
                            max(len(taus) for _, taus in syms.values()))
    rows: dict = {}  # (index tuple, lam-exponent) -> {(atom, r): value}

    def add(idx, e, a, r, v):
        row = rows.setdefault((idx, e), {})
        v += row.get((a, r), 0)
        if v != 0:
            row[(a, r)] = v
        else:
            del row[(a, r)]

    for (j, *rest), terms in unknown.items():
        rest = tuple(rest)
        for i0 in range(1, nvars + 1):
            sym = syms.get((i0, j))
            if sym is None:
                continue
            coeffs, taus = sym
            for f, (s, a) in terms.items():
                for n, c in coeffs.items():
                    for g, r, b in shift[n]:
                        add((i0,) + rest, tuple(x + y for x, y in zip(f, g)),
                            a, r, s * c * b)
                if not k:
                    continue
                idx = (rest[0], i0) + rest[1:]
                for Kq, table in zip(taus, tshift[f[0]]):
                    for g, r, b in table:
                        tail = tuple(x + y for x, y in zip(f[1:], g[1:]))
                        v0 = s * b
                        for p, c in Kq.items():
                            v = v0 * c
                            e = (g[0] + p,) + tail
                            add(idx, e, a, r, -v)
                            for t in range(1, k):
                                add(idx[:1] + (idx[t + 1],) + idx[2:t + 1] +
                                    (idx[1],) + idx[t + 2:],
                                    (e[t],) + e[1:t] + (e[0],) + e[t + 1:],
                                    a, r, v)
    scale = field.rational(factor.numerator, L * factor.denominator)
    value = {v: scale * v
             for v in {v for row in rows.values() for v in row.values()}}
    return [((idx, e, ()), LinForm(field, {
        key: value[v] for key, v in rows[idx, e].items()}))
        for idx, e in sorted(rows) if rows[idx, e]]


def sigma_space(K: MatDiffOp, k: int):
    """Basis over C of the skewsymmetric k-differential operators P of degree
    at most ord(K)-1 per variable with the total skewsymmetrization of
    K* o P vanishing.  Returns (basis, expected_dim, flagged).

    The equations are the coefficients of <K* o P>^- for the generic
    unknown P of _unknown_entries, one atom p_a per orbit, which
    _table_equations reads off integer tables for every K of the class.
    With S = lam_1 + ... + lam_k, (K o P)_(i0 i1 ..) = sum_j K_(i0 j)(S +
    d) P_(j i1 ..): each c_n of K_(i0 j) stays left of d, and P has
    coefficients +-1, so K o P needs only the table (S + d)^n = sum
    C(n, r) multinomial(g) lam^g d^r over r + |g| = n, with d^r p_a =
    D^r p_a.  The transposition tau_1 of positions 0 and 1 swaps the
    indices and substitutes lam_1 -> -S - d, where d(c D^r p_a) =
    c' D^r p_a + c D^(r+1) p_a.  A term c_n (S + d)^n of K met with
    lam^f p_a of P is sum_s C(n, s) lam_1^(n-s+f_1) c_n Z_s, with Z_s =
    (S' + d)^s lam'^f' p_a and S' = S - lam_1.  By Leibniz, (a + d)^m
    (c Z) = sum_t C(m, t) c^(t) (a + d)^(m-t) Z, and past c^(t) every
    factor acts on p_a alone, so they commute.  Put z = -S - d and
    w = S' + d, so z + w = -lam_1; as sum_m C(m, t) z^(m-t) X_m =
    (d_z^t / t!) sum_m z^m X_m, applied to z^f_1 (z + w)^n, the term goes
    to sum_t (-1)^t c_n^(t) sum_u C(n, u) C(f_1, t-u) (-lam_1)^(n-u)
    z^(f_1-t+u) lam'^f' p_a.  With q = t - u,

        T_(i1 i0 i2 ..) = sum_j sum_q (-1)^q K_q(lam_1)
                          P^[q]_(j i1 i2 ..)(-S - d, lam_2, ..),

    K_q as in _symbols and P^[q] = (d/dlam_1)^q P / q!; for rational K
    only K_0(lam) = K_(i0 j)(-lam) is left.  As z^m = (-1)^m (S + d)^m,
    T reads the same table, and as in total_skewsymmetrize (k+1)
    <K o P>^- = K o P - T + sum_(a >= 2) T^(1 a), T^(1 a) swapping the
    indices at 1 and a and lam_1 with lam_a.  The tests keep module_action
    and total_skewsymmetrize as the reference for these rows.

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
    unknown, atoms = _unknown_entries(alg.nvars, k, N)
    if not atoms:
        return [], expected, expected > 0
    eqs = _table_equations(K.adjoint(), k, unknown, Fraction(1, k + 1))
    sols = solve_linform_system(alg, eqs, atoms)
    basis = [_at(alg, k, unknown, atoms, vec) for vec in sols.homogeneous]
    return basis, expected, len(basis) < expected


def solve_skew_equation(K: MatDiffOp, S: KDiffOp) -> KDiffOp:
    """Skewsymmetric P with sum_{sigma in S_{k+1}} sign(sigma) (K o P)^sigma
    / k! = S (the unnormalized total skewsymmetrization, matching the closed
    forms K=1 -> P = S/2 and K=d -> dP = S at arity one), for totally
    skewsymmetric S.  The equations are those of skew_product on the
    generic unknown, built by _table_equations for every K of the class
    (the Leibniz proof is in sigma_space's docstring).

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
        unknown, atoms = _unknown_entries(alg.nvars, k, ndeg)
        eqs = _table_equations(K, k, unknown, Fraction(1))
        try:
            return _at(alg, k, unknown, atoms, solve_linform_system(
                alg, eqs, atoms, rhs).particular)
        except (Incomplete, NoRationalSolution) as err:
            last_err = err
    raise type(last_err)(f"no solution P of lambda-degree at most "
                         f"{ndeg - 1}: {last_err}") from last_err


def skew_product(K: MatDiffOp, P: KDiffOp) -> KDiffOp:
    """The unnormalized skewsymmetrization (k+1) <K o P>^- used by the
    skew-equation solver."""
    return total_skewsymmetrize(module_action(K, P)).scale(P.k + 1)


def chi_representative(P: KDiffOp):
    """The array (sum_j P_{j,i1..ik}(lam) u_j): a closed representative of
    the cohomology class attached to P in Sigma_k(K*)."""
    alg = P.alg
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
