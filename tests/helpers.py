"""Shared builders and seeded random generators for the test suite."""

import itertools
import math
import random
from fractions import Fraction
from typing import Sequence
from unittest import mock

from hypothesis import strategies as st

from varpois import (DiffAlgebra, DiffPoly, DiffRat, FieldElem,
                     InvariantViolation, KDiffOp, LambdaBracketStruct,
                     LambdaPoly, LinForm, LocalFunctional, MatDiffOp,
                     NoPreimage, NotExact, NotSkewadjoint, ScalarDiffOp,
                     ShapeMismatch, SkewArray, UnsupportedK,
                     antiderivative_in_v, delta_k,
                     frechet, lambda_bracket, poisson_bracket,
                     rational_antiderivative, sigma_action,
                     variational_derivative)
from varpois.complexes import _perm_sign
from varpois.diffop import (DET_ZERO, DetValue, _as_matrix,
                            _coefficient_terms, _Elimination, _replay,
                            _simplify_coeff, _solve_by_ansatz, _split,
                            dieudonne_det, row_echelon, solve_linform_system)
from varpois.field import (POLY, RAT, _primitive_parts, accumulate,
                           clear_denominators, x_coefficients)
from varpois.lambdapoly import (_linear_powers, affine_pow_on, subst_slot_neg,
                                symbol_act)
from varpois.linsolve import _eliminate, matrix_inverse
from varpois.polydiff import _tau_action


def rnd_rational(rng: random.Random) -> Fraction:
    num = rng.randint(-4, 4)
    den = rng.choice([1, 1, 2, 3])
    return Fraction(num, den)


def rnd_field_elem(rng: random.Random, field, with_x=True):
    v = field.rational(rnd_rational(rng))
    if with_x and rng.random() < 0.5:
        v = v + field.x * rng.randint(-2, 2)
    return v


def rnd_diffpoly(rng: random.Random, alg: DiffAlgebra, max_order=2,
                 max_degree=2, terms=3, with_x=False):
    out = alg.zero
    for _ in range(terms):
        t = alg.from_scalar(rnd_field_elem(rng, alg.field, with_x))
        for _ in range(rng.randint(0, max_degree)):
            i = rng.randint(1, alg.nvars)
            n = rng.randint(0, max_order)
            t = t * alg.jet(i, n)
        out = out + t
    return out


def rnd_scalar_op(rng: random.Random, alg: DiffAlgebra, max_order=2,
                  quasiconstant=False):
    coeffs = {}
    for n in range(max_order + 1):
        if rng.random() < 0.7:
            if quasiconstant:
                c = alg.from_scalar(rnd_field_elem(rng, alg.field))
            else:
                c = rnd_diffpoly(rng, alg, max_order=1, max_degree=1, terms=2)
            if not c.is_zero():
                coeffs[n] = c
    return ScalarDiffOp(alg, coeffs)


def rnd_mat_op(rng: random.Random, alg: DiffAlgebra, size=2, max_order=2,
               quasiconstant=True):
    return MatDiffOp(alg, [[rnd_scalar_op(rng, alg, max_order, quasiconstant)
                            for _ in range(size)] for _ in range(size)])


def rnd_lambda_poly(rng: random.Random, alg: DiffAlgebra, k: int,
                    max_deg=2, max_order=2):
    L = LambdaPoly.zero(alg, k)
    for e in itertools.product(range(max_deg + 1), repeat=k):
        if rng.random() < 0.4:
            p = rnd_diffpoly(rng, alg, max_order=max_order, max_degree=2,
                             terms=2)
            L = L + LambdaPoly.monomial(alg, k, e, p)
    return L


def rnd_skew_array(rng: random.Random, alg: DiffAlgebra, k: int,
                   max_deg=2, max_order=2) -> SkewArray:
    out = SkewArray(alg, k)
    for idx in itertools.combinations_with_replacement(
            range(1, alg.nvars + 1), k):
        L = rnd_lambda_poly(rng, alg, k, max_deg, max_order)
        out.set_entry(idx, L)
    return out


def skewadjoint_op(rng: random.Random, alg: DiffAlgebra, max_order=3,
                   quasiconstant=True):
    """A random skewadjoint scalar operator, via S - S*."""
    S = rnd_scalar_op(rng, alg, max_order, quasiconstant)
    return S - S.adjoint()


def skewadjoint_reference(S: LambdaBracketStruct) -> bool:
    """H* = -H the slow way: H_ij + (H_ji)* = 0 for i <= j, each adjoint
    taken through the operator algebra."""
    rows, size = S.op.rows, S.nvars
    return all((rows[i][j] + rows[j][i].adjoint()).is_zero()
               for i in range(size) for j in range(i, size))


def x_dependent_grid(alg, alg2):
    """name -> K for the x-dependent grid: ten scalar K over the
    one-variable algebra `alg` and five 2 x 2 K over the two-variable
    `alg2`, both over Q(x)."""
    F, G = alg.field, alg2.field
    x, one, X, I = F.x, F.one, G.x, G.one

    def op(alg, coeffs):
        return ScalarDiffOp(alg, {k: alg.from_scalar(v)
                                  for k, v in coeffs.items()})

    grid = {name: MatDiffOp(alg, [[op(alg, c)]]) for name, c in (
        ("x d", {1: x}), ("x d^2", {2: x}), ("(x+1) d^3", {3: x + 1}),
        ("x^2 d", {1: x * x}), ("x d + 1", {1: x, 0: one}),
        ("d + x", {1: one, 0: x}), ("(x^2+1) d^2", {2: x * x + 1}),
        ("x^2 d^2 + x d", {2: x * x, 1: x}),
        ("d^2 + 1/x^2", {2: one, 0: one / (x * x)}), ("x^3 d^3", {3: x ** 3}))}
    z = ScalarDiffOp.zero(alg2)
    for name, rows in (
            ("diag(x d, d)", [[{1: X}, {}], [{}, {1: I}]]),
            ("diag(x d, x d)", [[{1: X}, {}], [{}, {1: X}]]),
            ("[[d, x], [0, d]]", [[{1: I}, {0: X}], [{}, {1: I}]]),
            ("diag(x d^2, d^2)", [[{2: X}, {}], [{}, {2: I}]]),
            ("[[x d, 1], [-1, d]]", [[{1: X}, {0: I}], [{0: -I}, {1: I}]])):
        grid[name] = MatDiffOp(alg2, [[op(alg2, c) if c else z for c in row]
                                      for row in rows])
    return grid


def functional_eq_reference(a: LocalFunctional, b: LocalFunctional) -> bool:
    """Equality in V/dV the slow way: w = a - b must have zero variational
    derivative, and then its quasiconstant residue eps(w) must have a
    rational antiderivative.  May raise UndecidableResidue."""
    w = a.representative - b.representative
    if any(not g.is_zero() for g in variational_derivative(w)):
        return False
    residue = w.quasiconstant_part()
    if not isinstance(residue, FieldElem):
        raise TypeError("functional equality needs field coefficients")
    return rational_antiderivative(residue) is not None


def affine_apply_once_reference(lin: dict, dsign: int,
                                X: LambdaPoly) -> LambdaPoly:
    """(sum_s lin[s] lam_s + dsign*d) X term by term: one shifted copy of X
    per slot, plus the coefficientwise derivative."""
    out = LambdaPoly.zero(X.alg, X.k)
    for s, c in lin.items():
        if c:
            out = out + X.shift_exp(s).scale(Fraction(c))
    if dsign:
        out = out + (X.derive() if dsign > 0 else -X.derive())
    return out


def affine_pow_on_reference(lin: dict, dsign: int, m: int,
                            X: LambdaPoly) -> LambdaPoly:
    """(sum_s lin[s] lam_s + dsign*d)^m X as m single applications."""
    for _ in range(m):
        X = affine_apply_once_reference(lin, dsign, X)
    return X


def _binomial_sum_reference(dsign: int, m: int, chain: list,
                            powers: list) -> LambdaPoly:
    """(L + dsign*d)^m X = sum_j C(m,j) dsign^j L^(m-j) d^j X with one
    DiffPoly sum per term, given the chain d^j X and the powers L^i."""
    X = chain[0]
    out: dict = {}
    for j in range(m + 1 if dsign else 1):
        w = math.comb(m, j) * dsign ** j
        for e, a in powers[m - j].items():
            c = w * a
            for f, p in chain[j].terms.items():
                q = p if c == 1 else (-p if c == -1 else p.scale(c))
                accumulate(out, tuple(x + y for x, y in zip(e, f)), q)
    return LambdaPoly(X.alg, X.k, out)


def symbol_act_reference(P: LambdaPoly, lin: dict, dsign: int,
                         X: LambdaPoly) -> LambdaPoly:
    """P(sum lin[s] lam_s + dsign*d)_-> X with one LambdaPoly sum per
    symbol term c*mu^m."""
    top = P.degree_in(0)
    chain = [X]
    for _ in range(top if dsign else 0):
        chain.append(chain[-1].derive())
    powers = _linear_powers(lin, X.k, top)
    out = LambdaPoly.zero(X.alg, X.k)
    for (m,), c in P.terms.items():
        out = out + _binomial_sum_reference(dsign, m, chain,
                                            powers).scale(c)
    return out


def subst_slot_neg_reference(X: LambdaPoly, slot: int, into: tuple,
                             drop: bool) -> LambdaPoly:
    """lam_slot -> -(sum of lam_s for s in into) - d with one LambdaPoly
    sum per power of lam_slot, each power expanded by m single steps."""
    alg, k = X.alg, X.k
    lin = {s: -1 for s in into}
    by_power: dict = {}
    for e, p in X.terms.items():
        by_power.setdefault(e[slot], {})[e[:slot] + (0,) + e[slot + 1:]] = p
    out = LambdaPoly.zero(alg, k)
    for m, terms in sorted(by_power.items()):
        base = LambdaPoly(alg, k, terms)
        out = out + (affine_pow_on_reference(lin, -1, m, base) if m else base)
    return out.drop_slot(slot) if drop else out


def involution_matrix_reference(state) -> list:
    """All n^2 pairs under both brackets, each bracket zero-tested by
    functional_eq_reference."""
    zero = LocalFunctional(state.alg.zero)
    return [[all(functional_eq_reference(poisson_bracket(f, g, S), zero)
                 for S in (state.H, state.K))
             for g in state.densities] for f in state.densities]


def skewsymmetry_residual(H, f, g) -> LambdaPoly:
    """{g_lam f} + {f_(-lam-d) g}; vanishes when H* = -H."""
    lhs = lambda_bracket(g, f, H)
    rhs = subst_slot_neg(lambda_bracket(f, g, H), 0, (0,), drop=False)
    return lhs + rhs


def lambda_bracket_reference(f, g, H) -> LambdaPoly:
    """{f_lam g} by the master formula term by term: for each u_i in f and
    each H_ji, the operator H_ji(lam+d) acts on sum_m (-lam-d)^m df/du_i^(m),
    and (lam+d)^n of that is taken again for every jet u_j^(n) of g."""
    alg = H.alg
    out = LambdaPoly.zero(alg, 1)
    for i in range(1, H.nvars + 1):
        a_i = LambdaPoly.zero(alg, 1)
        for (n, jj) in sorted(f.jet_support()):
            if jj == i:
                a_i = a_i + affine_pow_on({0: -1}, -1, n, LambdaPoly.const(
                    alg, 1, f.jet_partial(i, n)))
        if a_i.is_zero():
            continue
        for j in range(1, H.nvars + 1):
            sym = H.generator_bracket(i, j)
            if sym.is_zero():
                continue
            b = symbol_act(sym, {0: 1}, 1, a_i)
            for (n, jj) in sorted(g.jet_support()):
                if jj == j:
                    out = out + affine_pow_on({0: 1}, 1, n, b).scale(
                        g.jet_partial(j, n))
    return out


def _bracket_into_poly_reference(G, H, f) -> LambdaPoly:
    """{f_lam G} for G with variables of its own, one reference bracket per
    coefficient; lam in slot 0."""
    out = LambdaPoly.zero(H.alg, 1 + G.k)
    for e, coeff in G.terms.items():
        br = lambda_bracket_reference(f, coeff, H)
        out = out + LambdaPoly(H.alg, 1 + G.k, {(ee[0],) + e: p
                                                for ee, p in br.terms.items()})
    return out


def _expand_slot_to_sum(L: LambdaPoly, slots: tuple, k: int) -> LambdaPoly:
    """Commutative substitution of L's single variable by a sum of variables:
    L(nu) -> L(lam_{slots[0]} + lam_{slots[1]} + ...), result arity k, one
    affine power per term."""
    alg = L.alg
    out = LambdaPoly.zero(alg, k)
    lin = {s: 1 for s in slots}
    for (s,), coeff in L.terms.items():
        out = out + affine_pow_on(lin, 0, s, LambdaPoly.const(alg, k, coeff))
    return out


def _outer_bracket_reference(q, h, H) -> LambdaPoly:
    """{{f_lam g}_(lam+mu) h} from q = {f_lam g}."""
    out = LambdaPoly.zero(H.alg, 2)
    for (t,), coeff in q.terms.items():
        r = lambda_bracket_reference(coeff, h, H)
        out = out + _expand_slot_to_sum(r, (0, 1), 2).shift_exp(0, t)
    return out


def jacobi_residual_reference(H, f, g, h) -> LambdaPoly:
    """{f_lam {g_mu h}} - {g_mu {f_lam h}} - {{f_lam g}_(lam+mu) h} from
    reference brackets, every bracket built afresh."""
    t1 = _bracket_into_poly_reference(lambda_bracket_reference(g, h, H), H, f)
    t2 = _bracket_into_poly_reference(lambda_bracket_reference(f, h, H), H,
                                      g).compose_vars((1, 0))
    t3 = _outer_bracket_reference(lambda_bracket_reference(f, g, H), h, H)
    return t1 - t2 - t3


def compatibility_terms_reference(first, second, f, g, h) -> LambdaPoly:
    """{{f_lam g}_(lam+mu) h} - {f_lam {g_mu h}} + {g_mu {f_lam h}} with
    `first` inside and `second` outside, from reference brackets."""
    t1 = _bracket_into_poly_reference(lambda_bracket_reference(g, h, first),
                                      second, f)
    t2 = _bracket_into_poly_reference(lambda_bracket_reference(f, h, first),
                                      second, g).compose_vars((1, 0))
    t3 = _outer_bracket_reference(lambda_bracket_reference(f, g, first), h,
                                  second)
    return t3 - t1 + t2


def compatibility_residual_reference(H, K, f, g, h) -> LambdaPoly:
    """The six-term mixed Jacobi expression from reference brackets."""
    return (compatibility_terms_reference(H, K, f, g, h)
            + compatibility_terms_reference(K, H, f, g, h))


def _first_failing_triple(nvars, residual):
    for triple in itertools.product(range(1, nvars + 1), repeat=3):
        res = residual(triple)
        if not res.is_zero():
            return False, (triple, res)
    return True, None


def jacobi_all_triples(H):
    """check_jacobi without its shortcuts: the reference Jacobi residual of
    every generator triple in order; (ok, witness) as check_jacobi returns
    it."""
    jet = H.alg.jet
    return _first_failing_triple(H.nvars, lambda t: jacobi_residual_reference(
        H, jet(t[0]), jet(t[1]), jet(t[2])))


def compatible_all_terms(H, K):
    """check_compatible without its shortcuts: the reference six-term
    residual of every generator triple in order."""
    jet = H.alg.jet
    return _first_failing_triple(
        H.nvars, lambda t: compatibility_residual_reference(
            H, K, jet(t[0]), jet(t[1]), jet(t[2])))


def from_right_form(alg: DiffAlgebra, b: dict) -> ScalarDiffOp:
    """The operator sum_n d^n o b_n, from its right coefficients."""
    out = ScalarDiffOp.zero(alg)
    for n, c in b.items():
        out = out + ScalarDiffOp.d(alg, n).compose(ScalarDiffOp(alg, {0: c}))
    return out


def from_split_form(alg: DiffAlgebra, cs: dict, ds: dict) -> ScalarDiffOp:
    """The operator with split form (cs, ds), as split_form returns it:
    sum_m d^(m+1) o cs[m] d^m + sum_n d^n o ds[n] d^n."""
    out = ScalarDiffOp.zero(alg)
    for m, c in cs.items():
        out = out + ScalarDiffOp.d(alg, m + 1).compose(
            ScalarDiffOp(alg, {m: c}))
    for n, c in ds.items():
        out = out + ScalarDiffOp.d(alg, n).compose(ScalarDiffOp(alg, {n: c}))
    return out


def as_skewadjoint_op(Q) -> MatDiffOp:
    """For an arity-2 QuotientArray Q: the identification with skewadjoint
    matrix operators, taking the entry sum c^{m,n} lam_1^m lam_2^n at
    (i, j) to S_ij(d) = sum (-d)^n o c^{m,n} d^m."""
    alg, P = Q.alg, Q.representative
    rows = []
    for i in range(1, alg.nvars + 1):
        row = []
        for j in range(1, alg.nvars + 1):
            acc = ScalarDiffOp.zero(alg)
            for (m, n), c in P.entry((i, j)).terms.items():
                t = ScalarDiffOp.d(alg, n).compose(ScalarDiffOp(alg, {m: c}))
                acc = acc + (t if n % 2 == 0 else -t)
            row.append(acc)
        rows.append(row)
    return MatDiffOp(alg, rows)


def coefficient(L: LambdaPoly, exp: tuple) -> DiffPoly:
    """The coefficient of lam^exp in L."""
    return L.terms.get(tuple(exp), L.alg.zero)


def to_mat_diff_op(P) -> MatDiffOp:
    """An arity-1 KDiffOp as the matrix operator whose entries have P's
    entries as symbols (lam = d)."""
    if P.k != 1:
        raise ValueError("only arity-1 operators are matrices")
    size = P.alg.nvars
    return MatDiffOp(P.alg, [[ScalarDiffOp(P.alg, {
        e[0]: c for e, c in P.entry((i, j)).terms.items()})
        for j in range(1, size + 1)] for i in range(1, size + 1)])


def as_one_form(Q) -> list:
    """For an arity-1 QuotientArray Q: the canonical identification with
    V^nvars, sum_m (-d)^m applied to the coefficient of lam^m."""
    if Q.k != 1:
        raise ValueError("only arity-1 classes are vectors")
    out = []
    for i in range(1, Q.alg.nvars + 1):
        acc = Q.alg.zero
        for (m,), g in Q.representative.entry((i,)).terms.items():
            for _ in range(m):
                g = g.derive()
            acc = acc + (g if m % 2 == 0 else -g)
        out.append(acc)
    return out


def _insert_slot(L: LambdaPoly, pos: int) -> LambdaPoly:
    """L in arity k+1, with a fresh variable (exponent 0) at pos."""
    return LambdaPoly(L.alg, L.k + 1, {e[:pos] + (0,) + e[pos:]: p
                                       for e, p in L.terms.items()})


def _jet_orders(L: LambdaPoly, j: int) -> list:
    """The orders n of the jets u_j^(n) in the coefficients of L."""
    return sorted({n for p in L.terms.values()
                   for (n, i) in p.jet_support() if i == j})


def de_rham_delta_reference(P: SkewArray) -> SkewArray:
    """(delta P)_{i0..ik} = sum_alpha (-1)^alpha sum_n
    d(P with alpha-th slot removed)/du_{i_alpha}^(n) lam_alpha^n, summed
    directly (the library computes it as delta_K at K = 1)."""
    alg = P.alg
    k1 = P.k + 1
    out = SkewArray(alg, k1)
    for idx in itertools.combinations_with_replacement(
            range(1, alg.nvars + 1), k1):
        total = LambdaPoly.zero(alg, k1)
        for a in range(k1):
            sub = _insert_slot(P.entry(idx[:a] + idx[a + 1:]), a)
            i_a = idx[a]
            for n in _jet_orders(sub, i_a):
                piece = sub.map_coeff(lambda p: p.jet_partial(i_a, n))
                piece = piece.shift_exp(a, n)
                total = total + (piece if a % 2 == 0 else -piece)
        out.set_entry(idx, total, project=False)
    return out


def delta_terms_reference(P: SkewArray, K: MatDiffOp, idx: tuple):
    """The entry of delta_K P at idx, expanded term by term:
    sum_alpha (-1)^alpha sum_{j,n} dP_{..alpha-hat..}/du_j^(n)
    (lam_alpha + d)^n K_{j,i_alpha}(lam_alpha), K's coefficients may have
    jets (the first group of terms of d_K)."""
    alg = P.alg
    k1 = len(idx)
    total = LambdaPoly.zero(alg, k1)
    for a in range(k1):
        sub = _insert_slot(P.entry(idx[:a] + idx[a + 1:]), a)
        for j in range(1, alg.nvars + 1):
            ksym = K.rows[j - 1][idx[a] - 1].symbol(k=k1, slot=a)
            if ksym.is_zero():
                continue
            for n in _jet_orders(sub, j):
                piece = sub.map_coeff(lambda p: p.jet_partial(j, n)) * \
                    affine_pow_on_reference({a: 1}, 1, n, ksym)
                total = total + (piece if a % 2 == 0 else -piece)
    return total


def phi_s_reference(P: SkewArray, S: list) -> SkewArray:
    """Phi_S P with one LambdaPoly product per term of P: each factor
    (lam_a + d_a)^(e_a) S_(j_a i_a) expanded by m single steps."""
    alg, k = P.alg, P.k
    out = SkewArray(alg, k)
    if k == 0:
        out.entries.update(P.entries)
        return out
    svals = [[alg.from_scalar(alg.field.coerce(c)) for c in row] for row in S]
    for idx in itertools.combinations_with_replacement(
            range(1, alg.nvars + 1), k):
        total = LambdaPoly.zero(alg, k)
        for jtup in itertools.product(range(1, alg.nvars + 1), repeat=k):
            for e, c in P.entry(jtup).terms.items():
                prod = LambdaPoly.const(alg, k, c)
                for a in range(k):
                    prod = prod * affine_pow_on_reference(
                        {a: 1}, 1, e[a], LambdaPoly.const(
                            alg, k, svals[jtup[a] - 1][idx[a] - 1]))
                total = total + prod
        out.set_entry(idx, total, project=False)
    return out


def delta_k_reference(P: SkewArray, K: MatDiffOp) -> SkewArray:
    """delta_K P, every entry from delta_terms_reference."""
    out = SkewArray(P.alg, P.k + 1)
    for idx in itertools.combinations_with_replacement(
            range(1, P.alg.nvars + 1), P.k + 1):
        out.set_entry(idx, delta_terms_reference(P, K, idx), project=False)
    return out


def d_k_reference(P, K) -> SkewArray:
    """The representative of d_K P for a QuotientArray P and a bracket
    structure K, without d_k's checks: (-1)^(k+1) times the delta_K terms
    (delta_terms_reference) plus, for a < b and each jet u_j^(n) of
    K_{i_b i_a}, P_{j, idx without a, b}(lam_a + lam_b + d, ...) applied to
    (-lam_a - lam_b - d)^n dK_{i_b i_a}(lam_a)/du_j^(n)."""
    alg, rep, Kop = P.alg, P.representative, K.op
    k1 = P.k + 1
    out = SkewArray(alg, k1)
    for idx in itertools.combinations_with_replacement(
            range(1, alg.nvars + 1), k1):
        total = delta_terms_reference(rep, Kop, idx)
        for a, b in itertools.combinations(range(k1), 2):
            pos = [t for t in range(k1) if t not in (a, b)]
            ksym = Kop.rows[idx[b] - 1][idx[a] - 1].symbol(k=k1, slot=a)
            for j in range(1, alg.nvars + 1):
                ent = rep.entry((j,) + tuple(idx[t] for t in pos))
                for n in _jet_orders(ksym, j):
                    x_n = affine_pow_on_reference(
                        {a: -1, b: -1}, -1, n,
                        ksym.map_coeff(lambda p: p.jet_partial(j, n)))
                    for e, c in ent.terms.items():
                        piece = affine_pow_on_reference({a: 1, b: 1}, 1,
                                                        e[0], x_n)
                        for r, exp in enumerate(e[1:]):
                            piece = piece.shift_exp(pos[r], exp)
                        piece = piece.scale(c)
                        total = total + (piece if (a + b) % 2 == 0
                                         else -piece)
        out.set_entry(idx, total if k1 % 2 == 0 else -total, project=False)
    return out


def x_degree(v: FieldElem) -> int:
    """Degree in x of the numerator of v minus that of its denominator,
    read from the stored tier."""
    if v._k == RAT:
        return 0
    if v._k == POLY:
        return v._v.P.degree(0)
    return v._v.numer.degree(0) - v._v.denom.degree(0)


def total_skewsymmetrize_reference(P):
    """<P>^- = (1/(k+1)!) sum_sigma sign(sigma) P^sigma over all of
    S_(k+1), one sigma_action each."""
    k = P.k
    out = KDiffOp(P.alg, k)
    for sigma in itertools.permutations(range(k + 1)):
        t = sigma_action(P, sigma)
        out = out + (t if _perm_sign(sigma) > 0 else -t)
    return out.scale(Fraction(1, math.factorial(k + 1)))


def total_skewsymmetrize_shortcut(P):
    """For P already skewsymmetric: <P>^- = (P - sum_alpha P^tau_alpha)/(k+1)."""
    out = P
    for alpha in range(1, P.k + 1):
        out = out - _tau_action(P, alpha)
    return out.scale(Fraction(1, P.k + 1))


def _field_entries(M: MatDiffOp, convert_jets):
    """The rows of M as stored when M is quasiconstant (its coefficients
    are then in F), else each coefficient mapped by convert_jets."""
    if M.is_quasiconstant():
        return [list(r) for r in M.rows]
    return [[ScalarDiffOp(M.alg, {n: convert_jets(c)
                                  for n, c in e.coeffs.items()})
             for e in r] for r in M.rows]


def apply_row_ops(M: MatDiffOp, ops) -> MatDiffOp:
    """Replay recorded elementary row operations on M, its coefficients in
    F when M is quasiconstant: ("swap", i, j); ("scale", j, a), row_j <-
    a row_j; ("sub", i, j, P, a, g), row_j <- (a row_j - P o row_i) / g,
    where g must divide exactly."""
    def divide(c, g):
        if isinstance(g, DiffPoly):
            q = DiffRat.of(c, M.alg) / g
            assert q.den == M.alg.one, "the content does not divide the row"
            return q.num
        return c / g

    rows = _field_entries(M, lambda c: c)
    for op in ops:
        if op[0] == "swap":
            _, i, j = op
            rows[i], rows[j] = rows[j], rows[i]
        elif op[0] == "scale":
            _, j, a = op
            rows[j] = [e.scale(a) for e in rows[j]]
        else:
            _, i, j, P, a, g = op
            rows[j] = [ScalarDiffOp(M.alg, {
                n: divide(c, g) for n, c in
                (x.scale(a) - P.compose(y)).coeffs.items()})
                for x, y in zip(rows[j], rows[i])]
    return MatDiffOp(M.alg, rows)


def compose_reference(A: ScalarDiffOp, B: ScalarDiffOp) -> ScalarDiffOp:
    """A o B term by term, d^m o c = sum_j C(m, j) c^(j) d^(m-j), with each
    product added to the sum as it comes: the slow reference of
    ScalarDiffOp.compose."""
    out: dict = {}
    for m, a in A.coeffs.items():
        for n, b in B.coeffs.items():
            bded = b
            for j in range(m + 1):
                coef = math.comb(m, j)
                term = a * bded if coef == 1 else a * bded * Fraction(coef)
                accumulate(out, m + n - j, term)
                if j < m:
                    bded = bded.derive()
    return ScalarDiffOp(A.alg, out)


def mat_compose_reference(A: MatDiffOp, B: MatDiffOp) -> MatDiffOp:
    """A o B as a sum over t of compose_reference(A_it, B_tj), entry by
    entry: the slow reference of MatDiffOp.compose."""
    out = []
    for i in range(A.m):
        row = []
        for j in range(B.n):
            acc = ScalarDiffOp.zero(A.alg)
            for t in range(A.n):
                acc = acc + compose_reference(A.rows[i][t], B.rows[t][j])
            row.append(acc)
        out.append(row)
    return MatDiffOp(A.alg, out)


def adjoint_reference(op: ScalarDiffOp) -> ScalarDiffOp:
    """(sum c_n d^n)* = sum (-d)^n o c_n term by term: the slow reference
    of ScalarDiffOp.adjoint."""
    out: dict = {}
    for n, c in op.coeffs.items():
        cd = c
        for j in range(n + 1):
            coef = math.comb(n, j) * (-1) ** n
            accumulate(out, n - j, cd * Fraction(coef))
            if j < n:
                cd = cd.derive()
    return ScalarDiffOp(op.alg, out)


def variational_derivative_reference(f: DiffPoly) -> tuple:
    """sum_n (-d)^n df/du_i^(n) with n derives for each order n: the slow
    reference of variational_derivative."""
    alg = f.alg
    out = []
    for i in range(1, alg.nvars + 1):
        acc = alg.zero
        for n in sorted({n for (n, j) in f.jet_support() if j == i}):
            g = f.jet_partial(i, n)
            for _ in range(n):
                g = g.derive()
            acc = acc + (g if n % 2 == 0 else -g)
        out.append(acc)
    return tuple(out)


def higher_euler_reference(f: DiffPoly, i: int) -> LambdaPoly:
    """sum_n (-lam-d)^n df/du_i^(n) with one LambdaPoly sum per order: the
    slow reference of higher_euler."""
    alg = f.alg
    out = LambdaPoly.zero(alg, 1)
    for n in sorted({n for (n, j) in f.jet_support() if j == i} | {0}):
        g = LambdaPoly.const(alg, 1, f.jet_partial(i, n))
        out = out + (affine_pow_on({0: -1}, -1, n, g) if n else g)
    return out


def apply_reference(op: ScalarDiffOp, f):
    """sum c_n f^(n) with n derives for each order n: the slow reference of
    ScalarDiffOp.apply."""
    scalar = isinstance(f, FieldElem)
    out = f.field.zero if scalar else op.alg.zero
    for n, c in (op.field_coeffs() if scalar else op.coeffs).items():
        g = f
        for _ in range(n):
            g = g.derive()
        out = out + c * g
    return out


def mat_apply_reference(M: MatDiffOp, vec) -> list:
    """apply_reference entry by entry: the slow reference of
    MatDiffOp.apply."""
    return [sum((apply_reference(M.rows[i][j], vec[j]) for j in range(M.n)),
                M.alg.zero) for i in range(M.m)]


def linform_evaluate_reference(lf, values):
    """sum c D^r(values[a]) with r derives for each term: the linear form
    lf with each unknown a set to the element values[a] of F."""
    out = lf.field.zero
    for (a, r), c in lf.terms.items():
        v = values[a]
        for _ in range(r):
            v = v.derive()
        out = out + c * v
    return out


def selfadjoint_product_space_reference(K: MatDiffOp) -> list:
    """Basis over C of {P : ord(P) <= ord(K) - 1, K o P selfadjoint} with
    a generic unknown: P has the LinForm coefficients p_qij at d^q, so the
    coefficients of K o P - (K o P)* (mat_compose_reference and an
    entrywise adjoint_reference with transposition) are the equations, and
    each kernel vector is read back by linform_evaluate_reference.  The
    slow reference of selfadjoint_product_space, which reads the space off
    sigma_space(K*, 1)."""
    alg, field = K.alg, K.alg.field
    N, size = K.order(), K.m
    atoms = [(q, i, j) for q in range(N) for i in range(size)
             for j in range(size)]
    P = MatDiffOp(alg, [[ScalarDiffOp(alg, {q: LinForm.atom(field, (q, i, j))
                                             for q in range(N)})
                         for j in range(size)] for i in range(size)])
    T = mat_compose_reference(K, P)
    R = T - MatDiffOp(alg, [[adjoint_reference(T.rows[j][i])
                             for j in range(size)] for i in range(size)])
    sols = solve_linform_system(
        alg, (((i, j, n), e.coeffs[n])
              for i, row in enumerate(R.rows) for j, e in enumerate(row)
              for n in sorted(e.coeffs)), atoms)
    out = []
    for vec in sols.homogeneous:
        values = dict(zip(atoms, vec))
        out.append(MatDiffOp(alg, [[ScalarDiffOp(alg, {
            n: linform_evaluate_reference(c, values)
            for n, c in e.coeffs.items()}) for e in r] for r in P.rows]))
    return out


def elimination_sub_reference(self, i: int, j: int, P, a=None):
    """_Elimination.sub the slow way: row_j is scaled by a, then P o row_i
    (compose_reference) is subtracted entry by entry, then the row is
    divided by its content.  Patch it over _Elimination.sub with
    reference_elimination()."""
    rows = self.rows
    if a is None:
        rows[j] = [x - P.compose(y) for x, y in zip(rows[j], rows[i])]
        self.ops.append(("sub", i, j, P, 1, 1))
        return
    row = [x if a == 1 else x.scale(a) for x in rows[j]]
    row = [x if y.is_zero() else x - compose_reference(P, y)
           for x, y in zip(row, rows[i])]
    keys, polys = _split(row)
    g, polys = _primitive_parts(_coefficient_terms(a), polys)
    if g is None:
        g = 1
    else:
        row, g = self._join(keys, polys, len(row)), self._coefficient(g)
    rows[j] = row
    self.ops.append(("sub", i, j, P, a, g))


def reference_elimination():
    """A context in which every row reduction over F[d] steps with
    elimination_sub_reference."""
    return mock.patch.object(_Elimination, "sub", elimination_sub_reference)


def linform_matrix_reference(alg: DiffAlgebra, eqs: list,
                             atoms: list) -> MatDiffOp:
    """The operator matrix of LinForm equations, built entry by entry: row
    i holds in column j the operator sum_r c D^r for the terms c D^r
    atoms[j] of eqs[i]; None is a zero row."""
    index = {a: j for j, a in enumerate(atoms)}
    rows = []
    for lf in eqs:
        row = [{} for _ in atoms]
        for (a, r), c in (lf.terms.items() if lf is not None else ()):
            row[index[a]][r] = alg.from_scalar(c)
        rows.append([ScalarDiffOp(alg, e) for e in row])
    return MatDiffOp(alg, rows)


def _division_step(row, pivot_row, col):
    """row - (lc_e / lc_p) d^(ord e - ord p) o pivot_row, e and p the
    entries of row and pivot_row in column col, ord e >= ord p.  Entries
    with jets hold DiffRat coefficients, which are no operator
    coefficients of the library, so the products go term by term
    (compose_reference)."""
    e, p = row[col], pivot_row[col]
    P = ScalarDiffOp(p.alg, {e.order() - p.order():
                             e.leading_coefficient() / p.leading_coefficient()})
    return [a - compose_reference(P, b) for a, b in zip(row, pivot_row)]


def echelon_by_division(M: MatDiffOp):
    """Row echelon form of M over F[d] by division: the entries move into F
    (quasiconstant M) or into V's fraction field (DiffRat), the pivot is an
    entry of least order (first row among ties), and an entry e below the
    pivot p is reduced by row_e -= (lc_e / lc_p) d^(ord e - ord p) o row_p.
    The reference for the fraction-free kernel; returns (rows, sign), sign
    being -1 to the number of swaps."""
    alg = M.alg
    rows = _field_entries(M, lambda c: DiffRat.of(c, alg))
    sign, m, r = 1, M.m, 0
    for col in range(M.n):
        if r >= m:
            break
        live = [i for i in range(r, m) if not rows[i][col].is_zero()]
        if not live:
            continue
        while True:
            piv = min(live, key=lambda i: rows[i][col].order())
            if piv != r:
                rows[r], rows[piv] = rows[piv], rows[r]
                sign = -sign
            p = rows[r][col]
            rest = [i for i in range(r + 1, m) if not rows[i][col].is_zero()]
            if not rest:
                break
            for i in rest:
                rows[i] = _division_step(rows[i], rows[r], col)
            live = [i for i in range(r, m) if not rows[i][col].is_zero()]
        r += 1
    return rows, sign


def _pivot(row) -> tuple:
    """(column, order) of the first nonzero entry of row, (None, None) for
    a zero row."""
    col = next((j for j, e in enumerate(row) if not e.is_zero()), None)
    return (None, None) if col is None else (col, row[col].order())


def _in_span(row, rows) -> bool:
    """Whether row is sum_j q_j o rows[j] with q_j in K[d], the rows being
    in echelon form: left to right, each pivot must clear its column of row
    by division steps, and nothing may be left over."""
    for r in rows:
        col, order = _pivot(r)
        if col is None:
            continue
        if any(not e.is_zero() for e in row[:col]):
            return False
        while not row[col].is_zero() and row[col].order() >= order:
            row = _division_step(row, r, col)
        if not row[col].is_zero():
            return False
    return all(e.is_zero() for e in row)


def same_row_flags(E: MatDiffOp, ref) -> bool:
    """E and the rows ref, row echelon forms of one matrix over K[d] (K = F,
    or the fraction field of V when the matrix has jets), are related by
    E = U ref with U upper triangular and invertible: for every i, row i of
    E lies in the left K[d]-span of the rows i, i+1, ... of ref, and the
    pivots of both sit in the same columns with the same orders.  So the
    pivot of E's row i is U_ii times ref's, U_ii is of order 0, i.e. in K*,
    and the rows from any index on span the same module in both.

    The entries right of a pivot need not agree, not even in order: a
    fraction-free step lc_p row_e - lc_e d^k o (f row_p) differs from f lc_p
    times the division step row_e - (lc_e / lc_p) d^k o row_p by multiples
    of row_p of lower order, which come from d^k o f = f d^k + k f' d^(k-1)
    + ..., and may zero an entry that the division step keeps (or the
    reverse)."""
    rows = _field_entries(E, lambda c: DiffRat.of(c, E.alg))
    return [_pivot(r) for r in rows] == [_pivot(r) for r in ref] and all(
        _in_span(rows[i], ref[i:]) for i in range(len(rows)))


def det_by_division(M: MatDiffOp) -> DetValue:
    """The Dieudonne determinant from echelon_by_division: the swap sign
    times the product of the diagonal leading terms."""
    rows, sign = echelon_by_division(M)
    diag = [rows[i][i] for i in range(M.m)]
    if any(e.is_zero() for e in diag):
        return DET_ZERO
    c = diag[0].leading_coefficient() * sign
    for e in diag[1:]:
        c = c * e.leading_coefficient()
    return DetValue(_simplify_coeff(c), sum(e.order() for e in diag))


def ansatz_reference(M: MatDiffOp, b: list):
    """The rational solutions of M y = b by the ansatz on M itself, for a
    square M of full rank with x in a coefficient: degree 2 deg det M + 4
    over the denominators of b, as solve_rational found them before it
    triangularized x-dependent systems."""
    den = (M.alg.field.one if all(v.is_zero() for v in b)
           else clear_denominators(b)[0])
    return _solve_by_ansatz(M, b, 2 * dieudonne_det(M).d + 4, den)


def triangular_form_has_x(M: MatDiffOp) -> bool:
    """Whether x is in a coefficient of the triangular form that
    solve_rational solves M on: M's coefficient rows (column k n + j for
    d^k y_j) reduced over F, then row_echelon on the nonzero ones."""
    field, n = M.alg.field, M.n
    rows = [{k * n + j: c for j, e in enumerate(row)
             for k, c in e.field_coeffs().items()} for row in M.rows]
    width = 1 + max((col for row in rows for col in row), default=0)
    rank = len(_eliminate(rows, width, field)[0])
    U, _ = row_echelon(_as_matrix(M.alg, rows[:rank], n))
    return any(not c.is_constant() for row in U.rows for e in row
               for c in e.coeffs.values())


def constant_rank(vectors: list) -> int:
    """The rank over the constants of vectors with entries in F: over a
    common denominator, each vector is read as the x-coefficients of its
    entries."""
    if not vectors:
        return 0
    field = vectors[0][0].field
    den = clear_denominators([v for y in vectors for v in y])[0]
    columns: dict = {}
    rows = [{columns.setdefault((j, t), len(columns)): c
             for j, v in enumerate(y)
             for t, c in x_coefficients(v * den).items()} for y in vectors]
    return len(_eliminate(rows, len(columns), field)[0])


def invert_k_by_constant_inverse(K: MatDiffOp, F: list) -> list:
    """G with K(d) G = F for K = A diag(c_j d^(m_j)), A invertible over F:
    read off the orders m_j by column and the matrix (a_ij c_j), invert it
    by linsolve, so that d^(m_j) g_j is the j-th entry of that inverse
    times F, and take m_j antiderivatives in V.  The reference for the
    Lenard-Magri driver's triangular solve on this class."""
    field = K.alg.field
    size = K.m
    orders = []
    for j in range(size):
        col = [K.rows[i][j] for i in range(size) if not K.rows[i][j].is_zero()]
        (m,) = {e.order() for e in col}
        assert all(len(e.coeffs) == 1 for e in col), "not a single d-power"
        orders.append(m)
    amat = [[field.zero if e.is_zero() else e.field_coeffs()[orders[j]]
             for j, e in enumerate(row)] for row in K.rows]
    binv = matrix_inverse(amat, field)
    assert binv is not None, "the constant factor is singular"
    G = []
    for j in range(size):
        g = sum((f.scale(b) for f, b in zip(F, binv[j])), K.alg.zero)
        for _ in range(orders[j]):
            g = antiderivative_in_v(g)
        G.append(g)
    return G


def invert_k_reference(K: MatDiffOp, F: list) -> list:
    """G with K(d) G = F in V^l by the Lenard-Magri driver's own bottom-up
    loop, as it was before the driver used the linear solver's
    back-substitution: replay row_echelon(K)'s operations on F, then solve
    the rows from the last one up, g_j = int^m (f'_j - sum_(t>j) U_jt g_t)
    / c for the pivot c d^m.  Raises UnsupportedK and NoPreimage with the
    driver's messages and witnesses."""
    U, ops = row_echelon(K)
    f = _replay(ops, F)
    size = len(f)
    G = [None] * size
    for j in reversed(range(size)):
        pivot = U.rows[j][j]
        if pivot.is_zero():
            raise UnsupportedK("K is singular: its triangular form has a "
                               "zero pivot")
        if len(pivot.coeffs) != 1:
            raise UnsupportedK("pivot is not a single d-power")
        (m, c), = pivot.coeffs.items()
        g = (f[j] - sum((U.rows[j][t].apply(G[t])
                         for t in range(j + 1, size)), K.alg.zero)) / c
        for step in range(m):
            try:
                g = antiderivative_in_v(g)
            except NotExact as err:
                raise NoPreimage(
                    f"component {j + 1} is not in the image of K "
                    f"(obstruction at derivative {step + 1} of {m}): "
                    f"{err}", witness=g) from err
        G[j] = g
    return G


def commuting_flows(state) -> bool:
    """Hamiltonian vector fields of the stored densities pairwise commute."""
    fields = [hamiltonian_vf(h, state.H) for h in state.densities]
    n = len(fields)
    for a in range(n):
        for b in range(a + 1, n):
            if not ev_commutator(fields[a], fields[b]).is_zero():
                return False
    return True


@st.composite
def field_elems(draw, field, with_x=True):
    """A small element of F: a rational, times a power of x and times a
    parameter when the field has one."""
    v = field.rational(Fraction(draw(st.integers(-3, 3)),
                                draw(st.sampled_from([1, 2, 3]))))
    if with_x:
        v = v * field.x ** draw(st.integers(0, 1))
    for name in field.params:
        if draw(st.booleans()):
            v = v * field.param(name)
    return v


@st.composite
def diffpolys(draw, alg: DiffAlgebra, max_order=2, max_degree=2, max_terms=3,
              with_x=False):
    """A sparse differential polynomial: a few monomials of bounded degree
    and jet order, each with a small coefficient from field_elems."""
    out = alg.zero
    for _ in range(draw(st.integers(0, max_terms))):
        t = alg.from_scalar(draw(field_elems(alg.field, with_x)))
        for _ in range(draw(st.integers(0, max_degree))):
            t = t * alg.jet(draw(st.integers(1, alg.nvars)),
                            draw(st.integers(0, max_order)))
        out = out + t
    return out


# -- integer coefficient tables -------------------------------------------------
#
# The tables that rewrite lambda-monomials modulo lam_0 + ... + lam_k + d.
# No library code reads them; the tests keep checking their identities.


class BadSupport(Exception):
    """A target monomial outside a table's allowed support."""


def _sorted_desc(t: Sequence[int]) -> tuple:
    return tuple(sorted(t, reverse=True))


class _CoeffTable:
    """Coefficients rewriting lam_0^{n_0}..lam_k^{n_k}, under lam_0 =
    -lam_1 - ... - lam_k - d, over the allowed monomials: those whose two
    largest exponents differ by exactly one when `ties` (the c-table, with
    powers of d possibly negative), else by zero or one (the b-table, with
    nonnegative powers of d).  A top gap of two or more is lowered by
    lam_a^{n_a} = -lam_a^{n_a - 1}(d + sum_{b != a} lam_b), with a the first
    largest exponent; with `ties`, a tie is lifted by
    d lam^n = -sum_a lam^(n + e_a).  Values are memoized per table, with no
    lock: the package starts no threads."""

    def __init__(self, ties: bool):
        self.ties = ties
        self.gaps = (1,) if ties else (0, 1)
        self.memo: dict = {}

    def get(self, n: tuple, m: tuple) -> int:
        n, m = tuple(n), tuple(m)
        mu = _sorted_desc(m)
        if len(mu) < 2 or mu[0] - mu[1] not in self.gaps:
            gaps = " or ".join(map(str, self.gaps))
            raise BadSupport(f"target tuple must have top exponents "
                             f"differing by {gaps}")
        return self._c(n, m)

    def _c(self, n: tuple, m: tuple) -> int:
        key = (n, m)
        if key in self.memo:
            return self.memo[key]
        nu = _sorted_desc(n)
        if nu[0] - nu[1] in self.gaps:
            val = 1 if n == m else 0
        elif nu[0] == nu[1]:
            val = 0
            for a in range(len(n)):
                bumped = n[:a] + (n[a] + 1,) + n[a + 1:]
                val -= self._c(bumped, m)
        else:
            a = max(range(len(n)), key=lambda t: n[t])
            val = -self._c(n[:a] + (n[a] - 1,) + n[a + 1:], m)
            for b in range(len(n)):
                if b == a:
                    continue
                shifted = list(n)
                shifted[b] += 1
                shifted[a] -= 1
                val -= self._c(tuple(shifted), m)
        self.memo[key] = val
        return val

    def expansion(self, n: tuple) -> list:
        """All (coefficient, m, dpow) with nonzero coefficient in the
        rewriting of lam^n; dpow = sum(n) - sum(m), negative only with
        `ties`."""
        out = []
        for m in itertools.product(range(max(n) + 1 + self.ties),
                                   repeat=len(n)):
            mu = _sorted_desc(m)
            if mu[0] - mu[1] not in self.gaps:
                continue
            c = self._c(tuple(n), m)
            if c:
                out.append((c, m, sum(n) - sum(m)))
        return out


_C_TABLE = _CoeffTable(ties=True)
_B_TABLE = _CoeffTable(ties=False)


def coeff_c(n: tuple, m: tuple) -> int:
    return _C_TABLE.get(n, m)


def coeff_b(n: tuple, m: tuple) -> int:
    return _B_TABLE.get(n, m)


def expand_monomial(n: tuple) -> list:
    """Rewriting of a full lambda-monomial as sum of allowed monomials times
    d-powers; substituting lam_0 = -lam_1 - ... - lam_k - d in both sides
    gives an identity of commutative (Laurent in d) polynomials."""
    return _C_TABLE.expansion(tuple(n))


# -- paper constructions that no library verdict uses ------------------------------
#
# The de Rham differential, the arity-1 comparison map, the integration
# pairings, the canonical forms and skewadjoint decomposition of operators,
# evolutionary vector fields and the structure H = d.  No report or library
# function reads them; the tests keep checking their identities.


def de_rham_delta(P: SkewArray) -> SkewArray:
    """(delta P)_{i0..ik} = sum_alpha (-1)^alpha sum_n
    d(P with alpha-th slot removed)/du_{i_alpha}^(n) lam_alpha^n: the twisted
    differential delta_K at K = 1."""
    return delta_k(P, MatDiffOp.identity(P.alg, P.alg.nvars))


def phi_k1(S: MatDiffOp, K: MatDiffOp) -> MatDiffOp:
    """The arity-1 comparison map: S skewadjoint goes to -K o S o K."""
    if not (S + S.adjoint()).is_zero():
        raise NotSkewadjoint("input must be skewadjoint")
    return -(K.compose(S).compose(K))


def _apply_entry(L: LambdaPoly, args: Sequence[DiffPoly]) -> DiffPoly:
    """L(d_1..d_k) applied to args: sum over the terms c lam^e of L of c
    times the product of the e_t-th derivatives of args[t]."""
    acc = L.alg.zero
    for e, c in L.terms.items():
        term = c
        for t, g in enumerate(args):
            for _ in range(e[t]):
                g = g.derive()
            term = term * g
        acc = acc + term
    return acc


def array_pairing(P: SkewArray,
                  gs: Sequence[Sequence[DiffPoly]]) -> LocalFunctional:
    """The local polydifferential value int sum P_idx(d_1..d_k) g^1 ... g^k,
    each d_t hitting its own argument.  The quotient class of P is zero
    exactly when these values vanish for all arguments (nondegeneracy of the
    integration pairing)."""
    if len(gs) != P.k:
        raise ValueError("need one argument vector per arity slot")
    acc = P.alg.zero
    for idx in P.all_keys():
        acc = acc + _apply_entry(P.entry(idx), [gs[t][i - 1]
                                                for t, i in enumerate(idx)])
    return LocalFunctional(acc)


def pairing(F0: Sequence[DiffPoly], P: KDiffOp,
            fs: Sequence[Sequence[DiffPoly]]) -> LocalFunctional:
    """int F^0 . P(F^1..F^k), the pairing underlying the S_{k+1} action."""
    if len(fs) != P.k:
        raise ValueError("need k argument vectors")
    acc = P.alg.zero
    for idx, L in P.entries.items():
        args = [fs[t][i - 1] for t, i in enumerate(idx[1:])]
        acc = acc + F0[idx[0] - 1] * _apply_entry(L, args)
    return LocalFunctional(acc)


def _peel(op: ScalarDiffOp, block) -> dict:
    """{key: c} from taking blocks off op until nothing is left: with o and
    c the order and leading coefficient of the rest, block(o, c) returns
    (key, B), B of order o with leading coefficient c, and B is subtracted.
    Raises InvariantViolation when a step does not lower the order."""
    out: dict = {}
    rem = op
    while not rem.is_zero():
        o, c = rem.order(), rem.leading_coefficient()
        key, B = block(o, c)
        out[key] = c
        rem = rem - B
        if not rem.is_zero() and rem.order() >= o:
            raise InvariantViolation("a canonical form block does not lower "
                                     "the order")
    return out


def right_coefficient_form(op: ScalarDiffOp) -> dict:
    """Coefficients b_n of the rewriting sum d^n o b_n."""
    alg = op.alg
    return _peel(op, lambda o, c: (
        o, ScalarDiffOp.d(alg, o).compose(ScalarDiffOp(alg, {0: c}))))


def split_form(op: ScalarDiffOp) -> tuple:
    """Coefficients ({c_m}, {d_n}) of
    sum d^(m+1) o c_m d^m + sum d^n o d_n d^n: the block of order o is
    d^(o - h) o c d^h with h = o // 2 (m = h for odd o, n = h for even
    o)."""
    alg = op.alg

    def block(o, c):
        h = o // 2
        return (o % 2, h), ScalarDiffOp.d(alg, o - h).compose(
            ScalarDiffOp(alg, {h: c}))

    form = _peel(op, block)
    return ({h: c for (odd, h), c in form.items() if odd},
            {h: c for (odd, h), c in form.items() if not odd})


def canonical_forms(P: ScalarDiffOp) -> dict:
    """The three canonical writings of a scalar operator."""
    return {"left": dict(P.coeffs), "right": right_coefficient_form(P),
            "split": split_form(P)}


def skewadjoint_decompose(S, selfadjoint: bool = False):
    """Write S = sum_m d^m o (d o a_m + a_m d) d^m + sum_m d^m o b_m d^m with
    a_m* = a_m and b_m* = -b_m (signs swapped for the selfadjoint variant).
    Accepts a ScalarDiffOp or a square MatDiffOp; returns ({m: a_m}, {m: b_m})
    with matrix values for matrix input."""
    scalar = isinstance(S, ScalarDiffOp)
    mat = MatDiffOp.scalar(S) if scalar else S
    alg = mat.alg
    if not mat.is_square():
        raise ShapeMismatch("decomposition needs a square operator")
    want = mat.adjoint() if selfadjoint else -mat.adjoint()
    if not (mat - want).is_zero():
        raise NotSkewadjoint(
            "operator is not " + ("selfadjoint" if selfadjoint else "skewadjoint"))
    dd = ScalarDiffOp.d(alg)

    def block(o, c):
        """d^m o (d o c/2 + c/2 d) d^m for o = 2m + 1, d^m o c d^m for
        o = 2m."""
        m = o // 2
        if o % 2:
            half = ScalarDiffOp(alg, {0: c * Fraction(1, 2)})
            mid = dd.compose(half) + half.compose(dd)
        else:
            mid = ScalarDiffOp(alg, {0: c})
        return (o % 2, m), ScalarDiffOp.d(alg, m).compose(mid).compose(
            ScalarDiffOp.d(alg, m))

    # each block is entrywise, so every entry is peeled on its own
    forms = [[_peel(e, block) for e in row] for row in mat.rows]
    keys = sorted({key for row in forms for form in row for key in form},
                  key=lambda key: -(2 * key[1] + key[0]))
    a_out: dict = {}
    b_out: dict = {}
    for odd, m in keys:
        lead = [[form.get((odd, m), alg.zero) for form in row]
                for row in forms]
        if odd:
            a_out[m] = [[c * Fraction(1, 2) for c in r] for r in lead]
        else:
            b_out[m] = lead
    if scalar:
        a_out = {m: v[0][0] for m, v in a_out.items()}
        b_out = {m: v[0][0] for m, v in b_out.items()}
    return a_out, b_out


class EvVectorField:
    """Evolutionary vector field X_P = sum (d^n P_i) d/du_i^(n), stored by
    its characteristic P."""

    __slots__ = ("alg", "P")

    def __init__(self, characteristic: Sequence[DiffPoly]):
        self.P = list(characteristic)
        self.alg = self.P[0].alg
        if len(self.P) != self.alg.nvars:
            raise ValueError("characteristic length must equal nvars")

    def __call__(self, f: DiffPoly) -> DiffPoly:
        return ev_apply(self, f)

    def __eq__(self, other):
        if not isinstance(other, EvVectorField):
            return NotImplemented
        return all(a == b for a, b in zip(self.P, other.P))

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.P)

    def __repr__(self):
        return f"EvVectorField({self.P!r})"


def ev_apply(X: EvVectorField, f: DiffPoly) -> DiffPoly:
    out = f.alg.zero
    derived = {}
    for (n, i) in sorted(f.jet_support()):
        if (n, i) not in derived:
            g = X.P[i - 1]
            for _ in range(n):
                g = g.derive()
            derived[(n, i)] = g
        out = out + derived[(n, i)] * f.jet_partial(i, n)
    return out


def ev_commutator(X: EvVectorField, Y: EvVectorField) -> EvVectorField:
    return EvVectorField([ev_apply(X, q) - ev_apply(Y, p)
                          for p, q in zip(X.P, Y.P)])


def ad_field_on_operator(X: EvVectorField,
                         H: LambdaBracketStruct) -> MatDiffOp:
    """Action of an evolutionary field on a bracket operator:
    X_P(H) - H o D_P* - D_P o H."""
    xh = MatDiffOp(X.alg, [[ScalarDiffOp(X.alg, {
        n: ev_apply(X, c) if isinstance(c, DiffPoly) else X.alg.zero
        for n, c in e.coeffs.items()}) for e in r] for r in H.op.rows])
    dp = frechet(X.P)
    return xh - H.op.compose(dp.adjoint()) - dp.compose(H.op)


def hamiltonian_vf(h, H: LambdaBracketStruct) -> EvVectorField:
    """Characteristic H(d) (delta h / delta u)."""
    rep = h.representative if isinstance(h, LocalFunctional) else h
    grad = list(variational_derivative(rep))
    return EvVectorField(H.op.apply(grad))


def gfz_structure(alg: DiffAlgebra) -> LambdaBracketStruct:
    """The structure with {u_lam u} = lam on one variable (H = d); for
    several variables, d times the identity matrix."""
    size = alg.nvars
    return LambdaBracketStruct(MatDiffOp(alg, [
        [ScalarDiffOp.d(alg) if i == j else ScalarDiffOp.zero(alg)
         for j in range(size)] for i in range(size)]))
