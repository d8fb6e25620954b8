import itertools
import math
import random
from fractions import Fraction

import time

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from varpois import (DiffAlgebra, Incomplete, KDiffOp, LambdaPoly,
                     LeadingCoeffSingular, MatDiffOp, NoRationalSolution,
                     NotInSigma, NotQuasiconstant, ScalarDiffOp, ShapeMismatch,
                     chi_representative, cohomology_dim, frechet,
                     functional_eq, is_skewsymmetric, is_totally_skewsymmetric,
                     module_action, selfadjoint_product_space,
                     sigma_action, sigma_space, skew_product,
                     solve_rational, solve_skew_equation,
                     total_skewsymmetrize)
from varpois.complexes import QuotientArray, delta_k
from varpois import diffop, polydiff
from helpers import (_B_TABLE, _C_TABLE, BadSupport, as_one_form, coeff_b,
                     coeff_c, expand_monomial, pairing,
                     reference_elimination, rnd_diffpoly,
                     skewadjoint_decompose, to_mat_diff_op,
                     total_skewsymmetrize_reference,
                     total_skewsymmetrize_shortcut, x_dependent_grid)

ALG = DiffAlgebra(1, [])
ALG2 = DiffAlgebra(2)


def rnd_kdiffop(rng, alg, k, max_deg=2):
    P = KDiffOp(alg, k)
    for idx in itertools.product(range(1, alg.nvars + 1), repeat=k + 1):
        terms = {}
        for e in itertools.product(range(max_deg), repeat=k):
            v = rng.randint(-2, 2)
            if v:
                coeff = alg.field.rational(v) + alg.field.x * rng.randint(0, 1)
                terms[e] = alg.from_scalar(coeff)
        if terms:
            P.entries[idx] = LambdaPoly(alg, k, terms)
    return P


# -- S_{k+1} action --------------------------------------------------------------


def test_identity_action():
    rng = random.Random(40)
    P = rnd_kdiffop(rng, ALG2, 2)
    assert sigma_action(P, (0, 1, 2)) == P


def test_transposition_is_adjoint_at_arity_one():
    x = ALG.field.x
    op = ScalarDiffOp(ALG, {1: ALG.from_scalar(x)})
    P = KDiffOp.from_mat_diff_op(MatDiffOp(ALG, [[op]]))
    Pt = sigma_action(P, (1, 0))
    assert to_mat_diff_op(Pt) == MatDiffOp(ALG, [[op.adjoint()]])
    # double transposition returns the operator
    assert sigma_action(Pt, (1, 0)) == P


def test_group_action_axiom():
    rng = random.Random(41)
    P = rnd_kdiffop(rng, ALG2, 2, max_deg=2)
    for sigma in itertools.permutations(range(3)):
        for tau in itertools.permutations(range(3)):
            comp = tuple(tau[sigma[a]] for a in range(3))
            assert sigma_action(sigma_action(P, sigma), tau) == \
                sigma_action(P, comp)


@pytest.mark.parametrize("alg", [ALG, ALG2], ids=["l1", "l2"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), s=st.permutations(range(4)),
       t=st.permutations(range(4)))
def test_group_action_axiom_k3(alg, seed, s, t):
    """(P^s)^t = P^(t s) at k = 3, where S_4 has elements of order 3 and 4.
    The entries have degree 1 in each lam, so a permutation that moves the
    variables differently from the indices shows."""
    P = rnd_kdiffop(random.Random(seed), alg, 3, max_deg=2)
    comp = tuple(t[s[a]] for a in range(4))
    assert sigma_action(sigma_action(P, s), t) == sigma_action(P, comp)


def test_pairing_covariance():
    """int F^0 . P(F^1..F^k) is S_{k+1}-covariant."""
    rng = random.Random(42)
    P = rnd_kdiffop(rng, ALG2, 1, max_deg=2)
    fs = [[rnd_diffpoly(rng, ALG2, terms=2) for _ in range(2)]
          for _ in range(2)]
    base = pairing(fs[0], P, [fs[1]])
    for sigma in itertools.permutations(range(2)):
        Ps = sigma_action(P, sigma)
        lhs = pairing(fs[sigma[0]], Ps, [fs[sigma[1]]])
        assert functional_eq(lhs, base)


def test_total_skewsymmetrize():
    rng = random.Random(43)
    P = rnd_kdiffop(rng, ALG2, 2)
    TS = total_skewsymmetrize(P)
    assert total_skewsymmetrize(TS) == TS
    assert is_totally_skewsymmetric(TS)
    assert total_skewsymmetrize_shortcut(TS) == TS
    # multiplication operators average to zero at arity one
    x = ALG.field.x
    Pa = KDiffOp(ALG, 1, {(1, 1): LambdaPoly.const(ALG, 1,
                                                   ALG.from_scalar(x))})
    assert total_skewsymmetrize(Pa).is_zero()


def test_module_action():
    rng = random.Random(44)
    P = rnd_kdiffop(rng, ALG2, 2)
    assert module_action(MatDiffOp.identity(ALG2, 2), P) == P
    z = ScalarDiffOp.zero(ALG2)
    K1 = MatDiffOp(ALG2, [[ScalarDiffOp.d(ALG2), z],
                          [ScalarDiffOp.identity(ALG2), ScalarDiffOp.d(ALG2, 2)]])
    K2 = MatDiffOp(ALG2, [[ScalarDiffOp.identity(ALG2), ScalarDiffOp.d(ALG2)],
                          [z, ScalarDiffOp.identity(ALG2)]])
    assert module_action(K1, module_action(K2, P)) == \
        module_action(K1.compose(K2), P)
    # k=1, K=d, P = multiplication by a: (lam + d) a
    x = ALG.field.x
    Pa = KDiffOp(ALG, 1, {(1, 1): LambdaPoly.const(ALG, 1,
                                                   ALG.from_scalar(x))})
    out = module_action(MatDiffOp(ALG, [[ScalarDiffOp.d(ALG)]]), Pa)
    want = LambdaPoly(ALG, 1, {(1,): ALG.from_scalar(x), (0,): ALG.one})
    assert out.entry((1, 1)) == want


def test_module_action_preserves_skewsymmetry():
    rng = random.Random(45)
    P = total_skewsymmetrize(rnd_kdiffop(rng, ALG2, 2))
    z = ScalarDiffOp.zero(ALG2)
    K = MatDiffOp(ALG2, [[ScalarDiffOp.d(ALG2, 2), z],
                         [z, ScalarDiffOp.d(ALG2, 2)]])
    assert is_skewsymmetric(module_action(K, P))


def test_skew_pairing_alternating_form():
    """The unnormalized skewsymmetrization of K o P matches the alternating
    sum over removed slots for skewsymmetric P."""
    rng = random.Random(46)
    P = total_skewsymmetrize(rnd_kdiffop(rng, ALG, 1))
    K = MatDiffOp(ALG, [[ScalarDiffOp.d(ALG)]])
    lhs = skew_product(K, P)
    KP = module_action(K, P)
    from varpois.polydiff import _tau_action
    rhs = KP - _tau_action(KP, 1)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), l=st.integers(1, 2), k=st.integers(0, 3),
       skew=st.booleans())
@example(seed=483, l=2, k=2, skew=False)
@example(seed=1888, l=2, k=2, skew=False)
def test_total_skewsymmetrize_matches_the_full_sum(seed, l, k, skew):
    """The coset sum equals the sum over all of S_(k+1), on any P and on
    an S_k-skewsymmetric one (the shape the solvers pass in), entry order
    included: a sum of arrays holds its entries in sorted key order, which
    the two seeds pinned above once broke."""
    alg = ALG if l == 1 else ALG2
    P = rnd_kdiffop(random.Random(seed), alg, k)
    if skew:
        P = total_skewsymmetrize_reference(P)
        assert is_skewsymmetric(P)
    got, want = total_skewsymmetrize(P), total_skewsymmetrize_reference(P)
    assert got == want and repr(got.entries) == repr(want.entries)


# -- coefficient tables -----------------------------------------------------------


def test_c_base_and_remark_values():
    for p in range(4):
        for m in range(5):
            assert coeff_c((p, p), (m + 1, m)) == (-1 if m == p else 0)
    for p in range(1, 5):
        for q in range(p):
            for m in range(q, (p + q) // 2 + 1):
                want = (-1) ** (m + p + 1) * math.comb(p - m, m - q)
                assert coeff_c((p, q), (m + 1, m)) == want


def test_c_bad_support():
    with pytest.raises(BadSupport):
        coeff_c((2, 0), (2, 0))


def test_b_base_and_example():
    assert coeff_b((1, 0), (1, 0)) == 1
    assert coeff_b((2, 0), (1, 1)) == -1
    assert coeff_b((2, 0), (1, 0)) == -1
    with pytest.raises(BadSupport):
        coeff_b((2, 0), (3, 0))


def _expand_commutative(n, terms):
    """Evaluate sum c * lam^m * d^dpow minus lam^n, with
    lam_0 = -(lam_1 + ... + lam_k + d), in Q[lam_1..lam_k, d^(+-1)]."""
    k1 = len(n)
    k = k1 - 1

    def lam0_pow(p):
        out = {}
        for combo in itertools.product(range(k1), repeat=p):
            key = [0] * k
            dp = 0
            for c in combo:
                if c < k:
                    key[c] += 1
                else:
                    dp += 1
            kk = tuple(key) + (dp,)
            out[kk] = out.get(kk, 0) + (-1) ** p
        return out

    def mono(m, dpow):
        out = {}
        for key, c in lam0_pow(m[0]).items():
            kk = tuple(key[t] + m[1 + t] for t in range(k)) + \
                (key[k] + dpow,)
            out[kk] = out.get(kk, 0) + c
        return out

    lhs = mono(n, 0)
    rhs = {}
    for c, m, dp in terms:
        for key, v in mono(m, dp).items():
            rhs[key] = rhs.get(key, 0) + c * v
    return all(lhs.get(kk, 0) == rhs.get(kk, 0)
               for kk in set(lhs) | set(rhs))


def test_monomial_expansion_identity():
    for k in (1, 2):
        for n in itertools.product(range(4), repeat=k + 1):
            assert _expand_commutative(n, expand_monomial(n)), n


def test_b_expansion_identity():
    for k in (1, 2):
        for n in itertools.product(range(4), repeat=k + 1):
            assert _expand_commutative(n, _B_TABLE.expansion(n)), n


def test_c_table_properties_exhaustive():
    """Support and symmetry properties of the c coefficients, entries <= 4."""
    for k in (1, 2):
        for n in itertools.product(range(5), repeat=k + 1):
            nu = sorted(n, reverse=True)
            support = _C_TABLE.expansion(n)
            values = {m: c for c, m, _ in support}
            for c, m, _ in support:
                mu = sorted(m, reverse=True)
                # (iv) bound on the top target exponent
                assert mu[0] <= nu[0] + 1
                # (v) strict bound when the source top is isolated
                if nu[0] > nu[1]:
                    assert mu[0] <= nu[0]
                # (vi) slots holding the maximal source exponent
                for a in range(k + 1):
                    if n[a] == nu[0]:
                        assert m[a] >= max(mu[1], nu[1])
                # (vii) lower bound on the small slots
                for b in range(k + 1):
                    if n[b] <= nu[1]:
                        assert m[b] >= n[b]
            # (i) base case
            if nu[0] - nu[1] == 1:
                assert values == {n: 1}
            # (ii) simultaneous permutation symmetry
            for sigma in itertools.permutations(range(k + 1)):
                ns = tuple(n[sigma[a]] for a in range(k + 1))
                for c, m, _ in support:
                    ms = tuple(m[sigma[a]] for a in range(k + 1))
                    assert coeff_c(ns, ms) == c
            # (iii) recurrences
            for c, m, _ in support:
                total = 0
                for a in range(k + 1):
                    bumped = n[:a] + (n[a] + 1,) + n[a + 1:]
                    total += _C_TABLE._c(bumped, m)
                assert c == -total
                for a in range(k + 1):
                    if n[a] == 0:
                        continue
                    acc = _C_TABLE._c(n[:a] + (n[a] - 1,) + n[a + 1:], m)
                    for b in range(k + 1):
                        if b == a:
                            continue
                        shifted = list(n)
                        shifted[b] += 1
                        shifted[a] -= 1
                        acc += _C_TABLE._c(tuple(shifted), m)
                    assert c == -acc


# -- solvability spaces -----------------------------------------------------------


def test_sigma_space_rejects_a_negative_arity():
    Kd = MatDiffOp(ALG, [[ScalarDiffOp.d(ALG)]])
    with pytest.raises(ValueError, match="k must be nonnegative, got -1"):
        sigma_space(Kd, -1)


def test_sigma_space_examples():
    Kd = MatDiffOp(ALG, [[ScalarDiffOp.d(ALG)]])
    basis, expected, flagged = sigma_space(Kd, 0)
    assert (len(basis), expected, flagged) == (1, 1, False)
    basis, expected, flagged = sigma_space(Kd, 1)
    assert (len(basis), expected, flagged) == (0, 0, False)
    Kd2 = MatDiffOp(ALG, [[ScalarDiffOp.d(ALG, 2)]])
    basis, expected, flagged = sigma_space(Kd2, 1)
    assert (len(basis), expected, flagged) == (1, 1, False)
    P = basis[0]
    assert P.entry((1, 1)).degree_in(0) == 0


def _diag_d(alg, N, A=None):
    """diag(d^N), composed on the left with the constant matrix A if given."""
    z = ScalarDiffOp.zero(alg)
    K = MatDiffOp(alg, [[ScalarDiffOp.d(alg, N) if i == j else z
                         for j in range(alg.nvars)] for i in range(alg.nvars)])
    return K if A is None else MatDiffOp.from_constant(alg, A).compose(K)


def _rank_over_constants(basis) -> int:
    """Rank over Q of the coefficient vectors of the basis, each coefficient
    a polynomial in x split by powers of x."""
    x = sympy.Symbol("x")
    cols: dict = {}
    rows = []
    for P in basis:
        row = {}
        for idx, L in P.entries.items():
            for e, p in L.terms.items():
                for mono, c in p.terms.items():
                    poly = sympy.Poly(c.f.as_expr(), x)
                    for (n,), v in poly.as_dict().items():
                        row[cols.setdefault((idx, e, mono, n), len(cols))] = v
        rows.append(row)
    mat = sympy.zeros(len(rows), len(cols))
    for r, row in enumerate(rows):
        for c, v in row.items():
            mat[r, c] = v
    return mat.rank()


@pytest.mark.parametrize("l, N, A", [
    (1, 1, None), (1, 2, None), (2, 1, None), (2, 2, None),
    (2, 1, [[1, 2], [0, 1]]), (2, 2, [[1, 0], [-1, 1]])],
    ids=["l1-d", "l1-d2", "l2-d", "l2-d2", "l2-unipotent-d", "l2-unipotent-d2"])
def test_sigma_space_basis_solves_the_equation(l, N, A):
    """Every basis vector of Sigma_k is skewsymmetric under S_k and solves
    <K* o P>^- = 0, and the basis is linearly independent over C, for
    diag(d^N) and the unipotent 2x2 operators of the benchmark, k <= 2."""
    alg = ALG if l == 1 else ALG2
    K = _diag_d(alg, N, A)
    for k in range(3):
        basis, expected, flagged = sigma_space(K, k)
        assert (len(basis), flagged) == (expected, False)
        for P in basis:
            assert is_skewsymmetric(P)
            assert total_skewsymmetrize(module_action(K.adjoint(), P)).is_zero()
        assert _rank_over_constants(basis) == len(basis)


def test_sigma_space_d3_at_k3_solves_the_full_sum():
    """Sigma_3 for diag(d^3, d^3) has all C(6, 4) = 15 solutions, and its
    first basis vector solves the equation written with the full (k+1)!
    sum (about a second for each vector; the coset sum is checked against
    the full one on random operators above).  k = 4, a runaway input of
    the full sum, finds all C(6, 5) = 6 solutions."""
    K = _diag_d(ALG2, 3)
    basis, expected, flagged = sigma_space(K, 3)
    assert (len(basis), expected, flagged) == (15, 15, False)
    assert total_skewsymmetrize_reference(
        module_action(K.adjoint(), basis[0])).is_zero()
    basis, expected, flagged = sigma_space(K, 4)
    assert (len(basis), expected, flagged) == (6, 6, False)


def test_solve_skew_equation_against_the_full_sum():
    """A k = 2, l = 2 skew equation (k+1) <K o P>^- = S for K = diag(d, d):
    the solution satisfies it with the full (k+1)! sum.  k = 3 is
    test_solve_skew_equation_at_k3_is_fast."""
    K = _diag_d(ALG2, 1)
    x = ALG2.from_scalar(ALG2.field.x)
    P0 = total_skewsymmetrize_reference(KDiffOp(ALG2, 2, {
        (1, 1, 2): LambdaPoly(ALG2, 2, {(1, 0): x})}))
    S = total_skewsymmetrize_reference(module_action(K, P0)).scale(3)
    assert not S.is_zero()
    P = solve_skew_equation(K, S)
    assert total_skewsymmetrize_reference(module_action(K, P)).scale(3) == S


def test_solve_skew_equation_at_k3_is_fast():
    """K = diag(d, d), k = 3 and S = 4 <K o P0>^- for P0 the
    skewsymmetrized x lam_1 lam_2 at (1, 1, 2, 2): the operator system is
    free of x (504 x 40, orders <= 2), so it is solved on its triangular
    form, in well under 2 s, where an ansatz of degree 80 took over half a
    minute.  P satisfies the equation with the full (k+1)! sum."""
    K = _diag_d(ALG2, 1)
    x = ALG2.from_scalar(ALG2.field.x)
    P0 = total_skewsymmetrize_reference(KDiffOp(ALG2, 3, {
        (1, 1, 2, 2): LambdaPoly(ALG2, 3, {(1, 1, 0): x})}))
    S = total_skewsymmetrize_reference(module_action(K, P0)).scale(4)
    assert not S.is_zero()
    start = time.process_time()
    P = solve_skew_equation(K, S)
    assert time.process_time() - start < 2
    assert total_skewsymmetrize_reference(module_action(K, P)).scale(4) == S


def test_solve_skew_equation_tries_every_size(monkeypatch):
    """K = d^2 and S = (1/x) lam + (1/x)'/2, the symbol of the skewadjoint
    (1/x) d + (1/x)'/2: P would need log x, so no lambda-degree solves,
    and the error, raised after the last size, names the largest degree
    tried.  NoRationalSolution at a smaller size moves on to the next one:
    the size with a solution is still found."""
    F = ALG.field
    a = F.one / F.x
    S = KDiffOp(ALG, 1, {(1, 1): LambdaPoly(ALG, 1, {
        (1,): ALG.from_scalar(a), (0,): ALG.from_scalar(a.derive() / 2)})})
    K = MatDiffOp(ALG, [[ScalarDiffOp.d(ALG, 2)]])
    with pytest.raises(NoRationalSolution,
                       match="lambda-degree at most 3: antiderivative"):
        solve_skew_equation(K, S)
    sizes = []
    solve = diffop.solve_linform_system

    def first_size_fails(alg, eqs, atoms, rhs):
        sizes.append(len(atoms))
        if len(sizes) == 1:
            raise NoRationalSolution("none at this size")
        return solve(alg, eqs, atoms, rhs)

    monkeypatch.setattr(polydiff, "solve_linform_system", first_size_fails)
    S = skew_product(K, KDiffOp(ALG, 1, {(1, 1): LambdaPoly(
        ALG, 1, {(0,): ALG.from_scalar(F.x)})}))
    assert skew_product(K, solve_skew_equation(K, S)) == S
    assert len(sizes) == 2


def test_x_free_systems_never_reach_the_ansatz(monkeypatch):
    """For K free of x, sigma_space, cohomology_dim and solve_skew_equation
    solve their operator systems on the triangular form, without the
    rational ansatz: diag(d^3, d^3) at k = 2 has C(6, 3) = 20 solutions in
    both, and the k = 2 skew equation above solves."""
    def ansatz(*args):
        raise AssertionError("the ansatz was called on an x-free system")

    monkeypatch.setattr(diffop, "_solve_by_ansatz", ansatz)
    K = _diag_d(ALG2, 3)
    basis, expected, flagged = sigma_space(K, 2)
    assert (len(basis), expected, flagged) == (20, 20, False)
    res = cohomology_dim(K, 2)
    assert (res.dim, res.flagged_lower_bound) == (20, False)
    test_solve_skew_equation_against_the_full_sum()


@st.composite
def rational_operators(draw):
    """(K, k): K = A o (diag(d^N) + B) with N <= 3, B of order < N and A
    constant invertible, all entries rational numbers with denominators up
    to 3, A with no zero entry when l = 2 (so not triangular); k <= 3,
    and k <= 2 when l N > 4, where the module action takes seconds."""
    l = draw(st.sampled_from([1, 2]))
    N = draw(st.integers(1, 3))
    alg = ALG if l == 1 else ALG2
    q = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    A = [[draw(q.filter(bool)) for _ in range(l)] for _ in range(l)]
    assume(l == 1 or A[0][0] * A[1][1] != A[0][1] * A[1][0])
    B = MatDiffOp(alg, [[ScalarDiffOp(alg, {
        n: alg.from_scalar(alg.field.rational(draw(q)))
        for n in range(N)}) + (ScalarDiffOp.d(alg, N) if i == j else
                               ScalarDiffOp.zero(alg))
        for j in range(l)] for i in range(l)])
    K = MatDiffOp.from_constant(alg, A).compose(B)
    return K, draw(st.integers(0, 3 if l * N <= 4 else 2))


@settings(max_examples=40, deadline=None)
@given(rational_operators(), st.integers(0, 1))
@example((_diag_d(ALG2, 3, [[1, 2], [Fraction(1, 2), 1]]), 3), 0)
def test_integer_tables_equal_the_module_action(case, extra):
    """For K with rational coefficients the rows built on integer tables
    are, term by term and in order, the equations of the module action
    route: <K* o P>^- for sigma_space, and (k+1) <K o P>^- for
    solve_skew_equation with P of one degree more when extra = 1.  The
    example is the largest shape, l = 2 and N = k = 3 (1,452 rows)."""
    K, k = case
    alg, N = K.alg, K.order()
    unknown = polydiff._unknown_entries(alg.nvars, k, N)
    assume(unknown)
    P = polydiff._unknown_kdiffop(alg, k, unknown)
    assert polydiff._rational_equations(
        K.adjoint(), k, unknown, Fraction(1, k + 1)) == \
        total_skewsymmetrize(module_action(K.adjoint(), P))._equations()
    unknown = polydiff._unknown_entries(alg.nvars, k, N + extra)
    P = polydiff._unknown_kdiffop(alg, k, unknown)
    assert polydiff._rational_equations(K, k, unknown, Fraction(1)) == \
        skew_product(K, P)._equations()


def test_rational_sigma_space_runs_no_substitution(monkeypatch):
    """sigma_space on a K with rational coefficients builds its rows on
    the integer tables: neither total_skewsymmetrize nor subst_slot_neg
    runs.  A K with x takes the module action route, where both run, which
    shows that the counters see the calls."""
    calls = []
    for name in ("total_skewsymmetrize", "subst_slot_neg"):
        real = getattr(polydiff, name)
        monkeypatch.setattr(polydiff, name, lambda *args, real=real,
                            name=name, **kw: calls.append(name) or
                            real(*args, **kw))
    K = _diag_d(ALG2, 2, [[1, 2], [Fraction(1, 3), 1]])
    basis, expected, flagged = sigma_space(K, 2)
    assert (len(basis), expected, flagged, calls) == (4, 4, False, [])
    sigma_space(x_dependent_grid(ALG, ALG2)["diag(x d, d)"], 1)
    assert set(calls) == {"total_skewsymmetrize", "subst_slot_neg"}


# name: ((|Sigma basis|, cohomology dim, expected) at k = 0, 1, 2;
#        dim of selfadjoint_product_space)
X_DEPENDENT_COUNTS = {
    "x d": ([(0, 0, 1), (0, 0, 0), (0, 0, 0)], 0),
    "x d^2": ([(1, 0, 2), (0, 0, 1), (0, 0, 0)], 1),
    "(x+1) d^3": ([(2, 0, 3), (1, 0, 3), (0, 0, 1)], 3),
    "x^2 d": ([(0, 0, 1), (0, 0, 0), (0, 0, 0)], 0),
    "x d + 1": ([(1, 1, 1), (0, 0, 0), (0, 0, 0)], 0),
    "d + x": ([(0, 0, 1), (0, 0, 0), (0, 0, 0)], 0),
    "(x^2+1) d^2": ([(0, 0, 2), (0, 0, 1), (0, 0, 0)], 1),
    "x^2 d^2 + x d": ([(0, 0, 2), (0, 0, 1), (0, 0, 0)], 1),
    "d^2 + 1/x^2": ([(0, 0, 2), (1, 1, 1), (0, 0, 0)], 1),
    "x^3 d^3": ([(0, 0, 3), (0, 0, 3), (0, 0, 1)], 3),
    "diag(x d, d)": ([(1, 1, 2), (0, 0, 1), (0, 0, 0)], 1),
    "diag(x d, x d)": ([(0, 0, 2), (0, 0, 1), (0, 0, 0)], 1),
    "[[d, x], [0, d]]": ([(2, 2, 2), (1, 1, 1), (0, 0, 0)], 1),
    "diag(x d^2, d^2)": ([(3, 2, 4), (3, 1, 6), (1, 0, 4)], 6),
    "[[x d, 1], [-1, d]]": ([(0, 0, 2), (0, 0, 1), (0, 0, 0)], 1),
}


def test_solvers_equal_the_scale_then_subtract_step():
    """_replay and _back_substitute read the (P, a, g) that row_echelon
    records, so the solvers give the same reprs with the elimination step
    that scales, composes term by term and subtracts
    (helpers.reference_elimination): solve_rational on every K of
    X_DEPENDENT_COUNTS, homogeneous and with a right-hand side, and
    sigma_space and cohomology_dim on rational A o diag(d^N) for l <= 2,
    N <= 2 and k <= 2."""
    def results():
        out = []
        for K in x_dependent_grid(ALG, ALG2).values():
            F = K.alg.field
            for b in (None, [F.x ** 2 + F.one] * K.m):
                try:
                    S = solve_rational(K, b)
                    out.append(repr((S.particular, S.homogeneous, S.free)))
                except (NoRationalSolution, Incomplete) as exc:
                    out.append(type(exc).__name__)
        for alg, A in ((ALG, None), (ALG, [[Fraction(2, 3)]]),
                       (ALG2, [[1, 2], [Fraction(1, 3), 1]]),
                       (ALG2, [[0, 1], [1, -1]])):
            for N in (1, 2):
                K = _diag_d(alg, N, A)
                for k in range(3):
                    res = cohomology_dim(K, k)
                    out += [repr(sigma_space(K, k)),
                            repr([getattr(res, s) for s in res.__slots__])]
        return out
    got = results()
    with reference_elimination():
        assert results() == got


def test_x_dependent_counts_and_flags():
    """sigma_space, cohomology_dim and selfadjoint_product_space on K with
    x in a coefficient: the counts are pinned, and a count is flagged
    exactly when it falls short of C(N nvars, k + 1).  The two routes to
    the same cohomology do not agree here: for x d^2 at k = 0 sigma_space
    finds 1 of 2 and cohomology_dim 0 of 2, both flagged, since the
    ansatz that finishes x-dependent systems may stop short."""
    grid = x_dependent_grid(ALG, ALG2)
    assert set(grid) == set(X_DEPENDENT_COUNTS)
    for name, K in grid.items():
        per_k, sadj = X_DEPENDENT_COUNTS[name]
        for k, (n_sigma, n_cohom, expected) in enumerate(per_k):
            basis, exp_sigma, flagged = sigma_space(K, k)
            res = cohomology_dim(K, k)
            assert (len(basis), res.dim, exp_sigma, res.expected) == \
                (n_sigma, n_cohom, expected, expected), (name, k)
            assert flagged == (n_sigma < expected), (name, k)
            assert res.flagged_lower_bound == (n_cohom < expected), (name, k)
        assert len(selfadjoint_product_space(K)) == sadj, name


def test_x_dependent_k_take_the_module_action_route():
    """No K of the x-dependent grid, nor its adjoint, has the rational
    coefficients of the integer tables; test_x_dependent_counts_and_flags
    pins their counts on the module action route."""
    for name, K in x_dependent_grid(ALG, ALG2).items():
        unknown = polydiff._unknown_entries(K.alg.nvars, 1, K.order())
        for op in (K, K.adjoint()):
            assert polydiff._rational_equations(
                op, 1, unknown, Fraction(1)) is None, name


def test_sigma_space_flagged_nonrational():
    K = MatDiffOp(ALG, [[ScalarDiffOp(ALG, {1: ALG.one, 0: ALG.one})]])
    basis, expected, flagged = sigma_space(K, 0)
    assert len(basis) == 0 and expected == 1 and flagged


def _leading_error_cases():
    d, u = ScalarDiffOp.d(ALG2), ALG2.jet(1)
    zero = ScalarDiffOp.zero(ALG2)
    return {
        "wide": ([[d, d]], ShapeMismatch),
        "too_small": ([[d]], ShapeMismatch),
        "singular": ([[d, d], [d, d]], LeadingCoeffSingular),
        "jet_leading": ([[ScalarDiffOp(ALG2, {1: u}), zero], [zero, d]],
                        NotQuasiconstant),
        "jet_lower": ([[d + ScalarDiffOp.mul_by(u), zero], [zero, d]],
                      NotQuasiconstant),
    }


SOLVERS = {
    "sigma_space": lambda K: sigma_space(K, 0),
    "solve_skew_equation": lambda K: solve_skew_equation(K, KDiffOp(ALG2, 1)),
    "cohomology_dim": lambda K: cohomology_dim(K, 0),
    "selfadjoint_product_space": selfadjoint_product_space,
}


@pytest.mark.parametrize("case", sorted(_leading_error_cases()))
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_leading_coefficient_errors_are_named(solver, case):
    """Every solver checks K through one reader: a K that is not 2 x 2
    over the two variables (non-square, or 1 x 1) is a ShapeMismatch, a
    singular leading coefficient a LeadingCoeffSingular, and a K with a
    jet in any coefficient, leading or lower, a NotQuasiconstant."""
    rows, error = _leading_error_cases()[case]
    with pytest.raises(error):
        SOLVERS[solver](MatDiffOp(ALG2, rows))


def test_chi_representatives():
    Kd = MatDiffOp(ALG, [[ScalarDiffOp.d(ALG)]])
    P0 = KDiffOp(ALG, 0, {(1,): LambdaPoly.const(ALG, 0, ALG.one)})
    rep = chi_representative(P0, Kd)
    u = ALG.jet(1)
    assert rep.entries[()].as_diffpoly() == u
    # delta h / delta u = 1 and K*(d) 1 = 0
    from varpois import variational_derivative
    assert variational_derivative(u)[0] == ALG.one
    assert chi_representative(KDiffOp(ALG, 1), Kd).is_zero()
    with pytest.raises(NotInSigma):
        bad = KDiffOp(ALG, 0, {(1,): LambdaPoly.const(
            ALG, 0, ALG.from_scalar(ALG.field.x))})
        chi_representative(bad, Kd)


def test_chi_frechet_is_adjoint():
    Kd2 = MatDiffOp(ALG, [[ScalarDiffOp.d(ALG, 2)]])
    basis, _, _ = sigma_space(Kd2, 1)
    P = basis[0]
    rep = chi_representative(P, Kd2)
    F = as_one_form(QuotientArray(rep))
    assert frechet(F) == to_mat_diff_op(P).adjoint()
    assert QuotientArray(delta_k(rep, Kd2)).is_zero()


def test_solve_skew_closed_forms():
    Kd = MatDiffOp(ALG, [[ScalarDiffOp.d(ALG)]])
    K1 = MatDiffOp.identity(ALG, 1)
    Sop = ScalarDiffOp(ALG, {1: ALG.one * 2})
    S = KDiffOp.from_mat_diff_op(MatDiffOp(ALG, [[Sop]]))
    P = solve_skew_equation(K1, S)
    assert P == S.scale(Fraction(1, 2))
    assert skew_product(K1, P) == S
    P2 = solve_skew_equation(Kd, S)
    assert skew_product(Kd, P2) == S
    assert solve_skew_equation(Kd, KDiffOp(ALG, 1)).is_zero()


def test_solve_skew_antiderivative_closed_form():
    """For K = d, the skewadjoint operator whose canonical coefficients are
    antiderivatives of those of S is a solution."""
    Kd = MatDiffOp(ALG, [[ScalarDiffOp.d(ALG)]])
    x = ALG.field.x
    Sop = ScalarDiffOp(ALG, {1: ALG.from_scalar(x),
                             0: ALG.from_scalar(ALG.field.rational(1, 2))})
    S = KDiffOp.from_mat_diff_op(MatDiffOp(ALG, [[Sop]]))
    assert is_totally_skewsymmetric(S)
    a, b = skewadjoint_decompose(Sop)
    d1 = ScalarDiffOp.d(ALG)
    closed_form = ScalarDiffOp.zero(ALG)
    from varpois import rational_antiderivative
    for m, am in a.items():
        anti = ALG.from_scalar(rational_antiderivative(am))
        inner = d1.compose(ScalarDiffOp(ALG, {0: anti})) + \
            ScalarDiffOp(ALG, {0: anti}).compose(d1)
        closed_form = closed_form + ScalarDiffOp.d(ALG, m).compose(
            inner).compose(ScalarDiffOp.d(ALG, m))
    closed_k = KDiffOp.from_mat_diff_op(MatDiffOp(ALG, [[closed_form]]))
    assert skew_product(Kd, closed_k) == S
    solved = solve_skew_equation(Kd, S)
    assert skew_product(Kd, solved) == S
