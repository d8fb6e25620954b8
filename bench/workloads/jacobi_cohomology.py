"""`jacobi-cohomology`: lambda-bracket checks and variational Poisson
cohomology, called as a library.

Known answers:
- a Magri-pencil member a(u' + 2u d) + b d + g d^3 is Poisson, and any two
  members are compatible;
- s(u' d + u''/2) is skewadjoint but not Poisson: `check_jacobi` fails with
  witness triple (1, 1, 1);
- `jacobi_residual` of the Magri bracket (symbolic c) vanishes on any triple;
- for K = A o diag(d^N) with A constant invertible, `cohomology_dim` and
  `sigma_space` give C(N l, k + 1), not flagged; for K = d + e (e != 0) the
  kernel is exponential, so both give 0 and flag it;
- `reduce_closed` of P = delta_K Q0 returns R = 0 and Q with delta_K Q = P;
- `solve_skew_equation(K, S)` returns P with `skew_product(K, P) = S`.
"""

from __future__ import annotations

import itertools
import math

from varpois import (DiffAlgebra, KDiffOp, LambdaBracketStruct, LambdaPoly,
                     MatDiffOp, ScalarDiffOp, SkewArray, check_compatible,
                     check_jacobi, cohomology_dim, delta_k, jacobi_residual,
                     magri_structure, reduce_closed, sigma_space,
                     skew_product, solve_skew_equation)

from . import Job, nonzero_rational, round_rng

ALG1 = DiffAlgebra(1)
ALG2 = DiffAlgebra(2)
ALGC = DiffAlgebra(1, ["c"])
MAGRI = magri_structure(ALGC)

# (l, N, k) for the cohomology and Sigma jobs; all twelve each round.
COHOMOLOGY_CASES = tuple(itertools.product((1, 2), (1, 2), (0, 1, 2)))
# Sorted by latency, a round is the cheap jobs (not_poisson, the small
# cohomology and Sigma cases, the shifted ones; 41%), the pencil Jacobi
# checks (18%), the middle jobs (compatibility, solve_skew, reduce_closed,
# the larger cases; 20%), the Jacobi residuals (18%) and the two largest
# Sigma cases, so the median falls inside the block of pencil Jacobi checks
# and the 90th percentile inside the block of Jacobi residuals, away from
# the edges where a quantile would jump between job kinds.
COUNTS = {"pencil_jacobi": 16, "pencil_compat": 4, "not_poisson": 18,
          "jacobi_residual": 16, "reduce_closed": 4, "solve_skew": 4}

ROUND_SECONDS = 11.5
SMOKE_KINDS = ("pencil_jacobi", "pencil_compat", "not_poisson",
               "jacobi_residual", "cohomology", "sigma", "cohomology_shifted",
               "sigma_shifted", "reduce_closed", "solve_skew")


def _q(alg, v):
    return alg.from_scalar(alg.field.rational(v))


def _pencil_member(rng):
    a, b, g = (nonzero_rational(rng) for _ in range(3))
    u = ALG1.jet(1)
    op = ScalarDiffOp(ALG1, {0: u.derive().scale(ALG1.field.rational(a)),
                             1: u.scale(ALG1.field.rational(2 * a)) +
                             _q(ALG1, b),
                             3: _q(ALG1, g)})
    return LambdaBracketStruct.from_scalar_op(op)


def _not_poisson(rng):
    s = ALG1.field.rational(nonzero_rational(rng))
    u = ALG1.jet(1)
    op = ScalarDiffOp(ALG1, {1: u.derive().scale(s),
                             0: ALG1.jet(1, 2).scale(s / 2)})
    return LambdaBracketStruct.from_scalar_op(op)


def _random_diffpoly(rng, alg):
    """A nonzero sum of two terms, each a rational times one or two jets of
    order at most 1."""
    out = alg.zero
    while out.is_zero():
        for _ in range(2):
            t = _q(alg, nonzero_rational(rng))
            for _ in range(rng.randint(1, 2)):
                t = t * alg.jet(rng.randint(1, alg.nvars), rng.randint(0, 1))
            out = out + t
    return out


def _jacobi_triple(rng):
    """f = a1 u u' + a2 u'', g = b1 u^2 + b2 u', h = c1 u with coefficients
    in {-2, -1, 1, 2}: fixed shapes and sizes, so the cost varies little
    with the seed."""
    a1, a2, b1, b2, c1 = (_q(ALGC, rng.choice((-2, -1, 1, 2)))
                          for _ in range(5))
    u = ALGC.jet
    return (a1 * u(1) * u(1, 1) + a2 * u(1, 2), b1 * u(1) * u(1) + b2 * u(1, 1),
            c1 * u(1))


def _diag_k(rng, alg, N):
    """K = A o diag(d^N) with A unipotent triangular (l = 2) or a nonzero
    rational (l = 1): the seed changes A but hardly the cost, which for
    sigma_space differs by about 2x between A's of other shapes."""
    z = ScalarDiffOp.zero(alg)
    n = alg.nvars
    diag = MatDiffOp(alg, [[ScalarDiffOp.d(alg, N) if i == j else z
                            for j in range(n)] for i in range(n)])
    if n == 1:
        A = [[nonzero_rational(rng)]]
    else:
        t = rng.choice((-2, -1, 1, 2))
        A = [[1, t], [0, 1]] if rng.random() < 0.5 else [[1, 0], [t, 1]]
    return MatDiffOp.from_constant(alg, A).compose(diag)


def _random_skew_array(rng, alg, k):
    """Every entry gets every lambda-monomial of degree < 2 per slot."""
    out = SkewArray(alg, k)
    for idx in itertools.combinations_with_replacement(
            range(1, alg.nvars + 1), k):
        L = LambdaPoly.zero(alg, k)
        for e in itertools.product(range(2), repeat=k):
            L = L + LambdaPoly.monomial(alg, k, e, _random_diffpoly(rng, alg))
        out.set_entry(idx, L)
    return out


def _skewadjoint_rhs(rng):
    """S from the skewadjoint operator a d + a'/2 + g d^3 with a a
    polynomial in x, so that K = e d has a rational solution."""
    f = ALG1.field
    a = f.rational(nonzero_rational(rng)) * f.x + f.rational(
        nonzero_rational(rng))
    g = f.rational(nonzero_rational(rng))
    op = ScalarDiffOp(ALG1, {1: ALG1.from_scalar(a),
                             0: ALG1.from_scalar(a.derive() / 2),
                             3: ALG1.from_scalar(g)})
    return KDiffOp.from_mat_diff_op(MatDiffOp(ALG1, [[op]]))


def _jobs_for_round(rng, r):
    jobs = []

    for i in range(COUNTS["pencil_jacobi"]):
        H = _pencil_member(rng)
        jobs.append(Job("pencil_jacobi", f"pencil_jacobi-{r}-{i}", lambda H=H: check_jacobi(H),
                        lambda res: (f"ok={res[0]}", res == (True, None))))
    for i in range(COUNTS["pencil_compat"]):
        A, B = _pencil_member(rng), _pencil_member(rng)
        jobs.append(Job("pencil_compat", f"pencil_compat-{r}-{i}",
                        lambda A=A, B=B: check_compatible(A, B),
                        lambda res: (f"ok={res[0]}", res == (True, None))))
    for i in range(COUNTS["not_poisson"]):
        H = _not_poisson(rng)

        def np_check(res):
            ok, wit = res
            good = (not ok and wit is not None and wit[0] == (1, 1, 1) and
                    not wit[1].is_zero())
            return f"ok={ok} triple={wit[0] if wit else None}", good
        jobs.append(Job("not_poisson", f"not_poisson-{r}-{i}", lambda H=H: check_jacobi(H),
                        np_check))
    for i in range(COUNTS["jacobi_residual"]):
        f, g, h = _jacobi_triple(rng)
        jobs.append(Job("jacobi_residual", f"jacobi_residual-{r}-{i}",
                        lambda f=f, g=g, h=h: jacobi_residual(MAGRI, f, g, h),
                        lambda res: (f"zero={res.is_zero()}", res.is_zero())))
    for (l, N, k) in COHOMOLOGY_CASES:
        alg = ALG1 if l == 1 else ALG2
        K = _diag_k(rng, alg, N)
        expected = math.comb(N * l, k + 1)

        def co_check(res, expected=expected):
            return (f"dim={res.dim} flagged={res.flagged_lower_bound}",
                    res.dim == expected and not res.flagged_lower_bound)

        def sg_check(res, expected=expected):
            basis, exp, flagged = res
            return (f"dim={len(basis)} flagged={flagged}",
                    len(basis) == expected == exp and not flagged)
        jobs.append(Job("cohomology", f"cohomology-{l}{N}{k}-{r}",
                        lambda K=K, k=k: cohomology_dim(K, k), co_check))
        jobs.append(Job("sigma", f"sigma-{l}{N}{k}-{r}",
                        lambda K=K, k=k: sigma_space(K, k), sg_check))
    e = _q(ALG1, nonzero_rational(rng))
    shifted = MatDiffOp(ALG1, [[ScalarDiffOp(ALG1, {1: ALG1.one, 0: e})]])
    jobs.append(Job("cohomology_shifted", f"cohomology_shifted-{r}",
                    lambda: cohomology_dim(shifted, 0),
                    lambda res: (f"dim={res.dim} "
                                 f"flagged={res.flagged_lower_bound}",
                                 res.dim == 0 and res.flagged_lower_bound)))
    jobs.append(Job("sigma_shifted", f"sigma_shifted-{r}", lambda: sigma_space(shifted, 0),
                    lambda res: (f"dim={len(res[0])} flagged={res[2]}",
                                 len(res[0]) == 0 and res[2])))
    for i in range(COUNTS["reduce_closed"]):
        alg = ALG1 if i % 2 == 0 else ALG2
        K = _diag_k(rng, alg, 1 + (i // 2) % 2)
        Q0 = _random_skew_array(rng, alg, 1)

        def rc_run(Q0=Q0, K=K):
            P = delta_k(Q0, K)
            return P, reduce_closed(P, K)

        def rc_check(res, K=K):
            P, (Q, R) = res
            good = R.is_zero() and delta_k(Q, K) == P
            return f"R0={R.is_zero()} dQ=P={good}", good
        jobs.append(Job("reduce_closed", f"reduce_closed-{r}-{i}", rc_run, rc_check))
    for i in range(COUNTS["solve_skew"]):
        S = _skewadjoint_rhs(rng)
        e = ALG1.field.rational(nonzero_rational(rng))
        K = MatDiffOp(ALG1, [[ScalarDiffOp(ALG1, {i % 2: ALG1.from_scalar(e)})]])

        def sk_check(P, K=K, S=S):
            good = skew_product(K, P) == S
            return f"KP=S={good}", good
        jobs.append(Job("solve_skew", f"solve_skew-{r}-{i}",
                        lambda K=K, S=S: solve_skew_equation(K, S), sk_check))
    rng.shuffle(jobs)
    return jobs


def build_round(seed: int, r: int, workdir: str) -> list:
    return _jobs_for_round(round_rng(seed, r), r)
