"""`difflinalg`: differential linear algebra on operator matrices, called as
a library.

Random matrices have entries c_n d^n whose lower coefficients are rational
functions of x with real denominators; in the `echelon2u` and `majorant`
jobs the order-0 coefficients also carry u, so `row_echelon` moves the
entries into the fraction field of V.

Known answers:
- `row_echelon` returns a matrix in echelon form (the first nonzero column
  of each row moves strictly right; zero rows at the bottom);
- `dieudonne_det` is multiplicative: det(AB) = det(A) det(B);
- `majorant` gives N_j = max_i ord L_ij and h_i = min_j (N_j - ord L_ij);
- `majorant_preserving_reduce` gives diagonal orders N_j - h_j and strictly
  smaller orders below the diagonal;
- the appendix example [[1, s u], [d, s u d]] has det (-s u', 0) and
  majorant N = (1, 1), h = (1, 0);
- diag(e1 d^a, e2 d^b) has `kernel_dim_bound` and `solve_rational` dimension
  a + b;
- `selfadjoint_product_space(e d^N)` has dimension C(N, 2).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from varpois import (DiffAlgebra, Majorant, MatDiffOp, ScalarDiffOp,
                     dieudonne_det, kernel_dim_bound, majorant,
                     majorant_preserving_reduce, row_echelon,
                     selfadjoint_product_space, solve_rational)

from . import Job, det_fraction, nonzero_rational, round_rng

ALG = DiffAlgebra(1)
# Entry orders are fixed per job kind, so only coefficients change with the
# seed: (kind, orders, entries carry u, count per round).  Sorted by
# latency, a round is the cheap jobs (majorant, kernel bound, reduce3,
# appendix, small selfadjoint; about 27%), the det_product_b and
# solve_rational jobs (48%), det_product_a (7%), echelon3 (15%) and the
# echelon2u jobs, so the median falls inside the block of det_product_b
# jobs and the 90th percentile inside the block of echelon3 jobs, away from
# the edges where a quantile would jump between job kinds.
ECHELON = (
    ("echelon2u", ((1, 0), (2, 1)), True, 2),
    ("echelon3", ((2, 1, 0), (1, 2, 1), (0, 1, 2)), False, 15),
)
DET_PRODUCT = (
    ("det_product_a", ((2, 1), (1, 1)), 6),
    ("det_product_b", ((1, 0), (1, 1)), 40),
)
COUNTS = {"majorant": 8, "reduce3": 6, "appendix": 2}
KERNEL_ORDERS = tuple(itertools.product((1, 2, 3), repeat=2))
SELFADJOINT_ORDERS = (1, 2, 3, 4)
ROUND_SECONDS = 6
SMOKE_KINDS = ("echelon2u", "echelon3", "det_product_a", "det_product_b",
               "majorant", "reduce3", "appendix", "kernel_bound",
               "solve_rational", "selfadjoint")


def _rational_function(rng, pole):
    """(a x + b) / (x + pole): a real denominator."""
    f = ALG.field
    num = f.rational(nonzero_rational(rng)) * f.x + f.rational(
        nonzero_rational(rng))
    return num / (f.x + f.rational(pole))


def _entry(rng, order, lead, pole, with_u):
    """lead d^order plus lower terms with rational-function coefficients;
    with `with_u`, the order-0 coefficient is also multiplied by u."""
    coeffs = {order: ALG.from_scalar(ALG.field.rational(lead))}
    for n in range(order):
        coeffs[n] = ALG.from_scalar(_rational_function(rng, pole))
    if with_u:
        c = ALG.from_scalar(_rational_function(rng, pole)) * ALG.jet(1)
        coeffs[0] = coeffs[0] + c if 0 in coeffs else c
    return ScalarDiffOp(ALG, coeffs)


def _random_matrix(rng, orders, with_u=False):
    """Entries of the given orders with seeded coefficients; all lower
    coefficients of one matrix share the pole, so sizes stay comparable
    from seed to seed.  Returns (matrix, leading rationals)."""
    size = len(orders)
    pole = nonzero_rational(rng)
    leads = [[nonzero_rational(rng) for _ in range(size)] for _ in range(size)]
    M = MatDiffOp(ALG, [[_entry(rng, orders[i][j], leads[i][j], pole, with_u)
                         for j in range(size)] for i in range(size)])
    return M, leads


def _expected_majorant(orders):
    m = len(orders)
    N = [max(orders[i][j] for i in range(m)) for j in range(m)]
    h = [min(N[j] - orders[i][j] for j in range(m)) for i in range(m)]
    return Majorant(N, h)


def _random_orders(rng, size, max_order):
    return [[rng.randint(0, max_order) for _ in range(size)]
            for _ in range(size)]


def _nondegenerate_matrix(rng, size, max_order):
    """A matrix whose leading matrix at its majorant is invertible, decided
    on the generated orders and leading rationals."""
    while True:
        orders = _random_orders(rng, size, max_order)
        M, leads = _random_matrix(rng, orders)
        maj = _expected_majorant(orders)
        lead = [[leads[i][j] if orders[i][j] == maj.N[j] - maj.h[i]
                 else Fraction(0) for j in range(size)] for i in range(size)]
        if det_fraction(lead) != 0:
            return M, maj


def _is_echelon(E) -> bool:
    last = -1
    seen_zero_row = False
    for row in E.rows:
        first = next((j for j, e in enumerate(row) if not e.is_zero()), None)
        if first is None:
            seen_zero_row = True
            continue
        if seen_zero_row or first <= last:
            return False
        last = first
    return True


def _reduced_ok(red, colperm, maj) -> bool:
    size = red.m
    h = sorted(maj.h, reverse=True)
    N = [maj.N[c] for c in colperm]
    for j in range(size):
        if red.rows[j][j].order() != N[j] - h[j]:
            return False
        for i in range(j + 1, size):
            e = red.rows[i][j]
            if not e.is_zero() and e.order() >= N[j] - h[j]:
                return False
    return True


def _det_product_check(res):
    da, db, dab = res
    if da.is_zero or db.is_zero:
        good = dab.is_zero
    else:
        good = not dab.is_zero and dab.d == da.d + db.d and dab.c == da.c * db.c
    return f"deg={dab.d} multiplicative={good}", good


def _jobs_for_round(rng, r):
    jobs = []
    for kind, orders, with_u, count in ECHELON:
        for i in range(count):
            M, _ = _random_matrix(rng, orders, with_u)
            jobs.append(Job(kind, f"{kind}-{r}-{i}", lambda M=M: row_echelon(M),
                lambda res: (f"echelon={_is_echelon(res[0])} "
                             f"ops={len(res[1])}", _is_echelon(res[0]))))
    for kind, orders, count in DET_PRODUCT:
        for i in range(count):
            A, _ = _random_matrix(rng, orders)
            B, _ = _random_matrix(rng, orders)

            def det_run(A=A, B=B):
                return dieudonne_det(A), dieudonne_det(B), dieudonne_det(
                    A.compose(B))
            jobs.append(Job(kind, f"{kind}-{r}-{i}", det_run, _det_product_check))
    for i in range(COUNTS["majorant"]):
        orders = _random_orders(rng, 3, 3)
        M, _ = _random_matrix(rng, orders, with_u=True)
        want = _expected_majorant(orders)
        jobs.append(Job("majorant", f"majorant-{r}-{i}", lambda M=M: majorant(M),
                        lambda res, want=want: (repr(res), res == want)))
    for i in range(COUNTS["reduce3"]):
        M, maj = _nondegenerate_matrix(rng, 3, 2)
        jobs.append(Job("reduce3", f"reduce3-{r}-{i}",
            lambda M=M, maj=maj: majorant_preserving_reduce(M, maj),
            lambda res, maj=maj: (f"ok={_reduced_ok(res[0], res[1], maj)}",
                                  _reduced_ok(res[0], res[1], maj))))
    for i in range(COUNTS["appendix"]):
        s = ALG.field.rational(nonzero_rational(rng))
        a_op = ScalarDiffOp.mul_by(ALG.jet(1).scale(s))
        M = MatDiffOp(ALG, [[ScalarDiffOp.identity(ALG), a_op],
                            [ScalarDiffOp.d(ALG),
                             a_op.compose(ScalarDiffOp.d(ALG))]])
        want_c = ALG.jet(1, 1).scale(-s)

        def app_check(res, want_c=want_c):
            dv, maj = res
            good = (not dv.is_zero and dv.d == 0 and dv.c == want_c and
                    maj == Majorant([1, 1], [1, 0]))
            return f"deg={dv.d} {maj!r} ok={good}", good
        jobs.append(Job("appendix", f"appendix-{r}-{i}",
                        lambda M=M: (dieudonne_det(M), majorant(M)),
                        app_check))
    for a, b in KERNEL_ORDERS:
        e1, e2 = (ALG.from_scalar(ALG.field.rational(nonzero_rational(rng)))
                  for _ in range(2))
        z = ScalarDiffOp.zero(ALG)
        D = MatDiffOp(ALG, [[ScalarDiffOp(ALG, {a: e1}), z],
                            [z, ScalarDiffOp(ALG, {b: e2})]])
        jobs.append(Job("kernel_bound", f"kernel_bound-{a}{b}-{r}",
                        lambda D=D: kernel_dim_bound(D),
                        lambda res, n=a + b: (f"bound={res}", res == n)))
        jobs.append(Job("solve_rational", f"solve_rational-{a}{b}-{r}",
                        lambda D=D: solve_rational(D),
                        lambda res, n=a + b: (f"dim={res.dim}", res.dim == n)))
    for N in SELFADJOINT_ORDERS:
        e = ALG.from_scalar(ALG.field.rational(nonzero_rational(rng)))
        K = MatDiffOp(ALG, [[ScalarDiffOp(ALG, {N: e})]])
        jobs.append(Job("selfadjoint", f"selfadjoint-{N}-{r}",
                        lambda K=K: selfadjoint_product_space(K),
                        lambda res, n=math.comb(N, 2): (
                            f"dim={len(res)}", len(res) == n)))
    rng.shuffle(jobs)
    return jobs


def build_round(seed: int, r: int, workdir: str) -> list:
    return _jobs_for_round(round_rng(seed, r), r)
