"""A committed corpus of seeded results from the public API.

Each case builds its inputs from fixed seeds, calls the library and returns
one value; the case's fingerprint is the sha256 of that value's repr.
tests/data/corpus.json maps every case name to its fingerprint, and
test_corpus.py recomputes them, so a change to any result shows up as the
name of the case that changed.

    python tests/corpus.py --list          the case names
    python tests/corpus.py --show CASE     print a case's repr
    python tests/corpus.py --changed       the cases whose fingerprint differs
                                           from tests/data/corpus.json (exit 1
                                           if there is any)
    python tests/corpus.py --write         regenerate tests/data/corpus.json

A change that alters a result on purpose names the changed cases with
--changed, regenerates the file with --write and names each changed case,
and why, in CHANGES.md; --show at the old and the new commit gives the two
reprs to diff.
"""

import hashlib
import itertools
import json
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data", "corpus.json")
if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from varpois import (DegenerateLeadingMatrix, DiffAlgebra,  # noqa: E402
                     Incomplete, LambdaBracketStruct, LambdaPoly,
                     LocalFunctional, MatDiffOp, NoRationalSolution,
                     QuotientArray, ScalarDiffOp, SkewArray,
                     UndecidableResidue, check_compatible, check_jacobi,
                     check_skewadjoint, cohomology_dim, d_k,
                     delta_k, dieudonne_det,
                     higher_euler, magri_structure, majorant,
                     majorant_preserving_reduce, rational_antiderivative,
                     reduce_closed, row_echelon, run_hierarchy,
                     selfadjoint_product_space, sigma_space, solve_rational,
                     variational_derivative)
from helpers import x_dependent_grid  # noqa: E402

SEEDS = range(12)


# -- seeded inputs ----------------------------------------------------------


def _scalar(rng, field):
    """A small element of Q(params)(x): a rational, sometimes plus a
    multiple of x or of the first parameter, sometimes over x + q."""
    v = field.rational(Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])))
    if rng.random() < 0.4:
        v = v + field.x * rng.randint(-2, 2)
    if field.params and rng.random() < 0.4:
        v = v + field.param(field.params[0]) * rng.randint(-2, 2)
    if rng.random() < 0.2:
        v = v / (field.x + field.rational(rng.randint(1, 3)))
    return v


def _poly(rng, alg, max_order=3, terms=4):
    """A DiffPoly of up to `terms` monomials of degree <= 3 in the jets
    u_i^(n), n <= max_order."""
    out = alg.zero
    for _ in range(terms):
        t = alg.from_scalar(_scalar(rng, alg.field))
        for _ in range(rng.randint(0, 3)):
            t = t * alg.jet(rng.randint(1, alg.nvars),
                            rng.randint(0, max_order))
        out = out + t
    return out


def _op(rng, alg, order, quasiconstant):
    """c_order d^order plus lower terms; each lower coefficient is drawn
    with probability 3/4, from F or (not quasiconstant) from V."""
    coeffs = {order: alg.from_scalar(_scalar(rng, alg.field) + 5)}
    for n in range(order):
        if rng.random() < 0.75:
            coeffs[n] = (alg.from_scalar(_scalar(rng, alg.field))
                         if quasiconstant else _poly(rng, alg, 1, 2))
    return ScalarDiffOp(alg, coeffs)


def _algebras():
    return {"v1": DiffAlgebra(1, ["c"]), "v2": DiffAlgebra(2, ["c"])}


# -- cases -----------------------------------------------------------------


def _hierarchy_kdv():
    alg = DiffAlgebra(1, ["c"])
    u = alg.jet(1)
    K = LambdaBracketStruct(MatDiffOp(alg, [[ScalarDiffOp.d(alg)]]))
    st = run_hierarchy(magri_structure(alg), K, LocalFunctional(u * u / 2), 5)
    return [h.representative for h in st.densities]


def _hierarchy_pair2():
    alg = DiffAlgebra(2)
    d1, d3, z = (ScalarDiffOp.d(alg), ScalarDiffOp.d(alg, 3),
                 ScalarDiffOp.zero(alg))
    K = LambdaBracketStruct(MatDiffOp(alg, [[d1.scale(2), d1], [d1, d1]]))
    H = LambdaBracketStruct(MatDiffOp(alg, [[d3, z], [z, d3]]))
    u1, u2 = alg.jet(1), alg.jet(2)
    st = run_hierarchy(H, K, LocalFunctional((u1 * u1 + u2 * u2) / 2), 5)
    return [h.representative for h in st.densities]


def _variational_derivative(name):
    alg = _algebras()[name]
    return [variational_derivative(_poly(random.Random(s), alg))
            for s in SEEDS]


def _higher_euler(name):
    alg = _algebras()[name]
    out = []
    for s in SEEDS:
        f = _poly(random.Random(s), alg)
        out.append([higher_euler(f, i) for i in range(1, alg.nvars + 1)])
    return out


def _apply(quasiconstant):
    """2x2 operators of orders up to 3 applied to vectors of V, and, when
    quasiconstant, to vectors of F."""
    alg = DiffAlgebra(2, ["c"])
    out = []
    for s in SEEDS:
        rng = random.Random(s)
        M = MatDiffOp(alg, [[_op(rng, alg, rng.randint(0, 3), quasiconstant)
                             for _ in range(2)] for _ in range(2)])
        out.append(M.apply([_poly(rng, alg, 2, 3) for _ in range(2)]))
        if quasiconstant:
            out.append(M.apply([_scalar(rng, alg.field) for _ in range(2)]))
    return out


def _selfadjoint(shape):
    alg = DiffAlgebra(len(shape))
    x = alg.x()

    def entry(spec):
        return ScalarDiffOp(alg, {n: alg.from_scalar(alg.field.coerce(c))
                                  if not isinstance(c, str) else x
                                  for n, c in spec.items()})
    K = MatDiffOp(alg, [[entry(e) for e in row] for row in shape])
    return selfadjoint_product_space(K)


SELFADJOINT = {
    "d": [[{1: 1}]],
    "d2": [[{2: 1}]],
    "d3": [[{3: 1}]],
    "d4": [[{4: 1}]],
    "2d3+xd": [[{3: 2, 1: "x"}]],
    "d3+d": [[{3: 1, 1: 1}]],
    "[[d,1],[0,d]]": [[{1: 1}, {0: 1}], [{}, {1: 1}]],
    "[[2d2,d],[0,d2]]": [[{2: 2}, {1: 1}], [{}, {2: 1}]],
}


def _closed_arrays(alg, K, k):
    """delta_K of seeded (k-1)-arrays and, at k = 1, one of them plus the
    constant x in the bottom slice (closed, not exact)."""
    out = []
    for s in range(6):
        rng = random.Random(s)
        Q0 = SkewArray(alg, k - 1)
        for idx in itertools.combinations_with_replacement(
                range(1, alg.nvars + 1), k - 1):
            L = LambdaPoly.zero(alg, k - 1)
            for e in itertools.product(range(2), repeat=k - 1):
                if rng.random() < 0.8:
                    L = L + LambdaPoly.monomial(alg, k - 1, e,
                                                _poly(rng, alg, 1, 3))
            Q0.set_entry(idx, L)
        out.append(delta_k(Q0, K))
    if k == 1:
        out.append(out[-1] + SkewArray.from_one_form([alg.x()] * alg.nvars))
    return out


def _seeded_array(rng, alg, k):
    """A skewsymmetric k-array whose entries have lam-degree <= 1 per
    variable and coefficients from _poly with jets of order <= 1."""
    P = SkewArray(alg, k)
    for idx in itertools.combinations_with_replacement(
            range(1, alg.nvars + 1), k):
        L = LambdaPoly.zero(alg, k)
        for e in itertools.product(range(2), repeat=k):
            if rng.random() < 0.8:
                L = L + LambdaPoly.monomial(alg, k, e, _poly(rng, alg, 1, 2))
        P.set_entry(idx, L)
    return P


def _k_with_x_and_c(nvars):
    """A quasiconstant K over Q(c)(x), so Poisson: (x + c) d^2 + c d + x,
    or [[d, x], [c, (c x + 1) d]]."""
    alg = DiffAlgebra(nvars, ["c"])
    F = alg.field
    x, c = F.x, F.param("c")

    def op(coeffs):
        return ScalarDiffOp(alg, {n: alg.from_scalar(v)
                                  for n, v in coeffs.items()})
    if nvars == 1:
        return MatDiffOp(alg, [[op({2: x + c, 1: c, 0: x})]])
    return MatDiffOp(alg, [[op({1: F.one}), op({0: x})],
                           [op({0: c}), op({1: c * x + 1})]])


def _differential(kind, nvars, k):
    """delta_K, or d_K on the class, of seeded k-arrays for the K of
    _k_with_x_and_c: both read K's symbols and generator brackets."""
    K = _k_with_x_and_c(nvars)
    out = []
    for s in range(6):
        P = _seeded_array(random.Random(s), K.alg, k)
        out.append(delta_k(P, K) if kind == "delta_k" else
                   d_k(QuotientArray(P), LambdaBracketStruct(K)))
    return out


def _diag_k(rng, alg, N):
    """K = A o diag(d^N), A a nonzero rational (l = 1) or unipotent
    triangular (l = 2): the jacobi-cohomology benchmark's K."""
    z = ScalarDiffOp.zero(alg)
    n = alg.nvars
    diag = MatDiffOp(alg, [[ScalarDiffOp.d(alg, N) if i == j else z
                            for j in range(n)] for i in range(n)])
    if n == 1:
        A = [[Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))]]
    else:
        t = rng.choice((-2, -1, 1, 2))
        A = [[1, t], [0, 1]] if rng.random() < 0.5 else [[1, 0], [t, 1]]
    return MatDiffOp.from_constant(alg, A).compose(diag)


def _diag_spaces(kind, nvars, N):
    """sigma_space bases, or cohomology_dim results and kernels, at
    k = 0, 1, 2 for two seeded K of the _diag_k shape."""
    alg = DiffAlgebra(nvars)
    out = []
    for s in range(2):
        K = _diag_k(random.Random(s), alg, N)
        for k in range(3):
            if kind == "sigma_space":
                out.append(sigma_space(K, k))
            else:
                res = cohomology_dim(K, k)
                out.append((res, res.kernel))
    return out


def _reduce_closed(name, k):
    """reduce_closed for K with a leading coefficient other than the
    identity, which the reduction transports through Phi_S."""
    alg = DiffAlgebra(1 if name != "[[2d,d],[0,d]]" else 2)
    one, x = alg.one, alg.x()
    K = {
        "2d": lambda: MatDiffOp(alg, [[ScalarDiffOp(alg, {1: one * 2})]]),
        "(1+x2)d": lambda: MatDiffOp(alg, [[ScalarDiffOp(
            alg, {1: one + x * x, 0: x})]]),
        "[[2d,d],[0,d]]": lambda: MatDiffOp(alg, [
            [ScalarDiffOp(alg, {1: one * 2}), ScalarDiffOp.d(alg)],
            [ScalarDiffOp.zero(alg), ScalarDiffOp.d(alg)]]),
    }[name]()
    return [reduce_closed(P, K) for P in _closed_arrays(alg, K, k)]


def _shaped(alg, rng, orders, with_u=False):
    """A matrix of the difflinalg benchmark's shape: entry (i, j) is a
    rational times d^orders[i][j] plus lower terms (a x + b)/(x + pole),
    over Q(c)(x) (a x + b + k c)/(x + pole + c); with_u adds a multiple of
    u to each order-0 coefficient."""
    f = alg.field
    pole = f.x + rng.randint(1, 4)
    if f.params:
        pole = pole + f.param(f.params[0])

    def coefficient():
        num = f.x * rng.randint(1, 3) + rng.randint(-3, 3)
        if f.params:
            num = num + f.param(f.params[0]) * rng.randint(-2, 2)
        return alg.from_scalar(num / pole)

    rows = []
    for row in orders:
        entries = []
        for order in row:
            coeffs = {order: alg.from_scalar(f.rational(
                Fraction(rng.randint(1, 5), rng.randint(1, 3))))}
            for n in range(order):
                coeffs[n] = coefficient()
            if with_u:
                c = coefficient() * alg.jet(1)
                coeffs[0] = coeffs[0] + c if 0 in coeffs else c
            entries.append(ScalarDiffOp(alg, coeffs))
        rows.append(entries)
    return MatDiffOp(alg, rows)


ECHELON = {
    "echelon2u": (((1, 0), (2, 1)), True),
    "echelon3": (((2, 1, 0), (1, 2, 1), (0, 1, 2)), False),
}
DET_PRODUCT = {"det_product_a": ((2, 1), (1, 1)),
               "det_product_b": ((1, 0), (1, 1))}
OVER = {"q_x": [], "q_c_x": ["c"]}


def _row_echelon(kind):
    """The echelon shapes of the difflinalg benchmark: a 2x2 matrix with u
    in its order-0 coefficients and a 3x3 matrix over Q(x)."""
    orders, with_u = ECHELON[kind]
    alg = DiffAlgebra(1)
    return [row_echelon(_shaped(alg, random.Random(s), orders, with_u))
            for s in range(6)]


def _dieudonne_det(kind, over):
    """det A, det B and det AB for A and B of a det_product shape, and the
    det of [[r a, r b], [d a + c, d b + e]] for A = [[a, b], [c, e]] and r
    = (x + s)/(2x - 1), whose leading matrix is singular, so that the
    echelon form gives it."""
    alg = DiffAlgebra(1, OVER[over])
    f, d = alg.field, ScalarDiffOp.d(alg)
    out = []
    for s in range(6):
        rng = random.Random(s)
        A, B = (_shaped(alg, rng, DET_PRODUCT[kind]) for _ in range(2))
        (a, b), (c, e) = A.rows
        r = (f.x + s) / (f.x * 2 - 1)
        out.append([dieudonne_det(A), dieudonne_det(B),
                    dieudonne_det(A.compose(B)),
                    dieudonne_det(MatDiffOp(alg, [
                        [a.scale(r), b.scale(r)],
                        [d.compose(a) + c, d.compose(b) + e]]))])
    return out


MAJORANT_SHAPES = {"reduce3": 2, "majorant": 3}


def _majorant_preserving_reduce(kind):
    """majorant_preserving_reduce on 3x3 matrices with u in their order-0
    coefficients and entry orders up to 2 (the reduce3 shape of the
    difflinalg benchmark) or 3 (its majorant shape); orders whose leading
    matrix is degenerate are kept as the exception's name."""
    alg = DiffAlgebra(1)
    out = []
    for s in range(6):
        rng = random.Random(s)
        orders = [[rng.randint(0, MAJORANT_SHAPES[kind]) for _ in range(3)]
                  for _ in range(3)]
        M = _shaped(alg, rng, orders, with_u=True)
        try:
            out.append(majorant_preserving_reduce(M, majorant(M)))
        except DegenerateLeadingMatrix as exc:
            out.append(type(exc).__name__)
    return out


def _appendix_det():
    """The appendix matrix [[1, s u], [d, s u d]] for seeded rationals s,
    whose det is (-s u', 0)."""
    alg = DiffAlgebra(1)
    f, d, u = alg.field, ScalarDiffOp.d(alg), alg.jet(1)
    out = []
    for s in range(6):
        rng = random.Random(s)
        su = ScalarDiffOp.mul_by(u.scale(f.rational(
            Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3)))))
        out.append(dieudonne_det(MatDiffOp(
            alg, [[ScalarDiffOp.identity(alg), su], [d, su.compose(d)]])))
    return out


def _singular_lead_det():
    """The det of [[u a, u b], [d a + c, d b + e]] for A = [[a, b], [c, e]]
    of the det_product_a shape with u: its leading matrix is singular and
    its pivot u a carries u, so that the echelon form gives a DiffRat with
    a jet below."""
    alg = DiffAlgebra(1)
    d, U = ScalarDiffOp.d(alg), ScalarDiffOp.mul_by(alg.jet(1))
    out = []
    for s in range(6):
        A = _shaped(alg, random.Random(s), DET_PRODUCT["det_product_a"],
                    with_u=True)
        (a, b), (c, e) = A.rows
        out.append(dieudonne_det(MatDiffOp(alg, [
            [U.compose(a), U.compose(b)],
            [d.compose(a) + c, d.compose(b) + e]])))
    return out


def _x_dependent(kind):
    """sigma_space bases, or cohomology_dim kernels, at k = 0, 1, 2 for
    every K of the x-dependent grid: their ansatz systems multiply and
    divide rationals and fractions of Q(x)."""
    out = []
    for K in x_dependent_grid(DiffAlgebra(1), DiffAlgebra(2)).values():
        for k in range(3):
            out.append(sigma_space(K, k) if kind == "sigma_space"
                       else cohomology_dim(K, k).kernel)
    return out


def _solve_rational():
    """The solution sets of every K of the x-dependent grid, homogeneous
    and for b = (x^2 + 1, ...), or the exception that ends the solve."""
    out = []
    for K in x_dependent_grid(DiffAlgebra(1), DiffAlgebra(2)).values():
        F = K.alg.field
        for b in (None, [F.x ** 2 + F.one] * K.m):
            try:
                S = solve_rational(K, b)
                out.append((S.particular, S.homogeneous, S.free))
            except (NoRationalSolution, Incomplete) as exc:
                out.append(type(exc).__name__)
    return out


def _rational_antiderivative():
    """Over Q(c): the derivative of a seeded p/q, which integrates; the
    same plus k/(x + c), a logarithm at every c; and plus c/(x - 1), which
    integrates only at c = 0."""
    F = DiffAlgebra(1, ["c"]).field
    c = F.param("c")
    out = []
    for s in range(6):
        rng = random.Random(s)
        p = _scalar(rng, F) * F.x + _scalar(rng, F)
        q = F.x ** 2 + _scalar(rng, F) * F.x + rng.randint(1, 4) + c
        v = (p / q).derive()
        for w in (v, v + rng.randint(1, 3) / (F.x + c), v + c / (F.x - 1)):
            try:
                out.append(rational_antiderivative(w))
            except UndecidableResidue as exc:
                out.append(type(exc).__name__)
    return out


def _not_poisson():
    """check_jacobi of {u_lam u} = s (u' lam + u''/2), skewadjoint and not
    Poisson, for rationals s and for s in Q(c)."""
    alg = DiffAlgebra(1, ["c"])
    F, u = alg.field, alg.jet(1)
    c = F.param("c")
    scales = [F.rational(Fraction(n, d))
              for n, d in ((1, 1), (-3, 2), (5, 4), (2, 3))]
    scales += [c, (c + 1) / (c * 2 - 3), c * c / (c + 2)]
    out = []
    for s in scales:
        H = LambdaBracketStruct.from_scalar_op(ScalarDiffOp(
            alg, {1: u.derive().scale(s), 0: alg.jet(1, 2).scale(s / 2)}))
        out.append(check_jacobi(H))
    return out


def _jet_coefficient(rng, alg):
    """A rational, plus a rational times u_i^(m) or u_i^(m) u_j^(n),
    m, n <= 1."""
    out = alg.zero
    for _ in range(2):
        t = alg.from_scalar(alg.field.rational(
            Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))))
        for _ in range(rng.randint(0, 2)):
            t = t * alg.jet(rng.randint(1, alg.nvars), rng.randint(0, 1))
        out = out + t
    return out


def _bracket(rng, alg, kind, skew=True):
    """M - M* for an l x l M of order <= 2 with jet coefficients: rational
    ("rational"), each entry times a + b x + e c ("x_c"), or the same with
    one entry over x - q ("pole").  Not skew: a jet term added to one
    entry."""
    size, F = alg.nvars, alg.field
    pole = (rng.randrange(size), rng.randrange(size))

    def factor(i, j):
        v = F.rational(rng.randint(1, 3)) + F.x * rng.randint(-2, 2)
        v = v + F.param("c") * rng.randint(-2, 2)
        return v / (F.x - rng.randint(-2, 2)) if (i, j) == pole else v
    M = MatDiffOp(alg, [[ScalarDiffOp(alg, {
        n: _jet_coefficient(rng, alg) for n in range(rng.randint(1, 2) + 1)})
        for _ in range(size)] for _ in range(size)])
    if kind != "rational":
        pole = pole if kind == "pole" else None
        M = MatDiffOp(alg, [[e.scale(factor(i, j)) for j, e in enumerate(row)]
                            for i, row in enumerate(M.rows)])
    H = M - M.adjoint()
    if not skew:
        rows = [[ScalarDiffOp.zero(alg)] * size for _ in range(size)]
        rows[rng.randrange(size)][rng.randrange(size)] = ScalarDiffOp(
            alg, {rng.randint(0, 2): alg.jet(rng.randint(1, size),
                                             rng.randint(0, 1))})
        H = H + MatDiffOp(alg, rows)
    return LambdaBracketStruct(H)


def _skew_grid():
    """check_skewadjoint on skew and non-skew structures of each kind, in
    one and two variables over Q(c)(x)."""
    return [check_skewadjoint(_bracket(random.Random(s), DiffAlgebra(n, ["c"]),
                                       kind, skew))
            for n in (1, 2) for kind in ("rational", "x_c", "pole")
            for skew in (True, False) for s in range(4)]


def _two_component_poly():
    """check_jacobi of skewadjoint, not Poisson structures on two variables
    whose coefficients carry x and c, so the witness does too."""
    alg = DiffAlgebra(2, ["c"])
    return [check_jacobi(_bracket(random.Random(s), alg, "x_c"))
            for s in range(6)]


def _not_compatible():
    """check_compatible of skewadjoint pairs, one member with x and c in
    its coefficients, in one and two variables."""
    out = []
    for n in (1, 2):
        alg = DiffAlgebra(n, ["c"])
        for s in range(3):
            rng = random.Random(s)
            out.append(check_compatible(_bracket(rng, alg, "x_c"),
                                        _bracket(rng, alg, "rational")))
    return out


CASES = {
    "hierarchy/kdv_c/5": _hierarchy_kdv,
    "hierarchy/pair2/5": _hierarchy_pair2,
    **{f"variational_derivative/{n}": (lambda n=n: _variational_derivative(n))
       for n in ("v1", "v2")},
    **{f"higher_euler/{n}": (lambda n=n: _higher_euler(n))
       for n in ("v1", "v2")},
    "MatDiffOp.apply/V": lambda: _apply(False),
    "MatDiffOp.apply/F": lambda: _apply(True),
    **{f"selfadjoint_product_space/{n}": (lambda n=n: _selfadjoint(
        SELFADJOINT[n])) for n in SELFADJOINT},
    **{f"reduce_closed/{n}/k{k}": (lambda n=n, k=k: _reduce_closed(n, k))
       for n, k in (("2d", 1), ("2d", 2), ("(1+x2)d", 1), ("(1+x2)d", 2),
                    ("[[2d,d],[0,d]]", 1), ("[[2d,d],[0,d]]", 2))},
    **{f"row_echelon/{n}": (lambda n=n: _row_echelon(n)) for n in ECHELON},
    **{f"dieudonne_det/{n}/{o}": (lambda n=n, o=o: _dieudonne_det(n, o))
       for n in DET_PRODUCT for o in OVER},
    **{f"majorant_preserving_reduce/{n}_u":
       (lambda n=n: _majorant_preserving_reduce(n)) for n in MAJORANT_SHAPES},
    "dieudonne_det/appendix_u": _appendix_det,
    "dieudonne_det/singular_lead_u": _singular_lead_det,
    **{f"{n}/x_dependent": (lambda n=n: _x_dependent(n))
       for n in ("sigma_space", "cohomology_dim")},
    "solve_rational/x_dependent": _solve_rational,
    "rational_antiderivative/q_c": _rational_antiderivative,
    "check_jacobi/not_poisson": _not_poisson,
    "check_skewadjoint/grid": _skew_grid,
    "check_jacobi/two_component_poly": _two_component_poly,
    "check_compatible/not_compatible": _not_compatible,
    **{f"{kind}/x_c/l{n}/k{k}": (lambda kind=kind, n=n, k=k:
                                 _differential(kind, n, k))
       for kind in ("delta_k", "d_k") for n in (1, 2) for k in (0, 1)},
    **{f"{kind}/diag/l{n}N{N}": (lambda kind=kind, n=n, N=N:
                                 _diag_spaces(kind, n, N))
       for kind in ("sigma_space", "cohomology_dim")
       for n in (1, 2) for N in (1, 2)},
}


def fingerprint(name: str) -> str:
    return hashlib.sha256(repr(CASES[name]()).encode()).hexdigest()


def recorded() -> dict:
    with open(DATA) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    import argparse
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--list", action="store_true")
    group.add_argument("--show", metavar="CASE", choices=sorted(CASES))
    group.add_argument("--changed", action="store_true")
    group.add_argument("--write", action="store_true")
    args = ap.parse_args(argv)
    if args.list:
        print("\n".join(CASES))
    elif args.show:
        print(repr(CASES[args.show]()))
    elif args.changed:
        old = recorded()
        changed = [(name, old.get(name), fingerprint(name)) for name in CASES]
        changed = [c for c in changed if c[1] != c[2]]
        for name, was, now in changed:
            print(f"{name}: {(was or 'absent')[:12]} -> {now[:12]}")
        return 1 if changed else 0
    else:
        os.makedirs(os.path.dirname(DATA), exist_ok=True)
        with open(DATA, "w") as fh:
            json.dump({name: fingerprint(name) for name in CASES}, fh,
                      indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
