"""Lambda-brackets on the differential polynomial algebra, Hamiltonian
structure verification, functional brackets, and the Magri structure.

A bracket structure is an l x l matrix differential operator H with entries
H_ij(d) = {u_j _d u_i}_->.  The bracket of arbitrary elements expands through
the master formula

    {f_lam g} = sum_{i,j,m,n} dg/du_j^(n) (lam+d)^n {u_i _(lam+d) u_j}_->
                (-lam-d)^m df/du_i^(m),

and Jacobi / compatibility checks reduce to generator triples.

On a triple (u_a, u_b, u_c), with B_ij(lam) = {u_i _lam u_j}, nu = lam + mu
and one structure inside (in) and one outside (out), the mixed terms are
t1 - t2 - t3 = -C(in, out):
    t1 = sum_k mu^k sum_(j,n) dg_k/du_j^(n) (lam+d)^n B^out_aj(lam),
         B^in_bc(mu) = sum_k g_k mu^k;
    t2 = sum_k lam^k sum_(j,n) df_k/du_j^(n) (mu+d)^n B^out_bj(mu),
         B^in_ac(lam) = sum_k f_k lam^k;
    t3 = sum_t lam^t sum_(i,m) (-1)^m sum_k h_k (nu+d)^(k+m) dq_t/du_i^(m),
         B^in_ab(lam) = sum_t q_t lam^t, B^out_ic(nu) = sum_k h_k nu^k.
When every coefficient of the structures is polynomial in x (a RAT or POLY
element of F), check_jacobi and check_compatible compute them as one
integer polynomial in Z[lam, mu, x, params, jets] with packed monomial
keys (_PackedResidual).  Each structure is scaled by the lcm of its
coefficients' denominators, and the terms are linear in each structure, so
the scaled residual vanishes exactly when the true one does, and the
witness is the scaled residual over the product of the scales, read back
into the LambdaPoly that the lambda-polynomial formula gives.  A
coefficient with x in a denominator takes that formula
(_compatibility_terms), which also computes jacobi_residual and
compatibility_residual on arbitrary elements.

The same split serves check_skewadjoint.  With B_ij(lam) = sum_n lam^n C_n,
the symbol of H_ji, H* = -H iff B_ji(lam) + sum_n (-1)^n (lam+d)^n C_n = 0
for i <= j, since (H_ji)* = sum_n (-d)^n o C_n has the symbol
sum_n (-lam-d)^n C_n.  A structure polynomial in x and not quasiconstant
is tested so on its packed form, which is kept on it for check_jacobi;
any other structure takes each adjoint.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, lcm
from typing import Optional

from .diffalg import (DiffAlgebra, DiffPoly, LocalFunctional, higher_euler,
                      variational_derivative)
from .diffop import (MatDiffOp, NotSkewadjoint, ScalarDiffOp, ShapeMismatch,
                     _coefficient_terms)
from .field import FRAC, _flat, _from_terms_over, accumulate
from .lambdapoly import LambdaPoly, affine_pow_on, symbol_act


class NotPoisson(Exception):
    """A structure fails the Jacobi identity, or a pair is not compatible;
    ``witness`` is the failing (triple, residual) when one is known."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class LambdaBracketStruct:
    """Bracket structure determined by its operator H (DiffPoly entries).
    Immutable; ``_skew`` holds the verdict of check_skewadjoint and
    ``_jacobi`` the (ok, witness) of check_jacobi once taken (None before),
    so d_K, the Lenard-Magri driver, the CLI and jacobi_residual check a
    structure they meet again only once.  ``_packed`` holds the
    _PackedResidual that check_skewadjoint builds for an H polynomial in x,
    until check_jacobi has taken its verdict on it.  A skewadjoint H that
    passes check_jacobi is Poisson, and its jacobi_residual is zero on
    every triple without a bracket being expanded."""

    __slots__ = ("op", "_skew", "_jacobi", "_packed")

    def __init__(self, op: MatDiffOp):
        size = op.alg.nvars
        if (op.m, op.n) != (size, size):
            raise ShapeMismatch(f"a bracket on {size} variables needs a "
                                f"{size}x{size} operator, got {op.m}x{op.n}")
        self.op = op
        self._skew = None
        self._jacobi = None
        self._packed = None

    @property
    def alg(self) -> DiffAlgebra:
        return self.op.alg

    @property
    def nvars(self) -> int:
        return self.op.m

    @classmethod
    def from_scalar_op(cls, op: ScalarDiffOp) -> "LambdaBracketStruct":
        return cls(MatDiffOp.scalar(op))

    def generator_bracket(self, i: int, j: int) -> LambdaPoly:
        """{u_i _lam u_j} as an arity-1 lambda-polynomial (= symbol of H_ji)."""
        return self.op.rows[j - 1][i - 1].symbol()

    def __repr__(self):
        return f"LambdaBracketStruct({self.op!r})"


class _LeftFactor:
    """The half of the master formula that depends on f alone, for one
    structure H:

        B_j(lam) = sum_{i,m} H_ji(lam+d) (-lam-d)^m df/du_i^(m),

    so that {f_lam g} = sum_{j,n} dg/du_j^(n) (lam+d)^n B_j.  Calling the
    factor on g gives {f_lam g}.  B_j and each shift (lam+d)^n B_j are built
    on first use and kept, so every element bracketed with the same f on
    the left reuses them."""

    __slots__ = ("H", "euler", "shifted")

    def __init__(self, f: DiffPoly, H: LambdaBracketStruct):
        self.H = H
        # (-lam-d)^m df/du_i^(m) summed over m, for each u_i that f has
        self.euler = {i: higher_euler(f, i)
                      for i in sorted({i for (_, i) in f.jet_support()})}
        self.shifted = {}

    def _shift(self, j: int, n: int) -> LambdaPoly:
        """(lam+d)^n B_j."""
        out = self.shifted.get((j, n))
        if out is None:
            if n:
                out = affine_pow_on({0: 1}, 1, n, self._shift(j, 0))
            else:
                out = LambdaPoly.zero(self.H.alg, 1)
                for i, a_i in self.euler.items():
                    sym = self.H.generator_bracket(i, j)
                    if not sym.is_zero():
                        out = out + symbol_act(sym, {0: 1}, 1, a_i)
            self.shifted[(j, n)] = out
        return out

    def _add_bracket(self, g: DiffPoly, out: dict, tail: tuple = ()):
        """Add the terms of {f_lam g} to the term dict `out`, each exponent
        (t,) extended to (t,) + tail."""
        if not self.euler:
            return
        for (n, j) in sorted(g.jet_support()):
            b = self._shift(j, n)
            if b.terms:
                part = g.jet_partial(j, n)
                for (t,), p in b.terms.items():
                    accumulate(out, (t,) + tail, p * part)

    def __call__(self, g: DiffPoly) -> LambdaPoly:
        out = {}
        self._add_bracket(g, out)
        return LambdaPoly(self.H.alg, 1, out)

    def into(self, G: LambdaPoly) -> LambdaPoly:
        """{f_lam G} for G with formal variables of its own: bracket each
        coefficient, result arity 1 + G.k with lam in slot 0."""
        out = {}
        for e, coeff in G.terms.items():
            self._add_bracket(coeff, out, e)
        return LambdaPoly(self.H.alg, 1 + G.k, out)


def _left_factors(H: LambdaBracketStruct, f: DiffPoly, g: DiffPoly):
    """The left factors of f and g under H, one shared factor when f = g."""
    left_f = _LeftFactor(f, H)
    return left_f, (left_f if g == f else _LeftFactor(g, H))


def lambda_bracket(f: DiffPoly, g: DiffPoly,
                   H: LambdaBracketStruct) -> LambdaPoly:
    """{f_lam g} by the master formula; arity-1 result in lam."""
    return _LeftFactor(f, H)(g)


def _outer_bracket(q: LambdaPoly, h: DiffPoly,
                   H: LambdaBracketStruct) -> LambdaPoly:
    """{{f_lam g}_(lam+mu) h} from q = {f_lam g} = sum_t q_t lam^t: lam is a
    constant in the outer bracket, so this is sum_t lam^t {q_t_(lam+mu) h},
    arity 2 (lam = slot 0, mu = slot 1).  With {q_t_nu h} = sum_s r_s nu^s
    the binomial theorem gives sum_{t,s,a} C(s,a) r_s lam^(a+t) mu^(s-a)."""
    out = {}
    for (t,), coeff in q.terms.items():
        for (s,), r in lambda_bracket(coeff, h, H).terms.items():
            for a in range(s + 1):
                c = comb(s, a)
                accumulate(out, (a + t, s - a), r if c == 1 else r.scale(c))
    return LambdaPoly(H.alg, 2, out)


def jacobi_residual(H: LambdaBracketStruct, f: DiffPoly, g: DiffPoly,
                    h: DiffPoly) -> LambdaPoly:
    """J(f, g, h) = {f_lam {g_mu h}} - {g_mu {f_lam h}}
    - {{f_lam g}_(lam+mu) h}, as an arity-2 polynomial (lam = slot 0,
    mu = slot 1): the mixed terms with H inside and outside, negated.

    A skewadjoint H whose verdict from check_jacobi (kept on H) is ok is a
    Poisson structure, and then J is zero on every triple: Barakat, De Sole
    and Kac, *Poisson vertex algebras in the theory of Hamiltonian
    equations*, Japan. J. Math. 4 (2009), Section 1, Theorem 1.15 (the
    master formula).  So the residual is zero without a bracket being
    expanded.  The proof, for the master-formula bracket of any H over
    F = Q(params)(x):
    - the bracket is sesquilinear, {d f_lam g} = -lam {f_lam g} and
      {f_lam d g} = (lam + d) {f_lam g}; it obeys the left Leibniz rule
      {f_lam g1 g2} = g1 {f_lam g2} + g2 {f_lam g1}; and it is zero when
      either side is in F.
    - h: expanding J(f, g, h1 h2) by the Leibniz rule, the products
      {f_lam h1} {g_mu h2} and {f_lam h2} {g_mu h1} come once from each of
      the first two terms and cancel, so J is a derivation in h;
      sesquilinearity gives J(f, g, d h) = (lam + mu + d) J(f, g, h), and
      J(f, g, a) = 0 for a in F.  Hence J(f, g, h) =
      sum_{k,n} dh/du_k^(n) (lam + mu + d)^n J(f, g, u_k).
    - f and g: with H* = -H the bracket is skewsymmetric,
      {g_lam f} = -{f_(-lam-d) g}.  Rewriting each of the three terms by it
      (in the outer bracket d acts as -(lam + mu) and then on the
      coefficients) gives the cyclic form J(f, g, h)(lam, mu) =
      J(h, f, g)(-lam-mu-d, lam), d acting on the coefficients; applied
      twice it moves f, and once g, into the last slot, where the step
      above reduces it to a generator.
    So J vanishes on V^3 once it vanishes on the generator triples, which
    is what check_jacobi tests.  Without skewsymmetry the last step fails,
    and a non-skewadjoint H always takes the full expansion, whatever
    check_jacobi(H, require_skew=False) says.
    """
    if check_skewadjoint(H) and check_jacobi(H)[0]:
        return LambdaPoly.zero(H.alg, 2)
    return -_compatibility_terms(H, H, f, g, h)


def _compatibility_terms(first: LambdaBracketStruct,
                         second: LambdaBracketStruct, f: DiffPoly,
                         g: DiffPoly, h: DiffPoly) -> LambdaPoly:
    """The three mixed Jacobi terms with `first` inside and `second` outside:
    {{f_lam g}_(lam+mu) h} - {f_lam {g_mu h}} + {g_mu {f_lam h}}.  The left
    factors of f and g are built once per structure, so with second = first
    they serve the inner and the outer brackets."""
    inner_f, inner_g = _left_factors(first, f, g)
    outer_f, outer_g = ((inner_f, inner_g) if second is first
                        else _left_factors(second, f, g))
    t1 = outer_f.into(inner_g(h))
    t2 = outer_g.into(inner_f(h)).compose_vars((1, 0))
    return _outer_bracket(inner_f(g), h, second) - t1 + t2


def compatibility_residual(H: LambdaBracketStruct, K: LambdaBracketStruct,
                           f: DiffPoly, g: DiffPoly,
                           h: DiffPoly) -> LambdaPoly:
    """The six-term mixed Jacobi expression whose vanishing on generators
    makes H + K a Poisson structure when H and K are."""
    return (_compatibility_terms(H, K, f, g, h)
            + _compatibility_terms(K, H, f, g, h))


def check_skewadjoint(H: LambdaBracketStruct) -> bool:
    """H* = -H, tested as H_ij + (H_ji)* = 0 for i <= j, up to the first
    nonzero entry; the verdict is taken once per structure.

    An H that is polynomial in x and not quasiconstant is tested on the
    packed form of its Jacobi check (_PackedResidual.skewadjoint), kept on
    H for check_jacobi: with B_ij(lam) = sum_n lam^n C_n the symbol of
    H_ji, the identity is B_ji(lam) + sum_n (-1)^n (lam+d)^n C_n = 0, as
    (H_ji)* = sum_n (-d)^n o C_n has the symbol sum_n (-lam-d)^n C_n.  Any
    other H takes each adjoint."""
    if H._skew is None:
        if H.op.is_quasiconstant() or not _polynomial_in_x(H):
            rows, size = H.op.rows, H.nvars
            H._skew = all((rows[i][j] + rows[j][i].adjoint()).is_zero()
                          for i in range(size) for j in range(i, size))
        else:
            H._packed = _PackedResidual([(H, H)], -1)
            H._skew = H._packed.skewadjoint()
    return H._skew


# The master formula differentiates only by the u_j^(n), so a bracket with an
# element of F on either side is zero.  A quasiconstant operator has its
# generator brackets in F[lam]: every generator term in which it is the inner
# bracket vanishes.  The checks below skip those terms.


def check_jacobi(H: LambdaBracketStruct, require_skew: bool = True):
    """True iff the Jacobi identity holds on all generator triples.

    Returns (ok, witness); witness is None or (triple, residual).  A
    quasiconstant H is Poisson without a residual, skewadjoint or not.
    The verdict is taken once per structure and kept on H: one slot serves
    both modes, since a skewadjoint H gets the same verdict and witness
    from each (below), and a non-skewadjoint one gets a verdict only with
    require_skew=False.  With an ok verdict a skewadjoint H is Poisson,
    and jacobi_residual returns zero on every triple.
    """
    if require_skew and not check_skewadjoint(H):
        raise NotSkewadjoint("bracket operator is not skewadjoint")
    if H._jacobi is None:
        if H.op.is_quasiconstant():
            H._jacobi = (True, None)
        else:
            skew = check_skewadjoint(H)
            H._jacobi = _check_triples(
                H.nvars, H._packed or _triple_residual([(H, H)], -1),
                a_le_b=skew)
            H._packed = None
    return H._jacobi


# With H* = -H the bracket is skewsymmetric, {b_mu a} = -{a_(-mu-d) b}.
# Write J(a,b,c)(lam,mu) = {a_lam {b_mu c}} - {b_mu {a_lam c}}
# - {{a_lam b}_(lam+mu) c} and {a_nu b} = sum_t q_t nu^t.  Then
# {b_mu a} = -sum_t (-mu-d)^t q_t, and d acts as -(lam+mu) in the outer
# bracket, so {{b_mu a}_(lam+mu) c} = -sum_t lam^t {q_t_(lam+mu) c}
# = -{{a_lam b}_(lam+mu) c}.  The other two terms swap, hence
# J(b,a,c)(mu,lam) = -J(a,b,c)(lam,mu): (b,a,c) fails iff (a,b,c) does,
# and the full loop meets (a,b,c) first, so the triples with a <= b give
# the same verdict and the same first witness.
#
# For a pair, write J_S for the residual of S and C(S, T) for the mixed
# terms with S inside and T outside (_compatibility_terms).  Each bracket
# is linear in its structure, so J_(H+K) = J_H + J_K - C(H, K) - C(K, H):
# the mixed residual of check_compatible is J_H + J_K - J_(H+K).  When H
# and K are skewadjoint so is H + K, each of the three satisfies
# J(b,a,c)(mu,lam) = -J(a,b,c)(lam,mu), hence so does their sum, and
# check_compatible visits only a <= b by the same argument.


def check_compatible(H: LambdaBracketStruct, K: LambdaBracketStruct):
    """True iff the mixed triple expression vanishes on all generator
    triples; returns (ok, witness).  Only the terms whose inner operator is
    not quasiconstant are computed: two quasiconstant operators are
    compatible outright.  When H and K are both skewadjoint, only the
    triples with a <= b are visited (see above).  H and K must be over
    one differential algebra (else ValueError)."""
    if H.alg != K.alg:
        raise ValueError("mixed differential algebras")
    orders = [(first, second) for first, second in ((H, K), (K, H))
              if not first.op.is_quasiconstant()]
    if not orders:
        return True, None
    return _check_triples(H.nvars, _triple_residual(orders, 1),
                          a_le_b=check_skewadjoint(H) and check_skewadjoint(K))


def _check_triples(nvars: int, residual, a_le_b: bool):
    """(ok, witness) for residual(a, b, c) over the generator triples
    (a, b, c) in lexicographic order, b from a on when a_le_b; the witness
    is the first triple with a nonzero residual, and that residual."""
    for a in range(1, nvars + 1):
        for b in range(a if a_le_b else 1, nvars + 1):
            for c in range(1, nvars + 1):
                res = residual(a, b, c)
                if not res.is_zero():
                    return False, ((a, b, c), res)
    return True, None


def _triple_residual(orders: list, sign: int):
    """residual(a, b, c) = sign * sum of C(first, second)(u_a, u_b, u_c)
    over the (first, second) orders, an arity-2 LambdaPoly: on packed
    integer polynomials when every coefficient of the structures is
    polynomial in x, else by the lambda-polynomial formula."""
    if all(_polynomial_in_x(S) for order in orders for S in order):
        return _PackedResidual(orders, sign)
    alg = orders[0][0].alg
    zero = LambdaPoly.zero(alg, 2)

    def residual(a, b, c):
        f, g, h = alg.jet(a), alg.jet(b), alg.jet(c)
        total = sum((_compatibility_terms(first, second, f, g, h)
                     for first, second in orders), zero)
        return total if sign > 0 else -total
    return residual


def _polynomial_in_x(S: LambdaBracketStruct) -> bool:
    """Every coefficient of S is a RAT or POLY element of F: no x (or
    parameter) in a denominator."""
    return all(v._k != FRAC for row in S.op.rows for e in row
               for c in e.coeffs.values()
               for v in _coefficient_terms(c).values())


# -- the generator-triple residual on packed integer polynomials ---------------


def _addmul(out: dict, A: dict, B: dict, k: int) -> None:
    """out += k * A * B for packed polynomials {monomial key: int}."""
    for ka, ca in A.items():
        ca *= k
        for kb, cb in B.items():
            key = ka + kb
            out[key] = out.get(key, 0) + ca * cb


@lru_cache(maxsize=None)
def _nu_power(w: int, s: int) -> dict:
    """(lam + mu)^s packed in fields of w bits, lam in the lowest and mu in
    the next (_PackedResidual); one table per width, shared by every
    kernel, which only reads it."""
    return {a + ((s - a) << w): comb(s, a) for a in range(s + 1)}


class _PackedResidual:
    """The generator-triple residual of check_jacobi and check_compatible
    as one integer polynomial in Z[lam, mu, x, params, jets].

    Each monomial is one int: the exponents of lam, mu, x, the parameters
    and the jets u_i^(n) (ordered by n, then i) sit in fields of w bits,
    lam in the lowest and the jets in the highest, so a product of
    monomials is a sum of keys (Monagan and Pearce, *Polynomial division
    using dynamic arrays, heaps, and packed exponent vectors*, CASC 2007).
    w is sized from bounds read off the structures, so no sum carries
    between fields.  Let ord be the top order and J the top jet order of
    the operators, and d the top degree of a coefficient in x, in each
    parameter and in the jets: every monomial of the residual has lam and
    mu degrees at most 2 ord + J, and degrees at most 2 d in x, in each
    parameter and in each jet.  Its jet orders reach ord + 2 J; the jets
    are the top fields, so a derivative that raises an order meets no
    field above.

    Each structure S is scaled by L_S, the lcm of the denominators of its
    coefficients, so that B_ij(lam) = L_S {u_i _lam u_j} has integer
    coefficients.  The three terms below are linear in the inner and in
    the outer structure, so the scaled residual is L_first L_second times
    the true one: zero exactly when it is, and the witness is the scaled
    residual over L_first L_second, read back (_read_back) into the
    arity-2 LambdaPoly of the lambda-polynomial formula (lam in slot 0,
    mu in slot 1).  Both orders of a pair carry the same scale L_H L_K.

    With nu = lam + mu, d = d/dx + sum u^(n+1) d/du^(n) (parameters are
    constants) and (v + d)^p X = sum_r C(p, r) v^(p-r) d^r X, the kernel
    adds t1 - t2 - t3 = -C(inner, outer)(u_a, u_b, u_c) per order:
    - with B^in_bc(mu) = sum_k g_k mu^k:
      t1 = sum_k mu^k sum_(j,n) dg_k/du_j^(n) (lam + d)^n B^out_aj(lam);
    - with B^in_ac(lam) = sum_k f_k lam^k:
      t2 = sum_k lam^k sum_(j,n) df_k/du_j^(n) (mu + d)^n B^out_bj(mu);
    - with B^in_ab(lam) = sum_t q_t lam^t and B^out_ic(nu) = sum_k h_k nu^k:
      t3 = sum_t lam^t sum_(i,m) (-1)^m sum_k h_k (nu + d)^(k+m)
      dq_t/du_i^(m).
    Calling the object on generator indices (a, b, c) gives sign times
    the sum of C(first, second) over the orders.  The derivative chains of
    each B_ij, its shifts (v + d)^n B_ij(v) and the weights of t3 are kept
    across the triples of one check.

    For one structure H, skewadjoint() tests H* = -H on the same form:
    with B_ij(lam) = sum_n lam^n C_n, H_ij + (H_ji)* = 0 iff
    B_ji(lam) + sum_n (-1)^n (lam + d)^n C_n = 0, because (H_ji)* =
    sum_n (-d)^n o C_n has the symbol sum_n (-lam - d)^n C_n.  The
    equation is linear, so the scale L_H leaves the verdict unchanged, and
    the chains d^r B_ij it reads are the ones the residual shifts."""

    def __init__(self, orders: list, sign: int):
        alg = orders[0][0].alg
        field, size = alg.field, alg.nvars
        structs = list(dict.fromkeys(S for order in orders for S in order))
        names = sorted({v for S in structs for row in S.op.rows for e in row
                        for c in e.coeffs.values()
                        for mono in _coefficient_terms(c) for v, _ in mono})
        slots = {v: k for k, v in enumerate(names)}
        flat = {S: {(i, j, n): _flat(field, _coefficient_terms(c), slots)
                    for j, row in enumerate(S.op.rows, 1)
                    for i, e in enumerate(row, 1)
                    for n, c in e.coeffs.items()} for S in structs}
        params = len(field.params)
        # one width for every field: the top degree of a coefficient in x
        # or a parameter, or in the jets together, bounds each exponent
        degree = max(max(*exps[:1 + params], sum(exps[1 + params:]))
                     for S in structs for P, _ in flat[S].values()
                     for exps in P)
        order = max(n for S in structs for (_, _, n) in flat[S])
        top = max(n for n, _ in names)
        w = max(2 * order + top, 2 * degree).bit_length()
        self.w, self.mask = w, (1 << w) - 1
        self.base = (3 + params) * w    # the first jet field
        self.step = (1 << size * w) - 1  # u_i^(n) -> u_i^(n+1), times 1 << s
        self.alg, self.sign, self.orders = alg, sign, orders
        shifts = [(2 + k) * w for k in range(1 + params)] + [
            self.base + (n * size + i - 1) * w for n, i in names]
        self.B, scale = {}, {}
        for S in structs:
            L = lcm(1, *(m for _, m in flat[S].values()))
            B = {(i, j): {} for i in range(1, size + 1)
                 for j in range(1, size + 1)}
            for (i, j, n), (P, m) in flat[S].items():
                poly, k = B[i, j], L // m
                for exps, a in P.items():
                    poly[sum(e << s for e, s in zip(exps, shifts)) + n] = a * k
            self.B[S], scale[S] = B, L
        first, second = orders[0]
        self.den = scale[first] * scale[second]
        self._chains, self._shifts, self._weights = {}, {}, {}

    def _derive(self, P: dict) -> dict:
        """d P: d/dx on the x field, u^(n) -> u^(n+1) on each jet field."""
        w, mask, base, step = self.w, self.mask, self.base, self.step
        xs = 2 * w
        out = {}
        for key, c in P.items():
            e = (key >> xs) & mask
            if e:
                k = key - (1 << xs)
                out[k] = out.get(k, 0) + c * e
            rest, s = key >> base, base
            while rest:
                e = rest & mask
                if e:
                    k = key + (step << s)
                    out[k] = out.get(k, 0) + c * e
                rest >>= w
                s += w
        return {k: c for k, c in out.items() if c}

    def _partial(self, P: dict, s: int) -> dict:
        """dP/du for the jet u in the field at bit s."""
        mask, one = self.mask, 1 << s
        out = {}
        for key, c in P.items():
            e = (key >> s) & mask
            if e:
                out[key - one] = c * e
        return out

    def _jets(self, P: dict) -> list:
        """[(s, i, n)] for the jets u_i^(n) of P, s the bit of each field."""
        mask, w, size = self.mask, self.w, self.alg.nvars
        union = 0
        for key in P:
            union |= key
        out, rest, idx = [], union >> self.base, 0
        while rest:
            if rest & mask:
                out.append((self.base + idx * w, idx % size + 1, idx // size))
            rest >>= w
            idx += 1
        return out

    def _chain(self, S, i: int, j: int, n: int) -> list:
        """[B_ij, d B_ij, ...] of S, up to d^n B_ij or the first zero."""
        chain = self._chains.setdefault((S, i, j), [self.B[S][i, j]])
        while len(chain) <= n and chain[-1]:
            chain.append(self._derive(chain[-1]))
        return chain

    def skewadjoint(self) -> bool:
        """H* = -H for the one structure H of the orders, by the identity
        in the class docstring.  d does not touch lam, so the term of
        d^r B_ij with lam exponent n >= r gives (-1)^n C(n, r) lam^(n-r)
        times the rest of its key."""
        (H, _), = self.orders
        B, mask, size = self.B[H], self.mask, self.alg.nvars
        for i in range(1, size + 1):
            for j in range(i, size + 1):
                out = dict(B[j, i])
                top = max((k & mask for k in B[i, j]), default=0)
                for r, X in enumerate(self._chain(H, i, j, top)[:top + 1]):
                    for k, a in X.items():
                        n = k & mask
                        if n >= r:
                            a *= comb(n, r)
                            out[k - r] = out.get(k - r, 0) + (-a if n % 2
                                                              else a)
                if any(out.values()):
                    return False
        return True

    def _shifted(self, S, i: int, j: int, n: int, slot: int) -> dict:
        """(v + d)^n B_ij(v) of S, v = lam (slot 0) or mu (slot 1)."""
        key = (S, i, j, n, slot)
        out = self._shifts.get(key)
        if out is None:
            if slot:
                # B_ij(lam) has no mu: move each lam exponent e to mu,
                # k - e + (e << w)
                mask = self.mask
                out = {k + (k & mask) * mask: c for k, c in
                       self._shifted(S, i, j, n, 0).items()}
            else:
                out = {}
                for r, X in enumerate(self._chain(S, i, j, n)[:n + 1]):
                    c = comb(n, r)
                    for k, a in X.items():
                        k += n - r
                        out[k] = out.get(k, 0) + c * a
                out = {k: c for k, c in out.items() if c}
            self._shifts[key] = out
        return out

    def _weight(self, S, i: int, c: int, m: int, r: int) -> dict:
        """sum_k C(k+m, r) h_k nu^(k+m-r) over the terms h_k lam^k of
        B_ic of S with k + m >= r."""
        key = (S, i, c, m, r)
        out = self._weights.get(key)
        if out is None:
            out, mask = {}, self.mask
            for k, a in self.B[S][i, c].items():
                e = k & mask    # this term of h_e lam^e
                if e + m >= r:
                    a *= comb(e + m, r)
                    for kn, cn in _nu_power(self.w, e + m - r).items():
                        kn += k - e
                        out[kn] = out.get(kn, 0) + a * cn
            self._weights[key] = out
        return out

    def __call__(self, a: int, b: int, c: int) -> LambdaPoly:
        out = {}
        for inner, outer in self.orders:
            B = self.B[inner]
            mu_bc = self._shifted(inner, b, c, 0, 1)
            for s, j, n in self._jets(mu_bc):
                _addmul(out, self._partial(mu_bc, s),
                        self._shifted(outer, a, j, n, 0), 1)
            for s, j, n in self._jets(B[a, c]):
                _addmul(out, self._partial(B[a, c], s),
                        self._shifted(outer, b, j, n, 1), -1)
            for s, i, m in self._jets(B[a, b]):
                h = self.B[outer][i, c]
                if not h:
                    continue
                X = self._partial(B[a, b], s)
                for r in range(m + max(k & self.mask for k in h) + 1):
                    if r:
                        X = self._derive(X)
                    if not X:
                        break
                    _addmul(out, X, self._weight(outer, i, c, m, r),
                            1 if m % 2 else -1)
        out = {k: v for k, v in out.items() if v}
        if not out:
            return LambdaPoly.zero(self.alg, 2)
        return self._read_back(out)

    def _read_back(self, out: dict) -> LambdaPoly:
        """sign * out / den as an arity-2 LambdaPoly: the terms of out are
        grouped by their lam, mu and jet fields, and each group is one
        coefficient over x and the parameters (field._from_terms_over)."""
        alg, w, mask, sign = self.alg, self.w, self.mask, -self.sign
        field, size = alg.field, alg.nvars
        k = len(field._zm)      # x and the parameters
        lm, xs, base = (1 << 2 * w) - 1, 2 * w, self.base
        xmask = (1 << k * w) - 1
        groups = {}
        for key, v in out.items():
            groups.setdefault((key & lm, key >> base), {})[
                (key >> xs) & xmask] = sign * v
        terms, monos = {}, {}
        for (e, jets), P in groups.items():
            mono = monos.get(jets)
            if mono is None:
                mono, rest, idx = [], jets, 0
                while rest:
                    if rest & mask:
                        mono.append(((idx // size, idx % size + 1),
                                     rest & mask))
                    rest >>= w
                    idx += 1
                mono = monos[jets] = tuple(mono)
            terms.setdefault((e & mask, e >> w), {})[mono] = \
                _from_terms_over(field, {
                    tuple((x >> f * w) & mask for f in range(k)): c
                    for x, c in P.items()}, self.den)
        return LambdaPoly(alg, 2, {e: DiffPoly(alg, t)
                                   for e, t in terms.items()})


def poisson_bracket(f, g, H: LambdaBracketStruct) -> LocalFunctional:
    """{int f, int g} = int (delta g/delta u) . H(d) (delta f/delta u)."""
    fr = f.representative if isinstance(f, LocalFunctional) else f
    gr = g.representative if isinstance(g, LocalFunctional) else g
    gf = list(variational_derivative(fr))
    gg = list(variational_derivative(gr))
    hf = H.op.apply(gf)
    out = H.alg.zero
    for a, b in zip(gg, hf):
        out = out + a * b
    return LocalFunctional(out)


# -- convenient standard structures ---------------------------------------------


def magri_structure(alg: DiffAlgebra,
                    c: Optional[object] = None) -> LambdaBracketStruct:
    """{u_lam u} = (d + 2 lam) u + c lam^3 on one variable:
    H = u' + 2u d + c d^3."""
    if alg.nvars != 1:
        raise ValueError("this structure is for one dependent variable")
    if c is None:
        c = alg.field.param("c") if "c" in alg.field.params else alg.field.one
    u = alg.jet(1, 0)
    op = ScalarDiffOp(alg, {0: u.derive(), 1: u * 2,
                            3: alg.from_scalar(alg.field.coerce(c))})
    return LambdaBracketStruct.from_scalar_op(op)
