"""Lambda-brackets on the differential polynomial algebra, Hamiltonian
structure verification, evolutionary vector fields, and functional brackets.

A bracket structure is an l x l matrix differential operator H with entries
H_ij(d) = {u_j _d u_i}_->.  The bracket of arbitrary elements expands through
the master formula

    {f_lam g} = sum_{i,j,m,n} dg/du_j^(n) (lam+d)^n {u_i _(lam+d) u_j}_->
                (-lam-d)^m df/du_i^(m),

and Jacobi / compatibility checks reduce to generator triples.
"""

from __future__ import annotations

from math import comb
from typing import Optional, Sequence

from .diffalg import (DiffAlgebra, DiffPoly, LocalFunctional, frechet,
                      higher_euler, variational_derivative)
from .diffop import MatDiffOp, NotSkewadjoint, ScalarDiffOp, ShapeMismatch
from .field import accumulate
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
    structure they meet again only once.  A skewadjoint H that passes
    check_jacobi is Poisson, and its jacobi_residual is zero on every
    triple without a bracket being expanded."""

    __slots__ = ("op", "_skew", "_jacobi")

    def __init__(self, op: MatDiffOp):
        size = op.alg.nvars
        if (op.m, op.n) != (size, size):
            raise ShapeMismatch(f"a bracket on {size} variables needs a "
                                f"{size}x{size} operator, got {op.m}x{op.n}")
        self.op = op
        self._skew = None
        self._jacobi = None

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
    """H* = -H; the adjoint is taken once per structure."""
    if H._skew is None:
        H._skew = (H.op.adjoint() + H.op).is_zero()
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
            H._jacobi = _check_triples(
                H.alg, lambda f, g, h: -_compatibility_terms(H, H, f, g, h),
                a_le_b=check_skewadjoint(H))
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
    triples with a <= b are visited (see above)."""
    orders = [(first, second) for first, second in ((H, K), (K, H))
              if not first.op.is_quasiconstant()]
    zero = LambdaPoly.zero(H.alg, 2)
    return _check_triples(H.alg, lambda f, g, h: sum(
        (_compatibility_terms(first, second, f, g, h)
         for first, second in orders), zero),
        a_le_b=check_skewadjoint(H) and check_skewadjoint(K))


def _check_triples(alg: DiffAlgebra, residual, a_le_b: bool = False):
    """(ok, witness) for residual(u_a, u_b, u_c) over the generator triples
    in lexicographic order, b from a on when a_le_b; the witness is the
    first triple with a nonzero residual, and that residual."""
    for a in range(1, alg.nvars + 1):
        for b in range(a if a_le_b else 1, alg.nvars + 1):
            for c in range(1, alg.nvars + 1):
                res = residual(alg.jet(a), alg.jet(b), alg.jet(c))
                if not res.is_zero():
                    return False, ((a, b, c), res)
    return True, None


# -- evolutionary vector fields -----------------------------------------------


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
    xh = H.op.map_entries(lambda e: e.map_coeffs(
        lambda c: ev_apply(X, c) if isinstance(c, DiffPoly) else
        X.alg.zero))
    dp = frechet(X.P)
    return xh - H.op.compose(dp.adjoint()) - dp.compose(H.op)


def hamiltonian_vf(h, H: LambdaBracketStruct) -> EvVectorField:
    """Characteristic H(d) (delta h / delta u)."""
    rep = h.representative if isinstance(h, LocalFunctional) else h
    grad = list(variational_derivative(rep))
    return EvVectorField(H.op.apply(grad))


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


def gfz_structure(alg: DiffAlgebra) -> LambdaBracketStruct:
    """The structure with {u_lam u} = lam on one variable (H = d); for
    several variables, d times the identity matrix."""
    size = alg.nvars
    return LambdaBracketStruct(MatDiffOp(alg, [
        [ScalarDiffOp.d(alg) if i == j else ScalarDiffOp.zero(alg)
         for j in range(size)] for i in range(size)]))


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
