"""Lenard-Magri recursion driver.

Given a compatible pair (H, K) and a seed density, repeatedly solve
K(d) (delta h_(n+1) / delta u) = H(d) (delta h_n / delta u): apply H to the
current gradient, invert K (its triangular form over F[d], solved by the
linear solver's back-substitution, single-power pivots), and rebuild the
density by the homotopy formula, whose gradient is the exactness test.
Every accepted step is certified symbolically; a preimage that is not a
variational gradient raises NotExact with the witness D_G - D_G*.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .diffalg import (DiffAlgebra, DiffPoly, LocalFunctional, NotExact,
                      antiderivative_in_v, reconstruct_density,
                      variational_derivative)
from .diffop import (NotSkewadjoint, ScalarDiffOp, _back_substitute,
                     _replay, row_echelon)
from .field import InvariantViolation
from .pva import (LambdaBracketStruct, NotPoisson, check_compatible,
                  check_jacobi, check_skewadjoint)


class NoPreimage(Exception):
    """The K-inversion obstruction: some component is not a total
    derivative (or fails under the triangularized K)."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class UnsupportedK(Exception):
    """K is outside the invertible class handled by the driver."""


class StepCertificate:
    """Recorded evidence for one accepted recursion step."""

    __slots__ = ("index", "recursion_exact")

    def __init__(self, index: int, recursion_exact: bool):
        self.index = index
        self.recursion_exact = recursion_exact

    def __repr__(self):
        return (f"StepCertificate(n={self.index}, "
                f"recursion_exact={self.recursion_exact})")


class HierarchyState:
    """Densities produced so far, with their certificates and their
    variational gradients (gradients[n] = delta h_n / delta u).

    Privately it keeps row_echelon(K.op), computed at the first step, and
    the images S(d) g_n computed so far, so each is computed once."""

    def __init__(self, H: LambdaBracketStruct, K: LambdaBracketStruct,
                 densities: Sequence[LocalFunctional],
                 certificates: Optional[list] = None):
        self.H = H
        self.K = K
        self.densities = list(densities)
        self.gradients = [list(variational_derivative(h.representative))
                          for h in self.densities]
        self.certificates = list(certificates or [])
        self._echelon = None
        self._images = {}

    @property
    def alg(self) -> DiffAlgebra:
        return self.H.alg

    def _image(self, S: LambdaBracketStruct, n: int) -> list:
        """S(d) g_n for S one of H and K."""
        key = (S is self.K, n)
        if key not in self._images:
            self._images[key] = S.op.apply(self.gradients[n])
        return self._images[key]

    def __repr__(self):
        return f"HierarchyState({len(self.densities)} densities)"


def _invert_k_on(state: HierarchyState, F: Sequence[DiffPoly]) -> list:
    """Solve K(d) G = F for G in V^l, with the integration constants set to
    zero: row_echelon brings K to an upper triangular U by row operations that
    are invertible over F[d], once per state; diffop._replay applies them
    to F, turning K G = F into U G = F' with the same solutions, and the
    solver's back-substitution (diffop._back_substitute) solves U G = F'
    from the last row up with _solve_pivot_in_v.  Raises UnsupportedK for
    a K that is not quasiconstant, is singular, or has a pivot that is not
    a single power c d^m.
    """
    K = state.K
    if not K.op.is_quasiconstant():
        raise UnsupportedK("only quasiconstant K is invertible here")
    if state._echelon is None:
        state._echelon = row_echelon(K.op)
    U, ops = state._echelon
    size = len(F)
    return _back_substitute(U, range(size), _replay(ops, F),
                            [K.alg.zero] * size, _solve_pivot_in_v)


def _solve_pivot_in_v(pivot: ScalarDiffOp, g: DiffPoly, j: int) -> DiffPoly:
    """g_j in V with pivot(d) g_j = g, for the diagonal pivot c d^m of
    component j: m antiderivatives in V of g / c.  Raises NoPreimage, with
    the integrand as its witness, when one is not a total derivative."""
    if pivot.is_zero():
        raise UnsupportedK("K is singular: its triangular form has a "
                           "zero pivot")
    if len(pivot.coeffs) != 1:
        raise UnsupportedK("pivot is not a single d-power")
    (m, c), = pivot.coeffs.items()
    g = g / c
    for step in range(m):
        try:
            g = antiderivative_in_v(g)
        except NotExact as err:
            raise NoPreimage(
                f"component {j + 1} is not in the image of K "
                f"(obstruction at derivative {step + 1} of {m}): "
                f"{err}", witness=g) from err
    return g


def lenard_step(state: HierarchyState) -> LocalFunctional:
    """One recursion step: from the last density h_n produce h_(n+1) with
    K(d) delta h_(n+1) = H(d) delta h_n, certified exactly.

    The preimage G is the new gradient when diffalg.reconstruct_density
    finds a density h_(n+1) with delta h_(n+1) = G.  Raises NoPreimage
    when H delta h_n is not in the image of K, and reconstruct_density's
    NotExact, with D_G - D_G* as its witness, when G is not a variational
    gradient.  K delta h_(n+1) = H delta h_n is checked on its own,
    against a wrong inversion: InvariantViolation, and the density is not
    added.  The new gradient and the images H g_n and K g_(n+1) are kept
    on the state.
    """
    F = state._image(state.H, len(state.gradients) - 1)
    new_grad = _invert_k_on(state, F)
    h_next = LocalFunctional(reconstruct_density(new_grad))
    lhs = state.K.op.apply(new_grad)
    if lhs != F:
        raise InvariantViolation(
            "recursion identity failed after reconstruction")
    state.densities.append(h_next)
    state.gradients.append(new_grad)
    state._images[(True, len(state.gradients) - 1)] = lhs
    state.certificates.append(StepCertificate(len(state.densities) - 1, True))
    return h_next


def _require_skewadjoint(name: str, S: LambdaBracketStruct):
    if not check_skewadjoint(S):
        raise NotSkewadjoint(f"bracket operator {name} is not skewadjoint")


def verify_involution(state: HierarchyState) -> list:
    """Pairwise {int h_m, int h_n} = 0 under both brackets; returns the
    matrix of booleans (True = vanishes under both).

    Both brackets must be skewadjoint (else NotSkewadjoint).  Write g_n for
    delta h_n / delta u and {int h_m, int h_n}_S = int g_n . S(d) g_m.  For a
    skewadjoint S, int a . S b = -int b . S a, so {h_n, h_m}_S =
    -{h_m, h_n}_S and {h_n, h_n}_S = 0: the diagonal is True and the lower
    triangle mirrors the upper one.

    Call the link n exact when K g_(n+1) = H g_n holds in V^l; it is checked
    here as an equality of differential polynomials, whatever the state's
    certificates say.  On a run of exact links from s to e (links s..e-1
    exact), every pair s <= m < n <= e is in involution under both brackets
    (the Lenard-Magri lemma):

    - {h_m, h_n}_H = int g_n . H g_m = int g_n . K g_(m+1)
      = {h_(m+1), h_n}_K, by link m;
    - {h_m, h_n}_K = -int g_m . K g_n = -int g_m . H g_(n-1)
      = int g_(n-1) . H g_m = {h_m, h_(n-1)}_H = {h_(m+1), h_(n-1)}_K, by
      links n-1 and m and the skewadjointness of K and H.

    So a K-bracket equals the K-bracket of the pair one step closer from
    each side, until it reaches a diagonal pair, which vanishes, or a pair
    (m, m+1), where {h_m, h_(m+1)}_K = -int g_m . K g_(m+1)
    = -{h_m, h_m}_H = 0.  Every index used stays in [s, e], so the lemma
    holds on any such run.  Only the pairs across a broken link are
    zero-tested, by integration by parts; each image H g_n and K g_n is
    computed at most once per state, when first needed, and lenard_step
    has computed H g_n and K g_(n+1) already.
    """
    for name, S in (("H", state.H), ("K", state.K)):
        _require_skewadjoint(name, S)
    alg = state.alg
    grads = state.gradients
    n = len(grads)
    image = state._image
    run = [0] * n  # run[m]: the first index of m's run of exact links
    for m in range(1, n):
        exact = image(state.K, m) == image(state.H, m - 1)
        run[m] = run[m - 1] if exact else m
    out = [[True] * n for _ in range(n)]
    for a in range(n - 1):
        for b in range(a + 1, n):
            if run[a] == run[b]:
                continue
            # {int h_a, int h_b} = int (delta h_b) . S(d) (delta h_a)
            brackets = (LocalFunctional(sum((x * y for x, y in zip(
                grads[b], image(S, a))), alg.zero))
                for S in (state.H, state.K))
            out[a][b] = out[b][a] = all(br.is_zero() for br in brackets)
    return out


def run_hierarchy(H: LambdaBracketStruct, K: LambdaBracketStruct,
                  seed: LocalFunctional, steps: int) -> HierarchyState:
    """Run the recursion for `steps` new densities from the seed.

    The Hamiltonian/compatibility preconditions are checked first; a
    failure raises NotPoisson carrying the witness.  Obstructions
    propagate as NoPreimage / NotExact with the residual witness attached;
    densities accepted so far stay in the state.
    """
    for name, S in (("H", H), ("K", K)):
        _require_skewadjoint(name, S)
        ok, wit = check_jacobi(S)
        if not ok:
            raise NotPoisson(f"{name} is not Poisson; witness triple "
                             f"{wit[0]}", wit)
    ok_c, wit = check_compatible(H, K)
    if not ok_c:
        raise NotPoisson(f"pair is not compatible; witness {wit[0]}", wit)
    state = HierarchyState(H, K, [seed])
    for _ in range(steps):
        lenard_step(state)
    return state
