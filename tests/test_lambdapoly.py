import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from varpois import DiffAlgebra, DiffPoly, LambdaPoly
from varpois.lambdapoly import (affine_apply_once, affine_pow_on,
                                subst_slot_neg, symbol_act)
from varpois.linform import LinForm

from helpers import (affine_apply_once_reference, affine_pow_on_reference,
                     rnd_lambda_poly, subst_slot_neg_reference,
                     symbol_act_reference)

ALG1 = DiffAlgebra(1, ["c"])
ALG2 = DiffAlgebra(2)


def lin_maps(k):
    """Linear parts sum_s lin[s] lam_s over 1, 2 or 3 of the k slots."""
    return st.integers(1, min(3, k)).flatmap(
        lambda n: st.lists(st.integers(0, k - 1), min_size=n, max_size=n,
                           unique=True)).flatmap(
        lambda slots: st.fixed_dictionaries(
            {s: st.integers(-2, 2) for s in slots}))


@st.composite
def shift_cases(draw):
    alg = draw(st.sampled_from([ALG1, ALG2]))
    k = draw(st.integers(1, 3))
    X = rnd_lambda_poly(random.Random(draw(st.integers(0, 10 ** 6))), alg,
                        k, max_deg=1, max_order=1)
    return draw(lin_maps(k)), draw(st.sampled_from([-1, 0, 1])), X


@settings(max_examples=60, deadline=None)
@given(case=shift_cases(), m=st.integers(0, 4))
def test_binomial_affine_pow_matches_m_fold(case, m):
    """(L + s d)^m X by one binomial expansion equals m single steps."""
    lin, dsign, X = case
    assert affine_pow_on(lin, dsign, m, X) == \
        affine_pow_on_reference(lin, dsign, m, X)
    assert affine_apply_once(lin, dsign, X) == \
        affine_apply_once_reference(lin, dsign, X)


@settings(max_examples=30, deadline=None)
@given(case=shift_cases(), seed=st.integers(0, 10 ** 6))
def test_symbol_act_matches_term_by_term(case, seed):
    """P(L + s d) X with one shared derivative chain equals the sum of
    c (L + s d)^m X over the terms c mu^m of P."""
    lin, dsign, X = case
    P = rnd_lambda_poly(random.Random(seed), X.alg, 1, max_deg=3,
                        max_order=1)
    expected = LambdaPoly.zero(X.alg, X.k)
    for (m,), c in P.terms.items():
        expected = expected + affine_pow_on_reference(lin, dsign, m,
                                                      X).scale(c)
    assert symbol_act(P, lin, dsign, X) == expected


@settings(max_examples=30, deadline=None)
@given(case=shift_cases(), data=st.data())
def test_subst_slot_neg_matches_term_by_term(case, data):
    """Grouping the terms by their power of the substituted slot changes
    nothing."""
    _, _, X = case
    slot = data.draw(st.integers(0, X.k - 1))
    into = tuple(data.draw(st.lists(st.integers(0, X.k - 1), min_size=1,
                                    max_size=X.k, unique=True)))
    expected = LambdaPoly.zero(X.alg, X.k)
    for e, p in X.terms.items():
        rest = e[:slot] + (0,) + e[slot + 1:]
        expected = expected + affine_pow_on_reference(
            {s: -1 for s in into}, -1, e[slot],
            LambdaPoly(X.alg, X.k, {rest: p}))
    assert subst_slot_neg(X, slot, into, drop=False) == expected


def test_monomial_checks_its_arity():
    with pytest.raises(ValueError, match="slots"):
        LambdaPoly.monomial(ALG1, 2, (1,), ALG1.one)


def _with_coefficients(kind: str, rng: random.Random, X: LambdaPoly):
    """X with its rational coefficients left as they are ("Q"), times
    elements of Q(c)(x) ("Q(c)(x)"), or times linear forms in two unknowns
    and their first derivatives ("LinForm")."""
    F = X.alg.field
    if kind == "Q":
        return X
    if kind == "Q(c)(x)":
        v = (F.param("c") + F.x * rng.randint(-2, 2)) / (F.x + rng.randint(1, 3))
        return X.map_coeff(lambda p: p.scale(v))
    return X.map_coeff(lambda p: DiffPoly(p.alg, {
        mono: LinForm.atom(F, "a", rng.randint(0, 1)) * c +
        LinForm.atom(F, "b") * rng.randint(1, 2) for mono, c in p.terms.items()}))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["Q", "Q(c)(x)", "LinForm"]),
       seed=st.integers(0, 10 ** 6), data=st.data())
def test_kernels_equal_the_sum_per_term(kind, seed, data):
    """symbol_act and subst_slot_neg, which add every term to one
    accumulator, equal the references that build one LambdaPoly per symbol
    term or per power, on coefficients in Q, in Q(c)(x) and in linear
    forms; subst_slot_neg also with the slot dropped."""
    rng = random.Random(seed)
    alg = ALG2 if kind == "Q" else ALG1
    k = rng.randint(1, 3)
    X = _with_coefficients(kind, rng, rnd_lambda_poly(rng, alg, k, max_deg=2,
                                                      max_order=1))
    P = rnd_lambda_poly(rng, alg, 1, max_deg=3, max_order=1)
    assume(not X.is_zero() and not P.is_zero())
    lin, dsign = data.draw(lin_maps(k)), data.draw(st.sampled_from([-1, 0, 1]))
    assert symbol_act(P, lin, dsign, X) == \
        symbol_act_reference(P, lin, dsign, X)
    slot = rng.randrange(k)
    into = tuple(sorted(rng.sample(range(k), rng.randint(1, k))))
    assert subst_slot_neg(X, slot, into, drop=False) == \
        subst_slot_neg_reference(X, slot, into, drop=False)
    into = tuple(s for s in range(k) if s != slot)
    assert subst_slot_neg(X, slot, into, drop=True) == \
        subst_slot_neg_reference(X, slot, into, drop=True)
