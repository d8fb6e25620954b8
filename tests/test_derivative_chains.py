"""Every derivative chain c, c', c'', ... is built once (field.extend_chain),
and the variational derivative takes one derive per order (Horner form).

Each fast path equals, and is repr-equal to, its per-order loop kept in
helpers.py; the derive counts pin the work itself."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varpois import (DiffAlgebra, DiffPoly, FieldElem, MatDiffOp,
                     ScalarDiffOp, higher_euler, variational_derivative)

from helpers import (apply_reference, diffpolys, field_elems,
                     higher_euler_reference, mat_apply_reference,
                     variational_derivative_reference)

ALGEBRAS = (DiffAlgebra(1, ["c"]), DiffAlgebra(2, ["c"]))


def same(a, b) -> bool:
    return a == b and repr(a) == repr(b)


@st.composite
def scalars(draw, field):
    """field_elems, sometimes over x + q, so derivatives never vanish."""
    v = draw(field_elems(field))
    if draw(st.booleans()):
        v = v / (field.x + draw(st.integers(1, 3)))
    return v


@st.composite
def operators(draw, alg, quasiconstant, max_order=3):
    coeffs = {}
    for n in range(draw(st.integers(0, max_order)) + 1):
        if draw(st.booleans()):
            coeffs[n] = (alg.from_scalar(draw(scalars(alg.field)))
                         if quasiconstant else
                         draw(diffpolys(alg, 1, 2, 2, with_x=True)))
    return ScalarDiffOp(alg, coeffs)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), alg=st.sampled_from(ALGEBRAS))
def test_variational_derivative_equals_the_per_order_loop(data, alg):
    f = data.draw(diffpolys(alg, max_order=4, max_degree=3, max_terms=4,
                            with_x=True))
    assert same(variational_derivative(f), variational_derivative_reference(f))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), alg=st.sampled_from(ALGEBRAS))
def test_higher_euler_equals_the_per_order_sum(data, alg):
    f = data.draw(diffpolys(alg, max_order=3, max_degree=3, max_terms=4,
                            with_x=True))
    for i in range(1, alg.nvars + 1):
        assert same(higher_euler(f, i), higher_euler_reference(f, i))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), alg=st.sampled_from(ALGEBRAS),
       quasiconstant=st.booleans())
def test_apply_equals_the_per_order_loop(data, alg, quasiconstant):
    """ScalarDiffOp.apply, on V, and on F for a quasiconstant operator."""
    op = data.draw(operators(alg, quasiconstant))
    f = data.draw(diffpolys(alg, 2, 2, 3, with_x=True))
    assert same(op.apply(f), apply_reference(op, f))
    if quasiconstant:
        v = data.draw(scalars(alg.field))
        assert same(op.apply(v), apply_reference(op, v))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), alg=st.sampled_from(ALGEBRAS),
       quasiconstant=st.booleans())
def test_mat_apply_equals_the_per_entry_loop(data, alg, quasiconstant):
    size = data.draw(st.integers(1, 3))
    M = MatDiffOp(alg, [[data.draw(operators(alg, quasiconstant))
                         for _ in range(size)] for _ in range(size)])
    vec = [data.draw(diffpolys(alg, 2, 2, 3, with_x=True))
           for _ in range(size)]
    assert same(M.apply(vec), mat_apply_reference(M, vec))
    if quasiconstant:
        vec = [data.draw(scalars(alg.field)) for _ in range(size)]
        assert same(M.apply(vec), mat_apply_reference(M, vec))


def _count_derives(monkeypatch, cls) -> list:
    calls = []
    real = cls.derive
    monkeypatch.setattr(cls, "derive",
                        lambda self: calls.append(self) or real(self))
    return calls


@pytest.mark.parametrize("N", [1, 3, 6])
def test_variational_derivative_derives_once_per_order(monkeypatch, N):
    """A density holding u_i, u_i', ..., u_i^(N) in both variables: N
    derives per variable, where n derives per order n take N(N+1)/2."""
    alg = DiffAlgebra(2)
    f = alg.zero
    for i in (1, 2):
        for n in range(N + 1):
            f = f + alg.jet(i, n) * alg.jet(i, n) * alg.jet(3 - i)
    calls = _count_derives(monkeypatch, DiffPoly)
    grad = variational_derivative(f)
    assert len(calls) == 2 * N
    monkeypatch.undo()
    assert same(grad, variational_derivative_reference(f))


def test_mat_apply_derives_each_component_once_per_order(monkeypatch):
    """A full 2x2 operator of order 3: one chain of 3 derives per
    component, on V and on F, where the per-entry loop takes 2 x 6."""
    alg = DiffAlgebra(2)
    field = alg.field
    M = MatDiffOp(alg, [[ScalarDiffOp(alg, {n: alg.from_scalar(field.x + n)
                                            for n in range(4)})
                         for _ in range(2)] for _ in range(2)])
    u1, u2 = alg.jet(1), alg.jet(2)
    for cls, vec in ((DiffPoly, [u1 * u2, u1 * u1]),
                     (FieldElem, [field.one / field.x,
                                  field.one / (field.x + 1)])):
        calls = _count_derives(monkeypatch, cls)
        out = M.apply(vec)
        assert len(calls) == 3 * 2
        assert [sum(c is f for c in calls) for f in vec] == [1, 1]
        monkeypatch.undo()
        assert same(out, mat_apply_reference(M, vec))
