"""Coefficient algebra and field evaluation tests.

Polynomial derivatives are checked against a central finite-difference
oracle, coefficient sums and products against pointwise arithmetic on
their values, and field evaluations against closed-form trig expressions
computed in-test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsakit.fourier import FourierField, PolyCoeff
from qsakit.probing import clock_state, make_frequency_basis


def fd_oracle(f, x, j, h=1e-6):
    xp, xm = x.copy(), x.copy()
    xp[j] += h
    xm[j] -= h
    return (f(xp) - f(xm)) / (2 * h)


class TestPolyCoeff:
    def test_value_and_diff(self):
        # c(x) = (1 + 2 x0) x1, output dim 1
        c = PolyCoeff(2, 1, {(0, 1): [1.0], (1, 1): [2.0]})
        x = np.array([0.3, 0.5])
        assert c.value(x)[0] == pytest.approx((1 + 0.6) * 0.5, rel=1e-15)
        dx0 = c.diff(0)
        assert dx0.value(x)[0] == pytest.approx(2 * 0.5, rel=1e-15)
        dx1 = c.diff(1)
        assert dx1.value(x)[0] == pytest.approx(1 + 0.6, rel=1e-15)

    def test_product_expansion(self):
        a = PolyCoeff(1, 1, {(0,): [1.0], (1,): [2.0]})  # 1 + 2x
        b = PolyCoeff(1, 1, {(1,): [3.0]})  # 3x
        prod = a.mul_component(b, 0)  # 3x + 6x^2
        assert prod.terms[(1,)][0] == 3.0
        assert prod.terms[(2,)][0] == 6.0

    def test_jacobian_matches_fd(self):
        c = PolyCoeff(2, 2, {(2, 1): [1.0, -0.5], (0, 0): [0.0, 1.0]})
        x = np.array([0.7, -0.2])
        jac = c.jacobian(x)
        for j in range(2):
            num = fd_oracle(lambda y: c.value(y), x, j)
            assert np.allclose(jac[:, j], num, rtol=1e-7, atol=1e-9)

    def test_scale_conj(self):
        c = PolyCoeff(1, 1, {(1,): [2.0 + 1.0j]})
        x = np.array([0.5])
        assert c.scale(1j).value(x)[0] == pytest.approx((2 + 1j) * 0.5j)
        assert c.conj().value(x)[0] == pytest.approx((2 - 1j) * 0.5)


@st.composite
def small_polys(draw):
    n_terms = draw(st.integers(1, 3))
    terms = {}
    for _ in range(n_terms):
        alpha = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        c = complex(
            draw(st.floats(-2, 2, allow_nan=False)), draw(st.floats(-2, 2, allow_nan=False))
        )
        terms[alpha] = np.array([c]) + terms.get(alpha, 0.0)
    return PolyCoeff(2, 1, terms)


class TestPolyCoeffAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(small_polys(), small_polys())
    def test_product_matches_pointwise(self, a, b):
        x = np.array([0.6, -0.4])
        got = a.mul_component(b, 0).value(x)
        assert np.allclose(got, a.value(x) * b.value(x)[0], rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(small_polys(), small_polys())
    def test_sum_matches_pointwise(self, a, b):
        x = np.array([0.6, -0.4])
        assert np.allclose(a.add(b).value(x), a.value(x) + b.value(x), rtol=0, atol=1e-12)


def cosine_field(half=0.5):
    # u = cos(2 pi (omega t + phi)) as a K=1 field over a 1+1 state
    c = PolyCoeff.constant(2, [half])
    return FourierField(1, 1, 1, 1, {(1,): c, (-1,): c.conj()})


class TestFourierField:
    def test_eval_matches_cosine(self):
        basis = make_frequency_basis([(2, 1)], phases=[0.25])
        field = cosine_field()
        x = np.zeros(2)
        for t in (0.0, 0.7, 133.25):
            z = clock_state(basis, t).phi
            want = math.cos(2 * math.pi * ((math.log(2) * t + 0.25) % 1.0))
            assert field.eval(x, z)[0] == pytest.approx(want, abs=1e-12)
            assert abs(field.eval_complex(x, z)[0].imag) < 1e-12

    def test_clock_derivative_is_minus_sine(self):
        basis = make_frequency_basis([(2, 1)])
        omega = math.log(2)
        dfield = cosine_field().clock_derivative(basis)
        x = np.zeros(2)
        for t in (0.1, 2.3):
            z = clock_state(basis, t).phi
            want = -2 * math.pi * omega * math.sin(2 * math.pi * ((omega * t) % 1.0))
            assert dfield.eval(x, z)[0] == pytest.approx(want, abs=1e-12)

    def test_reality_defect(self):
        good = cosine_field()
        x = np.array([0.3, 0.4])
        assert good.reality_defect(x) < 1e-15
        bad = FourierField(1, 1, 1, 1, {(1,): PolyCoeff.constant(2, [0.5 + 0.1j])})
        assert bad.reality_defect(x) == math.inf

    def test_mean_value(self):
        c0 = PolyCoeff(2, 1, {(1, 0): [2.0]})
        field = FourierField(1, 1, 1, 1, {(0,): c0})
        assert field.mean_value(np.array([0.3, 9.9]))[0] == pytest.approx(0.6)
        assert cosine_field().mean_value(np.zeros(2))[0] == 0.0

    def test_add_scale_slice(self):
        f = cosine_field()
        two = f.add(f)
        x = np.zeros(2)
        basis = make_frequency_basis([(2, 1)])
        z = clock_state(basis, 0.3).phi
        assert two.eval(x, z)[0] == pytest.approx(2 * f.eval(x, z)[0], rel=1e-15)
        assert f.scale(-3.0).eval(x, z)[0] == pytest.approx(-3 * f.eval(x, z)[0], rel=1e-15)
        stacked = FourierField(
            1, 1, 2, 1, {(1,): PolyCoeff.constant(2, [0.5, 1.5]), (-1,): PolyCoeff.constant(2, [0.5, 1.5])}
        )
        assert stacked.output_slice(1, 2).eval(x, z)[0] == pytest.approx(
            3 * f.eval(x, z)[0], rel=1e-14
        )

    def test_tiny_coefficients_pruned(self):
        c = PolyCoeff.constant(2, [1e-16])
        field = FourierField(1, 1, 1, 1, {(1,): c, (-1,): c.conj()})
        assert field.terms == {}
