"""Coefficient algebra and field evaluation tests.

Coefficient sums and products are checked against pointwise arithmetic on
their values, field evaluations against closed-form trig expressions
computed in-test, and batched evaluation over a sample axis against the
stack of single-sample calls, bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsakit.fourier import FourierField, PolyCoeff
from qsakit.probing import clock_state, make_frequency_basis


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

    def test_scale_conj(self):
        c = PolyCoeff(1, 1, {(1,): [2.0 + 1.0j]})
        x = np.array([0.5])
        assert c.scale(1j).value(x)[0] == pytest.approx((2 + 1j) * 0.5j)
        assert c.conj().value(x)[0] == pytest.approx((2 - 1j) * 0.5)


@st.composite
def small_polys(draw, max_exp=2):
    n_terms = draw(st.integers(1, 3))
    terms = {}
    for _ in range(n_terms):
        alpha = (draw(st.integers(0, max_exp)), draw(st.integers(0, max_exp)))
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


# -- batched evaluation over a sample axis ----------------------------------

coords = st.floats(-1.5, 1.5, allow_nan=False)


@st.composite
def random_fields(draw):
    """A 1+1 state, 2-frequency field: exponents up to 4, clock indices in [-3, 3]."""
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        k = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
        terms[k] = draw(small_polys(max_exp=4))
    return FourierField(1, 1, 1, 2, terms)


@st.composite
def samples(draw):
    """(x (N, 2), z (N, 2)) with unit-modulus clocks."""
    count = draw(st.integers(1, 6))
    x = np.array([[draw(coords), draw(coords)] for _ in range(count)])
    phase = np.array([[draw(st.floats(0, 1)), draw(st.floats(0, 1))] for _ in range(count)])
    return x, np.exp(2j * np.pi * phase)


def repeated_product(bases, exps):
    """prod_j bases_j ** exps_j by repeated multiplication, coordinate order."""
    out = None
    for v, k in zip(bases, exps):
        if k:
            step = v if k > 0 else 1.0 / v
            p = step
            for _ in range(abs(k) - 1):
                p = p * step
            out = p if out is None else out * p
    return np.ones(1) if out is None else out


class TestSampleAxis:
    @settings(max_examples=80, deadline=None)
    @given(small_polys(max_exp=4), samples())
    def test_poly_value_batch_equals_stack(self, c, xz):
        x, _ = xz
        assert np.array_equal(c.value(x), np.stack([c.value(xi) for xi in x]))

    @settings(max_examples=80, deadline=None)
    @given(random_fields(), samples())
    def test_field_eval_batch_equals_stack(self, f, xz):
        x, z = xz
        for method in (f.eval_complex, f.eval):
            batch = method(x, z)
            assert batch.shape == (len(x), 1)
            assert np.array_equal(batch, np.stack([method(xi, zi) for xi, zi in zip(x, z)]))

    @settings(max_examples=80, deadline=None)
    @given(small_polys(max_exp=4), random_fields(), samples())
    def test_mean_value_batch_equals_stack(self, c, f, xz):
        x, _ = xz
        with_mean = f.add(FourierField(1, 1, 1, 2, {(0, 0): c}))
        for field in (f, with_mean):
            batch = field.mean_value(x)
            assert batch.shape == (len(x), 1)
            assert np.array_equal(batch, np.stack([field.mean_value(xi) for xi in x]))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 4), st.integers(0, 4), st.integers(-4, 4), st.integers(-4, 4), samples())
    def test_powers_are_repeated_products(self, a0, a1, k0, k1, xz):
        # x^a and z^k are products of repeated multiplication (z^-k of 1/z),
        # not ``**``, whose array fast paths differ from a product by an ulp.
        x, z = xz
        mono = PolyCoeff(2, 1, {(a0, a1): [1.0]}).value(x)[:, 0]
        unit = PolyCoeff.constant(2, [1.0])
        clock = FourierField(1, 1, 1, 2, {(k0, k1): unit}).eval_complex(x, z)[:, 0]
        for i in range(len(x)):
            want_x = repeated_product([float(v) for v in x[i]], (a0, a1))
            want_z = repeated_product([z[i, j : j + 1] for j in range(2)], (k0, k1))
            assert mono[i] == want_x
            assert clock[i] == want_z[0]

    def test_shared_clock_broadcasts_over_states(self):
        f = cosine_field()
        x = np.array([[0.1, 0.2], [0.3, -0.4]])
        z = np.exp(2j * np.pi * np.array([0.37]))
        assert np.array_equal(f.eval(x, z), np.stack([f.eval(xi, z) for xi in x]))
