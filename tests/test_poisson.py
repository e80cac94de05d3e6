"""Poisson-solve, coupling-block, and perturbative-representation tests.

Oracles: analytic clock differentiation (the solve must invert it exactly),
scipy quadrature for the telescoping identity, finite differences in x for
directional derivatives, a hand-rolled RK4 path plus finite differences in
t for the flow-derivative identities, and hand-derived closed forms for the
linear benchmark model.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qsakit.errors import NotZeroMean, ZeroDivisor
from qsakit.fourier import FourierField, PolyCoeff
from qsakit.poisson import (
    GainField,
    GainPoly,
    directional_derivative,
    mean_part,
    pmeanflow_terms,
    solve_poisson,
    upsilon_blocks,
    zero_mean_part,
)
from qsakit.probing import clock_phases, clock_state, default_basis, identity_map, make_frequency_basis

ALPHA = 2.0
S1 = S2 = 1.0
B1 = B2 = 0.0


def linear_field(alpha=ALPHA, s1=S1, s2=S2, b1=B1, b2=B2):
    """Fourier form of the linear benchmark: 1 slow, 1 fast, 2 frequencies."""
    terms = {
        (0, 0): PolyCoeff(
            2, 2, {(1, 0): [alpha, -2.0], (0, 1): [alpha, -1.0], (0, 0): [b1, b2]}
        ),
        (1, 0): PolyCoeff(2, 2, {(1, 0): [s1 / 2, 0.0], (0, 0): [s1 / 2, 0.0]}),
        (-1, 0): PolyCoeff(2, 2, {(1, 0): [s1 / 2, 0.0], (0, 0): [s1 / 2, 0.0]}),
        (0, 1): PolyCoeff(2, 2, {(0, 1): [0.0, s2 / 2], (0, 0): [0.0, s2 / 2]}),
        (0, -1): PolyCoeff(2, 2, {(0, 1): [0.0, s2 / 2], (0, 0): [0.0, s2 / 2]}),
    }
    return FourierField(1, 1, 2, 2, terms)


def linear_basis():
    return make_frequency_basis([(2, 1), (3, 1)], phases=[0.75, 0.75])


def linear_callbacks(alpha=ALPHA, s1=S1, s2=S2, b1=B1, b2=B2):
    def g(theta, lam, xi):
        return alpha * theta + alpha * lam + s1 * xi[0] * (theta + 1.0) + b1

    def h(theta, lam, xi):
        return -2.0 * theta - lam + s2 * xi[1] * (lam + 1.0) + b2

    return g, h


class StubGains:
    mode = "mixed"

    def __init__(self, rho=0.7, beta=0.2):
        self.rho = rho
        self.beta = beta

    def gains_at(self, t):
        return (1.0 + t) ** (-self.rho), self.rho / (1.0 + t)


def stub_system(field=None, basis=None):
    field = linear_field() if field is None else field
    basis = linear_basis() if basis is None else basis
    g, h = linear_callbacks()
    return SimpleNamespace(
        fourier=field, basis=basis, probing=identity_map(basis.size), g=g, h=h
    )


def rk4_path(system, gains, theta0, lam0, T, dt):
    """Reference integrator for test trajectories (classical RK4)."""
    n = int(round(T / dt))
    t = np.arange(n + 1) * dt
    path = np.zeros((n + 1, 2))
    y = np.array([theta0, lam0], dtype=float)
    path[0] = y

    def rhs(tt, yy):
        a, _ = gains.gains_at(tt)
        xi = np.cos(2 * math.pi * clock_phases(system.basis, tt))
        th, la = yy[:1], yy[1:]
        return np.concatenate(
            [
                np.atleast_1d(a * system.g(th, la, xi)),
                np.atleast_1d(gains.beta * system.h(th, la, xi)),
            ]
        )

    for i in range(n):
        tt = t[i]
        k1 = rhs(tt, y)
        k2 = rhs(tt + dt / 2, y + dt / 2 * k1)
        k3 = rhs(tt + dt / 2, y + dt / 2 * k2)
        k4 = rhs(tt + dt, y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        path[i + 1] = y
    return SimpleNamespace(t=t, theta=path[:, :1], lam=path[:, 1:])


def cosine_field(k_index, num_freqs, half=0.5, n=2):
    kp = tuple(1 if i == k_index else 0 for i in range(num_freqs))
    km = tuple(-v for v in kp)
    c = PolyCoeff.constant(n, [half])
    return FourierField(1, 1, 1, num_freqs, {kp: c, km: c.conj()})


class TestZeroMean:
    def test_constant_removed(self):
        field = cosine_field(0, 1).add(
            FourierField(1, 1, 1, 1, {(0,): PolyCoeff.constant(2, [3.0])})
        )
        out = zero_mean_part(field)
        assert set(out.terms) == {(1,), (-1,)}
        assert mean_part(field).terms[(0,)].value(np.zeros(2))[0] == 3.0

    def test_pure_mean_becomes_empty(self):
        field = FourierField(1, 1, 1, 1, {(0,): PolyCoeff(2, 1, {(1, 0): [1.0]})})
        assert zero_mean_part(field).terms == {}

    def test_already_zero_mean_unchanged(self):
        field = cosine_field(0, 1)
        assert set(zero_mean_part(field).terms) == set(field.terms)


class TestSolvePoisson:
    def test_cosine_amplitude_and_phase(self):
        basis = make_frequency_basis([(2, 1)])
        omega = math.log(2)
        u_hat = solve_poisson(cosine_field(0, 1), basis)
        x = np.zeros(2)
        for t in (0.0, 0.3, 7.7):
            z = clock_state(basis, t).phi
            want = -math.sin(2 * math.pi * ((omega * t) % 1.0)) / (2 * math.pi * omega)
            assert u_hat.eval(x, z)[0] == pytest.approx(want, abs=1e-14)
        amp = 2 * abs(u_hat.terms[(1,)].value(x)[0])
        assert amp == pytest.approx(1.0 / (2 * math.pi * math.log(2)), rel=1e-14)

    def test_differentiation_inverts_solve(self):
        basis = linear_basis()
        field = zero_mean_part(linear_field())
        u_hat = solve_poisson(field, basis)
        x = np.array([0.4, -0.3])
        for t in (0.0, 1.7, 52.25):
            z = clock_state(basis, t).phi
            lhs = u_hat.clock_derivative(basis).eval_complex(x, z)
            rhs = -field.eval_complex(x, z)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_empty_stays_empty(self):
        basis = default_basis(2)
        out = solve_poisson(FourierField.zero(1, 1, 1, 2), basis)
        assert out.terms == {}

    def test_not_zero_mean_rejected(self):
        basis = default_basis(1)
        field = FourierField(1, 1, 1, 1, {(0,): PolyCoeff.constant(2, [1.0])})
        with pytest.raises(NotZeroMean):
            solve_poisson(field, basis)

    def test_dependent_index_raises_zero_divisor(self):
        basis = make_frequency_basis([(2, 1), (4, 1)])
        c = PolyCoeff.constant(2, [0.5])
        field = cosine_field(0, 2).add(
            FourierField(1, 1, 1, 2, {(2, -1): c, (-2, 1): c.conj()})
        )
        with pytest.raises(ZeroDivisor):
            solve_poisson(field, basis)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda k: k != (0, 0)),
                st.floats(-2, 2, allow_nan=False),
                st.floats(-2, 2, allow_nan=False),
            ),
            min_size=1,
            max_size=4,
        ),
        st.floats(0, 50, allow_nan=False),
    )
    def test_inversion_property(self, entries, t):
        basis = default_basis(2)
        terms = {}
        for k, re, im in entries:
            c = PolyCoeff.constant(2, [complex(re, im)])
            terms[k] = c.add(terms[k]) if k in terms else c
            km = tuple(-v for v in k)
            terms[km] = terms[k].conj()
        field = FourierField(1, 1, 1, 2, terms)
        u_hat = solve_poisson(field, basis)
        x = np.zeros(2)
        z = clock_state(basis, t).phi
        lhs = u_hat.clock_derivative(basis).eval_complex(x, z)
        rhs = -field.eval_complex(x, z)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))

    def test_long_run_average_small(self):
        # solved field has no mean term; its T = 1e4 time average is tiny
        basis = linear_basis()
        u_hat = solve_poisson(zero_mean_part(linear_field()), basis)
        x = np.array([0.3, 0.2])
        coeffs = {k: c.value(x) for k, c in u_hat.terms.items()}
        t = np.arange(0, 10_000.0, 0.05)
        ph = clock_phases(basis, t)
        z = np.exp(2j * math.pi * ph)
        total = np.zeros((2, t.size), dtype=complex)
        for k, vec in coeffs.items():
            zk = np.ones(t.size, dtype=complex)
            for i, ki in enumerate(k):
                if ki:
                    zk = zk * z[i] ** ki
            total += np.outer(vec, zk)
        avg = total.real.mean(axis=1)
        assert np.max(np.abs(avg)) < 1e-3

    def test_telescoping_against_quadrature(self):
        basis = linear_basis()
        field = zero_mean_part(linear_field())
        u_hat = solve_poisson(field, basis)
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.uniform(-1, 1, size=2)
            T = float(rng.uniform(1.0, 30.0))
            for comp in range(2):
                val, err = quad(
                    lambda tt: field.eval(x, clock_state(basis, tt).phi)[comp],
                    0.0,
                    T,
                    limit=400,
                    epsabs=1e-11,
                    epsrel=1e-11,
                )
                z0 = clock_state(basis, 0.0).phi
                zT = clock_state(basis, T).phi
                want = u_hat.eval(x, z0)[comp] - u_hat.eval(x, zT)[comp]
                assert val == pytest.approx(want, abs=2e-8)


class TestDirectionalDerivative:
    def test_constant_coefficients_give_zero(self):
        u = cosine_field(0, 1)
        v = FourierField(1, 1, 1, 1, {(0,): PolyCoeff.constant(2, [1.0])})
        assert directional_derivative(u, v, "slow").terms == {}

    def test_linear_coefficient_slow_direction(self):
        c = PolyCoeff(2, 1, {(1, 0): [0.5]})  # theta/2
        u = FourierField(1, 1, 1, 1, {(1,): c, (-1,): c.conj()})
        v = FourierField(1, 1, 1, 1, {(0,): PolyCoeff.constant(2, [1.0])})
        out = directional_derivative(u, v, "slow")
        x = np.array([0.9, -0.4])
        assert set(out.terms) == {(1,), (-1,)}
        assert out.terms[(1,)].value(x)[0] == pytest.approx(0.5)

    def test_product_to_sum_fast_direction(self):
        # d/dlambda of (lambda/2) cos(w1) times cos(w2) spreads to (+-1, +-1)
        c = PolyCoeff(2, 1, {(0, 1): [0.5]})
        u = FourierField(1, 1, 1, 2, {(1, 0): c, (-1, 0): c.conj()})
        v = cosine_field(1, 2)
        out = directional_derivative(u, v, "fast")
        assert set(out.terms) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
        x = np.zeros(2)
        for k in out.terms:
            assert out.terms[k].value(x)[0] == pytest.approx(0.25)

    def test_matches_fd_oracle_in_x(self):
        basis = linear_basis()
        f = linear_field()
        h = f.output_slice(1, 2)
        u = solve_poisson(zero_mean_part(h), basis)
        x = np.array([0.37, -0.81])
        z = clock_state(basis, 1.3).phi
        for slot, lo, width, v in (("slow", 0, 1, f.output_slice(0, 1)), ("fast", 1, 1, h)):
            got = directional_derivative(u, v, slot).eval_complex(x, z)
            vv = v.eval_complex(x, z)
            want = np.zeros(1, dtype=complex)
            for j in range(width):
                step = 1e-6
                xp, xm = x.copy(), x.copy()
                xp[lo + j] += step
                xm[lo + j] -= step
                want += (u.eval_complex(xp, z) - u.eval_complex(xm, z)) / (2 * step) * vv[j]
            assert np.max(np.abs(got - want)) < 1e-8

    def test_bad_slot_rejected(self):
        u = cosine_field(0, 1)
        with pytest.raises(ValueError):
            directional_derivative(u, u, "sideways")


class TestUpsilonBlocks:
    def test_probe_free_field_gives_zero_blocks(self):
        f = FourierField(
            1, 1, 2, 1, {(0,): PolyCoeff(2, 2, {(1, 0): [1.0, 0.0], (0, 1): [0.0, -1.0]})}
        )
        blocks = upsilon_blocks(f, make_frequency_basis([(2, 1)]))
        assert all(b.terms == {} for b in blocks)

    def test_x_independent_oscillation_gives_zero_ss(self):
        c = PolyCoeff.constant(2, [0.5, 0.0])
        f = FourierField(1, 1, 2, 1, {(1,): c, (-1,): c.conj()})
        blocks = upsilon_blocks(f, make_frequency_basis([(2, 1)]))
        assert blocks.ss.terms == {}

    def test_linear_model_ff_matches_closed_form(self):
        # Upsilon^ff = s2 sin(2 pi phase_2) / (2 pi w2) * h(x, xi), derived by hand
        basis = linear_basis()
        f = linear_field()
        blocks = upsilon_blocks(f, basis)
        omega2 = math.log(3)
        _, h_cb = linear_callbacks()
        x = np.array([0.6, -0.2])
        for t in (0.0, 0.9, 13.31):
            ph = clock_phases(basis, t)
            z = np.exp(2j * math.pi * ph)
            xi = np.cos(2 * math.pi * ph)
            want = (
                S2
                * math.sin(2 * math.pi * ph[1])
                / (2 * math.pi * omega2)
                * float(h_cb(x[:1], x[1:], xi)[0])
            )
            got = blocks.ff.eval(x, z)[0]
            assert got == pytest.approx(want, abs=1e-13)

    def test_linear_model_ff_mean_structurally_zero(self):
        blocks = upsilon_blocks(linear_field(), linear_basis())
        assert (0, 0) not in blocks.ff.terms
        for x in np.linspace(-1, 1, 5):
            pt = np.array([x, -x])
            assert abs(blocks.ff.mean_value(pt)[0]) == 0.0

    def test_linear_model_ff_long_average_zero(self):
        # time-average oracle over T = 1e5 at a fixed state
        basis = linear_basis()
        blocks = upsilon_blocks(linear_field(), basis)
        x = np.array([0.25, 0.5])
        coeffs = {k: c.value(x) for k, c in blocks.ff.terms.items()}
        t = np.arange(0.0, 1e5, 0.05)
        ph = clock_phases(basis, t)
        z = np.exp(2j * math.pi * ph)
        total = np.zeros(t.size, dtype=complex)
        for k, vec in coeffs.items():
            zk = np.ones(t.size, dtype=complex)
            for i, ki in enumerate(k):
                if ki:
                    zk = zk * z[i] ** ki
            total += vec[0] * zk
        assert abs(total.real.mean()) < 1e-3


class TestGainPoly:
    @settings(max_examples=80, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.floats(-3, 3, allow_nan=False),
            min_size=1,
            max_size=4,
        ),
        st.floats(0.55, 0.95),
        st.floats(0.0, 20.0),
    )
    def test_ddt_matches_fd_oracle(self, terms, rho, t):
        poly = GainPoly(terms)

        def val(tt):
            return poly.value((1 + tt) ** (-rho), rho / (1 + tt))

        step = 1e-5
        num = (val(t + step) - val(t - step)) / (2 * step)
        a, r = (1 + t) ** (-rho), rho / (1 + t)
        sym = poly.ddt(rho).value(a, r)
        assert sym == pytest.approx(num, rel=1e-6, abs=1e-6)

    def test_constant_gains_have_zero_derivative(self):
        poly = GainPoly({(2, 0): 3.0, (0, 0): 1.0})
        assert poly.ddt(0.7).value(0.5, 0.0) == 0.0


class TestPMeanFlow:
    def test_probe_free_fast_dynamics_gives_empty_terms(self):
        terms = {
            (0, 0): PolyCoeff(2, 2, {(1, 0): [1.0, -2.0], (0, 1): [1.0, -1.0]}),
            (1, 0): PolyCoeff(2, 2, {(0, 0): [0.5, 0.0]}),
            (-1, 0): PolyCoeff(2, 2, {(0, 0): [0.5, 0.0]}),
        }
        f = FourierField(1, 1, 2, 2, terms)
        sys = stub_system(field=f)
        pmf = pmeanflow_terms(sys, StubGains())
        assert not pmf.W2.entries and not pmf.W1.entries and not pmf.W0.entries

    def test_linear_model_upsilon_ff_bar_zero_on_grid(self):
        pmf = pmeanflow_terms(stub_system(), StubGains())
        for a in np.linspace(-1, 1, 5):
            for b in np.linspace(-1, 1, 5):
                assert abs(pmf.upsilon_ff_bar(np.array([a, b]))[0]) < 1e-8

    def test_w1_w2_zero_mean_structurally(self):
        pmf = pmeanflow_terms(stub_system(), StubGains())
        assert not pmf.W1.has_zero_mode()
        assert not pmf.W2.has_zero_mode()
        assert pmf.W1.entries  # nonempty: the model has probe-dependent h

    def test_step0_identity_along_path(self):
        # d/dt of the double solution along the flow equals
        # -h_hat + a D^g + beta D^h, checked with finite differences in t
        sys = stub_system()
        gains = StubGains(rho=0.7, beta=0.3)
        pmf = pmeanflow_terms(sys, gains)
        traj = rk4_path(sys, gains, theta0=0.8, lam0=-0.5, T=0.2, dt=1e-3)
        basis = sys.basis
        dg = directional_derivative(pmf.h_hat_hat, pmf.g_field, "slow")
        dh = directional_derivative(pmf.h_hat_hat, pmf.h_field, "fast")
        n = traj.t.size
        series = np.zeros(n)
        for i in range(n):
            x = np.array([traj.theta[i, 0], traj.lam[i, 0]])
            z = clock_state(basis, traj.t[i]).phi
            series[i] = pmf.h_hat_hat.eval(x, z)[0]
        dt = traj.t[1] - traj.t[0]
        for i in range(2, n - 2):
            x = np.array([traj.theta[i, 0], traj.lam[i, 0]])
            z = clock_state(basis, traj.t[i]).phi
            a, _ = gains.gains_at(traj.t[i])
            lhs = (series[i - 2] - 8 * series[i - 1] + 8 * series[i + 1] - series[i + 2]) / (
                12 * dt
            )
            rhs = (
                -pmf.h_hat.eval(x, z)[0]
                + a * dg.eval(x, z)[0]
                + gains.beta * dh.eval(x, z)[0]
            )
            assert lhs == pytest.approx(rhs, abs=5e-8)

    def test_dependent_basis_raises_during_construction(self):
        basis = make_frequency_basis([(2, 1), (4, 1)])
        c = PolyCoeff.constant(2, [0.0, 0.25])
        terms = {
            (0, 0): PolyCoeff(2, 2, {(1, 0): [0.0, -2.0], (0, 1): [0.0, -1.0]}),
            (1, 0): PolyCoeff(2, 2, {(0, 1): [0.0, 0.5]}),
            (-1, 0): PolyCoeff(2, 2, {(0, 1): [0.0, 0.5]}),
            (2, -1): c,
            (-2, 1): c.conj(),
        }
        f = FourierField(1, 1, 2, 2, terms)
        sys = stub_system(field=f, basis=basis)
        with pytest.raises(ZeroDivisor):
            pmeanflow_terms(sys, StubGains())

    def test_frozen_plus_gain_part_equals_total(self):
        sys = stub_system()
        gains = StubGains(rho=0.8, beta=0.4)
        pmf = pmeanflow_terms(sys, gains)
        gf = GainField.wrap(pmf.h_hat_hat, GainPoly.monomial(1, 0, 2.0))
        frozen = gf.ddt(pmf.g_field, pmf.h_field, sys.basis, gains.rho, gains.beta, frozen=True)
        total = gf.ddt(pmf.g_field, pmf.h_field, sys.basis, gains.rho, gains.beta, frozen=False)
        extra = gf.gain_derivative_part(gains.rho)
        x = np.array([0.3, -0.6])
        z = clock_state(sys.basis, 2.2).phi
        a, r = gains.gains_at(2.2)
        lhs = total.eval(x, z, a, r)
        rhs = frozen.eval(x, z, a, r) + extra.eval(x, z, a, r)
        assert np.max(np.abs(lhs - rhs)) < 1e-14
