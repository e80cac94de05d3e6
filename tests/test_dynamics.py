"""Integrator and gain-schedule checks.

Independent oracles: adaptive quadrature (scipy) for a decoupled slow
variable, exp/closed-form solutions for scalar linear fast dynamics, the
underdamped step-response formula for the filter realization, and
half-step self-consistency for the coupled linear model.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qsakit.dynamics import (
    GainSchedule,
    TwoTimescaleSystem,
    integrate,
    integrate_frozen_fast,
    step_bound,
)
from qsakit.errors import ConfigError, NonFinite
from qsakit.filters import SecondOrderFilter
from qsakit.fourier import FourierField, PolyCoeff
from qsakit.lyapunov import lyapunov_exponent
from qsakit.meanflow import mean_field_g0
from qsakit.probing import clock_phases, make_frequency_basis


def one_pair_basis(phase=0.0):
    return make_frequency_basis([(2, 1)], phases=[phase])


def linear_basis():
    return make_frequency_basis([(2, 1), (3, 1)], phases=[0.75, 0.75])


def linear_callbacks(alpha=2.0, s1=1.0, s2=1.0, b1=0.0, b2=0.0):
    def g(theta, lam, xi):
        return np.atleast_1d(alpha * theta[0] + alpha * lam[0] + s1 * xi[0] * (theta[0] + 1.0) + b1)

    def h(theta, lam, xi):
        return np.atleast_1d(-2.0 * theta[0] - lam[0] + s2 * xi[1] * (lam[0] + 1.0) + b2)

    return g, h


def linear_system():
    g, h = linear_callbacks()
    return TwoTimescaleSystem(1, 1, g, h, linear_basis())


class TestGainSchedule:
    def test_reference_values(self):
        sched = GainSchedule(rho=0.7, beta=0.1)
        assert sched.gains_at(0.0) == (1.0, 0.7)
        a, r = sched.gains_at(1.0)
        assert a == pytest.approx(2.0**-0.7, abs=1e-15)
        assert r == pytest.approx(0.35, abs=1e-15)
        assert sched.beta == 0.1

    def test_reference_values_rho_09(self):
        sched = GainSchedule(rho=0.9, beta=1.0)
        a, r = sched.gains_at(9.0)
        assert a == pytest.approx(10.0**-0.9, abs=1e-15)
        assert a == pytest.approx(0.125892541179417, abs=1e-12)
        assert r == pytest.approx(0.09, abs=1e-15)

    def test_positive_decreasing_from_one(self):
        sched = GainSchedule(rho=0.6, beta=0.5)
        ts = np.linspace(0.0, 100.0, 400)
        a = sched.slow_gain_array(ts)
        assert a[0] == 1.0
        assert np.all(a > 0)
        assert np.all(np.diff(a) < 0)

    @given(
        rho=st.floats(0.51, 0.99),
        t=st.floats(0.0, 1e4),
    )
    @settings(max_examples=60, deadline=None)
    def test_rate_identity(self, rho, t):
        # da/dt = -r_t a_t, checked against a central difference
        sched = GainSchedule(rho=rho, beta=1.0)
        delta = 1e-6 * (1.0 + t)
        a_plus, _ = sched.gains_at(t + delta)
        a_minus, _ = sched.gains_at(t - delta) if t - delta >= 0 else sched.gains_at(t)
        if t - delta < 0:
            return  # one-sided region: covered by other t values
        fd = (a_plus - a_minus) / (2 * delta)
        a, r = sched.gains_at(t)
        assert fd == pytest.approx(-r * a, rel=1e-8, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            GainSchedule(rho=0.5, beta=0.1)
        with pytest.raises(ConfigError):
            GainSchedule(rho=1.0, beta=0.1)
        with pytest.raises(ConfigError):
            GainSchedule(rho=0.7, beta=0.0)


class TestSystemConstruction:
    def test_dimension_validation(self):
        g, h = linear_callbacks()
        with pytest.raises(ConfigError):
            TwoTimescaleSystem(0, 1, g, h, linear_basis())

    def test_fourier_agreement_accepted(self):
        basis = linear_basis()
        g, h = linear_callbacks()
        field = _linear_field()
        sys_ok = TwoTimescaleSystem(1, 1, g, h, basis, fourier=field)
        assert sys_ok.fourier is field

    def test_fourier_disagreement_rejected(self):
        basis = linear_basis()
        g, h = linear_callbacks(alpha=2.5)  # field says alpha = 2
        with pytest.raises(ConfigError):
            TwoTimescaleSystem(1, 1, g, h, basis, fourier=_linear_field())

    def test_fourier_dim_mismatch(self):
        basis = linear_basis()
        g, h = linear_callbacks()
        field = _linear_field().output_slice(0, 1)
        with pytest.raises(ConfigError):
            TwoTimescaleSystem(1, 1, g, h, basis, fourier=field)


def _linear_field(alpha=2.0, s1=1.0, s2=1.0, b1=0.0, b2=0.0):
    n, p, K = 2, 2, 2
    mean = PolyCoeff(
        n,
        p,
        {
            (1, 0): np.array([alpha, -2.0]),
            (0, 1): np.array([alpha, -1.0]),
            (0, 0): np.array([b1, b2]),
        },
    )
    xi1 = PolyCoeff(n, p, {(0, 0): np.array([s1 / 2, 0.0]), (1, 0): np.array([s1 / 2, 0.0])})
    xi2 = PolyCoeff(n, p, {(0, 0): np.array([0.0, s2 / 2]), (0, 1): np.array([0.0, s2 / 2])})
    return FourierField(
        1,
        1,
        p,
        K,
        {
            (0, 0): mean,
            (1, 0): xi1,
            (-1, 0): xi1.conj(),
            (0, 1): xi2,
            (0, -1): xi2.conj(),
        },
    )


class TestStepPolicy:
    def test_bound_formula(self):
        basis = linear_basis()
        assert step_bound(basis, 0.1) == pytest.approx(1.0 / (40.0 * math.log(3.0)))
        assert step_bound(basis, 20.0) == pytest.approx(0.05 / 20.0)
        assert step_bound(make_frequency_basis([(2, 1)]), 0.01) == pytest.approx(
            min(1.0 / (40.0 * math.log(2.0)), 0.05)
        )

    def test_oversize_step_rejected(self):
        sys_ = linear_system()
        sched = GainSchedule(rho=0.7, beta=0.1)
        with pytest.raises(ConfigError):
            integrate(sys_, sched, (np.zeros(1), np.zeros(1)), 1.0, step=1.0)

    def test_grid_lands_on_horizon(self):
        sys_ = linear_system()
        sched = GainSchedule(rho=0.7, beta=0.1)
        traj = integrate(sys_, sched, (np.zeros(1), np.zeros(1)), 1.0)
        assert traj.t[-1] == pytest.approx(1.0, abs=1e-14)
        steps = np.diff(traj.t)
        assert np.all(steps > 0)
        assert np.allclose(steps, steps[0], rtol=1e-12, atol=0)


class TestIntegrateBasics:
    def test_zero_fields_hold_state(self):
        basis = one_pair_basis()
        sys_ = TwoTimescaleSystem(
            1, 1, lambda t, l, x: np.zeros(1), lambda t, l, x: np.zeros(1), basis
        )
        sched = GainSchedule(rho=0.7, beta=0.5)
        traj = integrate(sys_, sched, (np.array([1.5]), np.array([-0.5])), 5.0)
        assert np.all(traj.theta == 1.5)
        assert np.all(traj.lam == -0.5)
        assert traj.a[0] == 1.0
        assert np.all(traj.beta == 0.5)

    def test_phases_match_recomputation(self):
        sys_ = linear_system()
        sched = GainSchedule(rho=0.7, beta=0.1)
        traj = integrate(sys_, sched, (np.ones(1), np.ones(1)), 3.0, sample_stride=7)
        expected = clock_phases(sys_.basis, traj.t)
        assert traj.phases.tobytes() == expected.tobytes()

    def test_sample_stride_and_final(self):
        sys_ = linear_system()
        sched = GainSchedule(rho=0.7, beta=0.1)
        traj = integrate(sys_, sched, (np.ones(1), np.ones(1)), 1.0, sample_stride=6)
        h = traj.t[1] - traj.t[0]
        n_steps = round(traj.t[-1] / (h / 6))
        # interior samples uniformly 6 steps apart, final time always present
        assert traj.t[-1] == pytest.approx(1.0, abs=1e-14)
        inner = np.diff(traj.t[:-1])
        assert np.allclose(inner, inner[0], rtol=1e-12, atol=0)
        assert n_steps % 6 != 0  # exercise the partial tail case

    def test_determinism_bitwise(self):
        sys_ = linear_system()
        sched = GainSchedule(rho=0.7, beta=0.1)
        runs = [
            integrate(sys_, sched, (np.ones(1), np.ones(1)), 10.0) for _ in range(2)
        ]
        assert runs[0].theta.tobytes() == runs[1].theta.tobytes()
        assert runs[0].lam.tobytes() == runs[1].lam.tobytes()
        assert runs[0].phases.tobytes() == runs[1].phases.tobytes()

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_finite_escape_raises(self):
        basis = one_pair_basis()
        sys_ = TwoTimescaleSystem(
            1, 1, lambda t, l, x: np.atleast_1d(t[0] ** 2), lambda t, l, x: np.zeros(1), basis
        )
        sched = GainSchedule(rho=0.7, beta=0.1)
        with pytest.raises(NonFinite) as err:
            integrate(sys_, sched, (np.array([2.0]), np.zeros(1)), 10.0)
        # theta = 1/(1/2 - A_t) with A_t = ((1+t)^0.3 - 1)/0.3 escapes where
        # A_t = 1/2; RK4 lags the singularity, so it is not flagged earlier
        t_star = 1.15 ** (1.0 / 0.3) - 1.0
        assert t_star < err.value.time <= 10.0

    def test_x0_shape_validation(self):
        sys_ = linear_system()
        sched = GainSchedule(rho=0.7, beta=0.1)
        with pytest.raises(ConfigError):
            integrate(sys_, sched, (np.ones(2), np.ones(1)), 1.0)


class TestDecoupledQuadratureOracle:
    """Slow variable driven only by the probe: dTheta = a_t xi_t."""

    def _system(self):
        basis = one_pair_basis(phase=0.0)
        return TwoTimescaleSystem(
            1,
            1,
            lambda t, l, x: np.atleast_1d(x[0]),
            lambda t, l, x: np.atleast_1d(-l[0]),
            basis,
        )

    def _oracle(self, rho, horizon):
        w = math.log(2.0)
        val, err = quad(
            lambda t: (1.0 + t) ** -rho * math.cos(2 * math.pi * w * t),
            0.0,
            horizon,
            epsabs=1e-13,
            epsrel=1e-13,
            limit=500,
        )
        assert err < 1e-11
        return val

    def test_matches_adaptive_quadrature(self):
        sys_ = self._system()
        sched = GainSchedule(rho=0.7, beta=1.0)
        traj = integrate(sys_, sched, (np.zeros(1), np.ones(1)), 10.0, step=1e-3)
        assert abs(traj.theta[-1, 0] - self._oracle(0.7, 10.0)) < 1e-8
        # fast block decays like exp(-beta t) independently
        assert traj.lam[-1, 0] == pytest.approx(math.exp(-10.0), abs=1e-8)

    def test_fourth_order_convergence(self):
        sys_ = self._system()
        sched = GainSchedule(rho=0.7, beta=1.0)
        target = self._oracle(0.7, 10.0)
        errs = []
        for h in (2e-3, 1e-3):
            traj = integrate(sys_, sched, (np.zeros(1), np.ones(1)), 10.0, step=h)
            errs.append(abs(traj.theta[-1, 0] - target))
        assert errs[0] / errs[1] >= 12.0


class TestCoupledLinearModel:
    def test_half_step_agreement(self):
        sys_ = linear_system()
        sched = GainSchedule(rho=0.7, beta=0.1)
        x0 = (np.ones(1), np.ones(1))
        h = step_bound(sys_.basis, sched.beta)
        full = integrate(sys_, sched, x0, 50.0, step=h)
        halved = integrate(sys_, sched, x0, 50.0, step=h / 2, sample_stride=2)
        quartered = integrate(sys_, sched, x0, 50.0, step=h / 4, sample_stride=4)
        d1 = abs(full.lam[-1, 0] - halved.lam[-1, 0])
        d2 = abs(halved.lam[-1, 0] - quartered.lam[-1, 0])
        assert abs(full.theta[-1, 0] - halved.theta[-1, 0]) < 1e-4
        assert d1 < 1e-3
        # successive refinements shrink at fourth order on the coupled pair
        assert d1 / d2 >= 10.0

    def test_long_horizon_contracts(self):
        sys_ = linear_system()
        sched = GainSchedule(rho=0.7, beta=0.1)
        traj = integrate(
            sys_, sched, (np.ones(1), np.ones(1)), 2000.0, sample_stride=200
        )
        assert np.all(np.isfinite(traj.theta))
        assert abs(traj.theta[-1, 0]) < 0.1


def _step_response(filt, t):
    # closed-form underdamped unit step response of the realization
    g, z = filt.gamma, filt.zeta
    wd = g * math.sqrt(1.0 - z**2)
    return 1.0 - np.exp(-z * g * t) * (
        np.cos(wd * t) + z / math.sqrt(1.0 - z**2) * np.sin(wd * t)
    )


class TestFilteredIntegration:
    def _held_input_system(self):
        basis = one_pair_basis()
        return TwoTimescaleSystem(
            1, 1, lambda t, l, x: np.zeros(1), lambda t, l, x: np.zeros(1), basis
        )

    def test_step_response_matches_closed_form(self):
        sys_ = self._held_input_system()
        sched = GainSchedule(rho=0.7, beta=1.0)
        filt = SecondOrderFilter(beta=sched.beta, zeta=0.7, eta=1.0)
        t_settle = 10.0 / (filt.zeta * filt.gamma)
        traj = integrate(
            sys_,
            sched,
            (np.zeros(1), np.ones(1)),
            t_settle,
            filt=filt,
            filter_init=(np.zeros(1), np.zeros(1)),
        )
        expected = _step_response(filt, traj.t)
        assert np.max(np.abs(traj.lam_filtered[:, 0] - expected)) < 1e-7
        assert abs(traj.lam_filtered[-1, 0] - 1.0) < 1e-4

    def test_dc_consistency(self):
        sys_ = self._held_input_system()
        sched = GainSchedule(rho=0.7, beta=1.0)
        filt = SecondOrderFilter(beta=sched.beta)
        traj = integrate(
            sys_,
            sched,
            (np.zeros(1), np.full(1, 0.8)),
            60.0,
            filt=filt,
            filter_init=(np.zeros(1), np.zeros(1)),
        )
        assert abs(traj.lam_filtered[-1, 0] - 0.8) < 1e-6
        assert abs(traj.dlam_filtered[-1, 0]) < 1e-6

    def test_default_init_tracks_exactly(self):
        # lamF(0) = lambda0 with lambda constant: filter output never moves
        sys_ = self._held_input_system()
        sched = GainSchedule(rho=0.7, beta=1.0)
        filt = SecondOrderFilter(beta=sched.beta)
        traj = integrate(sys_, sched, (np.zeros(1), np.ones(1)), 5.0, filt=filt)
        assert np.max(np.abs(traj.lam_filtered - 1.0)) < 1e-12

    def test_slow_field_consumes_filtered_value(self):
        basis = one_pair_basis()
        sys_ = TwoTimescaleSystem(
            1, 1, lambda t, l, x: np.atleast_1d(l[0]), lambda t, l, x: np.zeros(1), basis
        )
        sched = GainSchedule(rho=0.7, beta=1.0)
        filt = SecondOrderFilter(beta=sched.beta)
        filtered = integrate(
            sys_,
            sched,
            (np.zeros(1), np.ones(1)),
            20.0,
            filt=filt,
            filter_init=(np.zeros(1), np.zeros(1)),
        )
        direct = integrate(sys_, sched, (np.zeros(1), np.ones(1)), 20.0)
        # the filter observes Lambda: the slow field reads the raw value,
        # so the coupled pair is untouched by attaching it
        # theta_T = int_0^T a_t dt = ((1+T)^0.3 - 1)/0.3; RK4 on a quadrature
        # is Simpson's rule, here in error by h^4/2880 |a'''(0)| = 1.9e-9
        assert direct.theta[-1, 0] == pytest.approx((21.0**0.3 - 1.0) / 0.3, abs=4e-9)
        assert np.array_equal(filtered.theta, direct.theta)
        assert np.array_equal(filtered.lam, direct.lam)
        # oracle: the filter output is the closed-form step response
        expected = _step_response(filt, filtered.t)
        assert np.max(np.abs(filtered.lam_filtered[:, 0] - expected)) < 1e-7


class TestFrozenFast:
    def test_scalar_decay_oracle(self):
        basis = one_pair_basis()
        sys_ = TwoTimescaleSystem(
            1, 1, lambda t, l, x: np.zeros(1), lambda t, l, x: np.atleast_1d(-l[0]), basis
        )
        traj = integrate_frozen_fast(sys_, np.zeros(1), np.ones(1), 1.0, 10.0)
        expected = np.exp(-traj.t)
        assert np.max(np.abs(traj.lam[:, 0] - expected)) < 1e-8
        assert np.all(traj.theta == 0.0)
        assert np.all(traj.a == 0.0)

    def test_first_order_lag_reaches_dc(self):
        basis = one_pair_basis()
        c = 0.7
        sys_ = TwoTimescaleSystem(
            1,
            1,
            lambda t, l, x: np.zeros(1),
            lambda t, l, x: np.atleast_1d(c - l[0]),
            basis,
        )
        traj = integrate_frozen_fast(sys_, np.zeros(1), np.zeros(1), 0.5, 80.0)
        assert abs(traj.lam[-1, 0] - c) < 1e-6

    def test_linear_model_tracks_fast_equilibrium(self):
        g, h = linear_callbacks()
        sys_ = TwoTimescaleSystem(1, 1, g, h, linear_basis())
        beta = 0.1
        traj = integrate_frozen_fast(sys_, np.ones(1), np.zeros(1), beta, 300.0)
        tail = traj.lam[traj.t > 150.0, 0]
        # settles near lambda*(1) = -2 with probe-induced oscillation
        assert abs(tail.mean() + 2.0) < 0.1
        osc = tail.max() - tail.min()
        assert 0.0 < osc < 1.0
        # oscillation amplitude scales like beta
        traj2 = integrate_frozen_fast(sys_, np.ones(1), np.zeros(1), beta / 2, 600.0)
        tail2 = traj2.lam[traj2.t > 300.0, 0]
        osc2 = tail2.max() - tail2.min()
        assert 1.4 < osc / osc2 < 2.6

    def test_beta_validation(self):
        sys_ = linear_system()
        with pytest.raises(ConfigError):
            integrate_frozen_fast(sys_, np.zeros(1), np.zeros(1), -1.0, 5.0)


class TestCallbackLengths:
    """Each callback's output must fill its block of the stacked state."""

    def _run(self, kernel, dims, g=None, h=None, g_probe=None):
        ds, df = dims
        zeros = lambda n: (lambda t, l, x: np.zeros(n))  # noqa: E731
        sys_ = TwoTimescaleSystem(
            ds, df, g or zeros(ds), h or zeros(df), one_pair_basis(), g_probe=g_probe
        )
        theta, lam = np.full(ds, 0.1), np.full(df, 0.2)
        if kernel == "coupled":
            sched = GainSchedule(rho=0.7, beta=0.5)
            return integrate(sys_, sched, (theta, lam), 1.0)
        return integrate_frozen_fast(sys_, theta, lam, 0.5, 1.0)

    @pytest.mark.parametrize(
        "dims, kw, name, want, got",
        [
            ((2, 1), dict(g=lambda t, l, x: np.ones(1)), "g", 2, 1),
            ((1, 1), dict(g=lambda t, l, x: np.ones(2)), "g", 1, 2),
            ((1, 1), dict(g_probe=lambda t, l, x: np.ones(3)), "g_probe", 1, 3),
            ((1, 1), dict(h=lambda t, l, x: np.ones(2)), "h", 1, 2),
            ((1, 2), dict(h=lambda t, l, x: np.ones(1)), "h", 2, 1),
        ],
        ids=["g-short", "g-long", "g_probe", "h-long", "h-short"],
    )
    def test_wrong_length_coupled(self, dims, kw, name, want, got):
        with pytest.raises(ConfigError, match=rf"^{name} returned {got} value\(s\), expected {want}$"):
            self._run("coupled", dims, **kw)

    @pytest.mark.parametrize(
        "dims, want, got",
        [((1, 1), 1, 2), ((1, 2), 2, 1), ((2, 3), 3, 0)],
        ids=["long", "short", "empty"],
    )
    def test_wrong_length_frozen_fast(self, dims, want, got):
        h = lambda t, l, x: np.ones(got)  # noqa: E731
        with pytest.raises(ConfigError, match=rf"^h returned {got} value\(s\), expected {want}$"):
            self._run("frozen", dims, h=h)

    @pytest.mark.parametrize("kernel", ["coupled", "frozen"])
    def test_scalar_fills_a_one_element_block(self, kernel):
        def as_array(t, l, x):
            return np.atleast_1d(0.3 - l[0] + x[0] * t[0])

        def as_float(t, l, x):
            return float(0.3 - l[0] + x[0] * t[0])

        def as_numpy_scalar(t, l, x):
            return 0.3 - l[0] + x[0] * t[0]

        want = self._run(kernel, (1, 1), g=as_array, h=as_array)
        for cb in (as_float, as_numpy_scalar):
            got = self._run(kernel, (1, 1), g=cb, h=cb)
            assert np.array_equal(got.theta, want.theta)
            assert np.array_equal(got.lam, want.lam)

    @pytest.mark.parametrize("kernel", ["coupled", "frozen"])
    def test_lists_fill_a_block(self, kernel):
        # lists of Python floats skip the array round trip; lists holding
        # other numbers take it and must give the same run
        def as_array(t, l, x):
            return np.array([0.3 - l[1] + x[0] * t[0], -0.5 * l[0]])

        def as_floats(t, l, x):
            return as_array(t, l, x).tolist()

        def as_mixed(t, l, x):
            return [np.float64(v) for v in as_floats(t, l, x)]

        def ints_in_h(t, l, x):
            return [1, -2]

        want = self._run(kernel, (1, 2), h=as_array)
        for cb in (as_floats, as_mixed):
            got = self._run(kernel, (1, 2), h=cb)
            assert np.array_equal(got.lam, want.lam)
        assert np.array_equal(
            self._run(kernel, (1, 2), h=ints_in_h).lam,
            self._run(kernel, (1, 2), h=lambda t, l, x: np.array([1.0, -2.0])).lam,
        )
        with pytest.raises(ConfigError, match=r"^h returned 1 value\(s\), expected 2$"):
            self._run(kernel, (1, 2), h=lambda t, l, x: [0.5])


class TestStageLengths:
    """A stage field's parts must fill their blocks: each run kind checks
    them at its first stage (the averaged slow field at its first recorded
    sample)."""

    @staticmethod
    def system(slow=1, fast=1):
        def stage(theta, lam, xi, a, b):
            return (
                None if a is None else [a * (0.1 - theta[0])] * slow,
                None if b is None else [b * (xi[0] - lam[0])] * fast,
            )

        zeros = lambda n: (lambda t, l, x: np.zeros(n))  # noqa: E731
        return TwoTimescaleSystem(1, 1, zeros(1), zeros(1), one_pair_basis(), stage=stage)

    RUNS = {
        "coupled": lambda s: integrate(s, GainSchedule(rho=0.7, beta=0.5), ([0.1], [0.2]), 1.0),
        "frozen": lambda s: integrate_frozen_fast(s, [0.1], [0.2], 0.5, 1.0),
        "lyapunov": lambda s: lyapunov_exponent(s, [0.1], 0.5, [0.2], 10.0),
        "g0": lambda s: mean_field_g0(s, [0.1], 0.5, tol=1.0, burn_in=0.5, window=1.0),
    }

    @pytest.mark.parametrize(
        "kind, lengths, part, got",
        [
            # the padded slow part keeps the stacked length at D = 2
            ("coupled", dict(slow=2, fast=0), "slow", 2),
            ("coupled", dict(fast=0), "fast", 0),
            ("coupled", dict(slow=0), "slow", 0),
            ("frozen", dict(fast=2), "fast", 2),
            ("frozen", dict(fast=0), "fast", 0),
            ("lyapunov", dict(fast=2), "fast", 2),
            ("g0", dict(slow=3), "slow", 3),
        ],
    )
    def test_wrong_length_is_a_config_error(self, kind, lengths, part, got):
        with pytest.raises(ConfigError, match=rf"^stage returned {got} {part} value\(s\), expected 1$"):
            self.RUNS[kind](self.system(**lengths))

    @pytest.mark.parametrize("kind", sorted(RUNS))
    def test_right_lengths_run(self, kind):
        self.RUNS[kind](self.system())


class TestArrayAdapter:
    """Array callbacks reach the kernel through the one adapter of the
    stage field: they see float64 arrays, and the runs are those of the
    same system written as a stage field on Python floats."""

    @staticmethod
    def callbacks(seen=None):
        def watched(name, fn):
            def cb(theta, lam, xi):
                if seen is not None:
                    seen.add((name, *((type(v), v.dtype, v.shape) for v in (theta, lam, xi))))
                return fn(theta, lam, xi)

            return cb

        g = watched("g", lambda t, l, x: np.array([0.3 - l[1] + x[0] * t[0]]))
        g_probe = watched("g_probe", lambda t, l, x: np.array([0.5 * x[0] * l[0]]))
        h = watched(
            "h", lambda t, l, x: np.array([-l[0] + x[0] * t[0], -0.5 * l[1] + 0.2 * l[0]])
        )
        return g, h, g_probe

    @staticmethod
    def stage(theta, lam, xi, a, b):
        (t0,), (l0, l1), x0 = theta, lam, xi[0]
        slow = None if a is None else [a * ((0.3 - l1 + x0 * t0) + a * (0.5 * x0 * l0))]
        return slow, None if b is None else [b * (-l0 + x0 * t0), b * (-0.5 * l1 + 0.2 * l0)]

    def system(self, seen=None, fused=False):
        g, h, g_probe = self.callbacks(seen)
        stage = self.stage if fused else None
        return TwoTimescaleSystem(1, 2, g, h, one_pair_basis(), g_probe=g_probe, stage=stage)

    @staticmethod
    def runs(sys_):
        theta, lam = np.array([0.4]), np.array([0.2, -0.1])
        sched = GainSchedule(rho=0.7, beta=0.5)
        coupled = integrate(sys_, sched, (theta, lam), 5.0, filt=SecondOrderFilter(0.5))
        frozen = integrate_frozen_fast(sys_, theta, lam, 0.5, 5.0)
        g0 = mean_field_g0(sys_, theta, 0.5, tol=1.0, burn_in=2.0, window=4.0)
        lyap = lyapunov_exponent(sys_, theta, 0.5, lam, 40.0)
        return {
            "coupled": [getattr(coupled, f).tobytes() for f in ("theta", "lam", "lam_filtered")],
            "frozen": frozen.lam.tobytes(),
            "g0": (g0.value.tobytes(), g0.osc_amplitude),
            "lyapunov": (lyap.exponent, lyap.tail_exponent),
        }

    def test_callbacks_receive_float64_arrays(self):
        seen = set()
        self.runs(self.system(seen))
        f8 = np.dtype(np.float64)
        want = {
            (name, (np.ndarray, f8, (1,)), (np.ndarray, f8, (2,)), (np.ndarray, f8, (1,)))
            for name in ("g", "g_probe", "h")
        }
        assert seen == want

    def test_same_runs_as_the_stage_field(self):
        assert self.runs(self.system()) == self.runs(self.system(fused=True))
        assert self.system(fused=True).analysis_floats([0.4], [0.2, -0.1], [0.3]) == (
            self.system().analysis_floats([0.4], [0.2, -0.1], [0.3])
        )

    def test_reassigned_callback_replaces_the_stage_field(self):
        sys_ = self.system(fused=True)
        calls = []
        h = sys_.h
        sys_.h = lambda t, l, x: calls.append(1) or h(t, l, x)
        run = integrate_frozen_fast(sys_, np.array([0.4]), np.array([0.2, -0.1]), 0.5, 1.0)
        assert len(calls) == 4 * (run.n_samples - 1)

    @pytest.mark.parametrize(
        "kw, name, got",
        [
            (dict(g=lambda t, l, x: np.ones(2)), "g", 2),
            (dict(g_probe=lambda t, l, x: np.ones(3)), "g_probe", 3),
        ],
    )
    def test_wrong_length_in_the_averaged_slow_field(self, kw, name, got):
        g, h, g_probe = self.callbacks()
        cbs = dict(dict(g=g, g_probe=g_probe), **kw)
        sys_ = TwoTimescaleSystem(1, 2, cbs["g"], h, one_pair_basis(), g_probe=cbs["g_probe"])
        with pytest.raises(ConfigError, match=rf"^{name} returned {got} value\(s\), expected 1$"):
            mean_field_g0(sys_, np.array([0.4]), 0.5, tol=1.0, burn_in=0.5, window=1.0)


class TestTrajectoryCsv:
    def test_header_and_roundtrip(self):
        sys_ = linear_system()
        sched = GainSchedule(rho=0.7, beta=0.1)
        traj = integrate(sys_, sched, (np.ones(1), np.ones(1)), 2.0, sample_stride=5)
        buf = io.StringIO()
        traj.to_csv(buf)
        text = buf.getvalue()
        lines = text.strip().split("\n")
        assert lines[0] == "t,a_t,beta,theta_1,lambda_1,phase_1,phase_2"
        data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
        assert data.shape == (traj.n_samples, 7)
        # 17 significant digits round-trip float64 exactly
        assert np.array_equal(data[:, 0], traj.t)
        assert np.array_equal(data[:, 3], traj.theta[:, 0])
        assert np.array_equal(data[:, 4], traj.lam[:, 0])
        assert np.array_equal(data[:, 5:7].T, traj.phases)

    def test_filtered_column_block(self):
        sys_ = linear_system()
        sched = GainSchedule(rho=0.7, beta=0.1)
        filt = SecondOrderFilter(beta=sched.beta)
        traj = integrate(
            sys_, sched, (np.ones(1), np.ones(1)), 2.0, filt=filt, sample_stride=10
        )
        buf = io.StringIO()
        traj.to_csv(buf)
        header = buf.getvalue().split("\n", 1)[0]
        assert header == "t,a_t,beta,theta_1,lambda_1,lambdaF_1,phase_1,phase_2"

    def test_csv_bytes_deterministic(self):
        sys_ = linear_system()
        sched = GainSchedule(rho=0.7, beta=0.1)
        outs = []
        for _ in range(2):
            traj = integrate(sys_, sched, (np.ones(1), np.ones(1)), 2.0)
            buf = io.StringIO()
            traj.to_csv(buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]
