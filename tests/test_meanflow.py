"""Averaging-layer checks.

Oracles: closed-form equilibria of linear fast dynamics (lambda* = 2theta
or -2theta), exact probe averages of trig polynomials (zero for pure
tones), and a long-horizon coupled trajectory tail as an independent
estimate of the root theta^beta.
"""

import io
import math

import numpy as np
import pytest

from qsakit.dynamics import GainSchedule, TwoTimescaleSystem, integrate
from qsakit.errors import (
    ConfigError,
    NonConvergent,
    SingularJacobian,
)
from qsakit.meanflow import (
    fast_equilibrium,
    find_root_g0,
    mean_field_g0,
    stationary_grid,
    write_grid_csv,
)
from qsakit.probing import make_frequency_basis


def linear_basis():
    return make_frequency_basis([(2, 1), (3, 1)], phases=[0.75, 0.75])


def linear_callbacks(alpha=2.0, s1=1.0, s2=1.0):
    def g(theta, lam, xi):
        return np.atleast_1d(
            alpha * theta[0] + alpha * lam[0] + s1 * xi[0] * (theta[0] + 1.0)
        )

    def h(theta, lam, xi):
        return np.atleast_1d(-2.0 * theta[0] - lam[0] + s2 * xi[1] * (lam[0] + 1.0))

    return g, h


def linear_system(**extras):
    g, h = linear_callbacks()
    return TwoTimescaleSystem(1, 1, g, h, linear_basis(), **extras)


def plain_relax_system(target_gain=2.0):
    """Probe-free fast relaxation h = -(lam - target_gain*theta)."""

    def h(theta, lam, xi):
        return np.atleast_1d(target_gain * theta[0] - lam[0])

    return TwoTimescaleSystem(
        1, 1, lambda t, l, x: np.zeros(1), h, make_frequency_basis([(2, 1)])
    )


class TestFastEquilibrium:
    def test_probe_free_linear_target(self):
        sys_ = plain_relax_system()
        est = fast_equilibrium(sys_, np.ones(1), 0.5, tol=1e-6)
        assert est.value[0] == pytest.approx(2.0, abs=1e-6)
        assert est.osc_amplitude < 1e-6
        assert est.horizon > 0

    def test_linear_model_equilibrium(self):
        est = fast_equilibrium(linear_system(), np.ones(1), 0.1)
        assert est.value[0] == pytest.approx(-2.0, abs=0.01)
        # ripple is the quasi-static probe response, scale beta/(2 pi omega2)
        predicted = 0.1 / (2 * math.pi * math.log(3.0))
        assert est.osc_amplitude == pytest.approx(predicted, rel=0.5)

    def test_nonconvergent_short_windows(self):
        with pytest.raises(NonConvergent):
            fast_equilibrium(
                linear_system(), np.ones(1), 0.02, tol=1e-8, burn_in=1.0, window=5.0
            )

    def test_lipschitz_of_equilibrium_map(self):
        sys_ = linear_system()
        kw = dict(burn_in=100.0, window=80.0, tol=0.01)
        coarse = np.array([-1.0, 0.0, 1.0])
        fine = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])

        def lip(thetas):
            vals = [
                fast_equilibrium(sys_, np.array([t]), 0.1, **kw).value[0]
                for t in thetas
            ]
            quot = [
                abs(vals[i] - vals[j]) / abs(thetas[i] - thetas[j])
                for i in range(len(thetas))
                for j in range(i)
            ]
            return max(quot)

        l_coarse, l_fine = lip(coarse), lip(fine)
        assert l_coarse == pytest.approx(2.0, abs=0.01)
        # empirical constant stable under grid refinement
        assert abs(l_coarse - l_fine) < 0.01


class TestMeanFieldG0:
    def test_state_independent_field_exact(self):
        c = 0.4

        def g(theta, lam, xi):
            return np.atleast_1d(-(theta[0] - c))

        sys_ = TwoTimescaleSystem(
            1,
            1,
            g,
            lambda t, l, x: np.atleast_1d(-l[0]),
            make_frequency_basis([(2, 1)]),
        )
        est = mean_field_g0(sys_, np.array([1.5]), 0.5, tol=1e-9)
        assert est.value[0] == pytest.approx(-(1.5 - c), abs=1e-12)

    def test_linear_model_value(self):
        est = mean_field_g0(linear_system(), np.ones(1), 0.05)
        assert est.value[0] == pytest.approx(-2.0, abs=0.1)

    def test_agrees_with_frozen_state_average(self):
        # two averaging routes (joint measure vs frozen state) agree within
        # the reported ripple; the frozen-state value is exact here
        sys_ = linear_system()
        est = mean_field_g0(sys_, np.ones(1), 0.05)
        frozen_value = -2.0  # alpha*(theta + lambda*) with the probe averaged out
        assert abs(est.value[0] - frozen_value) <= est.osc_amplitude

    @pytest.mark.parametrize("kw", [{}, dict(burn_in=5.0, window=10.0)])
    @pytest.mark.parametrize("beta", [0.0, -0.5])
    def test_nonpositive_beta_is_a_config_error(self, beta, kw):
        # beta = 0 with the default burn-in used to divide by zero
        for op in (fast_equilibrium, mean_field_g0):
            with pytest.raises(ConfigError, match="beta must be positive"):
                op(linear_system(), np.ones(1), beta, **kw)


class TestFindRoot:
    def test_state_independent_field(self):
        c = 0.4

        def g(theta, lam, xi):
            return np.atleast_1d(-(theta[0] - c))

        sys_ = TwoTimescaleSystem(
            1,
            1,
            g,
            lambda t, l, x: np.atleast_1d(-l[0]),
            make_frequency_basis([(2, 1)]),
        )
        root = find_root_g0(
            sys_, np.zeros(1), 0.5, tol=1e-6, burn_in=2.0, window=5.0
        )
        assert root[0] == pytest.approx(c, abs=1e-5)

    def test_linear_model_root_small(self):
        root = find_root_g0(linear_system(), np.array([0.5]), 0.05)
        assert abs(root[0]) <= 0.05

    def test_root_against_trajectory_tail(self):
        # independent estimate: tail average of the full coupled run
        sys_ = linear_system()
        beta = 0.05
        root = find_root_g0(sys_, np.array([0.5]), beta)
        sched = GainSchedule(rho=0.7, beta=beta)
        traj = integrate(
            sys_, sched, (np.ones(1), np.ones(1)), 3000.0, sample_stride=50
        )
        tail = traj.theta[traj.t > 1500.0, 0].mean()
        assert abs(tail - root[0]) < 0.05

    def test_singular_jacobian(self):
        def g(theta, lam, xi):
            v = theta[0] - theta[1]
            return np.array([v, v])

        sys_ = TwoTimescaleSystem(
            2,
            1,
            g,
            lambda t, l, x: np.atleast_1d(-l[0]),
            make_frequency_basis([(2, 1)]),
        )
        with pytest.raises(SingularJacobian):
            find_root_g0(
                sys_, np.array([1.0, 0.0]), 0.5, burn_in=1.0, window=2.0
            )

    def test_nonconvergent_rootless_field(self):
        def g(theta, lam, xi):
            return np.atleast_1d(1.0 + 0.1 * math.tanh(theta[0]))

        sys_ = TwoTimescaleSystem(
            1,
            1,
            g,
            lambda t, l, x: np.atleast_1d(-l[0]),
            make_frequency_basis([(2, 1)]),
        )
        with pytest.raises((NonConvergent, SingularJacobian)):
            find_root_g0(sys_, np.zeros(1), 0.5, burn_in=1.0, window=2.0)


class TestGrid:
    def test_lambda_grid_matches_map(self):
        sys_ = linear_system()
        thetas = [np.array([-1.0]), np.array([0.0]), np.array([1.0])]
        ests = stationary_grid(
            sys_, thetas, 0.1, 0.01, kind="lambda", burn_in=100.0, window=80.0
        )
        for th, est in zip(thetas, ests):
            assert est.value[0] == pytest.approx(-2.0 * th[0], abs=0.01)

    def test_kind_validation(self):
        with pytest.raises(ConfigError):
            stationary_grid(linear_system(), [np.zeros(1)], 0.1, kind="mu")

    def test_csv_format(self):
        sys_ = linear_system()
        thetas = [np.array([0.0]), np.array([1.0])]
        ests = stationary_grid(
            sys_, thetas, 0.2, 0.05, kind="lambda", burn_in=20.0, window=40.0
        )
        buf = io.StringIO()
        write_grid_csv(buf, thetas, ests)
        text = buf.getvalue()
        assert text.split("\n", 1)[0] == "theta_1,value_1,osc_amplitude,T_used"
        data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
        assert data.shape == (2, 4)
        assert data[1, 0] == 1.0
        assert data[1, 1] == ests[1].value[0]
        assert data[1, 3] == ests[1].horizon
