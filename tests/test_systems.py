"""Named-system registry checks.

Oracles: hand-evaluated field values, the trig identity cos(x + 3pi/2) =
sin(x) for the quarter-turn phase lag, closed-form equilibria of the
planar linear pair (lambda* = -2 theta + b_2, theta* = b_2 + b_1/alpha),
and adaptive quadrature of a_t cos(2 pi omega t) for the decoupled
integrator.  Fourier forms are validated against the callbacks by the
system constructor itself.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from qsakit.dynamics import GainSchedule, integrate
from qsakit.errors import ConfigError
from qsakit.probing import probe_signal
from qsakit.systems import (
    SYSTEMS,
    make_decoupled_system,
    make_esc_quadratic,
    make_linear_system,
    named_system,
)


class TestRegistry:
    def test_names(self):
        assert set(SYSTEMS) == {"linear-3.1", "esc-quadratic", "decoupled-test"}
        for name in SYSTEMS:
            assert named_system(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown system"):
            named_system("pendulum")

    def test_bad_parameters(self):
        with pytest.raises(ConfigError, match="bad parameters"):
            named_system("linear-3.1", gamma=1.0)
        with pytest.raises(ConfigError):
            make_linear_system(alpha=0.0)


class TestLinearPair:
    def test_probes_are_sines(self):
        system = make_linear_system()
        ts = np.linspace(0.0, 5.0, 23)
        xi = probe_signal(system.probing, system.basis, ts)
        for i, omega in enumerate(system.basis.omegas):
            assert np.allclose(xi[i], np.sin(2 * math.pi * omega * ts), atol=1e-12)

    def test_field_values(self):
        system = make_linear_system()
        theta, lam = np.array([0.3]), np.array([-0.1])
        xi = np.array([0.2, -0.4])
        assert system.g(theta, lam, xi)[0] == pytest.approx(0.66)
        assert system.h(theta, lam, xi)[0] == pytest.approx(-0.86)

    def test_closed_forms(self):
        system = make_linear_system()
        assert system.lambda_star(np.array([0.7]))[0] == pytest.approx(-1.4)
        assert system.theta_star[0] == 0.0
        # mean flow through the fast equilibrium: alpha(theta + lambda*) = -alpha theta
        x = np.concatenate([[0.7], system.lambda_star(np.array([0.7]))])
        assert system.fourier.mean_value(x)[0] == pytest.approx(-1.4)

    def test_offsets_shift_the_root(self):
        system = make_linear_system(alpha=4.0, b=(0.5, -0.25))
        theta_star = system.theta_star
        assert theta_star[0] == pytest.approx(-0.125)
        lam_star = system.lambda_star(theta_star)
        # the stacked mean coefficient, slow block included, vanishes at the joint root
        x_star = np.concatenate([theta_star, lam_star])
        assert np.allclose(system.fourier.mean_value(x_star), [0.0, 0.0], atol=1e-12)

    def test_fast_jacobian_matches_differences(self):
        system = make_linear_system(s=(1.0, 0.7))
        rng = np.random.default_rng(3)
        for _ in range(5):
            theta, lam = rng.normal(size=1), rng.normal(size=1)
            xi = rng.normal(size=2)
            fd = (
                system.h(theta, lam + 1e-6, xi)[0] - system.h(theta, lam - 1e-6, xi)[0]
            ) / 2e-6
            assert system.dh_dlambda(theta, lam, xi)[0, 0] == pytest.approx(fd, abs=1e-8)

    def test_noise_scales(self):
        system = make_linear_system(s=(0.0, 0.0))
        theta, lam = np.array([0.3]), np.array([-0.1])
        for xi in (np.array([0.2, -0.4]), np.array([-0.9, 0.5])):
            assert system.g(theta, lam, xi)[0] == pytest.approx(0.4)
            assert system.h(theta, lam, xi)[0] == pytest.approx(-0.5)


class TestEscQuadratic:
    def test_structure(self):
        system = make_esc_quadratic()
        assert (system.dim_slow, system.dim_fast) == (1, 1)
        assert system.probing.m == 2
        assert system.g_probe is None
        assert np.allclose(system.theta_star, [1.0])

    def test_correlation_plumbing(self):
        system = make_esc_quadratic()
        # at theta=2 the normalized measurement is 0.5/0.1 = 5; with zero
        # washout state the slow field is -xi_check * J * 5
        got = system.g(np.array([2.0]), np.zeros(1), np.array([0.0, 0.6]))
        assert got[0] == pytest.approx(-3.0)

    def test_center_parameter(self):
        system = make_esc_quadratic(center=-0.5)
        assert np.allclose(system.theta_star, [-0.5])
        assert np.allclose(system.lambda_star(np.array([-0.5])), [0.0])


class TestDecoupled:
    def test_matches_quadrature(self):
        system = make_decoupled_system()
        schedule = GainSchedule(rho=0.7, beta=1.0)
        traj = integrate(
            system,
            schedule,
            (np.zeros(1), np.array([0.8])),
            10.0,
            step=1e-3,
            sample_stride=1000,
        )
        omega = system.basis.omegas[0]
        ref, err = quad(
            lambda t: (1.0 + t) ** -0.7 * math.cos(2 * math.pi * omega * t),
            0.0,
            10.0,
            epsabs=1e-12,
            limit=400,
        )
        assert err < 1e-10
        assert abs(float(traj.theta[-1, 0]) - ref) < 1e-8
        # fast channel is inert pure decay
        assert float(traj.lam[-1, 0]) == pytest.approx(0.8 * math.exp(-10.0), abs=1e-9)

    def test_mean_field_is_zero(self):
        system = make_decoupled_system()
        mean = system.fourier.mean_value(np.array([0.4, 0.2]))
        assert mean[0] == 0.0
        assert np.allclose(mean, [0.0, -0.2])
