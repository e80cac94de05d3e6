"""Extremum-seeking layer checks.

Oracles: hand-evaluated objective values and gradients, the exact
steady-state response of a state-space filter to a single tone (resolvent
inverted directly here, independent of the filters module), the closed-form
probe moments 0.5*|M(j 2 pi omega)|^2 and 0.5*J*Re M that follow from it,
exact trigonometric averages of polynomial measurements, and the mean-flow
contraction of the regularized loop.
"""

import math
import struct
import sys
import time

import numpy as np
import pytest

from qsakit import esc as esc_module
from qsakit.dynamics import (
    GainSchedule,
    StageText,
    _float_lists,
    _reads_gain,
    integrate,
    integrate_frozen_fast,
    text_field,
)
from qsakit.errors import ConfigError, NegativeObjective, NonFinite, NonHurwitz
from qsakit.esc import (
    EscConfig,
    Objective,
    ProcessObjective,
    build_esc_system,
    esc_constants,
    esc_meanflow_approx,
    extended_probe_map,
    named_objective,
    normalized_observation,
    objective_gradient,
    probing_gain,
    quadratic_objective,
    quartic_objective,
    rosenbrock_objective,
)
from qsakit.filters import StateSpaceFilter, gamma0, passivity_metric, washout_filter
from qsakit.lyapunov import lyapunov_exponent
from qsakit.meanflow import fast_equilibrium, mean_field_g0
from qsakit.probing import clock_phases, make_frequency_basis, probe_signal


def tone_response(filt, omega):
    """Filter response at s = 2 pi j omega, by direct resolvent inversion."""
    s = 2j * math.pi * omega
    n = filt.F.shape[0]
    x = np.linalg.solve(s * np.eye(n) - filt.F, filt.G)
    return complex(filt.H @ x + filt.J)


# closed-form moments of the default washout / default single-tone basis:
# Sigma = 0.5 |M|^2 and M0 = 0.5 J Re M, equal for a first-order washout
# because |M|^2 = Re M there
SIGMA_LN2 = 0.5 * abs(tone_response(washout_filter(1.0), math.log(2.0))) ** 2


def quad_config(**overrides):
    base = dict(
        objective=quadratic_objective(center=1.0),
        epsilon=0.1,
        dim=1,
        single_at=True,
    )
    base.update(overrides)
    return EscConfig(**base)


def sum_of_squares_cmd():
    return [
        sys.executable,
        "-c",
        "import sys; print(sum(float(v) ** 2 for v in sys.stdin.read().split()))",
    ]


class TestObjectives:
    def test_quadratic_value_and_gradient(self):
        obj = quadratic_objective(center=1.0)
        assert obj(np.array([3.0])) == pytest.approx(2.0)
        assert obj.grad(np.array([3.0])) == pytest.approx(2.0)

    def test_quadratic_weights(self):
        obj = quadratic_objective(center=[1.0, -0.5], weights=[1.0, 4.0])
        th = np.array([2.0, 0.5])
        assert obj(th) == pytest.approx(0.5 * 1.0 + 0.5 * 4.0 * 1.0)
        assert np.allclose(obj.grad(th), [1.0, 4.0])
        with pytest.raises(ConfigError):
            quadratic_objective(weights=[1.0, 0.0])

    def test_rosenbrock_values(self):
        obj = rosenbrock_objective()
        assert obj(np.array([1.0, 1.0])) == pytest.approx(0.0)
        assert np.allclose(obj.grad(np.array([1.0, 1.0])), [0.0, 0.0])
        assert obj(np.array([-1.0, 1.0])) == pytest.approx(4.0)
        assert np.allclose(obj.grad(np.array([-1.0, 1.0])), [-4.0, 0.0])
        with pytest.raises(ConfigError):
            obj(np.array([1.0, 1.0, 1.0]))

    def test_rosenbrock_gradient_matches_differences(self):
        obj = rosenbrock_objective()
        th = np.array([-1.2, 1.0])
        fd = np.zeros(2)
        delta = 1e-6
        for j in range(2):
            up, dn = th.copy(), th.copy()
            up[j] += delta
            dn[j] -= delta
            fd[j] = (obj(up) - obj(dn)) / (2 * delta)
        assert np.allclose(obj.grad(th), fd, atol=1e-4)

    def test_quartic_value_and_gradient(self):
        obj = quartic_objective()
        th = np.array([1.0, 1.0])
        assert obj(th) == pytest.approx(4.0)
        assert np.allclose(obj.grad(th), [8.0, 8.0])
        with pytest.raises(ConfigError):
            quartic_objective(scale=0.0)

    def test_named_objective(self):
        obj = named_objective("quadratic", center=2.0)
        assert obj(np.array([3.0])) == pytest.approx(0.5)
        with pytest.raises(ConfigError):
            named_objective("cubic")
        with pytest.raises(ConfigError):
            named_objective("quadratic", slope=1.0)


def _scalar_kinds(rng):
    """Entries of one kind each: Python floats (signed zeros, infinities, a
    subnormal), ints (one not a float64), bools and numpy scalars; the
    np.float32 entries are not float64 values rounded to float32, so a
    sum taken in float32 differs in its bits."""
    x = float(rng.uniform(-3.0, 3.0))
    return [
        x, 0.0, -0.0, math.inf, -math.inf, 5e-324, -2.5e-310,
        int(rng.integers(-5, 6)), 3**40, True, False,
        np.float64(x), np.float32(x), np.float32(0.1),
    ]


class TestObjectiveLists:
    """Objective.__call__ on a list of real numbers returns the bits it
    returns on the equivalent float64 array."""

    @staticmethod
    def bits(x):
        return struct.pack("d", x)

    @pytest.mark.parametrize("d", range(1, 10))
    def test_quadratic(self, d):
        # d <= 7 sums the list on floats, d >= 8 in numpy
        rng = np.random.default_rng(400 + d)
        for _ in range(300):
            kinds = _scalar_kinds(rng)
            point = [kinds[i] for i in rng.integers(0, len(kinds), d)]
            c = rng.uniform(-2.0, 2.0, d) if rng.random() < 0.5 else 1.0 / 3.0
            w = rng.uniform(0.1, 3.0, d) if rng.random() < 0.5 else 0.7
            obj = quadratic_objective(center=c, weights=w)
            want = obj(np.array(point, dtype=float))
            assert self.bits(obj(point)) == self.bits(want), (point, c, w)

    def test_other_objective(self):
        seen = []

        def fn(th):
            seen.append((type(th), th.dtype, th.shape))
            return float(np.sum((th / 3.0) ** 2))

        obj = Objective(fn)
        rng = np.random.default_rng(409)
        for d in (1, 2, 5, 9):
            for _ in range(50):
                kinds = _scalar_kinds(rng)
                point = [kinds[i] for i in rng.integers(0, len(kinds), d)]
                want = obj(np.array(point, dtype=float))
                assert self.bits(obj(point)) == self.bits(want), point
        assert set(seen) == {(np.ndarray, np.dtype(np.float64), (d,)) for d in (1, 2, 5, 9)}


class TestProcessObjective:
    def test_round_trip(self):
        obj = ProcessObjective(sum_of_squares_cmd())
        assert obj(np.array([1.5, 2.0])) == pytest.approx(6.25)
        assert obj.evaluations == 1
        assert obj(np.array([0.0, 3.0])) == pytest.approx(9.0)
        assert obj.evaluations == 2

    def test_string_command(self):
        import shlex

        obj = ProcessObjective(shlex.join([sys.executable, "-c", "print(2.5)"]))
        assert obj(np.array([0.0])) == pytest.approx(2.5)

    def test_non_decimal_output(self):
        obj = ProcessObjective([sys.executable, "-c", "print('nope')"])
        with pytest.raises(ConfigError, match="not a decimal"):
            obj(np.array([1.0]))

    def test_failing_command(self):
        obj = ProcessObjective([sys.executable, "-c", "import sys; sys.exit(3)"])
        with pytest.raises(ConfigError, match="command failed"):
            obj(np.array([1.0]))

    def test_empty_command(self):
        with pytest.raises(ConfigError):
            ProcessObjective("")

    def test_stuck_command_times_out(self, monkeypatch):
        monkeypatch.setattr(esc_module, "OBJECTIVE_TIMEOUT_S", 0.5)
        obj = ProcessObjective([sys.executable, "-c", "import time; time.sleep(30)"])
        start = time.monotonic()
        with pytest.raises(ConfigError, match=r"time\.sleep\(30\).*within 0\.5 s"):
            obj(np.array([1.0]))
        assert time.monotonic() - start < 10.0
        assert obj.evaluations == 0

    def test_evaluation_limit(self, monkeypatch):
        monkeypatch.setattr(esc_module, "OBJECTIVE_MAX_EVALUATIONS", 2)
        obj = ProcessObjective(sum_of_squares_cmd())
        assert obj(np.array([1.0])) == pytest.approx(1.0)
        assert obj(np.array([2.0])) == pytest.approx(4.0)
        with pytest.raises(ConfigError, match=r"sys\.stdin.*limit of 2 evaluations"):
            obj(np.array([3.0]))
        assert obj.evaluations == 2

    def test_wired_through_config(self):
        config = EscConfig(
            objective=ProcessObjective(sum_of_squares_cmd()), epsilon=0.1, dim=2
        )
        got = normalized_observation(config, np.array([1.0, 1.0]), np.zeros(2))
        assert got == pytest.approx(20.0)


class TestConfig:
    def test_defaults(self):
        config = EscConfig(objective=quadratic_objective(), epsilon=0.1)
        assert config.dim == 1
        assert np.allclose(config.theta_ctr, [0.0])
        assert config.probing.pairs == ((2, 1),)
        assert config.washout.order == 1
        assert config.gain_kind == "constant"
        assert not config.single_at

    def test_dim_from_center_and_basis(self):
        config = EscConfig(
            objective=quadratic_objective(), epsilon=0.1, theta_ctr=[1.0, 2.0, 3.0]
        )
        assert config.dim == 3
        assert config.probing.size == 3
        basis = make_frequency_basis([(2, 1), (3, 1)])
        config = EscConfig(objective=quadratic_objective(), epsilon=0.1, probing=basis)
        assert config.dim == 2

    def test_validation(self):
        obj = quadratic_objective()
        with pytest.raises(ConfigError):
            EscConfig(objective=obj, epsilon=0.0)
        with pytest.raises(ConfigError):
            EscConfig(objective=obj, epsilon=0.1, gain_kind="adaptive")
        with pytest.raises(ConfigError):
            EscConfig(objective=obj, epsilon=0.1, sigma_p=0.0)
        with pytest.raises(ConfigError):
            EscConfig(objective=obj, epsilon=0.1, sigma=-1.0)
        with pytest.raises(ConfigError):
            EscConfig(objective=obj, epsilon=0.1, dim=2, theta_ctr=[1.0, 2.0, 3.0])
        with pytest.raises(ConfigError, match="own probe frequency"):
            EscConfig(objective=obj, epsilon=0.1, dim=2, probing=make_frequency_basis([(2, 1)]))
        with pytest.raises(ConfigError, match="no default probing basis"):
            EscConfig(objective=obj, epsilon=0.1, dim=5)


class TestProbingGain:
    def test_objective_scaled(self):
        config = quad_config(gain_kind="objective_scaled")
        # objective vanishes at the center point, so the gain is epsilon
        assert probing_gain(config, np.array([1.0])) == pytest.approx(0.1)
        config = EscConfig(
            objective=Objective(lambda th: 3.0), epsilon=0.1, gain_kind="objective_scaled"
        )
        assert probing_gain(config, np.zeros(1)) == pytest.approx(0.2)

    def test_objective_scaled_rejects_negative(self):
        config = EscConfig(
            objective=Objective(lambda th: float(th[0])),
            epsilon=0.1,
            gain_kind="objective_scaled",
        )
        with pytest.raises(NegativeObjective, match="nonnegative"):
            probing_gain(config, np.array([-2.0]))

    def test_prior_scaled(self):
        config = quad_config(gain_kind="prior_scaled", theta_ctr=[0.0], sigma_p=1.0)
        assert probing_gain(config, np.zeros(1)) == pytest.approx(0.1)
        assert probing_gain(config, np.ones(1)) == pytest.approx(0.1 * math.sqrt(2.0))

    def test_constant(self):
        config = quad_config()
        assert probing_gain(config, np.array([37.0])) == pytest.approx(0.1)


class TestNormalizedObservation:
    def test_zero_objective(self):
        config = EscConfig(objective=Objective(lambda th: 0.0), epsilon=0.1)
        assert normalized_observation(config, np.zeros(1), np.ones(1)) == 0.0

    def test_quadratic_values(self):
        # objective theta^2 probed at 1 + 0.1*xi, divided by 0.1
        config = EscConfig(
            objective=quadratic_objective(center=0.0, weights=2.0), epsilon=0.1
        )
        assert normalized_observation(config, np.ones(1), np.zeros(1)) == pytest.approx(10.0)
        assert normalized_observation(config, np.ones(1), np.ones(1)) == pytest.approx(12.1)

    def test_negative_objective_propagates(self):
        config = EscConfig(
            objective=Objective(lambda th: float(th[0])),
            epsilon=0.1,
            gain_kind="objective_scaled",
        )
        with pytest.raises(NegativeObjective):
            normalized_observation(config, np.array([0.05]), np.array([-1.0]))


class TestObjectiveGradient:
    def test_prefers_attached_gradient(self):
        config = quad_config()
        assert objective_gradient(config)(np.array([3.0])) == pytest.approx(2.0)

    def test_explicit_override_wins(self):
        config = quad_config(grad=lambda th: np.full_like(th, 7.0))
        assert objective_gradient(config)(np.array([3.0])) == pytest.approx(7.0)

    def test_difference_fallback(self):
        config = EscConfig(
            objective=Objective(lambda th: float(np.cos(th[0]))), epsilon=0.1
        )
        got = objective_gradient(config)(np.array([0.7]))
        assert got == pytest.approx(-math.sin(0.7), abs=1e-8)


class TestProbeChannels:
    def test_raw_channels_are_clock_cosines(self):
        config = quad_config(dim=2, objective=quadratic_objective())
        pmap = extended_probe_map(config)
        assert pmap.m == 4
        ts = np.linspace(0.0, 7.0, 29)
        xi = probe_signal(pmap, config.probing, ts)
        for i, (omega, phase) in enumerate(
            zip(config.probing.omegas, config.probing.phases)
        ):
            assert np.allclose(xi[i], np.cos(2 * math.pi * (omega * ts + phase)), atol=1e-12)

    def test_filtered_channel_matches_transient_free_response(self):
        # independent oracle: solve dx = Fx + G cos(2 pi omega t) from rest in
        # closed form; past t ~ 30 the homogeneous part is below 1e-13 and the
        # output must agree with the steady tone the probe map produces
        config = quad_config()
        pmap = extended_probe_map(config)
        filt = config.washout
        omega = config.probing.omegas[0]
        s = 2j * math.pi * omega
        x_phasor = complex(
            np.linalg.solve(s * np.eye(filt.order) - filt.F, filt.G)[0]
        )
        for t in np.linspace(30.0, 33.0, 7):
            z = np.exp(2j * math.pi * clock_phases(config.probing, float(t)))
            got = float(pmap(z)[1])
            x_exact = (x_phasor * np.exp(s * t)).real - x_phasor.real * math.exp(
                float(filt.F[0, 0]) * t
            )
            y_exact = float(filt.H[0]) * x_exact + filt.J * math.cos(2 * math.pi * omega * t)
            assert abs(got - y_exact) < 1e-9

    def test_scalar_and_batch_shapes_agree(self):
        config = quad_config()
        pmap = extended_probe_map(config)
        ts = np.array([0.3, 1.7])
        batch = probe_signal(pmap, config.probing, ts)
        for col, t in enumerate(ts):
            z = np.exp(2j * math.pi * clock_phases(config.probing, float(t)))
            assert np.allclose(pmap(z), batch[:, col])


class TestProbeMoments:
    def test_single_tone_closed_form(self):
        sigma, m0 = esc_constants(quad_config())
        assert abs(sigma[0, 0] - SIGMA_LN2) < 1e-5
        assert abs(m0[0, 0] - SIGMA_LN2) < 1e-5

    def test_two_tone_diagonal(self):
        config = quad_config(dim=2, objective=quadratic_objective())
        sigma, m0 = esc_constants(config)
        for i, omega in enumerate(config.probing.omegas):
            resp = tone_response(config.washout, omega)
            assert abs(sigma[i, i] - 0.5 * abs(resp) ** 2) < 1e-5
            assert abs(m0[i, i] - 0.5 * config.washout.J * resp.real) < 1e-5
        assert abs(sigma[0, 1]) < 1e-4
        assert abs(sigma[1, 0]) < 1e-4

    def test_scaled_feedthrough(self):
        # washout with gain 2: M(s) = 2s/(s+2), so Sigma = 0.5|M|^2 while
        # M0 = 0.5 * 2 * Re M; the two moments separate here
        filt = StateSpaceFilter(F=[[-2.0]], G=[1.0], H=[-4.0], J=2.0)
        config = quad_config(washout=filt)
        sigma, m0 = esc_constants(config)
        resp = tone_response(filt, config.probing.omegas[0])
        assert abs(sigma[0, 0] - 0.5 * abs(resp) ** 2) < 2e-5
        assert abs(m0[0, 0] - 1.0 * resp.real) < 2e-5

    def test_passivity_positive_for_default_washout(self):
        sigma, m0 = esc_constants(quad_config())
        metric = passivity_metric(sigma, m0)
        assert 0.9 < metric < 1.0


class TestMeanflowApprox:
    def test_arithmetic_example(self):
        # -(0.1*(2-0) + 0.5*2) = -1.2; the feedthrough moment must not enter
        config = EscConfig(
            objective=quadratic_objective(), epsilon=0.1, dim=1, sigma=0.1
        )
        out = esc_meanflow_approx(config, np.array([2.0]), [[0.5]], [[0.3]])
        assert np.allclose(out, [-1.2])

    def test_vanishes_at_stationary_point(self):
        config = quad_config(sigma=0.0)
        out = esc_meanflow_approx(config, np.array([1.0]), [[0.5]], [[0.5]])
        assert np.allclose(out, [0.0])

    def test_difference_gradient_route(self):
        config = EscConfig(
            objective=Objective(lambda th: float(np.cos(th[0]))), epsilon=0.1
        )
        out = esc_meanflow_approx(config, np.array([0.7]), [[2.0]], [[0.0]])
        assert out[0] == pytest.approx(2.0 * math.sin(0.7), abs=1e-7)

    def test_uses_probe_covariance(self, d1_moments):
        # the quadratic's gradient at theta = 2 is 1, so the field is -Sigma
        sigma, m0 = d1_moments
        out = esc_meanflow_approx(quad_config(), np.array([2.0]), sigma, m0)
        assert out[0] == pytest.approx(-sigma[0, 0], abs=1e-6)


def fast_part(system, theta, lam, xi):
    """The stage field's fast part at b = 1.0 at array-likes."""
    return system.stage(*_float_lists(theta, lam, xi), None, 1.0)[1]


class TestBuildSystem:
    def test_dimensions_and_affine_fast_field(self):
        planar = StateSpaceFilter(
            F=[[0.0, 1.0], [-2.0, -2.0]], G=[0.0, 1.0], H=[1.0, 0.0], J=0.0
        )
        config = quad_config(washout=planar)
        system = build_esc_system(config)
        assert system.dim_slow == 1
        assert system.dim_fast == 2
        rng = np.random.default_rng(7)
        theta = np.array([1.3])
        xi = rng.normal(size=2)
        for _ in range(4):
            lam1, lam2 = rng.normal(size=2), rng.normal(size=2)
            lhs = np.subtract(
                fast_part(system, theta, lam1 + lam2, xi), fast_part(system, theta, lam1, xi)
            )
            assert np.allclose(lhs, planar.F @ lam2, atol=1e-12)
        jac = text_field(system.text)[1](*_float_lists(theta, lam1, xi))
        assert np.array_equal(np.reshape(jac, (2, 2)), planar.F)

    def test_order_1_text(self):
        # the seeker's text, at order 1 as it has been written since the
        # order-1 seeker ran on text, with its Jacobian one entry
        config = quad_config(
            objective=quadratic_objective(center=[0.6, -0.0], weights=[0.5, 3.0]), dim=2,
            sigma=0.2, theta_ctr=[-0.3, 0.4], single_at=False,
        )
        system = build_esc_system(config)
        slow = tuple(
            f"neg_sigma * (th{i} - c{i}) + a * (-xi{2 + i} * (0.0 + h1 * la0 + J * y))"
            for i in range(2)
        )
        statement = (
            "q0 = th0 + eps * xi0 - qc0; q1 = th1 + eps * xi1 - qc1; "
            "y = 0.5 * (0.0 + qw0 * (q0 * q0) + qw1 * (q1 * q1)) / eps"
        )
        names = ("neg_sigma", "c0", "c1", "h1", "J", "f1", "g1", "qc0", "qw0", "qc1", "qw1", "eps")
        values = (-0.2, -0.3, 0.4, -1.0, 1.0, -1.0, 1.0, 0.6, 0.5, -0.0, 3.0, 0.1)
        want = StageText(
            slow, ("0.0 + f1 * la0 + g1 * y",), ("f1",), 4, statement, None, names, values
        )
        assert system.text == want
        assert repr(system.text.values) == repr(values)  # -0.0 among them
        assert system.frozen([0.3, 0.1]) == want._replace(carry="y")

    def test_order_2_text(self):
        # F lambda, H'lambda and the Jacobian F written out per entry, each
        # sum from 0.0 in index order
        planar = StateSpaceFilter(
            F=[[0.0, 1.0], [-1.0, -1.4]], G=[0.0, 1.0], H=[-1.0, -1.4], J=1.0
        )
        text = build_esc_system(quad_config(washout=planar, single_at=True)).text
        assert text.slow == ("neg_sigma * (th0 - c0) + -xi1 * (0.0 + h1 * la0 + h2 * la1 + J * y)",)
        assert text.fast == (
            "0.0 + f1 * la0 + f2 * la1 + g1 * y", "0.0 + f3 * la0 + f4 * la1 + g2 * y"
        )
        assert text.jac == ("f1", "f2", "f3", "f4")
        named = dict(zip(text.names, text.values))
        assert [named[n] for n in ("h1", "h2", "J", "f1", "f2", "f3", "f4", "g1", "g2")] == [
            -1.0, -1.4, 1.0, 0.0, 1.0, -1.0, -1.4, 0.0, 1.0
        ]

    def test_rejects_unstable_filter(self):
        filt = StateSpaceFilter(F=[[0.5]], G=[1.0], H=[1.0], J=0.0)
        with pytest.raises(NonHurwitz):
            build_esc_system(quad_config(washout=filt))

    def test_slow_field_assembly(self):
        config = quad_config(sigma=0.2, single_at=True)
        system = build_esc_system(config)
        theta, lam = np.array([1.7]), np.array([0.4])
        xi = np.array([0.3, 0.6])
        meas = normalized_observation(config, theta, xi[:1])
        filtered = float(config.washout.H @ lam) + config.washout.J * meas
        expected = -0.2 * 1.7 - 0.6 * filtered
        assert np.allclose(system.analysis_floats(theta, lam, xi), [expected])
        assert not _reads_gain(system.text)

    def test_slow_field_split(self):
        config = quad_config(sigma=0.2, single_at=False)
        system = build_esc_system(config)
        assert _reads_gain(system.text)
        theta, lam = np.array([1.7]), np.array([0.4])
        xi = np.array([0.3, 0.6])
        meas = normalized_observation(config, theta, xi[:1])
        probe = -0.6 * (float(config.washout.H @ lam) + config.washout.J * meas)
        # the doubled gain weighs the probe term by the slow gain once more
        slow, _ = system.stage([1.7], [0.4], [0.3, 0.6], 0.5, None)
        assert np.allclose(slow, [0.5 * (-0.2 * 1.7 + 0.5 * probe)])
        single = build_esc_system(quad_config(sigma=0.2, single_at=True))
        assert system.analysis_floats(theta, lam, xi) == single.analysis_floats(theta, lam, xi)

    def test_lambda_star_leading_order(self):
        system = build_esc_system(quad_config())
        # DC response of the washout state to objective/eps: -F^{-1}G * 5
        assert system.lambda_star(np.array([2.0])) == pytest.approx(5.0)
        est = fast_equilibrium(system, np.array([2.0]), 1.0, tol=1e-3, window=300.0)
        assert abs(est.value[0] - system.lambda_star(np.array([2.0]))[0]) < 0.05

    @pytest.mark.parametrize("gain_kind", ["constant", "objective_scaled"])
    def test_objective_receives_float64_points(self, gain_kind):
        # a plain callable sees the point exactly as the seeker builds it
        seen = set()

        def fn(th):
            seen.add((type(th), th.dtype, th.shape))
            return 0.5 * float(th @ th)

        config = EscConfig(objective=fn, epsilon=0.1, dim=2, gain_kind=gain_kind)
        system = build_esc_system(config)
        integrate(
            system, GainSchedule(rho=0.7, beta=1.0), (np.array([0.3, -0.2]), np.zeros(1)), 2.0
        )
        integrate_frozen_fast(system, np.array([0.3, -0.2]), np.zeros(1), 1.0, 2.0)
        system.analysis_floats([1, 2], np.zeros(1), np.array([1, 0, 0, 0]))
        assert seen == {(np.ndarray, np.dtype(np.float64), (2,))}

    def test_memo_keys_on_float64_bits(self):
        # the int64 array [1] has the bits of the float 5e-324, so only the
        # float64 conversion keeps the two points apart in the memo
        assert np.array([1]).tobytes() == np.array([5e-324]).tobytes()
        calls = []

        def fn(th):
            calls.append(1)
            return 0.5 * float(th @ th) + 1.0

        for first, second in (
            ((np.array([1]), np.array([0.0, 0.5])), (np.array([5e-324]), np.array([0.0, 0.5]))),
            ((np.array([0.0]), np.array([1, 0])), (np.array([0.0]), np.array([5e-324, 0.0]))),
        ):
            system = build_esc_system(EscConfig(objective=Objective(fn), epsilon=0.1, dim=1))
            calls.clear()
            a = fast_part(system, first[0], np.zeros(1), first[1])
            b = fast_part(system, second[0], np.zeros(1), second[1])
            assert len(calls) == 2
            assert a != b

    @pytest.mark.parametrize("single_at", [True, False])
    def test_lists_and_integer_arrays_match_float_arrays(self, single_at):
        config = quad_config(sigma=0.5, single_at=single_at, gain_kind="objective_scaled")
        forms = [
            ([2.0], [1.0], [1.0, -1.0]),
            ([2], [1], [1, -1]),
            (np.array([2]), np.array([1]), np.array([1, -1])),
        ]
        want = None
        for theta, lam, xi in [tuple(np.array(v, dtype=float) for v in forms[0])] + forms:
            system = build_esc_system(config)  # fresh memos: every value computed
            got = [
                fast_part(system, theta, lam, xi),
                system.analysis_floats(theta, lam, xi),
                normalized_observation(config, theta, xi[:1]),
            ]
            if want is None:
                want = got
            assert got == want

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("single_at", [True, False])
    def test_short_probe_row(self, single_at, dim):
        # a row of the raw probes alone left the slow part empty; the field
        # compiled from the text, which every order-1 seeker has, rejects
        # it, naming the length 2 * dim
        config = EscConfig(quadratic_objective(center=1.0), 0.1, dim=dim, single_at=single_at)
        system = build_esc_system(config)
        assert system.text is not None
        theta, xi = [1.2] * dim, [0.3] * dim
        message = rf"probe row of {dim} value\(s\), expected {2 * dim}$"
        with pytest.raises(ConfigError, match=message):
            system.stage(theta, [0.1], xi, 1.0, 1.0)
        slow, _ = system.stage(theta, [0.1], xi + [0.5] * dim, 1.0, 1.0)
        assert len(slow) == dim
        # the measurement alone reads the raw probes only
        assert normalized_observation(config, theta, xi) == normalized_observation(
            config, theta, xi + [0.5] * dim
        )

    def test_negative_objective_message(self):
        config = EscConfig(
            objective=Objective(lambda th: float(th[0])),
            epsilon=0.1,
            gain_kind="objective_scaled",
        )
        system = build_esc_system(config)
        tail = "; the objective-scaled probing gain needs a nonnegative objective"
        # eps(theta) = 0.1 sqrt(1.05) passes; the probed point 0.05 - eps does not
        with pytest.raises(NegativeObjective) as err:
            fast_part(system, np.array([0.05]), np.zeros(1), np.array([-1.0, 0.0]))
        assert str(err.value) == "objective value -0.0524695 at [-0.05247]" + tail
        with pytest.raises(NegativeObjective) as err:
            integrate(
                system, GainSchedule(rho=0.7, beta=1.0), (np.array([-0.25]), np.zeros(1)), 1.0
            )
        assert str(err.value) == "objective value -0.25 at [-0.25]" + tail

    def test_theta_star_passthrough(self):
        system = build_esc_system(quad_config(), theta_star=[1.0])
        assert np.allclose(system.theta_star, [1.0])


@pytest.fixture(scope="module")
def d1_moments():
    return esc_constants(quad_config())


@pytest.fixture(scope="module")
def quad_tail():
    """Trailing 400 time units of a frozen-slow run at theta = 2."""
    config = quad_config(sigma=0.0)
    system = build_esc_system(config)
    theta = np.array([2.0])
    traj = integrate_frozen_fast(system, theta, np.zeros(1), 1.0, 420.0)
    keep = traj.t >= 20.0
    xi = system.probing(np.exp(2j * np.pi * traj.phases[:, keep]))
    meas = np.array(
        [normalized_observation(config, theta, xi[:1, i]) for i in range(xi.shape[1])]
    )
    state_out = traj.lam[keep] @ config.washout.H
    return {
        "config": config,
        "system": system,
        "xi_check": xi[1],
        "meas": meas,
        "state_out": state_out,
    }


class TestStationaryAverages:
    def test_state_output_dc_reads_objective(self, quad_tail):
        config = quad_tail["config"]
        avg = float(np.mean(quad_tail["state_out"]))
        # exact probe average of the normalized measurement: 5.025; the
        # strictly proper DC gain of the washout is -1
        target = gamma0(config.washout) * 5.025
        assert abs(avg - target) < 0.01
        leading = gamma0(config.washout) * config.objective(np.array([2.0])) / 0.1
        assert abs(avg - leading) < 0.05
        washed = quad_tail["state_out"] + config.washout.J * quad_tail["meas"]
        assert abs(float(np.mean(washed))) < 0.01

    def test_probe_correlation_reads_gradient(self, quad_tail):
        washed = (
            quad_tail["state_out"]
            + quad_tail["config"].washout.J * quad_tail["meas"]
        )
        corr = float(np.mean(quad_tail["xi_check"] * washed))
        assert abs(corr - SIGMA_LN2) < 0.02

    def test_correlation_split_between_channels(self, quad_tail):
        # the state-response channel alone correlates to (Sigma - M0) grad,
        # which vanishes for a first-order washout; the feedthrough channel
        # carries M0 grad, the full value here
        state_corr = float(np.mean(quad_tail["xi_check"] * quad_tail["state_out"]))
        assert abs(state_corr) < 0.02
        feed_corr = float(
            np.mean(
                quad_tail["xi_check"]
                * quad_tail["config"].washout.J
                * quad_tail["meas"]
            )
        )
        assert abs(feed_corr - SIGMA_LN2) < 0.02

    def test_fast_exponent_is_filter_pole(self):
        system = build_esc_system(quad_config())
        for theta in (0.3, 2.0):
            est = lyapunov_exponent(system, np.array([theta]), 1.0, np.zeros(1), 60.0)
            assert est.exponent == pytest.approx(-1.0, abs=1e-2)

    def test_fast_exponent_planar_filter(self):
        planar = StateSpaceFilter(
            F=[[0.0, 1.0], [-2.0, -2.0]], G=[0.0, 1.0], H=[1.0, 0.0], J=0.0
        )
        system = build_esc_system(quad_config(washout=planar))
        est = lyapunov_exponent(system, np.array([0.5]), 1.0, np.zeros(2), 60.0)
        assert est.exponent == pytest.approx(-1.0, abs=1e-2)


class TestRuns:
    def test_quadratic_reference_run(self):
        config = quad_config()
        system = build_esc_system(config, theta_star=[1.0])
        schedule = GainSchedule(rho=0.7, beta=1.0)
        traj = integrate(
            system, schedule, (np.zeros(1), np.zeros(1)), 5000.0, sample_stride=200
        )
        end = float(traj.theta[-1, 0])
        assert abs(end - 1.0) < 0.1
        assert abs(end - 1.0) < 0.02

    def test_flat_objective_pulls_to_center(self):
        config = EscConfig(
            objective=Objective(lambda th: 3.0, grad=lambda th: np.zeros(1)),
            epsilon=0.1,
            dim=1,
            sigma=0.5,
            theta_ctr=[2.0],
        )
        system = build_esc_system(config)
        schedule = GainSchedule(rho=0.7, beta=1.0)
        traj = integrate(
            system, schedule, (np.zeros(1), np.zeros(1)), 600.0, sample_stride=50
        )
        assert abs(float(traj.theta[-1, 0]) - 2.0) < 0.01

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_steep_quartic_escapes(self):
        config = EscConfig(
            objective=quartic_objective(), epsilon=0.1, dim=2, single_at=True
        )
        system = build_esc_system(config)
        schedule = GainSchedule(rho=0.7, beta=1.0)
        with pytest.raises(NonFinite):
            integrate(system, schedule, (np.full(2, 8.0), np.zeros(1)), 50.0)

    def test_prior_scaled_plane_converges(self):
        # the start must sit inside the averaging regime: with a_0 = 1 the
        # probe-correlation wiggle scales like a_t |M| Gamma / (eps Omega),
        # so a large initial measurement (Gamma/eps ~ 10) lets the loop run
        # away before the gain decays; a prior centered near the optimum
        # keeps the normalized measurement of order one
        config = EscConfig(
            objective=quadratic_objective(center=[1.0, -0.5], weights=[1.0, 4.0]),
            epsilon=0.1,
            dim=2,
            gain_kind="prior_scaled",
            sigma_p=0.1,
            theta_ctr=[0.9, -0.4],
            single_at=True,
        )
        system = build_esc_system(config)
        schedule = GainSchedule(rho=0.7, beta=1.0)
        traj = integrate(
            system,
            schedule,
            (np.array([0.7, -0.2]), np.zeros(1)),
            250.0,
            sample_stride=50,
        )
        assert np.all(np.abs(traj.theta[-1] - np.array([1.0, -0.5])) < 0.1)
        assert np.all(np.abs(traj.theta) < 2.0)


class TestMeanflowGap:
    def test_gap_shrinks_with_probe_amplitude(self):
        # objective with third derivative 6: the averaged field picks up a
        # curvature correction ~ Sigma * (eps^2 * 6 / 8) that the closed-form
        # approximation omits, so the gap between the two must scale ~ eps^2
        obj = Objective(
            lambda th: 0.5 * (th[0] - 1.0) ** 2 + (th[0] - 1.0) ** 3,
            grad=lambda th: np.atleast_1d((th[0] - 1.0) + 3.0 * (th[0] - 1.0) ** 2),
        )
        theta = np.array([0.6])
        gaps = {}
        for eps in (0.1, 0.2):
            config = EscConfig(objective=obj, epsilon=eps, dim=1, single_at=True)
            system = build_esc_system(config)
            est = mean_field_g0(
                system, theta, 1.0, tol=1e-3, burn_in=20.0, window=400.0
            )
            approx = esc_meanflow_approx(
                config, theta, [[SIGMA_LN2]], [[SIGMA_LN2]]
            )
            gaps[eps] = abs(float(est.value[0]) - float(approx[0]))
        assert gaps[0.2] > 0.005
        assert gaps[0.1] < gaps[0.2]
        assert gaps[0.1] < 0.45 * gaps[0.2]
