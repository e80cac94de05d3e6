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
    StageText,
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
from qsakit.systems import make_linear_system


def one_pair_basis(phase=0.0):
    return make_frequency_basis([(2, 1)], phases=[phase])


def linear_basis():
    return make_frequency_basis([(2, 1), (3, 1)], phases=[0.75, 0.75])


def linear_text(alpha=2.0, s1=1.0, s2=1.0, b1=0.0, b2=0.0):
    """linear-3.1's text at these constants: slow alpha*theta +
    alpha*lambda + s1*xi0*(theta + 1) + b1, fast -2*theta - lambda +
    s2*xi1*(lambda + 1) + b2."""
    return make_linear_system(alpha, (s1, s2), (b1, b2)).text


def linear_system():
    return TwoTimescaleSystem(1, 1, linear_basis(), text=linear_text())


def text_system(slow, fast, basis=None):
    """The 1+1 pair d/dt theta = a*(slow), d/dt lambda = b*(fast) as text
    over the probe row of one tone (default one_pair_basis())."""
    text = StageText((slow,), (fast,), ("0.0",), 1, "", None, (), ())
    return TwoTimescaleSystem(1, 1, basis or one_pair_basis(), text=text)


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
        with pytest.raises(ConfigError):
            TwoTimescaleSystem(0, 1, linear_basis(), text=linear_text())

    def test_text_and_stage_both_rejected(self):
        # text is the one form of a field: there is no stage keyword
        system = linear_system()
        with pytest.raises(TypeError, match="unexpected keyword argument 'stage'"):
            TwoTimescaleSystem(1, 1, linear_basis(), text=system.text, stage=system.stage)

    def test_text_and_dh_dlambda_both_rejected(self):
        # text's jac is the Jacobian: there is no dh_dlambda keyword
        with pytest.raises(TypeError, match="unexpected keyword argument 'dh_dlambda'"):
            TwoTimescaleSystem(
                1, 1, linear_basis(), text=linear_system().text, dh_dlambda=lambda t, l, x: [[5.0]]
            )

    def test_no_field_rejected(self):
        with pytest.raises(TypeError, match="missing 1 required keyword-only argument: 'text'"):
            TwoTimescaleSystem(1, 1, linear_basis())

    @pytest.mark.parametrize("dims, part, got, want", [
        ((1, 2), "fast", 1, 2),  # unchecked, its runs die on a bare NameError for k1_2
        ((2, 1), "slow", 1, 2),  # unchecked, its frozen-fast run runs on one slow part
        ((1, 2), "jac", 1, 4),
    ])
    def test_part_counts_match_the_dimensions(self, dims, part, got, want):
        text = StageText(("-th0",), ("-la0",), ("-1.0",), 1, "", None, (), ())
        if part == "jac":
            text = text._replace(fast=("-la0", "-la1"))
        elif part == "slow":
            text = text._replace(jac=("-1.0",))
        with pytest.raises(ConfigError, match=rf"^stage text has {got} {part} part\(s\), expected {want}$"):
            TwoTimescaleSystem(*dims, one_pair_basis(), text=text)

    def test_fourier_agreement_accepted(self):
        field = _linear_field()
        sys_ok = TwoTimescaleSystem(1, 1, linear_basis(), text=linear_text(), fourier=field)
        assert sys_ok.fourier is field

    def test_fourier_disagreement_rejected(self):
        text = linear_text(alpha=2.5)  # field says alpha = 2
        with pytest.raises(ConfigError):
            TwoTimescaleSystem(1, 1, linear_basis(), text=text, fourier=_linear_field())

    def test_fourier_form_includes_the_probing_feedback(self):
        # the form is checked against the stage field at unit gains, the
        # field analysis_floats averages: the slow part with its probing
        # feedback a * 0.25 at a = 1
        text = linear_text()
        text = text._replace(slow=(text.slow[0] + " + a * 0.25",))
        with pytest.raises(ConfigError, match="^fourier form disagrees with the stage field"):
            TwoTimescaleSystem(1, 1, linear_basis(), text=text, fourier=_linear_field())
        field = _linear_field(b1=0.25)
        system = TwoTimescaleSystem(1, 1, linear_basis(), text=text, fourier=field)
        assert system.fourier is field

    def test_fourier_dim_mismatch(self):
        field = _linear_field().output_slice(0, 1)
        with pytest.raises(ConfigError, match="^fourier form must stack the slow and fast parts"):
            TwoTimescaleSystem(1, 1, linear_basis(), text=linear_text(), fourier=field)


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
        sys_ = text_system("0.0", "0.0")
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
        sys_ = text_system("th0 * th0", "0.0")
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
        return text_system("xi0", "-la0", one_pair_basis(phase=0.0))

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
        return text_system("0.0", "0.0")

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
        sys_ = text_system("la0", "0.0")
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
        sys_ = text_system("0.0", "-la0")
        traj = integrate_frozen_fast(sys_, np.zeros(1), np.ones(1), 1.0, 10.0)
        expected = np.exp(-traj.t)
        assert np.max(np.abs(traj.lam[:, 0] - expected)) < 1e-8
        assert np.all(traj.theta == 0.0)
        assert np.all(traj.a == 0.0)

    def test_first_order_lag_reaches_dc(self):
        c = 0.7
        sys_ = text_system("0.0", f"{c!r} - la0")
        traj = integrate_frozen_fast(sys_, np.zeros(1), np.zeros(1), 0.5, 80.0)
        assert abs(traj.lam[-1, 0] - c) < 1e-6

    def test_linear_model_tracks_fast_equilibrium(self):
        sys_ = linear_system()
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


class TestStageLengths:
    """A text's parts must fill their blocks: the system refuses a text
    with another count of slow or fast parts when it is built, before any
    run kind's first stage."""

    @staticmethod
    def system(slow=1, fast=1):
        text = StageText(
            ("0.1 - th0",) * slow, ("xi0 - la0",) * fast, ("-1.0",), 1, "", None, (), ()
        )
        return TwoTimescaleSystem(1, 1, one_pair_basis(), text=text)

    RUNS = {
        "coupled": lambda s: integrate(s, GainSchedule(rho=0.7, beta=0.5), ([0.1], [0.2]), 1.0),
        "frozen": lambda s: integrate_frozen_fast(s, [0.1], [0.2], 0.5, 1.0),
        "lyapunov": lambda s: lyapunov_exponent(s, [0.1], 0.5, [0.2], 10.0),
        "g0": lambda s: mean_field_g0(s, [0.1], 0.5, tol=1.0, burn_in=0.5, window=1.0),
    }

    @pytest.mark.parametrize(
        "kind, lengths, part, got",
        [
            # slow is checked first, then fast
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
        with pytest.raises(ConfigError, match=rf"^stage text has {got} {part} part\(s\), expected 1$"):
            self.RUNS[kind](self.system(**lengths))

    @pytest.mark.parametrize("kind", sorted(RUNS))
    def test_right_lengths_run(self, kind):
        self.RUNS[kind](self.system())


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
