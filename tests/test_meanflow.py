"""Averaging-layer checks.

Oracles: closed-form equilibria of linear fast dynamics (lambda* = 2theta
or -2theta), exact probe averages of trig polynomials (zero for pure
tones), and a long-horizon coupled trajectory tail as an independent
estimate of the root theta^beta.
"""

import io
import math
import warnings

import numpy as np
import pytest

from qsakit import meanflow
from qsakit.dynamics import (
    GainSchedule,
    StageText,
    TwoTimescaleSystem,
    _array_exact,
    _resolve_step,
    integrate,
)
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
from qsakit.esc import EscConfig, Objective, build_esc_system
from qsakit.filters import StateSpaceFilter
from qsakit.probing import make_frequency_basis, probe_signal
from qsakit.systems import make_decoupled_system, make_esc_quadratic, make_linear_system


def linear_basis():
    return make_frequency_basis([(2, 1), (3, 1)], phases=[0.75, 0.75])


def linear_system():
    text = StageText(
        ("alpha * th0 + alpha * la0 + s1 * xi0 * (th0 + 1.0)",),
        ("-2.0 * th0 - la0 + s2 * xi1 * (la0 + 1.0)",),
        ("-1.0 + s2 * xi1",),
        2,
        "",
        None,
        ("alpha", "s1", "s2"),
        (2.0, 1.0, 1.0),
    )
    return TwoTimescaleSystem(1, 1, linear_basis(), text=text)


def one_tone_system(slow, fast, names=(), values=()):
    """The pair d/dt theta = a*(slow), d/dt lambda = b*(fast) as text over
    one tone's probe row; slow holds one expression per slow coordinate."""
    text = StageText(slow, (fast,), ("-1.0",), 1, "", None, names, values)
    return TwoTimescaleSystem(len(slow), 1, make_frequency_basis([(2, 1)]), text=text)


def plain_relax_system(target_gain=2.0):
    """Probe-free fast relaxation h = -(lam - target_gain*theta)."""
    return one_tone_system(("0.0",), "target_gain * th0 - la0", ("target_gain",), (target_gain,))


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
        sys_ = one_tone_system(("-(th0 - c)",), "-la0", ("c",), (c,))
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

    @pytest.mark.parametrize("make", [linear_system, make_esc_quadratic])
    def test_window_without_a_sample_is_a_config_error(self, make):
        # a window shorter than the step leaves the first one empty: its
        # mean was NaN, which the drift check let through
        for op in (fast_equilibrium, mean_field_g0):
            with pytest.raises(ConfigError, match=(
                r"^window 0\.001 leaves an averaging window without a sample at the RK4 step"
            )):
                op(make(), np.ones(1), 0.1, burn_in=1.0, window=0.001)

    @pytest.mark.parametrize("path", ["text", "stage field"])
    def test_non_real_slow_value_is_a_config_error(self, path):
        # th0 ** 0.5 leaves the reals at theta = -0.3: on arrays it used to
        # lose the imaginary part with a ComplexWarning, per sample to raise
        # a bare TypeError.  A slow part with ** is no lifted arithmetic, so
        # it is evaluated per sample, and so is one that a per-stage
        # statement computes
        base = make_linear_system()
        text = base.text._replace(slow=("th0 ** 0.5 + alpha * la0",))
        if path == "stage field":
            text = text._replace(slow=("g0",), per_stage="g0 = th0 ** 0.5 + alpha * la0")
        system = TwoTimescaleSystem(1, 1, base.basis, text=text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's ComplexWarning among them
            with pytest.raises(ConfigError, match=r"^slow field values are not real at theta = \[-0\.3\]$"):
                mean_field_g0(system, [-0.3], 0.5, tol=1.0, burn_in=5.0, window=20.0)

    def test_seeker_measures_theta_once(self):
        # eps(theta) takes f(theta) under objective_scaled: the frozen run
        # measures it once, and the slow field after the run reads the
        # text that run made, so g0 adds no objective call to the run's
        calls = []

        def fn(th):
            calls.append(1)
            return 0.5 * float((th[0] - 1.0) ** 2)

        config = EscConfig(objective=Objective(fn), epsilon=0.1, gain_kind="objective_scaled")
        system = build_esc_system(config)
        mean_field_g0(system, [1.2], 1.0, tol=1.0, burn_in=5.0, window=20.0)
        _, n_steps = _resolve_step(system.basis, 1.0, 45.0, None)
        assert len(calls) == 1 + 2 * n_steps + 1


#: slow parts that are no lifted arithmetic: a call and a power
NON_ARRAY_SLOW = {"call": "sin(la0) + th0", "power": "0.5 * la0 ** 2.0 + th0"}


@pytest.mark.parametrize("label", sorted(NON_ARRAY_SLOW))
def test_slow_series_calls_the_field_beyond_lifted_arithmetic(label):
    # a slow part with a call (sin, a constant) or ** is averaged from the
    # compiled stage field, one call per kept sample, as Python's float
    # operations round it: on arrays, math.sin raises a bare TypeError
    text = StageText((NON_ARRAY_SLOW[label],), ("-la0 + xi0",), ("-1.0",), 1, "", None,
                     ("sin",), (math.sin,))
    system = TwoTimescaleSystem(1, 1, make_frequency_basis([(2, 1)]), text=text)
    theta, kw = np.array([0.3]), dict(burn_in=5.0, window=20.0)
    traj, m1, m2, series = meanflow._windowed_run(system, theta, 0.5, 5.0, 20.0, None, True)
    kept = np.flatnonzero(m1 | m2)
    xis = probe_signal(system.probing, system.basis, traj.t).T
    want = [system.stage([0.3], traj.lam[k].tolist(), xis[k].tolist(), 1.0, None)[0][0] for k in kept]
    assert [v.hex() for v in series[:, 0]] == [v.hex() for v in want]
    est = mean_field_g0(system, theta, 0.5, tol=1.0, **kw)
    assert est.value.tobytes() == series[m2[kept], :].mean(axis=0).tobytes()


def test_built_in_slow_parts_are_averaged_on_arrays():
    # linear-3.1, decoupled-test and the seekers' frozen texts, the doubled
    # gain's a and an order-2 washout among them, take the array route
    planar = StateSpaceFilter(F=[[0.0, 1.0], [-1.0, -1.4]], G=[0.0, 1.0], H=[-1.0, -1.4], J=1.0)
    texts = [make_linear_system().text, make_decoupled_system().text]
    for kw in (dict(single_at=True), dict(single_at=False, gain_kind="objective_scaled"),
               dict(washout=planar)):
        seeker = build_esc_system(EscConfig(objective=Objective(lambda th: th[0] ** 2), epsilon=0.1,
                                            dim=1, **kw))
        texts.append(seeker.frozen([0.3]))
    assert all(_array_exact(text, text.slow, slow=True) for text in texts)
    # the seekers' own texts measure in a per-stage statement that is not
    # carried: averaged per sample
    assert not _array_exact(seeker.text, seeker.text.slow, slow=True)


class TestFindRoot:
    def test_state_independent_field(self):
        c = 0.4
        sys_ = one_tone_system(("-(th0 - c)",), "-la0", ("c",), (c,))
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
        sys_ = one_tone_system(("th0 - th1", "th0 - th1"), "-la0")
        with pytest.raises(SingularJacobian):
            find_root_g0(
                sys_, np.array([1.0, 0.0]), 0.5, burn_in=1.0, window=2.0
            )

    def test_nonconvergent_rootless_field(self):
        sys_ = one_tone_system(("1.0 + 0.1 * tanh(th0)",), "-la0", ("tanh",), (math.tanh,))
        with pytest.raises((NonConvergent, SingularJacobian)):
            find_root_g0(sys_, np.zeros(1), 0.5, burn_in=1.0, window=2.0)


class TestNonConvergentEstimates:
    """NonConvergent from the averaging layer carries its last estimates."""

    def test_window_averages(self):
        kw = dict(burn_in=1.0, window=5.0)
        with pytest.raises(NonConvergent) as err:
            fast_equilibrium(linear_system(), np.ones(1), 0.02, tol=1e-8, **kw)
        est = err.value.estimates
        assert list(est) == ["first window average", "second window average"]
        want = fast_equilibrium(linear_system(), np.ones(1), 0.02, tol=1.0, **kw)
        assert est["second window average"] == want.value.tolist()
        drift = abs(est["second window average"][0] - est["first window average"][0])
        assert f"differ by {drift:.3e} > 1.000e-08" in str(err.value)
        assert err.value.__notes__ == [f"{k}: {v}" for k, v in est.items()]

    def test_seeker_window_averages(self):
        # the frozen form's after-run slow field, as the estimate reads it
        kw = dict(burn_in=5.0, window=10.0)
        with pytest.raises(NonConvergent) as err:
            mean_field_g0(make_esc_quadratic(), [0.6], 1.0, tol=1e-13, **kw)
        want = mean_field_g0(make_esc_quadratic(), [0.6], 1.0, tol=1.0, **kw)
        assert err.value.estimates["second window average"] == want.value.tolist()

    def test_root_names_last_theta_and_residual(self, monkeypatch):
        sys_ = one_tone_system(("1.0 + 0.1 * tanh(th0)",), "-la0", ("tanh",), (math.tanh,))
        monkeypatch.setattr(meanflow, "MAX_NEWTON_ITERATIONS", 2)
        kw = dict(burn_in=1.0, window=2.0)
        with pytest.raises(NonConvergent) as err:
            find_root_g0(sys_, np.zeros(1), 0.5, **kw)
        est = err.value.estimates
        assert list(est) == ["last theta", "residual"]
        (theta,) = est["last theta"]
        assert theta != 0.0
        assert f"at theta [{theta!r}]" in str(err.value)
        assert est["residual"] == mean_field_g0(sys_, [theta], 0.5, **kw).value.tolist()


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
