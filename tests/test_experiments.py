"""Experiment-layer checks.

Oracles: exact power-law point sets for the log-log fitter; the decoupled
relaxation whose fast error is identically zero; the closed-form probe
ripple beta / (2 pi ln 3) and stationary mean shift beta^2 / (2 (2 pi ln 3)^2)
of the linear benchmark, which the sweeps must reproduce within the fit
bands; a two-quadrature system whose averaged-root bias has the closed
form beta * Ups_ff_bar(theta*, lambda*(theta*)) with the coupling average
computed independently in the frequency domain; and the perturbative
identities themselves, which analytic derivatives satisfy to roundoff
while 3-point stencils inherit an O(step^2) defect.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsakit.dynamics import GainSchedule, StageText, Trajectory, TwoTimescaleSystem, integrate
from qsakit.errors import (
    ConfigError,
    DegenerateFit,
    InsufficientSamples,
    NonConvergent,
    NonFinite,
    ZeroDivisor,
)
from qsakit.experiments import (
    ERROR_FLOOR,
    FILTERED_SLOPE_BAND,
    UNFILTERED_SLOPE_BAND,
    AllBelowFloor,
    HorizonPolicy,
    RateFit,
    SymmetricNoBias,
    bias_sweep,
    fast_error_sweep,
    loglog_fit,
    pmf_identity_suite,
    slow_error_check,
)
from qsakit.filters import SecondOrderFilter
from qsakit.fourier import FourierField, PolyCoeff
from qsakit.meanflow import find_root_g0
from qsakit.poisson import pmeanflow_terms
from qsakit.probing import ProbingMap, make_frequency_basis
from qsakit.systems import make_decoupled_system, make_linear_system

RIPPLE_PER_BETA = 1.0 / (2.0 * math.pi * math.log(3.0))


def second_order_factory(beta):
    return SecondOrderFilter(beta, zeta=0.7, eta=1.0)


def quadrature_system(alpha=2.0, s2=1.0, s4=1.5, b=(1.0, 0.5)):
    """Linear benchmark variant probed in both quadratures.

    The extra sine channel on the slow coordinate puts content with a
    phase mismatch at the second tone, which is what makes the coupling
    average Ups_ff_bar nonzero and the root bias first order in beta.
    """
    basis = make_frequency_basis([(2, 1), (3, 1)])
    b1, b2 = b
    pmap = ProbingMap(4, g_state=lambda phi: np.concatenate([phi.real, phi.imag]))
    text = StageText(
        ("alpha * (th0 + la0) + b1",),
        ("-2.0 * th0 - la0 + s2 * xi1 * (la0 + 1.0) + s4 * xi3 * th0 + b2",),
        ("-1.0 + s2 * xi1",),
        4,
        "",
        None,
        ("alpha", "s2", "s4", "b1", "b2"),
        (alpha, s2, s4, b1, b2),
    )

    mean = PolyCoeff(2, 2, {(1, 0): [alpha, -2.0], (0, 1): [alpha, -1.0], (0, 0): [b1, b2]})
    cos2 = PolyCoeff(2, 2, {(0, 0): [0.0, s2 / 2.0], (0, 1): [0.0, s2 / 2.0]})
    sin2 = PolyCoeff(2, 2, {(1, 0): [0.0, s4 * (-0.5j)]})
    k01 = cos2.add(sin2)
    fourier = FourierField(1, 1, 2, 2, {(0, 0): mean, (0, 1): k01, (0, -1): k01.conj()})
    return TwoTimescaleSystem(
        1,
        1,
        basis,
        probing=pmap,
        fourier=fourier,
        text=text,
        theta_star=np.array([b2 + b1 / alpha]),
    )


def one_tone_text(slow, fast, jac):
    """A 1+1 pair as text over the probe row of one tone: d/dt theta =
    a*(slow), d/dt lambda = b*(fast)."""
    return StageText((slow,), (fast,), (jac,), 1, "", None, (), ())


def xi_free_system():
    """Fully probe-independent linear pair; every identity is 0 = 0."""
    basis = make_frequency_basis([(2, 1)])
    text = one_tone_text("-th0 + 0.5 * la0", "th0 - la0", "-1.0")
    field = FourierField(
        1, 1, 2, 1, {(0,): PolyCoeff(2, 2, {(1, 0): [-1.0, 1.0], (0, 1): [0.5, -1.0]})}
    )
    return TwoTimescaleSystem(1, 1, basis, fourier=field, text=text)


def dependent_content_system():
    """Fast content at k = (2, -1) over generators (2,1), (4,1).

    <k, omega> = 2 ln 2 - ln 4 = 0, so the probe channel is constant in
    time even though it is a genuine nonzero mode on the torus.
    """
    basis = make_frequency_basis([(2, 1), (4, 1)])
    pmap = ProbingMap(
        1, g_state=lambda phi: (phi[0:1] ** 2 * np.conj(phi[1:2])).real
    )
    text = one_tone_text("-th0", "-la0 + 0.5 * xi0", "-1.0")

    mode = PolyCoeff(2, 2, {(0, 0): [0.0, 0.25]})
    fourier = FourierField(
        1,
        1,
        2,
        2,
        {
            (0, 0): PolyCoeff(2, 2, {(1, 0): [-1.0, 0.0], (0, 1): [0.0, -1.0]}),
            (2, -1): mode,
            (-2, 1): mode.conj(),
        },
    )
    return TwoTimescaleSystem(1, 1, basis, probing=pmap, fourier=fourier, text=text)


def synthetic_trajectory(schedule, t, theta):
    theta = np.asarray(theta, dtype=float)
    a = schedule.slow_gain_array(t)
    return Trajectory(
        t=t,
        theta=theta,
        lam=np.zeros_like(theta),
        a=a,
        beta=np.full(t.shape[0], schedule.beta),
        phases=np.zeros((1, t.shape[0])),
    )


# ---------------------------------------------------------------------------
# log-log fitting


def test_loglog_fit_exact_line():
    fit = loglog_fit([(1.0, 1.0), (2.0, 2.0), (4.0, 4.0)])
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared >= 1.0 - 1e-12
    assert fit.points == ((1.0, 1.0), (2.0, 2.0), (4.0, 4.0))


def test_loglog_fit_exact_quadratic():
    fit = loglog_fit([(1.0, 1.0), (2.0, 4.0), (4.0, 16.0)])
    assert fit.slope == pytest.approx(2.0, abs=1e-12)


def test_loglog_fit_constant():
    fit = loglog_fit([(1.0, 2.0), (2.0, 2.0), (4.0, 2.0)])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    # Zero variance in y reads as an exact fit, not 0/0.
    assert fit.r_squared == 1.0


def test_loglog_fit_validation():
    with pytest.raises(ConfigError):
        loglog_fit([(1.0, 1.0), (2.0, 2.0)])
    with pytest.raises(ConfigError):
        loglog_fit([(1.0, 1.0), (2.0, 0.0), (4.0, 4.0)])
    with pytest.raises(ConfigError):
        loglog_fit([(-1.0, 1.0), (2.0, 2.0), (4.0, 4.0)])
    with pytest.raises(DegenerateFit):
        loglog_fit([(2.0, 1.0), (2.0, 2.0), (2.0, 4.0)])


@settings(max_examples=60, deadline=None)
@given(slope=st.floats(-3.0, 3.0), logc=st.floats(-2.0, 2.0))
def test_loglog_fit_recovers_exact_power_laws(slope, logc):
    # Slopes within rounding distance of zero make the log-y spread
    # comparable to the representation error of c * x**slope itself, so
    # r^2 of the rounded data is honestly below 1; exact zero stays
    # covered by the constant-y test above.
    assume(slope == 0.0 or abs(slope) > 1e-6)
    xs = (0.37, 1.0, 2.9, 7.7)
    c = 10.0**logc
    fit = loglog_fit([(x, c * x**slope) for x in xs])
    assert fit.slope == pytest.approx(slope, abs=1e-8)
    assert fit.intercept == pytest.approx(math.log(c), abs=1e-8)
    assert fit.r_squared >= 1.0 - 1e-9


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=8))
def test_loglog_fit_r_squared_unit_interval(logys):
    pts = [(float(i + 1), 10.0**ly) for i, ly in enumerate(logys)]
    fit = loglog_fit(pts)
    assert 0.0 <= fit.r_squared <= 1.0
    assert math.isfinite(fit.slope)
    assert math.isfinite(fit.intercept)


def test_horizon_policy():
    policy = HorizonPolicy(scale=200.0, cap=1e4)
    assert policy.horizon(0.02) == 1e4
    assert policy.horizon(0.16) == pytest.approx(1250.0)
    with pytest.raises(ConfigError):
        HorizonPolicy(scale=0.0)
    with pytest.raises(ConfigError):
        HorizonPolicy(cap=-1.0)


# ---------------------------------------------------------------------------
# fast error sweep


def test_fast_sweep_decoupled_all_below_floor(tmp_path):
    out = tmp_path / "a"
    sweep = fast_error_sweep(
        make_decoupled_system(), [0.1, 0.2, 0.4], out_dir=out
    )
    assert isinstance(sweep, AllBelowFloor)
    assert sweep.floor == ERROR_FLOOR
    assert all(err < ERROR_FLOOR for _, err in sweep.points)

    record = json.loads((out / "fit.json").read_text())
    assert record["outcome"] == "all-below-floor"
    assert record["band_pass"] is True
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 4
    for beta in (0.1, 0.2, 0.4):
        assert (out / f"run-beta-{beta:g}.csv").exists()

    # Byte-identical on rerun.
    out2 = tmp_path / "b"
    fast_error_sweep(make_decoupled_system(), [0.1, 0.2, 0.4], out_dir=out2)
    for name in ("sweep.csv", "fit.json", "run-beta-0.2.csv"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_fast_sweep_linear_slope_one(tmp_path):
    betas = [0.08, 0.16, 0.32]
    fit = fast_error_sweep(make_linear_system(), betas, out_dir=tmp_path)
    assert isinstance(fit, RateFit)
    assert UNFILTERED_SLOPE_BAND[0] <= fit.slope <= UNFILTERED_SLOPE_BAND[1]
    assert fit.r_squared >= 0.95
    # Trailing error is the probe ripple beta / (2 pi ln 3) within 15%.
    for beta, err in fit.points:
        assert err == pytest.approx(RIPPLE_PER_BETA * beta, rel=0.15)

    record = json.loads((tmp_path / "fit.json").read_text())
    assert record["outcome"] == "fit"
    assert record["slope_band"] == list(UNFILTERED_SLOPE_BAND)
    assert record["slope_pass"] is True
    assert record["r_squared_pass"] is True
    assert record["band_pass"] is True
    assert (tmp_path / "run-beta-0.08.csv").exists()


def test_fast_sweep_filtered_slope_two():
    betas = [0.16, 0.16 * math.sqrt(2.0), 0.32]
    fit = fast_error_sweep(
        make_linear_system(), betas, filter_factory=second_order_factory
    )
    assert isinstance(fit, RateFit)
    assert FILTERED_SLOPE_BAND[0] <= fit.slope <= FILTERED_SLOPE_BAND[1]
    assert fit.r_squared >= 0.95
    shift = 1.0 / (2.0 * (2.0 * math.pi * math.log(3.0)) ** 2)
    for beta, err in fit.points:
        # Filtered floor is the second-order stationary mean shift ...
        assert 0.8 * shift * beta**2 < err < 1.4 * shift * beta**2
        # ... strictly below the unfiltered ripple at the same gain.
        assert err < RIPPLE_PER_BETA * beta


def test_fast_sweep_filter_factory_called_per_beta():
    seen = []

    def factory(beta):
        seen.append(beta)
        return SecondOrderFilter(beta, zeta=0.7, eta=1.0)

    sweep = fast_error_sweep(
        make_decoupled_system(), [0.2, 0.4], filter_factory=factory
    )
    assert isinstance(sweep, AllBelowFloor)
    assert seen == [0.2, 0.4]


def test_fast_sweep_nonfinite_names_beta():
    basis = make_frequency_basis([(2, 1)])
    text = one_tone_text("-th0", "1.0 + la0 * la0", "2.0 * la0")
    escaping = TwoTimescaleSystem(1, 1, basis, text=text)
    with pytest.raises(NonFinite) as err:
        fast_error_sweep(escaping, [2.0])
    assert "beta = 2" in str(err.value)
    assert err.value.time < 2.0


def test_fast_sweep_validation():
    with pytest.raises(ConfigError):
        fast_error_sweep(make_decoupled_system(), [])
    with pytest.raises(ConfigError):
        fast_error_sweep(make_decoupled_system(), [0.1, -0.2])


# ---------------------------------------------------------------------------
# slow error check


def test_slow_error_check_zero_error():
    sched = GainSchedule(0.7, 0.1)
    t = np.linspace(0.0, 100.0, 401)
    theta_beta = np.array([0.7])
    traj = synthetic_trajectory(sched, t, np.full((401, 1), 0.7))
    rep = slow_error_check(traj, theta_beta, sched)
    assert rep.sup_ratio == 0.0
    assert rep.ratio_trend == 0.0


def test_slow_error_check_exact_gain_envelope():
    # Theta - theta^beta = c * a_t exactly, so q is constant.
    sched = GainSchedule(0.7, 0.1)
    t = np.linspace(0.0, 100.0, 401)
    c = 0.37
    theta = 0.7 + c * sched.slow_gain_array(t)[:, None]
    traj = synthetic_trajectory(sched, t, theta)
    rep = slow_error_check(traj, np.array([0.7]), sched)
    assert rep.sup_ratio == pytest.approx(c, rel=1e-12)
    assert rep.ratio_trend == pytest.approx(1.0, rel=1e-12)


def test_slow_error_check_validation():
    sched = GainSchedule(0.7, 0.1)
    t = np.linspace(0.0, 10.0, 21)
    traj = synthetic_trajectory(sched, t, np.zeros((21, 1)))
    with pytest.raises(ConfigError):
        slow_error_check(traj, np.zeros(2), sched)
    short = synthetic_trajectory(sched, np.array([0.0, 10.0]), np.zeros((2, 1)))
    with pytest.raises(InsufficientSamples):
        slow_error_check(short, np.zeros(1), sched)


def test_slow_error_check_linear_bounded_under_doubling():
    system = make_linear_system()
    beta = 0.05
    theta_beta = find_root_g0(system, np.zeros(1), beta)
    sched = GainSchedule(0.7, beta)
    x0 = (np.zeros(1), np.zeros(1))
    reports = {}
    for horizon in (4000.0, 8000.0):
        traj = integrate(system, sched, x0, horizon)
        reports[horizon] = slow_error_check(traj, theta_beta, sched)
    base = reports[4000.0]
    assert 0.0 < base.sup_ratio < 10.0
    assert base.ratio_trend <= 2.0
    change = reports[8000.0].sup_ratio / base.sup_ratio
    assert 0.5 < change < 2.0


# ---------------------------------------------------------------------------
# bias sweep


def test_bias_sweep_g_independent_symmetric():
    basis = make_frequency_basis([(2, 1), (3, 1)])
    text = StageText(
        ("1.0 - th0",), ("th0 - la0 + 0.3 * xi1 * (la0 + 1.0)",), ("-1.0 + 0.3 * xi1",), 2, "",
        None, (), (),
    )
    system = TwoTimescaleSystem(1, 1, basis, text=text, theta_star=np.array([1.0]))
    out = bias_sweep(system, [0.2, 0.4])
    assert isinstance(out, SymmetricNoBias)
    assert out.threshold == pytest.approx(0.01)
    assert all(b < out.threshold for _, b in out.points)


def test_bias_sweep_linear_symmetric(tmp_path):
    # Cosine-only probing locks all coefficient phases, so the coupling
    # average vanishes identically and no first-order bias exists.
    out = bias_sweep(make_linear_system(), [0.16, 0.32], out_dir=tmp_path)
    assert isinstance(out, SymmetricNoBias)
    record = json.loads((tmp_path / "fit.json").read_text())
    assert record["outcome"] == "symmetric-no-bias"
    assert record["threshold"] == pytest.approx(0.01)
    assert (tmp_path / "sweep.csv").exists()


def test_bias_sweep_steps_off_theta_star():
    # |g0(theta*)| is below tol at both gains, yet Newton steps once: the
    # biases are the roots' distances from theta*, not zero
    system = make_linear_system()
    out = bias_sweep(system, [0.05, 0.1])
    assert isinstance(out, SymmetricNoBias)
    for beta, bias in out.points:
        far = abs(find_root_g0(system, [0.8], beta)[0] - system.theta_star[0])
        assert 0.0 < bias == pytest.approx(far, rel=1e-6)


def test_bias_sweep_quadrature_slope_one():
    system = quadrature_system()
    terms = pmeanflow_terms(system, GainSchedule(0.7, 0.1))
    x_star = np.array([1.0, -1.5])  # theta* and lambda*(theta*)
    ups = float(terms.upsilon_ff_bar(x_star)[0])
    assert ups > 0.05  # genuinely asymmetric

    fit = bias_sweep(system, [0.32, 0.16, 0.08], tol=1e-4, window=3000.0)
    assert isinstance(fit, RateFit)
    assert 0.9 <= fit.slope <= 1.1
    assert fit.r_squared >= 0.999
    # First-order bias formula: theta^beta - theta* = -beta * Ups_ff_bar.
    for beta, bias in fit.points:
        assert bias == pytest.approx(beta * ups, rel=0.05)


def test_bias_sweep_nonconvergent_names_beta():
    # tol below the averaging noise floor: the two-window drift check
    # inside the first field evaluation cannot pass.
    with pytest.raises(NonConvergent) as err:
        bias_sweep(quadrature_system(), [0.32], tol=1e-13, window=100.0)
    assert "beta = 0.32" in str(err.value)
    assert list(err.value.estimates) == ["first window average", "second window average"]


def test_bias_sweep_validation():
    system = make_linear_system()
    with pytest.raises(ConfigError):
        bias_sweep(system, [])
    no_star = TwoTimescaleSystem(1, 1, system.basis, probing=system.probing, text=system.text)
    with pytest.raises(ConfigError):
        bias_sweep(no_star, [0.1, 0.2, 0.4])


# ---------------------------------------------------------------------------
# perturbative identity suite


def test_pmf_suite_linear_analytic():
    rep = pmf_identity_suite(make_linear_system())
    assert rep.derivative == "analytic"
    assert rep.step1 < 1e-8
    assert rep.step2 < 1e-8
    assert rep.step3 < 1e-8
    assert rep.assembled < 1e-8
    assert rep.n_samples > 200
    assert rep.horizon == pytest.approx(6.0, rel=0.02)


def test_pmf_suite_xi_independent_identically_zero():
    rep = pmf_identity_suite(xi_free_system())
    assert rep.step1 == 0.0
    assert rep.step2 == 0.0
    assert rep.step3 == 0.0
    assert rep.assembled == 0.0


def test_pmf_suite_corrupted_coupling_average():
    x0 = (np.zeros(1), np.zeros(1))
    base = pmf_identity_suite(make_linear_system(), x0=x0, horizon=2.0)
    bad = pmf_identity_suite(
        make_linear_system(), x0=x0, horizon=2.0, corrupt_upsilon_ff=0.1
    )
    assert bad.step3 == pytest.approx(0.1, abs=1e-12)
    assert bad.step1 == base.step1
    assert bad.step2 == base.step2
    assert bad.assembled == base.assembled
    assert base.step3 < 1e-8


def test_pmf_suite_fd_second_order():
    system = make_linear_system()
    coarse = pmf_identity_suite(system, derivative="fd", fd_step=1e-3)
    fine = pmf_identity_suite(system, derivative="fd", fd_step=5e-4)
    assert coarse.derivative == "fd"
    for name in ("step1", "step2", "step3", "assembled"):
        hi, lo = getattr(coarse, name), getattr(fine, name)
        assert hi < 1e-4
        assert 3.5 < hi / lo < 4.5


def test_pmf_suite_fd_guards():
    system = make_linear_system()
    with pytest.raises(InsufficientSamples):
        pmf_identity_suite(system, derivative="fd", fd_step=5e-3)
    with pytest.raises(InsufficientSamples):
        pmf_identity_suite(system, derivative="fd", horizon=0.003)


def test_pmf_suite_zero_divisor():
    with pytest.raises(ZeroDivisor) as err:
        pmf_identity_suite(dependent_content_system())
    assert "(2, -1)" in str(err.value)


def test_pmf_suite_validation():
    basis = make_frequency_basis([(2, 1)])
    bare = TwoTimescaleSystem(1, 1, basis, text=one_tone_text("-th0", "-la0", "-1.0"))
    with pytest.raises(ConfigError):
        pmf_identity_suite(bare)
    with pytest.raises(ValueError):
        pmf_identity_suite(make_linear_system(), derivative="spectral")
