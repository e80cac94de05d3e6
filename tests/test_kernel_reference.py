"""Golden check of the stacked-state RK4 kernel against the per-block loops.

The reference below is the integrator as it stood before the coupled and
frozen-fast runs shared one kernel: one array per block, one update per
block, numpy-scalar gains.  It is kept verbatim, together with the
numpy-scalar callbacks of the built-in linear-3.1 and decoupled-test
systems, so that the kernel and the Python-float callbacks are held to
bit-identical trajectories, not merely close ones.

The extremum seeker's callbacks are kept the same way, as they stood before
the measurement was memoized: one objective evaluation per callback, no
memo.  A memo that returned a stale value would show up as a trajectory
that differs from the reference.  Each form of objective is held to that
reference: the built-in quadratic on both sides of its float/numpy split,
a plain function, an Objective subclass with its own __call__ and an
external command.
"""

import math
import sys
import threading

import numpy as np
import pytest

from qsakit.dynamics import _CHUNK as KERNEL_CHUNK
from qsakit.dynamics import (
    GainSchedule,
    Trajectory,
    TwoTimescaleSystem,
    _pinned_gains,
    _resolve_step,
    _rk4,
    integrate,
    integrate_frozen_fast,
    step_bound,
)
from qsakit.errors import ConfigError, NonFinite
from qsakit.esc import (
    EscConfig,
    Objective,
    ProcessObjective,
    _objective_value,
    build_esc_system,
    quadratic_objective,
    quartic_objective,
)
from qsakit.filters import SecondOrderFilter, StateSpaceFilter
from qsakit.meanflow import mean_field_g0
from qsakit.probing import clock_phases, make_frequency_basis
from qsakit.systems import make_decoupled_system, make_esc_quadratic, make_linear_system

#: steps per precomputed probe/gain block of the reference loops
_CHUNK = 1 << 14

FIELDS = ("t", "theta", "lam", "a", "beta", "phases", "lam_filtered", "dlam_filtered")


# -- reference: the per-block loops, verbatim --------------------------------


def _sample_count(n_steps, stride):
    n = n_steps // stride + 1
    if n_steps % stride:
        n += 1
    return n


def reference_integrate(
    system,
    schedule,
    x0,
    horizon,
    *,
    step=None,
    filt=None,
    sample_stride=1,
    filter_init=None,
):
    """Integrate the coupled pair with RK4 on a uniform grid.

    x0 is the pair (theta0, lambda0).  With filt (a SecondOrderFilter) the
    state is extended by (Lambda^F, dLambda^F), initialized to (lambda0, 0)
    unless filter_init overrides them.  The filter only observes Lambda:
    the slow field reads the raw Lambda, so theta and lam are identical to
    an unfiltered run.  Samples are stored every sample_stride steps plus
    the final time.  Raises NonFinite with the offending time on blow-up.
    """
    if sample_stride < 1:
        raise ConfigError(f"sample_stride must be >= 1, got {sample_stride}")
    theta = np.atleast_1d(np.asarray(x0[0], dtype=float)).copy()
    lam = np.atleast_1d(np.asarray(x0[1], dtype=float)).copy()
    if theta.shape != (system.dim_slow,) or lam.shape != (system.dim_fast,):
        raise ConfigError(
            f"x0 shapes {theta.shape}/{lam.shape} do not match system "
            f"dimensions {system.dim_slow}/{system.dim_fast}"
        )
    h, n_steps = _resolve_step(system.basis, schedule.beta, horizon, step)

    use_filter = filt is not None
    if use_filter:
        if filter_init is None:
            lam_f = lam.copy()
            vel_f = np.zeros_like(lam)
        else:
            lam_f = np.atleast_1d(np.asarray(filter_init[0], dtype=float)).copy()
            vel_f = np.atleast_1d(np.asarray(filter_init[1], dtype=float)).copy()
            if lam_f.shape != lam.shape or vel_f.shape != lam.shape:
                raise ConfigError("filter_init shapes must match lambda0")
        gamma2 = filt.gamma**2
        two_zg = 2.0 * filt.zeta * filt.gamma
    else:
        lam_f = vel_f = None

    g_cb, h_cb, gp_cb = system.g, system.h, system.g_probe
    pmap = system.probing
    basis = system.basis

    n_samp = _sample_count(n_steps, sample_stride)
    t_samp = np.zeros(n_samp)
    theta_samp = np.zeros((n_samp, theta.shape[0]))
    lam_samp = np.zeros((n_samp, lam.shape[0]))
    lamf_samp = np.zeros((n_samp, lam.shape[0])) if use_filter else None
    velf_samp = np.zeros((n_samp, lam.shape[0])) if use_filter else None
    cursor = 0

    def record(step_index):
        nonlocal cursor
        t_samp[cursor] = step_index * h
        theta_samp[cursor] = theta
        lam_samp[cursor] = lam
        if use_filter:
            lamf_samp[cursor] = lam_f
            velf_samp[cursor] = vel_f
        cursor += 1

    def deriv(th, la, lf, vf, xi, a, b):
        gv = np.asarray(g_cb(th, la, xi), dtype=float)
        if gp_cb is not None:
            gv = gv + a * np.asarray(gp_cb(th, la, xi), dtype=float)
        dth = a * gv
        dla = b * np.asarray(h_cb(th, la, xi), dtype=float)
        if use_filter:
            return dth, dla, vf, gamma2 * (la - lf) - two_zg * vf
        return dth, dla, None, None

    sixth = h / 6.0
    half = h * 0.5
    for chunk in range(0, n_steps, _CHUNK):
        m = min(_CHUNK, n_steps - chunk)
        # stage times for steps chunk..chunk+m-1: half-grid from chunk*h
        ts = (chunk + 0.5 * np.arange(2 * m + 1)) * h
        xi_all = pmap(np.exp(2j * math.pi * clock_phases(basis, ts)))
        a_all = schedule.slow_gain_array(ts)
        b_all = schedule.fast_gain_array(ts)
        for i in range(m):
            gi = chunk + i
            if gi % sample_stride == 0:
                record(gi)
            j = 2 * i
            xi0, xim, xi1 = xi_all[:, j], xi_all[:, j + 1], xi_all[:, j + 2]
            a0, am, a1 = a_all[j], a_all[j + 1], a_all[j + 2]
            b0, bm, b1 = b_all[j], b_all[j + 1], b_all[j + 2]

            k1 = deriv(theta, lam, lam_f, vel_f, xi0, a0, b0)
            if use_filter:
                k2 = deriv(
                    theta + half * k1[0], lam + half * k1[1],
                    lam_f + half * k1[2], vel_f + half * k1[3], xim, am, bm,
                )
                k3 = deriv(
                    theta + half * k2[0], lam + half * k2[1],
                    lam_f + half * k2[2], vel_f + half * k2[3], xim, am, bm,
                )
                k4 = deriv(
                    theta + h * k3[0], lam + h * k3[1],
                    lam_f + h * k3[2], vel_f + h * k3[3], xi1, a1, b1,
                )
                lam_f = lam_f + sixth * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2])
                vel_f = vel_f + sixth * (k1[3] + 2.0 * (k2[3] + k3[3]) + k4[3])
            else:
                k2 = deriv(theta + half * k1[0], lam + half * k1[1], None, None, xim, am, bm)
                k3 = deriv(theta + half * k2[0], lam + half * k2[1], None, None, xim, am, bm)
                k4 = deriv(theta + h * k3[0], lam + h * k3[1], None, None, xi1, a1, b1)
            theta = theta + sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
            lam = lam + sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
            ok = np.all(np.isfinite(theta)) and np.all(np.isfinite(lam))
            if ok and use_filter:
                ok = np.all(np.isfinite(lam_f)) and np.all(np.isfinite(vel_f))
            if not ok:
                raise NonFinite((gi + 1) * h)
    record(n_steps)

    t_samp = t_samp[:cursor]
    return Trajectory(
        t=t_samp,
        theta=theta_samp[:cursor],
        lam=lam_samp[:cursor],
        a=schedule.slow_gain_array(t_samp),
        beta=schedule.fast_gain_array(t_samp),
        phases=clock_phases(basis, t_samp),
        lam_filtered=lamf_samp[:cursor] if use_filter else None,
        dlam_filtered=velf_samp[:cursor] if use_filter else None,
    )


def reference_integrate_frozen_fast(
    system, theta, lambda0, beta, horizon, *, step=None, sample_stride=1
):
    """Integrate the fast variable alone with the slow one pinned:

        d/dt Lambda = beta * h(theta, Lambda, xi_t).

    Returns a Trajectory whose theta block repeats the frozen value and
    whose slow-gain column is zero.
    """
    if sample_stride < 1:
        raise ConfigError(f"sample_stride must be >= 1, got {sample_stride}")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    lam = np.atleast_1d(np.asarray(lambda0, dtype=float)).copy()
    if theta.shape != (system.dim_slow,) or lam.shape != (system.dim_fast,):
        raise ConfigError("frozen state shapes do not match system dimensions")
    if beta <= 0:
        raise ConfigError(f"beta must be positive, got {beta}")
    h, n_steps = _resolve_step(system.basis, beta, horizon, step)

    h_cb = system.h
    pmap = system.probing
    basis = system.basis

    n_samp = _sample_count(n_steps, sample_stride)
    t_samp = np.zeros(n_samp)
    lam_samp = np.zeros((n_samp, lam.shape[0]))
    cursor = 0

    sixth = h / 6.0
    half = h * 0.5
    for chunk in range(0, n_steps, _CHUNK):
        m = min(_CHUNK, n_steps - chunk)
        ts = (chunk + 0.5 * np.arange(2 * m + 1)) * h
        xi_all = pmap(np.exp(2j * math.pi * clock_phases(basis, ts)))
        for i in range(m):
            gi = chunk + i
            if gi % sample_stride == 0:
                t_samp[cursor] = gi * h
                lam_samp[cursor] = lam
                cursor += 1
            j = 2 * i
            xi0, xim, xi1 = xi_all[:, j], xi_all[:, j + 1], xi_all[:, j + 2]
            k1 = beta * np.asarray(h_cb(theta, lam, xi0), dtype=float)
            k2 = beta * np.asarray(h_cb(theta, lam + half * k1, xim), dtype=float)
            k3 = beta * np.asarray(h_cb(theta, lam + half * k2, xim), dtype=float)
            k4 = beta * np.asarray(h_cb(theta, lam + h * k3, xi1), dtype=float)
            lam = lam + sixth * (k1 + 2.0 * (k2 + k3) + k4)
            if not np.all(np.isfinite(lam)):
                raise NonFinite((gi + 1) * h)
    t_samp[cursor] = n_steps * h
    lam_samp[cursor] = lam
    cursor += 1

    t_samp = t_samp[:cursor]
    return Trajectory(
        t=t_samp,
        theta=np.tile(theta, (cursor, 1)),
        lam=lam_samp[:cursor],
        a=np.zeros(cursor),
        beta=np.full(cursor, float(beta)),
        phases=clock_phases(basis, t_samp),
    )


# -- reference: the numpy-scalar callbacks of the built-in systems ------------


def reference_linear(alpha=2.0, s=(1.0, 1.0), b=(0.0, 0.0)):
    s1, s2 = s
    b1, b2 = b

    def g(theta, lam, xi):
        return np.atleast_1d(
            alpha * theta[0] + alpha * lam[0] + s1 * xi[0] * (theta[0] + 1.0) + b1
        )

    def h(theta, lam, xi):
        return np.atleast_1d(
            -2.0 * theta[0] - lam[0] + s2 * xi[1] * (lam[0] + 1.0) + b2
        )

    return _with_callbacks(make_linear_system(alpha, s, b), g, h)


def reference_decoupled():
    def g(theta, lam, xi):
        return np.atleast_1d(xi[0])

    def h(theta, lam, xi):
        return np.atleast_1d(-lam[0])

    return _with_callbacks(make_decoupled_system(), g, h)


# -- reference: the unmemoized extremum-seeker callbacks, verbatim -----------


def reference_probing_gain(config, theta):
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if config.gain_kind == "objective_scaled":
        return config.epsilon * math.sqrt(1.0 + _objective_value(config, theta))
    if config.gain_kind == "prior_scaled":
        dev = theta - config.theta_ctr
        return config.epsilon * math.sqrt(1.0 + float(dev @ dev) / config.sigma_p**2)
    return config.epsilon


def reference_quadratic(center=0.0, weights=1.0):
    c = np.asarray(center, dtype=float)
    w = np.asarray(weights, dtype=float)
    return Objective(fn=lambda th: 0.5 * float(np.sum(w * (th - c) ** 2)))


def reference_esc(config):
    F, G, H, J = config.washout.F, config.washout.G, config.washout.H, config.washout.J
    d = config.dim
    sigma = config.sigma
    ctr = config.theta_ctr

    def observe(theta, xi_raw):
        eps = reference_probing_gain(config, theta)
        return _objective_value(config, theta + eps * xi_raw) / eps

    def h_cb(theta, lam, xi):
        return F @ lam + G * observe(theta, xi[:d])

    def probe_term(theta, lam, xi):
        filtered = float(H @ lam) + J * observe(theta, xi[:d])
        return -xi[d:] * filtered

    if config.single_at:
        def g_cb(theta, lam, xi):
            return -sigma * (theta - ctr) + probe_term(theta, lam, xi)

        g_probe = None
    else:
        def g_cb(theta, lam, xi):
            return -sigma * (theta - ctr)

        g_probe = probe_term

    return _with_callbacks(build_esc_system(config), g_cb, h_cb, g_probe)


def _with_callbacks(system, g, h, g_probe=None):
    """A new system like system that runs the callbacks g, h and g_probe
    (through the array adapter), not system's own stage field."""
    return TwoTimescaleSystem(
        system.dim_slow, system.dim_fast, g, h, system.basis, system.probing,
        g_probe=g_probe, dh_dlambda=system.dh_dlambda,
    )


def assert_same(traj, ref):
    for name in FIELDS:
        got, want = getattr(traj, name), getattr(ref, name)
        if want is None:
            assert got is None, name
        else:
            assert got.shape == want.shape, name
            assert np.array_equal(got, want), name


# -- cases --------------------------------------------------------------------

X0 = (np.array([0.3]), np.array([-0.2]))


def test_linear_plain_across_a_chunk_boundary():
    system, ref_system = make_linear_system(), reference_linear()
    sched = GainSchedule(rho=0.7, beta=0.1)
    horizon = 400.0
    _, n_steps = _resolve_step(system.basis, sched.beta, horizon, None)
    assert n_steps > _CHUNK
    assert_same(
        integrate(system, sched, X0, horizon),
        reference_integrate(ref_system, sched, X0, horizon),
    )


def test_linear_with_offsets():
    params = dict(alpha=1.5, s=(0.7, 1.3), b=(0.2, -0.4))
    system, ref_system = make_linear_system(**params), reference_linear(**params)
    sched = GainSchedule(rho=0.7, beta=0.2)
    assert_same(
        integrate(system, sched, X0, 30.0),
        reference_integrate(ref_system, sched, X0, 30.0),
    )


@pytest.mark.parametrize("filter_init", [None, (np.array([0.4]), np.array([-1.1]))])
def test_linear_filtered(filter_init):
    system, ref_system = make_linear_system(), reference_linear()
    sched = GainSchedule(rho=0.7, beta=0.16)
    filt = SecondOrderFilter(sched.beta)
    kw = dict(filt=filt, filter_init=filter_init)
    assert_same(
        integrate(system, sched, X0, 60.0, **kw),
        reference_integrate(ref_system, sched, X0, 60.0, **kw),
    )


def test_esc_probe_feedback_path():
    system = make_esc_quadratic(single_at=False)
    assert system.g_probe is not None
    sched = GainSchedule(rho=0.7, beta=1.0)
    x0 = (np.array([0.4]), np.array([0.1]))
    assert_same(
        integrate(system, sched, x0, 40.0),
        reference_integrate(system, sched, x0, 40.0),
    )


def test_decoupled():
    sched = GainSchedule(rho=0.8, beta=0.5)
    assert_same(
        integrate(make_decoupled_system(), sched, X0, 25.0),
        reference_integrate(reference_decoupled(), sched, X0, 25.0),
    )


def test_stride_with_partial_final_stride():
    system, ref_system = make_linear_system(), reference_linear()
    sched = GainSchedule(rho=0.7, beta=0.1)
    horizon = 20.0
    _, n_steps = _resolve_step(system.basis, sched.beta, horizon, None)
    assert n_steps % 7 != 0
    filt = SecondOrderFilter(sched.beta)
    assert_same(
        integrate(system, sched, X0, horizon, sample_stride=7, filt=filt),
        reference_integrate(ref_system, sched, X0, horizon, sample_stride=7, filt=filt),
    )


@pytest.mark.parametrize("stride", [1, 7])
def test_frozen_fast_on_esc(stride):
    system = make_esc_quadratic()
    args = (system, np.array([0.7]), np.array([0.2]), 1.0, 50.0)
    assert_same(
        integrate_frozen_fast(*args, sample_stride=stride),
        reference_integrate_frozen_fast(*args, sample_stride=stride),
    )


@pytest.mark.filterwarnings("ignore:overflow")
def test_blow_up_time():
    basis = make_frequency_basis([(2, 1)])
    system = TwoTimescaleSystem(
        1, 1, lambda t, l, x: np.atleast_1d(t[0] ** 2), lambda t, l, x: np.zeros(1), basis
    )
    sched = GainSchedule(rho=0.7, beta=0.1)
    x0 = (np.array([2.0]), np.zeros(1))
    with pytest.raises(NonFinite) as got:
        integrate(system, sched, x0, 10.0)
    with pytest.raises(NonFinite) as want:
        reference_integrate(system, sched, x0, 10.0)
    assert got.value.time == want.value.time


@pytest.mark.filterwarnings("ignore:overflow")
def test_frozen_fast_blow_up_time():
    basis = make_frequency_basis([(2, 1)])
    system = TwoTimescaleSystem(
        1, 1, lambda t, l, x: np.zeros(1), lambda t, l, x: np.atleast_1d(1.0 + l[0] ** 2), basis
    )
    args = (system, np.zeros(1), np.zeros(1), 2.0, 5.0)
    with pytest.raises(NonFinite) as got:
        integrate_frozen_fast(*args)
    with pytest.raises(NonFinite) as want:
        reference_integrate_frozen_fast(*args)
    assert got.value.time == want.value.time


def _nan_past(limit):
    """A field of 1.0 that turns NaN once its input passes limit."""
    return lambda v: np.atleast_1d(np.nan if v[0] > limit else 1.0)


def test_nan_blow_up_time():
    # NaN rather than an overflow to inf: theta grows with integral(a) and
    # the slow field goes NaN at theta = 2.5, well inside the horizon
    field = _nan_past(2.5)
    system = TwoTimescaleSystem(
        1, 1, lambda t, l, x: field(t), lambda t, l, x: np.zeros(1), make_frequency_basis([(2, 1)])
    )
    sched = GainSchedule(rho=0.7, beta=0.1)
    x0 = (np.zeros(1), np.zeros(1))
    with pytest.raises(NonFinite) as got:
        integrate(system, sched, x0, 10.0)
    with pytest.raises(NonFinite) as want:
        reference_integrate(system, sched, x0, 10.0)
    assert got.value.time == want.value.time
    assert 0.0 < got.value.time < 10.0


def test_frozen_fast_nan_blow_up_time():
    field = _nan_past(1.5)
    system = TwoTimescaleSystem(
        1, 1, lambda t, l, x: np.zeros(1), lambda t, l, x: field(l), make_frequency_basis([(2, 1)])
    )
    args = (system, np.zeros(1), np.zeros(1), 2.0, 5.0)
    with pytest.raises(NonFinite) as got:
        integrate_frozen_fast(*args)
    with pytest.raises(NonFinite) as want:
        reference_integrate_frozen_fast(*args)
    assert got.value.time == want.value.time
    assert 0.0 < got.value.time < 5.0


# -- extremum seeker: memoized measurement against the unmemoized one --------

#: (quadratic objective parameters, EscConfig keywords) per probing gain
ESC_CASES = {
    "constant": (dict(center=1.0), dict(dim=1)),
    "objective_scaled": (dict(center=1.0), dict(dim=1, gain_kind="objective_scaled")),
    "prior_scaled": (
        dict(center=[1.0, -0.5], weights=[1.0, 4.0]),
        dict(dim=2, gain_kind="prior_scaled", sigma_p=0.1, theta_ctr=[0.9, -0.4], sigma=0.2),
    ),
}


def esc_pair(case="constant", single_at=True):
    """(seeker under test, reference seeker with the unmemoized callbacks)."""
    quad, kw = ESC_CASES[case]
    kw = dict(kw, epsilon=0.1, single_at=single_at)
    system = build_esc_system(EscConfig(objective=quadratic_objective(**quad), **kw))
    ref = reference_esc(EscConfig(objective=reference_quadratic(**quad), **kw))
    return system, ref


def _esc_x0(system):
    return (np.linspace(0.4, 0.1, system.dim_slow), np.array([0.1]))


@pytest.mark.parametrize("single_at", [True, False])
@pytest.mark.parametrize("case", sorted(ESC_CASES))
def test_esc_coupled_against_unmemoized_callbacks(case, single_at):
    system, ref = esc_pair(case, single_at)
    sched = GainSchedule(rho=0.7, beta=1.0)
    x0 = _esc_x0(system)
    assert_same(
        integrate(system, sched, x0, 40.0),
        reference_integrate(ref, sched, x0, 40.0),
    )


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("case", sorted(ESC_CASES))
def test_esc_frozen_fast_across_a_chunk_boundary(case, stride):
    system, ref = esc_pair(case)
    _, n_steps = _resolve_step(system.basis, 1.0, 50.0, None)
    assert n_steps > KERNEL_CHUNK
    args = (np.linspace(0.7, 0.2, system.dim_slow), np.array([0.2]), 1.0, 50.0)
    assert_same(
        integrate_frozen_fast(system, *args, sample_stride=stride),
        reference_integrate_frozen_fast(ref, *args, sample_stride=stride),
    )


@pytest.mark.parametrize("single_at", [True, False])
def test_esc_mean_field_g0_against_unmemoized_callbacks(single_at):
    system, ref = esc_pair(single_at=single_at)
    kw = dict(burn_in=5.0, window=20.0)
    log = []
    got = mean_field_g0(system, np.array([0.6]), 1.0, tol=1.0, **kw)
    want = mean_field_g0(_recorded(ref, log), np.array([0.6]), 1.0, tol=1.0, **kw)
    assert np.array_equal(got.value, want.value)
    assert got.osc_amplitude == want.osc_amplitude
    # the reference ran its own callbacks, not the seeker's stage field
    assert {name for name, _ in log} == {"g", "h"} | ({"g_probe"} if not single_at else set())


@pytest.mark.parametrize("single_at", [True, False])
def test_esc_objective_calls_per_step(single_at):
    calls = []

    def fn(th):
        calls.append(1)
        return 0.5 * float((th[0] - 1.0) ** 2)

    system = build_esc_system(
        EscConfig(objective=Objective(fn), epsilon=0.1, dim=1, single_at=single_at)
    )
    coupled = integrate(
        system, GainSchedule(rho=0.7, beta=1.0), (np.array([0.3]), np.zeros(1)), 10.0
    )
    assert len(calls) == 4 * (coupled.n_samples - 1)
    calls.clear()
    frozen = integrate_frozen_fast(system, np.array([0.7]), np.zeros(1), 1.0, 50.0)
    assert frozen.n_samples - 1 > KERNEL_CHUNK
    assert len(calls) == 2 * (frozen.n_samples - 1) + 1

    # objective_scaled measures f(theta) for eps(theta) once per distinct
    # theta as well: every stage of a coupled run, once in a frozen-fast run
    system = build_esc_system(
        EscConfig(
            objective=Objective(fn), epsilon=0.1, dim=1, single_at=single_at,
            gain_kind="objective_scaled",
        )
    )
    calls.clear()
    coupled = integrate(
        system, GainSchedule(rho=0.7, beta=1.0), (np.array([0.3]), np.zeros(1)), 10.0
    )
    assert len(calls) == 8 * (coupled.n_samples - 1)
    calls.clear()
    frozen = integrate_frozen_fast(system, np.array([0.7]), np.zeros(1), 1.0, 10.0)
    assert frozen.n_samples - 1 == 278
    assert len(calls) == 558


def quartic_pair(single_at):
    """The largest built-in stack: a 4-d quartic seeker, D = 4 + 1."""
    kw = dict(dim=4, gain_kind="objective_scaled", epsilon=0.1, single_at=single_at)
    system = build_esc_system(EscConfig(objective=quartic_objective(), **kw))
    ref = reference_esc(EscConfig(objective=quartic_objective(), **kw))
    assert system.dim_slow + system.dim_fast == 5
    return system, ref


@pytest.mark.parametrize("single_at", [True, False])
def test_esc_quartic_dim_4_coupled(single_at):
    system, ref = quartic_pair(single_at)
    sched = GainSchedule(rho=0.7, beta=1.0)
    x0 = _esc_x0(system)
    assert_same(
        integrate(system, sched, x0, 20.0),
        reference_integrate(ref, sched, x0, 20.0),
    )


@pytest.mark.parametrize("stride", [1, 7])
def test_esc_quartic_dim_4_frozen_fast(stride):
    system, ref = quartic_pair(False)
    args = (np.linspace(0.7, -0.2, 4), np.array([0.2]), 1.0, 20.0)
    assert_same(
        integrate_frozen_fast(system, *args, sample_stride=stride),
        reference_integrate_frozen_fast(ref, *args, sample_stride=stride),
    )


def test_esc_memo_sees_theta_changed_in_place():
    system, ref = esc_pair()
    theta, lam, xi = np.array([0.5]), np.array([0.2]), np.array([0.3, 0.6])
    first = system.h(theta, lam, xi)
    assert np.array_equal(first, ref.h(theta, lam, xi))
    theta[0] = 1.5
    second = system.h(theta, lam, xi)
    assert np.array_equal(second, ref.h(theta, lam, xi))
    assert not np.array_equal(first, second)


def test_esc_callbacks_take_lists_and_integer_arrays():
    system, ref = esc_pair()
    lam, xi = np.array([0.2]), np.array([0.3, 0.6])
    want_h = ref.h(np.array([2.0]), lam, xi)
    want_g = ref.g(np.array([2.0]), lam, xi)
    for theta in ([2], [2.0], np.array([2]), np.array([2.0])):
        assert np.array_equal(system.h(theta, lam, xi), want_h)
        assert np.array_equal(system.g(theta, lam, xi), want_g)


def test_esc_memo_shared_between_threads():
    # a caller may share one seeker across threads; each thread must
    # read its own measurement however the memo entry is overwritten
    system, ref = esc_pair()
    lam = np.array([0.2])
    points = [(np.array([0.1 * k]), np.array([0.3, 0.6 - 0.05 * k])) for k in range(8)]
    want = [ref.h(theta, lam, xi) for theta, xi in points]
    wrong = []

    def worker(offset):
        for i in range(4000):
            k = (offset + i // 2) % len(points)  # each point twice: hits and misses
            theta, xi = points[k]
            if not np.array_equal(system.h(theta, lam, xi), want[k]):
                wrong.append(k)

    threads = [threading.Thread(target=worker, args=(j,)) for j in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_esc_eps_memo_shared_between_threads():
    # objective_scaled: points share theta across probes, so threads
    # interleave eps(theta) hits with measurement misses
    system, ref = esc_pair("objective_scaled")
    lam = np.array([0.2])
    points = [(np.array([0.3 * (k // 4)]), np.array([0.3, 0.6 - 0.05 * k])) for k in range(8)]
    want = [ref.h(theta, lam, xi) for theta, xi in points]
    wrong = []

    def worker(offset):
        for i in range(4000):
            k = (offset + i) % len(points)
            theta, xi = points[k]
            if not np.array_equal(system.h(theta, lam, xi), want[k]):
                wrong.append(k)

    threads = [threading.Thread(target=worker, args=(j,)) for j in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


# -- extremum seeker: the float callbacks at the edges of their rounding rule --

#: a two-pole washout s^2 / (s^2 + 1.4 s + 1): F, G and H all have two
#: nonzero entries, so h runs numpy's order-2 matvec and dot
PLANAR_WASHOUT = StateSpaceFilter(
    F=[[0.0, 1.0], [-1.0, -1.4]], G=[0.0, 1.0], H=[-1.0, -1.4], J=1.0
)


def planar_pair(single_at):
    kw = dict(dim=1, epsilon=0.1, sigma=0.1, washout=PLANAR_WASHOUT, single_at=single_at)
    system = build_esc_system(EscConfig(objective=quadratic_objective(center=1.0), **kw))
    ref = reference_esc(EscConfig(objective=reference_quadratic(center=1.0), **kw))
    assert system.dim_fast == 2
    return system, ref


@pytest.mark.parametrize("single_at", [True, False])
def test_esc_planar_washout_coupled(single_at):
    system, ref = planar_pair(single_at)
    sched = GainSchedule(rho=0.7, beta=1.0)
    x0 = (np.array([0.3]), np.array([0.1, -0.2]))
    assert_same(
        integrate(system, sched, x0, 40.0),
        reference_integrate(ref, sched, x0, 40.0),
    )


@pytest.mark.parametrize("stride", [1, 7])
def test_esc_planar_washout_frozen_fast(stride):
    system, ref = planar_pair(False)
    args = (np.array([0.7]), np.array([0.2, -0.1]), 1.0, 50.0)
    assert_same(
        integrate_frozen_fast(system, *args, sample_stride=stride),
        reference_integrate_frozen_fast(ref, *args, sample_stride=stride),
    )


def zero_pair(single_at):
    """A seeker whose washout state stays at exactly 0.0 for the whole run.

    The flat objective evaluates to -0.0 (as -0.5 * 0.0 does), so every
    measurement is -0.0 and F*lambda, H*lambda at lambda = 0.0 are -0.0
    products.  Whether a field output is +0.0 or -0.0 then depends on
    rounding the 1x1 matvec and dot as numpy does (0.0 + m*l); sigma pulls
    theta toward the center so the slow state still moves.
    """
    kw = dict(dim=1, epsilon=0.1, sigma=0.5, theta_ctr=[0.2], single_at=single_at)
    flat = Objective(lambda th: -0.0)
    return build_esc_system(EscConfig(objective=flat, **kw)), reference_esc(
        EscConfig(objective=flat, **kw)
    )


def _recorded(system, log):
    """A new system running system's g, h and g_probe wrapped to log the
    bits of each output, so that a -0.0 where the reference has +0.0 shows."""
    cbs = {name: getattr(system, name) for name in ("g", "h", "g_probe")}
    logged = {name: cb and _logged(cb, name, log) for name, cb in cbs.items()}
    return _with_callbacks(system, **logged)


def _logged(cb, name, log):
    def wrapped(theta, lam, xi):
        out = cb(theta, lam, xi)
        log.append((name, np.asarray(out, dtype=float).tobytes()))
        return out

    return wrapped


@pytest.mark.parametrize("single_at", [True, False])
def test_esc_fast_state_at_signed_zero_coupled(single_at):
    system, ref = zero_pair(single_at)
    sched = GainSchedule(rho=0.7, beta=1.0)
    x0 = (np.array([0.4]), np.array([0.0]))
    got_log, want_log = [], []
    got = integrate(_recorded(system, got_log), sched, x0, 20.0)
    want = reference_integrate(_recorded(ref, want_log), sched, x0, 20.0)
    assert_same(got, want)
    assert got.lam.tobytes() == want.lam.tobytes()
    assert not got.lam.any() and got.theta[-1, 0] < 0.3
    assert len(got_log) == len(want_log) > 0
    assert got_log == want_log


def test_esc_fast_state_at_signed_zero_frozen_fast():
    system, ref = zero_pair(True)
    args = (np.array([0.4]), np.array([0.0]), 1.0, 20.0)
    got_log, want_log = [], []
    got = integrate_frozen_fast(_recorded(system, got_log), *args)
    want = reference_integrate_frozen_fast(_recorded(ref, want_log), *args)
    assert_same(got, want)
    assert got.lam.tobytes() == want.lam.tobytes()
    assert not got.lam.any()
    assert len(got_log) == len(want_log) > 0
    assert got_log == want_log


# -- the kernel's record hook -------------------------------------------------


def _hooked_run(system, theta, lam0, beta, n_steps, stride, start):
    """A frozen-fast _rk4 run whose record hook fills a preallocated buffer
    with analysis_floats; returns (t, samples, rows, calls)."""
    h = step_bound(system.basis, beta)
    n_samples = len(range(0, n_steps, stride)) + 1
    rows = np.empty((n_samples, system.dim_slow))
    calls = []

    def record(x, xi):
        rows[len(calls)] = np.array(system.analysis_floats(theta, x, xi))
        calls.append(list(x))

    t, samples = _rk4(
        system.stage, (system.dim_slow, system.dim_fast, "frozen-fast"), (theta.tolist(),),
        list(lam0), h, n_steps, stride, system, _pinned_gains(beta), start=start,
        record=record,
    )
    return t, samples, rows, calls


HOOK_SYSTEMS = {
    "linear-3.1": (make_linear_system, [0.3], [-0.2], 1.0),
    "esc-probe-feedback": (lambda: make_esc_quadratic(single_at=False), [0.7], [0.2], 1.0),
}


@pytest.mark.parametrize("start", [0, 5000])
@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("name", sorted(HOOK_SYSTEMS))
def test_record_hook_sees_the_samples(name, stride, start):
    make, theta, lam0, beta = HOOK_SYSTEMS[name]
    system = make()
    theta = np.array(theta)
    n_steps = KERNEL_CHUNK + 477  # crosses a chunk boundary, 1501 % 3 != 0
    t, samples, rows, calls = _hooked_run(system, theta, lam0, beta, n_steps, stride, start)
    assert len(calls) == t.shape[0] == samples.shape[0]
    # the hook saw each stored state, the final one included
    assert np.array_equal(np.array(calls), samples)
    assert t[-1] == (start + n_steps) * step_bound(system.basis, beta)
    xi = system.probing(np.exp(2j * math.pi * clock_phases(system.basis, t)))
    for k in range(t.shape[0]):
        want = np.array(system.analysis_floats(theta, samples[k], xi[:, k]))
        assert rows[k].tobytes() == want.tobytes(), k


def test_record_hook_leaves_the_run_unchanged():
    system = make_esc_quadratic()
    args = (system, np.array([0.7]), np.array([0.2]), 1.0, 50.0)
    seen = []
    hooked = integrate_frozen_fast(*args, _record=lambda th, x, xi: seen.append(x))
    assert_same(hooked, integrate_frozen_fast(*args))
    assert len(seen) == hooked.n_samples


@pytest.mark.filterwarnings("ignore:overflow")
def test_record_hook_blow_up_time():
    basis = make_frequency_basis([(2, 1)])
    system = TwoTimescaleSystem(
        1, 1, lambda t, l, x: np.zeros(1), lambda t, l, x: np.atleast_1d(1.0 + l[0] ** 2), basis
    )
    args = (system, np.zeros(1), np.zeros(1), 2.0, 5.0)
    seen = []
    with pytest.raises(NonFinite) as got:
        integrate_frozen_fast(*args, _record=lambda th, x, xi: seen.append(x))
    with pytest.raises(NonFinite) as want:
        integrate_frozen_fast(*args)
    assert got.value.time == want.value.time
    assert seen and all(map(math.isfinite, seen[-1]))


def test_cubic_seeker_g0_objective_calls():
    # the averaged slow field reuses the run's measurements: one g0 call
    # costs exactly the frozen-fast run's 2 * n_steps + 1 objective calls
    # (the two-pass averager measured again at each of the 22,182 kept
    # samples, 67,655 calls in all)
    calls = []

    def cubic(th):
        calls.append(1)
        x = th[0] - 1.0
        return 0.5 * x**2 + x**3

    system = build_esc_system(
        EscConfig(objective=Objective(cubic), epsilon=0.1, dim=1, single_at=True)
    )
    mean_field_g0(system, np.array([1.2]), 1.0, burn_in=20.0, window=400.0)
    _, n_steps = _resolve_step(system.basis, 1.0, 820.0, None)
    assert len(calls) == 2 * n_steps + 1 == 45_473


# -- objective forms: each through the seeker against the reference ---------


def _bowl(th):
    """A quadratic bowl with a quartic term, on a float64 array."""
    x = th - 0.5
    return float(0.5 * (x @ x) + 0.25 * x[0] * x[0] * x[0] * x[0])


class _ArrayOnly(Objective):
    """An Objective subclass that takes its point itself and insists on one
    1-D float64 ndarray."""

    def __call__(self, theta):
        assert type(theta) is np.ndarray, type(theta)
        assert theta.dtype == np.float64 and theta.ndim == 1, (theta.dtype, theta.shape)
        return _bowl(theta)


#: eight tones with a new prime in each ratio, so rationally independent
EIGHT_TONES = make_frequency_basis(
    [(2, 1), (3, 2), (5, 3), (7, 5), (11, 7), (13, 11), (17, 13), (19, 17)]
)
CENTER_8 = np.linspace(0.5, 0.1, 8)
WEIGHTS_8 = np.linspace(0.5, 2.25, 8)

#: (seeker's objective, reference's objective, EscConfig keywords) per form
OBJECTIVE_FORMS = {
    "plain-function": (lambda: _bowl, lambda: _bowl, dict(dim=2)),
    "array-only-subclass": (lambda: _ArrayOnly(None), lambda: _bowl, dict(dim=2)),
    # from 8 coordinates on the quadratic takes the numpy expression
    "quadratic-8": (
        lambda: quadratic_objective(center=CENTER_8, weights=WEIGHTS_8),
        lambda: reference_quadratic(center=CENTER_8, weights=WEIGHTS_8),
        dict(dim=8, probing=EIGHT_TONES, sigma=0.2),
    ),
}


def form_pair(form, single_at=True):
    objective, reference, kw = OBJECTIVE_FORMS[form]
    kw = dict(kw, epsilon=0.1, single_at=single_at)
    system = build_esc_system(EscConfig(objective=objective(), **kw))
    return system, reference_esc(EscConfig(objective=reference(), **kw))


@pytest.mark.parametrize("single_at", [True, False])
@pytest.mark.parametrize("form", sorted(OBJECTIVE_FORMS))
def test_esc_objective_forms_coupled(form, single_at):
    system, ref = form_pair(form, single_at)
    sched = GainSchedule(rho=0.7, beta=1.0)
    x0 = _esc_x0(system)
    assert_same(
        integrate(system, sched, x0, 20.0),
        reference_integrate(ref, sched, x0, 20.0),
    )


@pytest.mark.parametrize("form", sorted(OBJECTIVE_FORMS))
def test_esc_objective_forms_frozen_fast(form):
    system, ref = form_pair(form)
    args = (np.linspace(0.7, 0.2, system.dim_slow), np.array([0.2]), 1.0, 20.0)
    assert_same(
        integrate_frozen_fast(system, *args, sample_stride=3),
        reference_integrate_frozen_fast(ref, *args, sample_stride=3),
    )


def test_esc_process_objective():
    # one process per evaluation, so a short run; printing the float's repr
    # and reading '.17g' decimals round-trip exactly, so the bits match
    command = [
        sys.executable,
        "-c",
        "import sys; x = float(sys.stdin.read().split()[0]) - 1.0; print(0.5 * x * x)",
    ]
    calls = []

    def half_square(th):
        calls.append(1)
        x = th[0] - 1.0
        return 0.5 * x * x

    kw = dict(dim=1, epsilon=0.1, single_at=True)
    process = ProcessObjective(command)
    system = build_esc_system(EscConfig(objective=process, **kw))
    counted = build_esc_system(EscConfig(objective=Objective(half_square), **kw))
    ref = reference_esc(EscConfig(objective=half_square, **kw))
    sched = GainSchedule(rho=0.7, beta=1.0)
    x0 = (np.array([0.3]), np.array([0.1]))
    frozen = (np.array([0.7]), np.array([0.2]), 1.0, 0.2)
    assert_same(integrate(system, sched, x0, 0.2), reference_integrate(ref, sched, x0, 0.2))
    assert_same(
        integrate_frozen_fast(system, *frozen), reference_integrate_frozen_fast(ref, *frozen)
    )
    calls.clear()
    integrate(counted, sched, x0, 0.2)
    integrate_frozen_fast(counted, *frozen)
    assert process.evaluations == len(calls) == 4 * 6 + 2 * 6 + 1
