"""Golden check of the stacked-state RK4 kernel against the per-block loops.

The reference below is the integrator as it stood before the coupled and
frozen-fast runs shared one kernel: one array per block, one update per
block, numpy-scalar gains.  It is kept verbatim, together with the
numpy-scalar callbacks of the built-in linear-3.1 and decoupled-test
systems, so that the kernel and the Python-float callbacks are held to
bit-identical trajectories, not merely close ones.
"""

import copy
import math

import numpy as np
import pytest

from qsakit.dynamics import (
    GainSchedule,
    Trajectory,
    TwoTimescaleSystem,
    _resolve_step,
    integrate,
    integrate_frozen_fast,
)
from qsakit.errors import ConfigError, NonFinite
from qsakit.filters import SecondOrderFilter
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


def _with_callbacks(system, g, h):
    ref = copy.copy(system)
    ref.g, ref.h = g, h
    return ref


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


def test_linear_with_offsets_and_constant_gain():
    params = dict(alpha=1.5, s=(0.7, 1.3), b=(0.2, -0.4))
    system, ref_system = make_linear_system(**params), reference_linear(**params)
    sched = GainSchedule(rho=0.7, beta=0.2, mode="constant", alpha0=0.5)
    assert_same(
        integrate(system, sched, X0, 30.0),
        reference_integrate(ref_system, sched, X0, 30.0),
    )


@pytest.mark.parametrize("filter_init", [None, (np.array([0.4]), np.array([-1.1]))])
@pytest.mark.parametrize("mode", ["mixed", "vanishing"])
def test_linear_filtered(filter_init, mode):
    system, ref_system = make_linear_system(), reference_linear()
    sched = GainSchedule(rho=0.7, beta=0.16, mode=mode)
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
    sched = GainSchedule(rho=0.7, beta=0.1, mode="constant")
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
