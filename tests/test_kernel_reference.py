"""Golden check of the stacked-state RK4 kernel against the per-block loops.

The reference below is the integrator as it stood before the coupled and
frozen-fast runs shared one kernel: one array per block, one update per
block, numpy-scalar gains.  It is kept verbatim, together with the
numpy-scalar callbacks of the built-in linear-3.1 and decoupled-test
systems, so that the kernel and the Python-float callbacks are held to
bit-identical trajectories, not merely close ones.

The extremum seeker's callbacks are kept the same way, as they stood before
the measurement was memoized: one objective evaluation per callback, no
memo, with the washout products F lambda and H'lambda summed from 0.0 in
index order, as the seeker's text writes them at every washout order.  A memo that returned a stale value would show up as a trajectory
that differs from the reference.  Each form of objective is held to that
reference: the built-in quadratic on both sides of its float/numpy split,
a plain function, an Objective subclass with its own __call__ and an
external command.

The seeker's points and failures are also held to its stage field, the
one compiled from its text, stepped by the reference loop of
test_rk4_generated at every stage (on_stage_field), as runs stepped it
before they wrote the text into the loop.
"""

import contextlib

import math
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from qsakit import dynamics, lyapunov, meanflow
from qsakit.dynamics import _CHUNK as KERNEL_CHUNK
from qsakit.dynamics import (
    GainSchedule,
    StageText,
    Trajectory,
    TwoTimescaleSystem,
    _float_lists,
    _on_text,
    _pinned_text,
    _reads_gain,
    _resolve_step,
    _rk4,
    integrate,
    integrate_frozen_fast,
    step_bound,
    text_field,
)
from qsakit.errors import ConfigError, NegativeObjective, NonFinite
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
from qsakit.lyapunov import lyapunov_exponent
from qsakit.meanflow import _slow_series, _windowed_run, mean_field_g0
from qsakit.probing import clock_phases, make_frequency_basis, probe_signal
from qsakit.systems import make_decoupled_system, make_esc_quadratic, make_linear_system
from test_rk4_generated import reference_rk4

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


def index_order_dot(row, v):
    """sum(row[m] * v[m]) from 0.0 in index order: at one element how
    numpy's 1x1 matvec and one-element dot round (0.0 + m*l)."""
    acc = 0.0
    for m, x in zip(row, v):
        acc = acc + m * x
    return acc


def reference_esc(config):
    F, G, H, J = config.washout.F, config.washout.G, config.washout.H, config.washout.J
    d = config.dim
    sigma = config.sigma
    ctr = config.theta_ctr

    def observe(theta, xi_raw):
        eps = reference_probing_gain(config, theta)
        return _objective_value(config, theta + eps * xi_raw) / eps

    def h_cb(theta, lam, xi):
        return np.array([index_order_dot(f, lam) for f in F]) + G * observe(theta, xi[:d])

    def probe_term(theta, lam, xi):
        filtered = index_order_dot(H, lam) + J * observe(theta, xi[:d])
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
    """What the reference loops read of system, with the callbacks g, h
    and g_probe (theta, lam, xi) -> array in place of its field: its
    dimensions, basis, probe map and probe row length, and its fast
    Jacobian dh_dlambda (theta, lam, xi) -> its entries, row-major,
    compiled from its text.  callback_system runs the callbacks in the
    package."""
    return SimpleNamespace(
        dim_slow=system.dim_slow, dim_fast=system.dim_fast, basis=system.basis,
        probing=system.probing, row=system.text.row, dh_dlambda=text_field(system.text)[1],
        g=g, h=h, g_probe=g_probe,
    )


def callback_stage(g, h, g_probe=None):
    """The stage field of the array callbacks g, h and g_probe: they get
    float64 arrays, in the order g, g_probe, h (each only when its gain is
    given), and slow = a*(g + a*g_probe), or a*g, and fast = b*h are read
    back as lists, as the reference loops compute them."""

    def stage(theta, lam, xi, a, b):
        th, la, xv, slow, fast = np.array(theta), np.array(lam), np.array(xi), None, None
        if a is not None:
            gv = np.asarray(g(th, la, xv), dtype=float)
            if g_probe is not None:
                gv = gv + a * np.asarray(g_probe(th, la, xv), dtype=float)
            slow = (a * gv).tolist()
        if b is not None:
            fast = (b * np.asarray(h(th, la, xv), dtype=float)).tolist()
        return slow, fast

    return stage


def callback_text(ds, df, row, g, h, g_probe=None, jac=None):
    """A text that calls the array callbacks g, h and g_probe on float64
    arrays of the stage's theta, Lambda and probe row, rounding as
    callback_stage does: each slow part calls slow_at, g + a*g_probe (or
    g) at the stage's slow gain a, and the per-stage statement calls h.
    Its Jacobian's entries are jac's (theta, lam, xi) -> d*d values, or
    zeros without jac."""

    def slow_at(theta, lam, xi, a):
        th, la, xv = np.array(theta), np.array(lam), np.array(xi)
        gv = np.asarray(g(th, la, xv), dtype=float)
        if g_probe is not None:
            gv = gv + a * np.asarray(g_probe(th, la, xv), dtype=float)
        return gv.tolist()

    def fast_at(theta, lam, xi):
        return np.asarray(h(np.array(theta), np.array(lam), np.array(xi)), dtype=float).tolist()

    th, la, xi = ("".join(f"{v}{i}, " for i in range(n)) for v, n in (("th", ds), ("la", df), ("xi", row)))
    point = f"({th}), ({la}), ({xi})"
    return StageText(
        slow=tuple(f"slow_at({point}, a)[{i}]" for i in range(ds)),
        fast=tuple(f"hv[{i}]" for i in range(df)),
        jac=tuple(f"jac_at({point})[{k}]" if jac else "0.0" for k in range(df * df)),
        row=row, per_stage=f"hv = fast_at({point})", carry=None,
        names=("slow_at", "fast_at", "jac_at"), values=(slow_at, fast_at, jac),
    )


def callback_system(ref):
    """A system whose text runs ref's callbacks (callback_text), with ref's
    fast Jacobian."""
    text = callback_text(
        ref.dim_slow, ref.dim_fast, ref.row, ref.g, ref.h, ref.g_probe, ref.dh_dlambda
    )
    return TwoTimescaleSystem(ref.dim_slow, ref.dim_fast, ref.basis, ref.probing, text=text)


@contextlib.contextmanager
def on_stage_field():
    """Inside, every run steps its system's stage field, compiled from its
    text, with the reference loop (test_rk4_generated.reference_rk4) at
    every stage, and the averaged slow field calls it once per kept
    sample, as runs did before they wrote the text into the loop."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_rk4", reference_rk4)
        patch.setattr(lyapunov, "_rk4", reference_rk4)
        patch.setattr(meanflow, "_array_exact", lambda *args, **kwargs: False)
        yield


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
    # make_esc_quadratic(single_at=False) is esc_pair's constant case at
    # the doubled gain, whose text reads the stage's slow gain
    system = make_esc_quadratic(single_at=False)
    assert system.text is not None and _reads_gain(system.text)
    _, ref = esc_pair(single_at=False)
    sched = GainSchedule(rho=0.7, beta=1.0)
    x0 = (np.array([0.4]), np.array([0.1]))
    assert_same(
        integrate(system, sched, x0, 40.0),
        reference_integrate(ref, sched, x0, 40.0),
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
    args = (np.array([0.7]), np.array([0.2]), 1.0, 50.0)
    assert_same(
        integrate_frozen_fast(make_esc_quadratic(), *args, sample_stride=stride),
        reference_integrate_frozen_fast(esc_pair()[1], *args, sample_stride=stride),
    )


def one_tone_pair(slow, fast, g, h):
    """(system on the text a*(slow), b*(fast) over one tone's probe row,
    the reference's view of it with the same field as callbacks g, h)."""
    text = StageText((slow,), (fast,), ("0.0",), 1, "", None, (), ())
    system = TwoTimescaleSystem(1, 1, make_frequency_basis([(2, 1)]), text=text)
    return system, _with_callbacks(system, g, h)


@pytest.mark.filterwarnings("ignore:overflow")
def test_blow_up_time():
    system, ref = one_tone_pair(
        "th0 * th0", "0.0", lambda t, l, x: np.atleast_1d(t[0] ** 2), lambda t, l, x: np.zeros(1)
    )
    sched = GainSchedule(rho=0.7, beta=0.1)
    x0 = (np.array([2.0]), np.zeros(1))
    with pytest.raises(NonFinite) as got:
        integrate(system, sched, x0, 10.0)
    with pytest.raises(NonFinite) as want:
        reference_integrate(ref, sched, x0, 10.0)
    assert got.value.time == want.value.time


@pytest.mark.filterwarnings("ignore:overflow")
def test_frozen_fast_blow_up_time():
    system, ref = one_tone_pair(
        "0.0", "1.0 + la0 * la0",
        lambda t, l, x: np.zeros(1), lambda t, l, x: np.atleast_1d(1.0 + l[0] ** 2),
    )
    args = (np.zeros(1), np.zeros(1), 2.0, 5.0)
    with pytest.raises(NonFinite) as got:
        integrate_frozen_fast(system, *args)
    with pytest.raises(NonFinite) as want:
        reference_integrate_frozen_fast(ref, *args)
    assert got.value.time == want.value.time


def _nan_past(limit):
    """A field of 1.0 that turns NaN once its input passes limit."""
    return lambda v: np.atleast_1d(np.nan if v[0] > limit else 1.0)


def test_nan_blow_up_time():
    # NaN rather than an overflow to inf: theta grows with integral(a) and
    # the slow field goes NaN at theta = 2.5, well inside the horizon
    field = _nan_past(2.5)
    ref = _with_callbacks(
        make_decoupled_system(), lambda t, l, x: field(t), lambda t, l, x: np.zeros(1)
    )
    sched = GainSchedule(rho=0.7, beta=0.1)
    x0 = (np.zeros(1), np.zeros(1))
    with pytest.raises(NonFinite) as got:
        integrate(callback_system(ref), sched, x0, 10.0)
    with pytest.raises(NonFinite) as want:
        reference_integrate(ref, sched, x0, 10.0)
    assert got.value.time == want.value.time
    assert 0.0 < got.value.time < 10.0


def test_frozen_fast_nan_blow_up_time():
    field = _nan_past(1.5)
    ref = _with_callbacks(
        make_decoupled_system(), lambda t, l, x: np.zeros(1), lambda t, l, x: field(l)
    )
    args = (np.zeros(1), np.zeros(1), 2.0, 5.0)
    with pytest.raises(NonFinite) as got:
        integrate_frozen_fast(callback_system(ref), *args)
    with pytest.raises(NonFinite) as want:
        reference_integrate_frozen_fast(ref, *args)
    assert got.value.time == want.value.time
    assert 0.0 < got.value.time < 5.0


# -- extremum seeker: the stage field against the unmemoized callbacks -------

#: (quadratic objective parameters, EscConfig keywords) per probing gain;
#: at a constant gain with a single a_t the seeker runs on its text, which
#: writes the quadratic out on floats (the "text" cases: non-unit weights,
#: a -0.0 centre, sigma and theta_ctr in 1 to 3 dimensions)
ESC_CASES = {
    "constant": (dict(center=1.0), dict(dim=1)),
    "text d=1": (
        dict(center=-0.0, weights=2.5), dict(dim=1, sigma=0.3, theta_ctr=[0.25])
    ),
    "text d=2": (
        dict(center=[0.6, -0.0], weights=[0.5, 3.0]),
        dict(dim=2, sigma=0.2, theta_ctr=[-0.3, 0.4]),
    ),
    "text d=3": (
        dict(center=[0.5, -0.0, 0.3], weights=[1.5, 0.25, 4.0]),
        dict(dim=3, sigma=0.1, theta_ctr=[0.2, -0.1, 0.6]),
    ),
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


@pytest.mark.parametrize("case", sorted(ESC_CASES))
def test_esc_sensitivity_across_a_chunk_boundary(case):
    system, ref = esc_pair(case)
    _, n_steps = _resolve_step(system.basis, 1.0, 50.0, None)
    assert n_steps > KERNEL_CHUNK
    args = (np.linspace(0.7, 0.2, system.dim_slow), 1.0, np.array([0.2]), 50.0)
    assert lyapunov_exponent(system, *args) == lyapunov_exponent(callback_system(ref), *args)


@pytest.mark.parametrize("single_at", [True, False])
def test_esc_mean_field_g0_against_unmemoized_callbacks(single_at):
    system, ref = esc_pair(single_at=single_at)
    kw = dict(burn_in=5.0, window=20.0)
    log = []
    got = mean_field_g0(system, np.array([0.6]), 1.0, tol=1.0, **kw)
    want = mean_field_g0(callback_system(_recorded(ref, log)), np.array([0.6]), 1.0, tol=1.0, **kw)
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


def _fast(system, theta, lam, xi):
    """The stage field's fast part at b = 1.0 at array-likes, as an array."""
    return np.array(system.stage(*_float_lists(theta, lam, xi), None, 1.0)[1])


def test_esc_memo_sees_theta_changed_in_place():
    system, ref = esc_pair()
    theta, lam, xi = np.array([0.5]), np.array([0.2]), np.array([0.3, 0.6])
    first = _fast(system, theta, lam, xi)
    assert np.array_equal(first, ref.h(theta, lam, xi))
    theta[0] = 1.5
    second = _fast(system, theta, lam, xi)
    assert np.array_equal(second, ref.h(theta, lam, xi))
    assert not np.array_equal(first, second)


def test_esc_analysis_floats_take_lists_and_integer_arrays():
    system, ref = esc_pair()
    lam, xi = np.array([0.2]), np.array([0.3, 0.6])
    want_g = ref.g(np.array([2.0]), lam, xi)
    for theta in ([2], [2.0], np.array([2]), np.array([2.0])):
        assert np.array_equal(system.analysis_floats(theta, lam, xi), want_g)


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
            if not np.array_equal(_fast(system, theta, lam, xi), want[k]):
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
            if not np.array_equal(_fast(system, theta, lam, xi), want[k]):
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
#: nonzero entries, so F lambda and H'lambda are sums of two products
PLANAR_WASHOUT = StateSpaceFilter(
    F=[[0.0, 1.0], [-1.0, -1.4]], G=[0.0, 1.0], H=[-1.0, -1.4], J=1.0
)

#: a three-pole washout s^3 / (s^3 + 1.7 s^2 + 2.1 s + 1) in companion form:
#: F's last row and H hold three inexact products, so each sum's order shows
CUBIC_WASHOUT = StateSpaceFilter(
    F=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -2.1, -1.7]], G=[0.0, 0.0, 1.0],
    H=[-1.0, -2.1, -1.7], J=1.0,
)


def planar_pair(single_at, washout=PLANAR_WASHOUT):
    kw = dict(dim=1, epsilon=0.1, sigma=0.1, washout=washout, single_at=single_at)
    system = build_esc_system(EscConfig(objective=quadratic_objective(center=1.0), **kw))
    ref = reference_esc(EscConfig(objective=reference_quadratic(center=1.0), **kw))
    assert system.dim_fast == washout.order
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


@pytest.mark.parametrize("single_at", [True, False])
def test_esc_order_3_washout_coupled(single_at):
    system, ref = planar_pair(single_at, CUBIC_WASHOUT)
    sched = GainSchedule(rho=0.7, beta=1.0)
    x0 = (np.array([0.3]), np.array([0.1, -0.2, 0.05]))
    assert_same(
        integrate(system, sched, x0, 40.0),
        reference_integrate(ref, sched, x0, 40.0),
    )


@pytest.mark.parametrize("stride", [1, 7])
def test_esc_order_3_washout_frozen_fast(stride):
    system, ref = planar_pair(False, CUBIC_WASHOUT)
    args = (np.array([0.7]), np.array([0.2, -0.1, 0.3]), 1.0, 50.0)
    _, n_steps = _resolve_step(system.basis, 1.0, 50.0, None)
    assert n_steps > KERNEL_CHUNK
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
    """The reference's view of system with its g, h and g_probe wrapped to
    log the bits of each output."""
    cbs = {name: getattr(system, name) for name in ("g", "h", "g_probe")}
    logged = {name: cb and _logged(cb, name, log) for name, cb in cbs.items()}
    return SimpleNamespace(**{**vars(system), **logged})


def _stage_bits(stage, system, traj, beta):
    """The bits of each part that the stage field returns at each sample
    of system's run traj, at the sample's gains, so that a -0.0 where the
    reference has +0.0 shows."""
    xis = probe_signal(system.probing, system.basis, traj.t).T.tolist()
    out = []
    for i, xi in enumerate(xis):
        a = None if not traj.a[i] else float(traj.a[i])
        parts = stage(traj.theta[i].tolist(), traj.lam[i].tolist(), xi, a, beta)
        out.append(tuple(None if p is None else np.array(p).tobytes() for p in parts))
    return out


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
    got = integrate(system, sched, x0, 20.0)
    want = reference_integrate(ref, sched, x0, 20.0)
    assert_same(integrate(callback_system(ref), sched, x0, 20.0), want)
    assert_same(got, want)
    assert got.lam.tobytes() == want.lam.tobytes()
    assert not got.lam.any() and got.theta[-1, 0] < 0.3
    # the compiled stage field has the callbacks' signed zeros at every sample
    got_log = _stage_bits(system.stage, system, got, 1.0)
    want_log = _stage_bits(callback_stage(ref.g, ref.h, ref.g_probe), system, got, 1.0)
    assert len(got_log) == len(want_log) > 0
    assert got_log == want_log


def test_esc_fast_state_at_signed_zero_frozen_fast():
    system, ref = zero_pair(True)
    args = (np.array([0.4]), np.array([0.0]), 1.0, 20.0)
    got = integrate_frozen_fast(system, *args)
    want = reference_integrate_frozen_fast(ref, *args)
    assert_same(integrate_frozen_fast(callback_system(ref), *args), want)
    assert_same(got, want)
    assert got.lam.tobytes() == want.lam.tobytes()
    assert not got.lam.any()
    got_log = _stage_bits(system.stage, system, got, 1.0)
    want_log = _stage_bits(callback_stage(ref.g, ref.h, ref.g_probe), system, got, 1.0)
    assert len(got_log) == len(want_log) > 0
    assert got_log == want_log


# -- the averaged slow field, evaluated after the run ------------------------


def _row_logging(system, rows):
    """system without its frozen text, on its text with a statement that
    logs each stage's probe row, the list of the loop's floats, in call
    order."""
    text = system.text
    statement = "log_row([" + "".join(f"xi{i}, " for i in range(text.row)) + "])"
    text = text._replace(
        per_stage="; ".join(p for p in (statement, text.per_stage) if p),
        names=text.names + ("log_row",), values=text.values + (rows.append,),
    )
    return TwoTimescaleSystem(
        system.dim_slow, system.dim_fast, system.basis, system.probing, text=text
    )


def _array_callback_system():
    """A user system whose text calls array callbacks, with probing
    feedback."""
    text = callback_text(
        1, 1, 2,
        lambda t, l, x: np.array([0.3 * t[0] - l[0] * x[0]]),
        lambda t, l, x: np.array([-l[0] + x[1] * (t[0] + 0.5)]),
        lambda t, l, x: np.array([x[1] * l[0]]),
    )
    return TwoTimescaleSystem(1, 1, make_frequency_basis([(2, 1), (3, 1)]), text=text)


#: (system, theta) per path of the after-run slow field: text on arrays
#: (linear-3.1, decoupled-test, the seekers' frozen texts) and the stage
#: field per sample (the text that calls array callbacks)
SLOW_SYSTEMS = {
    "linear-3.1": (make_linear_system, [0.3]),
    "decoupled-test": (make_decoupled_system, [0.2]),
    "array-callbacks": (_array_callback_system, [0.4]),
    "esc-probe-feedback": (lambda: make_esc_quadratic(single_at=False), [0.7]),
    "esc-planar-washout": (lambda: planar_pair(False)[0], [0.6]),
}


@pytest.mark.parametrize("name", sorted(SLOW_SYSTEMS))
def test_slow_series_is_the_stage_field_at_the_kernel_rows(name):
    make, theta = SLOW_SYSTEMS[name]
    system, theta = make(), np.array(theta)
    lam0, burn_in, window = np.full(system.dim_fast, 0.2), 10.0, 20.0
    traj, m1, m2, series = _windowed_run(system, theta, 1.0, burn_in, window, lam0, True)
    rows = []
    logged = integrate_frozen_fast(
        _row_logging(system, rows), theta, lam0, 1.0, burn_in + 2.0 * window
    )
    assert_same(traj, logged)
    # each sample's row is its step's first stage's, the last stage's at the end
    n_steps = traj.n_samples - 1
    kernel_rows = rows[: 4 * n_steps : 4] + [rows[-1]]
    kept = np.nonzero(m1 | m2)[0]
    assert kept[0] < KERNEL_CHUNK < kept[-1] == n_steps
    assert series.shape == (kept.shape[0], system.dim_slow)
    for got, k in zip(series, kept):
        want = system.analysis_floats(theta, traj.lam[k], kernel_rows[k])
        assert got.tobytes() == np.array(want).tobytes(), k


#: (system, theta, lambda0, beta) of the kernel-level check below
HOOK_SYSTEMS = {
    "linear-3.1": (make_linear_system, [0.3], [-0.2], 1.0),
    "esc-probe-feedback": (lambda: make_esc_quadratic(single_at=False), [0.7], [0.2], 1.0),
}


@pytest.mark.parametrize("start", [0, 5000])
@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("name", sorted(HOOK_SYSTEMS))
def test_record_hook_sees_the_samples(name, stride, start):
    # named for the record hook the after-run evaluation replaced: at every
    # stored sample of a frozen-fast _rk4 run from step start on, with any
    # stride, _slow_series on the run's text (on arrays) and on a text
    # with a per-stage statement (per sample) is the stage field's slow
    # part at the kernel's state and probe row
    make, theta, lam0, beta = HOOK_SYSTEMS[name]
    system, theta = make(), np.array(theta)
    ds, df, th = system.dim_slow, system.dim_fast, theta.tolist()
    h = step_bound(system.basis, beta)
    n_steps = start + KERNEL_CHUNK + 477  # crosses a chunk boundary after start
    rows = []
    logging = _row_logging(system, rows)
    run = (h, n_steps, stride, system, None, beta)
    t, samples = _rk4(*_on_text(logging.text, (ds, df, "frozen-fast"), (th,), list(lam0)), *run)
    text = _pinned_text(system, th)
    shape, args, x = _on_text(text, (ds, df, "frozen-fast"), (th,), list(lam0))
    t_text, on_text = _rk4(shape, args, x, *run)
    assert t_text.tobytes() == t.tobytes()
    assert on_text[:, :df].tobytes() == samples.tobytes()
    assert t[-1] == n_steps * h
    # each sample's row is its step's first stage's, the last stage's at the end
    kernel_rows = rows[: 4 * n_steps : 4 * stride] + [rows[-1]]
    assert len(kernel_rows) == t.shape[0]
    keep = np.arange(t.shape[0]) >= -(-start // stride)  # the samples from step start on
    measured = None if text.carry is None else on_text[:, df]
    for run_text in (text, logging.text):
        traj = SimpleNamespace(t=t, lam=samples, measured=measured, text=run_text)
        series = _slow_series(system, theta, traj, keep)
        for got, k in zip(series, np.flatnonzero(keep), strict=True):
            want = system.analysis_floats(theta, samples[k], kernel_rows[k])
            assert got.tobytes() == np.array(want).tobytes(), (run_text is text, k)


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

def _bowl_scalar(th):
    """_bowl's bowl as a numpy scalar, not a float."""
    x = th - 0.5
    return 0.5 * (x @ x) + 0.25 * x[0] * x[0] * x[0] * x[0]


#: (seeker's objective, reference's objective, EscConfig keywords) per form
OBJECTIVE_FORMS = {
    "plain-function": (lambda: _bowl, lambda: _bowl, dict(dim=2)),
    "array-only-subclass": (lambda: _ArrayOnly(None), lambda: _bowl, dict(dim=2)),
    "numpy-scalar": (lambda: Objective(_bowl_scalar), lambda: _bowl_scalar, dict(dim=2)),
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
    # a coupled run on the text and on the stage field: one evaluation per
    # stage either way
    _, n_steps = _resolve_step(system.basis, 1.0, 0.05, None)
    for stepped in (contextlib.nullcontext(), on_stage_field()):
        before = process.evaluations
        with stepped:
            integrate(system, sched, x0, 0.05)
        assert process.evaluations - before == 4 * n_steps == 8


# -- frozen seeker runs: the frozen form against the stage field --------------
#
# A seeker runs its frozen-fast and sensitivity runs on its frozen form,
# which measures each new probe row once, in step order.  Its stage field,
# stepped at every stage (on_stage_field), measures at every stage:
# eps(theta) and the probe row each time.  So the form's objective calls
# are the stage field's with the calls at theta itself dropped and each
# repeat of the point just before collapsed, after one call at theta when
# eps depends on it: the same points in the same order, and a run that
# fails does so at the same point, with the same error.


def _logging_seeker(fn, points, **kw):
    """An order-1 seeker on fn, logging the bits of every point it evaluates."""

    def logged(th):
        points.append(th.tobytes())
        return fn(th)

    kw = {"dim": 1, "epsilon": 0.1, "single_at": True, **kw}
    return build_esc_system(EscConfig(objective=Objective(logged), **kw))


def _form_calls(points, theta):
    """The stage field's points as the frozen form makes them (see above)."""
    at_theta = np.array(theta, dtype=float).tobytes()
    out = []
    for p in points:
        if p != at_theta and (not out or out[-1] != p):
            out.append(p)
    return out


def _run_both(fn, run, exc=None, **kw):
    """run(system) on the seeker's text and frozen form, and on its stage
    field at every stage (on_stage_field), as (form points, stage-field
    points, form result, stage-field result); with exc, each run must
    raise it and its result is the exception."""
    logs, results = ([], []), []
    for log, stepped in zip(logs, (contextlib.nullcontext(), on_stage_field())):
        system = _logging_seeker(fn, log, **kw)
        assert system.frozen is not None
        with stepped:
            if exc is None:
                results.append(run(system))
            else:
                with pytest.raises(exc) as err:
                    run(system)
                results.append(err.value)
    return (*logs, *results)


def _probe_band(lo, hi, inside):
    """An objective near 1.0 that returns inside where lo < point < hi."""

    def fn(th):
        x = float(th[0])
        return inside if lo < x < hi else 0.5 * (x - 1.0) ** 2

    return fn


FROZEN_THETA = [0.7]


def test_frozen_form_blow_up_time():
    # inf at the rows whose probed point falls in a narrow band mid-run
    fn = _probe_band(0.7 - 0.0301, 0.7 - 0.03, math.inf)
    got, want, got_err, want_err = _run_both(
        fn, lambda s: integrate_frozen_fast(s, FROZEN_THETA, [0.2], 1.0, 40.0), NonFinite
    )
    assert got_err.time == want_err.time
    assert 1.0 < got_err.time < 40.0
    assert got == _form_calls(want, FROZEN_THETA)
    # the step that met inf (at k2 or k4) still measured its k4 row
    assert any(math.isinf(fn(np.frombuffer(p))) for p in got[-2:])


def test_frozen_form_negative_objective_row():
    fn = _probe_band(0.7 - 0.0301, 0.7 - 0.03, -1.0)
    got, want, got_err, want_err = _run_both(
        fn, lambda s: integrate_frozen_fast(s, FROZEN_THETA, [0.2], 1.0, 40.0),
        NegativeObjective, gain_kind="objective_scaled",
    )
    assert str(got_err) == str(want_err)
    # eps(theta) first, once, then each row once up to the negative one
    theta_bits = np.array(FROZEN_THETA).tobytes()
    assert got[0] == theta_bits and theta_bits not in got[1:]
    assert got[1:] == _form_calls(want, FROZEN_THETA)
    assert fn(np.frombuffer(got[-1])) < 0 and len(got) > 100


@pytest.mark.parametrize("gain_kind", ["constant", "objective_scaled"])
def test_frozen_form_lyapunov_exponent(gain_kind):
    # segments of one unit: the form carries the boundary row's measurement
    # into the next segment, the stage field measures it again
    got, want, got_est, want_est = _run_both(
        lambda th: 0.5 * (th[0] - 1.0) ** 2,
        lambda s: lyapunov_exponent(s, FROZEN_THETA, 1.0, [0.1], 12.0),
        gain_kind=gain_kind,
    )
    assert got_est == want_est
    tail = got[1:] if gain_kind == "objective_scaled" else got
    assert tail == _form_calls(want, FROZEN_THETA)


def test_frozen_form_process_objective_failure():
    # the external command reports inf near the probe's trough, about 40
    # rows in: the run stops at the same step, after the same evaluations,
    # as on the stage field with repeated points measured once
    command = [
        sys.executable,
        "-c",
        "import sys; x = float(sys.stdin.read().split()[0]); "
        "print('inf' if x < 0.601 else 0.5 * (x - 1.0) ** 2)",
    ]
    fn = _probe_band(-math.inf, 0.601, math.inf)
    process = ProcessObjective(command)
    system = build_esc_system(EscConfig(objective=process, dim=1, epsilon=0.1, single_at=True))
    run = lambda s: integrate_frozen_fast(s, FROZEN_THETA, [0.2], 1.0, 5.0)  # noqa: E731
    with pytest.raises(NonFinite) as got:
        run(system)
    got_points, want_points, _, want = _run_both(fn, run, NonFinite)
    assert got.value.time == want.time
    assert 10 < process.evaluations == len(got_points) == len(
        _form_calls(want_points, FROZEN_THETA)
    ) < 60


# -- coupled seeker runs: the text against the stage field ------------------
#
# At a constant gain with a single a_t an order-1 seeker's coupled run
# writes its text into the loop, which measures at every stage, as the
# stage field does: the same points in the same order, each a fresh
# float64 array, and a run that fails does so at the same point.


def _coupled(theta0):
    return lambda s: integrate(s, GainSchedule(rho=0.7, beta=1.0), ([theta0], [0.1]), 10.0)


def test_text_run_points_and_order():
    held = []

    def mutating(th):
        held.append(th)
        value = 0.5 * (th[0] - 1.0) ** 2
        th[0] = 99.0  # must not reach a later point
        return value

    got, want, got_run, want_run = _run_both(mutating, _coupled(0.3))
    assert got == want and len(got) == 4 * (got_run.n_samples - 1)
    assert_same(got_run, want_run)
    assert {(type(th), th.dtype, th.shape) for th in held} == {
        (np.ndarray, np.dtype(np.float64), (1,))
    }
    assert len({id(th) for th in held}) == len(held)  # all alive, so all distinct
    clean, _, clean_run, _ = _run_both(lambda th: 0.5 * (th[0] - 1.0) ** 2, _coupled(0.3))
    assert got == clean
    assert_same(got_run, clean_run)


@pytest.mark.parametrize("gain_kind", ["constant", "objective_scaled", "prior_scaled"])
@pytest.mark.parametrize("single_at", [True, False])
def test_coupled_objective_calls_on_text_and_stage_field(single_at, gain_kind):
    # every order-1 seeker's coupled run evaluates the objective at the
    # points of its stage field alone, bit for bit and in the same order:
    # 4 per step, and one more at theta per stage when eps depends on f(theta)
    fn = lambda th: 0.5 * (th[0] - 1.0) ** 2  # noqa: E731
    got, want, got_run, want_run = _run_both(
        fn, _coupled(0.3), single_at=single_at, gain_kind=gain_kind
    )
    assert got == want
    assert_same(got_run, want_run)
    per_stage = 2 if gain_kind == "objective_scaled" else 1
    assert len(got) == 4 * per_stage * (got_run.n_samples - 1)


@pytest.mark.filterwarnings("ignore:overflow")
def test_text_run_escape_time():
    # the constant-gain seeker escapes from theta0 = -0.5 at beta = 1
    fn = lambda th: 0.5 * (th[0] - 1.0) ** 2  # noqa: E731
    got, want, got_err, want_err = _run_both(fn, _coupled(-0.5), NonFinite)
    assert got == want
    assert got_err.time == want_err.time and 0.0 < got_err.time < 0.4
    # the built-in quadratic, written out on floats, escapes at that step too
    system = make_esc_quadratic()
    for stepped in (contextlib.nullcontext(), on_stage_field()):
        with stepped, pytest.raises(NonFinite) as err:
            _coupled(-0.5)(system)
        assert err.value.time == got_err.time


def test_text_run_objective_raising_on_its_nth_call():
    class Stop(Exception):
        pass

    logs = []
    for strip in (False, True):
        points = []

        def fn(th, points=points):
            if len(points) == 777:  # the point is logged before the call
                raise Stop
            return 0.5 * (th[0] - 1.0) ** 2

        system = _logging_seeker(fn, points)
        with on_stage_field() if strip else contextlib.nullcontext(), pytest.raises(Stop):
            _coupled(0.3)(system)
        logs.append(points)
    assert logs[0] == logs[1] and len(logs[0]) == 777


def test_text_run_negative_objective():
    # a constant gain has no sign guard: negative values run on the text
    # as on the stage field
    got, want, got_run, want_run = _run_both(lambda th: float(th[0]) - 5.0, _coupled(0.3))
    assert got == want
    assert_same(got_run, want_run)
    # the objective-scaled gain keeps its guard, on the text as on the
    # stage field
    got, want, got_err, want_err = _run_both(
        lambda th: float(th[0]) - 0.2, _coupled(0.3), NegativeObjective,
        gain_kind="objective_scaled",
    )
    assert got == want
    assert str(got_err) == str(want_err)
    assert str(got_err).startswith("objective value -")


def test_cubic_seeker_g0_objective_sequence():
    # the points of test_cubic_seeker_g0_objective_calls, in order: those of
    # the stage-field run's kernel, which measures its kept samples after
    # the run, at the points of the kernel's rows there
    got, want, got_est, want_est = _run_both(
        lambda th: 0.5 * (th[0] - 1.0) ** 2 + (th[0] - 1.0) ** 3,
        lambda s: mean_field_g0(s, np.array([1.2]), 1.0, burn_in=20.0, window=400.0),
    )
    _, n_steps = _resolve_step(make_esc_quadratic().basis, 1.0, 820.0, None)
    kept = len(want) - 4 * n_steps
    run, samples = want[:-kept], want[-kept:]
    assert got == _form_calls(run, [1.2])
    assert len(got) == 45_473 and kept == 22_182
    # each sample's point is its step's first stage's, the last stage's at the end
    assert samples == run[4 * (n_steps + 1 - kept) :: 4] + [run[-1]]
    assert got_est.value.tobytes() == want_est.value.tobytes()
    assert got_est.osc_amplitude == want_est.osc_amplitude


def test_esc_planar_washout_mean_field_g0():
    # an order-2 washout's frozen text: its slow part on the run's sampled
    # arrays, the measurement among them, is bit for bit the array
    # callbacks' at the kept samples after the run
    system, ref = planar_pair(False)
    assert system.frozen is not None
    kw = dict(burn_in=5.0, window=20.0)
    got = mean_field_g0(system, np.array([0.6]), 1.0, tol=1.0, **kw)
    want = mean_field_g0(callback_system(ref), np.array([0.6]), 1.0, tol=1.0, **kw)
    assert got.value.tobytes() == want.value.tobytes()
    assert got.osc_amplitude == want.osc_amplitude
