"""Averaged objects of the slow/fast decomposition.

Everything here reduces to time averages along frozen-fast trajectories:
the fast equilibrium map lambda*(theta) (up to O(beta) ripple), the
effective slow field gbar0(theta) and its root theta^beta.  Each average
takes one pass over its run: the fast equilibrium averages the sampled
Lambda, and gbar0 averages the slow field that the RK4 kernel's record
hook evaluates at each post-burn-in sample during the run.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import _checked_parts, _resolve_step, integrate_frozen_fast
from .errors import ConfigError, NonConvergent, SingularJacobian

MAX_NEWTON_ITERATIONS = 100
MIN_NEWTON_STEP = 2.0**-10
MAX_JACOBIAN_COND = 1e12


@dataclass(frozen=True)
class StationaryEstimate:
    """Trailing-window time average, its ripple, and the horizon used."""

    value: np.ndarray
    osc_amplitude: float
    horizon: float


def _windowed_run(system, theta, beta, burn_in, window, lambda0, slow_field=False):
    """Frozen-fast trajectory spanning a burn-in plus two averaging windows.

    Defaults: 20 fast time constants of burn-in, windows of 100 periods of
    the slowest probe tone.  Two windows are integrated so convergence can
    be judged by comparing their averages.  Returns (traj, m1, m2, series)
    with the sample masks m1, m2 of the two windows.  With slow_field,
    series holds the stage field's slow part at a = 1.0 at the samples of
    both windows (b = None), recorded during the run; else series is None.
    """
    if beta <= 0:
        raise ConfigError(f"beta must be positive, got {beta}")
    if burn_in is None:
        burn_in = 20.0 / beta
    if window is None:
        window = 100.0 / system.basis.min_omega
    if lambda0 is None:
        lambda0 = np.zeros(system.dim_fast)
    horizon = burn_in + 2.0 * window
    mid = burn_in + window
    record = series = None
    if slow_field:
        # the run's sample times, as the kernel computes them (stride 1)
        h, n_steps = _resolve_step(system.basis, beta, horizon, None)
        m1, m2 = _windows(np.arange(n_steps + 1) * h, burn_in, mid)
        kept = int(np.count_nonzero(m1 | m2))
        series = np.empty((kept, system.dim_slow))
        row = kept - (n_steps + 1)  # negative through the burn-in samples
        field, th = system.stage, theta.tolist()

        def stage(*args):
            nonlocal stage
            stage = field  # the first recorded sample is checked, the rest call field
            return _checked_parts(field(*args), system.dim_slow, None)

        def record(lam, xi):
            nonlocal row
            if row >= 0:
                series[row] = stage(th, lam, xi, 1.0, None)[0]
            row += 1

    traj = integrate_frozen_fast(system, theta, lambda0, beta, horizon, _record=record)
    m1, m2 = _windows(traj.t, burn_in, mid)
    return traj, m1, m2, series


def _windows(t, burn_in, mid):
    """Masks of the samples in the first and the second averaging window."""
    return (t >= burn_in) & (t < mid), t >= mid


def _two_window_estimate(series, m1, m2, tol, horizon, what):
    avg1 = series[m1].mean(axis=0)
    tail = series[m2]
    avg2 = tail.mean(axis=0)
    drift = float(np.max(np.abs(avg2 - avg1)))
    if drift > tol:
        raise NonConvergent(
            f"{what}: successive window averages differ by {drift:.3e} > {tol:.3e}"
        )
    osc = float(np.max(np.abs(tail - avg2)))
    return StationaryEstimate(value=avg2, osc_amplitude=osc, horizon=horizon)


def fast_equilibrium(
    system, theta, beta, tol=1e-3, *, burn_in=None, window=None, lambda0=None
):
    """Time average of the frozen-fast variable: the map lambda*(theta).

    The returned oscillation amplitude is the max deviation from the
    window mean, which bounds the probe-induced ripple around the
    equilibrium.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    traj, m1, m2, _ = _windowed_run(system, theta, beta, burn_in, window, lambda0)
    return _two_window_estimate(
        traj.lam, m1, m2, tol, float(traj.t[-1]), "fast equilibrium"
    )


def mean_field_g0(
    system, theta, beta, tol=1e-3, *, burn_in=None, window=None, lambda0=None
):
    """Stationary average of the slow field along the frozen-fast run.

    This realizes the integral of g against the joint invariant measure of
    (Lambda^theta, xi) by time averaging after burn-in, in one pass: the
    stage field's slow part at a = 1.0 (system.analysis_floats) is
    recorded inside the run into a preallocated buffer at each
    post-burn-in sample, from the kernel's state and probe lists.  On the
    extremum seeker each value reuses the measurement of the step's first
    stage.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    traj, m1, m2, series = _windowed_run(
        system, theta, beta, burn_in, window, lambda0, slow_field=True
    )
    keep = m1 | m2
    return _two_window_estimate(
        series, m1[keep], m2[keep], tol, float(traj.t[-1]), "averaged slow field"
    )


def find_root_g0(
    system, theta_init, beta, tol=1e-3, *, avg_tol=None, burn_in=None, window=None
):
    """Damped Newton root of the averaged slow field: the point theta^beta.

    The Jacobian is a forward difference with step max(1e-4, 10*avg_tol),
    large enough to sit above the averaging noise floor.  Steps are halved
    until the field norm decreases (monotone acceptance), down to 2^-10.
    """
    avg_tol = tol if avg_tol is None else avg_tol
    fd_step = max(1e-4, 10.0 * avg_tol)

    def field(th):
        return mean_field_g0(
            system, th, beta, avg_tol, burn_in=burn_in, window=window
        ).value

    theta = np.atleast_1d(np.asarray(theta_init, dtype=float)).copy()
    d = theta.shape[0]
    fval = field(theta)
    fnorm = float(np.linalg.norm(fval))
    for _ in range(MAX_NEWTON_ITERATIONS):
        if fnorm < tol:
            return theta
        jac = np.zeros((d, d))
        for j in range(d):
            shifted = theta.copy()
            shifted[j] += fd_step
            jac[:, j] = (field(shifted) - fval) / fd_step
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.linalg.cond(jac)
        if not np.isfinite(cond) or cond > MAX_JACOBIAN_COND:
            raise SingularJacobian(
                f"averaged-field Jacobian condition {cond:.3e} exceeds 1e12"
            )
        direction = np.linalg.solve(jac, -fval)
        scale = 1.0
        while True:
            trial = theta + scale * direction
            trial_val = field(trial)
            trial_norm = float(np.linalg.norm(trial_val))
            if trial_norm < fnorm or scale <= MIN_NEWTON_STEP:
                break
            scale *= 0.5
        theta, fval, fnorm = trial, trial_val, trial_norm
    raise NonConvergent(
        f"no root of the averaged slow field after {MAX_NEWTON_ITERATIONS} "
        f"iterations (residual {fnorm:.3e})"
    )


def stationary_grid(system, thetas, beta, tol=1e-3, *, kind="lambda", **kwargs):
    """fast_equilibrium or mean_field_g0 over a grid of slow states, in grid order."""
    if kind == "lambda":
        op = fast_equilibrium
    elif kind == "g0":
        op = mean_field_g0
    else:
        raise ConfigError(f"kind must be 'lambda' or 'g0', got {kind!r}")
    thetas = [np.atleast_1d(np.asarray(th, dtype=float)) for th in thetas]
    return [op(system, th, beta, tol, **kwargs) for th in thetas]


def write_grid_csv(path, thetas, estimates):
    """CSV rows theta_1..d, value_1..p, osc_amplitude, T_used."""
    thetas = [np.atleast_1d(np.asarray(th, dtype=float)) for th in thetas]
    d = thetas[0].shape[0]
    p = np.atleast_1d(estimates[0].value).shape[0]
    names = [f"theta_{i + 1}" for i in range(d)]
    names += [f"value_{i + 1}" for i in range(p)]
    names += ["osc_amplitude", "T_used"]
    rows = np.zeros((len(thetas), d + p + 2))
    for i, (th, est) in enumerate(zip(thetas, estimates)):
        rows[i, :d] = th
        rows[i, d : d + p] = np.atleast_1d(est.value)
        rows[i, d + p] = est.osc_amplitude
        rows[i, d + p + 1] = est.horizon
    np.savetxt(
        path, rows, fmt="%.17g", delimiter=",", comments="", header=",".join(names)
    )
