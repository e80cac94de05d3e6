"""Averaged objects of the slow/fast decomposition.

Everything here reduces to time averages along frozen-fast trajectories:
the fast equilibrium map lambda*(theta) (up to O(beta) ripple), the
effective slow field gbar0(theta) and its root theta^beta.  Each average
takes one run: the fast equilibrium averages the sampled Lambda, and
gbar0 averages the stage field's slow part at the post-burn-in samples,
evaluated after the run on the sampled state and the probe rows rebuilt
at the sample times.  A text whose slow part is lifted arithmetic (the
built-in systems and the extremum seeker, whose measurement the run
samples with the state) has it evaluated as whole arrays; any other
text's compiled stage field is called once per kept sample.  Both round
as the stage field does at each sample.

A grid (stationary_grid) and a Newton root (find_root_g0) run each point
by its public function, fast_equilibrium or mean_field_g0, in order,
inside one store of the work the points share (dynamics._grid_store),
which goes when the call returns or raises: every point runs at the same
step over the same horizon, so the probe table of each block of steps,
and the table at the kept sample times, are built once per call.  The
store holds one table per block of the horizon, 0.69 MB for a 5-point
lambda grid of linear-3.1 at beta = 0.1 and 0.75 MB for the seeker's
Newton root of the benchmark (burn-in 20, window 400), plus 0.35 MB
for its table at the kept times, keyed by those times' 0.18 MB of bytes.
Results are those of the points run one by one outside a store, bit for
bit.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    _array_exact,
    _grid_store,
    _probe_table,
    _shared,
    integrate_frozen_fast,
    text_arrays,
    write_csv,
)
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
    be judged by comparing their averages; a window without a sample is a
    ConfigError.  Returns (traj, m1, m2, series) with the sample masks m1,
    m2 of the two windows.  With slow_field, series holds the stage
    field's slow part at a = 1.0 at the samples of both windows, evaluated
    after the run (_slow_series); without slow_field, series is None.
    """
    if beta <= 0:
        raise ConfigError(f"beta must be positive, got {beta}")
    if burn_in is None:
        burn_in = 20.0 / beta
    if window is None:
        window = 100.0 / system.basis.min_omega
    if lambda0 is None:
        lambda0 = np.zeros(system.dim_fast)
    traj = integrate_frozen_fast(system, theta, lambda0, beta, burn_in + 2.0 * window)
    m1, m2 = _windows(traj.t, burn_in, burn_in + window)
    if not (m1.any() and m2.any()):
        raise ConfigError(
            f"window {window:g} leaves an averaging window without a sample at "
            f"the RK4 step {traj.t[1]:.6g}; use a window of at least one step"
        )
    series = _slow_series(system, theta, traj, m1 | m2) if slow_field else None
    return traj, m1, m2, series


def _slow_series(system, theta, traj, keep):
    """The stage field's slow part at a = 1.0 at the kept samples of the
    frozen-fast run traj at theta, with the probe rebuilt at their times:
    text_arrays on the slow part of the text the run ran on where that is
    exact (_array_exact: lifted arithmetic, with no per-stage statement
    but a carried one, whose local the run sampled), else one call of the
    system's stage field per sample.  Complex values are a ConfigError
    (_real_series).  The probe table at the kept times is built once per
    times in an open grid store (dynamics._shared)."""
    pmap, basis, times = system.probing, system.basis, traj.t[keep]
    xi = _shared(("samples", pmap, basis, times.tobytes()), _probe_table, pmap, basis, times)
    th, text = theta.tolist(), traj.text
    if _array_exact(text, text.slow, slow=True):
        carried = {} if traj.measured is None else {text.carry: traj.measured[keep]}
        slow = [(None, e) for e in text.slow]
        series = np.empty((xi.shape[1], system.dim_slow))
        for d, value in enumerate(text_arrays(text, slow, th, xi, traj.lam[keep].T, carried)):
            series[:, d] = _real_series(value, th)  # a constant expression fills its column
        return series
    # rows built as used, the values checked at once
    stage = system.stage
    rows = zip(map(list, zip(*traj.lam[keep].T.tolist())), map(list, zip(*xi.tolist())))
    values = [stage(th, lam, row, 1.0, None)[0] for lam, row in rows]
    return _real_series(values, th).astype(float, copy=False)


def _real_series(values, theta):
    """values, the slow field's at the samples of a run at theta, as an
    array; a complex one (a slow value off the reals, such as a negative
    number's fractional power) is a ConfigError naming theta."""
    series = np.asarray(values)
    if series.dtype.kind == "c":
        raise ConfigError(f"slow field values are not real at theta = {theta}")
    return series


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
            f"{what}: successive window averages differ by {drift:.3e} > {tol:.3e}",
            {"first window average": avg1.tolist(), "second window average": avg2.tolist()},
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
    (Lambda^theta, xi) by time averaging after burn-in, over one run: the
    stage field's slow part at a = 1.0 (system.analysis_floats) at each
    post-burn-in sample, evaluated after the run with the probe rebuilt at
    the sample times (the rows the run's stages read there).  A slow part
    of lifted arithmetic is evaluated elementwise on the sampled arrays,
    the extremum seeker's measurement among them, so the objective is
    called by the run alone; any other is evaluated by the stage field
    once per kept sample.  Either way each value has the bits the stage
    field gives at that sample.  NonConvergent carries both
    window averages.
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
    NonConvergent carries the last theta and its averaged field, the
    residual.  Its averages share one grid store (module docstring).
    """
    return _newton_root(system, theta_init, beta, tol, avg_tol, burn_in, window, 0)


@_grid_store()
def _newton_root(system, theta_init, beta, tol, avg_tol, burn_in, window, min_steps):
    """find_root_g0, stopping at a field norm below tol only after
    min_steps Newton steps, or at once where the field vanishes.  A norm
    below tol at theta_init bounds the root's distance only by
    tol / |slope|, and the bias of an averaged root can be far smaller
    (experiments.bias_sweep starts at theta*)."""
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
    for iteration in range(MAX_NEWTON_ITERATIONS):
        if fnorm < tol and iteration >= min_steps or fnorm == 0.0:
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
        f"iterations (residual {fnorm:.3e} at theta {theta.tolist()})",
        {"last theta": theta.tolist(), "residual": fval.tolist()},
    )


@_grid_store()
def stationary_grid(system, thetas, beta, tol=1e-3, *, kind="lambda", **kwargs):
    """fast_equilibrium or mean_field_g0 over a grid of slow states, in
    grid order, in one grid store (module docstring): the points share
    their probe tables, which go when the grid returns or raises."""
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
    write_csv(path, names, rows)
