"""Empirical rate checks: error sweeps, bias of the averaged root, and the
perturbative identity suite.

Asymptotic error bounds are realized here as trailing-window maxima over
finite runs: the window is the last 10% of samples and the horizon scales
like 1/beta, so the window sits past the fast transient and the max
dominates the oscillation envelope.  Scalings are then read off as
ordinary least-squares slopes in log-log coordinates.  The tolerance
bands for those slopes live in this module as constants; enforcement
belongs to the callers (acceptance suite, CLI).

Degenerate outcomes are reported as values, not errors: a sweep whose
errors all sit under the resolution floor returns AllBelowFloor, and a
bias sweep indistinguishable from zero bias returns SymmetricNoBias.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import GainSchedule, integrate
from .errors import (
    ConfigError,
    DegenerateFit,
    InsufficientSamples,
    NonConvergent,
    NonFinite,
)
from .meanflow import fast_equilibrium, find_root_g0
from .poisson import (
    GainField,
    directional_derivative,
    pmeanflow_terms,
    solve_poisson,
    zero_mean_part,
)
from .probing import probe_signal

__all__ = [
    "RateFit",
    "AllBelowFloor",
    "SymmetricNoBias",
    "HorizonPolicy",
    "SlowErrorReport",
    "PmfIdentityReport",
    "ERROR_FLOOR",
    "UNFILTERED_SLOPE_BAND",
    "FILTERED_SLOPE_BAND",
    "R_SQUARED_MIN",
    "loglog_fit",
    "fast_error_sweep",
    "slow_error_check",
    "bias_sweep",
    "pmf_identity_suite",
]

# Slope bands for the linear benchmark sweeps (theoretical values 1 and 2);
# the widths absorb discretization and windowing noise of 4-point fits.
UNFILTERED_SLOPE_BAND = (0.8, 1.2)
FILTERED_SLOPE_BAND = (1.7, 2.3)
R_SQUARED_MIN = 0.95

# Trailing errors below this are treated as "no floor to fit".
ERROR_FLOOR = 1e-6


# ---------------------------------------------------------------------------
# log-log fitting


@dataclass(frozen=True)
class RateFit:
    """Least-squares power law through positive points.

    slope and intercept are the OLS fit of log y against log x;
    r_squared is clamped to [0, 1] and equals 1 for an exact fit
    (including the zero-variance case of constant y).
    """

    points: tuple
    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class AllBelowFloor:
    """Sweep outcome when every error sits under the resolution floor.

    There is no scaling left to fit; the bound holds trivially at this
    resolution.  Expected for systems whose fast field ignores the probe.
    """

    points: tuple
    floor: float


@dataclass(frozen=True)
class SymmetricNoBias:
    """Bias sweep outcome when every bias is below 10x the averaging tol.

    At that resolution the averaged root is indistinguishable from the
    exact target, which is the honest report for symmetric probing: the
    distinction between O(beta) bias and exactly zero sits under the
    averaging noise for small beta.
    """

    points: tuple
    threshold: float


def loglog_fit(points) -> RateFit:
    """Ordinary least squares of log y against log x.

    Needs at least three points with strictly positive coordinates.
    Points with no spread in x leave the slope undefined (DegenerateFit).
    """
    pts = tuple((float(x), float(y)) for x, y in points)
    if len(pts) < 3:
        raise ConfigError(f"log-log fit needs at least 3 points, got {len(pts)}")
    if any(x <= 0.0 or y <= 0.0 for x, y in pts):
        raise ConfigError("log-log fit needs strictly positive coordinates")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    if float(lx.max()) == float(lx.min()):
        raise DegenerateFit("all x coordinates coincide; the slope is undefined")
    design = np.column_stack([lx, np.ones_like(lx)])
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    resid = ly - design @ coef
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(
        points=pts,
        slope=float(coef[0]),
        intercept=float(coef[1]),
        r_squared=min(1.0, max(0.0, r2)),
    )


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class HorizonPolicy:
    """Run length per sweep point: T(beta) = min(scale / beta, cap)."""

    scale: float = 200.0
    cap: float = 1e4

    def __post_init__(self):
        if self.scale <= 0 or self.cap <= 0:
            raise ConfigError("horizon scale and cap must be positive")

    def horizon(self, beta):
        return min(self.scale / beta, self.cap)


def _checked_betas(beta_list):
    betas = [float(b) for b in beta_list]
    if not betas:
        raise ConfigError("beta_list must be non-empty")
    if any(b <= 0.0 for b in betas):
        raise ConfigError("beta values must be positive")
    return betas


def fast_error_sweep(
    system,
    beta_list,
    filter_factory=None,
    horizon_policy=None,
    *,
    rho=0.7,
    x0=None,
    sample_stride=1,
    out_dir=None,
):
    """Trailing-window fast error against the equilibrium target, per beta.

    Each beta runs integrate over [0, T(beta)] and reports
    err(beta) = max ||Lambda_t - lambda*(theta*)|| over the trailing 10%
    of samples; with a filter present the filtered coordinate Lambda^F is
    measured instead.  The target uses the system's closed-form
    lambda_star(theta_star) when recorded, otherwise the time-averaged
    fast equilibrium at the averaged root for that beta (so averaging
    error is not conflated with the quantity under test).

    filter_factory maps beta to a fresh filter instance; the factory form
    keeps the bandwidth tied to the gain (gamma = eta * beta for the
    second-order filter).  Returns a RateFit of err against beta, or
    AllBelowFloor when every error is below ERROR_FLOOR.  A run that
    blows up raises NonFinite naming the offending beta.
    """
    betas = _checked_betas(beta_list)
    policy = horizon_policy if horizon_policy is not None else HorizonPolicy()
    keep_runs = out_dir is not None

    ref_shared = None
    if system.lambda_star is not None and system.theta_star is not None:
        ref_shared = np.atleast_1d(
            np.asarray(system.lambda_star(system.theta_star), dtype=float)
        )

    def run_one(beta):
        schedule = GainSchedule(rho, beta)
        filt = filter_factory(beta) if filter_factory is not None else None
        start = (
            x0
            if x0 is not None
            else (np.zeros(system.dim_slow), np.zeros(system.dim_fast))
        )
        try:
            traj = integrate(
                system,
                schedule,
                start,
                policy.horizon(beta),
                filt=filt,
                sample_stride=sample_stride,
            )
        except NonFinite as exc:
            raise NonFinite(exc.time, f"sweep run at beta = {beta:g}") from exc
        if ref_shared is not None:
            ref = ref_shared
        else:
            init = (
                system.theta_star
                if system.theta_star is not None
                else np.zeros(system.dim_slow)
            )
            theta_beta = find_root_g0(system, init, beta)
            ref = np.atleast_1d(fast_equilibrium(system, theta_beta, beta).value)
        series = traj.lam_filtered if filt is not None else traj.lam
        tail = series[int(0.9 * traj.n_samples) :]
        err = float(np.max(np.linalg.norm(tail - ref[None, :], axis=1)))
        return err, (traj if keep_runs else None)

    results = [run_one(beta) for beta in betas]
    errors = [err for err, _ in results]
    points = tuple(zip(betas, errors))
    if all(err < ERROR_FLOOR for err in errors):
        outcome = AllBelowFloor(points=points, floor=ERROR_FLOOR)
    else:
        outcome = loglog_fit(points)
    if keep_runs:
        band = FILTERED_SLOPE_BAND if filter_factory is not None else UNFILTERED_SLOPE_BAND
        runs = [(beta, traj) for beta, (_, traj) in zip(betas, results)]
        _write_sweep_artifacts(Path(out_dir), points, outcome, band, runs)
    return outcome


@dataclass(frozen=True)
class SlowErrorReport:
    """Gain-normalized slow error statistics over the second half of a run."""

    sup_ratio: float
    ratio_trend: float


def slow_error_check(trajectory, theta_beta, schedule) -> SlowErrorReport:
    """sup and trend of q(t) = ||Theta_t - theta^beta|| / a_t.

    Samples in the second half of the run only, past the burn-in.
    sup_ratio bounded across horizons is the operational form of the
    O(a_t) slow-error claim.  ratio_trend compares q at the end of the
    run against q at the half-way point; since q carries the probe
    ripple, each endpoint is taken as the max over the nearest decile
    of the window rather than a single phase-sensitive sample.  The
    trend stays O(1) when the bound is tight and falls when it is slack.
    """
    theta_beta = np.atleast_1d(np.asarray(theta_beta, dtype=float))
    if theta_beta.shape != (trajectory.theta.shape[1],):
        raise ConfigError(
            f"theta_beta has shape {theta_beta.shape}, trajectory carries "
            f"{trajectory.theta.shape[1]} slow coordinates"
        )
    t = trajectory.t
    mask = t >= 0.5 * t[-1]
    if int(mask.sum()) < 2:
        raise InsufficientSamples("need at least two samples in the second half")
    a = schedule.slow_gain_array(t[mask])
    q = np.linalg.norm(trajectory.theta[mask] - theta_beta[None, :], axis=1) / a
    sup = float(q.max())
    decile = max(1, q.shape[0] // 10)
    q_mid = float(q[:decile].max())
    q_end = float(q[-decile:].max())
    if sup == 0.0:
        trend = 0.0
    elif q_mid == 0.0:
        trend = math.inf
    else:
        trend = q_end / q_mid
    return SlowErrorReport(sup_ratio=sup, ratio_trend=trend)


def bias_sweep(
    system,
    beta_list,
    *,
    tol=1e-3,
    avg_tol=None,
    burn_in=None,
    window=None,
    theta_init=None,
    out_dir=None,
):
    """Bias ||theta^beta - theta*|| of the averaged root, per beta.

    theta* must be recorded on the system in closed form.  Returns the
    log-log RateFit of bias against beta, or SymmetricNoBias when every
    bias sits below 10x the averaging tolerance (the resolution of the
    root finder).  NonConvergent from the root finder propagates with
    the offending beta named.
    """
    betas = _checked_betas(beta_list)
    if system.theta_star is None:
        raise ConfigError("bias_sweep needs the exact root theta_star on the system")
    theta_star = np.atleast_1d(np.asarray(system.theta_star, dtype=float))
    init = theta_star if theta_init is None else np.atleast_1d(theta_init)
    resolution = 10.0 * (tol if avg_tol is None else avg_tol)

    def run_one(beta):
        try:
            theta_beta = find_root_g0(
                system, init, beta, tol, avg_tol=avg_tol, burn_in=burn_in, window=window
            )
        except NonConvergent as exc:
            raise NonConvergent(f"bias run at beta = {beta:g}: {exc}") from exc
        return float(np.linalg.norm(theta_beta - theta_star))

    biases = [run_one(beta) for beta in betas]
    points = tuple(zip(betas, biases))
    if all(b < resolution for b in biases):
        outcome = SymmetricNoBias(points=points, threshold=resolution)
    else:
        outcome = loglog_fit(points)
    if out_dir is not None:
        _write_sweep_artifacts(Path(out_dir), points, outcome, None, ())
    return outcome


def _write_sweep_artifacts(out_dir, points, outcome, band, runs):
    """sweep.csv, fit.json, and one trajectory CSV per kept run."""
    out_dir.mkdir(parents=True, exist_ok=True)
    data = np.array(points, dtype=float).reshape(-1, 2)
    np.savetxt(
        out_dir / "sweep.csv",
        data,
        fmt="%.17g",
        delimiter=",",
        comments="",
        header="x,y",
    )
    record = {"points": [[x, y] for x, y in points]}
    if isinstance(outcome, RateFit):
        record["outcome"] = "fit"
        record["slope"] = outcome.slope
        record["intercept"] = outcome.intercept
        record["r_squared"] = outcome.r_squared
        if band is not None:
            slope_ok = band[0] <= outcome.slope <= band[1]
            r2_ok = outcome.r_squared >= R_SQUARED_MIN
            record["slope_band"] = list(band)
            record["slope_pass"] = slope_ok
            record["r_squared_min"] = R_SQUARED_MIN
            record["r_squared_pass"] = r2_ok
            record["band_pass"] = slope_ok and r2_ok
    elif isinstance(outcome, AllBelowFloor):
        record["outcome"] = "all-below-floor"
        record["floor"] = outcome.floor
        # No scaling to check; the band is vacuously satisfied.
        record["band_pass"] = True
    else:
        record["outcome"] = "symmetric-no-bias"
        record["threshold"] = outcome.threshold
    with open(out_dir / "fit.json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for beta, traj in runs:
        if traj is not None:
            traj.to_csv(out_dir / f"run-beta-{beta:g}.csv")


# ---------------------------------------------------------------------------
# perturbative identity suite
#
# The identity chain, in this package's sign conventions (solve_poisson is
# normalized so that the clock derivative of u_hat is MINUS the zero-mean
# forcing u_tilde, and the total derivative along the flow of a gain-free
# field F is  d/dt F = a [D^g F] + beta [D^h F] + clk F):
#
#   step1:  u_tilde = a [D^g u_hat] + beta [D^h u_hat] - d/dt u_hat
#           for the stacked field u = (g; h)
#   step2:  d/dt h_hat = -d2/dt2 hh - r a [D^g hh] + a d/dt[D^g hh]
#           + beta d/dt[D^h hh],   hh = double Poisson lift of h
#   step3:  Ups_ff = Ups_ff_bar(X) - d/dt u + a [D^g u] + beta [D^h u],
#           u = Poisson lift of the zero-mean part of Ups_ff
#   assembled:  beta h(X, xi) = beta (h_bar - beta Ups_ff_bar + W)
#
# With analytic derivatives every line is exact to roundoff; with sampled
# 3-point stencils the residuals inherit the O(step^2) truncation, which
# is what the order check doubles the step to see.

# 3-point centered stencils, 2nd-order accurate.  Deliberately low order:
# the order check needs the truncation error to dominate roundoff at step
# 1e-3, the largest step the fd route accepts.
MAX_FD_STEP = 1e-3


def _d1_3pt(series, dt):
    return (series[2:] - series[:-2]) / (2.0 * dt)


def _d2_3pt(series, dt):
    return (series[2:] - 2.0 * series[1:-1] + series[:-2]) / dt**2


@dataclass(frozen=True)
class PmfIdentityReport:
    """Max relative residual of each perturbative identity along a run.

    Residuals are max_t ||lhs - rhs|| / max(1, max_t ||lhs||): relative
    against the identity's own scale, with a unit floor so identities
    whose both sides vanish report exactly zero.
    """

    step1: float
    step2: float
    step3: float
    assembled: float
    derivative: str
    horizon: float
    n_samples: int


def pmf_identity_suite(
    system,
    *,
    gains=None,
    horizon=None,
    x0=None,
    derivative="analytic",
    fd_step=1e-3,
    corrupt_upsilon_ff=0.0,
) -> PmfIdentityReport:
    """Residuals of the perturbative fast-dynamics identities along a run.

    Simulates the system (default gains rho=0.7, beta=0.1) and checks the
    three lift identities plus the assembled representation along the
    run.  Each lifted field is evaluated once over the whole sample axis
    of the trajectory; only the exact fast right-hand side, the stage
    field's fast part, is evaluated sample by sample.
    derivative="analytic" forms all time derivatives in the
    frequency domain and the residuals are exact to roundoff;
    derivative="fd" replaces every time derivative with sampled 3-point
    stencils on a uniform grid of the given step, so residuals scale
    with step^2.

    corrupt_upsilon_ff adds a constant offset to the clock average in the
    step3 identity only; it is the negative control that shows the suite
    actually measures that term.

    Raises ZeroDivisor when the Fourier content hits a rationally
    dependent frequency vector of the basis.
    """
    if system.fourier is None:
        raise ConfigError("identity suite needs the exact Fourier form of the field")
    if derivative not in ("analytic", "fd"):
        raise ValueError(f"derivative must be 'analytic' or 'fd', got {derivative!r}")
    schedule = gains if gains is not None else GainSchedule(0.7, 0.1)
    rho, beta = schedule.rho, schedule.beta
    basis = system.basis
    offset = float(corrupt_upsilon_ff)

    terms = pmeanflow_terms(system, schedule)
    f = system.fourier
    d_fast = f.dim_fast
    d_all = f.dim_out
    g = terms.g_field
    h = terms.h_field
    f_tilde = zero_mean_part(f)
    f_hat = solve_poisson(f_tilde, basis)

    if x0 is None:
        x0 = (np.full(f.dim_slow, 0.3), np.full(d_fast, -0.2))
    if derivative == "analytic":
        span = 6.0 if horizon is None else float(horizon)
        traj = integrate(system, schedule, x0, span)
    else:
        if fd_step > MAX_FD_STEP * (1.0 + 1e-9):
            raise InsufficientSamples(
                f"step {fd_step:.3e} too large for finite-difference derivatives"
            )
        span = 2.0 if horizon is None else float(horizon)
        traj = integrate(system, schedule, x0, span, step=fd_step)

    n = traj.n_samples
    t = traj.t
    clocks = np.exp(2j * np.pi * traj.phases).T
    states = np.concatenate([traj.theta, traj.lam], axis=1)
    a_t, r_t = (np.broadcast_to(v, t.shape) for v in schedule.gains_at(t))
    a_col = a_t[:, None]

    def field_series(field):
        return field.eval(states, clocks)

    def gainfield_series(gf, dim):
        return gf.eval_or_zero(states, clocks, a_t, r_t, dim)

    if derivative == "fd":
        if n < 5:
            raise InsufficientSamples("need at least 3 interior samples for the stencils")
        steps = np.diff(t)
        dt = float(steps[0])
        if not np.allclose(steps, dt, rtol=1e-9, atol=1e-12):
            raise InsufficientSamples("finite-difference derivatives need a uniform grid")
        interior = slice(1, n - 1)
    else:
        dt = 0.0
        interior = slice(0, n)

    def ddt_series(field, dim):
        # Total time derivative along the flow of a gain-free field.
        if derivative == "analytic":
            total = GainField.wrap(field).ddt(g, h, basis, rho, beta)
            return gainfield_series(total, dim)[interior]
        return _d1_3pt(field_series(field), dt)

    # step1: the stacked Poisson lift returns the zero-mean forcing.
    dg_fhat = directional_derivative(f_hat, g, "slow")
    dh_fhat = directional_derivative(f_hat, h, "fast")
    lhs1 = field_series(f_tilde)[interior]
    rhs1 = (
        a_col[interior] * field_series(dg_fhat)[interior]
        + beta * field_series(dh_fhat)[interior]
        - ddt_series(f_hat, d_all)
    )

    # step2: second derivative of the double lift, with the gain-variation
    # term r a [D^g hh] made explicit.
    dg_hh, dh_hh = terms.dg_hh, terms.dh_hh
    lhs2 = ddt_series(terms.h_hat, d_fast)
    if derivative == "analytic":
        d2_hh = gainfield_series(terms._ddW2, d_fast)[interior]
    else:
        d2_hh = _d2_3pt(field_series(terms.h_hat_hat), dt)
    ra_col = (a_t * r_t)[interior, None]
    rhs2 = (
        -d2_hh
        - ra_col * field_series(dg_hh)[interior]
        + a_col[interior] * ddt_series(dg_hh, d_fast)
        + beta * ddt_series(dh_hh, d_fast)
    )

    # step3: the fast-fast coupling block splits into its clock average
    # plus a transported lift.  The corruption offset enters only here.
    ff = terms.upsilon.ff
    uff_hat = terms.upsilon_ff_hat
    ups_bar = terms.upsilon_ff_bar(states)
    lhs3 = field_series(ff)[interior]
    rhs3 = (
        ups_bar[interior]
        + offset
        - ddt_series(uff_hat, d_fast)
        + a_col[interior] * field_series(terms.dg_uff)[interior]
        + beta * field_series(terms.dh_uff)[interior]
    )

    # assembled: exact fast right-hand side against the model form.
    stage, xis = system.stage, probe_signal(system.probing, basis, t).T
    exact = np.zeros((n, d_fast))
    for i in range(n):
        th, la, xi = (v[i].tolist() for v in (traj.theta, traj.lam, xis))
        exact[i] = stage(th, la, xi, None, beta)[1]
    lhs4 = exact[interior]
    if derivative == "analytic":
        rhs4 = terms.fast_rhs_model(states, clocks, t)
    else:
        dw1 = _d1_3pt(gainfield_series(terms.W1, d_fast), dt)
        ddw2 = _d2_3pt(gainfield_series(terms.W2, d_fast), dt)
        gain_var = terms.W1.gain_derivative_part(rho)
        w0 = gainfield_series(terms.W0, d_fast)[interior]
        gv = gainfield_series(gain_var, d_fast)[interior]
        noise = beta**2 * w0 + beta * (dw1 - gv) + ddw2
        h_bar = terms.h_bar(states)[interior]
        rhs4 = beta * (h_bar - beta * ups_bar[interior] + noise)

    def rel_residual(lhs, rhs):
        num = float(np.max(np.abs(lhs - rhs)))
        den = max(1.0, float(np.max(np.abs(lhs))))
        return num / den

    return PmfIdentityReport(
        step1=rel_residual(lhs1, rhs1),
        step2=rel_residual(lhs2, rhs2),
        step3=rel_residual(lhs3, rhs3),
        assembled=rel_residual(lhs4, rhs4),
        derivative=derivative,
        horizon=float(t[-1]),
        n_samples=n,
    )
