"""Top Lyapunov exponent of the frozen-fast flow.

The sensitivity process S solves dS/dt = beta * d_lambda h(theta, Lambda_t,
xi_t) S from S0 = I alongside the frozen-fast trajectory itself.  The top
exponent is the growth rate of ||S||, accumulated in log space with unit-
time rescaling so the matrix never overflows on long horizons.

S rides the shared RK4 kernel (dynamics._rk4) in the stack [Lambda; vec S],
row-major.  The kernel runs in segments that end at every multiple of the
rescale interval and at the half-horizon step; between segments S is
divided by its Frobenius norm, whose log is accumulated, and the half-
horizon magnitude is recorded.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _floats, _pinned_gains, _resolve_step, _rk4
from .errors import ConfigError, Inconclusive, NonFinite

# Central-difference step for synthesized Jacobians, per coordinate.
FD_STEP_SCALE = float(np.cbrt(np.finfo(float).eps))


def fd_step(xj):
    return FD_STEP_SCALE * max(1.0, abs(xj))


@dataclass(frozen=True)
class ExponentEstimate:
    """Full-horizon exponent with the trailing-half diagnostic value."""

    exponent: float
    tail_exponent: float
    horizon: float


def _jacobian_evaluator(system):
    if system.dh_dlambda is not None:
        return lambda theta, lam, xi: np.atleast_2d(
            np.asarray(system.dh_dlambda(theta, lam, xi), dtype=float)
        )
    h_cb = system.h
    d = system.dim_fast

    def by_difference(theta, lam, xi):
        jac = np.zeros((d, d))
        for j in range(d):
            delta = fd_step(lam[j])
            up = lam.copy()
            up[j] += delta
            dn = lam.copy()
            dn[j] -= delta
            hi = np.asarray(h_cb(theta, up, xi), dtype=float)
            lo = np.asarray(h_cb(theta, dn, xi), dtype=float)
            jac[:, j] = (hi - lo) / (2.0 * delta)
        return jac

    return by_difference


def lyapunov_exponent(system, theta, beta, lambda0, horizon, *, step=None):
    """Estimate the top exponent of the frozen-fast flow at a slow state.

    Returns the full-horizon estimate together with the trailing-half
    estimate; a large gap between the two halves raises Inconclusive
    rather than returning a number the horizon cannot support.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    lam = np.atleast_1d(np.asarray(lambda0, dtype=float))
    if theta.shape != (system.dim_slow,):
        raise ConfigError("theta shape does not match the slow dimension")
    if lam.shape != (system.dim_fast,):
        raise ConfigError("lambda0 shape does not match the fast dimension")
    if beta <= 0:
        raise ConfigError(f"beta must be positive, got {beta}")
    h, n_steps = _resolve_step(system.basis, beta, horizon, step)

    h_cb = system.h
    jac_of = _jacobian_evaluator(system)
    d = system.dim_fast

    def rhs(x, xi, a, b):
        stage = np.array(x)
        la = stage[:d]
        out = [b * v for v in _floats(h_cb(theta, la, xi), d, "h")]
        ds = jac_of(theta, la, xi) @ stage[d:].reshape(d, d)
        out += [b * v for v in ds.ravel().tolist()]
        return out

    def s_norm(x):
        return float(np.linalg.norm(np.array(x[d:])))

    rescale_every = max(1, round(1.0 / h))
    n_half = max(1, n_steps // 2)
    ends = sorted({*range(rescale_every, n_steps, rescale_every), n_half, n_steps})
    gains = _pinned_gains(beta)
    x = lam.tolist() + np.eye(d).ravel().tolist()
    log_accum = 0.0
    begin = 0
    for end in ends:
        m = end - begin
        _, samples = _rk4(rhs, x, h, m, m, system, gains, start=begin)
        x = samples[-1].tolist()
        if end % rescale_every == 0:
            nrm = s_norm(x)
            if not math.isfinite(nrm) or nrm == 0.0:
                raise NonFinite(end * h, "sensitivity norm degenerate")
            x[d:] = [v / nrm for v in x[d:]]
            log_accum += math.log(nrm)
        if end == n_half:
            log_half = log_accum + math.log(s_norm(x))
            t_half = end * h
        begin = end

    total = log_accum + math.log(s_norm(x))
    exponent = total / horizon
    tail = (total - log_half) / (horizon - t_half)
    first = log_half / t_half
    gap = abs(first - tail)
    if gap > 0.1 * max(abs(first), abs(tail)) and gap > 1e-2:
        raise Inconclusive(
            f"half-horizon exponent estimates {first:.4e} and {tail:.4e} disagree; "
            f"increase the horizon"
        )
    return ExponentEstimate(exponent=exponent, tail_exponent=tail, horizon=horizon)


def write_exponent_csv(path, thetas, betas, estimates):
    """CSV rows theta_1..d, beta, exponent, tail_exponent, horizon."""
    thetas = [np.atleast_1d(np.asarray(th, dtype=float)) for th in thetas]
    d = thetas[0].shape[0]
    names = [f"theta_{i + 1}" for i in range(d)]
    names += ["beta", "exponent", "tail_exponent", "horizon"]
    rows = np.zeros((len(thetas), d + 4))
    for i, (th, b, est) in enumerate(zip(thetas, betas, estimates)):
        rows[i, :d] = th
        rows[i, d] = b
        rows[i, d + 1] = est.exponent
        rows[i, d + 2] = est.tail_exponent
        rows[i, d + 3] = est.horizon
    np.savetxt(
        path, rows, fmt="%.17g", delimiter=",", comments="", header=",".join(names)
    )
