"""Top Lyapunov exponent of the frozen-fast flow.

The sensitivity process S solves dS/dt = beta * d_lambda h(theta, Lambda_t,
xi_t) S from S0 = I alongside the frozen-fast trajectory itself.  The top
exponent is the growth rate of ||S||, accumulated in log space with unit-
time rescaling so the matrix never overflows on long horizons.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dynamics import _resolve_step
from .errors import ConfigError, Inconclusive, NonFinite
from .probing import clock_phases

#: steps per precomputed probe block
_CHUNK = 1 << 14

# Central-difference step for synthesized Jacobians, per coordinate.
FD_STEP_SCALE = float(np.cbrt(np.finfo(float).eps))


def fd_step(xj):
    return FD_STEP_SCALE * max(1.0, abs(xj))


@dataclass
class SensitivityState:
    """Sensitivity matrix with its extracted log magnitude."""

    S: np.ndarray
    log_norm_accum: float
    t: float

    def rescale(self):
        nrm = float(np.linalg.norm(self.S))
        if not np.isfinite(nrm) or nrm == 0.0:
            raise NonFinite(self.t, "sensitivity norm degenerate")
        self.S /= nrm
        self.log_norm_accum += math.log(nrm)

    def log_magnitude(self):
        return self.log_norm_accum + math.log(float(np.linalg.norm(self.S)))


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
    lam = np.atleast_1d(np.asarray(lambda0, dtype=float)).copy()
    if lam.shape != (system.dim_fast,):
        raise ConfigError("lambda0 shape does not match the fast dimension")
    if beta <= 0:
        raise ConfigError(f"beta must be positive, got {beta}")
    h, n_steps = _resolve_step(system.basis, beta, horizon, step)

    h_cb = system.h
    jac_of = _jacobian_evaluator(system)
    pmap = system.probing
    basis = system.basis
    d = system.dim_fast

    state = SensitivityState(S=np.eye(d), log_norm_accum=0.0, t=0.0)
    rescale_every = max(1, round(1.0 / h))
    n_half = max(1, n_steps // 2)
    log_half = None
    t_half = None

    def deriv(la, s_mat, xi):
        dla = beta * np.asarray(h_cb(theta, la, xi), dtype=float)
        ds = beta * (jac_of(theta, la, xi) @ s_mat)
        return dla, ds

    sixth = h / 6.0
    half = h * 0.5
    s_mat = state.S
    for chunk in range(0, n_steps, _CHUNK):
        m = min(_CHUNK, n_steps - chunk)
        ts = (chunk + 0.5 * np.arange(2 * m + 1)) * h
        xi_all = pmap(np.exp(2j * math.pi * clock_phases(basis, ts)))
        for i in range(m):
            j = 2 * i
            xi0, xim, xi1 = xi_all[:, j], xi_all[:, j + 1], xi_all[:, j + 2]
            k1 = deriv(lam, s_mat, xi0)
            k2 = deriv(lam + half * k1[0], s_mat + half * k1[1], xim)
            k3 = deriv(lam + half * k2[0], s_mat + half * k2[1], xim)
            k4 = deriv(lam + h * k3[0], s_mat + h * k3[1], xi1)
            lam = lam + sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
            s_mat = s_mat + sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
            gi = chunk + i + 1
            if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(s_mat))):
                raise NonFinite(gi * h)
            state.S = s_mat
            state.t = gi * h
            if gi % rescale_every == 0:
                state.rescale()
                s_mat = state.S
            if gi == n_half:
                log_half = state.log_magnitude()
                t_half = gi * h

    total = state.log_magnitude()
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


def exponent_grid(system, thetas, beta, lambda0, horizon, *, jobs=1, step=None):
    """lyapunov_exponent over a grid of slow states, optionally threaded."""
    thetas = [np.atleast_1d(np.asarray(th, dtype=float)) for th in thetas]

    def one(th):
        return lyapunov_exponent(system, th, beta, lambda0, horizon, step=step)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(one, thetas))
    return [one(th) for th in thetas]


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
