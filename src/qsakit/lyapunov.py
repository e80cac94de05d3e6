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

Each stage reads the fast part b*h of the system's stage field
(qsakit.dynamics), with a = None.  At fast dimension d = 1 the sensitivity
derivative is b * (0.0 + j * s) on Python floats, which is how numpy's
1x1 matmul rounds (its accumulator starts at +0.0, so a -0.0 product
comes out +0.0).  At d >= 2 the product J @ S stays a numpy matmul: BLAS
sums each row with fused multiply-adds in an order of its own choosing,
which a sum of Python floats does not reproduce (thousands of mismatches
per 20,000 random 2x2 cases).

An analytic dh_dlambda is called with the stage's lists (theta, lam, xi)
and must return d*d values: at d = 1 a scalar, a 1-element sequence or a
1x1 array, at d >= 2 a (d, d) array, else ConfigError naming dh_dlambda.
Without one, the Jacobian is a central difference of the stage field.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    _checked_parts,
    _float_lists,
    _floats,
    _pinned_gains,
    _resolve_step,
    _rk4,
)
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
    """The fast Jacobian as a (d, d) array at (theta, lam, xi), the stage's
    lists or arrays: system.dh_dlambda checked for shape (a single value
    stands for the 1x1 Jacobian), or central differences of the stage
    field's fast part when no analytic form is given."""
    d = system.dim_fast
    if system.dh_dlambda is not None:
        jac_cb = system.dh_dlambda

        def analytic(theta, lam, xi):
            jac = np.asarray(jac_cb(theta, lam, xi), dtype=float)
            if jac.shape == (d, d):
                return jac
            if d == 1 and jac.size == 1:
                return jac.reshape(1, 1)
            raise ConfigError(
                f"dh_dlambda returned shape {jac.shape}, expected ({d}, {d})"
            )

        return analytic

    stage = system.stage

    def by_difference(theta, lam, xi):
        theta, lam, xi = _float_lists(theta, lam, xi)
        jac = np.zeros((d, d))
        for j in range(d):
            delta = fd_step(lam[j])
            up = list(lam)
            up[j] += delta
            dn = list(lam)
            dn[j] -= delta
            hi = np.array(stage(theta, up, xi, None, 1.0)[1])
            lo = np.array(stage(theta, dn, xi, None, 1.0)[1])
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

    field, th = system.stage, theta.tolist()
    d = system.dim_fast

    def stage(*args):
        nonlocal stage
        stage = field  # the run's first stage is checked, the rest call field
        return _checked_parts(field(*args), None, d)

    if d == 1:
        jac_cb = system.dh_dlambda
        jac_cb = _jacobian_evaluator(system) if jac_cb is None else jac_cb

        def rhs(x, xi, a, b):
            la = x[:1]
            (v,) = stage(th, la, xi, None, b)[1]
            (j,) = _floats(jac_cb(th, la, xi), 1, "dh_dlambda")
            return [v, b * (0.0 + j * x[1])]

    else:
        jac_of = _jacobian_evaluator(system)

        def rhs(x, xi, a, b):
            la = x[:d]
            fast = stage(th, la, xi, None, b)[1]
            ds = jac_of(th, la, xi) @ np.array(x[d:]).reshape(d, d)
            return fast + [b * v for v in ds.ravel().tolist()]

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
