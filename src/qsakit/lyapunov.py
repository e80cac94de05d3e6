"""Top Lyapunov exponent of the frozen-fast flow.

The sensitivity process S solves dS/dt = beta * d_lambda h(theta, Lambda_t,
xi_t) S from S0 = I alongside the frozen-fast trajectory itself.  The top
exponent is the growth rate of ||S||, accumulated in log space with unit-
time rescaling so the matrix never overflows on long horizons.

S rides the shared RK4 kernel (dynamics._rk4) as a sensitivity run, in
the stack [Lambda; vec S], row-major, or alone where no bit of S depends
on Lambda: on expression text whose Jacobian reads no Lambda, with no
per-stage statement and a fast part of +, -, * over names and float
literals, which could raise nothing (dynamics._s_alone; linear-3.1 and
decoupled-test).  There lambda0 is shape-checked but decides nothing,
and a Lambda that would overflow or turn nan raises no NonFinite, where
the other runs raise it.  One kernel run covers the horizon; it
stops at every multiple of the rescale interval and at the half-horizon
step, where S is divided by its Frobenius norm, whose log is
accumulated, and the half-horizon magnitude is recorded.

The run writes the system's text into the loop (dynamics.StageText:
the built-in systems, and the frozen text system.frozen(theta) of the
extremum seeker), with no call: the fast part, the Jacobian's entries,
and each entry of the sensitivity derivative b*(J S) as b * (0.0 +
J_i0 * S_0j + J_i1 * S_1j + ...) on Python floats, in index order.  At
d = 1 that is how numpy's 1x1 matmul rounds (its accumulator starts at
+0.0, so a -0.0 product comes out +0.0); at d >= 2 it is how the text
sums, which numpy's BLAS matmul, with its own order and fused
multiply-adds, need not match.  The seeker's frozen Jacobian is its
washout matrix F, and the stack carries the probe row's measurement as
its last entry.

A grid of slow states (exponent_grid, the CLI's lyapunov subcommand)
calls lyapunov_exponent at each point, in order, inside one store of the
work its points share (dynamics._grid_store), dropped when the grid
returns or raises: the probe table of each block of steps, and the run
itself where it is theta-free, that is where the system has no frozen
text, S rides alone and its loop reads no th{i}, in the Jacobian or
through a value lifted out of the loop (dynamics._theta_free).  Such a
run is made once per (text with its values, probe, beta, step, step
count, horizon), and each later point returns its estimate after its
own input checks.  linear-3.1 and decoupled-test are theta-free; the
seeker's frozen text, and a Jacobian such as -1.0 + th0 * xi1, run once
per point.  The store holds one probe table per block of the horizon
(0.56 MB for a 5-point grid of linear-3.1 at beta = 0.1 and horizon 400).
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    _grid_store,
    _on_text,
    _pinned_text,
    _resolve_step,
    _rk4,
    _s_alone,
    _shared,
    _theta_free,
    write_csv,
)
from .errors import ConfigError, Inconclusive, NonFinite


@dataclass(frozen=True)
class ExponentEstimate:
    """Full-horizon exponent with the trailing-half diagnostic value."""

    exponent: float
    tail_exponent: float
    horizon: float


def lyapunov_exponent(system, theta, beta, lambda0, horizon, *, step=None):
    """Estimate the top exponent of the frozen-fast flow at a slow state.

    Returns the full-horizon estimate together with the trailing-half
    estimate, from one kernel run (module docstring); a horizon of fewer
    than two RK4 steps is a ConfigError, and a large gap between the two
    halves raises Inconclusive, carrying both halves' estimates by their
    time spans, rather than returning a number the horizon cannot support.
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
    if n_steps < 2:
        raise ConfigError(
            f"horizon {horizon:g} spans one RK4 step of {h:.6g}; the exponent "
            "compares two half-horizons and needs at least two steps"
        )

    d = system.dim_fast
    th = theta.tolist()
    shape = (system.dim_slow, d, "sensitivity")
    text = _pinned_text(system, th)
    key = text._replace(values=None)
    # Lambda rides in the stack only where S may read it
    lam = [] if _s_alone(key) else lam.tolist()
    vec_s = slice(len(lam), len(lam) + d * d)
    shape, args, x = _on_text(text, shape, (th,), lam + np.eye(d).ravel().tolist())

    def s_norm(x):
        return float(np.linalg.norm(np.array(x[vec_s])))

    rescale_every = max(1, round(1.0 / h))
    n_half = max(1, n_steps // 2)
    log_accum = log_half = 0.0

    def at_stop(end, x):  # S rescaled at every multiple of rescale_every
        nonlocal log_accum, log_half
        if end % rescale_every == 0:
            nrm = s_norm(x)
            if not math.isfinite(nrm) or nrm == 0.0:
                raise NonFinite(end * h, "sensitivity norm degenerate")
            x[vec_s] = [v / nrm for v in x[vec_s]]
            log_accum += math.log(nrm)
        if end == n_half:
            log_half = log_accum + math.log(s_norm(x))
        return x

    def run():  # the log of S's final norm and of its norm at n_half
        stops = sorted({*range(rescale_every, n_steps + 1, rescale_every), n_half})
        _, samples = _rk4(shape, args, x, h, n_steps, n_steps, system, None, beta, stops, at_stop)
        return log_accum + math.log(s_norm(samples[-1])), log_half

    if system.frozen is None and _theta_free(key):
        # neither theta nor lambda0 enters: one run per grid store
        total, log_half = _shared(
            ("exponent", system.probing, system.basis, text, beta, h, n_steps, horizon), run)
    else:
        total, log_half = run()
    t_half = n_half * h
    exponent = total / horizon
    tail = (total - log_half) / (horizon - t_half)
    first = log_half / t_half
    gap = abs(first - tail)
    if gap > 0.1 * max(abs(first), abs(tail)) and gap > 1e-2:
        raise Inconclusive(
            f"half-horizon exponent estimates {first:.4e} and {tail:.4e} disagree; "
            f"increase the horizon",
            {f"exponent over [0, {t_half:g}]": first,
             f"exponent over [{t_half:g}, {horizon:g}]": tail},
        )
    return ExponentEstimate(exponent=exponent, tail_exponent=tail, horizon=horizon)


@_grid_store()
def exponent_grid(system, thetas, beta, lambda0, horizon):
    """lyapunov_exponent at each slow state of thetas, in grid order, in
    one grid store that goes when the grid returns or raises (module
    docstring): the points share their probe tables, and a theta-free
    run is made once, so each point returns the bits of its own run and
    raises the error it raises alone."""
    return [lyapunov_exponent(system, th, beta, lambda0, horizon) for th in thetas]


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
    write_csv(path, names, rows)
