"""Gain schedules, coupled system definitions, and the RK4 integrator.

The integrator advances the slow/fast pair

    d/dt Theta = a_t * g(Theta, Lambda, xi_t)
    d/dt Lambda = b_t * h(Theta, Lambda, xi_t)

One RK4 kernel, _rk4, is the package's only RK4 loop.  It advances a
single stacked state vector, of which there are three kinds: coupled
runs stack [Theta; Lambda], frozen-fast runs advance Lambda alone, and
the sensitivity runs of qsakit.lyapunov stack [Lambda; vec S], with S
row-major, in segments that each start at a given step index.  A
second-order filter, when attached to a coupled run, observes Lambda:
its output Lambda^F and rate dLambda^F extend the stack to [Theta;
Lambda; Lambda^F; dLambda^F] and ride along in the same RK4 step, but
neither field reads them, so Theta and Lambda are the same with or
without the filter.  Probing phases are never integrated: they are
recomputed from t at every stage, so trajectories are reproducible bit
for bit.  A frozen-fast run can also record a field along the way: the
kernel's record hook sees each sample's state and probe vector, which is
how qsakit.meanflow averages the slow field in the same pass.

Between stages the kernel holds the stacked state and the four stage
derivatives as lists of Python floats.  Each stage builds one float64
array, and the callbacks g, h and g_probe receive ndarray views of it;
each callback's output is read back as a list of floats of its block's
length (a scalar fills a 1-element block, any other length mismatch is
a ConfigError).  Binary64 +, - and * on Python floats round exactly as
numpy's elementwise float64 operations do, and the kernel performs them
in the order the array expressions would, so the trajectories are bit
for bit those of the same step written on arrays.  This pays off for
small stacks only: on a system whose callbacks are single numpy
expressions, per-element stage arithmetic beat array arithmetic up to
about 12 states and lost from about 16 on (D = 32: about 30 -> 40 us per
step, measured on a 2-vCPU host).  Every built-in system has D <= 5.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFinite
from .probing import clock_phases, identity_map, probe_signal

#: steps per precomputed probe/gain block inside the integrator; a block
#: holds a Python object per stage, so it is kept short to bound memory
_CHUNK = 1 << 10


@dataclass(frozen=True)
class GainSchedule:
    """The mixed gain schedule of two-timescale QSA.

    The slow gain vanishes, a_t = (1+t)^-rho with rho in (1/2, 1), and the
    fast gain is the constant b_t = beta > 0.  The companion rate
    r_t = rho/(1+t) satisfies da/dt = -r_t a_t exactly.
    """

    rho: float
    beta: float

    def __post_init__(self):
        if not 0.5 < self.rho < 1.0:
            raise ConfigError(f"rho must lie in (1/2, 1), got {self.rho}")
        if self.beta <= 0:
            raise ConfigError(f"beta must be positive, got {self.beta}")

    def gains_at(self, t):
        """(a_t, r_t) with da/dt = -r_t a_t."""
        u = 1.0 + t
        return u**-self.rho, self.rho / u

    def slow_gain_array(self, ts):
        return (1.0 + ts) ** -self.rho

    def fast_gain_array(self, ts):
        return np.full(len(ts), self.beta)


def _lattice(count, dim, lo=-1.0, hi=1.0):
    """Deterministic quasi-uniform points in [lo, hi]^dim (no RNG)."""
    i = np.arange(1, count + 1)[:, None]
    j = np.arange(1, dim + 1)[None, :]
    u = 0.5 + 0.5 * np.sin(2.39996322972865332 * i * j + 0.7 * j)
    return lo + (hi - lo) * u


class TwoTimescaleSystem:
    """Coupled slow/fast vector fields with their probing clock.

    g and h are callbacks (theta, lam, xi) -> array.  When an exact Fourier
    form of the stacked field [g; h] is supplied it is cross-checked against
    the callbacks on a deterministic grid at construction; the frequency-
    domain machinery then works from that form while integration always
    uses the callbacks.

    Optional structural extras: g_probe adds a_t-weighted probing feedback
    to the slow field (the slow rate becomes a_t * (g + a_t * g_probe));
    dh_dlambda(theta, lam, xi) is an analytic fast Jacobian for sensitivity
    runs, a (dim_fast, dim_fast) array, or when dim_fast is 1 also a
    scalar or a 1-element sequence (any other shape is a ConfigError in
    qsakit.lyapunov); lambda_star / theta_star record known equilibrium
    maps for diagnostics.
    """

    def __init__(
        self,
        dim_slow,
        dim_fast,
        g,
        h,
        basis,
        probing=None,
        *,
        fourier=None,
        g_probe=None,
        dh_dlambda=None,
        lambda_star=None,
        theta_star=None,
        name=None,
    ):
        if dim_slow < 1 or dim_fast < 1:
            raise ConfigError("state dimensions must be positive")
        self.dim_slow = int(dim_slow)
        self.dim_fast = int(dim_fast)
        self.g = g
        self.h = h
        self.basis = basis
        self.probing = probing if probing is not None else identity_map(basis.size)
        self.fourier = fourier
        self.g_probe = g_probe
        self.dh_dlambda = dh_dlambda
        self.lambda_star = lambda_star
        self.theta_star = theta_star
        self.name = name
        if fourier is not None:
            if fourier.dim_out != self.dim_slow + self.dim_fast:
                raise ConfigError(
                    "fourier form must stack [g; h]: expected dim_out "
                    f"{self.dim_slow + self.dim_fast}, got {fourier.dim_out}"
                )
            self._check_fourier_agreement()

    def analysis_g(self, theta, lam, xi):
        """Slow field with unit-weight probing feedback, used for averaging."""
        val = np.array(self.g(theta, lam, xi), dtype=float, ndmin=1)
        if self.g_probe is not None:
            val = val + np.asarray(self.g_probe(theta, lam, xi), dtype=float)
        return val

    def _check_fourier_agreement(self, count=24, tol=1e-10):
        pts = _lattice(count, self.dim_slow + self.dim_fast)
        ts = 0.37 * np.arange(count) + 0.11
        clocks = np.exp(2j * math.pi * clock_phases(self.basis, ts)).T
        ds = self.dim_slow
        direct = [
            np.concatenate(
                [np.atleast_1d(np.asarray(cb(x[:ds], x[ds:], xi), dtype=float))
                 for cb in (self.g, self.h)]
            )
            for x, xi in zip(pts, probe_signal(self.probing, self.basis, ts).T)
        ]
        worst = float(np.max(np.abs(self.fourier.eval(pts, clocks) - direct)))
        if worst > tol:
            raise ConfigError(
                f"fourier form disagrees with callbacks (max defect {worst:.3e})"
            )


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled integration output.

    phases holds the fractional clock phases (K, N), recomputed analytically
    from the sample times.  a and beta are the gain values at each sample.
    lam_filtered / dlam_filtered are present only for filtered runs.
    """

    t: np.ndarray
    theta: np.ndarray
    lam: np.ndarray
    a: np.ndarray
    beta: np.ndarray
    phases: np.ndarray
    lam_filtered: np.ndarray = None
    dlam_filtered: np.ndarray = None

    @property
    def n_samples(self):
        return self.t.shape[0]

    def to_csv(self, path):
        """Write samples as CSV with 17 significant digits per value."""
        cols = [self.t, self.a, self.beta]
        names = ["t", "a_t", "beta"]
        for i in range(self.theta.shape[1]):
            cols.append(self.theta[:, i])
            names.append(f"theta_{i + 1}")
        for i in range(self.lam.shape[1]):
            cols.append(self.lam[:, i])
            names.append(f"lambda_{i + 1}")
        if self.lam_filtered is not None:
            for i in range(self.lam_filtered.shape[1]):
                cols.append(self.lam_filtered[:, i])
                names.append(f"lambdaF_{i + 1}")
        for k in range(self.phases.shape[0]):
            cols.append(self.phases[k])
            names.append(f"phase_{k + 1}")
        data = np.column_stack(cols)
        np.savetxt(
            path, data, fmt="%.17g", delimiter=",", comments="",
            header=",".join(names),
        )


def step_bound(basis, beta):
    """Largest admissible RK4 step: resolves the fastest probe and the
    fast time constant (at least 40 steps per probe period, 20 per 1/beta)."""
    return min(1.0 / (40.0 * basis.max_omega), 0.05 / beta, 0.05)


def _resolve_step(basis, beta, horizon, step):
    if horizon <= 0:
        raise ConfigError(f"horizon must be positive, got {horizon}")
    bound = step_bound(basis, beta)
    if step is None:
        h = bound
    else:
        if step <= 0:
            raise ConfigError(f"step must be positive, got {step}")
        if step > bound * (1.0 + 1e-12):
            raise ConfigError(
                f"step {step:.6g} exceeds the policy bound {bound:.6g}"
            )
        h = float(step)
    n_steps = max(1, math.ceil(horizon / h - 1e-12))
    return horizon / n_steps, n_steps


def _floats(value, size, name):
    """A callback's block as a list of size Python floats.

    A scalar stands for a 1-element block; any other length mismatch
    raises ConfigError naming the callback.  A list of size Python floats
    is returned as it is: converting it through a float64 array would give
    the same floats back, at about three times the cost of the check.
    """
    if type(value) is list and len(value) == size:
        for v in value:
            if type(v) is not float:
                break
        else:
            return value
    out = np.asarray(value, dtype=float)
    if out.ndim != 1:
        out = out.ravel()
    out = out.tolist()
    if len(out) != size:
        raise ConfigError(f"{name} returned {len(out)} value(s), expected {size}")
    return out


def _pinned_gains(beta):
    """_rk4's gains callback for a frozen slow state: b = beta at every
    stage (a is passed the same value and left unread)."""

    def gains(ts):
        fixed = [float(beta)] * len(ts)
        return fixed, fixed

    return gains


def _rk4(rhs, x, h, n_steps, sample_stride, system, gains, start=0, record=None):
    """Advance the stacked state x by n_steps RK4 steps of size h.

    The stack is [theta; lambda] (with the filter's states appended) for
    integrate, lambda for integrate_frozen_fast, and [lambda; vec S] for
    qsakit.lyapunov.  x is the state at step index start, an integer:
    stage times are (start + i + 0.5*k)*h for step i and k in {0, 1, 2},
    and the sample times and the NonFinite time count from it too.  The
    multiplier of h is an exact half-integer, so a run split into
    segments at any step indices sees the same stage times, bit for bit,
    as the run made in one call.

    x is a list of Python floats, and so is every stage state: rhs(x, xi,
    a, b) receives one as a list and returns dx/dt as a list of the same
    length, given the probe vector xi and the slow and fast gains (a, b)
    at the stage time; gains(ts) returns both gains at the stage times ts
    as two lists of Python floats.  The stage and update arithmetic runs
    per element in numpy's elementwise operation order (x + half*k,
    x + h*k, then x + sixth*(k1 + 2*(k2 + k3) + k4)), so it rounds exactly
    as float64 arrays would.  Returns the sample times (every
    sample_stride steps from start, plus the final time) and the (n, D)
    buffer of states there.  Raises NonFinite at the end of the first
    step that leaves x non-finite.

    record, when given, is called as record(x, xi) once per sample, in
    sample order, with the sample's state (x is its row of the returned
    buffer, to be read, not written) and the probe vector at its time:
    the stage xi of index 2i, whose time is the sample time bit for bit.
    It fires at every sampled step before that step is taken, and once
    more at the final sample, so a caller can fill a preallocated buffer
    with a field evaluated along the run instead of rebuilding the probe
    from the samples afterwards.
    """
    steps = np.append(np.arange(0, n_steps, sample_stride), n_steps)
    samples = np.empty((steps.shape[0], len(x)))
    pmap, basis = system.probing, system.basis
    isfinite = math.isfinite
    cursor = 0
    h = float(h)  # a numpy scalar step would make every stage product a numpy op
    sixth = h / 6.0
    half = h * 0.5
    for chunk in range(0, n_steps, _CHUNK):
        m = min(_CHUNK, n_steps - chunk)
        # stage times for steps chunk..chunk+m-1: half-grid from (start+chunk)*h
        ts = (start + chunk + 0.5 * np.arange(2 * m + 1)) * h
        xis = list(probe_signal(pmap, basis, ts).T)
        a_all, b_all = gains(ts)
        for i in range(m):
            gi = chunk + i
            j = 2 * i
            if gi % sample_stride == 0:
                samples[cursor] = x
                if record is not None:
                    record(samples[cursor], xis[j])
                cursor += 1
            xim, am, bm = xis[j + 1], a_all[j + 1], b_all[j + 1]
            k1 = rhs(x, xis[j], a_all[j], b_all[j])
            k2 = rhs([v + half * k for v, k in zip(x, k1)], xim, am, bm)
            k3 = rhs([v + half * k for v, k in zip(x, k2)], xim, am, bm)
            k4 = rhs(
                [v + h * k for v, k in zip(x, k3)], xis[j + 2], a_all[j + 2], b_all[j + 2]
            )
            x = [
                v + sixth * (p + 2.0 * (q + r) + u)
                for v, p, q, r, u in zip(x, k1, k2, k3, k4)
            ]
            if not all(map(isfinite, x)):
                raise NonFinite((start + gi + 1) * h)
    samples[cursor] = x
    if record is not None:
        record(samples[cursor], xis[2 * m])
    return (start + steps) * h, samples


def integrate(
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

    x0 is the pair (theta0, lambda0); the RK4 kernel advances the stacked
    state [theta; lambda].  With filt (a SecondOrderFilter) the stack is
    extended by (Lambda^F, dLambda^F), initialized to (lambda0, 0) unless
    filter_init overrides them.  The filter only observes Lambda: the slow
    field reads the raw Lambda, so theta and lam are identical to an
    unfiltered run.  Samples are stored every sample_stride steps plus the
    final time; the Trajectory fields are column views of one sample
    buffer.  Raises NonFinite with the offending time on blow-up.
    """
    if sample_stride < 1:
        raise ConfigError(f"sample_stride must be >= 1, got {sample_stride}")
    theta = np.atleast_1d(np.asarray(x0[0], dtype=float))
    lam = np.atleast_1d(np.asarray(x0[1], dtype=float))
    if theta.shape != (system.dim_slow,) or lam.shape != (system.dim_fast,):
        raise ConfigError(
            f"x0 shapes {theta.shape}/{lam.shape} do not match system "
            f"dimensions {system.dim_slow}/{system.dim_fast}"
        )
    h, n_steps = _resolve_step(system.basis, schedule.beta, horizon, step)

    blocks = [theta, lam]
    if filt is not None:
        if filter_init is None:
            blocks += [lam, np.zeros_like(lam)]
        else:
            lam_f = np.atleast_1d(np.asarray(filter_init[0], dtype=float))
            vel_f = np.atleast_1d(np.asarray(filter_init[1], dtype=float))
            if lam_f.shape != lam.shape or vel_f.shape != lam.shape:
                raise ConfigError("filter_init shapes must match lambda0")
            blocks += [lam_f, vel_f]
        gamma2 = filt.gamma**2
        two_zg = 2.0 * filt.zeta * filt.gamma

    g_cb, h_cb, gp_cb = system.g, system.h, system.g_probe
    ds, df = system.dim_slow, system.dim_fast
    dx = ds + df

    def rhs(x, xi, a, b):
        stage = np.array(x)
        th, la = stage[:ds], stage[ds:dx]
        gv = _floats(g_cb(th, la, xi), ds, "g")
        if gp_cb is not None:
            gp = _floats(gp_cb(th, la, xi), ds, "g_probe")
            out = [a * (v + a * p) for v, p in zip(gv, gp)]
        else:
            out = [a * v for v in gv]
        out += [b * v for v in _floats(h_cb(th, la, xi), df, "h")]
        if filt is None:
            return out
        vf = x[dx + df :]
        out += vf
        out += [
            gamma2 * (l - f) - two_zg * v
            for l, f, v in zip(x[ds:dx], x[dx : dx + df], vf)
        ]
        return out

    def gains(ts):
        return (
            schedule.slow_gain_array(ts).tolist(),
            schedule.fast_gain_array(ts).tolist(),
        )

    t, samples = _rk4(
        rhs, np.concatenate(blocks).tolist(), h, n_steps, sample_stride, system, gains
    )
    return Trajectory(
        t=t,
        theta=samples[:, :ds],
        lam=samples[:, ds:dx],
        a=schedule.slow_gain_array(t),
        beta=schedule.fast_gain_array(t),
        phases=clock_phases(system.basis, t),
        lam_filtered=samples[:, dx : dx + df] if filt is not None else None,
        dlam_filtered=samples[:, dx + df :] if filt is not None else None,
    )


def integrate_frozen_fast(
    system, theta, lambda0, beta, horizon, *, step=None, sample_stride=1, _record=None
):
    """Integrate the fast variable alone with the slow one pinned:

        d/dt Lambda = beta * h(theta, Lambda, xi_t).

    The RK4 kernel advances Lambda alone.  Returns a Trajectory whose theta
    block repeats the frozen value and whose slow-gain column is zero.
    _record is the kernel's record(x, xi) hook (see _rk4), for
    qsakit.meanflow, which averages the slow field along the run.
    """
    if sample_stride < 1:
        raise ConfigError(f"sample_stride must be >= 1, got {sample_stride}")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    lam = np.atleast_1d(np.asarray(lambda0, dtype=float))
    if theta.shape != (system.dim_slow,) or lam.shape != (system.dim_fast,):
        raise ConfigError("frozen state shapes do not match system dimensions")
    if beta <= 0:
        raise ConfigError(f"beta must be positive, got {beta}")
    h, n_steps = _resolve_step(system.basis, beta, horizon, step)
    h_cb, df = system.h, system.dim_fast

    def rhs(x, xi, a, b):
        return [b * v for v in _floats(h_cb(theta, np.array(x), xi), df, "h")]

    t, lam_samp = _rk4(
        rhs, lam.tolist(), h, n_steps, sample_stride, system, _pinned_gains(beta),
        record=_record,
    )
    n = t.shape[0]
    return Trajectory(
        t=t,
        theta=np.tile(theta, (n, 1)),
        lam=lam_samp,
        a=np.zeros(n),
        beta=np.full(n, float(beta)),
        phases=clock_phases(system.basis, t),
    )
