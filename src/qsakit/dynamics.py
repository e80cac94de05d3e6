"""Gain schedules, coupled system definitions, and the RK4 integrator.

The integrator advances the slow/fast pair

    d/dt Theta = a_t * g(Theta, Lambda, xi_t)
    d/dt Lambda = b_t * h(Theta, Lambda, xi_t)

One RK4 kernel, _rk4, is the package's only RK4 loop.  It advances one
stacked state: [Theta; Lambda] in coupled runs, Lambda alone in
frozen-fast runs, and [Lambda; vec S] (S row-major) in the segmented
sensitivity runs of qsakit.lyapunov.  A second-order filter attached to
a coupled run observes Lambda: Lambda^F and dLambda^F extend the stack
and ride along in the same step, but no field reads them, so Theta and
Lambda are the same with or without it.  Probing phases are recomputed
from t at every stage, never integrated, so runs are reproducible bit
for bit.  The kernel's record hook sees each sample's state and probe
vector, which is how qsakit.meanflow averages the slow field in one pass.

The kernel holds states, stage derivatives and probe vectors as lists
of Python floats (one tolist() per block of steps; the block's last row
is carried into the next, so stages at one time share one list).  Every
run reads the system's one stage field, stage(theta, lam, xi, a, b) ->
(slow, fast), the stage derivative at gains (a, b) on such lists: slow =
a*(g + a*g_probe), or a*g without probing feedback, and fast = b*h.  A
gain of None skips its part (None in its place): frozen runs pass a =
None, the averaged slow field b = None.  Each run checks the parts'
lengths at its first stage (ConfigError naming stage and the part).  The
built-in systems write the field directly; array callbacks g, h and
g_probe are wrapped by one adapter, which hands them float64 arrays and
reads each output back as a list of its block's length (a scalar fills a
1-element block, any other length is a ConfigError).

The steps of a block run in a loop generated as straight-line source
once per state length D and compiled on first use, as dataclasses and
namedtuple generate code: the state sits in locals x0 .. x{D-1}, each
stage state is one list display, the update and the finiteness test
are written out per component, so no comprehension frame is built in a
step.  Binary64 +, - and * on Python floats round exactly as numpy's
elementwise float64 operations, performed here in the order of the
array expressions, so trajectories are bit for bit those of the step
written on arrays.  This pays off for small stacks only.  Against an
RK4 step on float64 arrays, on Python 3.11.7 (a 2-vCPU host, best of
12), an rhs written on floats was faster up to D = 32 (12.7 against
14.0 us per step) and slower from D = 48 on; an rhs that is one numpy
expression, reached through np.array in and tolist() out, was faster up
to D = 16 (12.5 against 13.8 us) and slower from D = 24 on (D = 32:
19.9 against 14.0 us).  These figures hold for 3.11 only: Python 3.12
inlines comprehensions (PEP 709), which makes the comprehension step this
loop replaced cheaper there.  Every built-in system has D <= 5 in coupled
and frozen runs.
"""

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFinite
from .probing import clock_phases, identity_map, probe_signal

#: steps per precomputed probe/gain block inside the integrator; a block
#: holds a Python object per stage, so it is kept short to bound memory
_CHUNK = 1 << 10

#: trajectory rows per formatted block of Trajectory.to_csv
_CSV_BLOCK = 1 << 10

#: _rk4's block loop per state length, generated on first use (_step_loop)
_STEP_LOOPS = {}


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

    g and h are array callbacks (theta, lam, xi) -> array; g_probe adds
    a_t-weighted probing feedback (slow rate a_t * (g + a_t * g_probe)).
    Runs read the stage property; a built-in system also passes its stage
    field on floats as stage, with g, h, g_probe of the same values.  An
    exact Fourier form of [g; h] is checked against the callbacks at
    construction.  dh_dlambda(theta, lam, xi), called with the stage's
    lists, is an analytic fast Jacobian for sensitivity runs (shapes: see
    qsakit.lyapunov); lambda_star / theta_star record known equilibria.
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
        stage=None,
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
        self._fused = (g, h, g_probe, stage)
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

    @property
    def stage(self):
        """The stage field (module docstring): the one passed at construction
        while g, h and g_probe are the ones passed with it, else the adapter
        of the current callbacks, which a test or tracer may reassign.  Lists
        handed to it must not be changed later: memos key on them."""
        g, h, g_probe, stage = self._fused
        if stage is not None and self.g is g and self.h is h and self.g_probe is g_probe:
            return stage
        return _array_stage(self.g, self.h, self.g_probe, self.dim_slow, self.dim_fast)

    def analysis_floats(self, theta, lam, xi):
        """The averaged slow field g + g_probe at array-likes theta, lam, xi
        as a list of floats: the stage field's slow part at a = 1.0, which
        is exact."""
        return self.stage(*_float_lists(theta, lam, xi), 1.0, None)[0]

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
        """Write samples as CSV with 17 significant digits per value to a
        file name or text stream: np.savetxt's bytes, formatted with one %
        per block of _CSV_BLOCK rows, so one block of floats is held."""
        blocks = {"theta": self.theta, "lambda": self.lam, "lambdaF": self.lam_filtered}
        blocks = [(k, v) for k, v in blocks.items() if v is not None]
        blocks.append(("phase", self.phases.T))
        names = ["t", "a_t", "beta"]
        names += [f"{k}_{i + 1}" for k, v in blocks for i in range(v.shape[1])]
        data = np.column_stack([self.t, self.a, self.beta] + [v for _, v in blocks])
        row = ",".join(["%.17g"] * data.shape[1]) + "\n"
        with contextlib.ExitStack() as stack:
            fh = path if hasattr(path, "write") else stack.enter_context(open(path, "w"))
            fh.write(",".join(names) + "\n")
            for lo in range(0, data.shape[0], _CSV_BLOCK):
                block = data[lo : lo + _CSV_BLOCK]
                fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


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
    """A callback's block as a list of size Python floats; a scalar fills a
    1-element block, any other length mismatch is a ConfigError naming the
    callback.  A list of size floats is returned as it is (the array round
    trip gives the same floats at about three times the cost)."""
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


def _float_lists(*arrays):
    """Each array-like as a flat list of Python floats, via float64."""
    return [np.asarray(v, dtype=float).ravel().tolist() for v in arrays]


def _checked_parts(parts, slow, fast):
    """The stage field's output (slow, fast), checked to hold slow and fast
    values (None: a part that is not asked for, and not checked); any
    other length is a ConfigError naming the part."""
    for part, size, name in zip(parts, (slow, fast), ("slow", "fast")):
        if size is not None and (part is None or len(part) != size):
            got = "no" if part is None else len(part)
            raise ConfigError(f"stage returned {got} {name} value(s), expected {size}")
    return parts


def _callbacks_of(stage):
    """Array callbacks (g, h) of a stage field without probing feedback:
    its parts at unit gains, as float64 arrays."""

    def g(theta, lam, xi):
        return np.array(stage(*_float_lists(theta, lam, xi), 1.0, None)[0])

    def h(theta, lam, xi):
        return np.array(stage(*_float_lists(theta, lam, xi), None, 1.0)[1])

    return g, h


def _array_stage(g, h, g_probe, dim_slow, dim_fast):
    """The stage field of array callbacks: they get float64 arrays, in the
    order g, g_probe, h (each only when its gain is given), and _floats
    reads each output."""

    def stage(theta, lam, xi, a, b):
        th, la, xv, slow, fast = np.array(theta), np.array(lam), np.array(xi), None, None
        if a is not None:
            gv = _floats(g(th, la, xv), dim_slow, "g")
            if g_probe is None:
                slow = [a * v for v in gv]
            else:
                gp = _floats(g_probe(th, la, xv), dim_slow, "g_probe")
                slow = [a * (v + a * p) for v, p in zip(gv, gp)]
        if b is not None:
            fast = [b * v for v in _floats(h(th, la, xv), dim_fast, "h")]
        return slow, fast

    return stage


def _pinned_gains(beta):
    """_rk4's gains callback for a frozen slow state: b = beta at every
    stage (a, the same list, goes unread: frozen runs pass a = None)."""

    def gains(ts):
        fixed = [float(beta)] * len(ts)
        return fixed, fixed

    return gains


def _step_loop_source(size):
    """Python source of the RK4 loop over one block of steps for stacked
    states of length size, written out per component (see _rk4)."""
    comps = range(size)

    def targets(name):  # a trailing comma makes a tuple target at any size
        return "".join(f"{name}{d}, " for d in comps)

    def stage_state(c, k):
        return "[" + ", ".join(f"x{d} + {c} * {k}{d}" for d in comps) + "]"

    lines = [
        "def rk4_block(rhs, x, xis, a_all, b_all, gi, m, stride, samples, cursor,",
        "              record, start, h, half, sixth):",
        f"    {targets('x')}= x",
        "    for j in range(0, 2 * m, 2):",
        "        if gi % stride == 0:",
        "            samples[cursor] = x",
        "            if record is not None:",
        "                record(x, xis[j])",
        "            cursor += 1",
        "        xim, am, bm = xis[j + 1], a_all[j + 1], b_all[j + 1]",
        f"        {targets('k1_')}= rhs(x, xis[j], a_all[j], b_all[j])",
        f"        {targets('k2_')}= rhs({stage_state('half', 'k1_')}, xim, am, bm)",
        f"        {targets('k3_')}= rhs({stage_state('half', 'k2_')}, xim, am, bm)",
        f"        {targets('k4_')}= rhs({stage_state('h', 'k3_')}, xis[j + 2], a_all[j + 2], b_all[j + 2])",
        *(f"        x{d} = x{d} + sixth * (k1_{d} + 2.0 * (k2_{d} + k3_{d}) + k4_{d})" for d in comps),
        "        gi += 1",
        "        if not (" + " and ".join(f"isfinite(x{d})" for d in comps) + "):",
        "            raise NonFinite((start + gi) * h)",
        "        x = [" + ", ".join(f"x{d}" for d in comps) + "]",
        "    return x, cursor",
    ]
    return "\n".join(lines) + "\n"


def _step_loop(size):
    """The compiled block loop of _step_loop_source(size), built on first
    use and kept in _STEP_LOOPS."""
    loop = _STEP_LOOPS.get(size)
    if loop is None:
        namespace = {"isfinite": math.isfinite, "NonFinite": NonFinite}
        code = compile(_step_loop_source(size), f"<qsakit.dynamics rk4 D={size}>", "exec")
        exec(code, namespace)
        loop = _STEP_LOOPS[size] = namespace["rk4_block"]
    return loop


def _rk4(rhs, x, h, n_steps, sample_stride, system, gains, start=0, record=None):
    """Advance the stacked state x by n_steps RK4 steps of size h.

    x is the stacked state (module docstring) at step index start, an
    integer: stage times are (start + i + 0.5*k)*h for step i and k in
    {0, 1, 2}, and the sample and NonFinite times count from it too.  The
    multiplier of h is an exact half-integer, so a run split into segments
    at any step indices sees the stage times of the run made in one call.

    x and every stage state are lists of Python floats: rhs(x, xi, a, b)
    returns dx/dt as a sequence of the same length, given the probe vector
    xi (a list) and the gains (a, b) at the stage time; gains(ts) returns
    both gains at the stage times ts as two lists.  The steps of each
    block of _CHUNK run in the loop generated for len(x) (_step_loop),
    which holds the state in locals x0 .. x{D-1} and writes every
    component's arithmetic out in numpy's elementwise order (x + half*k,
    x + h*k, then x + sixth*(k1 + 2*(k2 + k3) + k4)), so it rounds as
    float64 arrays would.  An rhs output of another length is a
    ValueError there.  Returns the sample times (every sample_stride
    steps from start, plus the final time) and the (n, D) buffer of
    states there.  Raises NonFinite at the end of the first step that
    leaves x non-finite.

    record(x, xi), when given, is called at each sample, in order and
    before the sampled step (and once at the final sample), with the
    state x (the kernel's list, to be read, not written) and the very
    probe list the step's first stage receives, so a caller can fill a
    buffer with a field along the run.
    """
    steps = np.append(np.arange(0, n_steps, sample_stride), n_steps)
    samples = np.empty((steps.shape[0], len(x)))
    loop = _step_loop(len(x))
    pmap, basis = system.probing, system.basis
    cursor = 0
    h = float(h)  # a numpy scalar step would make every stage product a numpy op
    sixth = h / 6.0
    half = h * 0.5
    xis = None
    for chunk in range(0, n_steps, _CHUNK):
        m = min(_CHUNK, n_steps - chunk)
        # stage times for steps chunk..chunk+m-1: half-grid from (start+chunk)*h
        ts = (start + chunk + 0.5 * np.arange(2 * m + 1)) * h
        carried = xis[-1] if xis is not None else None
        xis = probe_signal(pmap, basis, ts).T.tolist()
        if carried is not None:
            xis[0] = carried  # the same time, so every stage there sees one list
        a_all, b_all = gains(ts)
        x, cursor = loop(
            rhs, x, xis, a_all, b_all, chunk, m, sample_stride, samples, cursor,
            record, start, h, half, sixth,
        )
    samples[cursor] = x
    if record is not None:
        record(x, xis[2 * m])
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
    filter_init overrides them; the filter only observes Lambda, so theta
    and lam are those of an unfiltered run.  Samples are stored every
    sample_stride steps plus the final time, as column views of one
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

    field = system.stage
    ds, df = system.dim_slow, system.dim_fast
    dx = ds + df

    def stage(*args):
        nonlocal stage
        stage = field  # the run's first stage is checked, the rest call field
        return _checked_parts(field(*args), ds, df)

    def rhs(x, xi, a, b):
        slow, fast = stage(x[:ds], x[ds:dx], xi, a, b)
        out = slow + fast
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
        return schedule.slow_gain_array(ts).tolist(), schedule.fast_gain_array(ts).tolist()

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

    The RK4 kernel advances Lambda alone on the stage field's fast part
    (a = None).  Returns a Trajectory whose theta block repeats the frozen
    value and whose slow-gain column is zero.  _record is the kernel's
    record(x, xi) hook (see _rk4), for qsakit.meanflow.
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
    field, th, df = system.stage, theta.tolist(), system.dim_fast

    def stage(*args):
        nonlocal stage
        stage = field  # the run's first stage is checked, the rest call field
        return _checked_parts(field(*args), None, df)

    def rhs(x, xi, a, b):
        return stage(th, x, xi, None, b)[1]

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
