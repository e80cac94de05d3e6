"""Gradient-free extremum seeking assembled as a slow/fast probing system.

The controller evaluates the objective at a probed point theta + eps(theta)*xi,
normalizes by the probing gain, washes the DC component out of the measurement
with a high-pass filter, and correlates the result with a filtered copy of the
probe.  The correlation is an averaged gradient read-out: writing M(s) for the
washout transfer function and Sigma for the covariance of the filtered probe,
the long-run average of the update is

    -(sigma (theta - theta_ctr) + Sigma grad(objective)) + O(eps^2).

Note the curvature matrix is Sigma alone.  The measurement and the probe pass
through the same filter, so the direct feedthrough J enters the state response
and the feedthrough term with opposite signs and cancels from the correlation:
per probe tone, 0.5 Re(M conj(M - J)) + 0.5 J Re(M) = 0.5 |M|^2.  The moment
M0 = J E[xi_check xi^T] therefore shows up only as a diagnostic (it shifts the
state-response and feedthrough channels individually, and Sigma + M0 is the
passivity read-out), never in the averaged field itself.

The fast state of the assembled system is the washout state driven by the
normalized measurement.  Filtered probe channels carry no state: the probes
are single tones, so their filtered copies are computed in closed form from
the clock phasors via the transfer function at each probe frequency.

The objective is evaluated once per stage point the kernel hands over:
the stage field computes the slow and fast parts of one RK4 stage from
one measurement f(theta + eps xi) / eps, and a repeated stage point,
which the kernel passes as the same theta and probe lists (the
frozen-fast midpoint and step boundary, and the sample qsakit.meanflow
records), reuses the last one without a call.  eps is a constant under
constant gain, else eps(theta) is evaluated once per theta list.  Lists
built afresh, as the array callbacks build them, are measured anew.
Objectives, external commands included, must therefore be deterministic.

The measurement computes on lists of Python floats, since numpy's
per-call cost dominates on one or two elements.  Each float operation is
the one numpy performs per element, in numpy's order, so every result
rounds exactly as the array expression did: the probed point t + eps*x,
the probe term -x_check * filtered, the slow term -sigma*(t - c), and
with a single a_t -sigma*(t - c) + -x_check*filtered.  The probed point
reaches Objective.__call__ as that list, and the built-in quadratic sums
it on floats up to 7 coordinates; any other objective function, and a
callable that is not an Objective or defines its own __call__, receives
one float64 array.  The washout products F lambda and H'lambda are floats
only at order 1, where numpy's 1x1 matvec and one-element dot compute
0.0 + m*l: the 0.0 turns a -0.0 product into +0.0.  At order >= 2 numpy
computes them, since a sequential float sum does not follow its
summation order (BLAS, FMA): on random order-2 inputs it differs from
numpy's dot in about a quarter of cases and from its matvec in nearly
half.  Every washout a config builds is order 1.
"""

from __future__ import annotations

import logging
import math
import shlex
import subprocess
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import TwoTimescaleSystem, _callbacks_of, _float_lists
from .errors import ConfigError, NegativeObjective, NonHurwitz
from .filters import StateSpaceFilter, transfer, washout_filter
from .probing import DEFAULT_PAIRS, FrequencyBasis, ProbingMap, default_basis, ergodic_average

logger = logging.getLogger(__name__)

GAIN_KINDS = ("objective_scaled", "prior_scaled", "constant")

#: seconds one external objective evaluation may take before the run is
#: stopped; a stuck command would otherwise hang the run forever
OBJECTIVE_TIMEOUT_S = 60.0

#: external objective evaluations one ProcessObjective may make; a run
#: that needs more is stopped rather than left to spawn processes unbounded
OBJECTIVE_MAX_EVALUATIONS = 1_000_000

#: agreement tolerance for the probe-moment averages (fixed, not tunable:
#: the moments are constants of the basis/filter pair)
MOMENT_TOL = 1e-6


_FLOAT64 = np.dtype(float)


class Objective:
    """Callable objective with an optional analytic gradient attached.

    Called with a (d,) point, an array-like or a list of real numbers (the
    extremum seeker's probed points).  The function receives it as one
    float64 array and must return a scalar; only the built-in quadratic's
    takes a list as it is (_quadratic_value).  The gradient, when present,
    is used for diagnostics only (the algorithm itself never differentiates).
    """

    _takes_lists = False  # whether the function takes a list as it is

    def __init__(self, fn, grad=None, name=None):
        self._fn = fn
        self.grad = grad
        self.name = name

    def __call__(self, theta):
        if type(theta) is list:
            if self._takes_lists:
                return self._fn(theta)
            theta = np.array(theta, dtype=float)
        elif type(theta) is not np.ndarray or theta.dtype is not _FLOAT64 or theta.ndim != 1:
            theta = np.atleast_1d(np.asarray(theta, dtype=float))
        return float(self._fn(theta))


#: longest theta that quadratic_objective sums on Python floats; from 8
#: elements on numpy's pairwise sum runs eight interleaved partial sums
_SEQUENTIAL_SUM_MAX = 7


def _quadratic_value(c, w):
    """theta -> 0.5 * float((w * (theta - c) ** 2).sum()) for float64 arrays
    c and w and theta a list of real numbers or a float64 array, rounded
    exactly as that numpy expression on theta as a float64 array.

    For n <= _SEQUENTIAL_SUM_MAX coordinates, with c and w each 0-d or of
    shape (n,), the value is computed on Python floats: d = float(t) - c
    and w*(d*d) per element, summed from +0.0 in index order, which is
    what numpy's sum does below 8 elements (its accumulator starts at +0.0,
    so -0.0 terms sum to +0.0), then halved.  d*d and not d**2: a Python
    float power raises OverflowError where numpy returns inf.  Every other
    shape, numpy's broadcasting included, takes the numpy expression.
    """

    def lane(a, n):
        if a.ndim == 0:
            return [a.item()] * n
        return a.tolist() if a.shape == (n,) else None

    terms = {}
    for n in range(1, _SEQUENTIAL_SUM_MAX + 1):
        cs, ws = lane(c, n), lane(w, n)
        if cs is not None and ws is not None:
            terms[n] = list(zip(cs, ws))

    def value(th):
        if type(th) is not list and th.ndim == 1 and th.shape[0] in terms:
            th = th.tolist()
        pairs = terms.get(len(th)) if type(th) is list else None
        if pairs is None:
            th = np.asarray(th, dtype=float)
            return 0.5 * float((w * (th - c) ** 2).sum())
        acc = 0.0
        for t, (ci, wi) in zip(th, pairs):
            d = float(t) - ci
            acc += wi * (d * d)
        return 0.5 * acc

    return value


def quadratic_objective(center=0.0, weights=1.0) -> Objective:
    """0.5 * sum_i w_i (theta_i - c_i)^2.

    Evaluated on Python floats for up to 7 coordinates and as a numpy
    expression beyond, with the same rounding either way (_quadratic_value).
    """
    c = np.asarray(center, dtype=float)
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0):
        raise ConfigError("quadratic weights must be positive")
    objective = Objective(
        fn=_quadratic_value(c, w),
        grad=lambda th: w * (th - c),
        name="quadratic",
    )
    objective._takes_lists = True
    return objective


def rosenbrock_objective(a=1.0, b=100.0) -> Objective:
    """(a - theta_1)^2 + b (theta_2 - theta_1^2)^2 on R^2."""

    def fn(th):
        if th.shape[0] != 2:
            raise ConfigError("rosenbrock objective is defined on R^2")
        return (a - th[0]) ** 2 + b * (th[1] - th[0] ** 2) ** 2

    def grad(th):
        gap = th[1] - th[0] ** 2
        return np.array([-2.0 * (a - th[0]) - 4.0 * b * th[0] * gap, 2.0 * b * gap])

    return Objective(fn=fn, grad=grad, name="rosenbrock")


def quartic_objective(scale=1.0) -> Objective:
    """scale * ||theta||^4."""
    s = float(scale)
    if s <= 0:
        raise ConfigError("quartic scale must be positive")
    return Objective(
        fn=lambda th: s * float(th @ th) ** 2,
        grad=lambda th: 4.0 * s * float(th @ th) * th,
        name="quartic",
    )


OBJECTIVES = {
    "quadratic": quadratic_objective,
    "rosenbrock": rosenbrock_objective,
    "quartic": quartic_objective,
}


def named_objective(name, **params) -> Objective:
    """Built-in objective by name with keyword parameters."""
    if name not in OBJECTIVES:
        raise ConfigError(
            f"unknown objective {name!r}; built-ins: {sorted(OBJECTIVES)}"
        )
    try:
        return OBJECTIVES[name](**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for objective {name!r}: {exc}") from exc


class ProcessObjective:
    """Objective evaluated by an external command, one invocation per call.

    Protocol: the point is written to the command's standard input as one
    line of space-separated decimals; the command prints one decimal on
    standard output and exits.  Every evaluation is counted and the count
    is logged, since external evaluations are presumed expensive.  An
    evaluation that takes longer than OBJECTIVE_TIMEOUT_S is killed and
    raises ConfigError, and so does a call that would take the count past
    OBJECTIVE_MAX_EVALUATIONS.
    """

    def __init__(self, command):
        self.argv = shlex.split(command) if isinstance(command, str) else list(command)
        if not self.argv:
            raise ConfigError("objective command must be non-empty")
        self.evaluations = 0
        self.grad = None
        self.name = "process"

    def __call__(self, theta):
        if self.evaluations >= OBJECTIVE_MAX_EVALUATIONS:
            raise ConfigError(
                f"objective command {shlex.join(self.argv)!r} reached the limit "
                f"of {OBJECTIVE_MAX_EVALUATIONS} evaluations"
            )
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        line = " ".join(format(v, ".17g") for v in theta) + "\n"
        try:
            proc = subprocess.run(
                self.argv,
                input=line,
                capture_output=True,
                text=True,
                check=True,
                timeout=OBJECTIVE_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise ConfigError(
                f"objective command {shlex.join(self.argv)!r} did not answer "
                f"within {OBJECTIVE_TIMEOUT_S:g} s"
            ) from exc
        except (OSError, subprocess.CalledProcessError) as exc:
            detail = getattr(exc, "stderr", "") or str(exc)
            raise ConfigError(f"objective command failed: {detail.strip()}") from exc
        self.evaluations += 1
        logger.debug("external objective evaluation %d", self.evaluations)
        try:
            return float(proc.stdout.strip())
        except ValueError as exc:
            raise ConfigError(
                f"objective command printed {proc.stdout.strip()!r}, not a decimal"
            ) from exc


@dataclass(frozen=True)
class EscConfig:
    """Extremum-seeking configuration.

    objective maps a (d,) point to a scalar; grad, when given (or attached
    to the objective), is used for diagnostics only.  The probe amplitude
    is eps(theta): the base epsilon, scaled per gain_kind.  theta_ctr and
    sigma_p parametrize the prior-scaled gain and the sigma regularization
    pull; the washout filter strips the DC component of the normalized
    measurement.  The fast gain is not part of this config: an assembled
    system runs at the fast gain of the schedule it is integrated with
    (qsakit esc uses gains.beta).
    """

    objective: Callable
    epsilon: float
    dim: int | None = None
    gain_kind: str = "constant"
    theta_ctr: np.ndarray | None = None
    sigma_p: float = 1.0
    sigma: float = 0.0
    washout: StateSpaceFilter | None = None
    probing: FrequencyBasis | None = None
    grad: Callable | None = None
    single_at: bool = False
    name: str | None = None

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if self.gain_kind not in GAIN_KINDS:
            raise ConfigError(
                f"gain_kind must be one of {GAIN_KINDS}, got {self.gain_kind!r}"
            )
        if self.sigma_p <= 0:
            raise ConfigError(f"sigma_p must be positive, got {self.sigma_p}")
        if self.sigma < 0:
            raise ConfigError(f"sigma must be nonnegative, got {self.sigma}")

        dim = self.dim
        if dim is None:
            if self.theta_ctr is not None:
                dim = np.atleast_1d(np.asarray(self.theta_ctr)).shape[0]
            elif self.probing is not None:
                dim = self.probing.size
            else:
                dim = 1
        dim = int(dim)
        if dim < 1:
            raise ConfigError(f"dim must be positive, got {dim}")

        ctr = self.theta_ctr
        ctr = np.zeros(dim) if ctr is None else np.atleast_1d(np.asarray(ctr, dtype=float))
        if ctr.shape != (dim,):
            raise ConfigError(
                f"theta_ctr shape {ctr.shape} does not match dim {dim}"
            )

        basis = self.probing
        if basis is None:
            if dim > len(DEFAULT_PAIRS):
                raise ConfigError(
                    f"no default probing basis for dim {dim}; supply one"
                )
            basis = default_basis(dim)
        if basis.size != dim:
            raise ConfigError(
                f"probing basis has {basis.size} tones but dim is {dim}: "
                "each coordinate needs its own probe frequency"
            )

        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "theta_ctr", ctr)
        object.__setattr__(self, "probing", basis)
        if self.washout is None:
            object.__setattr__(self, "washout", washout_filter(1.0))


def _negative_objective(value, point):
    """NegativeObjective for a negative objective value at a point."""
    return NegativeObjective(
        f"objective value {value:.6g} at {np.array2string(np.asarray(point), precision=6)}; "
        "the objective-scaled probing gain needs a nonnegative objective"
    )


def _objective_value(config, point):
    """Objective at a point, guarding the sign assumption where it applies."""
    val = float(config.objective(point))
    if config.gain_kind == "objective_scaled" and val < 0:
        raise _negative_objective(val, point)
    return val


def probing_gain(config, theta) -> float:
    """State-dependent probe amplitude eps(theta).

    objective_scaled: eps*sqrt(1 + objective); prior_scaled:
    eps*sqrt(1 + ||theta - theta_ctr||^2 / sigma_p^2); constant: eps.
    The state-dependent forms grow with the distance scale, which keeps
    the normalized measurement Lipschitz for fast-growing objectives.
    """
    if config.gain_kind == "constant":
        return config.epsilon
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if config.gain_kind == "objective_scaled":
        return config.epsilon * math.sqrt(1.0 + _objective_value(config, theta))
    dev = theta - config.theta_ctr  # prior_scaled
    return config.epsilon * math.sqrt(1.0 + float(dev @ dev) / config.sigma_p**2)


def _measurement(config):
    """The seeker's measurement (theta, xi) -> f(theta + eps xi) / eps for
    lists of floats theta and xi, eps = eps(theta); xi may run longer than
    theta, and only its first len(theta) entries are read (module
    docstring)."""
    objective = config.objective
    takes_lists = type(objective).__call__ is Objective.__call__
    constant = config.gain_kind == "constant"
    guarded = config.gain_kind == "objective_scaled"
    eps_memo = (None, config.epsilon)

    def measure(theta, xi):
        nonlocal eps_memo
        last = eps_memo
        if not (constant or theta is last[0]):
            last = eps_memo = (theta, probing_gain(config, theta))
        eps = last[1]
        point = [t + eps * x for t, x in zip(theta, xi)]
        value = objective(point) if takes_lists else float(objective(np.array(point)))
        if guarded and value < 0:
            raise _negative_objective(value, point)
        return value / eps

    return measure


def normalized_observation(config, theta, xi) -> float:
    """Measured objective at the probed point, scaled by 1/eps(theta)."""
    return _measurement(config)(*_float_lists(theta, xi))


def objective_gradient(config) -> Callable[[np.ndarray], np.ndarray]:
    """Gradient callable: analytic when attached, else central differences.

    Diagnostics only; the FD step 1e-5 * max(1, ||theta||) sits well above
    roundoff for objective values of moderate dynamic range.
    """
    grad = config.grad if config.grad is not None else getattr(config.objective, "grad", None)
    if grad is not None:
        return lambda th: np.atleast_1d(
            np.asarray(grad(np.atleast_1d(np.asarray(th, dtype=float))), dtype=float)
        )
    fn = config.objective

    def by_difference(th):
        th = np.atleast_1d(np.asarray(th, dtype=float))
        delta = 1e-5 * max(1.0, float(np.linalg.norm(th)))
        out = np.zeros(th.shape[0])
        for j in range(th.shape[0]):
            up = th.copy()
            up[j] += delta
            dn = th.copy()
            dn[j] -= delta
            out[j] = (float(fn(up)) - float(fn(dn))) / (2.0 * delta)
        return out

    return by_difference


def _probe_transfer(config) -> np.ndarray:
    """Washout response at each probe frequency (rad/s = 2 pi omega_i)."""
    return np.array(
        [transfer(config.washout, 2j * math.pi * w) for w in config.probing.omegas]
    )


def extended_probe_map(config) -> ProbingMap:
    """Probe vector [xi; xi_check]: raw cosines and their filtered copies.

    The filtered copies are steady-state responses, read off the clock
    phasors: a tone Re(z) maps to Re(M(j w) z).  They are exact for all t,
    so no filter transient ever enters the probe channels.
    """
    gains = _probe_transfer(config)

    def g_state(z):
        z = np.asarray(z)
        w = gains if z.ndim == 1 else gains[:, None]
        return np.concatenate([z.real, (w * z).real], axis=0)

    return ProbingMap(m=2 * config.dim, g_state=g_state)


def esc_constants(config) -> tuple[np.ndarray, np.ndarray]:
    """Probe second moments: (Sigma, M0).

    Sigma = E[xi_check xi_check^T] is the filtered-probe covariance and the
    curvature matrix of the averaged update; M0 = J E[xi_check xi^T] is the
    feedthrough moment (diagnostic; Sigma + M0 is the passivity read-out).
    Both are constants of the basis/filter pair, computed by ergodic
    averaging of the outer products.
    """
    pmap = extended_probe_map(config)
    d = config.dim

    def u(_, xi):
        if xi.ndim == 1:
            xi = xi[:, None]
        raw, filt = xi[:d], xi[d:]
        ff = np.einsum("in,jn->ijn", filt, filt).reshape(d * d, -1)
        fr = np.einsum("in,jn->ijn", filt, raw).reshape(d * d, -1)
        return np.concatenate([ff, fr], axis=0)

    avg = ergodic_average(
        u, np.zeros(1), config.probing, pmap, tol=MOMENT_TOL
    ).value
    sigma = avg[: d * d].reshape(d, d)
    m0 = config.washout.J * avg[d * d :].reshape(d, d)
    return sigma, m0


def esc_meanflow_approx(config, theta, sigma_check, m0) -> np.ndarray:
    """Closed-form averaged update: -(sigma (theta - ctr) + Sigma grad).

    Accurate to O(eps^2) for smooth objectives.  m0 is accepted alongside
    sigma_check because the two moments are computed together, but it does
    not enter the field: the feedthrough contributions of the state
    response and the direct term cancel (see the module docstring).
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    sigma_check = np.asarray(sigma_check, dtype=float)
    del m0
    grad = objective_gradient(config)(theta)
    return -(config.sigma * (theta - config.theta_ctr) + sigma_check @ grad)


def build_esc_system(config, *, theta_star=None) -> TwoTimescaleSystem:
    """Assemble the extremum seeker as a slow/fast system.

    Fast state: the washout state driven by the normalized measurement
    (affine in the state, so its top Lyapunov exponent is the filter's
    dominant eigenvalue).  Slow field: -sigma (theta - ctr) plus the probe
    correlation term; the correlation term is integrated with an extra
    factor a_t by default (g_probe mechanism), or folded into the plain
    slow field when config.single_at is set.  The washout state runs at
    the schedule's fast gain b_t (qsakit esc: gains.beta, default 0.1; the
    reference runs use 1).  The stage field reads its measurement memo
    itself and measures on a miss as normalized_observation does (module
    docstring); the array callbacks g, g_probe and h convert any array-like
    input to float64 lists first and return its values as float64 arrays.
    """
    washout = config.washout
    eigs = np.linalg.eigvals(washout.F)
    if np.any(eigs.real >= 0):
        raise NonHurwitz(
            f"washout state matrix has eigenvalue {eigs[np.argmax(eigs.real)]:.6g} "
            "with nonnegative real part"
        )
    F, G, H, J = washout.F, washout.G, washout.H, washout.J
    d = config.dim
    sigma = config.sigma
    ctr = config.theta_ctr

    # One-entry memo of the measurement, keyed by the identity of theta and
    # of the whole probe row: the kernel hands one probe list to every stage
    # at one time and one pinned theta list to a frozen run (and to
    # qsakit.meanflow's record), so frozen-fast stage points repeat as the
    # same lists (k2 and k3, k4 and the next k1, the recorded sample);
    # coupled stages get fresh theta lists.  A key holds its lists alive, so
    # an identity never recurs for another list.  The entry is replaced
    # whole and read once, so threads sharing a seeker can miss but never
    # mismatch.
    measure = _measurement(config)
    memo = (None, None, 0.0)
    ctr_floats = ctr.tolist()
    # negated before the conversion, as numpy negates it: an integer sigma
    # of 0 gives +0.0, not -0.0
    neg_sigma = float(-sigma)
    single_at = config.single_at
    # F lam and H'lam: 0.0 + m*l on floats at order 1, numpy's own product
    # at order >= 2 (module docstring)
    order1 = washout.order == 1
    f1, g1, h1 = (F.item(), G.item(), H.item()) if order1 else (None, None, None)

    def stage(theta, lam, xi, a, b):
        nonlocal memo
        last = memo
        if xi is last[1] and theta is last[0]:
            y = last[2]
        else:
            y = measure(theta, xi)
            memo = (theta, xi, y)
        slow = fast = None
        if a is not None:
            w = (0.0 + h1 * lam[0] if order1 else float(H @ np.array(lam))) + J * y
            k = 1.0 if single_at else a  # 1.0 * p is p, bit for bit
            pairs = zip(theta, ctr_floats, xi[d:])
            slow = [a * (neg_sigma * (t - c) + k * (-v * w)) for t, c, v in pairs]
        if b is not None:
            if order1:
                fast = [b * (0.0 + f1 * lam[0] + g1 * y)]
            else:
                fast = [b * v for v in (F @ np.array(lam) + G * y).tolist()]
        return slow, fast

    g_cb, h_cb = _callbacks_of(stage)
    g_probe = None
    if not single_at:
        def g_cb(theta, lam, xi):
            (theta,) = _float_lists(theta)
            return np.array([neg_sigma * (t - c) for t, c in zip(theta, ctr_floats)])

        def g_probe(theta, lam, xi):
            theta, lam, xi = _float_lists(theta, lam, xi)
            out = 0.0 + h1 * lam[0] if order1 else float(H @ np.array(lam))
            w = out + J * measure(theta, xi)
            return np.array([-v * w for v in xi[d:]])

    def dh_dlambda(theta, lam, xi):
        return [f1] if order1 else F

    # solved once; the sign convention makes lambda_star = -F^{-1} G * mean input
    neg_finv_g = -np.linalg.solve(F, G)
    def lambda_star(theta):
        # leading-order probe average of the fast state: the DC response
        # to objective/eps; exact only up to O(eps) Taylor terms
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        return neg_finv_g * (
            _objective_value(config, theta) / probing_gain(config, theta)
        )

    return TwoTimescaleSystem(
        dim_slow=d,
        dim_fast=washout.order,
        g=g_cb,
        h=h_cb,
        basis=config.probing,
        probing=extended_probe_map(config),
        g_probe=g_probe,
        stage=stage,
        dh_dlambda=dh_dlambda,
        lambda_star=lambda_star,
        theta_star=theta_star,
        name=config.name,
    )
