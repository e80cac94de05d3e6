"""Deterministic probing signals on an irrational-frequency torus clock.

The exploration signal is a fixed vector of sinusoids whose frequencies are
logarithms of integer ratios, omega_i = ln(a_i / b_i).  Distinct integer
pairs make the frequency vector rationally independent whenever the ratio
set shares no prime structure, and rational dependence of an integer
combination k is decidable exactly in integer arithmetic:

    sum_i k_i * omega_i = 0   <=>   prod_i a_i^{k_i} = prod_i b_i^{k_i}

with negative exponents moved to the opposite side.  All clock state is
advanced analytically from t (never by integrating the rotation), so a
probe value is a pure function of t and is reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DuplicateFrequency, InvalidPair, NonConvergent

__all__ = [
    "FrequencyBasis",
    "ClockState",
    "ProbingMap",
    "make_frequency_basis",
    "default_basis",
    "identity_map",
    "rational_dependence",
    "clock_phases",
    "probe_signal",
    "ergodic_average",
    "ErgodicAverage",
    "DEFAULT_PAIRS",
    "MAX_DEPENDENCE_ORDER",
]

# Generator pairs with prime-disjoint ratios 2, 3, 5/2, 7/2: rationally
# independent for every nonzero integer combination, not just low orders.
DEFAULT_PAIRS: tuple[tuple[int, int], ...] = ((2, 1), (3, 1), (5, 2), (7, 2))

# Cap on |k_i| so the exact integer products stay cheap.
MAX_DEPENDENCE_ORDER = 64


@dataclass(frozen=True)
class FrequencyBasis:
    """Validated probing frequencies omega_i = ln(a_i / b_i) with phases.

    Construct through :func:`make_frequency_basis`; the constructor itself
    performs no validation.
    """

    pairs: tuple[tuple[int, int], ...]
    omegas: tuple[float, ...]
    phases: tuple[float, ...]

    @property
    def size(self) -> int:
        return len(self.pairs)

    @property
    def max_omega(self) -> float:
        return max(self.omegas)

    @property
    def min_omega(self) -> float:
        return min(self.omegas)

    def omega_array(self) -> np.ndarray:
        return np.asarray(self.omegas, dtype=float)


@dataclass(frozen=True)
class ClockState:
    """Clock snapshot: the time and the K unit-circle positions."""

    t: float
    phi: np.ndarray  # complex, shape (K,), |phi_i| = 1


class ProbingMap:
    """Map from clock state to the probe vector in R^m.

    ``g_state`` maps the complex clock vector to R^m: a (K,) vector to
    (m,), and a (K, N) block of N clock states to (m, N), so it must act
    along the leading axis.  Probes that are functions of the cosine
    coordinates read ``z.real``; phase-shifted or filtered probes read
    the phasors themselves.
    """

    def __init__(self, m: int, g_state: Callable[[np.ndarray], np.ndarray]):
        self.m = int(m)
        self.g_state = g_state

    def __call__(self, phi: np.ndarray) -> np.ndarray:
        return np.asarray(self.g_state(phi), dtype=float)


def identity_map(k: int) -> ProbingMap:
    """Probe equal to the cosine coordinates of the clock."""
    return ProbingMap(m=k, g_state=lambda z: z.real)


def make_frequency_basis(
    pairs: Sequence[Sequence[int]],
    phases: Sequence[float] | None = None,
) -> FrequencyBasis:
    """Validate generator pairs and build the frequency basis.

    Parameters
    ----------
    pairs
        Sequence of (a, b) with integers a > b >= 1.
    phases
        Initial phases in cycles; reduced mod 1. Defaults to zeros.

    Raises
    ------
    InvalidPair
        Non-integer entries, b < 1, or a <= b.
    DuplicateFrequency
        Two pairs with exactly equal ratios (a_i * b_j == a_j * b_i).
    """
    norm: list[tuple[int, int]] = []
    for idx, pair in enumerate(pairs):
        if len(pair) != 2:
            raise InvalidPair(f"pair #{idx} must have exactly two entries")
        a, b = pair
        if not (isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer))):
            raise InvalidPair(f"pair #{idx} = ({a!r}, {b!r}) must be integers")
        a, b = int(a), int(b)
        if b < 1 or a <= b:
            raise InvalidPair(f"pair #{idx} = ({a}, {b}) must satisfy a > b >= 1")
        norm.append((a, b))
    for i in range(len(norm)):
        for j in range(i + 1, len(norm)):
            ai, bi = norm[i]
            aj, bj = norm[j]
            if ai * bj == aj * bi:
                raise DuplicateFrequency(
                    f"pairs #{i} and #{j} produce the same frequency: "
                    f"{ai}/{bi} == {aj}/{bj}"
                )
    if phases is None:
        ph = tuple(0.0 for _ in norm)
    else:
        if len(phases) != len(norm):
            raise InvalidPair("phases length must match the number of pairs")
        ph = tuple(float(p) % 1.0 for p in phases)
    omegas = tuple(math.log(a / b) for a, b in norm)
    return FrequencyBasis(pairs=tuple(norm), omegas=omegas, phases=ph)


def default_basis(k: int = 4, phases: Sequence[float] | None = None) -> FrequencyBasis:
    """First ``k`` default generator pairs (rationally independent set)."""
    if not 1 <= k <= len(DEFAULT_PAIRS):
        raise InvalidPair(f"default basis supports 1..{len(DEFAULT_PAIRS)} pairs, got {k}")
    return make_frequency_basis(DEFAULT_PAIRS[:k], phases)


def rational_dependence(basis: FrequencyBasis, k: Sequence[int]) -> bool:
    """Exact test of sum_i k_i * omega_i == 0 in integer arithmetic.

    Total over valid inputs; |k_i| must not exceed MAX_DEPENDENCE_ORDER so
    the big-integer products stay bounded (a documented precondition).
    """
    if len(k) != basis.size:
        raise ValueError(f"k has length {len(k)}, basis has {basis.size} pairs")
    lhs = 1
    rhs = 1
    for (a, b), ki_raw in zip(basis.pairs, k):
        ki = int(ki_raw)
        if ki != ki_raw:
            raise ValueError(f"k entries must be integers, got {ki_raw!r}")
        if abs(ki) > MAX_DEPENDENCE_ORDER:
            raise ValueError(
                f"|k_i| = {abs(ki)} exceeds the supported order {MAX_DEPENDENCE_ORDER}"
            )
        if ki >= 0:
            lhs *= a**ki
            rhs *= b**ki
        else:
            lhs *= b ** (-ki)
            rhs *= a ** (-ki)
    return lhs == rhs


def inner_frequency(basis: FrequencyBasis, k: Sequence[int]) -> float:
    """Float value of sum_i k_i * omega_i (sign and magnitude only)."""
    return float(np.dot(np.asarray(k, dtype=float), basis.omega_array()))


def clock_phases(basis: FrequencyBasis, t: float | np.ndarray) -> np.ndarray:
    """Fractional phases (omega_i t + phi_i) mod 1.

    Scalar ``t`` gives shape (K,); an (N,) array gives (K, N).  This is the
    only clock-advancement rule in the package: phases are always
    recomputed from t, never accumulated.
    """
    omega = np.asarray(basis.omegas, dtype=float)
    phi = np.asarray(basis.phases, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    if t_arr.ndim == 0:
        return (omega * float(t_arr) + phi) % 1.0
    return (np.outer(omega, t_arr) + phi[:, None]) % 1.0


def clock_state(basis: FrequencyBasis, t: float) -> ClockState:
    ph = clock_phases(basis, t)
    return ClockState(t=float(t), phi=np.exp(2j * math.pi * ph))


def probe_signal(
    pmap: ProbingMap, basis: FrequencyBasis, t: float | np.ndarray
) -> np.ndarray:
    """Probe values at times ``t``: shape (m, N) for (N,) times, (m,) for a
    scalar.  This is the package's one path from clock to probe."""
    return pmap(np.exp(2j * math.pi * clock_phases(basis, t)))


class ErgodicAverage(NamedTuple):
    value: np.ndarray
    horizon: float


def _simpson_count(horizon: float, max_omega: float) -> int:
    """Even count n of Simpson intervals over [0, horizon], of width at
    most 1/(40 * max_omega)."""
    n = int(math.ceil(horizon / (1.0 / (40.0 * max_omega))))
    return max(n + n % 2, 2)


def _simpson_chunk(horizon: float, n: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Node times and Simpson weights of the nodes lo..hi-1 of the n + 1
    over [0, horizon], as np.linspace(0.0, horizon, n + 1) places them:
    node k at k * (horizon / n) + 0.0, node n at horizon itself; the
    weights are 1, 4, 2, 4, ..., 2, 4, 1 times (horizon / n) / 3."""
    step = horizon / n
    k = np.arange(lo, hi)
    t = k * step + 0.0
    if hi == n + 1:
        t[-1] = horizon
    w = np.where(k % 2 == 1, 4.0, 2.0)
    w[(k == 0) | (k == n)] = 1.0
    w *= step / 3.0
    return t, w


def ergodic_average(
    u: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x: np.ndarray,
    basis: FrequencyBasis,
    pmap: ProbingMap,
    tol: float = 1e-4,
    *,
    t_start: float = 64.0,
    t_cap: float = float(2**20),
) -> ErgodicAverage:
    """Long-run time average of u(x, xi_t) by doubling-horizon quadrature.

    Composite Simpson rule with node spacing at most 1/(40 * max omega);
    the horizon doubles from ``t_start`` until two successive estimates
    agree within ``tol`` in the max norm.

    ``u`` must be vectorized over its last axis: called with xi of shape
    (m, N) it must return (p, N) (or (N,) for scalar outputs).

    Raises
    ------
    NonConvergent
        If the horizon cap is passed without agreement, carrying the last
        two estimates named by their horizons.
    """
    x = np.asarray(x, dtype=float)

    def estimate(horizon: float) -> np.ndarray:
        n = _simpson_count(horizon, basis.max_omega)
        total = None
        chunk = 1 << 17
        for lo in range(0, n + 1, chunk):  # nodes built per chunk, to bound memory
            t, w = _simpson_chunk(horizon, n, lo, min(lo + chunk, n + 1))
            xi = probe_signal(pmap, basis, t)
            vals = np.asarray(u(x, xi), dtype=float)
            if vals.ndim == 1:
                vals = vals[None, :]
            part = vals @ w
            total = part if total is None else total + part
        return total / horizon

    horizon = float(t_start)
    last = {horizon: estimate(horizon)}
    while True:
        prev = last[horizon]
        horizon *= 2.0
        if horizon > t_cap:
            raise NonConvergent(
                f"ergodic average did not settle within tol={tol:g} by horizon {t_cap:g}",
                {f"estimate at horizon {t:.17g}": v.tolist() for t, v in last.items()},
            )
        cur = estimate(horizon)
        if float(np.max(np.abs(cur - prev))) < tol:
            return ErgodicAverage(value=cur, horizon=horizon)
        last = {horizon / 2.0: prev, horizon: cur}
