"""Linear time-invariant filters used around the probing loops.

Two families: a SISO state-space high-pass (washout) filter applied
channel-wise to demodulation signals, and a second-order low-pass whose
natural frequency is tied to the fast gain (gamma = eta * beta) for
attenuating zero-mean disturbance terms in the fast variable.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonHurwitz, SingularF, SingularResolvent

RESOLVENT_GUARD = 1e-12


@dataclass(frozen=True)
class StateSpaceFilter:
    """SISO realization dx = Fx + Gu, y = H'x + Ju."""

    F: np.ndarray
    G: np.ndarray
    H: np.ndarray
    J: float

    def __post_init__(self):
        F = np.atleast_2d(np.asarray(self.F, dtype=float))
        n = F.shape[0]
        if F.shape != (n, n):
            raise ConfigError("F must be square")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "G", np.asarray(self.G, dtype=float).reshape(n))
        object.__setattr__(self, "H", np.asarray(self.H, dtype=float).reshape(n))
        object.__setattr__(self, "J", float(self.J))

    @property
    def order(self):
        return self.F.shape[0]


def washout_filter(omega_h=1.0):
    """High-pass s/(s + omega_h): washes out the DC component of its input."""
    if omega_h <= 0:
        raise ConfigError(f"washout corner frequency must be positive, got {omega_h}")
    filt = StateSpaceFilter(
        F=np.array([[-omega_h]]), G=np.array([1.0]), H=np.array([-omega_h]), J=1.0
    )
    eigs = np.linalg.eigvals(filt.F)
    if np.any(eigs.real >= 0):
        raise NonHurwitz("washout state matrix is not Hurwitz")
    return filt


def transfer(filt, s):
    """M(s) = H'(Is - F)^{-1} G + J by linear solve."""
    s = complex(s)
    eigs = np.linalg.eigvals(filt.F)
    if np.min(np.abs(eigs - s)) < RESOLVENT_GUARD:
        raise SingularResolvent(f"s = {s} lies on the spectrum of F")
    n = filt.order
    v = np.linalg.solve(s * np.eye(n) - filt.F, filt.G.astype(complex))
    return complex(filt.H @ v + filt.J)


def gamma0(filt):
    """DC gain of the strictly proper part: -H' F^{-1} G."""
    try:
        v = np.linalg.solve(filt.F, filt.G)
    except np.linalg.LinAlgError as exc:
        raise SingularF("F is singular; the filter has no finite DC gain") from exc
    if not np.all(np.isfinite(v)):
        raise SingularF("F is singular; the filter has no finite DC gain")
    return float(-(filt.H @ v))


def passivity_metric(sigma_check, m0):
    """Smallest eigenvalue of the symmetric part of M = Sigma_check + M0.

    Positive values certify local contraction of the averaged loop.
    """
    sigma_check = np.atleast_2d(np.asarray(sigma_check, dtype=float))
    m0 = np.atleast_2d(np.asarray(m0, dtype=float))
    if sigma_check.shape != m0.shape or sigma_check.shape[0] != sigma_check.shape[1]:
        raise ConfigError("passivity metric needs square matrices of equal shape")
    m = sigma_check + m0
    return float(np.linalg.eigvalsh(0.5 * (m + m.T))[0])


@dataclass(frozen=True)
class SecondOrderFilter:
    """Unit-DC second-order low-pass with natural frequency gamma = eta*beta.

    Realized in the integrator as two states per fast coordinate:

        d/dt lamF = v,   d/dt v = gamma^2 (lam - lamF) - 2 zeta gamma v.
    """

    beta: float
    zeta: float = 0.7
    eta: float = 1.0
    gamma: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.zeta < 1.0:
            raise ConfigError(f"damping ratio must lie in (0, 1), got {self.zeta}")
        if self.eta <= 0 or self.beta <= 0:
            raise ConfigError("eta and beta must be positive")
        object.__setattr__(self, "gamma", self.eta * self.beta)

    def transfer(self, s):
        g = self.gamma
        return g**2 / (complex(s) ** 2 + 2 * self.zeta * g * s + g**2)
