"""Exception taxonomy shared across the package.

Every failure mode named by a module contract gets its own type so callers
(and the CLI exit-code mapping) can branch on the class rather than on
message text.
"""

from __future__ import annotations


class QsaError(Exception):
    """Base class for all package-specific errors.

    Attributes
    ----------
    estimates : dict
        The last estimates by name of a procedure that stopped without an
        answer (empty when it names none).  Each is also a note on the
        exception, so tracebacks and the CLI's error report show it.
    """

    def __init__(self, message: str = "", estimates=None):
        super().__init__(message)
        self.estimates = dict(estimates or {})
        for name, value in self.estimates.items():
            self.add_note(f"{name}: {value}")


class ConfigError(QsaError):
    """A configuration value violates a documented constraint."""


class InvalidPair(ConfigError):
    """A frequency generator pair is not two positive integers with a > b."""


class DuplicateFrequency(ConfigError):
    """Two generator pairs reduce to the same frequency exactly."""


class NonConvergent(QsaError):
    """An iterative procedure hit its cap before reaching its tolerance."""


class ZeroDivisor(QsaError):
    """A Fourier mode with nonzero content is rationally dependent, so the
    inverse-generator division is undefined."""


class NotZeroMean(QsaError):
    """A field that must have zero mean carries a nonzero constant mode."""


class InsufficientSamples(QsaError):
    """Too few samples to form the requested finite-difference stencils."""


class NonFinite(QsaError):
    """Integration produced a non-finite state (finite escape or overflow).

    Attributes
    ----------
    time : float
        Integration time at which the state first became non-finite.
    """

    def __init__(self, time: float, detail: str = ""):
        self.time = float(time)
        msg = f"state became non-finite at t = {time:.6g}"
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)


class Inconclusive(QsaError):
    """Two-half exponent estimates disagree; the horizon was too short."""


class SingularResolvent(QsaError):
    """transfer() was evaluated at (or within 1e-12 of) a filter pole."""


class SingularF(QsaError):
    """The filter state matrix is singular, so its DC solve is undefined."""


class SingularJacobian(QsaError):
    """A Newton step met a Jacobian with condition number above 1e12."""


class DegenerateFit(QsaError):
    """A log-log fit was requested over points with no spread in x."""


class NegativeObjective(QsaError):
    """objective_scaled probing gain needs a nonnegative objective value."""


class NonHurwitz(QsaError):
    """A filter that must be Hurwitz has an eigenvalue with Re >= 0."""
