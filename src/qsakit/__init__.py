"""Two-timescale quasi-stochastic approximation toolkit.

Deterministic-exploration root finding driven by sinusoidal probing on an
irrational-frequency clock, with exact Fourier-domain averaging machinery,
filtered iterate averaging, Lyapunov diagnostics, an extremum-seeking
instantiation, and a reproducible experiment harness.

The commonly used entry points are re-exported here; everything else
lives in the submodules (qsakit.poisson, qsakit.experiments, ...).
"""

from .dynamics import GainSchedule, Trajectory, TwoTimescaleSystem, integrate
from .errors import ConfigError, NonConvergent, NonFinite, QsaError, ZeroDivisor
from .esc import EscConfig, Objective, build_esc_system
from .filters import SecondOrderFilter
from .lyapunov import exponent_grid, lyapunov_exponent
from .meanflow import find_root_g0, mean_field_g0, stationary_grid
from .poisson import pmeanflow_terms, solve_poisson, zero_mean_part
from .probing import default_basis, make_frequency_basis, rational_dependence
from .systems import named_system

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "EscConfig",
    "GainSchedule",
    "NonConvergent",
    "NonFinite",
    "Objective",
    "QsaError",
    "SecondOrderFilter",
    "Trajectory",
    "TwoTimescaleSystem",
    "ZeroDivisor",
    "build_esc_system",
    "default_basis",
    "exponent_grid",
    "find_root_g0",
    "integrate",
    "lyapunov_exponent",
    "make_frequency_basis",
    "mean_field_g0",
    "named_system",
    "pmeanflow_terms",
    "rational_dependence",
    "solve_poisson",
    "stationary_grid",
    "zero_mean_part",
    "__version__",
]
