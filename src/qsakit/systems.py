"""Named example systems with every closed form attached.

Three built-ins cover the test surface: a planar linear pair whose slow
drift is stabilized only through the fast timescale, the reference
extremum seeker on a scalar quadratic, and a decoupled integrator whose
exact solution is a quadrature, used for integrator-order checks.  Runs
and sweeps address them by name so no field expressions are needed.
"""

from __future__ import annotations

import numpy as np

from .dynamics import TwoTimescaleSystem, _callbacks_of
from .errors import ConfigError
from .esc import EscConfig, build_esc_system, quadratic_objective
from .fourier import FourierField, PolyCoeff
from .probing import make_frequency_basis


def make_linear_system(alpha=2.0, s=(1.0, 1.0), b=(0.0, 0.0)) -> TwoTimescaleSystem:
    """Planar linear pair with multiplicative probe noise.

    Joint drift [[alpha, alpha], [-2, -1]] on (theta, lambda), probe entering
    row i as s_i * xi_i * (x_i + 1) plus a constant offset b_i; the probes are
    sine tones (cosine clocks with quarter-turn phase lag).  The drift matrix
    is Hurwitz only for alpha < 1, so for the default alpha = 2 the slow
    variable is stabilized purely by the fast equilibrium lambda*(theta) =
    -2 theta + b_2, giving the mean flow d/dt v = -alpha v near theta*.
    """
    alpha = float(alpha)
    if alpha <= 0:
        raise ConfigError(f"alpha must be positive, got {alpha}")
    s1, s2 = (float(v) for v in s)
    b1, b2 = (float(v) for v in b)
    basis = make_frequency_basis([(2, 1), (3, 1)], phases=[0.75, 0.75])

    # the stage field and dh_dlambda on lists of Python floats; the
    # operation order fixes every rounding (tests/test_kernel_reference.py,
    # test_lyapunov_reference.py)
    def stage(theta, lam, xi, a, b):
        th, la = theta[0], lam[0]
        return (
            None if a is None else [a * (alpha * th + alpha * la + s1 * xi[0] * (th + 1.0) + b1)],
            None if b is None else [b * (-2.0 * th - la + s2 * xi[1] * (la + 1.0) + b2)],
        )

    g, h = _callbacks_of(stage)

    n, p = 2, 2
    mean = PolyCoeff(
        n,
        p,
        {
            (1, 0): np.array([alpha, -2.0]),
            (0, 1): np.array([alpha, -1.0]),
            (0, 0): np.array([b1, b2]),
        },
    )
    xi1 = PolyCoeff(n, p, {(0, 0): np.array([s1 / 2, 0.0]), (1, 0): np.array([s1 / 2, 0.0])})
    xi2 = PolyCoeff(n, p, {(0, 0): np.array([0.0, s2 / 2]), (0, 1): np.array([0.0, s2 / 2])})
    field = FourierField(
        1,
        1,
        p,
        2,
        {
            (0, 0): mean,
            (1, 0): xi1,
            (-1, 0): xi1.conj(),
            (0, 1): xi2,
            (0, -1): xi2.conj(),
        },
    )

    return TwoTimescaleSystem(
        1,
        1,
        g,
        h,
        basis,
        fourier=field,
        stage=stage,
        dh_dlambda=lambda theta, lam, xi: [-1.0 + s2 * float(xi[1])],
        lambda_star=lambda theta: np.atleast_1d(-2.0 * theta[0] + b2),
        theta_star=np.array([b2 + b1 / alpha]),
        name="linear-3.1",
    )


def make_esc_quadratic(
    center=1.0, epsilon=0.1, sigma=0.0, single_at=True
) -> TwoTimescaleSystem:
    """Reference extremum seeker: scalar quadratic, constant probing gain.

    single_at defaults to on here: with the doubled gain on the correlation
    term the mixed schedule contracts through integral(a^2) ~ 2.5 only,
    which strands the run far from the optimum at any horizon.
    """
    config = EscConfig(
        objective=quadratic_objective(center=center),
        epsilon=epsilon,
        dim=1,
        sigma=sigma,
        single_at=single_at,
        name="esc-quadratic",
    )
    return build_esc_system(config, theta_star=np.atleast_1d(center))


def make_decoupled_system() -> TwoTimescaleSystem:
    """Slow integrator of the probe tone plus an inert fast relaxation.

    d/dt Theta = a_t cos(2 pi omega t) has the quadrature solution used by
    the integrator-order check; the fast variable just decays.
    """
    basis = make_frequency_basis([(2, 1)])

    def stage(theta, lam, xi, a, b):
        return None if a is None else [a * xi[0]], None if b is None else [b * -lam[0]]

    g, h = _callbacks_of(stage)

    n, p = 2, 2
    tone = PolyCoeff(n, p, {(0, 0): np.array([0.5, 0.0])})
    field = FourierField(
        1,
        1,
        p,
        1,
        {
            (0,): PolyCoeff(n, p, {(0, 1): np.array([0.0, -1.0])}),
            (1,): tone,
            (-1,): tone.conj(),
        },
    )
    return TwoTimescaleSystem(
        1,
        1,
        g,
        h,
        basis,
        fourier=field,
        stage=stage,
        dh_dlambda=lambda theta, lam, xi: [-1.0],
        lambda_star=lambda theta: np.zeros(1),
        theta_star=np.zeros(1),
        name="decoupled-test",
    )


SYSTEMS = {
    "linear-3.1": make_linear_system,
    "esc-quadratic": make_esc_quadratic,
    "decoupled-test": make_decoupled_system,
}


def named_system(name, **params) -> TwoTimescaleSystem:
    """Built-in system by name with keyword parameters."""
    if name not in SYSTEMS:
        raise ConfigError(f"unknown system {name!r}; built-ins: {sorted(SYSTEMS)}")
    try:
        return SYSTEMS[name](**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for system {name!r}: {exc}") from exc
