"""Golden check of the Lyapunov exponent on the shared RK4 kernel.

The reference below is lyapunov_exponent as it stood before the
sensitivity process rode dynamics._rk4: its own RK4 loop over a fast-state
array and a sensitivity matrix, probe blocks of 2^14 steps, and the
rescale and half-horizon record done step by step through
SensitivityState.  It is kept verbatim but for J S, summed from 0.0 in
index order as the systems' texts write it (the 2x2 companion matrix's
products are exact, so numpy's matmul gave the same bits there), so that
the segmented run on the shared kernel is held to equal estimates, equal
NonFinite times and equal messages, not merely close ones.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from qsakit import dynamics
from qsakit.dynamics import StageText, TwoTimescaleSystem, _resolve_step
from qsakit.errors import ConfigError, Inconclusive, NonFinite
from qsakit.esc import EscConfig, build_esc_system, quadratic_objective
from qsakit.filters import StateSpaceFilter
from qsakit.lyapunov import ExponentEstimate, lyapunov_exponent
from qsakit.probing import clock_phases, make_frequency_basis
from qsakit.systems import make_linear_system
from test_kernel_reference import (
    CUBIC_WASHOUT,
    _with_callbacks,
    index_order_dot,
    reference_esc,
    reference_linear,
    reference_quadratic,
)
from test_lyapunov import matrix_text
from test_rk4_generated import index_order_product

#: steps per precomputed probe block of the reference loop
_CHUNK = 1 << 14


# -- reference: the loop and its sensitivity state, verbatim -----------------


@dataclass
class SensitivityState:
    """Sensitivity matrix with its extracted log magnitude."""

    S: np.ndarray
    log_norm_accum: float
    t: float

    def rescale(self):
        nrm = float(np.linalg.norm(self.S))
        if not np.isfinite(nrm) or nrm == 0.0:
            raise NonFinite(self.t, "sensitivity norm degenerate")
        self.S /= nrm
        self.log_norm_accum += math.log(nrm)

    def log_magnitude(self):
        return self.log_norm_accum + math.log(float(np.linalg.norm(self.S)))



def reference_lyapunov_exponent(system, theta, beta, lambda0, horizon, *, step=None):
    """Estimate the top exponent of the frozen-fast flow at a slow state.

    Returns the full-horizon estimate together with the trailing-half
    estimate; a large gap between the two halves raises Inconclusive
    rather than returning a number the horizon cannot support.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    lam = np.atleast_1d(np.asarray(lambda0, dtype=float)).copy()
    if lam.shape != (system.dim_fast,):
        raise ConfigError("lambda0 shape does not match the fast dimension")
    if beta <= 0:
        raise ConfigError(f"beta must be positive, got {beta}")
    h, n_steps = _resolve_step(system.basis, beta, horizon, step)

    h_cb = system.h
    jac_of = system.dh_dlambda
    pmap = system.probing
    basis = system.basis
    d = system.dim_fast

    state = SensitivityState(S=np.eye(d), log_norm_accum=0.0, t=0.0)
    rescale_every = max(1, round(1.0 / h))
    n_half = max(1, n_steps // 2)
    log_half = None
    t_half = None

    def deriv(la, s_mat, xi):
        dla = beta * np.asarray(h_cb(theta, la, xi), dtype=float)
        js = index_order_product(jac_of(theta, la, xi), s_mat.ravel().tolist(), d)
        ds = beta * np.array(js).reshape(d, d)
        return dla, ds

    sixth = h / 6.0
    half = h * 0.5
    s_mat = state.S
    for chunk in range(0, n_steps, _CHUNK):
        m = min(_CHUNK, n_steps - chunk)
        ts = (chunk + 0.5 * np.arange(2 * m + 1)) * h
        xi_all = pmap(np.exp(2j * math.pi * clock_phases(basis, ts)))
        for i in range(m):
            j = 2 * i
            xi0, xim, xi1 = xi_all[:, j], xi_all[:, j + 1], xi_all[:, j + 2]
            k1 = deriv(lam, s_mat, xi0)
            k2 = deriv(lam + half * k1[0], s_mat + half * k1[1], xim)
            k3 = deriv(lam + half * k2[0], s_mat + half * k2[1], xim)
            k4 = deriv(lam + h * k3[0], s_mat + h * k3[1], xi1)
            lam = lam + sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
            s_mat = s_mat + sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
            gi = chunk + i + 1
            if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(s_mat))):
                raise NonFinite(gi * h)
            state.S = s_mat
            state.t = gi * h
            if gi % rescale_every == 0:
                state.rescale()
                s_mat = state.S
            if gi == n_half:
                log_half = state.log_magnitude()
                t_half = gi * h

    total = state.log_magnitude()
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


# -- systems -------------------------------------------------------------------


def with_reference(system, h):
    """(system, the reference's view of it): its fast field as the array
    callback h, and the Jacobian compiled from its text."""
    return system, _with_callbacks(system, None, h)


def one_tone_text(fast, jac):
    """A fast field and its Jacobian as text over one tone's probe row,
    slow field 0."""
    return StageText(("0.0",), (fast,), (jac,), 1, "", None, (), ())


def scalar_decay_system():
    text = one_tone_text("-la0", "-1.0")
    system = TwoTimescaleSystem(1, 1, make_frequency_basis([(2, 1)]), text=text)
    return with_reference(system, lambda t, l, x: np.atleast_1d(-l[0]))


def matrix_system(F):
    F = np.asarray(F, dtype=float)
    system = TwoTimescaleSystem(1, F.shape[0], make_frequency_basis([(2, 1)]), text=matrix_text(F))
    return with_reference(system, lambda t, l, x: np.array([index_order_dot(f, l) for f in F]))


def linear_model_h(theta, lam, xi):
    return np.atleast_1d(-2.0 * theta[0] - lam[0] + xi[1] * (lam[0] + 1.0))


def linear_model_system():
    text = StageText(
        ("0.0",), ("-2.0 * th0 - la0 + xi1 * (la0 + 1.0)",), ("-1.0 + xi1",), 2, "", None, (), ()
    )
    basis = make_frequency_basis([(2, 1), (3, 1)], phases=[0.75, 0.75])
    return with_reference(TwoTimescaleSystem(1, 1, basis, text=text), linear_model_h)


def esc_config(washout=None, objective=None):
    return EscConfig(
        objective=quadratic_objective(center=1.0) if objective is None else objective,
        epsilon=0.1,
        dim=1,
        single_at=True,
        washout=washout,
    )


def esc_system(washout=None):
    return build_esc_system(esc_config(washout))


def esc_reference(washout=None):
    """esc_system's seeker on the reference callbacks of test_kernel_reference."""
    return reference_esc(esc_config(washout, reference_quadratic(center=1.0)))


COMPANION = [[0.0, 1.0], [-2.0, -2.0]]
PLANAR = StateSpaceFilter(F=COMPANION, G=[0.0, 1.0], H=[1.0, 0.0], J=0.0)


def assert_same(pair, theta, beta, lambda0, horizon, step=None):
    """The estimate on pair's system against the reference's on its
    callbacks."""
    system, ref = pair
    args = (np.atleast_1d(theta), beta, np.atleast_1d(lambda0), horizon)
    got = lyapunov_exponent(system, *args, step=step)
    want = reference_lyapunov_exponent(ref, *args, step=step)
    assert got == want


def raised(exc_type, fn, *args, **kwargs):
    with pytest.raises(exc_type) as info:
        fn(*args, **kwargs)
    return info.value


def assert_same_failure(exc_type, pair, *args, **kwargs):
    got = raised(exc_type, lyapunov_exponent, pair[0], *args, **kwargs)
    want = raised(exc_type, reference_lyapunov_exponent, pair[1], *args, **kwargs)
    assert str(got) == str(want)
    return got, want


# -- cases --------------------------------------------------------------------


def test_scalar_decay():
    assert_same(scalar_decay_system(), 0.0, 1.0, 1.0, 60.0)


def test_companion_matrix():
    assert_same(matrix_system(COMPANION), 0.0, 1.0, [1.0, 0.0], 80.0)


@pytest.mark.parametrize("beta", [0.25, 0.5])
def test_linear_model(beta):
    assert_same(linear_model_system(), 1.0, beta, 0.0, 400.0)


def test_linear_3_1_across_a_chunk_boundary():
    # the analysis benchmark's run: beta = 0.1, T = 400
    system = make_linear_system()
    _, n_steps = _resolve_step(system.basis, 0.1, 400.0, None)
    assert n_steps > _CHUNK
    assert_same((system, reference_linear()), 0.3, 0.1, -0.2, 400.0)


@pytest.mark.parametrize(
    "washout", [None, PLANAR, CUBIC_WASHOUT], ids=["scalar", "planar", "order-3"]
)
def test_esc_seeker(washout):
    system = esc_system(washout)
    assert_same((system, esc_reference(washout)), 0.5, 1.0, np.zeros(system.dim_fast), 60.0)


def test_step_override():
    assert_same(linear_model_system(), -0.4, 0.5, 0.2, 50.0, step=0.013)


def test_horizon_shorter_than_a_rescale():
    pair = scalar_decay_system()
    h, n_steps = _resolve_step(pair[0].basis, 1.0, 0.5, None)
    assert n_steps < round(1.0 / h)
    assert_same(pair, 0.0, 1.0, 1.0, 0.5)


def test_half_horizon_between_rescales():
    pair = matrix_system([[-0.7]])
    h, n_steps = _resolve_step(pair[0].basis, 1.0, 61.0, 0.03)
    rescale_every = round(1.0 / h)
    assert (n_steps // 2) % rescale_every != 0
    assert n_steps % rescale_every != 0
    assert_same(pair, 0.0, 1.0, 1.0, 61.0, step=0.03)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_step_blow_up_time():
    # dl/dt = l^2 from 1e300 leaves the finite range within one step; the
    # Jacobian 2 l reads Lambda, which so rides in the kernel's stack
    pair = with_reference(
        TwoTimescaleSystem(1, 1, make_frequency_basis([(2, 1)]),
                           text=one_tone_text("la0 * la0", "2.0 * la0")),
        lambda t, l, x: np.atleast_1d(l[0] * l[0]),
    )
    got, want = assert_same_failure(
        NonFinite, pair, np.zeros(1), 1.0, np.full(1, 1e300), 400.0, step=0.03
    )
    assert got.time == want.time


@pytest.mark.filterwarnings("ignore:overflow")
def test_degenerate_norm_time():
    # S stays finite but ||S||^2 overflows before the first rescale
    got, want = assert_same_failure(
        NonFinite, matrix_system([[2000.0]]), np.zeros(1), 1.0, np.full(1, 1e-300), 10.0
    )
    assert "sensitivity norm degenerate" in str(want)
    assert got.time == want.time


def test_inconclusive_message():
    text = one_tone_text("la0 * (2.0 - la0)", "2.0 - 2.0 * la0")
    pair = with_reference(
        TwoTimescaleSystem(1, 1, make_frequency_basis([(2, 1)]), text=text),
        lambda t, l, x: np.atleast_1d(l[0] * (2.0 - l[0])),
    )
    assert_same_failure(Inconclusive, pair, np.zeros(1), 1.0, np.array([0.01]), 40.0)


def test_esc_first_order_step_override_across_a_kernel_chunk():
    system = esc_system()
    assert system.dim_fast == 1
    _, n_steps = _resolve_step(system.basis, 1.0, 60.0, 0.031)
    assert n_steps > dynamics._CHUNK and n_steps % dynamics._CHUNK != 0
    assert_same((system, esc_reference()), 0.7, 1.0, 0.1, 60.0, step=0.031)
