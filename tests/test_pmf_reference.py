"""Golden check of the batched identity suite against the per-sample loops.

The reference below is pmf_identity_suite as it stood before field
evaluation took a sample axis: every series filled one sample at a time,
gains from scalar calls, and the single-sample evaluators of PolyCoeff,
FourierField, GainPoly, GainField and PMeanFlowTerms with ``**`` powers.
It is kept verbatim, so the batched suite is held to the same report:
exactly on the acceptance gate's call, and within roundoff of the
residuals' own ulp-level noise elsewhere.

The suite's exact fast right-hand side, evaluated on arrays from a
system's text, is held bit for bit to the per-sample stage-field loop it
replaced, kept below as per_sample_exact.
"""

import math

import numpy as np
import pytest

from qsakit.dynamics import GainSchedule, TwoTimescaleSystem, _float_lists, integrate
from qsakit.errors import ConfigError, InsufficientSamples
from qsakit.experiments import (
    MAX_FD_STEP,
    PmfIdentityReport,
    _d1_3pt,
    _d2_3pt,
    _exact_fast,
    pmf_identity_suite,
)
from qsakit.fourier import _zero_exp
from qsakit.poisson import (
    GainField,
    directional_derivative,
    pmeanflow_terms,
    solve_poisson,
    zero_mean_part,
)
from qsakit.probing import probe_signal
from qsakit.systems import make_decoupled_system, make_esc_quadratic, make_linear_system
from test_experiments import xi_free_system

# -- reference: the single-sample evaluators, verbatim -----------------------


def ref_poly_value(coeff, x):
    out = np.zeros(coeff.p, dtype=complex)
    for alpha, vec in coeff.terms.items():
        mono = 1.0
        for j, a in enumerate(alpha):
            if a:
                mono *= x[j] ** a
        out += vec * mono
    return out


def ref_eval_complex(field, x, z):
    out = np.zeros(field.dim_out, dtype=complex)
    for k, coeff in field.terms.items():
        zk = 1.0 + 0.0j
        for i, ki in enumerate(k):
            if ki:
                zk *= z[i] ** ki
        out += ref_poly_value(coeff, x) * zk
    return out


def ref_eval(field, x, z):
    return ref_eval_complex(field, x, z).real


def ref_mean_value(field, x):
    coeff = field.terms.get(_zero_exp(field.num_freqs))
    if coeff is None:
        return np.zeros(field.dim_out)
    return ref_poly_value(coeff, x).real


def ref_gain_value(gain, a, r):
    total = 0.0
    for (pa, pr), c in gain.terms.items():
        total += c * a**pa * r**pr
    return total


def ref_gainfield_eval(gf, x, z, a, r):
    out = None
    for gain, field in gf.entries:
        term = ref_eval(field, x, z) * ref_gain_value(gain, a, r)
        out = term if out is None else out + term
    if out is None:
        raise ValueError("cannot evaluate an empty gain field without dimensions")
    return out


def ref_eval_or_zero(gf, x, z, a, r, dim):
    if not gf.entries:
        return np.zeros(dim)
    return ref_gainfield_eval(gf, x, z, a, r)


def ref_noise_value(terms, x, z, t):
    a, r = terms.gains.gains_at(t)
    beta = terms.gains.beta
    d = terms.h_field.dim_out
    return (
        beta**2 * ref_eval_or_zero(terms.W0, x, z, a, r, d)
        + beta * ref_eval_or_zero(terms._dW1, x, z, a, r, d)
        + ref_eval_or_zero(terms._ddW2, x, z, a, r, d)
    )


def ref_fast_rhs_model(terms, x, z, t):
    beta = terms.gains.beta
    ff, h = terms.upsilon.ff, terms.h_field
    return beta * (
        ref_mean_value(h, x) - beta * ref_mean_value(ff, x) + ref_noise_value(terms, x, z, t)
    )


# -- reference: the per-sample suite, verbatim --------------------------------


def reference_suite(
    system,
    *,
    gains=None,
    horizon=None,
    x0=None,
    derivative="analytic",
    fd_step=1e-3,
    corrupt_upsilon_ff=0.0,
) -> PmfIdentityReport:
    if system.fourier is None:
        raise ConfigError("identity suite needs the exact Fourier form of the field")
    if derivative not in ("analytic", "fd"):
        raise ValueError(f"derivative must be 'analytic' or 'fd', got {derivative!r}")
    schedule = gains if gains is not None else GainSchedule(0.7, 0.1)
    rho, beta = schedule.rho, schedule.beta
    basis = system.basis
    offset = float(corrupt_upsilon_ff)

    terms = pmeanflow_terms(system, schedule)
    f = system.fourier
    d_fast = f.dim_fast
    d_all = f.dim_out
    g = terms.g_field
    h = terms.h_field
    f_tilde = zero_mean_part(f)
    f_hat = solve_poisson(f_tilde, basis)

    if x0 is None:
        x0 = (np.full(f.dim_slow, 0.3), np.full(d_fast, -0.2))
    if derivative == "analytic":
        span = 6.0 if horizon is None else float(horizon)
        traj = integrate(system, schedule, x0, span)
    else:
        if fd_step > MAX_FD_STEP * (1.0 + 1e-9):
            raise InsufficientSamples(
                f"step {fd_step:.3e} too large for finite-difference derivatives"
            )
        span = 2.0 if horizon is None else float(horizon)
        traj = integrate(system, schedule, x0, span, step=fd_step)

    n = traj.n_samples
    t = traj.t
    zmat = np.exp(2j * np.pi * traj.phases)
    states = np.concatenate([traj.theta, traj.lam], axis=1)
    ar = np.array([schedule.gains_at(float(ti)) for ti in t])
    a_col = ar[:, 0:1]

    def field_series(field, dim):
        out = np.zeros((n, dim))
        for i in range(n):
            out[i] = ref_eval(field, states[i], zmat[:, i])
        return out

    def gainfield_series(gf, dim):
        out = np.zeros((n, dim))
        for i in range(n):
            out[i] = ref_eval_or_zero(gf, states[i], zmat[:, i], ar[i, 0], ar[i, 1], dim)
        return out

    if derivative == "fd":
        if n < 5:
            raise InsufficientSamples("need at least 3 interior samples for the stencils")
        steps = np.diff(t)
        dt = float(steps[0])
        if not np.allclose(steps, dt, rtol=1e-9, atol=1e-12):
            raise InsufficientSamples("finite-difference derivatives need a uniform grid")
        interior = slice(1, n - 1)
    else:
        dt = 0.0
        interior = slice(0, n)

    def ddt_series(field, dim):
        if derivative == "analytic":
            total = GainField.wrap(field).ddt(g, h, basis, rho, beta)
            return gainfield_series(total, dim)[interior]
        return _d1_3pt(field_series(field, dim), dt)

    dg_fhat = directional_derivative(f_hat, g, "slow")
    dh_fhat = directional_derivative(f_hat, h, "fast")
    lhs1 = field_series(f_tilde, d_all)[interior]
    rhs1 = (
        a_col[interior] * field_series(dg_fhat, d_all)[interior]
        + beta * field_series(dh_fhat, d_all)[interior]
        - ddt_series(f_hat, d_all)
    )

    hh = terms.h_hat_hat
    dg_hh = directional_derivative(hh, g, "slow")
    dh_hh = directional_derivative(hh, h, "fast")
    lhs2 = ddt_series(terms.h_hat, d_fast)
    if derivative == "analytic":
        ddhh = GainField.wrap(hh).ddt(g, h, basis, rho, beta).ddt(g, h, basis, rho, beta)
        d2_hh = gainfield_series(ddhh, d_fast)[interior]
    else:
        d2_hh = _d2_3pt(field_series(hh, d_fast), dt)
    ra_col = (ar[:, 0] * ar[:, 1])[interior, None]
    rhs2 = (
        -d2_hh
        - ra_col * field_series(dg_hh, d_fast)[interior]
        + a_col[interior] * ddt_series(dg_hh, d_fast)
        + beta * ddt_series(dh_hh, d_fast)
    )

    ff = terms.upsilon.ff
    uff_hat = terms.upsilon_ff_hat
    dg_uff = directional_derivative(uff_hat, g, "slow")
    dh_uff = directional_derivative(uff_hat, h, "fast")
    ups_bar = np.array([ref_mean_value(ff, states[i]) for i in range(n)])
    lhs3 = field_series(ff, d_fast)[interior]
    rhs3 = (
        ups_bar[interior]
        + offset
        - ddt_series(uff_hat, d_fast)
        + a_col[interior] * field_series(dg_uff, d_fast)[interior]
        + beta * field_series(dh_uff, d_fast)[interior]
    )

    exact = np.zeros((n, d_fast))
    for i in range(n):
        xi = system.probing(zmat[:, i])
        fast = system.stage(*_float_lists(traj.theta[i], traj.lam[i], xi), None, 1.0)[1]
        exact[i] = beta * np.array(fast)
    lhs4 = exact[interior]
    if derivative == "analytic":
        rhs4 = np.zeros_like(lhs4)
        for i in range(n):
            rhs4[i] = ref_fast_rhs_model(terms, states[i], zmat[:, i], float(t[i]))
    else:
        dw1 = _d1_3pt(gainfield_series(terms.W1, d_fast), dt)
        ddw2 = _d2_3pt(gainfield_series(terms.W2, d_fast), dt)
        gain_var = terms.W1.gain_derivative_part(rho)
        w0 = gainfield_series(terms.W0, d_fast)[interior]
        gv = gainfield_series(gain_var, d_fast)[interior]
        noise = beta**2 * w0 + beta * (dw1 - gv) + ddw2
        h_bar = np.array([ref_mean_value(h, states[i]) for i in range(n)])[interior]
        rhs4 = beta * (h_bar - beta * ups_bar[interior] + noise)

    def rel_residual(lhs, rhs):
        num = float(np.max(np.abs(lhs - rhs)))
        den = max(1.0, float(np.max(np.abs(lhs))))
        return num / den

    return PmfIdentityReport(
        step1=rel_residual(lhs1, rhs1),
        step2=rel_residual(lhs2, rhs2),
        step3=rel_residual(lhs3, rhs3),
        assembled=rel_residual(lhs4, rhs4),
        derivative=derivative,
        horizon=float(t[-1]),
        n_samples=n,
    )


# -- checks -------------------------------------------------------------------

RESIDUALS = ("step1", "step2", "step3", "assembled")


def assert_reports_close(got, want, *, abs_tol=0.0, rel_tol=0.0):
    assert (got.derivative, got.horizon, got.n_samples) == (
        want.derivative,
        want.horizon,
        want.n_samples,
    )
    for name in RESIDUALS:
        g, w = getattr(got, name), getattr(want, name)
        assert math.isclose(g, w, rel_tol=rel_tol, abs_tol=abs_tol), (name, g, w)


def test_gate_call_is_exact():
    # the acceptance gate's criterion 2 call
    system = make_linear_system()
    assert pmf_identity_suite(system) == reference_suite(system)


@pytest.mark.parametrize("corrupt", [0.0, 0.1])
def test_short_horizon_from_origin(corrupt):
    system = make_linear_system()
    kw = dict(x0=(np.zeros(1), np.zeros(1)), horizon=2.0, corrupt_upsilon_ff=corrupt)
    assert_reports_close(pmf_identity_suite(system, **kw), reference_suite(system, **kw), abs_tol=1e-14)


def test_long_horizon():
    system = make_linear_system()
    got = pmf_identity_suite(system, horizon=60.0)
    assert got.n_samples > 2500
    assert_reports_close(got, reference_suite(system, horizon=60.0), abs_tol=1e-14)


@pytest.mark.parametrize("fd_step", [1e-3, 5e-4])
def test_finite_difference_route(fd_step):
    # the 1/dt^2 stencils amplify ulp-level changes in the field values
    system = make_linear_system()
    kw = dict(derivative="fd", fd_step=fd_step)
    assert_reports_close(pmf_identity_suite(system, **kw), reference_suite(system, **kw), rel_tol=1e-8)


@pytest.mark.parametrize("derivative", ["analytic", "fd"])
def test_probe_free_system_stays_exactly_zero(derivative):
    got = pmf_identity_suite(xi_free_system(), derivative=derivative)
    want = reference_suite(xi_free_system(), derivative=derivative)
    assert got == want
    assert all(getattr(got, name) == 0.0 for name in RESIDUALS)


# -- the exact fast right-hand side on arrays ---------------------------------


def per_sample_exact(system, traj, beta):
    """The suite's exact fast right-hand side as it stood before it was
    evaluated on arrays: one stage field call per sample, verbatim."""
    n, d_fast = traj.n_samples, system.dim_fast
    stage, xis = system.stage, probe_signal(system.probing, system.basis, traj.t).T
    exact = np.zeros((n, d_fast))
    for i in range(n):
        th, la, xi = (v[i].tolist() for v in (traj.theta, traj.lam, xis))
        exact[i] = stage(th, la, xi, None, beta)[1]
    return exact


#: the suite's runs: the analytic route's default horizon and step, and the
#: fd route's default horizon at each step the benchmark and the gate use
SUITE_RUNS = {"analytic": (6.0, None), "fd 1e-3": (2.0, 1e-3), "fd 5e-4": (2.0, 5e-4)}


def fast_by_statement(system):
    """The system with its Fourier form, its fast part computed by a
    per-stage statement, which no array evaluates."""
    text = system.text
    return TwoTimescaleSystem(
        system.dim_slow, system.dim_fast, system.basis, system.probing,
        fourier=system.fourier,
        text=text._replace(fast=("h0",), per_stage=f"h0 = {text.fast[0]}"),
    )


@pytest.mark.parametrize("route", sorted(SUITE_RUNS))
@pytest.mark.parametrize("make", [make_linear_system, make_decoupled_system])
def test_exact_fast_on_arrays_is_the_per_sample_loop(make, route):
    system, beta = make(), 0.1
    horizon, step = SUITE_RUNS[route]
    traj = integrate(system, GainSchedule(0.7, beta), (np.full(1, 0.3), np.full(1, -0.2)), horizon, step=step)
    calls = []
    field = system.stage
    system.stage = lambda *args: calls.append(1) or field(*args)
    got = _exact_fast(system, traj, beta)
    assert calls == []  # evaluated on the text
    assert got.tobytes() == per_sample_exact(system, traj, beta).tobytes()
    # a text with a per-stage statement takes the per-sample path, and so
    # does the suite on it
    bare = fast_by_statement(system)
    bare.stage, calls[:] = system.stage, []
    assert _exact_fast(bare, traj, beta).tobytes() == got.tobytes()
    assert len(calls) == traj.n_samples
    kw = {"derivative": "analytic"} if step is None else {"derivative": "fd", "fd_step": step}
    assert pmf_identity_suite(fast_by_statement(system), **kw) == pmf_identity_suite(system, **kw)


def fabs_text_system():
    """linear-3.1's text with a call in its fast part, without Fourier form."""
    text = make_linear_system().text
    text = text._replace(
        fast=(text.fast[0] + " + 0.01 * fn(la0)",), names=text.names + ("fn",),
        values=text.values + (math.fabs,),
    )
    return TwoTimescaleSystem(1, 1, make_linear_system().basis, text=text)


@pytest.mark.parametrize("make", [fabs_text_system, make_esc_quadratic])
def test_exact_fast_calls_the_field_beyond_arithmetic(make):
    # a fast part with a call, or a text with a per-stage statement (the
    # seeker's measurement), is evaluated by the stage field, sample by sample
    system, beta = make(), 0.5
    traj = integrate(system, GainSchedule(0.7, beta), ([0.3], [-0.2]), 2.0)
    calls = []
    field = system.stage
    system.stage = lambda *args: calls.append(1) or field(*args)
    want = per_sample_exact(system, traj, beta)
    calls.clear()
    assert _exact_fast(system, traj, beta).tobytes() == want.tobytes()
    assert len(calls) == traj.n_samples
