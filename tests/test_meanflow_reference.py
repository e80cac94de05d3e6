"""Golden check of the one-pass averaged slow field against the two-pass one.

The reference below is mean_field_g0 as it stood before the slow field was
recorded inside the frozen-fast run: the run first, then the probe rebuilt
from the sampled clock phases and system.analysis_floats called once per kept
sample.  It is kept verbatim, so that the one-pass estimate is held to
the same StationaryEstimate bit for bit (value bytes, ripple amplitude
and horizon), not merely a close one, and to the same NonConvergent
message when the two windows disagree.
"""

import numpy as np
import pytest

from qsakit.dynamics import integrate_frozen_fast
from qsakit.errors import NonConvergent
from qsakit.esc import EscConfig, Objective, build_esc_system
from qsakit.meanflow import StationaryEstimate, mean_field_g0
from qsakit.systems import make_esc_quadratic, make_linear_system
from test_experiments import quadrature_system

# -- reference: the two-pass averager, verbatim -------------------------------


def _windowed_run(system, theta, beta, burn_in, window, lambda0):
    """Frozen-fast trajectory spanning a burn-in plus two averaging windows.

    Defaults: 20 fast time constants of burn-in, windows of 100 periods of
    the slowest probe tone.  Two windows are integrated so convergence can
    be judged by comparing their averages.
    """
    if burn_in is None:
        burn_in = 20.0 / beta
    if window is None:
        window = 100.0 / system.basis.min_omega
    if lambda0 is None:
        lambda0 = np.zeros(system.dim_fast)
    traj = integrate_frozen_fast(system, theta, lambda0, beta, burn_in + 2.0 * window)
    mid = burn_in + window
    m1 = (traj.t >= burn_in) & (traj.t < mid)
    m2 = traj.t >= mid
    return traj, m1, m2


def _two_window_estimate(series, m1, m2, tol, horizon, what):
    avg1 = series[m1].mean(axis=0)
    tail = series[m2]
    avg2 = tail.mean(axis=0)
    drift = float(np.max(np.abs(avg2 - avg1)))
    if drift > tol:
        raise NonConvergent(
            f"{what}: successive window averages differ by {drift:.3e} > {tol:.3e}"
        )
    osc = float(np.max(np.abs(tail - avg2)))
    return StationaryEstimate(value=avg2, osc_amplitude=osc, horizon=horizon)


def reference_mean_field_g0(
    system, theta, beta, tol=1e-3, *, burn_in=None, window=None, lambda0=None
):
    """Stationary average of the slow field along the frozen-fast run.

    This realizes the integral of g against the joint invariant measure of
    (Lambda^theta, xi) by time averaging after burn-in.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    traj, m1, m2 = _windowed_run(system, theta, beta, burn_in, window, lambda0)
    keep = m1 | m2
    idx = np.nonzero(keep)[0]
    xi = system.probing(np.exp(2j * np.pi * traj.phases[:, idx]))
    series = np.zeros((idx.shape[0], system.dim_slow))
    for row, i in enumerate(idx):
        series[row] = np.array(system.analysis_floats(theta, traj.lam[i], xi[:, row]))
    return _two_window_estimate(
        series, m1[keep], m2[keep], tol, float(traj.t[-1]), "averaged slow field"
    )


# -- cases --------------------------------------------------------------------


def _cubic(theta):
    x = theta[0] - 1.0
    return 0.5 * x**2 + x**3


def cubic_seeker(gain_kind):
    return build_esc_system(
        EscConfig(
            objective=Objective(_cubic), epsilon=0.1, dim=1, single_at=True,
            gain_kind=gain_kind,
        )
    )


SEEKER_WINDOWS = dict(burn_in=20.0, window=100.0)

#: name -> (system factory, theta, beta, keywords)
CASES = {
    "linear-3.1": (make_linear_system, [0.3], 0.32, {}),
    "linear-3.1-lambda0": (make_linear_system, [-0.4], 0.5, dict(lambda0=[0.7])),
    "quadrature": (quadrature_system, [1.0], 0.32, dict(window=100.0)),
    "esc-quadratic": (make_esc_quadratic, [0.6], 1.0, SEEKER_WINDOWS),
    "esc-quadratic-probe-feedback": (
        lambda: make_esc_quadratic(single_at=False), [1.3], 1.0, SEEKER_WINDOWS
    ),
    "cubic-constant": (lambda: cubic_seeker("constant"), [1.2], 1.0, SEEKER_WINDOWS),
    "cubic-objective-scaled": (
        lambda: cubic_seeker("objective_scaled"), [0.7], 1.0, SEEKER_WINDOWS
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_same_estimate_as_two_pass(case):
    make, theta, beta, kw = CASES[case]
    got = mean_field_g0(make(), theta, beta, tol=1.0, **kw)
    want = reference_mean_field_g0(make(), theta, beta, tol=1.0, **kw)
    assert got.value.dtype == want.value.dtype
    assert got.value.tobytes() == want.value.tobytes()
    assert got.osc_amplitude == want.osc_amplitude
    assert got.horizon == want.horizon


@pytest.mark.parametrize("case", ["linear-3.1", "cubic-constant"])
def test_same_nonconvergent_message(case):
    make, theta, beta, kw = CASES[case]
    kw = dict(kw, window=10.0)
    with pytest.raises(NonConvergent) as got:
        mean_field_g0(make(), theta, beta, tol=1e-13, **kw)
    with pytest.raises(NonConvergent) as want:
        reference_mean_field_g0(make(), theta, beta, tol=1e-13, **kw)
    assert str(got.value) == str(want.value)
