"""The generated RK4 step against the comprehension loop it replaced.

dynamics._rk4 runs each block of steps in straight-line code generated
once per state length D.  The reference below is the kernel as it stood
before, one list comprehension per stage state and one for the update,
kept verbatim.  Both must give the same trajectories bit for bit at state
lengths no built-in system reaches, through array callbacks (the adapter)
and through a stage field on floats, and the same NonFinite time when
only the last component blows up.
"""

import math
import types

import numpy as np
import pytest

from qsakit import dynamics, lyapunov
from qsakit.dynamics import (
    _CHUNK,
    GainSchedule,
    TwoTimescaleSystem,
    integrate,
    integrate_frozen_fast,
)
from qsakit.errors import NonFinite
from qsakit.filters import SecondOrderFilter
from qsakit.probing import make_frequency_basis, probe_signal


def comprehension_rk4(rhs, x, h, n_steps, sample_stride, system, gains, start=0, record=None):
    """The kernel's loop before it was generated, verbatim."""
    steps = np.append(np.arange(0, n_steps, sample_stride), n_steps)
    samples = np.empty((steps.shape[0], len(x)))
    pmap, basis = system.probing, system.basis
    isfinite = math.isfinite
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
        for i in range(m):
            gi = chunk + i
            j = 2 * i
            if gi % sample_stride == 0:
                samples[cursor] = x
                if record is not None:
                    record(x, xis[j])
                cursor += 1
            xim, am, bm = xis[j + 1], a_all[j + 1], b_all[j + 1]
            k1 = rhs(x, xis[j], a_all[j], b_all[j])
            k2 = rhs([v + half * k for v, k in zip(x, k1)], xim, am, bm)
            k3 = rhs([v + half * k for v, k in zip(x, k2)], xim, am, bm)
            k4 = rhs(
                [v + h * k for v, k in zip(x, k3)], xis[j + 2], a_all[j + 2], b_all[j + 2]
            )
            x = [
                v + sixth * (p + 2.0 * (q + r) + u)
                for v, p, q, r, u in zip(x, k1, k2, k3, k4)
            ]
            if not all(map(isfinite, x)):
                raise NonFinite((start + gi + 1) * h)
    samples[cursor] = x
    if record is not None:
        record(x, xis[2 * m])
    return (start + steps) * h, samples


def basis():
    return make_frequency_basis([(2, 1), (3, 1)], phases=[0.25, 0.5])


def array_system(ds, df):
    """A nonlinear pair on array callbacks, every component coupled."""
    si, fi = np.arange(ds) % df, np.arange(df) % ds

    def g(theta, lam, xi):
        return -theta + 0.3 * xi[0] * lam[si] + 0.1

    def g_probe(theta, lam, xi):
        return 0.05 * xi[1] * theta

    def h(theta, lam, xi):
        return -lam + 0.5 * theta[fi] * (1.0 + xi[1]) - 0.2 * lam * lam

    return TwoTimescaleSystem(ds, df, g, h, basis(), g_probe=g_probe)


def stage_system(ds, df, blow_up=False):
    """The same pair as a stage field on floats; with blow_up the last fast
    component follows dl/dt = b*(1 + l*l), which leaves the reals in finite
    time while every other component stays bounded."""

    def stage(theta, lam, xi, a, b):
        x0, x1 = xi
        slow = fast = None
        if a is not None:
            slow = [
                a * ((-t + 0.3 * x0 * lam[i % df] + 0.1) + a * (0.05 * x1 * t))
                for i, t in enumerate(theta)
            ]
        if b is not None:
            fast = [
                b * (-v + 0.5 * theta[i % ds] * (1.0 + x1) - 0.2 * v * v)
                for i, v in enumerate(lam)
            ]
            if blow_up:
                fast[-1] = b * (1.0 + lam[-1] * lam[-1])
        return slow, fast

    zeros = lambda n: (lambda t, l, x: np.zeros(n))  # noqa: E731
    return TwoTimescaleSystem(ds, df, zeros(ds), zeros(df), basis(), stage=stage)


SYSTEMS = {"array callbacks": array_system, "stage field": stage_system}

#: (dim_slow, dim_fast, filtered) of the coupled runs: D = 7 and D = 17
COUPLED = {7: (3, 4, False), 17: (5, 4, True)}


def both_kernels(monkeypatch, run):
    """run() under the generated kernel, then under the reference."""
    got = run()
    monkeypatch.setattr(dynamics, "_rk4", comprehension_rk4)
    monkeypatch.setattr(lyapunov, "_rk4", comprehension_rk4)
    want = run()
    monkeypatch.undo()
    return got, want


def as_bytes(traj):
    return [getattr(traj, f).tobytes() for f in ("t", "theta", "lam", "lam_filtered")
            if getattr(traj, f) is not None]


@pytest.mark.parametrize("form", sorted(SYSTEMS))
@pytest.mark.parametrize("size", sorted(COUPLED))
def test_coupled_run_is_the_comprehension_run(monkeypatch, form, size):
    ds, df, filtered = COUPLED[size]
    system = SYSTEMS[form](ds, df)
    x0 = (np.linspace(-0.5, 0.5, ds), np.linspace(0.4, -0.3, df))
    filt = SecondOrderFilter(0.5) if filtered else None
    sched = GainSchedule(rho=0.7, beta=0.5)

    def run():
        return integrate(system, sched, x0, 60.0, filt=filt, sample_stride=3)

    got, want = both_kernels(monkeypatch, run)
    assert got.n_samples - 1 > _CHUNK // 3  # more steps than one block
    assert ds + df * (3 if filtered else 1) == size
    assert as_bytes(got) == as_bytes(want)


@pytest.mark.parametrize("form", sorted(SYSTEMS))
@pytest.mark.parametrize("size", [7, 17])
def test_frozen_run_is_the_comprehension_run(monkeypatch, form, size):
    system = SYSTEMS[form](2, size)
    lam0 = np.linspace(-0.6, 0.6, size)

    def run():
        return integrate_frozen_fast(system, [0.3, -0.2], lam0, 0.5, 30.0)

    got, want = both_kernels(monkeypatch, run)
    assert got.n_samples - 1 > _CHUNK
    assert as_bytes(got) == as_bytes(want)


@pytest.mark.parametrize("size", [7, 17])
def test_blow_up_in_the_last_component(monkeypatch, size):
    system = stage_system(2, size, blow_up=True)
    lam0 = np.zeros(size)

    def run():
        with pytest.raises(NonFinite) as err:
            integrate_frozen_fast(system, [0.3, -0.2], lam0, 2.0, 5.0)
        return err.value.time

    got, want = both_kernels(monkeypatch, run)
    assert got == want
    assert 0.7 < got < 1.0  # tan(2t) leaves the reals at t = pi/4


def test_one_generated_loop_per_state_length(monkeypatch):
    built = []
    source = dynamics._step_loop_source
    monkeypatch.setattr(dynamics, "_step_loop_source", lambda n: built.append(n) or source(n))
    monkeypatch.setattr(dynamics, "_STEP_LOOPS", {})
    system = stage_system(2, 7)
    loops = []
    for _ in range(3):
        integrate_frozen_fast(system, [0.3, -0.2], np.zeros(7), 0.5, 2.0)
        loops.append(dynamics._STEP_LOOPS[7])
    integrate(system, GainSchedule(rho=0.7, beta=0.5), ([0.1, 0.2], np.zeros(7)), 2.0)
    assert built == [7, 9]
    assert loops[0] is loops[1] is loops[2] is dynamics._STEP_LOOPS[7]
    # straight-line: the loop makes no comprehension or other nested frame
    for loop in dynamics._STEP_LOOPS.values():
        assert not any(isinstance(c, types.CodeType) for c in loop.__code__.co_consts)
