"""The generated RK4 block loops against the kernel and closures they replaced.

dynamics._rk4 runs each block of steps in straight-line code generated
once per run shape (dim_slow, dim_fast, kind), and that code calls the
stage field itself.  The reference below is the kernel as it stood
before: one list comprehension per stage state and one for the update
(comprehension_rk4), driven by the rhs closure that integrate,
integrate_frozen_fast or lyapunov_exponent built around the stage field
(reference_rk4); the kernel and the closure bodies are kept verbatim.
Both must give the same trajectories and exponents bit for bit, for
coupled, filtered, frozen-fast and sensitivity runs at fast dimension 1,
2 and 3 and at shapes no built-in system reaches, through a stage field
that calls array callbacks and through one on floats, and the same
NonFinite time when one component overflows or turns nan, while finite
extremes run to the end.  Sampling at strides beyond a block and the
segments of lyapunov_exponent's one kernel run, whose reference is one
call per segment, are checked the same way.  On linear-3.1
the field is called 4 times per step, and a part of the wrong length is
a ConfigError at the first stage of every run kind.
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
    _resolve_step,
    integrate,
    integrate_frozen_fast,
)
from qsakit.errors import ConfigError, NonFinite
from qsakit.filters import SecondOrderFilter
from qsakit.lyapunov import _jacobian_evaluator, lyapunov_exponent
from qsakit.probing import make_frequency_basis, probe_signal
from qsakit.systems import make_esc_quadratic, make_linear_system
from test_kernel_reference import callback_stage


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


def coupled_rhs(stage, shape, args, system):
    """integrate's rhs, verbatim; filt stands for the filter's presence."""
    ds, df, kind = shape
    dx = ds + df
    filt = None if kind == "coupled" else kind
    gamma2, two_zg = args if filt is not None else (None, None)

    def rhs(x, xi, a, b):
        slow, fast = stage(x[:ds], x[ds:dx], xi, a, b)
        out = slow + fast
        if filt is None:
            return out
        vf = x[dx + df :]
        out += vf
        out += [
            gamma2 * (l - f) - two_zg * v
            for l, f, v in zip(x[ds:dx], x[dx : dx + df], vf)
        ]
        return out

    return rhs


def frozen_rhs(stage, shape, args, system):
    """integrate_frozen_fast's rhs, verbatim."""
    (th,) = args

    def rhs(x, xi, a, b):
        return stage(th, x, xi, None, b)[1]

    return rhs


def sensitivity_rhs(stage, shape, args, system):
    """lyapunov_exponent's rhs at d = 1 and at d >= 2, verbatim but for
    where the d = 1 form reads its Jacobian: system.dh_dlambda, else the
    central-difference evaluator, not args, which hold the kernel's
    b*(J @ S) callback at every d.  Its b * (0.0 + j * s) is the d = 1
    oracle of the callback's 1x1 matmul."""
    d, th = shape[1], args[0]
    if d == 1:
        jac_cb = system.dh_dlambda or _jacobian_evaluator(system)

        def rhs(x, xi, a, b):
            la = x[:1]
            (v,) = stage(th, la, xi, None, b)[1]
            (j,) = np.asarray(jac_cb(th, la, xi), dtype=float).ravel().tolist()
            return [v, b * (0.0 + j * x[1])]

    else:
        jac_of = _jacobian_evaluator(system)

        def rhs(x, xi, a, b):
            la = x[:d]
            fast = stage(th, la, xi, None, b)[1]
            ds = jac_of(th, la, xi) @ np.array(x[d:]).reshape(d, d)
            return fast + [b * v for v in ds.ravel().tolist()]

    return rhs


RHS = {
    "coupled": coupled_rhs,
    "filtered": coupled_rhs,
    "frozen-fast": frozen_rhs,
    "sensitivity": sensitivity_rhs,
}


def reference_rk4(field, shape, args, x, h, n_steps, sample_stride, system, gains, b,
                  stops=(), at_stop=None):
    """_rk4 as it stood before: the run's rhs closure over the stage field,
    stepped by comprehension_rk4 with both gains as lists; a run with stops
    (lyapunov_exponent's, at stride n_steps) is one call per segment up to
    each stop, as lyapunov_exponent made them before it passed stops."""
    rhs = RHS[shape[2]](field, shape, args, system)

    def both(ts):
        fast = [float(b)] * len(ts)
        return (fast if gains is None else gains(ts)), fast

    if not stops:
        return comprehension_rk4(rhs, x, h, n_steps, sample_stride, system, both)
    assert sample_stride == n_steps
    first, begin = x, 0
    for end in sorted({*stops, n_steps}):
        _, samples = comprehension_rk4(rhs, x, h, end - begin, end - begin, system, both, begin)
        x = samples[-1].tolist()
        if end in stops:
            x = at_stop(end, x)
        begin = end
    return np.array([0, n_steps]) * float(h), np.array([first, x])


def basis():
    return make_frequency_basis([(2, 1), (3, 1)], phases=[0.25, 0.5])


def array_system(ds, df):
    """A nonlinear pair on array callbacks, every component coupled, run
    through a stage field that calls them (callback_stage); its
    sensitivity runs take central differences of that field."""
    si, fi = np.arange(ds) % df, np.arange(df) % ds

    def g(theta, lam, xi):
        return -theta + 0.3 * xi[0] * lam[si] + 0.1

    def g_probe(theta, lam, xi):
        return 0.05 * xi[1] * theta

    def h(theta, lam, xi):
        return -lam + 0.5 * theta[fi] * (1.0 + xi[1]) - 0.2 * lam * lam

    return TwoTimescaleSystem(ds, df, basis(), stage=callback_stage(g, h, g_probe))


def stage_system(ds, df, blow_up=None, nan_at=None):
    """The same pair as a stage field on floats, with its analytic fast
    Jacobian; fast component blow_up (an index) follows dl/dt = b*(1 +
    l*l), which leaves the reals in finite time while every other
    component stays bounded; fast component nan_at follows dl/dt = b
    until it exceeds 0.5, where its field turns nan, never inf."""

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
            if blow_up is not None:
                fast[blow_up] = b * (1.0 + lam[blow_up] * lam[blow_up])
            if nan_at is not None:
                fast[nan_at] = b if lam[nan_at] <= 0.5 else math.nan
        return slow, fast

    def dh_dlambda(theta, lam, xi):
        return np.diag([-1.0 - 0.4 * v for v in lam])

    return TwoTimescaleSystem(ds, df, basis(), stage=stage, dh_dlambda=dh_dlambda)


SYSTEMS = {"array callbacks": array_system, "stage field": stage_system}

#: (dim_slow, dim_fast, filtered) of the coupled runs: D = 7 and D = 17
COUPLED = {7: (3, 4, False), 17: (5, 4, True)}


def both_kernels(monkeypatch, run):
    """run() under the generated kernel, then under the reference."""
    got = run()
    monkeypatch.setattr(dynamics, "_rk4", reference_rk4)
    monkeypatch.setattr(lyapunov, "_rk4", reference_rk4)
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


#: each run kind on SYSTEMS[form](dim_slow, d), returning its output as
#: bytes; beta and the filter's gamma are no powers of two, so a product
#: regrouped in the generated code would round differently
SCHED = GainSchedule(rho=0.7, beta=0.3)
KIND_RUNS = {
    "coupled": (3, lambda s, d: as_bytes(integrate(
        s, SCHED, (np.linspace(-0.5, 0.5, 3), np.linspace(0.4, -0.3, d)), 30.0
    ))),
    "filtered": (3, lambda s, d: as_bytes(integrate(
        s, SCHED, (np.linspace(-0.5, 0.5, 3), np.linspace(0.4, -0.3, d)), 30.0,
        filt=SecondOrderFilter(0.3, zeta=0.6, eta=1.3),
    ))),
    "frozen-fast": (2, lambda s, d: as_bytes(
        integrate_frozen_fast(s, [0.3, -0.2], np.linspace(-0.6, 0.6, d), 0.3, 30.0)
    )),
    "sensitivity": (2, lambda s, d: [v.hex() for v in vars(
        lyapunov_exponent(s, [0.3, -0.2], 0.6, np.linspace(-0.2, 0.3, d), 30.0)
    ).values()]),
}


@pytest.mark.parametrize("form", sorted(SYSTEMS))
@pytest.mark.parametrize("kind", sorted(KIND_RUNS))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_each_kind_is_the_reference_run(monkeypatch, form, kind, d):
    ds, run = KIND_RUNS[kind]
    system = SYSTEMS[form](ds, d)
    got, want = both_kernels(monkeypatch, lambda: run(system, d))
    assert got == want


@pytest.mark.parametrize("size", [7, 17])
def test_blow_up_in_the_last_component(monkeypatch, size):
    system = stage_system(2, size, blow_up=-1)
    lam0 = np.zeros(size)

    def run():
        with pytest.raises(NonFinite) as err:
            integrate_frozen_fast(system, [0.3, -0.2], lam0, 2.0, 5.0)
        return err.value.time

    got, want = both_kernels(monkeypatch, run)
    assert got == want
    assert 0.7 < got < 1.0  # tan(2t) leaves the reals at t = pi/4


#: stage_system's keywords for a run whose x leaves the reals through one
#: fast component: overflow to inf, or a nan field without overflow
NON_FINITE = {"inf first": {"blow_up": 0}, "nan first": {"nan_at": 0},
              "nan last": {"nan_at": -1}}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
@pytest.mark.parametrize("size", [7, 17])
def test_non_finite_in_one_component(monkeypatch, case, size):
    system = stage_system(2, size, **NON_FINITE[case])
    lam0 = np.full(size, 0.45)

    def run():
        with pytest.raises(NonFinite) as err:
            integrate_frozen_fast(system, [0.3, -0.2], lam0, 2.0, 5.0)
        return err.value.time

    got, want = both_kernels(monkeypatch, run)
    assert got == want
    assert got < 1.0  # tan(2t + atan(0.45)) leaves the reals at t = 0.574


def zero_field_system(ds, df):
    """A pair whose field and fast Jacobian are zero: every state stays."""

    def stage(theta, lam, xi, a, b):
        return (None if a is None else [0.0] * ds), (None if b is None else [0.0] * df)

    return TwoTimescaleSystem(
        ds, df, basis(), stage=stage, dh_dlambda=lambda t, l, x: np.zeros((df, df))
    )


#: the largest finite doubles, the least subnormal and the least normal
EDGE_VALUES = [1.7976931348623157e308, -1.7976931348623157e308, 5e-324, -5e-324,
               2.2250738585072014e-308]


@pytest.mark.parametrize("kind", sorted(KIND_RUNS))
def test_finite_extremes_run_to_the_end(kind):
    # x - x is +0.0 at every finite x, so no step of these runs is NonFinite
    ds, d = KIND_RUNS[kind][0], len(EDGE_VALUES)
    system, sched = zero_field_system(ds, d), GainSchedule(rho=0.7, beta=0.3)
    lam0, theta = np.array(EDGE_VALUES), EDGE_VALUES[:ds]
    if kind == "sensitivity":  # dim_fast 1, so S stays [1.0] and the exponents 0.0
        for v in EDGE_VALUES:
            est = lyapunov_exponent(zero_field_system(ds, 1), theta, 0.3, [v], 30.0)
            assert (est.exponent, est.tail_exponent) == (0.0, 0.0)
        return
    if kind == "frozen-fast":
        traj = integrate_frozen_fast(system, theta, lam0, 0.3, 30.0)
    else:
        filt = SecondOrderFilter(0.3) if kind == "filtered" else None
        traj = integrate(system, sched, (theta, lam0), 30.0, filt=filt)
        assert np.array_equal(traj.theta, np.tile(theta, (traj.n_samples, 1)))
    assert traj.n_samples - 1 > _CHUNK
    assert np.array_equal(traj.lam, np.tile(lam0, (traj.n_samples, 1)))


# -- sampling edges of the kernel against comprehension_rk4 -------------------


def kernel_case(kind):
    """(system, shape, args, x, gains) of one _rk4 run of each kind on a
    stage field; the sensitivity run is at dim_fast 1 with the b*(J @ S)
    callback."""
    system = stage_system(2, 1 if kind == "sensitivity" else 2)
    sched = GainSchedule(rho=0.7, beta=0.3)
    theta, lam = [0.3, -0.2], [0.4, -0.3][: system.dim_fast]
    gains, args, x = None, (theta,), lam
    if kind in ("coupled", "filtered"):
        gains, args, x = (lambda ts: sched.slow_gain_array(ts).tolist()), (), theta + lam
    if kind == "filtered":
        filt = SecondOrderFilter(0.3, zeta=0.6, eta=1.3)
        args, x = (filt.gamma**2, 2.0 * filt.zeta * filt.gamma), x + lam + [0.0, 0.0]
    if kind == "sensitivity":
        args, x = (theta, jac_times_s(system)), lam + [1.0]
    return system, (2, system.dim_fast, kind), args, x, gains


def jac_times_s(system):
    """lyapunov_exponent's sensitivity callback: b*(J @ S), row-major, as a
    list, with J from _jacobian_evaluator."""
    jac_of, d = _jacobian_evaluator(system), system.dim_fast

    def jac(th, la, xi, b, s):
        js = jac_of(th, la, xi) @ np.array(s).reshape(d, d)
        return [b * v for v in js.ravel().tolist()]

    return jac


#: (n_steps, sample_stride): exact multiples of _CHUNK, a block with no
#: sample (the stride exceeds two blocks), and a stride of n_steps
SAMPLING = [
    (2 * _CHUNK, 1), (2 * _CHUNK, _CHUNK), (2 * _CHUNK, 2 * _CHUNK),
    (3 * _CHUNK + 5, 2 * _CHUNK + 7), (1500, 1500), (1500, 7),
]


@pytest.mark.parametrize("kind", sorted(KIND_RUNS))
@pytest.mark.parametrize("n_steps, stride", SAMPLING)
def test_sampling_edges_are_the_comprehension_run(kind, n_steps, stride):
    system, shape, args, x, gains = kernel_case(kind)
    run = (shape, args, x, 0.015625, n_steps, stride, system, gains, 0.3)
    t, samples = dynamics._rk4(system.stage, *run)
    t_ref, samples_ref = reference_rk4(system.stage, *run)
    assert t.tobytes() == t_ref.tobytes()
    assert samples.tobytes() == samples_ref.tobytes()
    assert t.shape[0] == len(range(0, n_steps, stride)) + 1


# -- lyapunov_exponent: one kernel run, the segmented run's exponents ---------


def counted_rk4(monkeypatch, calls):
    kernel = lyapunov._rk4
    monkeypatch.setattr(lyapunov, "_rk4", lambda *a, **k: calls.append(a[5]) or kernel(*a, **k))


#: system, theta and lambda0 of exponents at h = 1/64: every rescale
#: interval of 64 steps ends on a _CHUNK boundary, 1,024 = 16 * 64
EXPONENT_SYSTEMS = {
    "stage field d=1": (lambda: stage_system(2, 1), [0.3, -0.2], [0.1]),
    "stage field d=2": (lambda: stage_system(2, 2), [0.3, -0.2], [0.1, -0.2]),
    "array callbacks d=3": (lambda: array_system(2, 3), [0.3, -0.2], [0.1, -0.2, 0.3]),
}


@pytest.mark.parametrize("name", sorted(EXPONENT_SYSTEMS))
@pytest.mark.parametrize("n_steps", [2 * _CHUNK, 2 * _CHUNK + 75])
def test_exponent_is_one_kernel_run(monkeypatch, name, n_steps):
    # n_steps 2,048: n_half 1,024 and the last step are rescale steps on
    # block ends; 2,123: n_half 1,061 lies between rescales (61 % 64 != 0)
    make, theta, lam0 = EXPONENT_SYSTEMS[name]
    h = 0.015625
    assert round(1.0 / h) * 16 == _CHUNK
    calls = []
    counted_rk4(monkeypatch, calls)

    def run():
        est = lyapunov_exponent(make(), theta, 0.3, lam0, n_steps * h, step=h)
        return est.exponent.hex(), est.tail_exponent.hex()

    got = run()
    assert calls == [n_steps]
    monkeypatch.setattr(lyapunov, "_rk4", reference_rk4)
    assert run() == got


@pytest.mark.parametrize("system", [make_linear_system, make_esc_quadratic])
def test_text_exponent_is_one_kernel_run(monkeypatch, system):
    calls = []
    counted_rk4(monkeypatch, calls)
    lyapunov_exponent(system(), [0.3], 0.5, [0.0], 40.0)
    assert calls == [_resolve_step(system().basis, 0.5, 40.0, None)[1]]


@pytest.mark.filterwarnings("ignore:overflow")
def test_degenerate_norm_on_a_block_end(monkeypatch):
    # dl/dt = 1 with S constant until l passes 15, then J = 787: S grows
    # about 1,350-fold per step of 1/64 and is finite, near 1e197, at the
    # rescale of step 1,024 = _CHUNK, while ||S||^2 overflows
    def stage(theta, lam, xi, a, b):
        return None, [b * 1.0]

    system = TwoTimescaleSystem(1, 1, basis(), stage=stage,
                                dh_dlambda=lambda t, l, x: 787.0 if l[0] > 15.0 else 0.0)

    def run():
        with pytest.raises(NonFinite, match="sensitivity norm degenerate") as err:
            lyapunov_exponent(system, [0.0], 1.0, [0.0], 40.0, step=0.015625)
        return err.value.time

    got, want = both_kernels(monkeypatch, run)
    assert got == want == _CHUNK * 0.015625


def test_one_generated_loop_per_run_shape(monkeypatch):
    built = []
    source = dynamics._step_loop_source
    monkeypatch.setattr(dynamics, "_step_loop_source", lambda s: built.append(s) or source(s))
    monkeypatch.setattr(dynamics, "_STEP_LOOPS", {})
    system = stage_system(2, 7)
    loops = []
    for _ in range(3):
        integrate_frozen_fast(system, [0.3, -0.2], np.zeros(7), 0.5, 2.0)
        loops.append(dynamics._STEP_LOOPS[2, 7, "frozen-fast"])
    sched = GainSchedule(rho=0.7, beta=0.5)
    for filt in (None, SecondOrderFilter(0.5), None):
        integrate(system, sched, ([0.1, 0.2], np.zeros(7)), 2.0, filt=filt)
    for _ in range(2):  # segment after segment, one loop
        lyapunov_exponent(stage_system(2, 2), [0.3, -0.2], 0.5, [0.1, 0.2], 30.0)
    assert built == [
        (2, 7, "frozen-fast"), (2, 7, "coupled"), (2, 7, "filtered"), (2, 2, "sensitivity")
    ]
    assert loops[0] is loops[1] is loops[2] is dynamics._STEP_LOOPS[2, 7, "frozen-fast"]
    # straight-line: the loop makes no comprehension or other nested frame
    for loop in dynamics._STEP_LOOPS.values():
        assert not any(isinstance(c, types.CodeType) for c in loop.__code__.co_consts)


# -- the stage field on linear-3.1: calls per step, first-stage length check --


def counted_linear(calls, part=None):
    """linear-3.1 whose stage field appends to calls at each call; with part
    ("slow" or "fast") that part comes back one value too long."""
    system = make_linear_system()
    field = system.stage

    def stage(theta, lam, xi, a, b):
        calls.append(len(calls))
        slow, fast = field(theta, lam, xi, a, b)
        if part == "slow" and slow is not None:
            slow = slow + slow
        if part == "fast":
            fast = fast + fast
        return slow, fast

    return TwoTimescaleSystem(
        1, 1, system.basis, system.probing, stage=stage,
        dh_dlambda=system.dh_dlambda,
    )


#: horizon 40 at beta 0.5: 1,758 steps on linear-3.1, more than one block
LINEAR_RUNS = {
    "coupled": lambda s: integrate(s, GainSchedule(rho=0.7, beta=0.5), ([0.8], [0.0]), 40.0),
    "filtered": lambda s: integrate(
        s, GainSchedule(rho=0.7, beta=0.5), ([0.8], [0.0]), 40.0, filt=SecondOrderFilter(0.5)
    ),
    "frozen-fast": lambda s: integrate_frozen_fast(s, [0.3], [0.0], 0.5, 40.0),
    "sensitivity": lambda s: lyapunov_exponent(s, [0.3], 0.5, [0.0], 40.0),
}


@pytest.mark.parametrize("kind", sorted(LINEAR_RUNS))
def test_linear_stage_calls_per_step(kind):
    calls = []
    LINEAR_RUNS[kind](counted_linear(calls))
    n_steps = _resolve_step(make_linear_system().basis, 0.5, 40.0, None)[1]
    assert n_steps > _CHUNK
    assert len(calls) == 4 * n_steps


@pytest.mark.parametrize(
    "kind, part",
    [(kind, "fast") for kind in sorted(LINEAR_RUNS)] + [("coupled", "slow"), ("filtered", "slow")],
)
def test_linear_wrong_length_at_the_first_stage(kind, part):
    calls = []
    with pytest.raises(ConfigError, match=rf"^stage returned 2 {part} value\(s\), expected 1$"):
        LINEAR_RUNS[kind](counted_linear(calls, part))
    assert calls == [0]
