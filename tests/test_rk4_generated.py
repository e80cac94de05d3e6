"""The generated RK4 block loops against the kernel and closures they replaced.

dynamics._rk4 runs each block of steps in straight-line code generated
once per run shape (dim_slow, dim_fast, kind, text key), with the text
written out.  The reference below is the kernel as it stood before: one
list comprehension per stage state and one for the update
(comprehension_rk4), driven by the rhs closure that integrate,
integrate_frozen_fast or lyapunov_exponent built around the stage field
(reference_rk4), here the field compiled from the system's text
(text_field); the kernel and the closure bodies are kept verbatim but
for the sensitivity derivative, b*(J S) summed in index order as the
text writes it.  Both must give the same trajectories and exponents bit
for bit, for coupled, filtered, frozen-fast and sensitivity runs at
every shape of dim_slow 1-4 and dim_fast 1-3 and at shapes no built-in
system reaches, on text written out and on text that calls array
callbacks, and the same NonFinite time when one component overflows or
turns nan, while finite extremes run to the end.  Sampling at strides
beyond a block and the segments of lyapunov_exponent's one kernel run,
whose reference is one call per segment, are checked the same way.  On
linear-3.1 a per-stage statement runs 4 times per step, and a text part
of the wrong length is a ConfigError before the first stage of every run
kind.
"""

import math
import types

import numpy as np
import pytest

from qsakit import dynamics, lyapunov
from qsakit.dynamics import (
    _CHUNK,
    GainSchedule,
    StageText,
    TwoTimescaleSystem,
    _on_text,
    _resolve_step,
    integrate,
    integrate_frozen_fast,
    text_field,
)
from qsakit.errors import ConfigError, Inconclusive, NonFinite
from qsakit.filters import SecondOrderFilter
from qsakit.lyapunov import lyapunov_exponent
from qsakit.probing import make_frequency_basis, probe_signal
from qsakit.systems import make_esc_quadratic, make_linear_system


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


def index_order_product(jac, s, d):
    """J S, row-major, for J and S the row-major lists of d*d floats, each
    entry summed from 0.0 in index order: 0.0 + J_i0*S_0j + J_i1*S_1j + ...
    (at d = 1, 0.0 + j*s, how numpy's 1x1 matmul rounds)."""
    out = []
    for i in range(d):
        for c in range(d):
            acc = 0.0
            for m in range(d):
                acc = acc + jac[i * d + m] * s[m * d + c]
            out.append(acc)
    return out


def sensitivity_rhs(stage, shape, args, system):
    """lyapunov_exponent's rhs, verbatim but for its Jacobian, the system's
    text's compiled dh_dlambda, and b*(J S) summed in index order
    (index_order_product), as the text writes it.  Where the kernel
    advances S alone (its stack holds d*d entries) the rhs does too, at a
    Lambda of zeros, which that Jacobian does not read."""
    d, th = shape[1], args[0]
    jac_of = text_field(system.text)[1]

    def rhs(x, xi, a, b):
        if len(x) == d * d:
            return [b * v for v in index_order_product(jac_of(th, [0.0] * d, xi), x, d)]
        la = x[:d]
        fast = stage(th, la, xi, None, b)[1]
        return fast + [b * v for v in index_order_product(jac_of(th, la, xi), x[d:], d)]

    return rhs


RHS = {
    "coupled": coupled_rhs,
    "filtered": coupled_rhs,
    "frozen-fast": frozen_rhs,
    "sensitivity": sensitivity_rhs,
}


def reference_rk4(shape, args, x, h, n_steps, sample_stride, system, gains, b,
                  stops=(), at_stop=None):
    """_rk4 as it stood before: the run's rhs closure over the system's
    stage field, stepped by comprehension_rk4 with both gains as lists; a
    run with stops (lyapunov_exponent's, at stride n_steps) is one call per
    segment up to each stop, as lyapunov_exponent made them before it
    passed stops.  The text's values end args, and a carried local ends x
    (dynamics._on_text): neither enters the reference, and the samples'
    carried column is nan."""
    ds, df, kind, key = shape
    args = args[: len(args) - len(key.names)]
    carried = key.carry is not None
    x = x[:-1] if carried else x
    rhs = RHS[kind](system.stage, (ds, df, kind), args, system)

    def both(ts):
        fast = [float(b)] * len(ts)
        return (fast if gains is None else gains(ts)), fast

    def with_carry(t, samples):
        if carried:
            samples = np.column_stack([samples, np.full(samples.shape[0], np.nan)])
        return t, samples

    if not stops:
        return with_carry(*comprehension_rk4(rhs, x, h, n_steps, sample_stride, system, both))
    assert sample_stride == n_steps
    first, begin = x, 0
    for end in sorted({*stops, n_steps}):
        _, samples = comprehension_rk4(rhs, x, h, end - begin, end - begin, system, both, begin)
        x = samples[-1].tolist()
        if end in stops:
            x = at_stop(end, x)
        begin = end
    return with_carry(np.array([0, n_steps]) * float(h), np.array([first, x]))


def basis():
    return make_frequency_basis([(2, 1), (3, 1)], phases=[0.25, 0.5])


def diagonal_jac(df, entry):
    """The Jacobian text of df fast parts whose part i reads la{i} alone,
    with d part_i / d la{i} = entry(i)."""
    return tuple(entry(i) if i == k else "0.0" for i in range(df) for k in range(df))


def array_system(ds, df):
    """A nonlinear pair, every component coupled, whose text calls array
    callbacks: its slow part calls slow_at (g plus a times the probing
    feedback g_probe) per component, and its per-stage statement calls
    h, each on float64 arrays of the stage's lists."""
    si, fi = np.arange(ds) % df, np.arange(df) % ds

    def g(theta, lam, xi):
        return -theta + 0.3 * xi[0] * lam[si] + 0.1

    def g_probe(theta, lam, xi):
        return 0.05 * xi[1] * theta

    def h(theta, lam, xi):
        return -lam + 0.5 * theta[fi] * (1.0 + xi[1]) - 0.2 * lam * lam

    def slow_at(theta, lam, xi, a):
        th, la, xv = np.array(theta), np.array(lam), np.array(xi)
        return (g(th, la, xv) + a * g_probe(th, la, xv)).tolist()

    def fast_at(theta, lam, xi):
        return h(np.array(theta), np.array(lam), np.array(xi)).tolist()

    th, la = "".join(f"th{i}, " for i in range(ds)), "".join(f"la{i}, " for i in range(df))
    text = StageText(
        slow=tuple(f"slow_at(({th}), ({la}), (xi0, xi1), a)[{i}]" for i in range(ds)),
        fast=tuple(f"hv[{i}]" for i in range(df)),
        jac=diagonal_jac(df, lambda i: f"-1.0 - 0.4 * la{i}"),
        row=2, per_stage=f"hv = fast_at(({th}), ({la}), (xi0, xi1))", carry=None,
        names=("slow_at", "fast_at"), values=(slow_at, fast_at),
    )
    return TwoTimescaleSystem(ds, df, basis(), text=text)


def stage_system(ds, df, blow_up=None, nan_at=None):
    """The same pair written out as text, its fast parts also coupled
    through 0.1 * xi0 * (la0 + la1 + ...), with its analytic fast
    Jacobian, dense and inexact, so that the order of each sum of b*(J S)
    shows; fast component blow_up (an index) follows dl/dt = b*(1 + l*l),
    which leaves the reals in finite time while every other component
    stays bounded; fast component nan_at follows dl/dt = b until it
    exceeds 0.5, where its field turns nan, never inf."""
    total = " + ".join(f"la{k}" for k in range(df))
    fast = [
        f"-la{i} + 0.5 * th{i % ds} * (1.0 + xi1) - 0.2 * la{i} * la{i} + 0.1 * xi0 * ({total})"
        for i in range(df)
    ]
    if blow_up is not None:
        blow_up %= df
        fast[blow_up] = f"1.0 + la{blow_up} * la{blow_up}"
    if nan_at is not None:
        nan_at %= df
        fast[nan_at] = f"1.0 if la{nan_at} <= 0.5 else nan"
    text = StageText(
        slow=tuple(
            f"-th{i} + 0.3 * xi0 * la{i % df} + 0.1 + a * (0.05 * xi1 * th{i})" for i in range(ds)
        ),
        fast=tuple(fast),
        jac=tuple(f"-1.0 - 0.4 * la{i} + 0.1 * xi0" if i == k else "0.1 * xi0"
                  for i in range(df) for k in range(df)),
        row=2, per_stage="", carry=None, names=("nan",), values=(math.nan,),
    )
    return TwoTimescaleSystem(ds, df, basis(), text=text)


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


#: each run kind, short, on SYSTEMS["stage field"](ds, df)
SHAPE_RUNS = {
    "coupled": lambda s: as_bytes(integrate(
        s, SCHED, (np.linspace(-0.5, 0.5, s.dim_slow), np.linspace(0.4, -0.3, s.dim_fast)), 2.0
    )),
    "filtered": lambda s: as_bytes(integrate(
        s, SCHED, (np.linspace(-0.5, 0.5, s.dim_slow), np.linspace(0.4, -0.3, s.dim_fast)), 2.0,
        filt=SecondOrderFilter(0.3, zeta=0.6, eta=1.3),
    )),
    "frozen-fast": lambda s: as_bytes(integrate_frozen_fast(
        s, np.linspace(0.3, -0.2, s.dim_slow), np.linspace(-0.6, 0.6, s.dim_fast), 0.3, 2.0
    )),
    "sensitivity": lambda s: exponent_bits(
        s, np.linspace(0.3, -0.2, s.dim_slow), 0.6, np.linspace(-0.2, 0.3, s.dim_fast), 2.0
    ),
}


def exponent_bits(*args):
    """lyapunov_exponent(*args) as float.hex, or the half-horizon estimates
    of the Inconclusive it raises at so short a horizon."""
    try:
        return [v.hex() for v in vars(lyapunov_exponent(*args)).values()]
    except Inconclusive as exc:
        return [v.hex() for v in exc.estimates.values()]


@pytest.mark.parametrize("kind", sorted(SHAPE_RUNS))
@pytest.mark.parametrize("df", [1, 2, 3])
@pytest.mark.parametrize("ds", [1, 2, 3, 4])
def test_text_shapes_are_the_comprehension_run(monkeypatch, ds, df, kind):
    # every shape of dim_slow 1-4 and dim_fast 1-3, each run kind: the
    # generated loop, its sensitivity sums among them, against the reference
    system = stage_system(ds, df)
    got, want = both_kernels(monkeypatch, lambda: SHAPE_RUNS[kind](system))
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
    text = StageText(("0.0",) * ds, ("0.0",) * df, ("0.0",) * (df * df), 2, "", None, (), ())
    return TwoTimescaleSystem(ds, df, basis(), text=text)


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
    """(system, shape, args, x, gains) of one _rk4 run of each kind on
    text (dynamics._on_text); the sensitivity run is at dim_fast 1, with
    Lambda in the stack, since the Jacobian reads it."""
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
        x = lam + [1.0]
    shape, args, x = _on_text(system.text, (2, system.dim_fast, kind), args, x)
    return system, shape, args, x, gains


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
    t, samples = dynamics._rk4(*run)
    t_ref, samples_ref = reference_rk4(*run)
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
    text = StageText(("0.0",), ("1.0",), ("787.0 if la0 > 15.0 else 0.0",), 2, "", None, (), ())
    system = TwoTimescaleSystem(1, 1, basis(), text=text)

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
        loops.append(dynamics._STEP_LOOPS[2, 7, "frozen-fast", system.text._replace(values=None)])
    sched = GainSchedule(rho=0.7, beta=0.5)
    for filt in (None, SecondOrderFilter(0.5), None):
        integrate(system, sched, ([0.1, 0.2], np.zeros(7)), 2.0, filt=filt)
    for _ in range(2):  # segment after segment, one loop
        lyapunov_exponent(stage_system(2, 2), [0.3, -0.2], 0.5, [0.1, 0.2], 30.0)
    assert [shape[:3] for shape in built] == [
        (2, 7, "frozen-fast"), (2, 7, "coupled"), (2, 7, "filtered"), (2, 2, "sensitivity")
    ]
    assert loops[0] is loops[1] is loops[2] is dynamics._STEP_LOOPS[built[0]]
    # straight-line: the loop makes no comprehension or other nested frame
    for loop in dynamics._STEP_LOOPS.values():
        assert not any(isinstance(c, types.CodeType) for c in loop.__code__.co_consts)


# -- a per-stage statement on linear-3.1: runs per step, part lengths --------


def counted_linear(calls, part=None):
    """linear-3.1 whose text calls count() at every stage, appending to
    calls; with part ("slow" or "fast") that part is listed twice."""
    text = make_linear_system().text
    text = text._replace(
        per_stage="n = count()", names=text.names + ("count",),
        values=text.values + (lambda: calls.append(len(calls)),),
    )
    if part is not None:
        text = text._replace(**{part: getattr(text, part) * 2})
    return TwoTimescaleSystem(1, 1, make_linear_system().basis, text=text)


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
    # the system refuses the text when it is built, before any stage runs
    calls = []
    with pytest.raises(ConfigError, match=rf"^stage text has 2 {part} part\(s\), expected 1$"):
        LINEAR_RUNS[kind](counted_linear(calls, part))
    assert calls == []
