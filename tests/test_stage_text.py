"""The RK4 kernel's loops on expression text against the stage field.

Every system states its field once, as a StageText: linear-3.1,
decoupled-test and the extremum seeker, at every probing gain, washout
order and either single_at, among them.  Its stage field and Jacobian
are compiled from the text (text_field), and its runs write the text
into the generated loop (the seeker's frozen runs through its frozen
form, which carries the measurement).  The oracle is that compiled stage
field stepped at every stage by the reference loop of
test_rk4_generated (test_kernel_reference.on_stage_field): both must
give the same trajectories, exponents and NonFinite times bit for bit,
for all four run kinds, across a block boundary and at parameters that a
literal would not survive (-0.0, a subnormal).  The text is bound to its
values at run time, so one loop serves every parameter value.  No run
of a named system (qsakit.systems.SYSTEMS), and none of the seeker
traffic of the benchmark, calls the compiled stage field or
Objective.__call__.

The generated loop sources of the benchmark's systems are pinned: the
benchmark runs the code it ran before every system was text.  A Python
field wrapped as text, a per-stage statement that calls it, gets the
stage's probe row as a list of floats.

The loop reads the probe table as one list per probe component, and
binds xi{i} only for the components its run reads.  A text that reads
components apart (row 3, xi0 in the slow part, xi2 in the fast part) is
checked against the stage field like the built-in systems; a probe table
of another length than the text's row is the compiled field's
ConfigError in every kind of run, and a text whose names would overwrite
the loop's own locals is rejected when the system is built.

A text's row-only arithmetic is lifted out of the loop: computed once per
run, or once per block as a column of the probe table that the loop reads
like a probe entry.  Calls, ** and / by a probe entry or a state stay in
the loop; an overflowing column warns not and stops the run at the stage
field's NonFinite time; a zero run-constant divisor raises the compiled
field's ZeroDivisionError; and the seeker's measurement, lifted whole at a
pinned theta, is sampled bit for bit as the stage field measures it.

A sensitivity run on a text whose Jacobian reads no Lambda, with no
per-stage statement and a fast part of +, -, * over names and float
literals, advances S alone; every other run keeps its loop source byte
for byte.  In such a run a Lambda that overflows or turns nan raises no
NonFinite, since it never fed S, where a run that advances Lambda
raises; the exponent's bits are those of the stage field's run wherever
both return.
"""

import contextlib
import hashlib
import json
import math
import re
import warnings

import numpy as np
import pytest

from qsakit import dynamics
from qsakit.dynamics import (
    _CHUNK,
    _LOOP_NAMES,
    GainSchedule,
    TwoTimescaleSystem,
    _resolve_step,
    integrate,
    integrate_frozen_fast,
    text_field,
)
from qsakit.cli import run
from qsakit.errors import ConfigError, Inconclusive, NonFinite
from qsakit.esc import (
    EscConfig,
    Objective,
    build_esc_system,
    normalized_observation,
    quadratic_objective,
)
from qsakit.filters import SecondOrderFilter
from qsakit.lyapunov import lyapunov_exponent
from qsakit.meanflow import find_root_g0
from qsakit.probing import default_basis, make_frequency_basis, probe_signal
from qsakit.systems import SYSTEMS as NAMED_SYSTEMS
from qsakit.systems import make_decoupled_system, make_linear_system
from test_kernel_reference import on_stage_field

SUBNORMAL = 5e-324

def split_row_system():
    """linear-3.1's field on a probe row of 3, its slow part reading xi0 and
    its fast part and Jacobian xi2, on default_basis(3)."""
    text = make_linear_system().text
    text = text._replace(
        fast=(text.fast[0].replace("xi1", "xi2"),), jac=(text.jac[0].replace("xi1", "xi2"),), row=3
    )
    return TwoTimescaleSystem(1, 1, default_basis(3), text=text)


#: built-in systems with text, and a text that reads probe components
#: apart, by label
SYSTEMS = {
    "linear default": make_linear_system,
    "linear negative": lambda: make_linear_system(alpha=0.75, s=(-0.7, -1.3), b=(-0.4, -0.25)),
    "linear signed zero, subnormal": lambda: make_linear_system(
        alpha=1.5, s=(-0.0, SUBNORMAL), b=(-0.0, -0.0)
    ),
    "linear non-unit b": lambda: make_linear_system(alpha=3.0, s=(2.0, 0.5), b=(1.5, -2.5)),
    "decoupled": make_decoupled_system,
    "linear row of 3, reading xi0 and xi2": split_row_system,
    # the seeker writes the built-in quadratic out on floats, calls any
    # other Objective's function and every other objective's measurement
    "seeker quadratic d=1": lambda: seeker(
        quadratic_objective(center=-0.0, weights=2.5), dim=1, sigma=0.3, theta_ctr=[0.25]
    ),
    "seeker quadratic d=2": lambda: seeker(
        quadratic_objective(center=[0.6, -0.0], weights=[0.5, 3.0]),
        dim=2, sigma=0.2, theta_ctr=[-0.3, 0.4],
    ),
    "seeker quadratic d=3": lambda: seeker(
        quadratic_objective(center=[0.8, -0.0, 0.5], weights=[1.5, 0.25, 4.0]),
        dim=3, sigma=0.1, theta_ctr=[0.2, -0.1, 0.6],
    ),
    "seeker numpy-scalar objective": lambda: seeker(
        Objective(lambda th: (th[0] - 0.5) ** 2 * 0.5 + th[1] * th[1]), dim=2
    ),
    "seeker plain callable": lambda: seeker(lambda th: 0.5 * float(th @ th) - 0.25, dim=2),
    # the doubled gain's slow part reads the stage's slow gain; a
    # theta-dependent eps is computed per stage before the measurement
    "seeker doubled gain": lambda: seeker(
        quadratic_objective(center=0.5), dim=1, sigma=0.2, single_at=False
    ),
    "seeker objective-scaled": lambda: seeker(
        quadratic_objective(center=0.5), dim=1, gain_kind="objective_scaled"
    ),
    "seeker prior-scaled, doubled gain": lambda: seeker(
        quadratic_objective(center=[0.6, -0.2]), dim=2, gain_kind="prior_scaled",
        theta_ctr=[0.5, 0.1], sigma_p=0.3, single_at=False,
    ),
}

#: blows up within about 50 steps: beta*s2*h is far past RK4's stability edge
BLOW_UP = lambda: make_linear_system(s=(1.0, 1e4))  # noqa: E731

SCHED = GainSchedule(rho=0.7, beta=0.3)


def seeker(objective, single_at=True, **kw):
    """An order-1 seeker, by default with a single a_t at a constant
    probing gain."""
    return build_esc_system(
        EscConfig(objective=objective, epsilon=0.1, single_at=single_at, **kw)
    )


def theta(system, value):
    """A slow state of the system's dimension: value, value - 0.1, ..."""
    return [value - 0.1 * i for i in range(system.dim_slow)]


#: each run kind; horizon 40 at beta 0.3 is 1,110 to 1,758 steps, more
#: than one block
RUNS = {
    "coupled": lambda s: integrate(s, SCHED, (theta(s, 0.8), [-0.3]), 40.0),
    "filtered": lambda s: integrate(
        s, SCHED, (theta(s, 0.8), [-0.3]), 40.0, filt=SecondOrderFilter(0.3, zeta=0.6, eta=1.3)
    ),
    "frozen-fast": lambda s: integrate_frozen_fast(
        s, theta(s, 0.3), [0.2], 0.3, 40.0, sample_stride=3
    ),
    "sensitivity": lambda s: lyapunov_exponent(s, theta(s, 0.3), 0.3, [0.2], 40.0),
}


def outcome(run, system):
    """run(system) as bits: a trajectory's arrays, an estimate's float.hex,
    or the type, message and estimates (or time) of what it raised."""
    try:
        got = run(system)
    except (NonFinite, Inconclusive) as exc:
        detail = exc.time.hex() if isinstance(exc, NonFinite) else exc.estimates
        return type(exc).__name__, str(exc), detail
    if isinstance(got, dynamics.Trajectory):
        fields = ("t", "theta", "lam", "lam_filtered", "dlam_filtered")
        return [getattr(got, f).tobytes() for f in fields if getattr(got, f) is not None]
    return [v.hex() for v in vars(got).values()]


def field_outcome(run, system):
    """outcome(run, system) with the system's stage field stepped at every
    stage by the reference loop (test_kernel_reference.on_stage_field)."""
    with on_stage_field():
        return outcome(run, system)


def wrapped(system, field=None):
    """system's field as a text that calls a Python field, by default the
    stage field compiled from system's text, once per stage at unit gains
    (1.0 * p is p, bit for bit), with system's Jacobian text: the form of
    any user field (README).  For a text whose slow part reads no a."""
    text = system.text
    th, la, xi = ("".join(f"{v}{i}, " for i in range(n)) for v, n in (
        ("th", system.dim_slow), ("la", system.dim_fast), ("xi", text.row)))
    return TwoTimescaleSystem(
        system.dim_slow, system.dim_fast, system.basis, system.probing,
        text=text._replace(
            slow=tuple(f"gs[{i}]" for i in range(system.dim_slow)),
            fast=tuple(f"hs[{i}]" for i in range(system.dim_fast)),
            per_stage=f"gs, hs = user_field([{th}], [{la}], [{xi}], 1.0, 1.0)",
            names=text.names + ("user_field",), values=text.values + (field or system.stage,),
        ),
    )


@pytest.mark.parametrize("kind", sorted(RUNS))
@pytest.mark.parametrize("label", sorted(SYSTEMS))
def test_text_run_is_the_call_run(label, kind):
    # named for the call path that runs once took: the oracle is now the
    # stage field, called by the reference loop at every stage
    system = SYSTEMS[label]()
    assert _resolve_step(system.basis, 0.3, 40.0, None)[1] > _CHUNK
    got = outcome(RUNS[kind], system)
    assert got == field_outcome(RUNS[kind], system)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("kind", sorted(RUNS))
def test_blow_up_time(kind):
    system = BLOW_UP()
    got = outcome(RUNS[kind], system)
    assert got[0] == "NonFinite"
    assert got == field_outcome(RUNS[kind], system)
    assert 0.0 < float.fromhex(got[2]) < 2.0


@pytest.mark.parametrize("kind", sorted(RUNS))
@pytest.mark.parametrize("name", sorted(NAMED_SYSTEMS))
def test_text_run_calls_no_field(name, kind):
    # every named system runs on its text: no run calls the stage field
    # compiled from it
    system = NAMED_SYSTEMS[name]()
    calls = []
    field = system.stage
    system.stage = lambda *args: calls.append("stage") or field(*args)
    RUNS[kind](system)
    assert calls == []


def _cubic(th):
    x = th[0] - 1.0
    return 0.5 * x**2 + x**3


def _cli(subcommand, payload):
    """An operation running the subcommand on the config payload."""

    def op(tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        assert run(str(config), subcommand, out_dir=tmp_path / "out") == 0

    return op


#: the benchmark's seeker operations that integrate: qsakit esc on its
#: default config, a g0 grid on esc-quadratic and a Newton root on a cubic
SEEKER_TRAFFIC = {
    "esc default config": _cli("esc", {}),
    "g0 grid on esc-quadratic": _cli("meanflow-grid", {
        "system": {"name": "esc-quadratic"},
        "gains": {"beta": 1.0},
        "experiment": {"grid_kind": "g0", "theta_grid": [0.8, 1.2],
                       "burn_in": 20.0, "window": 400.0},
    }),
    "find_root_g0 on a cubic": lambda tmp_path: find_root_g0(
        seeker(Objective(_cubic), dim=1), [1.25], 1.0, 1e-3, burn_in=20.0, window=400.0
    ),
}


@pytest.mark.parametrize("op", sorted(SEEKER_TRAFFIC))
def test_seeker_traffic_takes_the_text_path(op, tmp_path, monkeypatch):
    # Objective.__call__ is wrapped before any seeker is built, as a tracer
    # wraps it: the route is chosen from the objective's class, so the
    # wrapper neither changes it nor gets called
    calls = []
    init, call = TwoTimescaleSystem.__init__, Objective.__call__

    def traced_init(system, *args, **kwargs):
        init(system, *args, **kwargs)
        stage = system.stage
        system.stage = lambda *a: calls.append("stage") or stage(*a)

    monkeypatch.setattr(TwoTimescaleSystem, "__init__", traced_init)
    monkeypatch.setattr(
        Objective, "__call__", lambda obj, th: calls.append("Objective.__call__") or call(obj, th)
    )
    SEEKER_TRAFFIC[op](tmp_path)
    assert calls == []


def test_one_loop_for_every_parameter_value(monkeypatch):
    built = []
    source = dynamics._step_loop_source
    monkeypatch.setattr(dynamics, "_step_loop_source", lambda s: built.append(s) or source(s))
    monkeypatch.setattr(dynamics, "_STEP_LOOPS", {})
    runs = [integrate(make_linear_system(alpha=alpha), SCHED, ([0.8], [-0.3]), 2.0)
            for alpha in (2.0, 3.5)]
    assert not np.array_equal(runs[0].theta, runs[1].theta)
    assert len(built) == 1 and built[0][:3] == (1, 1, "coupled")
    assert len(dynamics._STEP_LOOPS) == 1
    # the values reach the loop through its args, not as literals
    assert "3.5" not in source(built[0])


def test_compiled_field_is_the_text():
    system = make_linear_system(alpha=3.0, s=(2.0, 0.5), b=(1.5, -2.5))
    th, la, xi = 0.3, -0.7, [0.25, -0.6]
    slow, fast = system.stage([th], [la], xi, 0.9, 0.4)
    assert slow == [0.9 * (3.0 * th + 3.0 * la + 2.0 * xi[0] * (th + 1.0) + 1.5)]
    assert fast == [0.4 * (-2.0 * th - la + 0.5 * xi[1] * (la + 1.0) + -2.5)]
    assert system.stage([th], [la], xi, None, None) == (None, None)
    assert text_field(system.text)[1]([th], [la], xi) == [-1.0 + 0.5 * xi[1]]


#: the benchmark's systems (bench/workloads.py), by label
BENCHMARK_SYSTEMS = {
    "linear-3.1": NAMED_SYSTEMS["linear-3.1"],
    "decoupled-test": NAMED_SYSTEMS["decoupled-test"],
    "esc-quadratic": NAMED_SYSTEMS["esc-quadratic"],
    "user-Objective seeker": lambda: build_esc_system(
        EscConfig(objective=Objective(_cubic), epsilon=0.1, dim=1, single_at=True)
    ),
}

#: sha256 of the concatenated coupled, filtered, frozen-fast and
#: sensitivity loop sources of each benchmark system, its frozen text at a
#: pinned theta for the frozen kinds, as generated when StageText's jac was
#: one expression and runs could call a stage field
BENCHMARK_LOOP_SOURCES = {
    "linear-3.1": "b0efee90af193ead65d53bde9127e86736da576d3d2034426ec6dadf12a844c5",
    "decoupled-test": "c9945036fee40793cdf600ec805b74b7e146b721f8fdfa336f47e06a0f350af7",
    "esc-quadratic": "23c716c0fcd864e1aabf3e09251e52e6a72a64f667bc98b0d2cbc56586d593e6",
    "user-Objective seeker": "b3506b625238138be9836f7a52d572bfca27a7e8d62f77649ecc6e2a618376c5",
}


@pytest.mark.parametrize("label", sorted(BENCHMARK_LOOP_SOURCES))
def test_benchmark_loop_sources_unchanged(label):
    system = BENCHMARK_SYSTEMS[label]()
    kinds = ("coupled", "filtered", "frozen-fast", "sensitivity")
    source = "".join(loop_source(system, kind)[0] for kind in kinds)
    assert hashlib.sha256(source.encode()).hexdigest() == BENCHMARK_LOOP_SOURCES[label]


# -- the probe table as component lists ----------------------------------------


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_split_row_reads(kind):
    # test_text_run_is_the_call_run runs this text; its Lyapunov rescales
    # fall inside blocks
    system = split_row_system()
    h = _resolve_step(system.basis, 0.3, 40.0, None)[0]
    assert _CHUNK % round(1.0 / h) != 0
    # the slow part's xi0 in coupled runs, the fast part's xi2 in all four,
    # each read through a lifted column
    lift = dynamics._lift(system.text._replace(values=None), kind)
    reads = dynamics._names(*(e for _, e in lift.columns), *(local for _, local in lift.binds))
    assert [i for i in range(3) if f"xi{i}" in reads] == ([0, 2] if kind in ("coupled", "filtered") else [2])


@pytest.mark.parametrize("kind", sorted(RUNS))
@pytest.mark.parametrize("m", [1, 3])
def test_probe_table_of_another_length(m, kind):
    # linear-3.1's text reads xi1 alone in frozen runs: with three
    # components the run would not notice, so the kernel checks the table
    system = TwoTimescaleSystem(1, 1, default_basis(m), text=make_linear_system().text)
    message = rf"^stage got a probe row of {m} value\(s\), expected 2$"
    with pytest.raises(ConfigError, match=message):
        RUNS[kind](system)
    with on_stage_field(), pytest.raises(ConfigError, match=message):
        RUNS[kind](system)


@pytest.mark.parametrize("names, per_stage", [(("p0",), ""), ((), "am = xi0 * xi1")])
def test_text_names_are_not_loop_locals(names, per_stage):
    text = make_linear_system().text
    text = text._replace(
        names=text.names + names, values=text.values + (1.0,) * len(names), per_stage=per_stage
    )
    with pytest.raises(ConfigError, match=rf"^stage text name\(s\) {(names or ('am',))[0]} "):
        TwoTimescaleSystem(1, 1, make_linear_system().basis, text=text)


def loop_source(system, kind):
    """The generated loop source of a run of kind on the system's text,
    its frozen text at a pinned theta for frozen kinds."""
    text = system.text
    if kind in ("frozen-fast", "sensitivity") and system.frozen is not None:
        text = system.frozen(theta(system, 0.3))
    shape = (system.dim_slow, system.dim_fast, kind, text._replace(values=None))
    return dynamics._step_loop_source(shape), text


def indexed(source):
    """{n: the local bound from p{n}} over the table lists the loop indexes,
    with None for a list only sampled."""
    lists = set(re.findall(r"\bp(\d+)\[", source))
    binds = dict(re.findall(r"(\w+) = p(\d+)\[", source))
    return {int(n): next((v for v, m in binds.items() if m == n), None) for n in lists}


@pytest.mark.parametrize("kind", ["frozen-fast", "sensitivity"])
def test_frozen_loops_index_only_the_components_read(kind):
    # at a pinned theta, linear-3.1 reads its probe row only through s2 *
    # xi1 in its frozen-fast run and -1.0 + s2 * xi1 (jac) in its
    # sensitivity run, which advances S alone: each a block column above
    # the row; the loop indexes that column alone, and every local it binds
    # from it is read by a stage
    source, text = loop_source(make_linear_system(), kind)
    stages = "\n".join(line for line in source.splitlines() if " k1_" in line)
    lists = indexed(source)
    assert lists and min(lists) >= text.row
    assert all(re.search(rf"\b{local}\b", stages) for local in lists.values())
    assert len(lists) == 1
    # the seeker's measurement is lifted whole: its frozen loop runs no
    # statement of it, reads g1 * y from a column and samples the carried y
    # from another
    seeker_source, text = loop_source(NAMED_SYSTEMS["esc-quadratic"](), kind)
    assert text.carry is not None and "q0" in text.per_stage
    assert not re.search(r"\b(q0|y|eps)\b", seeker_source.split("    for j in")[1])
    lists = indexed(seeker_source)
    (sampled,) = [n for n, local in lists.items() if local is None]
    assert min(lists) >= text.row and len(lists) == 2
    assert re.search(rf"rows \+= \(x0, (x1, )?p{sampled}\[j\], \)", seeker_source)


@pytest.mark.parametrize("kind", sorted(RUNS))
@pytest.mark.parametrize("m", [2, 3])
def test_call_path_hands_the_field_a_list_of_m_floats(m, kind):
    # a Python field wrapped as text (wrapped) is called once per stage with
    # the probe row as a list of m Python floats, and its run is the
    # text's own, bit for bit
    base = split_row_system() if m == 3 else make_linear_system()
    rows = []
    field = base.stage
    system = wrapped(base, lambda th, la, xi, a, b: rows.append(xi) or field(th, la, xi, a, b))
    got = outcome(RUNS[kind], system)
    assert len(rows) > 4 * _CHUNK
    assert {(type(xi), len(xi)) for xi in rows} == {(list, m)}
    assert all(type(v) is float for xi in rows for v in xi)
    assert got == outcome(RUNS[kind], base)


@pytest.mark.parametrize("kind", sorted(RUNS))
@pytest.mark.parametrize("label", sorted(SYSTEMS))
def test_loop_names_cover_the_loop(label, kind):
    # every name a text loop binds or reads for itself, apart from the
    # text's own names and locals and what the text reads, is reserved
    system = SYSTEMS[label]()
    source, text = loop_source(system, kind)
    code = compile(source, "<loop>", "exec").co_consts[0]
    own = set(code.co_varnames) | set(code.co_names)
    own -= dynamics._names(*text.slow, *text.fast, *text.jac, text.per_stage) - {"a"}
    own -= set(text.names)
    assert own and all(_LOOP_NAMES.fullmatch(n) for n in own), sorted(own)


# -- row-only arithmetic lifted out of the loop -------------------------------


def text_system(fast, jac="-1.0 + s2 * xi1", s2=1.0, names=(), values=()):
    """linear-3.1's slow part beside the fast part and Jacobian given, with
    the constants names bound to values besides linear-3.1's."""
    text = make_linear_system().text
    assert text.names[2] == "s2"
    text = text._replace(
        fast=(fast,), jac=(jac,), names=text.names + names,
        values=text.values[:2] + (s2,) + text.values[3:] + values,
    )
    return TwoTimescaleSystem(1, 1, make_linear_system().basis, text=text)


#: a fast part that reads a call, ** and / by a probe entry and by a state
#: beside lifted arithmetic, and the operations that stay in the loop
KEPT = text_system(
    "-2.0 * th0 - la0 + s2 * xi1 * (la0 + 1.0) + b2 + 0.01 * fn(s2 * xi1)"
    " + 0.01 * (s1 * xi0) ** 2.0 + 0.01 * (s1 * xi0) / (2.0 + xi1) + 0.001 * xi1 / (la0 * la0 + 1.0)",
    jac="-1.0 + s2 * xi1 + 0.01 * (s2 * xi1) ** 2.0 / (2.0 + la0 * la0)",
    names=("fn",), values=(math.fabs,),
)
KEPT_IN_LOOP = [
    r"fn\(xi\d+\)", r"xi\d+ \*\* 2\.0", r"xi\d+ / xi\d+", r"xi\d+ / \(la0 \* la0 \+ 1\.0\)",
]


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_calls_powers_and_row_divisors_stay_in_the_loop(kind):
    source, _ = loop_source(KEPT, kind)
    body = source.split("    for j in")[1]
    for pattern in KEPT_IN_LOOP + ([r"xi\d+ \*\* 2\.0 / \(2\.0 \+ la0 \* la0\)"] if kind == "sensitivity" else []):
        assert re.search(pattern, body), pattern
    assert "s2 * xi1" not in body and "s1 * xi0" not in body  # lifted
    assert outcome(RUNS[kind], KEPT) == field_outcome(RUNS[kind], KEPT)


@pytest.mark.filterwarnings("ignore:overflow")  # the reference's Jacobian product
@pytest.mark.parametrize("kind", sorted(RUNS))
def test_overflowing_column_warns_not_and_blows_up_on_time(kind):
    # s2 * xi1 * s2 overflows to inf as a block column, with numpy's
    # warnings off, and the run stops at the stage field's NonFinite time
    system = text_system("-2.0 * th0 - la0 + s2 * xi1 * s2 * (la0 + 1.0) + b2", s2=1e300)
    assert re.search(r"\bp[2-9]\[", loop_source(system, kind)[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(RUNS[kind], system)
    assert got[0] == "NonFinite" and float.fromhex(got[2]) < 1.0
    assert got == field_outcome(RUNS[kind], system)


@pytest.mark.parametrize("kind", sorted(RUNS))
@pytest.mark.parametrize("term", ["xi1 / k", "th0 / k", "xi1 * (s2 / k)"])
def test_zero_run_constant_divisor_raises(term, kind):
    system = text_system(f"-2.0 * th0 - la0 + {term}", names=("k",), values=(0.0,))
    for stepped in (contextlib.nullcontext(), on_stage_field()):
        with stepped, pytest.raises(ZeroDivisionError, match="^float division by zero$"):
            RUNS[kind](system)


# -- sensitivity runs that advance S alone -------------------------------------


#: sensitivity runs whose S may read Lambda, or whose fast part could raise:
#: they advance [Lambda; vec S] with the loop source they had before
#: S-alone runs existed
LAMBDA_CARRIERS = {
    "esc-quadratic frozen text": NAMED_SYSTEMS["esc-quadratic"],
    "jac reading la0": lambda: text_system(
        "-2.0 * th0 - la0 + s2 * xi1 * (la0 + 1.0) + b2", jac="-1.0 + s2 * xi1 + 0.5 * la0"
    ),
    "fast dividing by k": lambda: text_system(
        "-2.0 * th0 - la0 + xi1 / k", names=("k",), values=(2.0,)
    ),
    "fast with **": lambda: text_system("-2.0 * th0 - la0 + 0.1 * xi1 ** 2.0"),
    "fast with a call": lambda: text_system(
        "-2.0 * th0 - la0 + 0.1 * fn(xi1)", names=("fn",), values=(math.fabs,)
    ),
}

#: sha256 of the concatenated sensitivity loop sources of LAMBDA_CARRIERS,
#: in sorted label order, as generated before S-alone runs existed
LAMBDA_CARRIER_SOURCES = "3ba5a5a8179151fd89e92825a0724cc81b637630f93c2fdb24e31ad21730a48d"


def test_lambda_carrying_sensitivity_sources_unchanged():
    sources = [loop_source(LAMBDA_CARRIERS[label](), "sensitivity")[0] for label in sorted(LAMBDA_CARRIERS)]
    assert all("    x0, x1, " in source and "la0 = x0" in source for source in sources)
    digest = hashlib.sha256("".join(sources).encode()).hexdigest()
    assert digest == LAMBDA_CARRIER_SOURCES


@pytest.mark.parametrize("name", ["linear-3.1", "decoupled-test"])
def test_lambda_free_sensitivity_loop_advances_s_alone(name):
    # jac reads no la0 and the fast part only +, -, * of names and floats:
    # the loop holds S alone, reads no Lambda and tests S alone for
    # finiteness; the exponent is the stage field's, bit for bit
    system = NAMED_SYSTEMS[name]()
    source, _ = loop_source(system, "sensitivity")
    assert "la0" not in source
    assert "    x0, = x\n" in source and "        if (x0 - x0) != 0.0:" in source
    assert re.findall(r"k1_\d+ = .*", source) == [
        f"k1_0 = b * (0.0 + ({dynamics._lift(system.text._replace(values=None), 'sensitivity').jac[0]}) * (x0))"
    ]
    assert outcome(RUNS["sensitivity"], system) == field_outcome(RUNS["sensitivity"], system)


@pytest.mark.parametrize("fast, jac, alone", [
    ("-la0 + 2.0 * xi0", "-1.0", True),
    ("-la0 + k * th0 * xi0", "-1.0 + xi0", True),
    ("-la0", "-1.0 + 0.5 * la0", False),  # S reads Lambda
    ("-la0 + xi0 / k", "-1.0", False),  # / may divide by zero
    ("-la0 + 2 * xi0", "-1.0", False),  # an int literal
    ("-la0 + a * xi0", "-1.0", False),  # a is no local of a frozen loop
    ("+la0", "-1.0", False),  # unary + is no lifted arithmetic
])
def test_s_alone_predicate(fast, jac, alone):
    text = dynamics.StageText(("0.0",), (fast,), (jac,), 1, "", None, ("k",), None)
    assert dynamics._s_alone(text) is alone


@pytest.mark.filterwarnings("ignore:overflow")
def test_lambda_overflow_in_an_s_alone_run():
    # Lambda overflows (growth e^{5t} from 1e300) but never feeds S, so the
    # S-alone run returns the exponent 5, where a run that advances Lambda,
    # the frozen-fast run of the same text, raises NonFinite
    text = dynamics.StageText(("0.0",), ("5.0 * la0",), ("5.0",), 1, "", None, (), ())
    system = TwoTimescaleSystem(1, 1, make_frequency_basis([(2, 1)]), text=text)
    run = lambda s: lyapunov_exponent(s, [0.0], 1.0, [1e300], 400.0, step=0.03)  # noqa: E731
    assert run(system).exponent == pytest.approx(5.0, abs=1e-4)
    with pytest.raises(NonFinite):
        integrate_frozen_fast(system, [0.0], [1e300], 1.0, 400.0, step=0.03)
    with pytest.raises(ConfigError, match="^lambda0 shape does not match the fast dimension$"):
        lyapunov_exponent(system, [0.0], 1.0, [1.0, 2.0], 400.0, step=0.03)


def test_seeker_measurement_is_the_field_measurement_across_a_block():
    # the frozen seeker samples its measurement y from a block column: at
    # every sample y is f(theta + eps xi) / eps at the sample's probe row,
    # as the stage field's measurement rounds it, with a block boundary
    # inside the run and at each stride
    config = EscConfig(
        objective=quadratic_objective(center=[0.6, -0.0], weights=[0.5, 3.0]),
        epsilon=0.1, dim=2, sigma=0.2, theta_ctr=[-0.3, 0.4], single_at=True,
    )
    system, th = build_esc_system(config), [0.4, -0.3]
    for stride in (1, 3):
        traj = integrate_frozen_fast(system, th, [0.2], 0.3, 40.0, sample_stride=stride)
        assert traj.t[-1] / (traj.t[1] - traj.t[0]) * stride > _CHUNK
        xis = probe_signal(system.probing, system.basis, traj.t).T
        want = [normalized_observation(config, th, xi) for xi in xis]
        assert traj.measured.tobytes() == np.array(want).tobytes()


#: carried texts at a pinned theta whose statements are lifted in part: a
#: carried local that reads no probe entry, a kept call reading a column,
#: and a kept call before the carried column
CARRIED = {
    "carried run value": ("y = th0 * 2.0", "-2.0 * th0 - la0 + s2 * xi1 * (la0 + 1.0) + y"),
    "call of a column": ("z = s2 * xi1; y = fn(z) + th0", "-la0 + y * (la0 + 1.0)"),
    "column after a call": ("w = fn(xi0); y = s2 * xi1", "-la0 + y * (la0 + 1.0)"),
}


@pytest.mark.parametrize("kind", ["frozen-fast", "sensitivity"])
@pytest.mark.parametrize("label", sorted(CARRIED))
def test_partly_lifted_carried_statement(label, kind):
    per_stage, fast = CARRIED[label]
    text = make_linear_system().text._replace(
        fast=(fast,), per_stage=per_stage, carry="y", names=make_linear_system().text.names + ("fn",),
        values=make_linear_system().text.values + (math.fabs,),
    )
    system = TwoTimescaleSystem(1, 1, make_linear_system().basis, text=text)
    assert outcome(RUNS[kind], system) == field_outcome(RUNS[kind], system)
    traj = integrate_frozen_fast(system, [0.3], [0.2], 0.3, 40.0)
    xis = probe_signal(system.probing, system.basis, traj.t)
    want = {
        "carried run value": np.full(traj.n_samples, 0.3 * 2.0),
        "call of a column": np.abs(1.0 * xis[1]) + 0.3,
        "column after a call": 1.0 * xis[1],
    }[label]
    assert traj.measured.tobytes() == want.tobytes()


#: a part of linear-3.1's text that reads z, a second local of the carried
#: statement, per part
SECOND_LOCAL = {"slow": ("alpha * th0 + z",), "fast": ("-la0 + z * xi1",), "jac": ("-1.0 + z",)}


@pytest.mark.parametrize("kind", ["frozen-fast", "sensitivity"])
@pytest.mark.parametrize("part", sorted(SECOND_LOCAL))
def test_carried_text_reading_a_second_local_is_rejected(part, kind):
    # the loop carries y alone from one block of steps to the next, so z
    # would be unbound at the next block's first stage
    base = make_linear_system().text
    text = base._replace(
        per_stage="y = fn(xi0); z = y * s2", carry="y", names=base.names + ("fn",),
        values=base.values + (math.fabs,), **{part: SECOND_LOCAL[part]},
    )
    system = TwoTimescaleSystem(1, 1, make_linear_system().basis, text=text)
    message = r"^stage text with carry y reads the per-stage local\(s\) z: "
    for _ in range(2):  # no loop is kept for a rejected text
        with pytest.raises(ConfigError, match=message):
            RUNS[kind](system)


@pytest.mark.parametrize("kind", ["frozen-fast", "sensitivity"])
@pytest.mark.parametrize("gain_kind", ["constant", "objective_scaled", "prior_scaled"])
def test_seeker_carried_texts_are_accepted(gain_kind, kind):
    kw = dict(sigma_p=0.5) if gain_kind == "prior_scaled" else {}
    system = seeker(quadratic_objective(center=1.0), dim=1, gain_kind=gain_kind, **kw)
    frozen = system.frozen([0.3])
    assert frozen.carry == "y" and frozen.fast == ("0.0 + f1 * la0 + g1 * y",)
    RUNS[kind](system)


#: a fast part whose ** leaves the reals once lambda turns negative
COMPLEX_FAST = "-la0 - 1.0 + 0.1 * la0 ** 0.5"


@pytest.mark.parametrize("path", ["text", "stage field"])
def test_non_real_stage_value_is_a_config_error(path):
    # on the text, and on a text that calls the compiled stage field, a
    # Python field (wrapped)
    text = make_linear_system().text._replace(fast=(COMPLEX_FAST,))
    system = TwoTimescaleSystem(1, 1, make_linear_system().basis, text=text)
    system = system if path == "text" else wrapped(system)
    message = r"^stage values are not real: the state is complex in the steps from t = 0 to t = 10$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's ComplexWarning among them
        with pytest.raises(ConfigError, match=message):
            integrate_frozen_fast(system, [0.3], [0.5], 0.5, 10.0)
        # across blocks: the first block with a complex sample is named
        h, n_steps = _resolve_step(system.basis, 0.5, 60.0, None)
        assert n_steps > _CHUNK
        with pytest.raises(ConfigError, match=rf"from t = 0 to t = {_CHUNK * h:.6g}$"):
            integrate_frozen_fast(system, [0.3], [0.5], 0.5, 60.0)
