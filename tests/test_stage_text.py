"""The expression-text path of the RK4 kernel against the stage-field call.

linear-3.1 and decoupled-test state their field once, as a StageText;
their callable stage and dh_dlambda are compiled from it, and their runs
write the text into the generated loop.  Rebuilt with that compiled stage
and dh_dlambda but no text, the same system takes the call path.  Both
must give the same trajectories, exponents and NonFinite times bit for
bit, for all four run kinds, across a block boundary and at parameters
that a literal would not survive (-0.0, a subnormal).  The text is bound
to its values at run time, so one loop serves every parameter value.

The call path's generated sources are pinned as well: a system without
text must get the same loop source as before the text path existed.
"""

import hashlib

import numpy as np
import pytest

from qsakit import dynamics
from qsakit.dynamics import (
    _CHUNK,
    GainSchedule,
    TwoTimescaleSystem,
    _resolve_step,
    integrate,
    integrate_frozen_fast,
)
from qsakit.errors import Inconclusive, NonFinite
from qsakit.filters import SecondOrderFilter
from qsakit.lyapunov import lyapunov_exponent
from qsakit.systems import make_decoupled_system, make_linear_system

SUBNORMAL = 5e-324

#: built-in systems with text, by label
SYSTEMS = {
    "linear default": make_linear_system,
    "linear negative": lambda: make_linear_system(alpha=0.75, s=(-0.7, -1.3), b=(-0.4, -0.25)),
    "linear signed zero, subnormal": lambda: make_linear_system(
        alpha=1.5, s=(-0.0, SUBNORMAL), b=(-0.0, -0.0)
    ),
    "linear non-unit b": lambda: make_linear_system(alpha=3.0, s=(2.0, 0.5), b=(1.5, -2.5)),
    "decoupled": make_decoupled_system,
}

#: blows up within about 50 steps: beta*s2*h is far past RK4's stability edge
BLOW_UP = lambda: make_linear_system(s=(1.0, 1e4))  # noqa: E731

SCHED = GainSchedule(rho=0.7, beta=0.3)

#: each run kind; horizon 40 at beta 0.3 is 1,758 steps, more than one block
RUNS = {
    "coupled": lambda s: integrate(s, SCHED, ([0.8], [-0.3]), 40.0),
    "filtered": lambda s: integrate(
        s, SCHED, ([0.8], [-0.3]), 40.0, filt=SecondOrderFilter(0.3, zeta=0.6, eta=1.3)
    ),
    "frozen-fast": lambda s: integrate_frozen_fast(s, [0.3], [0.2], 0.3, 40.0, sample_stride=3),
    "sensitivity": lambda s: lyapunov_exponent(s, [0.3], 0.3, [0.2], 40.0),
}


def call_path(system):
    """The system with its compiled stage and dh_dlambda and no text."""
    assert system.text is not None
    return TwoTimescaleSystem(
        system.dim_slow, system.dim_fast, system.g, system.h, system.basis, system.probing,
        stage=system.stage, dh_dlambda=system.dh_dlambda,
    )


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


@pytest.mark.parametrize("kind", sorted(RUNS))
@pytest.mark.parametrize("label", sorted(SYSTEMS))
def test_text_run_is_the_call_run(label, kind):
    system = SYSTEMS[label]()
    assert _resolve_step(system.basis, 0.3, 40.0, None)[1] > _CHUNK
    got = outcome(RUNS[kind], system)
    assert got == outcome(RUNS[kind], call_path(system))


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("kind", sorted(RUNS))
def test_blow_up_time(kind):
    system = BLOW_UP()
    got = outcome(RUNS[kind], system)
    assert got[0] == "NonFinite"
    assert got == outcome(RUNS[kind], call_path(system))
    assert 0.0 < float.fromhex(got[2]) < 2.0


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_text_run_calls_no_field(kind):
    system = make_linear_system()
    calls = []
    field, jac = system.stage, system.dh_dlambda
    system.stage = lambda *args: calls.append("stage") or field(*args)
    system.dh_dlambda = lambda *args: calls.append("dh_dlambda") or jac(*args)
    RUNS[kind](system)
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
    assert system.dh_dlambda([th], [la], xi) == [-1.0 + 0.5 * xi[1]]


#: sha256 of the concatenated _step_loop_source((ds, df, kind)) for ds 1-4,
#: df 1-3 and the kinds below, in that nesting, as generated before the
#: text path was added
CALL_PATH_SOURCES = "8d96e3cb0c531c03b2b74ca211003893554c2472152b4994218fbfc358c1efb6"


def test_call_path_sources_unchanged():
    kinds = ("coupled", "filtered", "frozen-fast", "sensitivity")
    source = "".join(
        dynamics._step_loop_source((ds, df, kind))
        for ds in range(1, 5) for df in range(1, 4) for kind in kinds
    )
    assert hashlib.sha256(source.encode()).hexdigest() == CALL_PATH_SOURCES
