"""The grid store: what the points of one grid call share.

stationary_grid, find_root_g0 and exponent_grid open a store for the
length of the call (dynamics._grid_store): the RK4 kernel takes each
block's probe table from it, meanflow its table at the kept sample times,
and lyapunov_exponent makes a run that reads neither theta nor Lambda
once.  Oracles: the per-point calls made outside any store, in float.hex;
counts of probe_signal and _rk4 calls; and the error that the per-point
loop raises.
"""

import math

import numpy as np
import pytest

from qsakit import dynamics, lyapunov, meanflow
from qsakit.dynamics import StageText, TwoTimescaleSystem, _resolve_step, integrate_frozen_fast
from qsakit.errors import ConfigError, Inconclusive, NonConvergent, NonFinite
from qsakit.esc import EscConfig, Objective, build_esc_system
from qsakit.lyapunov import exponent_grid, lyapunov_exponent
from qsakit.meanflow import fast_equilibrium, find_root_g0, mean_field_g0, stationary_grid
from qsakit.probing import ProbingMap, make_frequency_basis
from qsakit.systems import make_decoupled_system, make_linear_system

AVERAGING = {"burn_in": 20.0, "window": 60.0}


def cubic_seeker():
    """An order-1 seeker on a user objective: its frozen loops call it."""
    objective = Objective(lambda th: 0.5 * (th[0] - 1.0) ** 2 + (th[0] - 1.0) ** 3)
    return build_esc_system(EscConfig(objective=objective, epsilon=0.1, dim=1, single_at=True))


def text_system(fast, jac="-1.0", names=(), values=(), basis=None):
    """A 1+1 text system on one tone (or basis), whose probe row is its clock's cosines."""
    basis = basis or make_frequency_basis([(2, 1)])
    text = StageText(("0.0",), (fast,), (jac,), basis.size, "", None, names, values)
    return TwoTimescaleSystem(1, 1, basis, text=text)


def theta_reading_system():
    """S alone, with a Jacobian that reads theta: one run per point."""
    return text_system("-la0", "-1.0 + th0 * xi1", basis=make_frequency_basis([(2, 1), (3, 1)]))


def array_constant_system():
    """Theta-free, but its text's array constant does not hash: no run is shared."""
    return text_system("-la0", "-1.0 + w[0] * xi0", ("w",), (np.array([0.5]),))


SYSTEMS = {
    "linear-3.1": make_linear_system,
    "decoupled-test": make_decoupled_system,
    "seeker": cubic_seeker,
    "theta-reading": theta_reading_system,
    "array-constant": array_constant_system,
}

GRIDS = {
    "linear-3.1": [-0.5, 0.1, 0.7],
    "decoupled-test": [-0.5, 0.1, 0.7],
    "seeker": [0.8, 1.1, 1.3],
    "theta-reading": [-0.5, 0.1, 0.7],
    "array-constant": [-0.5, 0.1, 0.7],
}


def hexes(estimates):
    """Every float of a list of estimates as float.hex."""
    def exact(v):
        return [float(x).hex() for x in np.ravel(v)]

    return [{k: exact(v) for k, v in vars(e).items()} for e in estimates]


@pytest.fixture
def counted(monkeypatch):
    """calls[name] counts the calls of module.name, wrapped in place."""
    calls = {}

    def count(module, name):
        original = getattr(module, name)
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    return calls, count


def blocks(system, beta, horizon):
    return math.ceil(_resolve_step(system.basis, beta, horizon, None)[1] / dynamics._CHUNK)


@pytest.mark.parametrize("kind", ["lambda", "g0"])
@pytest.mark.parametrize("name", ["linear-3.1", "seeker"])
def test_stationary_grid_equals_per_point_calls(name, kind):
    system, thetas, beta = SYSTEMS[name](), GRIDS[name], 0.5
    op = {"lambda": fast_equilibrium, "g0": mean_field_g0}[kind]
    want = [op(system, [th], beta, 1.0, **AVERAGING) for th in thetas]
    assert dynamics._STORE.get() is None
    got = stationary_grid(system, [[th] for th in thetas], beta, 1.0, kind=kind, **AVERAGING)
    assert hexes(got) == hexes(want)
    assert dynamics._STORE.get() is None


def test_find_root_g0_equals_a_run_without_store():
    args = (cubic_seeker(), [1.2], 1.0, 1e-3)
    got = find_root_g0(*args, avg_tol=0.05, burn_in=5.0, window=60.0)
    want = meanflow._newton_root.__wrapped__(*args, 0.05, 5.0, 60.0, 0)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
    assert dynamics._STORE.get() is None


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_exponent_grid_equals_per_point_calls(name):
    system, thetas = SYSTEMS[name](), GRIDS[name]
    args = (1.0, [0.2], 40.0)
    want = [lyapunov_exponent(system, [th], *args) for th in thetas]
    got = exponent_grid(system, [[th] for th in thetas], *args)
    assert hexes(got) == hexes(want)
    assert dynamics._STORE.get() is None
    # the seeker's Jacobian is its constant washout pole at every theta
    assert len({e.exponent for e in got}) == (len(thetas) if name == "theta-reading" else 1)


@pytest.mark.parametrize("jac, names, values, free", [
    ("-1.0 + s2 * xi1", ("s2",), (1.0,), True),  # linear-3.1's: a column of constants
    ("-1.0", (), (), True),
    ("-1.0 + th0 * xi1", (), (), False),  # theta in a lifted column
    ("-1.0 + 2.0 * th0", (), (), False),  # theta in a lifted run value
    ("-1.0 + fn(th0) * xi1", ("fn",), (math.tanh,), False),  # theta read in the loop
    ("-1.0 + fn(xi1)", ("fn",), (math.tanh,), True),
    ("-1.0 + la0", (), (), False),  # not S alone
])
def test_theta_free_predicate(jac, names, values, free):
    system = text_system("-la0", jac, names, values, basis=make_frequency_basis([(2, 1), (3, 1)]))
    assert dynamics._theta_free(system.text._replace(values=None)) is free


@pytest.mark.parametrize("name, runs", [
    ("linear-3.1", 1), ("decoupled-test", 1), ("seeker", 3), ("theta-reading", 3),
    ("array-constant", 3),
])
def test_theta_free_grid_makes_one_run(name, runs, counted):
    calls, count = counted
    count(lyapunov, "_rk4")
    count(lyapunov, "lyapunov_exponent")
    exponent_grid(SYSTEMS[name](), [[th] for th in GRIDS[name]], 1.0, [0.2], 40.0)
    assert calls == {"_rk4": runs, "lyapunov_exponent": len(GRIDS[name])}


@pytest.mark.parametrize("kind, tables", [("lambda", 0), ("g0", 1)])
def test_grid_builds_each_probe_table_once(kind, tables, counted):
    system, beta = make_linear_system(), 0.5
    calls, count = counted
    count(dynamics, "probe_signal")
    horizon = AVERAGING["burn_in"] + 2.0 * AVERAGING["window"]
    stationary_grid(system, [[-0.5], [0.1], [0.7]], beta, 1.0, kind=kind, **AVERAGING)
    assert calls["probe_signal"] == blocks(system, beta, horizon) + tables
    calls["probe_signal"] = 0
    # per-point calls outside a store build every table at every point
    for th in ([-0.5], [0.1]):
        fast_equilibrium(system, th, beta, 1.0, **AVERAGING)
    assert calls["probe_signal"] == 2 * blocks(system, beta, horizon)


def test_newton_root_builds_each_probe_table_once(counted):
    system = cubic_seeker()
    calls, count = counted
    count(dynamics, "probe_signal")
    count(meanflow, "mean_field_g0")
    find_root_g0(system, [1.2], 1.0, 1e-3, avg_tol=0.05, burn_in=5.0, window=60.0)
    assert calls["mean_field_g0"] > 3
    assert calls["probe_signal"] == blocks(system, 1.0, 125.0) + 1


def test_grid_calls_each_point_once_in_grid_order(monkeypatch):
    seen = []
    for module, name in ((meanflow, "fast_equilibrium"), (lyapunov, "lyapunov_exponent")):
        original = getattr(module, name)

        def wrapper(system, theta, *args, _original=original, _name=name, **kwargs):
            seen.append((_name, float(np.ravel(theta)[0])))
            return _original(system, theta, *args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    system, thetas = make_linear_system(), [0.7, -0.5, 0.1]
    stationary_grid(system, [[th] for th in thetas], 0.5, 1.0, **AVERAGING)
    exponent_grid(system, [[th] for th in thetas], 1.0, [0.2], 40.0)
    assert seen == [("fast_equilibrium", th) for th in thetas] + [
        ("lyapunov_exponent", th) for th in thetas]


def test_store_keys_each_table_by_step_and_probe():
    """Runs at two steps and on two probing maps inside one store get the
    tables of their own step and map."""
    system = make_linear_system()
    scaled = TwoTimescaleSystem(
        1, 1, system.basis, ProbingMap(2, lambda z: 0.5 * system.probing(z)), text=system.text)
    runs = [(system, 0.01), (system, 0.02), (scaled, 0.02)]

    def lams():
        return [integrate_frozen_fast(s, [0.3], [0.1], 0.5, 30.0, step=h).lam.tobytes()
                for s, h in runs]

    want = lams()
    with dynamics._grid_store():
        assert lams() == want
    assert len(set(want)) == 3


def fails_second(grid, point, error, thetas, *args, **kwargs):
    """The error and message of grid(thetas) and of point at each theta in turn."""
    with pytest.raises(error) as from_grid:
        grid(thetas, *args, **kwargs)
    assert dynamics._STORE.get() is None
    with pytest.raises(error) as from_points:
        for th in thetas:
            point(th, *args, **kwargs)
    return from_grid.value, from_points.value


FAILURES = {
    "NonConvergent": (
        "lambda", lambda: text_system("-la0 + th0 * xi0"), [[0.0], [1.0]],
        (0.5, 1e-9), {**AVERAGING, "lambda0": [0.0]}, NonConvergent),
    "NonFinite": (
        "lambda", lambda: text_system("th0 * la0"), [[0.0], [50.0]],
        (1.0, 1e-3), {**AVERAGING, "lambda0": [1.0]}, NonFinite),
    "ConfigError": (
        "lambda", make_linear_system, [[0.1], [0.1, 0.2]], (0.5, 1.0), AVERAGING, ConfigError),
    "exponent-Inconclusive": (
        "exponent", lambda: text_system("-la0", "-1.0 + th0 * xi0"), [[0.0], [3.0]],
        (1.0, [0.0], 4.0), {}, Inconclusive),
    "exponent-NonFinite": (
        "exponent", lambda: text_system("-la0", "th0"), [[0.0], [1e5]],
        (1.0, [0.0], 10.0), {}, NonFinite),
    "exponent-ConfigError": (
        "exponent", make_linear_system, [[0.1], [0.1, 0.2]], (1.0, [0.0], 40.0), {}, ConfigError),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_second_point_failure_matches_the_per_point_loop(case, counted):
    kind, make, thetas, args, kwargs, error = FAILURES[case]
    system = make()
    if kind == "lambda":
        def grid(ths, *a, **k):
            return stationary_grid(system, ths, *a, **k)

        def point(th, *a, **k):
            return fast_equilibrium(system, th, *a, **k)
    else:
        def grid(ths, *a, **k):
            return exponent_grid(system, ths, *a, **k)

        def point(th, *a, **k):
            return lyapunov_exponent(system, th, *a, **k)

    calls, count = counted
    count(dynamics, "probe_signal")
    got, want = fails_second(grid, point, error, thetas, *args, **kwargs)
    assert (type(got), str(got)) == (type(want), str(want))
    assert getattr(got, "estimates", None) == getattr(want, "estimates", None)
    assert calls["probe_signal"] > 0  # the first point ran
    # the store went with the failing grid: the next grid builds every
    # table anew, as many as a run outside a store
    built = []
    for run in (lambda: grid(thetas[:1], *args, **kwargs), lambda: point(thetas[0], *args, **kwargs)):
        calls["probe_signal"] = 0
        run()
        built.append(calls["probe_signal"])
    assert built[0] == built[1] > 0
