"""Run configuration: one JSON document in, validated objects out.

A config has five sections (gains, system, filter, esc, experiment),
each optional.  resolve() merges user values over the defaults and
materializes every computed default, so the echoed config.resolved.json
states exactly what ran with nothing implicit.
Builders reconstruct library objects from the resolved data; every
rejection is a ConfigError naming the violated constraint.
"""

import copy
import json
import numbers

import numpy as np

from .dynamics import GainSchedule
from .errors import ConfigError
from .esc import EscConfig, ProcessObjective, named_objective
from .filters import SecondOrderFilter, washout_filter
from .systems import SYSTEMS, named_system

DEFAULTS = {
    "gains": {"rho": 0.7, "beta": 0.1},
    "system": {"name": "linear-3.1", "params": {}},
    "filter": {"enabled": False, "zeta": 0.7, "eta": 1.0},
    "esc": {
        "objective": "quadratic",
        "objective_params": {"center": 1.0},
        "command": None,
        "epsilon": 0.1,
        "dim": 1,
        "gain_kind": "constant",
        "theta_ctr": None,  # resolved to zeros(dim)
        "sigma": 0.0,
        "sigma_p": 1.0,
        "single_at": True,
        "omega_h": 1.0,
        "tolerance": 0.1,
    },
    "experiment": {
        "horizon": 100.0,
        "theta0": None,  # resolved to zeros once the system fixes the dimension
        "lambda0": None,
        "sample_stride": 1,
        "beta_list": [0.02, 0.04, 0.08, 0.16],
        "horizon_scale": 200.0,
        "horizon_cap": 1e4,
        "tol": 1e-3,
        "burn_in": None,  # null defers to the averaging-window heuristics
        "window": None,
        "theta_grid": [-1.0, -0.5, 0.0, 0.5, 1.0],
        "grid_kind": "lambda",
        "derivative": "analytic",
        "fd_step": 1e-3,
        "pmf_horizon": None,  # null defers to the suite's per-mode default
    },
}

#: real-valued keys that the run compares to a bound; resolve() rejects a
#: value of another type before any comparison could raise TypeError
BOUNDED_NUMBERS = {
    "gains": ("rho", "beta"),
    "filter": ("zeta", "eta"),
    "esc": ("epsilon", "sigma", "sigma_p", "omega_h", "tolerance"),
    "experiment": ("horizon", "horizon_scale", "horizon_cap", "tol"),
}

#: keys holding one point, null where the default is computed; resolve()
#: rejects a non-numeric entry before numpy could fail on it mid-run
POINTS = (
    ("experiment", "theta0"),
    ("experiment", "lambda0"),
    ("esc", "theta_ctr"),
)

#: experiment keys where null defers to a heuristic and a number must be
#: a positive time
OPTIONAL_POSITIVE = ("pmf_horizon", "burn_in", "window")


def load_config(path):
    """Parse the JSON document at path; None means an empty document."""
    if path is None:
        return {}
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(
            f"config {path} must be a JSON object, got {type(raw).__name__}"
        )
    return raw


def resolve(raw):
    """Merge raw over the defaults, validate, and fill computed defaults.

    Heavy objects are constructed transiently here purely to run their
    own validation; callers rebuild them from the returned data.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    resolved = copy.deepcopy(DEFAULTS)
    for section, values in raw.items():
        if section not in DEFAULTS:
            raise ConfigError(
                f"unknown config section {section!r}; "
                f"expected one of {sorted(DEFAULTS)}"
            )
        if not isinstance(values, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        for key, value in values.items():
            if key not in DEFAULTS[section]:
                raise ConfigError(
                    f"unknown key {key!r} in section {section!r}; "
                    f"valid keys: {sorted(DEFAULTS[section])}"
                )
            resolved[section][key] = copy.deepcopy(value)

    for section, keys in BOUNDED_NUMBERS.items():
        for key in keys:
            value = resolved[section][key]
            if not _is_real(value):
                raise ConfigError(f"{section}.{key} must be a number, got {value!r}")
    for section, key in POINTS:
        value = resolved[section][key]
        if value is not None and not _is_point(value):
            raise ConfigError(
                f"{section}.{key} must be a number or a list of numbers, got {value!r}"
            )
    for key in OPTIONAL_POSITIVE:
        value = resolved["experiment"][key]
        if value is not None and not (_is_real(value) and value > 0):
            raise ConfigError(
                f"experiment.{key} must be null or a positive number, got {value!r}"
            )
    dim = resolved["esc"]["dim"]
    if not _is_count(dim):
        raise ConfigError(f"esc.dim must be a positive integer, got {dim!r}")
    build_schedule(resolved)

    filt = resolved["filter"]
    if not isinstance(filt["enabled"], bool):
        raise ConfigError(
            f"filter.enabled must be true or false, got {filt['enabled']!r}"
        )
    # Construct once so zeta in (0, 1) and eta > 0 are enforced up front.
    SecondOrderFilter(resolved["gains"]["beta"], zeta=filt["zeta"], eta=filt["eta"])

    name = resolved["system"]["name"]
    if name not in SYSTEMS:
        raise ConfigError(
            f"unknown system {name!r}; built-ins: {sorted(SYSTEMS)}"
        )
    if not isinstance(resolved["system"]["params"], dict):
        raise ConfigError("system.params must be an object of keyword parameters")

    exp = resolved["experiment"]
    for key in ("horizon", "horizon_scale", "horizon_cap", "tol"):
        if not exp[key] > 0:
            raise ConfigError(f"experiment.{key} must be positive, got {exp[key]}")
    stride = exp["sample_stride"]
    if not _is_count(stride):
        raise ConfigError(
            f"experiment.sample_stride must be a positive integer, got {stride!r}"
        )
    betas = exp["beta_list"]
    if not (
        isinstance(betas, list)
        and betas
        and all(_is_real(b) and b > 0 for b in betas)
    ):
        raise ConfigError(
            f"experiment.beta_list must be a non-empty list of positive gains, "
            f"got {betas!r}"
        )
    if exp["derivative"] not in ("analytic", "fd"):
        raise ConfigError(
            f"experiment.derivative must be 'analytic' or 'fd', "
            f"got {exp['derivative']!r}"
        )
    if exp["grid_kind"] not in ("lambda", "g0"):
        raise ConfigError(
            f"experiment.grid_kind must be 'lambda' or 'g0', got {exp['grid_kind']!r}"
        )
    grid = exp["theta_grid"]
    if not (isinstance(grid, list) and grid and all(map(_is_point, grid))):
        raise ConfigError(
            "experiment.theta_grid must be a non-empty list of numbers or lists "
            f"of numbers, got {grid!r}"
        )
    return resolved


def _is_real(value):
    """A JSON number: int or float, but not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_count(value):
    """A positive JSON integer, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _is_point(value):
    """A number, or a list of numbers: one point of the state space."""
    return _is_real(value) or (isinstance(value, list) and all(map(_is_real, value)))


def build_schedule(resolved):
    gains = resolved["gains"]
    return GainSchedule(rho=gains["rho"], beta=gains["beta"])


def build_system(resolved):
    section = resolved["system"]
    return named_system(section["name"], **section["params"])


def build_filter(resolved):
    """SecondOrderFilter per the filter section, or None when disabled."""
    filt = resolved["filter"]
    if not filt["enabled"]:
        return None
    beta = resolved["gains"]["beta"]
    return SecondOrderFilter(beta, zeta=filt["zeta"], eta=filt["eta"])


def filter_factory(resolved):
    """Per-beta filter constructor for sweeps (natural frequency eta*beta)."""
    filt = resolved["filter"]
    return lambda beta: SecondOrderFilter(beta, zeta=filt["zeta"], eta=filt["eta"])


def build_esc_config(resolved):
    section = resolved["esc"]
    if section["command"] is not None:
        objective = ProcessObjective(section["command"])
    else:
        params = section["objective_params"]
        if not isinstance(params, dict):
            raise ConfigError("esc.objective_params must be an object")
        try:
            objective = named_objective(section["objective"], **params)
        except TypeError as exc:
            raise ConfigError(
                f"bad parameters for objective {section['objective']!r}: {exc}"
            ) from exc
    return EscConfig(
        objective=objective,
        epsilon=section["epsilon"],
        dim=section["dim"],
        gain_kind=section["gain_kind"],
        theta_ctr=section["theta_ctr"],
        sigma=section["sigma"],
        sigma_p=section["sigma_p"],
        washout=washout_filter(section["omega_h"]),
        single_at=section["single_at"],
        name="esc",
    )


def esc_optimum(resolved):
    """Known optimizer for band checks: quadratic objectives only."""
    section = resolved["esc"]
    if section["command"] is not None or section["objective"] != "quadratic":
        return None
    center = section["objective_params"].get("center", 0.0)
    return np.broadcast_to(
        np.atleast_1d(np.asarray(center, dtype=float)), (section["dim"],)
    ).copy()


def materialize_x0(resolved, system):
    """Fill theta0/lambda0 with zeros of the system's dimensions.

    User-supplied values are shape-checked here, once the system makes
    the required dimensions known.
    """
    exp = resolved["experiment"]
    for key, dim, label in (
        ("theta0", system.dim_slow, "slow"),
        ("lambda0", system.dim_fast, "fast"),
    ):
        if exp[key] is None:
            exp[key] = [0.0] * dim
        value = np.atleast_1d(np.asarray(exp[key], dtype=float))
        if value.shape != (dim,):
            raise ConfigError(
                f"experiment.{key} has {value.shape[0]} entries but system "
                f"{system.name or 'anonymous'!r} has {dim} {label} coordinate(s)"
            )
    return (
        np.asarray(resolved["experiment"]["theta0"], dtype=float),
        np.asarray(resolved["experiment"]["lambda0"], dtype=float),
    )


def theta_grid_points(resolved, dim_slow):
    """Grid entries as (dim_slow,) vectors; scalars allowed when dim is 1."""
    points = []
    for i, entry in enumerate(resolved["experiment"]["theta_grid"]):
        vec = np.atleast_1d(np.asarray(entry, dtype=float))
        if vec.shape != (dim_slow,):
            raise ConfigError(
                f"experiment.theta_grid[{i}] has {vec.shape[0]} entries but the "
                f"system has {dim_slow} slow coordinate(s)"
            )
        points.append(vec)
    return points


def dump_resolved(resolved, path):
    """Write the resolved config; byte-stable for identical inputs."""
    with open(path, "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")
