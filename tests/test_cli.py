"""Command-line and configuration checks.

Oracles: validation messages name the violated constraint; the linear
benchmark's closed forms (lambda*(theta) = -2 theta, frozen-fast decay
rate -beta, trailing ripple beta / (2 pi ln 3)) anchor the subcommand
outputs; exit codes follow the documented 0/2/3/4 contract; reruns of
a sweep are byte-identical, with or without --jobs 1.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsakit
from qsakit.cli import (
    EXIT_BAND,
    EXIT_CONFIG,
    EXIT_NONFINITE,
    EXIT_OK,
    HANDLERS,
    assert_seedless,
    main,
    run,
)
from qsakit.config import DEFAULTS, dump_resolved, resolve
from qsakit.errors import ConfigError
from qsakit.meanflow import stationary_grid, write_grid_csv


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# configuration resolution


def test_resolve_fills_all_defaults():
    resolved = resolve({})
    assert resolved["gains"] == {"rho": 0.7, "beta": 0.1}
    assert resolved["system"]["name"] == "linear-3.1"
    assert resolved["filter"]["enabled"] is False
    # Mutating a resolved config must not leak into the defaults.
    resolved["gains"]["rho"] = 0.9
    assert DEFAULTS["gains"]["rho"] == 0.7


def test_resolve_rejects_unknown_names():
    with pytest.raises(ConfigError) as err:
        resolve({"nope": {}})
    assert "unknown config section" in str(err.value)
    with pytest.raises(ConfigError) as err:
        resolve({"gains": {"speed": 2.0}})
    assert "unknown key" in str(err.value)
    with pytest.raises(ConfigError) as err:
        resolve({"system": {"name": "cubic-9.9"}})
    assert "unknown system" in str(err.value)


def test_resolve_names_violated_constraints():
    with pytest.raises(ConfigError, match=r"rho must lie in \(1/2, 1\)"):
        resolve({"gains": {"rho": 0.4}})
    with pytest.raises(ConfigError, match=r"damping ratio must lie in \(0, 1\)"):
        resolve({"filter": {"zeta": 1.5}})
    with pytest.raises(ConfigError, match="beta_list"):
        resolve({"experiment": {"beta_list": []}})
    with pytest.raises(ConfigError, match="sample_stride"):
        resolve({"experiment": {"sample_stride": 0}})
    with pytest.raises(ConfigError, match="derivative"):
        resolve({"experiment": {"derivative": "spectral"}})
    with pytest.raises(ConfigError, match="grid_kind"):
        resolve({"experiment": {"grid_kind": "gradient"}})
    with pytest.raises(ConfigError, match="unknown config section"):
        resolve({"probing": {"pairs": [[2, 1], [4, 2]]}})
    # Values of the wrong type are named, never a TypeError from a comparison.
    for raw, name in [
        ({"gains": {"rho": "0.7"}}, "gains.rho"),
        ({"gains": {"beta": None}}, "gains.beta"),
        ({"gains": {"beta": True}}, "gains.beta"),
        ({"filter": {"zeta": "0.5"}}, "filter.zeta"),
        ({"esc": {"epsilon": "0.1"}}, "esc.epsilon"),
        ({"experiment": {"horizon": "5"}}, "experiment.horizon"),
        ({"experiment": {"tol": None}}, "experiment.tol"),
        ({"experiment": {"beta_list": ["0.1"]}}, "experiment.beta_list"),
        ({"experiment": {"beta_list": 0.1}}, "experiment.beta_list"),
        ({"experiment": {"sample_stride": True}}, "experiment.sample_stride"),
        ({"experiment": {"theta0": ["abc"]}}, "experiment.theta0"),
        ({"experiment": {"theta0": "0.5"}}, "experiment.theta0"),
        ({"experiment": {"lambda0": [0.1, False]}}, "experiment.lambda0"),
        ({"experiment": {"lambda0": [[0.1]]}}, "experiment.lambda0"),
        ({"experiment": {"theta_grid": ["a"]}}, "experiment.theta_grid"),
        ({"experiment": {"theta_grid": [[0.1, None]]}}, "experiment.theta_grid"),
        ({"experiment": {"theta_grid": 0.5}}, "experiment.theta_grid"),
        ({"experiment": {"theta_grid": []}}, "experiment.theta_grid"),
        ({"esc": {"theta_ctr": [True]}}, "esc.theta_ctr"),
        ({"esc": {"dim": True}}, "esc.dim"),
        ({"esc": {"dim": 1.0}}, "esc.dim"),
        ({"esc": {"dim": 0}}, "esc.dim"),
        ({"esc": {"dim": None}}, "esc.dim"),
        ({"experiment": {"pmf_horizon": "5"}}, "experiment.pmf_horizon"),
        ({"experiment": {"pmf_horizon": 0.0}}, "experiment.pmf_horizon"),
        ({"experiment": {"burn_in": -1.0}}, "experiment.burn_in"),
        ({"experiment": {"burn_in": True}}, "experiment.burn_in"),
        ({"experiment": {"window": [400.0]}}, "experiment.window"),
    ]:
        with pytest.raises(ConfigError, match=name):
            resolve(raw)


positive = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)

valid_configs = st.fixed_dictionaries(
    {},
    optional={
        "gains": st.fixed_dictionaries(
            {},
            optional={
                "rho": st.floats(0.51, 0.99),
                "beta": positive,
            },
        ),
        "filter": st.fixed_dictionaries(
            {},
            optional={
                "enabled": st.booleans(),
                "zeta": st.floats(0.01, 0.99),
                "eta": positive,
            },
        ),
        "experiment": st.fixed_dictionaries(
            {},
            optional={
                "horizon": positive,
                "sample_stride": st.integers(1, 50),
                "beta_list": st.lists(positive, min_size=1, max_size=4),
                "horizon_scale": positive,
                "horizon_cap": positive,
                "tol": positive,
                "theta_grid": st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
                "grid_kind": st.sampled_from(["lambda", "g0"]),
                "derivative": st.sampled_from(["analytic", "fd"]),
                "fd_step": st.floats(1e-4, 1e-3),
                "pmf_horizon": st.none() | positive,
            },
        ),
    },
)


@settings(max_examples=60, deadline=None)
@given(valid_configs)
def test_resolved_config_round_trips(raw):
    # What config.resolved.json holds must resolve back to the same config.
    resolved = resolve(raw)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.resolved.json"
        dump_resolved(resolved, path)
        text = path.read_text()
    assert resolve(json.loads(text)) == resolved


# ---------------------------------------------------------------------------
# exit-code contract


def test_simulate_default_config(tmp_path):
    out = tmp_path / "sim"
    assert run(None, "simulate", out_dir=out) == EXIT_OK
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header.startswith("t,a_t,beta,theta_1,lambda_1")
    resolved = json.loads((out / "config.resolved.json").read_text())
    # The echo shows the materialized initial condition, not null.
    assert resolved["experiment"]["theta0"] == [0.0]
    assert resolved["experiment"]["lambda0"] == [0.0]
    assert resolved["gains"]["rho"] == 0.7


def test_validation_failure_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"gains": {"rho": 0.4}})
    assert run(cfg, "simulate", out_dir=tmp_path / "o") == EXIT_CONFIG
    assert "rho must lie in (1/2, 1)" in capsys.readouterr().err
    assert run(cfg, "nonsense", out_dir=tmp_path / "o") == EXIT_CONFIG
    capsys.readouterr()
    cfg = write_config(tmp_path, {"gains": {"beta": "0.1"}})
    assert run(cfg, "simulate", out_dir=tmp_path / "o") == EXIT_CONFIG
    assert "gains.beta must be a number, got '0.1'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_boolean_esc_dim_exits_2_before_output(tmp_path, capsys):
    # resolve used to pass a boolean dim, which then failed inside the
    # seeker with a TypeError and exit 1 after the output directory existed
    cfg = write_config(tmp_path, {"esc": {"dim": True}})
    assert run(cfg, "esc", out_dir=tmp_path / "o") == EXIT_CONFIG
    assert "esc.dim must be a positive integer, got True" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_x0_shape_mismatch_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": {"theta0": [1.0, 2.0]}})
    assert run(cfg, "simulate", out_dir=tmp_path / "o") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "theta0 has 2 entries" in err
    assert "1 slow coordinate" in err


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_finite_escape_exits_3(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "gains": {"beta": 1.0},
            "esc": {
                "objective": "quartic",
                "objective_params": {"scale": 1.0},
                "dim": 2,
            },
            "experiment": {"horizon": 200.0, "theta0": [8.0, 8.0]},
        },
    )
    assert run(cfg, "esc", out_dir=tmp_path / "o") == EXIT_NONFINITE
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_constant_gain_seeker_escape_names_the_start(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"experiment": {"horizon": 2.0, "theta0": [-0.5]}}
    )
    assert run(cfg, "esc", out_dir=tmp_path / "o") == EXIT_NONFINITE
    err = capsys.readouterr().err
    assert "non-finite at t = 0.321429" in err
    assert "theta0 = [-0.5], lambda0 = [0.0]" in err
    assert "gain_kind 'constant'" in err
    assert "'objective_scaled' or 'prior_scaled'" in err


@pytest.mark.parametrize("subcommand", sorted(HANDLERS))
def test_jobs_rejected_where_unread(tmp_path, capsys, subcommand):
    for jobs in ("0", "2"):
        out = tmp_path / f"o{jobs}"
        assert main([subcommand, "--out", str(out), "--jobs", jobs]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: --jobs must be 1: every run is single-threaded\n"
        )
        assert not out.exists()


def test_jobs_one_accepted_where_unread(tmp_path):
    cfg = write_config(tmp_path, {"experiment": {"horizon": 2.0}})
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--jobs", "1"]) == EXIT_OK
    assert (out / "trajectory.csv").exists()


def test_seedless_assertion():
    assert_seedless()  # the package links no RNG source


def test_package_starts_no_threads():
    # every run is single-threaded by construction
    package_dir = Path(qsakit.__file__).resolve().parent
    markers = ("concurrent.futures", "ThreadPoolExecutor", "import threading")
    hits = [
        f"{source.name}: {marker}"
        for source in sorted(package_dir.glob("*.py"))
        for marker in markers
        if marker in source.read_text()
    ]
    assert hits == []


# ---------------------------------------------------------------------------
# subcommands against closed-form anchors


def test_sweep_fast_band_and_jobs_determinism(tmp_path):
    cfg = write_config(
        tmp_path,
        {"experiment": {"beta_list": [0.08, 0.16, 0.32], "horizon_cap": 2500.0}},
    )
    out1, out2 = tmp_path / "plain", tmp_path / "j1"
    assert main(["sweep-fast", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["sweep-fast", "--config", cfg, "--out", str(out2), "--jobs", "1"]) == EXIT_OK
    for name in ("sweep.csv", "fit.json", "run-beta-0.16.csv", "config.resolved.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    record = json.loads((out1 / "fit.json").read_text())
    assert record["outcome"] == "fit"
    assert record["band_pass"] is True
    assert record["slope_band"] == [0.8, 1.2]


def test_sweep_fast_filtered_flag(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "experiment": {
                "beta_list": [0.16, 0.2262741699796952, 0.32],
                "horizon_cap": 2500.0,
            }
        },
    )
    out = tmp_path / "f"
    assert main(["sweep-fast", "--config", cfg, "--out", str(out), "--filtered"]) == EXIT_OK
    record = json.loads((out / "fit.json").read_text())
    assert record["slope_band"] == [1.7, 2.3]
    assert record["band_pass"] is True


def test_sweep_fast_band_failure_exits_4(tmp_path, capsys):
    # With T = 20/beta every run ends inside the transient of the
    # benchmark's anti-stable slow block, before the fast iterate reaches
    # its floor.  The smaller gains end furthest off it, so the trailing
    # errors grow as beta shrinks and the fitted slope is far below band.
    cfg = write_config(
        tmp_path,
        {
            "experiment": {
                "beta_list": [0.08, 0.16, 0.32],
                "horizon_scale": 20.0,
                "horizon_cap": 2500.0,
            }
        },
    )
    code = main(["sweep-fast", "--config", cfg, "--out", str(tmp_path / "o"), "--filtered"])
    assert code == EXIT_BAND
    assert "outside the [1.7, 2.3] band" in capsys.readouterr().err


@pytest.mark.parametrize(
    "subcommand, experiment",
    [
        ("simulate", {"horizon": 40.0}),
        (
            "sweep-fast",
            {"beta_list": [0.08, 0.16, 0.32], "horizon_scale": 20.0, "horizon_cap": 2500.0},
        ),
    ],
)
def test_filtered_run_reproduces_from_echoed_config(tmp_path, subcommand, experiment):
    cfg = write_config(tmp_path, {"experiment": experiment})
    first, second = tmp_path / "first", tmp_path / "second"
    code = main([subcommand, "--config", cfg, "--out", str(first), "--filtered"])
    echoed = first / "config.resolved.json"
    assert json.loads(echoed.read_text())["filter"]["enabled"] is True
    # the rerun takes the echoed config alone, without the flag
    assert main([subcommand, "--config", str(echoed), "--out", str(second)]) == code
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    csv = "trajectory.csv" if subcommand == "simulate" else "run-beta-0.16.csv"
    assert "lambdaF_1" in (second / csv).read_text().splitlines()[0]


def test_meanflow_grid_starts_at_lambda0(tmp_path):
    cfg = write_config(tmp_path, {"experiment": {"theta_grid": [0.5], "lambda0": [25.0]}})
    out = tmp_path / "o"
    assert run(cfg, "meanflow-grid", out_dir=out) == EXIT_OK
    system, thetas = qsakit.named_system("linear-3.1"), [np.array([0.5])]
    expected, default = tmp_path / "expected.csv", tmp_path / "default.csv"
    for path, lam0 in ((expected, [25.0]), (default, None)):
        write_grid_csv(path, thetas, stationary_grid(system, thetas, 0.1, lambda0=lam0))
    assert (out / "grid.csv").read_bytes() == expected.read_bytes()
    assert expected.read_bytes() != default.read_bytes()


def test_check_slow_subcommand(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "gains": {"beta": 0.05},
            "experiment": {"horizon": 4000.0, "sample_stride": 5},
        },
    )
    out = tmp_path / "o"
    assert run(cfg, "check-slow", out_dir=out) == EXIT_OK
    record = json.loads((out / "slow_check.json").read_text())
    assert record["pass"] is True
    assert 0.0 < record["sup_ratio"] < 1.0
    assert record["ratio_trend"] <= 2.0
    assert record["theta_beta"] == pytest.approx([0.0], abs=1e-3)
    assert (out / "trajectory.csv").exists()


def test_bias_subcommand_symmetric(tmp_path):
    cfg = write_config(tmp_path, {"experiment": {"beta_list": [0.16, 0.32]}})
    out = tmp_path / "o"
    assert run(cfg, "bias", out_dir=out) == EXIT_OK
    record = json.loads((out / "fit.json").read_text())
    assert record["outcome"] == "symmetric-no-bias"


@pytest.mark.parametrize("subcommand", sorted(HANDLERS))
@pytest.mark.parametrize("gains", [{"mode": "mixed"}, {"alpha0": 1.0}], ids=["mode", "alpha0"])
def test_removed_gain_keys_rejected(tmp_path, capsys, subcommand, gains):
    # Only the mixed schedule exists: configs that still spell gains.mode
    # or gains.alpha0 fail before any output is written.
    cfg = write_config(tmp_path, {"gains": gains})
    out = tmp_path / "o"
    assert run(cfg, subcommand, out_dir=out) == EXIT_CONFIG
    assert "unknown key" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand, artifact",
    [("bias", "sweep.csv"), ("lyapunov", "lyapunov.csv"), ("meanflow-grid", "grid.csv")],
)
def test_beta_only_subcommands_reject_non_default_rho(tmp_path, capsys, subcommand, artifact):
    cfg = write_config(tmp_path, {"gains": {"rho": 0.95}})
    out = tmp_path / "o"
    assert run(cfg, subcommand, out_dir=out) == EXIT_CONFIG
    assert "gains.rho must keep its default 0.7, got 0.95" in capsys.readouterr().err
    assert not (out / artifact).exists()
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand", ["check-slow", "bias", "pmf", "lyapunov", "meanflow-grid", "esc"]
)
def test_filterless_subcommands_reject_filter_enabled(tmp_path, capsys, subcommand):
    # only simulate and sweep-fast run a filter; elsewhere the key would be
    # echoed as true in config.resolved.json without taking effect
    cfg = write_config(tmp_path, {"filter": {"enabled": True}})
    out = tmp_path / "o"
    assert run(cfg, subcommand, out_dir=out) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {subcommand} runs no filter and never reads filter.enabled; "
        "filter.enabled must be false\n"
    )
    assert not out.exists()


def test_pmf_subcommand(tmp_path):
    out = tmp_path / "a"
    assert run(None, "pmf", out_dir=out) == EXIT_OK
    record = json.loads((out / "pmf.json").read_text())
    assert record["pass"] is True
    for key in ("step1", "step2", "step3", "assembled"):
        assert record[key] < 1e-8
    assert record["threshold"] == 1e-8

    cfg = write_config(tmp_path, {"experiment": {"derivative": "fd"}})
    out_fd = tmp_path / "b"
    assert run(cfg, "pmf", out_dir=out_fd) == EXIT_OK
    record = json.loads((out_fd / "pmf.json").read_text())
    assert record["derivative"] == "fd"
    assert record["pass"] is None
    assert record["threshold"] is None


def test_lyapunov_subcommand(tmp_path):
    cfg = write_config(
        tmp_path, {"experiment": {"horizon": 60.0, "theta_grid": [-0.5, 0.5]}}
    )
    out = tmp_path / "o"
    assert run(cfg, "lyapunov", out_dir=out) == EXIT_OK
    rows = np.genfromtxt(out / "lyapunov.csv", delimiter=",", names=True)
    assert rows.shape == (2,)
    # Frozen-fast drift of the linear benchmark decays at rate beta.
    for exponent in rows["exponent"]:
        assert exponent == pytest.approx(-0.1, abs=2e-3)


def test_meanflow_grid_subcommand(tmp_path):
    cfg = write_config(tmp_path, {"experiment": {"theta_grid": [0.0, 0.5]}})
    out = tmp_path / "o"
    assert run(cfg, "meanflow-grid", out_dir=out) == EXIT_OK
    rows = np.genfromtxt(out / "grid.csv", delimiter=",", names=True)
    # lambda*(theta) = -2 theta for the linear benchmark.
    assert rows["value_1"][0] == pytest.approx(0.0, abs=1e-3)
    assert rows["value_1"][1] == pytest.approx(-1.0, abs=1e-3)
    # At theta = 0.5 the multiplicative probe vanishes at equilibrium.
    assert rows["osc_amplitude"][1] < 1e-8


def test_esc_subcommand_converges(tmp_path):
    cfg = write_config(
        tmp_path,
        {"gains": {"beta": 1.0}, "experiment": {"horizon": 600.0, "sample_stride": 50}},
    )
    out = tmp_path / "o"
    assert run(cfg, "esc", out_dir=out) == EXIT_OK
    record = json.loads((out / "esc.json").read_text())
    assert record["pass"] is True
    assert record["optimum"] == [1.0]
    assert record["distance"] < 0.1


def test_esc_band_failure_exits_4(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "gains": {"beta": 1.0},
            "esc": {"tolerance": 1e-4},
            "experiment": {"horizon": 200.0, "sample_stride": 50},
        },
    )
    assert run(cfg, "esc", out_dir=tmp_path / "o") == EXIT_BAND
    assert "outside the 0.0001 band" in capsys.readouterr().err


def test_jobs_flag_validation(capsys):
    assert main(["simulate", "--jobs", "0"]) == EXIT_CONFIG
    assert "--jobs" in capsys.readouterr().err
