"""Configuration-driven command-line front end.

Subcommands: simulate, sweep-fast, check-slow, bias, pmf, lyapunov,
meanflow-grid, esc.  Each writes its artifacts plus the fully resolved
configuration (config.resolved.json) under the output directory, and
rerunning with the same resolved config reproduces the CSV outputs
byte for byte.

Exit codes: 0 success; 2 configuration or validation failure, including
runs the configuration makes infeasible (non-convergent averaging,
degenerate probing content); 3 finite escape of a trajectory; 4 a
measured quantity landed outside its acceptance band.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import config as cfg
from .dynamics import integrate
from .errors import ConfigError, NonFinite, QsaError
from .esc import build_esc_system
from .experiments import (
    FILTERED_SLOPE_BAND,
    R_SQUARED_MIN,
    UNFILTERED_SLOPE_BAND,
    HorizonPolicy,
    RateFit,
    bias_sweep,
    fast_error_sweep,
    pmf_identity_suite,
    slow_error_check,
)
from .lyapunov import lyapunov_exponent, write_exponent_csv
from .meanflow import find_root_g0, stationary_grid, write_grid_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONFINITE = 3
EXIT_BAND = 4

PMF_THRESHOLD = 1e-8
TREND_BOUND = 2.0

# Spelled split so this file does not match its own scan.
RNG_MARKERS = tuple(
    a + b
    for a, b in (
        ("np.", "random"),
        ("numpy.", "random"),
        ("import ", "random"),
        ("from ", "random"),
        ("os.", "urandom"),
        ("import ", "secrets"),
    )
)


def assert_seedless():
    """Fail if any module of this package references an RNG source.

    The method is deterministic by design; this check turns that claim
    into something a build can enforce.
    """
    package_dir = Path(__file__).resolve().parent
    hits = []
    for source in sorted(package_dir.glob("*.py")):
        text = source.read_text()
        for marker in RNG_MARKERS:
            if marker in text:
                hits.append(f"{source.name} references {marker!r}")
    if hits:
        raise ConfigError(
            "seedless assertion failed, RNG linked into the package: "
            + "; ".join(hits)
        )


def _prepare(resolved, subcommand, out):
    """Build the system under test, fix x0, and echo the resolved config."""
    if subcommand == "esc":
        system = build_esc_system(
            cfg.build_esc_config(resolved), theta_star=cfg.esc_optimum(resolved)
        )
    else:
        system = cfg.build_system(resolved)
    x0 = cfg.materialize_x0(resolved, system)
    cfg.dump_resolved(resolved, out / "config.resolved.json")
    return system, x0


#: subcommands that hold the slow state fixed and never read gains.rho
FROZEN_SLOW = ("bias", "lyapunov", "meanflow-grid")
#: the only subcommands that read filter.enabled
FILTER_READERS = ("simulate", "sweep-fast")


def _reject_unread_keys(resolved, subcommand):
    """Reject a gains.rho or filter.enabled that the subcommand would
    silently ignore, so the echoed config never claims what did not run."""
    if subcommand in FROZEN_SLOW:
        rho, default = resolved["gains"]["rho"], cfg.DEFAULTS["gains"]["rho"]
        if rho != default:
            raise ConfigError(
                f"{subcommand} holds the slow state fixed and never reads gains.rho; "
                f"gains.rho must keep its default {default}, got {rho}"
            )
    if subcommand not in FILTER_READERS and resolved["filter"]["enabled"]:
        raise ConfigError(
            f"{subcommand} runs no filter and never reads filter.enabled; "
            "filter.enabled must be false"
        )


def _dump_json(record, path):
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_simulate(resolved, out):
    system, x0 = _prepare(resolved, "simulate", out)
    exp = resolved["experiment"]
    traj = integrate(
        system,
        cfg.build_schedule(resolved),
        x0,
        exp["horizon"],
        filt=cfg.build_filter(resolved),
        sample_stride=exp["sample_stride"],
    )
    traj.to_csv(out / "trajectory.csv")
    print(f"simulate: {traj.n_samples} samples over T = {exp['horizon']:g}")
    return EXIT_OK


def _cmd_sweep_fast(resolved, out):
    system, x0 = _prepare(resolved, "sweep-fast", out)
    exp = resolved["experiment"]
    use_filter = resolved["filter"]["enabled"]
    outcome = fast_error_sweep(
        system,
        exp["beta_list"],
        cfg.filter_factory(resolved) if use_filter else None,
        HorizonPolicy(scale=exp["horizon_scale"], cap=exp["horizon_cap"]),
        rho=resolved["gains"]["rho"],
        x0=x0,
        sample_stride=exp["sample_stride"],
        out_dir=out,
    )
    band = FILTERED_SLOPE_BAND if use_filter else UNFILTERED_SLOPE_BAND
    if not isinstance(outcome, RateFit):
        print(f"sweep-fast: every trailing error below the {outcome.floor:g} floor")
        return EXIT_OK
    if not (band[0] <= outcome.slope <= band[1]):
        print(
            f"sweep-fast: slope {outcome.slope:.4g} outside the "
            f"[{band[0]}, {band[1]}] band",
            file=sys.stderr,
        )
        return EXIT_BAND
    if outcome.r_squared < R_SQUARED_MIN:
        print(
            f"sweep-fast: r^2 {outcome.r_squared:.4g} below {R_SQUARED_MIN}",
            file=sys.stderr,
        )
        return EXIT_BAND
    print(
        f"sweep-fast: slope {outcome.slope:.4g}, r^2 {outcome.r_squared:.4g}, "
        f"band [{band[0]}, {band[1]}] ok"
    )
    return EXIT_OK


def _cmd_check_slow(resolved, out):
    system, x0 = _prepare(resolved, "check-slow", out)
    exp = resolved["experiment"]
    beta = resolved["gains"]["beta"]
    init = system.theta_star if system.theta_star is not None else x0[0]
    theta_beta = find_root_g0(
        system, init, beta, exp["tol"], burn_in=exp["burn_in"], window=exp["window"]
    )
    schedule = cfg.build_schedule(resolved)
    traj = integrate(
        system, schedule, x0, exp["horizon"], sample_stride=exp["sample_stride"]
    )
    traj.to_csv(out / "trajectory.csv")
    report = slow_error_check(traj, theta_beta, schedule)
    ok = bool(np.isfinite(report.sup_ratio) and report.ratio_trend <= TREND_BOUND)
    _dump_json(
        {
            "sup_ratio": report.sup_ratio,
            "ratio_trend": report.ratio_trend,
            "trend_bound": TREND_BOUND,
            "theta_beta": [float(v) for v in theta_beta],
            "pass": ok,
        },
        out / "slow_check.json",
    )
    if not ok:
        print(
            f"check-slow: sup {report.sup_ratio:.4g}, trend {report.ratio_trend:.4g} "
            f"violates finite sup with trend <= {TREND_BOUND}",
            file=sys.stderr,
        )
        return EXIT_BAND
    print(f"check-slow: sup {report.sup_ratio:.4g}, trend {report.ratio_trend:.4g}")
    return EXIT_OK


def _cmd_bias(resolved, out):
    system, _ = _prepare(resolved, "bias", out)
    exp = resolved["experiment"]
    outcome = bias_sweep(
        system,
        exp["beta_list"],
        tol=exp["tol"],
        burn_in=exp["burn_in"],
        window=exp["window"],
        out_dir=out,
    )
    if isinstance(outcome, RateFit):
        print(f"bias: slope {outcome.slope:.4g}, r^2 {outcome.r_squared:.4g}")
    else:
        print(f"bias: symmetric, every estimate below {outcome.threshold:g}")
    return EXIT_OK


def _cmd_pmf(resolved, out):
    system, x0 = _prepare(resolved, "pmf", out)
    exp = resolved["experiment"]
    report = pmf_identity_suite(
        system,
        gains=cfg.build_schedule(resolved),
        horizon=exp["pmf_horizon"],
        x0=x0,
        derivative=exp["derivative"],
        fd_step=exp["fd_step"],
    )
    residuals = {
        "step1": report.step1,
        "step2": report.step2,
        "step3": report.step3,
        "assembled": report.assembled,
    }
    analytic = report.derivative == "analytic"
    ok = all(r < PMF_THRESHOLD for r in residuals.values()) if analytic else None
    _dump_json(
        {
            **residuals,
            "derivative": report.derivative,
            "horizon": report.horizon,
            "n_samples": report.n_samples,
            "threshold": PMF_THRESHOLD if analytic else None,
            "pass": ok,
        },
        out / "pmf.json",
    )
    worst = max(residuals.values())
    if analytic and not ok:
        print(
            f"pmf: max residual {worst:.3e} above the {PMF_THRESHOLD:g} "
            "analytic-derivative band",
            file=sys.stderr,
        )
        return EXIT_BAND
    print(f"pmf: max residual {worst:.3e} ({report.derivative} derivatives)")
    return EXIT_OK


def _cmd_lyapunov(resolved, out):
    system, x0 = _prepare(resolved, "lyapunov", out)
    exp = resolved["experiment"]
    beta = resolved["gains"]["beta"]
    thetas = cfg.theta_grid_points(resolved, system.dim_slow)
    estimates = [
        lyapunov_exponent(system, th, beta, x0[1], exp["horizon"]) for th in thetas
    ]
    write_exponent_csv(
        out / "lyapunov.csv", thetas, [beta] * len(thetas), estimates
    )
    print(f"lyapunov: {len(thetas)} grid point(s) at beta = {beta:g}")
    return EXIT_OK


def _cmd_meanflow_grid(resolved, out):
    system, x0 = _prepare(resolved, "meanflow-grid", out)
    exp = resolved["experiment"]
    thetas = cfg.theta_grid_points(resolved, system.dim_slow)
    estimates = stationary_grid(
        system,
        thetas,
        resolved["gains"]["beta"],
        exp["tol"],
        kind=exp["grid_kind"],
        burn_in=exp["burn_in"],
        window=exp["window"],
        lambda0=x0[1],
    )
    write_grid_csv(out / "grid.csv", thetas, estimates)
    print(f"meanflow-grid: {len(estimates)} point(s), kind {exp['grid_kind']}")
    return EXIT_OK


def _cmd_esc(resolved, out):
    system, x0 = _prepare(resolved, "esc", out)
    exp = resolved["experiment"]
    try:
        traj = integrate(
            system,
            cfg.build_schedule(resolved),
            x0,
            exp["horizon"],
            sample_stride=exp["sample_stride"],
        )
    except NonFinite as exc:
        if resolved["esc"]["gain_kind"] != "constant":
            raise
        raise NonFinite(
            exc.time,
            f"seeker from theta0 = {x0[0].tolist()}, lambda0 = {x0[1].tolist()} "
            "with esc.gain_kind 'constant': far from the optimum the measurement "
            "f/eps grows with the objective and drives the escape; "
            "esc.gain_kind 'objective_scaled' or 'prior_scaled' scales eps with it",
        ) from exc
    traj.to_csv(out / "trajectory.csv")
    final = traj.theta[-1]
    optimum = cfg.esc_optimum(resolved)
    tolerance = resolved["esc"]["tolerance"]
    record = {
        "final_theta": [float(v) for v in final],
        "optimum": None if optimum is None else [float(v) for v in optimum],
        "distance": None,
        "tolerance": tolerance,
        "pass": None,
    }
    if optimum is not None:
        record["distance"] = float(np.linalg.norm(final - optimum))
        record["pass"] = record["distance"] <= tolerance
    _dump_json(record, out / "esc.json")
    if record["pass"] is False:
        print(
            f"esc: final point {record['distance']:.4g} from the optimum, "
            f"outside the {tolerance:g} band",
            file=sys.stderr,
        )
        return EXIT_BAND
    where = "" if record["distance"] is None else f", {record['distance']:.4g} from optimum"
    print(f"esc: finished at theta = {record['final_theta']}{where}")
    return EXIT_OK


HANDLERS = {
    "simulate": _cmd_simulate,
    "sweep-fast": _cmd_sweep_fast,
    "check-slow": _cmd_check_slow,
    "bias": _cmd_bias,
    "pmf": _cmd_pmf,
    "lyapunov": _cmd_lyapunov,
    "meanflow-grid": _cmd_meanflow_grid,
    "esc": _cmd_esc,
}


def run(config_path, subcommand, *, out_dir=None, seedless=False, filtered=False):
    """Execute one subcommand against a config file; returns the exit code."""
    if subcommand not in HANDLERS:
        print(
            f"error: unknown subcommand {subcommand!r}; "
            f"expected one of {sorted(HANDLERS)}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    try:
        resolved = cfg.resolve(cfg.load_config(config_path))
        if seedless:
            assert_seedless()
        if filtered:
            # the echoed config records the flag, so a rerun from it repeats the run
            resolved["filter"]["enabled"] = True
        _reject_unread_keys(resolved, subcommand)
        out = Path(out_dir) if out_dir else Path("results") / subcommand
        out.mkdir(parents=True, exist_ok=True)
        return HANDLERS[subcommand](resolved, out)
    except NonFinite as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONFINITE
    except QsaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qsakit",
        description="Deterministic two-timescale runs, sweeps, and identity checks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON run configuration")
    common.add_argument("--out", metavar="DIR", help="output directory (default results/<subcommand>)")
    common.add_argument(
        "--jobs",
        metavar="N",
        type=int,
        default=1,
        help="must be 1: every run is single-threaded",
    )
    common.add_argument(
        "--seedless",
        action="store_true",
        help="assert that no RNG source is referenced anywhere in the package",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    descriptions = {
        "simulate": "integrate one trajectory and write it as CSV",
        "sweep-fast": "fast-error scaling sweep over beta_list",
        "check-slow": "gain-envelope check of the slow error",
        "bias": "averaged-root bias sweep over beta_list",
        "pmf": "perturbative mean-flow identity residuals",
        "lyapunov": "frozen-fast Lyapunov exponents on a theta grid",
        "meanflow-grid": "stationary averages on a theta grid",
        "esc": "build and run the extremum seeker",
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(name, parents=[common], help=desc)
        if name == "sweep-fast":
            p.add_argument(
                "--filtered",
                action="store_true",
                help="carry the filtered fast variable alongside the raw one "
                "and measure it (natural frequency eta*beta)",
            )
        if name == "simulate":
            p.add_argument(
                "--filtered",
                action="store_true",
                help="carry the filtered fast variable alongside the raw one",
            )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.jobs != 1:
        print("error: --jobs must be 1: every run is single-threaded", file=sys.stderr)
        return EXIT_CONFIG
    return run(
        args.config,
        args.subcommand,
        out_dir=args.out,
        seedless=args.seedless,
        filtered=getattr(args, "filtered", False),
    )


if __name__ == "__main__":
    sys.exit(main())
