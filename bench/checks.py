"""Output checks, computed apart from the program.

Each check reads the artifacts an operation wrote and returns a list of
problems; an empty list means the output is correct.  The reference
values come from closed forms of the systems (lambda*(theta) = -2 theta
+ b2 for linear-3.1, Sigma = |M(j w)|^2 / 2 for the seeker's washout
M(s) = s / (s + 1)) or from properties the method must have (rates,
residual bands, the filter observing Lambda without feeding back).
"""

import json
import math
from pathlib import Path

import numpy as np

UNFILTERED_SLOPE = (0.8, 1.2)
FILTERED_SLOPE = (1.7, 2.3)
R_SQUARED_MIN = 0.95
PMF_ANALYTIC_MAX = 1e-8
FD_HALVING_RATIO = (3.5, 4.5)
RESIDUAL_KEYS = ("step1", "step2", "step3", "assembled")


def read_csv(path, columns=None):
    """Columns of a header-plus-numbers CSV by header name, all or the named ones."""
    path = Path(path)
    with open(path) as fh:
        names = fh.readline().strip().split(",")
    wanted = names if columns is None else [n for n in names if n in columns]
    data = np.loadtxt(
        path, delimiter=",", skiprows=1, ndmin=2, usecols=[names.index(n) for n in wanted]
    )
    return {name: data[:, i] for i, name in enumerate(wanted)}


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def loglog_fit(xs, ys):
    """(slope, r^2) of the least-squares line through (log x, log y)."""
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot else 1.0
    return float(slope), r2


def trailing_error(series, target):
    """Max distance to target over the last 10% of the samples."""
    tail = series[int(0.9 * series.shape[0]):]
    return float(np.max(np.abs(tail - target)))


def run_csv_name(beta):
    return f"run-beta-{beta:g}.csv"


def sweep_runs(out_dir, betas):
    """The theta and lambda columns of a sweep's run CSVs, one table per gain."""
    columns = ("theta_1", "lambda_1", "lambdaF_1")
    return [read_csv(Path(out_dir) / run_csv_name(b), columns) for b in betas]


def check_sweep(out_dir, runs, betas, target, filtered):
    """Errors recomputed from the run tables, their rate, and sweep.csv.

    Returns (problems, errors), errors[i] belonging to betas[i].
    """
    out_dir = Path(out_dir)
    column = "lambdaF_1" if filtered else "lambda_1"
    band = FILTERED_SLOPE if filtered else UNFILTERED_SLOPE
    label = "filtered" if filtered else "unfiltered"
    problems = []
    errors = [trailing_error(run[column], target) for run in runs]
    reported = read_csv(out_dir / "sweep.csv")
    if list(reported["x"]) != list(betas):
        problems.append(f"{label} sweep.csv gains {list(reported['x'])} != {list(betas)}")
    else:
        for beta, mine, theirs in zip(betas, errors, reported["y"]):
            if not close(mine, float(theirs)):
                problems.append(
                    f"{label} error at beta {beta:g}: sweep.csv {theirs:.17g}, "
                    f"recomputed {mine:.17g}"
                )
    slope, r2 = loglog_fit(betas, errors)
    if not band[0] <= slope <= band[1]:
        problems.append(f"{label} slope {slope:.4f} outside {list(band)}")
    if r2 < R_SQUARED_MIN:
        problems.append(f"{label} r^2 {r2:.4f} below {R_SQUARED_MIN}")
    fit = read_json(out_dir / "fit.json")
    if not close(fit.get("slope", math.nan), slope, 1e-9):
        problems.append(f"{label} fit.json slope {fit.get('slope')} != recomputed {slope:.12g}")
    return problems, errors


def check_filter_observes(raw_runs, filtered_runs, betas, raw_errors, filtered_errors):
    """The filter only observes Lambda: theta and lambda are the unfiltered
    run's, and the filtered error is the smaller one at every gain."""
    problems = []
    for beta, a, b, raw, filt in zip(betas, raw_runs, filtered_runs, raw_errors, filtered_errors):
        for column in ("theta_1", "lambda_1"):
            if a[column].shape != b[column].shape or not np.array_equal(a[column], b[column]):
                problems.append(f"filtered {column} at beta {beta:g} differs from the unfiltered run")
        if not filt < raw:
            problems.append(f"filtered error {filt:.3e} not below unfiltered {raw:.3e} at beta {beta:g}")
    return problems


def washout_sigma(omega):
    """Sigma = |M(j 2 pi omega)|^2 / 2 for the washout M(s) = s / (s + 1)."""
    s = 2j * math.pi * omega
    return 0.5 * abs(s / (s + 1.0)) ** 2


def washout_m0(omega):
    """M0 = J E[xi_check xi] = Re M(j 2 pi omega) / 2, feedthrough J = 1."""
    s = 2j * math.pi * omega
    return 0.5 * (s / (s + 1.0)).real


def check_esc(out_dir, optimum, tolerance):
    out_dir = Path(out_dir)
    theta = read_csv(out_dir / "trajectory.csv", ("theta_1",))["theta_1"]
    final = float(theta[-1])
    record = read_json(out_dir / "esc.json")
    problems = []
    if abs(final - optimum) > tolerance:
        problems.append(f"esc ends at {final:.6g}, more than {tolerance} from {optimum}")
    if record.get("final_theta") != [final]:
        problems.append(f"esc.json final_theta {record.get('final_theta')} != trajectory {final!r}")
    return problems


def check_g0_grid(out_dir, thetas, optimum, sigma, tolerance):
    """g0(theta) = -Sigma (theta - optimum) for the quadratic seeker."""
    rows = read_csv(Path(out_dir) / "grid.csv")
    problems = _grid_thetas(rows, thetas)
    for th, value in zip(rows["theta_1"], rows["value_1"]):
        expected = -sigma * (th - optimum)
        if abs(value - expected) > tolerance:
            problems.append(f"g0({th:.6g}) = {value:.6g}, expected {expected:.6g} +- {tolerance:g}")
    return problems


def check_lambda_grid(out_dir, thetas, b2, tol, beta, ripple_omega):
    """lambda*(theta) = -2 theta + b2 within the averaging tolerance plus the
    probe ripple beta |lambda + 1| / (2 pi omega) of the multiplicative tone."""
    rows = read_csv(Path(out_dir) / "grid.csv")
    problems = _grid_thetas(rows, thetas)
    for th, value in zip(rows["theta_1"], rows["value_1"]):
        expected = -2.0 * th + b2
        bound = tol + beta * abs(expected + 1.0) / (2.0 * math.pi * ripple_omega)
        if abs(value - expected) > bound:
            problems.append(f"lambda*({th:.6g}) = {value:.6g}, expected {expected:.6g} +- {bound:.3g}")
    return problems


def _grid_thetas(rows, thetas):
    got = list(rows["theta_1"])
    if len(got) != len(thetas) or any(not close(a, b) for a, b in zip(got, thetas)):
        return [f"grid rows at theta {got}, asked for {list(thetas)}"]
    return []


def check_exponents(out_dir, thetas, beta, tolerance=1e-3):
    """The frozen-fast flow of linear-3.1 decays at rate beta."""
    rows = read_csv(Path(out_dir) / "lyapunov.csv")
    problems = _grid_thetas(rows, thetas)
    for th, exponent in zip(rows["theta_1"], rows["exponent"]):
        if abs(exponent + beta) > tolerance:
            problems.append(f"exponent {exponent:.6g} at theta {th:.6g} not within {tolerance} of {-beta}")
    return problems


def check_pmf_analytic(out_dir):
    record = read_json(Path(out_dir) / "pmf.json")
    problems = []
    for key in RESIDUAL_KEYS:
        if not record[key] < PMF_ANALYTIC_MAX:
            problems.append(f"analytic {key} residual {record[key]:.3e} not below {PMF_ANALYTIC_MAX}")
    if record.get("derivative") != "analytic":
        problems.append(f"pmf.json derivative {record.get('derivative')!r}, expected 'analytic'")
    return problems


def check_pmf_halving(coarse_dir, fine_dir):
    """Second-order stencils: halving the step divides each residual by ~4."""
    coarse = read_json(Path(coarse_dir) / "pmf.json")
    fine = read_json(Path(fine_dir) / "pmf.json")
    problems = []
    for key in RESIDUAL_KEYS:
        ratio = coarse[key] / fine[key] if fine[key] > 0 else math.inf
        if not FD_HALVING_RATIO[0] <= ratio <= FD_HALVING_RATIO[1]:
            problems.append(
                f"fd {key} residual {coarse[key]:.3e} -> {fine[key]:.3e} "
                f"(ratio {ratio:.3f}) outside {list(FD_HALVING_RATIO)}"
            )
    return problems


def check_moments(sigma, m0, omega, tolerance=1e-5):
    problems = []
    for label, value, expected in (
        ("Sigma", sigma, washout_sigma(omega)),
        ("M0", m0, washout_m0(omega)),
    ):
        if abs(float(np.asarray(value).reshape(-1)[0]) - expected) > tolerance:
            problems.append(f"{label} {value} != closed form {expected:.9g} +- {tolerance:g}")
    return problems


def check_root(theta, optimum, epsilon):
    """The averaged seeker's root sits O(epsilon^2) from the optimum."""
    gap = abs(float(np.asarray(theta).reshape(-1)[0]) - optimum)
    if gap > epsilon**2:
        return [f"Newton root {theta} is {gap:.3e} from {optimum}, above epsilon^2 = {epsilon**2:g}"]
    return []

