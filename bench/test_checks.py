"""Negative controls: every check rejects a planted wrong output.

Run from the repository root with ``python -m pytest bench``.  The
artifacts here are written by hand in the program's formats, so these
tests need no run of the program and take well under a second.
"""

import json

import numpy as np
import pytest

import checks
import refclock
import run
from workloads import Op

BETAS = [0.16, 0.2263, 0.32]


def write_csv(path, columns):
    names = list(columns)
    np.savetxt(path, np.column_stack([columns[n] for n in names]), fmt="%.17g",
               delimiter=",", comments="", header=",".join(names))


def write_sweep(out, errors, columns_at):
    out.mkdir()
    for beta in BETAS:
        write_csv(out / checks.run_csv_name(beta), columns_at(beta))
    write_csv(out / "sweep.csv", {"x": np.array(BETAS), "y": np.array(errors)})
    slope, _ = checks.loglog_fit(BETAS, errors)
    (out / "fit.json").write_text(json.dumps({"slope": slope}))
    return out


@pytest.fixture
def sweeps(tmp_path):
    """Sweeps whose trailing errors are 0.3 beta raw and 0.5 beta^2 filtered."""
    t = np.linspace(0.0, 1.0, 200)
    theta = 0.1 * np.cos(7.0 * t)

    def raw_columns(beta):
        lam = 0.3 * beta * np.cos(40.0 * t)
        lam[-1] = 0.3 * beta
        return {"t": t, "theta_1": theta, "lambda_1": lam}

    def filtered_columns(beta):
        lamf = np.full(t.shape, 0.25 * beta**2)
        lamf[-1] = 0.5 * beta**2
        return {**raw_columns(beta), "lambdaF_1": lamf}

    raw = write_sweep(tmp_path / "raw", [0.3 * b for b in BETAS], raw_columns)
    filtered = write_sweep(tmp_path / "filtered", [0.5 * b**2 for b in BETAS], filtered_columns)
    return raw, filtered


def sweep_problems(raw, filtered):
    raw_runs = checks.sweep_runs(raw, BETAS)
    filt_runs = checks.sweep_runs(filtered, BETAS)
    p_raw, e_raw = checks.check_sweep(raw, raw_runs, BETAS, 0.0, filtered=False)
    p_filt, e_filt = checks.check_sweep(filtered, filt_runs, BETAS, 0.0, filtered=True)
    return p_raw + p_filt + checks.check_filter_observes(raw_runs, filt_runs, BETAS, e_raw, e_filt)


def test_sweep_checks_accept_consistent_output(sweeps):
    assert sweep_problems(*sweeps) == []


def test_sweep_check_rejects_doubled_error(sweeps):
    raw, filtered = sweeps
    table = checks.read_csv(raw / "sweep.csv")
    table["y"][1] *= 2.0
    write_csv(raw / "sweep.csv", table)
    problems = sweep_problems(raw, filtered)
    assert any("error at beta 0.2263" in p for p in problems)


def test_filter_check_rejects_changed_theta(sweeps):
    raw, filtered = sweeps
    path = filtered / checks.run_csv_name(0.32)
    table = checks.read_csv(path)
    table["theta_1"][-3] += 1e-9
    write_csv(path, table)
    assert any("theta_1 at beta 0.32 differs" in p for p in sweep_problems(raw, filtered))


def test_sweep_check_rejects_wrong_rate(sweeps):
    raw, filtered = sweeps
    # filtered errors that fall like beta, not beta^2, miss the [1.7, 2.3] band
    for beta in BETAS:
        path = filtered / checks.run_csv_name(beta)
        table = checks.read_csv(path)
        table["lambdaF_1"][-1] = 0.1 * beta
        write_csv(path, table)
    assert any("filtered slope" in p for p in sweep_problems(raw, filtered))


def write_pmf(out, residual, derivative="analytic"):
    out.mkdir()
    record = {key: residual for key in checks.RESIDUAL_KEYS}
    record["derivative"] = derivative
    (out / "pmf.json").write_text(json.dumps(record))
    return out


def test_pmf_analytic_rejects_residual_1e_6(tmp_path):
    assert checks.check_pmf_analytic(write_pmf(tmp_path / "ok", 3e-14)) == []
    problems = checks.check_pmf_analytic(write_pmf(tmp_path / "bad", 1e-6))
    assert len(problems) == len(checks.RESIDUAL_KEYS)


def test_pmf_halving_needs_second_order(tmp_path):
    coarse = write_pmf(tmp_path / "coarse", 4e-6, "fd")
    assert checks.check_pmf_halving(coarse, write_pmf(tmp_path / "fine", 1e-6, "fd")) == []
    first_order = write_pmf(tmp_path / "first", 2e-6, "fd")
    assert len(checks.check_pmf_halving(coarse, first_order)) == len(checks.RESIDUAL_KEYS)


def write_lyapunov(out, thetas, exponents):
    out.mkdir()
    n = len(thetas)
    write_csv(out / "lyapunov.csv", {
        "theta_1": np.array(thetas), "beta": np.full(n, 0.1),
        "exponent": np.array(exponents), "tail_exponent": np.array(exponents),
        "horizon": np.full(n, 400.0),
    })
    return out


def test_exponent_check_rejects_offset_1e_2(tmp_path):
    thetas = [-0.5, 0.0, 0.7]
    good = write_lyapunov(tmp_path / "ok", thetas, [-0.1, -0.1002, -0.0999])
    assert checks.check_exponents(good, thetas, 0.1) == []
    bad = write_lyapunov(tmp_path / "bad", thetas, [-0.1, -0.1 + 1e-2, -0.1])
    assert len(checks.check_exponents(bad, thetas, 0.1)) == 1


def write_grid(out, thetas, values):
    out.mkdir()
    n = len(thetas)
    write_csv(out / "grid.csv", {
        "theta_1": np.array(thetas), "value_1": np.array(values),
        "osc_amplitude": np.zeros(n), "T_used": np.full(n, 820.0),
    })
    return out


def test_grid_checks_reject_wrong_values(tmp_path):
    thetas = [0.6, 1.1]
    sigma = checks.washout_sigma(np.log(2.0))
    exact = [-sigma * (th - 1.0) for th in thetas]
    assert checks.check_g0_grid(write_grid(tmp_path / "g0", thetas, exact), thetas,
                                1.0, sigma, 2e-3) == []
    off = [exact[0], exact[1] + 5e-3]
    assert len(checks.check_g0_grid(write_grid(tmp_path / "g0-off", thetas, off), thetas,
                                    1.0, sigma, 2e-3)) == 1
    lam = write_grid(tmp_path / "lam", thetas, [-2.0 * th + 0.05 for th in thetas])
    assert len(checks.check_lambda_grid(lam, thetas, 0.0, 1e-3, 0.1, np.log(3.0))) == 2
    moved = write_grid(tmp_path / "moved", [0.6, 1.2], exact)
    assert checks.check_g0_grid(moved, thetas, 1.0, sigma, 2e-3)


def test_seeker_checks_reject_far_points():
    assert checks.check_root([0.9925], 1.0, 0.1) == []
    assert checks.check_root([0.98], 1.0, 0.1)
    sigma = checks.washout_sigma(np.log(2.0))
    assert checks.check_moments(sigma, checks.washout_m0(np.log(2.0)), np.log(2.0)) == []
    assert checks.check_moments(sigma + 1e-4, sigma, np.log(2.0))


def test_rejected_output_counts_as_failed_without_crashing(tmp_path):
    ops = [
        Op("right", lambda: 1.0, lambda value: []),
        Op("wrong", lambda: 1.0, lambda value: ["planted wrong output"]),
        Op("raises", lambda: 1 / 0, lambda value: []),
        Op("missing", lambda: None,
           lambda value: checks.check_pmf_analytic(tmp_path / "nowhere")),
    ]
    result = run.run_round(ops, refclock.ReferenceClock(period=None))
    assert (result.attempted, result.failed, result.incorrect) == (4, 3, 2)


def test_reference_units_divide_work_by_the_local_kernel_time():
    clock = refclock.ReferenceClock(period=None)
    # kernel runs of 20 ms, one slow outlier of 40 ms, 20 ms; 1 s of work between each
    clock._runs = [(0.0, 0.02), (1.02, 0.04), (2.06, 0.02)]
    assert clock._units() == pytest.approx((100.0, 2.0))
    # the same work on a machine twice as slow reads the same units
    clock._runs = [(0.0, 0.04), (2.04, 0.04), (4.08, 0.04)]
    assert clock._units() == pytest.approx((100.0, 4.0))
