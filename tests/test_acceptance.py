"""Acceptance gate: one test and one pass/fail line per primary criterion.

Run `pytest tests/test_acceptance.py -v -s` to see the measured values
behind each verdict; without -s the pytest PASSED/FAILED column is the
per-criterion line.  Every test asserts its stated tolerances and its
runtime budget, so a FAIL here is a real miss, not a flaky bound.

Oracles: analytic clock differentiation and scipy quadrature (criterion
1 and the integrator order check), the frequency-domain averaging terms
themselves evaluated on grids (criterion 2), the closed forms of the
linear benchmark (criteria 3-5), hand-computed spectra of constant
linear fast fields (criterion 6), the gradient-form approximation of
the averaged seeker field (criterion 7), and exact integer arithmetic
(criterion 8).

Each test also hands its measured values to record(), which compares
them exactly with tests/criteria_values.json (floats as float.hex,
integers, booleans and verdict strings; runtimes are left out), so a
change in rounding that stays inside every band still fails here.

    PYTHONPATH=src python tests/test_acceptance.py

reruns the nine criteria and rewrites that file, beside the platform
record of tests/golden.py.  A rewrite changes the gate's declared
results and belongs in CHANGES.md with its reason.
"""

import itertools
import json
import math
import sys
import tempfile
import time
from pathlib import Path

import golden
import numpy as np
import pytest
import scipy
from scipy.integrate import quad

from qsakit.dynamics import GainSchedule, StageText, TwoTimescaleSystem, integrate
from qsakit.errors import ZeroDivisor
from qsakit.esc import (
    EscConfig,
    Objective,
    build_esc_system,
    esc_constants,
    esc_meanflow_approx,
)
from qsakit.experiments import (
    HorizonPolicy,
    RateFit,
    fast_error_sweep,
    pmf_identity_suite,
    slow_error_check,
)
from qsakit.filters import SecondOrderFilter, passivity_metric
from qsakit.fourier import FourierField, PolyCoeff
from qsakit.lyapunov import lyapunov_exponent
from qsakit.meanflow import find_root_g0, mean_field_g0
from qsakit.poisson import pmeanflow_terms, solve_poisson, zero_mean_part
from qsakit.probing import (
    ProbingMap,
    clock_state,
    default_basis,
    make_frequency_basis,
    rational_dependence,
)
from qsakit.systems import (
    make_decoupled_system,
    make_esc_quadratic,
    make_linear_system,
)

_CACHE = {}

VALUES_FILE = Path(__file__).with_name("criteria_values.json")

#: criterion number -> its recorded values while the file is rewritten (__main__)
_REWRITE = None


def _platform():
    return {**golden.platform(), "scipy": scipy.__version__}


def _exact(value):
    """value with each float as float.hex, numpy scalars as Python ones and
    tuples and arrays as lists."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): _exact(v) for k, v in value.items()}
    return [_exact(v) for v in value]


def record(number, **values):
    """Compare criterion number's measured values with VALUES_FILE, exactly."""
    got = _exact(values)
    if _REWRITE is not None:
        _REWRITE[str(number)] = got
        return
    stored = json.loads(VALUES_FILE.read_text())
    assert got == stored["criteria"][str(number)], (
        f"criterion {number}'s measured values differ from {VALUES_FILE.name}, "
        f"taken with {stored['platform']}, running on {_platform()}; rewrite it "
        "(python tests/test_acceptance.py) only for a declared result change"
    )


def verdict(number, ok, detail, t0, budget):
    elapsed = time.perf_counter() - t0
    in_time = elapsed < budget
    status = "PASS" if (ok and in_time) else "FAIL"
    line = (
        f"[criterion {number}] {status}: {detail}; "
        f"runtime {elapsed:.1f}s (budget {budget:g}s)"
    )
    print("\n" + line)
    assert ok and in_time, line


def dependent_content_system():
    """Probe content at k = (2, -1) over generators (2,1), (4,1): the
    inner frequency 2 ln 2 - ln 4 vanishes on a genuine nonzero mode."""
    basis = make_frequency_basis([(2, 1), (4, 1)])
    pmap = ProbingMap(1, g_state=lambda phi: (phi[0:1] ** 2 * np.conj(phi[1:2])).real)
    text = StageText(("-th0",), ("-la0 + 0.5 * xi0",), ("-1.0",), 1, "", None, (), ())
    mode = PolyCoeff(2, 2, {(0, 0): [0.0, 0.25]})
    fourier = FourierField(
        1,
        1,
        2,
        2,
        {
            (0, 0): PolyCoeff(2, 2, {(1, 0): [-1.0, 0.0], (0, 1): [0.0, -1.0]}),
            (2, -1): mode,
            (-2, 1): mode.conj(),
        },
    )
    return TwoTimescaleSystem(1, 1, basis, probing=pmap, fourier=fourier, text=text)


def unfiltered_linear_sweep():
    if "unfiltered" not in _CACHE:
        _CACHE["unfiltered"] = fast_error_sweep(
            make_linear_system(),
            [0.02, 0.04, 0.08, 0.16],
            horizon_policy=HorizonPolicy(scale=200.0, cap=1e4),
            rho=0.7,
        )
    return _CACHE["unfiltered"]


def test_criterion_1_poisson_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260821)
    basis = default_basis(4)

    def random_field():
        terms = {}
        for _ in range(int(rng.integers(1, 7))):
            k = tuple(int(v) for v in rng.integers(-3, 4, size=4))
            if k == (0, 0, 0, 0):
                continue
            c = PolyCoeff.constant(2, [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))])
            terms[k] = c.add(terms[k]) if k in terms else c
            km = tuple(-v for v in k)
            terms[km] = terms[k].conj()
        if not terms:
            c = PolyCoeff.constant(2, [1.0 + 0.5j])
            terms[(1, 0, 0, 0)] = c
            terms[(-1, 0, 0, 0)] = c.conj()
        return FourierField(1, 1, 1, 4, terms)

    fields = [random_field() for _ in range(20)]
    worst = 0.0
    for field in fields:
        du = solve_poisson(zero_mean_part(field), basis).clock_derivative(basis)
        for _ in range(5):
            x = rng.uniform(-1, 1, size=2)
            z = clock_state(basis, float(rng.uniform(0.0, 100.0))).phi
            resid = np.max(np.abs(du.eval_complex(x, z) + field.eval_complex(x, z)))
            scale = max(1.0, float(np.max(np.abs(field.eval_complex(x, z)))))
            worst = max(worst, resid / scale)

    # Telescoping: the time integral of the zero-mean part over [0, T]
    # equals u_hat(0) - u_hat(T), checked against adaptive quadrature.
    tele = 0.0
    for field in fields[:3]:
        zm = zero_mean_part(field)
        u_hat = solve_poisson(zm, basis)
        for _ in range(2):
            x = rng.uniform(-1, 1, size=2)
            horizon = float(rng.uniform(1.0, 30.0))
            val, _ = quad(
                lambda tt: zm.eval(x, clock_state(basis, tt).phi)[0],
                0.0,
                horizon,
                limit=400,
                epsabs=1e-11,
                epsrel=1e-11,
            )
            want = (
                u_hat.eval(x, clock_state(basis, 0.0).phi)[0]
                - u_hat.eval(x, clock_state(basis, horizon).phi)[0]
            )
            tele = max(tele, abs(val - want))

    ok = worst < 1e-10 and tele < 1e-8
    verdict(
        1,
        ok,
        f"derivative residual {worst:.2e} (tol 1e-10), "
        f"telescoping gap {tele:.2e} (tol 1e-8) over 20 random fields",
        t0,
        10.0,
    )
    record(1, derivative_residual=worst, telescoping_gap=tele)


def test_criterion_2_perturbative_identities():
    t0 = time.perf_counter()
    report = pmf_identity_suite(make_linear_system())
    residuals = (report.step1, report.step2, report.step3, report.assembled)
    identities_ok = all(r < 1e-8 for r in residuals)

    terms = pmeanflow_terms(make_linear_system(), GainSchedule(0.7, 0.1))
    grid_worst = max(
        float(np.max(np.abs(terms.upsilon_ff_bar(np.array([th, la])))))
        for th in np.linspace(-1.0, 1.0, 5)
        for la in np.linspace(-1.0, 1.0, 5)
    )
    grid_ok = grid_worst < 1e-8

    try:
        pmf_identity_suite(dependent_content_system())
        divisor_ok, divisor_note, divisor_message = False, "ZeroDivisor not raised", ""
    except ZeroDivisor as exc:
        divisor_message = str(exc)
        divisor_ok = "(2, -1)" in divisor_message
        divisor_note = f"ZeroDivisor names the mode: {divisor_ok}"

    verdict(
        2,
        identities_ok and grid_ok and divisor_ok,
        f"residuals {max(residuals):.2e} (tol 1e-8), coupling-average grid "
        f"{grid_worst:.2e} (tol 1e-8), {divisor_note}",
        t0,
        60.0,
    )
    record(2, residuals=residuals, grid_worst=grid_worst, divisor=divisor_message)


def test_criterion_3_fast_error_scaling():
    t0 = time.perf_counter()
    fit = unfiltered_linear_sweep()
    ok = (
        isinstance(fit, RateFit)
        and 0.8 <= fit.slope <= 1.2
        and fit.r_squared >= 0.95
    )
    verdict(
        3,
        ok,
        f"unfiltered slope {fit.slope:.4f} (band [0.8, 1.2]), "
        f"r^2 {fit.r_squared:.5f} (min 0.95)",
        t0,
        300.0,
    )
    record(3, points=fit.points, slope=fit.slope, r_squared=fit.r_squared)


def test_criterion_4_filtered_error_scaling():
    t0 = time.perf_counter()
    filtered = fast_error_sweep(
        make_linear_system(),
        [0.02, 0.04, 0.08, 0.16],
        filter_factory=lambda beta: SecondOrderFilter(beta, zeta=0.7, eta=1.0),
        horizon_policy=HorizonPolicy(scale=200.0, cap=1e4),
        rho=0.7,
    )
    unfiltered = unfiltered_linear_sweep()
    raw = dict(unfiltered.points)
    below = sum(1 for beta, err in filtered.points if err < raw[beta])
    band_ok = (
        isinstance(filtered, RateFit)
        and 1.7 <= filtered.slope <= 2.3
        and filtered.r_squared >= 0.95
    )
    # The filter observes Lambda without feeding the slow loop, so the
    # coupled pair is the unfiltered one; Lambda^F strips the O(beta)
    # probe ripple and its trailing error sits near 0.0105 beta^2.
    verdict(
        4,
        band_ok and below == len(filtered.points),
        f"filtered slope {filtered.slope:.4f} (band [1.7, 2.3]), "
        f"r^2 {filtered.r_squared:.5f}, strictly-below-unfiltered at "
        f"{below}/{len(filtered.points)} gains",
        t0,
        300.0,
    )
    record(4, points=filtered.points, slope=filtered.slope, r_squared=filtered.r_squared,
           below=below)


def test_criterion_5_slow_error_envelope():
    t0 = time.perf_counter()
    system = make_linear_system()
    beta = 0.05
    theta_beta = find_root_g0(system, np.zeros(1), beta)
    schedule = GainSchedule(0.7, beta)
    sups = {}
    for horizon in (4000.0, 8000.0):
        traj = integrate(system, schedule, (np.zeros(1), np.zeros(1)), horizon)
        sups[horizon] = slow_error_check(traj, theta_beta, schedule).sup_ratio
    change = sups[8000.0] / sups[4000.0]
    ok = math.isfinite(sups[4000.0]) and sups[4000.0] > 0 and 0.5 < change < 2.0
    verdict(
        5,
        ok,
        f"sup ratio {sups[4000.0]:.4f} at T=4000, x{change:.3f} when T doubles "
        f"(bound 2x)",
        t0,
        120.0,
    )
    record(5, theta_beta=theta_beta, sup_ratios=list(sups.values()), change=change)


def test_criterion_6_lyapunov_exponents():
    t0 = time.perf_counter()
    basis1 = make_frequency_basis([(2, 1)])

    scalar = lyapunov_exponent(
        TwoTimescaleSystem(
            1, 1, basis1, text=StageText(("0.0",), ("-la0",), ("-1.0",), 1, "", None, (), ())
        ),
        np.zeros(1),
        1.0,
        np.ones(1),
        60.0,
    )
    scalar_ok = abs(scalar.exponent + 1.0) < 1e-3

    # the companion matrix [[0, 1], [-2, -2]], eigenvalues -1 +/- j, each
    # row summed from 0.0 in index order
    companion = StageText(
        ("0.0",), ("0.0 + 0.0 * la0 + 1.0 * la1", "0.0 + -2.0 * la0 + -2.0 * la1"),
        ("0.0", "1.0", "-2.0", "-2.0"), 1, "", None, (), (),
    )
    planar = lyapunov_exponent(
        TwoTimescaleSystem(1, 2, basis1, text=companion),
        np.zeros(1),
        1.0,
        np.array([1.0, 0.0]),
        200.0,
    )
    planar_ok = abs(planar.exponent + 1.0) < 1e-2

    # Seeker washout: fast drift F has its pole at -omega_h = -1, and the
    # exponent must not depend on where the slow variable sits.
    seeker = build_esc_system(
        EscConfig(objective=Objective(lambda th: 0.5 * (th[0] - 1.0) ** 2), epsilon=0.1, dim=1)
    )
    esc_exponents = [
        lyapunov_exponent(seeker, np.array([th]), 1.0, np.zeros(1), 60.0).exponent
        for th in (0.2, 1.5)
    ]
    esc_ok = all(abs(e + 1.0) < 1e-2 for e in esc_exponents)

    multiplicative = StageText(
        ("0.0",), ("-2.0 * th0 - la0 + xi1 * (la0 + 1.0)",), ("-1.0 + xi1",), 2, "", None, (), ()
    )
    linear_fast = TwoTimescaleSystem(
        1,
        1,
        make_frequency_basis([(2, 1), (3, 1)], phases=[0.75, 0.75]),
        text=multiplicative,
    )
    low = lyapunov_exponent(linear_fast, np.ones(1), 0.25, np.zeros(1), 400.0)
    high = lyapunov_exponent(linear_fast, np.ones(1), 0.5, np.zeros(1), 400.0)
    ratio = high.exponent / low.exponent
    linearity_ok = abs(ratio - 2.0) <= 0.02 * 2.0

    verdict(
        6,
        scalar_ok and planar_ok and esc_ok and linearity_ok,
        f"scalar {scalar.exponent:.5f} (tol 1e-3), planar {planar.exponent:.4f} "
        f"(tol 1e-2), seeker {esc_exponents[0]:.4f}/{esc_exponents[1]:.4f} "
        f"(tol 1e-2), gain-doubling ratio {ratio:.4f} (2 +/- 2%)",
        t0,
        60.0,
    )
    estimates = (scalar, planar, low, high)
    record(6, exponents=[[e.exponent, e.tail_exponent] for e in estimates],
           seeker=esc_exponents, ratio=ratio)


def test_criterion_7_seeker_meanflow():
    t0 = time.perf_counter()
    objective = Objective(
        lambda th: 0.5 * (th[0] - 1.0) ** 2 + (th[0] - 1.0) ** 3,
        grad=lambda th: np.atleast_1d((th[0] - 1.0) + 3.0 * (th[0] - 1.0) ** 2),
    )
    grid = np.linspace(0.5, 1.5, 11)
    points = []
    for eps in (0.05, 0.1, 0.2):
        config = EscConfig(objective=objective, epsilon=eps, dim=1, single_at=True)
        system = build_esc_system(config)
        sigma, m0 = esc_constants(config)
        gap = 0.0
        for th in grid:
            theta = np.array([th])
            est = mean_field_g0(system, theta, 1.0, tol=1e-3, burn_in=20.0, window=400.0)
            gap = max(
                gap,
                abs(float(est.value[0]) - float(esc_meanflow_approx(config, theta, sigma, m0)[0])),
            )
        points.append((eps, gap))
    logs = np.log([p for p, _ in points]), np.log([g for _, g in points])
    slope = float(np.polyfit(logs[0], logs[1], 1)[0])
    shrinking = points[0][1] < points[1][1] < points[2][1]

    quad_cfg = EscConfig(
        objective=Objective(
            lambda th: 0.5 * (th[0] - 1.0) ** 2,
            grad=lambda th: np.atleast_1d(th[0] - 1.0),
        ),
        epsilon=0.1,
        dim=1,
    )
    sigma_q, m0_q = esc_constants(quad_cfg)
    passivity = passivity_metric(sigma_q, m0_q)

    traj = integrate(
        make_esc_quadratic(),
        GainSchedule(rho=0.7, beta=1.0),
        (np.zeros(1), np.zeros(1)),
        5000.0,
        sample_stride=200,
    )
    final_gap = abs(float(traj.theta[-1, 0]) - 1.0)

    ok = shrinking and slope >= 0.7 and passivity > 0 and final_gap < 0.1
    verdict(
        7,
        ok,
        f"grid-gap slope {slope:.3f} over eps (min 0.7, gaps "
        f"{points[0][1]:.2e}/{points[1][1]:.2e}/{points[2][1]:.2e}), "
        f"passivity {passivity:.4f} (> 0), reference run lands {final_gap:.2e} "
        f"from the optimum (tol 0.1)",
        t0,
        600.0,
    )
    record(7, points=points, slope=slope, passivity=passivity, final_gap=final_gap)


def test_criterion_8_probing_number_theory():
    t0 = time.perf_counter()
    basis = default_basis(4)
    dependent = [
        k
        for k in itertools.product(range(-6, 7), repeat=4)
        if rational_dependence(basis, k)
    ]
    only_zero = dependent == [(0, 0, 0, 0)]
    planted = rational_dependence(make_frequency_basis([(2, 1), (4, 1)]), (2, -1))
    verdict(
        8,
        only_zero and planted,
        f"exhaustive |k|_inf <= 6 scan found {len(dependent)} dependent "
        f"vector(s) (expect only k = 0: {only_zero}), planted (2,-1) over "
        f"(2,1),(4,1) detected: {planted}",
        t0,
        5.0,
    )
    record(8, dependent=len(dependent), only_zero=only_zero, planted=planted)


def test_criterion_9_determinism_and_order(tmp_path):
    t0 = time.perf_counter()
    system = make_linear_system()
    schedule = GainSchedule(0.7, 0.1)
    x0 = (np.ones(1), np.ones(1))
    runs = [integrate(system, schedule, x0, 50.0) for _ in range(2)]
    identical = all(
        np.array_equal(getattr(runs[0], name), getattr(runs[1], name))
        for name in ("t", "theta", "lam", "a", "beta", "phases")
    )
    for i, traj in enumerate(runs):
        traj.to_csv(tmp_path / f"run{i}.csv")
    identical = identical and (
        (tmp_path / "run0.csv").read_bytes() == (tmp_path / "run1.csv").read_bytes()
    )

    # Integrator order on the decoupled problem with its quadrature oracle.
    decoupled = make_decoupled_system()
    w = math.log(2.0)
    target, err = quad(
        lambda t: (1.0 + t) ** -0.7 * math.cos(2 * math.pi * w * t),
        0.0,
        10.0,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=500,
    )
    assert err < 1e-11
    sched = GainSchedule(rho=0.7, beta=1.0)
    errs = [
        abs(
            float(
                integrate(decoupled, sched, (np.zeros(1), np.ones(1)), 10.0, step=h).theta[-1, 0]
            )
            - target
        )
        for h in (2e-3, 1e-3)
    ]
    ratio = errs[0] / errs[1]
    verdict(
        9,
        identical and ratio >= 12.0,
        f"bit-identical reruns: {identical}; halving the step shrinks the "
        f"endpoint error x{ratio:.1f} (min 12 for order 4)",
        t0,
        30.0,
    )
    record(9, identical=identical, target=target, endpoint_errors=errs, ratio=ratio)


if __name__ == "__main__":
    _REWRITE = {}
    for test in (
        test_criterion_1_poisson_exactness, test_criterion_2_perturbative_identities,
        test_criterion_3_fast_error_scaling, test_criterion_4_filtered_error_scaling,
        test_criterion_5_slow_error_envelope, test_criterion_6_lyapunov_exponents,
        test_criterion_7_seeker_meanflow, test_criterion_8_probing_number_theory,
    ):
        test()
    with tempfile.TemporaryDirectory() as tmp:
        test_criterion_9_determinism_and_order(Path(tmp))
    payload = {"platform": _platform(), "criteria": _REWRITE}
    VALUES_FILE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {VALUES_FILE}", file=sys.stderr)
