"""Golden digests: the bits of the package's results on small runs.

Each case runs one qsakit subcommand in-process on a small config and
takes the SHA-256 of its exit code, stdout and stderr and of every artifact it
writes.  Two library results are kept as float.hex: the Newton root of
the averaged slow field on a cubic seeker, and the probe moments of
esc_constants.  tests/test_golden_digests.py compares a fresh run with
golden_digests.json, so any change in rounding, even one well inside the
acceptance bands, fails tier-1.

    python tests/golden.py

rewrites golden_digests.json.  A rewrite changes the package's declared
results and belongs in CHANGES.md with its reason.  What the rounding
may depend on is recorded beside the digests (platform()): the numpy
version, the CPU features numpy detects and the dispatch targets it
uses, the BLAS build, OPENBLAS_CORETYPE and the C library.  The complex
exponential behind the probe signal may round differently on another
CPU, and a BLAS dot or matvec on another kernel, which shows as a
mismatch here.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from platform import libc_ver

import numpy as np

DIGEST_FILE = Path(__file__).with_name("golden_digests.json")

#: name -> (subcommand, config, extra arguments); check-slow on its default
#: config exits 4 (the gain envelope is violated), and the exit code is digested
CASES = {
    "check-slow": ("check-slow", {}, []),
    # Newton steps off theta* at least once, so the biases below tol show
    "bias": ("bias", {"experiment": {"beta_list": [0.05, 0.1]}}, []),
    "simulate": ("simulate", {"experiment": {"horizon": 40.0}}, []),
    "simulate-filtered": (
        "simulate",
        {"gains": {"beta": 0.16}, "experiment": {"horizon": 40.0}},
        ["--filtered"],
    ),
    "esc": ("esc", {"gains": {"beta": 1.0}, "experiment": {"horizon": 60.0}}, []),
    "meanflow-grid-g0": (
        "meanflow-grid",
        {
            "system": {"name": "esc-quadratic"},
            "gains": {"beta": 1.0},
            "experiment": {
                "grid_kind": "g0",
                "theta_grid": [0.7, 1.2],
                "burn_in": 5.0,
                "window": 60.0,
                "tol": 0.05,
            },
        },
        [],
    ),
    "meanflow-grid-lambda": (
        "meanflow-grid",
        {
            "experiment": {
                "grid_kind": "lambda",
                "theta_grid": [-0.4, 0.3],
                "burn_in": 20.0,
                "window": 60.0,
                "tol": 0.05,
            },
        },
        [],
    ),
    "lyapunov": (
        "lyapunov",
        {"experiment": {"horizon": 60.0, "theta_grid": [-0.4, 0.3], "lambda0": [0.2]}},
        [],
    ),
    "lyapunov-esc": (
        "lyapunov",
        {
            "system": {"name": "esc-quadratic"},
            "gains": {"beta": 1.0},
            "experiment": {"horizon": 30.0, "theta_grid": [0.7], "lambda0": [0.1]},
        },
        [],
    ),
    "pmf": ("pmf", {"experiment": {"theta0": [0.3], "lambda0": [-0.2]}}, []),
    "sweep-fast": (
        "sweep-fast",
        {
            "experiment": {
                "beta_list": [0.16, 0.2263, 0.32],
                "horizon_scale": 20.0,
                "horizon_cap": 200.0,
                "theta0": [0.2],
                "lambda0": [-0.3],
            },
        },
        [],
    ),
    "sweep-fast-filtered": (
        "sweep-fast",
        {
            "experiment": {
                "beta_list": [0.16, 0.2263, 0.32],
                "horizon_scale": 20.0,
                "horizon_cap": 200.0,
                "theta0": [0.2],
                "lambda0": [-0.3],
            },
        },
        ["--filtered"],
    ),
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def run_case(subcommand, config, extra, work):
    """{relative path: digest} for one CLI run in the empty directory work,
    with "exit", "stdout" and "stderr" for the run itself."""
    from qsakit import cli

    config_path = work / "config.json"
    config_path.write_text(json.dumps(config))
    out = work / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([subcommand, "--config", str(config_path), "--out", str(out), *extra])
    digests = {"exit": str(code)}
    for stream, text in (("stdout", stdout), ("stderr", stderr)):
        digests[stream] = _sha256(text.getvalue().encode())
    for path in sorted(out.rglob("*")):
        if path.is_file():
            digests[path.relative_to(out).as_posix()] = _sha256(path.read_bytes())
    return digests


def _cubic(theta):
    x = theta[0] - 1.0
    return 0.5 * x**2 + x**3


def library_values():
    """float.hex of find_root_g0 on a cubic seeker and of esc_constants."""
    from qsakit.esc import EscConfig, Objective, build_esc_system, esc_constants
    from qsakit.esc import quadratic_objective
    from qsakit.meanflow import find_root_g0

    seeker = build_esc_system(
        EscConfig(objective=Objective(_cubic), epsilon=0.1, dim=1, single_at=True)
    )
    root = find_root_g0(seeker, [1.2], 1.0, 1e-3, avg_tol=0.05, burn_in=5.0, window=60.0)
    sigma, m0 = esc_constants(
        EscConfig(objective=quadratic_objective(center=1.0), epsilon=0.1, dim=1, single_at=True)
    )
    return {
        "find_root_g0": [float(v).hex() for v in root],
        "esc_constants.sigma": [float(v).hex() for v in sigma.ravel()],
        "esc_constants.m0": [float(v).hex() for v in m0.ravel()],
    }


def platform():
    """The numpy version, the CPU features numpy detects, the dispatch
    targets it uses (built, supported and not in NPY_DISABLE_CPU_FEATURES),
    the BLAS build string, OPENBLAS_CORETYPE and the C library."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    disabled = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").replace(",", " ").split()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "cpu_features": sorted(k for k, on in __cpu_features__.items() if on),
        "cpu_dispatch": [
            t for t in __cpu_dispatch__ if __cpu_features__.get(t) and t not in disabled
        ],
        "blas": blas.get("openblas configuration", f"{blas['name']} {blas.get('version')}"),
        "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE"),
        "libc": " ".join(libc_ver()),
    }


def compute():
    """Every case's digests and the library values, as stored."""
    cases = {}
    for name, (subcommand, config, extra) in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            cases[name] = run_case(subcommand, config, extra, Path(tmp))
    return {"cases": cases, "library": library_values()}


def main():
    record = {"platform": platform(), **compute()}
    DIGEST_FILE.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGEST_FILE}")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    main()
