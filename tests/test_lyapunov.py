"""Sensitivity-process exponent checks.

Oracles: hand-computed spectra of constant linear fast fields (scalar
decay -1; the 2x2 companion matrix of s^2+2s+2 with eigenvalues -1 +/- j),
and exact beta-linearity of the scaling for fields linear in lambda.
"""

import re

import numpy as np
import pytest

from qsakit.dynamics import StageText, TwoTimescaleSystem
from qsakit.errors import ConfigError, Inconclusive, NonFinite
from qsakit.lyapunov import ExponentEstimate, lyapunov_exponent, write_exponent_csv
from qsakit.probing import make_frequency_basis
from qsakit.systems import make_linear_system


def one_tone_system(fast, jac):
    """A fast field as text over one tone's probe row, slow field 0."""
    text = StageText(("0.0",), (fast,), (jac,), 1, "", None, (), ())
    return TwoTimescaleSystem(1, 1, make_frequency_basis([(2, 1)]), text=text)


def scalar_decay_system():
    return one_tone_system("-la0", "-1.0")


def matrix_text(F):
    """The fast field F lambda as text over one tone's probe row, each row
    summed from 0.0 in index order, with its Jacobian F, slow field 0."""
    F = np.asarray(F, dtype=float)
    d = F.shape[0]
    names = tuple(f"f{k}" for k in range(d * d))
    fast = tuple("0.0" + "".join(f" + f{i * d + k} * la{k}" for k in range(d)) for i in range(d))
    return StageText(("0.0",), fast, names, 1, "", None, names, tuple(F.ravel().tolist()))


def matrix_system(F):
    F = np.asarray(F, dtype=float)
    return TwoTimescaleSystem(1, F.shape[0], make_frequency_basis([(2, 1)]), text=matrix_text(F))


def linear_model_system():
    text = StageText(
        ("0.0",), ("-2.0 * th0 - la0 + xi1 * (la0 + 1.0)",), ("-1.0 + xi1",), 2, "", None, (), ()
    )
    return TwoTimescaleSystem(
        1, 1, make_frequency_basis([(2, 1), (3, 1)], phases=[0.75, 0.75]), text=text
    )


class TestKnownSpectra:
    def test_scalar_decay(self):
        est = lyapunov_exponent(
            scalar_decay_system(), np.zeros(1), 1.0, np.ones(1), 60.0
        )
        assert est.exponent == pytest.approx(-1.0, abs=1e-3)
        assert est.tail_exponent == pytest.approx(-1.0, abs=1e-3)

    def test_companion_matrix_complex_pair(self):
        # eigenvalues of [[0,1],[-2,-2]] are -1 +/- j
        est = lyapunov_exponent(
            matrix_system([[0.0, 1.0], [-2.0, -2.0]]),
            np.zeros(1),
            1.0,
            np.array([1.0, 0.0]),
            200.0,
        )
        assert est.exponent == pytest.approx(-1.0, abs=1e-2)

    def test_positive_exponent_detected(self):
        est = lyapunov_exponent(
            matrix_system([[0.3]]), np.zeros(1), 1.0, np.ones(1), 60.0
        )
        assert est.exponent == pytest.approx(0.3, abs=1e-3)


class TestInvariants:
    def test_beta_linearity(self):
        sys_ = linear_model_system()
        kwargs = dict(lambda0=np.zeros(1), horizon=400.0)
        low = lyapunov_exponent(sys_, np.ones(1), 0.25, **kwargs)
        high = lyapunov_exponent(sys_, np.ones(1), 0.5, **kwargs)
        assert high.exponent / low.exponent == pytest.approx(2.0, rel=0.02)

    def test_drive_independence(self):
        # the Jacobian of the fast field does not involve theta, so the
        # exponent cannot either
        sys_ = linear_model_system()
        kwargs = dict(beta=0.5, lambda0=np.zeros(1), horizon=400.0)
        a = lyapunov_exponent(sys_, np.array([1.0]), **kwargs)
        b = lyapunov_exponent(sys_, np.array([-3.0]), **kwargs)
        assert abs(a.exponent - b.exponent) < 1e-3

    def test_long_horizon_rescaling_stable(self):
        # strongly contracting run long enough that raw ||S|| would underflow
        est = lyapunov_exponent(
            scalar_decay_system(), np.zeros(1), 2.0, np.ones(1), 500.0
        )
        assert est.exponent == pytest.approx(-2.0, abs=1e-3)


class TestFailureModes:
    def test_inconclusive_on_transient(self):
        # fast field whose Jacobian flips sign at lambda = 2: the first half
        # sees growth toward the attractor, the tail sees contraction
        sys_ = one_tone_system("la0 * (2.0 - la0)", "2.0 - 2.0 * la0")
        with pytest.raises(Inconclusive) as err:
            lyapunov_exponent(sys_, np.zeros(1), 1.0, np.array([0.01]), 40.0)
        # both halves' estimates, named by their spans, in the message too
        first, tail = err.value.estimates.values()
        assert list(err.value.estimates) == ["exponent over [0, 20]", "exponent over [20, 40]"]
        assert str(err.value) == (
            f"half-horizon exponent estimates {first:.4e} and {tail:.4e} disagree; "
            "increase the horizon"
        )
        assert tail < first  # the growth phase lies in the first half
        assert err.value.__notes__ == [
            f"exponent over [0, 20]: {first}", f"exponent over [20, 40]: {tail}"
        ]

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_nonfinite_propagates(self):
        # dl/dt = l^2 from 1e300 overflows within the first step; its
        # Jacobian 2 l reads Lambda, so Lambda rides in the stack (on a
        # Jacobian that reads no Lambda, S rides alone and Lambda never
        # enters: tests/test_stage_text.py)
        est_sys = one_tone_system("la0 * la0", "2.0 * la0")
        with pytest.raises(NonFinite):
            lyapunov_exponent(
                est_sys, np.zeros(1), 1.0, np.full(1, 1e300), 400.0, step=0.03
            )

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_degenerate_norm(self):
        # S grows about 1e6-fold per step yet stays finite; at the first
        # unit-time rescale ||S||^2 overflows, so the norm is infinite
        with pytest.raises(NonFinite, match="sensitivity norm degenerate") as info:
            lyapunov_exponent(
                matrix_system([[2000.0]]), np.zeros(1), 1.0, np.full(1, 1e-300), 10.0
            )
        assert info.value.time == pytest.approx(1.00719, abs=1e-5)

    def test_beta_validation(self):
        with pytest.raises(ConfigError):
            lyapunov_exponent(scalar_decay_system(), np.zeros(1), 0.0, np.ones(1), 10.0)

    @pytest.mark.parametrize("make", [scalar_decay_system, make_linear_system])
    def test_one_step_horizon(self, make):
        # both halves end at the one step: the tail rate divided by zero
        with pytest.raises(ConfigError, match="^horizon 0.01 spans one RK4 step"):
            lyapunov_exponent(make(), np.zeros(1), 1.0, np.ones(1), 0.01)

    def test_lambda0_shape(self):
        with pytest.raises(ConfigError):
            lyapunov_exponent(scalar_decay_system(), np.zeros(1), 1.0, np.ones(2), 10.0)

    def test_theta_shape(self):
        with pytest.raises(ConfigError, match="theta shape"):
            lyapunov_exponent(
                make_linear_system(), np.array([0.3, 99.0]), 0.1, np.zeros(1), 10.0
            )

    @pytest.mark.parametrize(
        "jac, d, message",
        [
            (("0.0",) * 2, 2, "has 2 jac part(s), expected 4"),
            ("0.0, 0.0, 0.0, 0.0", 2, "jac is a str, not a tuple of expressions"),
            ((("0.0",) * 4,), 2, "jac holds a tuple, not an expression"),
            (("0.0",) * 4, 1, "has 4 jac part(s), expected 1"),
            (("0.0",) * 3, 1, "has 3 jac part(s), expected 1"),
        ],
        ids=["d2-vector", "d2-flat", "d2-row", "d1-eye2", "d1-vector"],
    )
    def test_malformed_analytic_jacobian(self, jac, d, message):
        # the system refuses the Jacobian text when it is built
        text = matrix_text(-np.eye(d))._replace(jac=jac)
        with pytest.raises(ConfigError, match=f"^stage text {re.escape(message)}$"):
            TwoTimescaleSystem(1, d, make_frequency_basis([(2, 1)]), text=text)


class TestGridAndCsv:
    def test_csv_layout(self, tmp_path):
        ests = [
            ExponentEstimate(exponent=-1.0, tail_exponent=-1.01, horizon=100.0),
            ExponentEstimate(exponent=-0.5, tail_exponent=-0.49, horizon=100.0),
        ]
        out = tmp_path / "exp.csv"
        write_exponent_csv(
            out, [np.array([0.0]), np.array([1.0])], [0.5, 0.5], ests
        )
        text = out.read_text()
        assert text.split("\n", 1)[0] == "theta_1,beta,exponent,tail_exponent,horizon"
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (2, 5)
        assert data[0, 2] == -1.0
        assert data[1, 1] == 0.5
