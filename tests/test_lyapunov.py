"""Sensitivity-process exponent checks.

Oracles: hand-computed spectra of constant linear fast fields (scalar
decay -1; the 2x2 companion matrix of s^2+2s+2 with eigenvalues -1 +/- j),
and exact beta-linearity of the scaling for fields linear in lambda.
"""

import numpy as np
import pytest

from qsakit.dynamics import TwoTimescaleSystem
from qsakit.errors import ConfigError, Inconclusive, NonFinite
from qsakit.lyapunov import ExponentEstimate, lyapunov_exponent, write_exponent_csv
from qsakit.probing import make_frequency_basis
from qsakit.systems import make_linear_system


def scalar_decay_system():
    return TwoTimescaleSystem(
        1,
        1,
        lambda t, l, x: np.zeros(1),
        lambda t, l, x: np.atleast_1d(-l[0]),
        make_frequency_basis([(2, 1)]),
    )


def matrix_system(F, analytic=True):
    F = np.asarray(F, dtype=float)
    d = F.shape[0]
    kwargs = {}
    if analytic:
        kwargs["dh_dlambda"] = lambda t, l, x: F
    return TwoTimescaleSystem(
        1,
        d,
        lambda t, l, x: np.zeros(1),
        lambda t, l, x: F @ l,
        make_frequency_basis([(2, 1)]),
        **kwargs,
    )


def linear_model_system():
    def h(theta, lam, xi):
        return np.atleast_1d(-2.0 * theta[0] - lam[0] + xi[1] * (lam[0] + 1.0))

    return TwoTimescaleSystem(
        1,
        1,
        lambda t, l, x: np.zeros(1),
        h,
        make_frequency_basis([(2, 1), (3, 1)], phases=[0.75, 0.75]),
        dh_dlambda=lambda t, l, x: np.array([[-1.0 + x[1]]]),
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

    def test_fd_jacobian_matches_analytic(self):
        F = [[0.0, 1.0], [-2.0, -2.0]]
        kwargs = dict(beta=1.0, lambda0=np.array([1.0, 0.0]), horizon=80.0)
        with_jac = lyapunov_exponent(matrix_system(F, True), np.zeros(1), **kwargs)
        without = lyapunov_exponent(matrix_system(F, False), np.zeros(1), **kwargs)
        assert with_jac.exponent == pytest.approx(without.exponent, abs=1e-6)

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
        def h(theta, lam, xi):
            return np.atleast_1d(lam[0] * (2.0 - lam[0]))

        sys_ = TwoTimescaleSystem(
            1,
            1,
            lambda t, l, x: np.zeros(1),
            h,
            make_frequency_basis([(2, 1)]),
            dh_dlambda=lambda t, l, x: np.array([[2.0 - 2.0 * l[0]]]),
        )
        with pytest.raises(Inconclusive):
            lyapunov_exponent(sys_, np.zeros(1), 1.0, np.array([0.01]), 40.0)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_nonfinite_propagates(self):
        est_sys = matrix_system([[5.0]])
        with pytest.raises(NonFinite):
            # growth e^{5t} overflows well before t = 400
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

    def test_lambda0_shape(self):
        with pytest.raises(ConfigError):
            lyapunov_exponent(scalar_decay_system(), np.zeros(1), 1.0, np.ones(2), 10.0)

    def test_theta_shape(self):
        with pytest.raises(ConfigError, match="theta shape"):
            lyapunov_exponent(
                make_linear_system(), np.array([0.3, 99.0]), 0.1, np.zeros(1), 10.0
            )

    @pytest.mark.parametrize(
        "jacobian, d",
        [
            (np.zeros(2), 2),
            (np.zeros(4), 2),
            (np.zeros((1, 4)), 2),
            (np.eye(2), 1),
            (np.zeros(3), 1),
        ],
        ids=["d2-vector", "d2-flat", "d2-row", "d1-eye2", "d1-vector"],
    )
    def test_malformed_analytic_jacobian(self, jacobian, d):
        F = -np.eye(d)
        system = TwoTimescaleSystem(
            1,
            d,
            lambda t, l, x: np.zeros(1),
            lambda t, l, x: F @ l,
            make_frequency_basis([(2, 1)]),
            dh_dlambda=lambda t, l, x: jacobian,
        )
        with pytest.raises(ConfigError, match="dh_dlambda returned"):
            lyapunov_exponent(system, np.zeros(1), 1.0, np.ones(d), 10.0)


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
