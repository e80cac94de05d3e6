"""Transfer-function and passivity checks for the filter layer.

Oracles: closed-form transfer functions (washout s/(s+w), second-order
g^2/(s^2+2 zeta g s + g^2)) evaluated directly, and an equivalent
state-space realization cross-checked against the dataclass form.
"""

import numpy as np
import pytest

from qsakit.errors import ConfigError, SingularF, SingularResolvent
from qsakit.filters import (
    SecondOrderFilter,
    StateSpaceFilter,
    gamma0,
    passivity_metric,
    transfer,
    washout_filter,
)


class TestWashout:
    def test_dc_zero(self):
        filt = washout_filter(1.0)
        assert abs(transfer(filt, 0.0)) < 1e-12

    def test_high_frequency_passthrough(self):
        filt = washout_filter(1.0)
        assert abs(transfer(filt, 1e9) - 1.0) < 1e-8

    def test_matches_closed_form(self):
        w = 0.37
        filt = washout_filter(w)
        for s in [0.1, 1.0, 10.0, 1j, 2.0 + 3.0j, -0.5 + 0.1j]:
            assert abs(transfer(filt, s) - s / (s + w)) < 1e-13

    def test_gamma0_is_minus_one(self):
        assert gamma0(washout_filter(1.0)) == pytest.approx(-1.0, abs=1e-14)
        assert gamma0(washout_filter(0.05)) == pytest.approx(-1.0, abs=1e-12)

    def test_corner_must_be_positive(self):
        with pytest.raises(ConfigError):
            washout_filter(0.0)
        with pytest.raises(ConfigError):
            washout_filter(-2.0)


class TestStateSpace:
    def test_direct_feedthrough_only(self):
        filt = StateSpaceFilter(F=[[-1.0]], G=[0.0], H=[0.0], J=1.0)
        for s in [0.0, 1.0, 1j, 100.0]:
            assert transfer(filt, s) == pytest.approx(1.0, abs=1e-14)

    def test_dc_identity(self):
        # transfer(0) = gamma0 + J for any filter with invertible F
        filt = StateSpaceFilter(
            F=[[-1.0, 0.3], [0.2, -2.0]], G=[1.0, -0.5], H=[0.7, 1.1], J=0.25
        )
        assert abs(transfer(filt, 0.0) - (gamma0(filt) + filt.J)) < 1e-12

    def test_resolvent_guard(self):
        filt = washout_filter(1.0)
        with pytest.raises(SingularResolvent):
            transfer(filt, -1.0)
        with pytest.raises(SingularResolvent):
            transfer(filt, -1.0 + 1e-13)
        # just outside the guard is fine
        transfer(filt, -1.0 + 1e-9)

    def test_singular_f(self):
        filt = StateSpaceFilter(F=[[0.0]], G=[1.0], H=[1.0], J=0.0)
        with pytest.raises(SingularF):
            gamma0(filt)

    def test_nonsquare_rejected(self):
        with pytest.raises(ConfigError):
            StateSpaceFilter(F=np.zeros((2, 3)), G=[1, 0], H=[1, 0], J=0.0)


class TestPassivity:
    def test_identity(self):
        assert passivity_metric(np.eye(2), np.zeros((2, 2))) == pytest.approx(1.0)

    def test_skew_part_drops_out(self):
        for s in [0.0, 1.0, -3.7, 100.0]:
            m = np.array([[0.5, s], [-s, 0.5]])
            assert passivity_metric(m, np.zeros((2, 2))) == pytest.approx(0.5)

    def test_sum_enters(self):
        sigma = np.eye(2)
        m0 = np.diag([-0.4, 0.2])
        assert passivity_metric(sigma, m0) == pytest.approx(0.6)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            passivity_metric(np.eye(2), np.zeros((3, 3)))


class TestSecondOrder:
    def test_gamma_product_exact(self):
        filt = SecondOrderFilter(beta=0.7, zeta=0.7, eta=0.3)
        assert filt.gamma == 0.3 * 0.7

    def test_unit_dc(self):
        filt = SecondOrderFilter(beta=0.2)
        assert filt.transfer(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            SecondOrderFilter(beta=0.1, zeta=1.0)
        with pytest.raises(ConfigError):
            SecondOrderFilter(beta=0.1, zeta=0.0)
        with pytest.raises(ConfigError):
            SecondOrderFilter(beta=0.1, eta=-1.0)
        with pytest.raises(ConfigError):
            SecondOrderFilter(beta=0.0)

    def test_matches_state_space_realization(self):
        # the integrator's two-state form must realize the same transfer
        filt = SecondOrderFilter(beta=0.5, zeta=0.6, eta=1.3)
        g = filt.gamma
        ss = StateSpaceFilter(
            F=[[0.0, 1.0], [-g**2, -2 * filt.zeta * g]],
            G=[0.0, g**2],
            H=[1.0, 0.0],
            J=0.0,
        )
        for s in [0.0, 0.1j, 1.0, 1j * g, 3.0 + 2.0j]:
            assert abs(filt.transfer(s) - transfer(ss, s)) < 1e-12

    def test_probe_attenuation_bound(self):
        # beyond ten natural frequencies the gain rolls off at least as
        # (gamma/omega)^2 up to the stated damping factor
        filt = SecondOrderFilter(beta=0.5, zeta=0.7, eta=1.0)
        g = filt.gamma
        for w in np.geomspace(10 * g, 1e4 * g, 40):
            bound = (g / w) ** 2 * (1 + 2 * filt.zeta)
            assert abs(filt.transfer(1j * w)) <= bound
