"""Probing-signal tests.

Number-theory facts are checked against an independent prime-factorization
oracle; quadrature averages are checked against a brute-force long-horizon
trapezoid oracle written here.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsakit.errors import DuplicateFrequency, InvalidPair, NonConvergent
from qsakit.probing import (
    DEFAULT_PAIRS,
    _simpson_chunk,
    _simpson_count,
    clock_phases,
    clock_state,
    default_basis,
    ergodic_average,
    identity_map,
    make_frequency_basis,
    probe_signal,
    rational_dependence,
)


def prime_exponents(n):
    """Factor n into {prime: exponent}. Independent oracle helper."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def dependence_oracle(pairs, k):
    """sum k_i ln(a_i/b_i) == 0 iff the net prime exponent vector is zero."""
    net = {}
    for (a, b), ki in zip(pairs, k):
        for p, e in prime_exponents(a).items():
            net[p] = net.get(p, 0) + e * ki
        for p, e in prime_exponents(b).items():
            net[p] = net.get(p, 0) - e * ki
    return all(v == 0 for v in net.values())


class TestBasisConstruction:
    def test_omegas_match_log_ratios(self):
        basis = make_frequency_basis([(2, 1), (3, 1), (3, 2)])
        expected = [math.log(2), math.log(3), math.log(1.5)]
        assert np.allclose(basis.omegas, expected, rtol=0, atol=1e-15)

    def test_rejects_equal_pair(self):
        with pytest.raises(InvalidPair):
            make_frequency_basis([(1, 1)])

    def test_rejects_reversed_pair(self):
        with pytest.raises(InvalidPair):
            make_frequency_basis([(2, 3)])

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidPair):
            make_frequency_basis([(2, 0)])

    def test_rejects_non_integer(self):
        with pytest.raises(InvalidPair):
            make_frequency_basis([(2.5, 1)])

    def test_rejects_duplicate_ratio(self):
        with pytest.raises(DuplicateFrequency):
            make_frequency_basis([(2, 1), (4, 2)])

    def test_phases_reduced_mod_one(self):
        basis = make_frequency_basis([(2, 1)], phases=[1.75])
        assert basis.phases == (0.75,)

    def test_default_basis_pairs(self):
        basis = default_basis(4)
        assert basis.pairs == DEFAULT_PAIRS
        assert len(set(basis.omegas)) == 4


class TestRationalDependence:
    def test_zero_vector_always_dependent(self):
        basis = default_basis(4)
        assert rational_dependence(basis, (0, 0, 0, 0))

    def test_planted_dependence_detected(self):
        basis = make_frequency_basis([(2, 1), (4, 1)])
        assert rational_dependence(basis, (2, -1))
        assert rational_dependence(basis, (-2, 1))
        assert not rational_dependence(basis, (1, -1))

    def test_default_basis_exhaustive_low_order(self):
        # smaller range here; the acceptance suite runs the full one
        basis = default_basis(4)
        for k in itertools.product(range(-3, 4), repeat=4):
            assert rational_dependence(basis, k) == (k == (0, 0, 0, 0))

    def test_order_cap_enforced(self):
        basis = default_basis(2)
        with pytest.raises(ValueError):
            rational_dependence(basis, (65, 0))

    def test_wrong_length_rejected(self):
        basis = default_basis(2)
        with pytest.raises(ValueError):
            rational_dependence(basis, (1, 0, 0))

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(2, 30), st.integers(1, 29)).filter(lambda p: p[0] > p[1]),
            min_size=1,
            max_size=4,
        ),
        st.data(),
    )
    def test_matches_prime_factorization_oracle(self, pairs, data):
        try:
            basis = make_frequency_basis(pairs)
        except DuplicateFrequency:
            return
        k = data.draw(
            st.lists(st.integers(-8, 8), min_size=len(pairs), max_size=len(pairs))
        )
        assert rational_dependence(basis, k) == dependence_oracle(pairs, k)


class TestClockAndProbe:
    def test_probe_value_single_frequency(self):
        basis = make_frequency_basis([(2, 1)])
        xi = probe_signal(identity_map(1), basis, 1.0)
        assert xi.shape == (1,)
        assert xi[0] == pytest.approx(math.cos(2 * math.pi * math.log(2)), abs=1e-15)

    def test_probe_bit_reproducible(self):
        basis = default_basis(4, phases=[0.1, 0.2, 0.3, 0.4])
        pmap = identity_map(4)
        for t in (0.0, 1.0, 1234.56789, 99999.25):
            a = probe_signal(pmap, basis, t)
            b = probe_signal(pmap, basis, t)
            assert a.tobytes() == b.tobytes()

    def test_clock_on_unit_circle(self):
        basis = default_basis(4)
        for t in (0.0, 3.7, 1e4, 2.5e5):
            state = clock_state(basis, t)
            assert np.max(np.abs(np.abs(state.phi) - 1.0)) < 1e-12

    def test_phases_vectorized_matches_scalar(self):
        basis = default_basis(3, phases=[0.5, 0.25, 0.0])
        times = np.array([0.0, 1.5, 777.125, 1e4])
        block = clock_phases(basis, times)
        for j, t in enumerate(times):
            assert np.array_equal(block[:, j], clock_phases(basis, float(t)))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0, 1, allow_nan=False), st.floats(0, 100, allow_nan=False))
    def test_probe_periodic_in_phase(self, phase, t):
        b0 = make_frequency_basis([(3, 2)], phases=[phase])
        b1 = make_frequency_basis([(3, 2)], phases=[phase + 1.0])
        pmap = identity_map(1)
        x0 = probe_signal(pmap, b0, t)
        x1 = probe_signal(pmap, b1, t)
        assert abs(x0[0] - x1[0]) < 1e-12


def brute_average(basis, func, horizon, dt=0.005):
    """Trapezoid time average, chunked; the independent oracle."""
    n = int(horizon / dt)
    total = 0.0
    chunk = 1 << 16
    omega = basis.omega_array()[:, None]
    phase0 = np.asarray(basis.phases, dtype=float)[:, None]
    for lo in range(0, n + 1, chunk):
        hi = min(lo + chunk, n + 1)
        t = np.arange(lo, hi) * dt
        xi = np.cos(2 * math.pi * ((omega * t + phase0) % 1.0))
        v = func(xi)
        w = np.ones(hi - lo)
        if lo == 0:
            w[0] = 0.5
        if hi == n + 1:
            w[-1] = 0.5
        total += float(v @ w) * dt
    return total / horizon


class TestErgodicAverage:
    def test_cross_product_near_zero(self):
        basis = make_frequency_basis([(2, 1), (3, 1)])
        res = ergodic_average(
            lambda x, xi: xi[0] * xi[1], np.zeros(1), basis, identity_map(2), tol=1e-4
        )
        oracle = brute_average(basis, lambda xi: xi[0] * xi[1], horizon=1e5, dt=0.02)
        assert abs(oracle) < 2e-4
        assert abs(float(res.value[0]) - oracle) < 5e-4

    def test_second_moments_default_basis(self):
        basis = default_basis(4)
        pmap = identity_map(4)

        def moments(x, xi):
            return np.stack([xi[i] * xi[j] for i in range(4) for j in range(4)])

        res = ergodic_average(moments, np.zeros(1), basis, pmap, tol=2e-4)
        got = res.value.reshape(4, 4)
        assert np.max(np.abs(got - 0.5 * np.eye(4))) < 1e-3

    def test_reports_horizon(self):
        basis = default_basis(2)
        res = ergodic_average(
            lambda x, xi: xi[0] ** 2, np.zeros(1), basis, identity_map(2), tol=1e-3
        )
        assert res.horizon >= 128.0

    def test_nonconvergent_when_cap_too_small(self):
        basis = default_basis(2)
        with pytest.raises(NonConvergent):
            ergodic_average(
                lambda x, xi: xi[0] ** 2,
                np.zeros(1),
                basis,
                identity_map(2),
                tol=1e-15,
                t_cap=256.0,
            )

    def test_nonconvergent_carries_the_last_two_estimates(self):
        # tol 1e-18 is below what the quadrature can reach; the cap is kept
        # small so the test stays short (the default cap gives the same
        # names at horizons 524288 and 1048576)
        def u(x, xi):
            return xi[0] ** 3 + 1e-3 * np.sin(xi[0])

        args = (np.zeros(1), default_basis(1), identity_map(1))
        with pytest.raises(NonConvergent) as err:
            ergodic_average(u, *args, tol=1e-18, t_cap=4096.0)
        assert str(err.value) == (
            "ergodic average did not settle within tol=1e-18 by horizon 4096"
        )
        # an infinite tolerance returns the estimate at twice t_start
        want = {
            f"estimate at horizon {t}": ergodic_average(
                u, *args, tol=math.inf, t_start=t / 2
            ).value.tolist()
            for t in (2048, 4096)
        }
        assert err.value.estimates == want
        assert err.value.__notes__ == [f"{k}: {v}" for k, v in want.items()]

    def test_nonconvergent_with_one_estimate(self):
        with pytest.raises(NonConvergent) as err:
            ergodic_average(
                lambda x, xi: xi[0] ** 2, np.zeros(1), default_basis(1), identity_map(1),
                tol=1e-15, t_cap=100.0,
            )
        assert list(err.value.estimates) == ["estimate at horizon 64"]


def _simpson_nodes(horizon, max_omega):
    """ergodic_average's nodes and weights as once built for the whole
    horizon at once: np.linspace nodes, Simpson weights."""
    n = int(math.ceil(horizon / (1.0 / (40.0 * max_omega))))
    if n % 2 == 1:
        n += 1
    n = max(n, 2)
    t = np.linspace(0.0, horizon, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (horizon / n) / 3.0
    return t, w


class TestSimpsonChunks:
    @pytest.mark.parametrize("horizon", [0.01, 64.0, 100.0, 3000.0, 6000.0])
    @pytest.mark.parametrize("chunk", [7, 1000, 1 << 17])
    def test_chunks_are_the_whole_horizon_nodes(self, horizon, chunk):
        """Bit for bit, across chunk boundaries and a short last chunk, with
        n rounded up to even (from 1, 2813, 4395 and 263,667)."""
        max_omega = math.log(3.0)
        t, w = _simpson_nodes(horizon, max_omega)
        n = _simpson_count(horizon, max_omega)
        assert n == t.size - 1
        parts = [_simpson_chunk(horizon, n, lo, min(lo + chunk, n + 1))
                 for lo in range(0, n + 1, chunk)]
        assert np.concatenate([p[0] for p in parts]).tobytes() == t.tobytes()
        assert np.concatenate([p[1] for p in parts]).tobytes() == w.tobytes()

    def test_average_over_several_chunks_is_the_whole_horizon_sum(self):
        """At horizon 6000 the 263,668 nodes take three chunks; the estimate
        equals the chunked sum over the whole-horizon nodes in float.hex."""
        basis, pmap = default_basis(2), identity_map(2)

        def u(x, xi):
            return np.vstack([xi[0] * xi[1], xi[0] ** 2])

        t, w = _simpson_nodes(6000.0, basis.max_omega)
        total = None
        for lo in range(0, t.size, 1 << 17):
            part = u(None, probe_signal(pmap, basis, t[lo:lo + (1 << 17)])) @ w[lo:lo + (1 << 17)]
            total = part if total is None else total + part
        got = ergodic_average(u, np.zeros(1), basis, pmap, tol=1.0, t_start=3000.0)
        assert got.horizon == 6000.0
        assert [v.hex() for v in got.value.tolist()] == [v.hex() for v in (total / 6000.0).tolist()]
