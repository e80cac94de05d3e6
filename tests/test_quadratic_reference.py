"""The built-in quadratic objective against its numpy expression, bit for bit.

quadratic_objective evaluates on Python floats for up to 7 coordinates.
The reference below is the numpy expression it replaced, verbatim; every
comparison is of the packed binary64 bits, so signed zeros and infinities
count.  The arithmetic helper esc._quadratic_value is also fed weights
that quadratic_objective rejects (zero, negative): those make -0.0 terms,
which is where the accumulator's +0.0 start shows.
"""

import struct
import warnings

import numpy as np
import pytest

from qsakit.errors import ConfigError
from qsakit.esc import _quadratic_value, quadratic_objective


def reference(th, c, w):
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * float((w * (th - c) ** 2).sum())


def bits(x):
    return struct.pack("d", x)


def draw(rng, n, zeros=True):
    """n values mixing magnitudes, signed zeros and overflowing squares."""
    out = rng.uniform(-3.0, 3.0, n) * 10.0 ** rng.integers(-6, 7, n)
    kind = rng.random(n)
    if zeros:
        out[kind < 0.15] = 0.0
        out[(kind >= 0.15) & (kind < 0.3)] = -0.0
    out[(kind >= 0.3) & (kind < 0.38)] = 1e200 * np.sign(out[(kind >= 0.3) & (kind < 0.38)])
    return out


def same(th, c, w, value):
    want = reference(th, c, w)
    assert bits(value) == bits(want), (th, c, w, value, want)


@pytest.mark.parametrize("n", range(1, 8))
def test_float_path_matches_numpy(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(600):
        th = draw(rng, n)
        c = draw(rng, n) if rng.random() < 0.5 else np.array(draw(rng, 1)[0])
        w = np.abs(draw(rng, n, zeros=False)) + 1e-300
        if rng.random() < 0.5:
            w = np.array(w[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning, no OverflowError
            same(th, c, w, quadratic_objective(center=c, weights=w)(th))


@pytest.mark.parametrize("n", range(1, 8))
def test_signed_weights_and_zeros(n):
    # zero and negative weights make -0.0 terms: numpy's sum starts at +0.0
    rng = np.random.default_rng(200 + n)
    for _ in range(600):
        th, c = draw(rng, n), draw(rng, n)
        w = draw(rng, n) if rng.random() < 0.7 else np.array(draw(rng, 1)[0])
        if rng.random() < 0.5:
            c = np.array(c[0])
        same(th, c, w, _quadratic_value(c, w)(th))


def test_negative_zero_term_sums_to_positive_zero():
    th, c = np.array([0.0]), np.array(0.0)
    for w in (np.array(-1.0), np.array([-0.0]), np.array(-2.5)):
        value = _quadratic_value(c, w)(th)
        assert bits(value) == bits(reference(th, c, w)) == bits(0.0)


@pytest.mark.parametrize("n", [1, 3, 7])
def test_overflow_gives_inf(n):
    th = np.full(n, 1e200)
    obj = quadratic_objective(center=-1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = obj(th)
    assert value == np.inf
    same(th, np.array(-1e200), np.array(1.0), value)


def test_scalar_and_vector_parameters():
    th = np.array([0.3, -1.7, 2.25])
    for c in (0.5, [0.5, -0.25, 1e-3]):
        for w in (2.0, [1.0, 3.0, 0.125]):
            value = quadratic_objective(center=c, weights=w)(th)
            same(th, np.asarray(c, dtype=float), np.asarray(w, dtype=float), value)


def test_broadcast_center_takes_numpy():
    # a (2,) center against a (1,) theta: numpy broadcasts to two terms
    c, w = np.array([1.0, -0.5]), np.array([1.0, 4.0])
    th = np.array([0.25])
    value = quadratic_objective(center=c, weights=w)(th)
    assert value == pytest.approx(0.5 * (0.75**2 + 4.0 * 0.75**2))
    same(th, c, w, value)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("n", [8, 9])
def test_eight_and_more_take_numpy(n):
    rng = np.random.default_rng(300 + n)
    for _ in range(300):
        th, c = draw(rng, n, zeros=False), draw(rng, n, zeros=False)
        w = np.abs(draw(rng, n, zeros=False)) + 1e-300
        same(th, c, w, quadratic_objective(center=c, weights=w)(th))


def test_lists_and_integer_points():
    obj = quadratic_objective(center=[1.0, 2.0], weights=[0.5, 3.0])
    want = obj(np.array([3.0, -1.0]))
    assert bits(obj([3, -1])) == bits(obj(np.array([3, -1]))) == bits(want)
    with pytest.raises(ConfigError):
        quadratic_objective(weights=[1.0, -0.0])
