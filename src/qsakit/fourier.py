"""Trigonometric-polynomial fields over the probing clock torus.

A field is a finite sum

    u(x, z) = sum_k c_k(x) * z^k,    z_i = exp(2*pi*j*(omega_i t + phi_i)),

over integer frequency vectors k, with x the joint state (theta; lambda).
Real fields satisfy c_{-k} = conj(c_k).  Every coefficient c_k is a
multivariate polynomial in x with complex vector values (PolyCoeff), so
sums, products and state derivatives stay exact and closed in one kind.

Evaluation takes an optional leading sample axis: states x of shape (n,)
or (N, n) and clocks z of shape (K,) or (N, K) give values of shape (p,)
or (N, p).  Powers of the state and clock coordinates are built by
repeated multiplication, cached per exponent within one call, and every
sample goes through the same array arithmetic, so a batched call equals
the stack of its single-sample calls bit for bit.
"""

import math

import numpy as np


# ---------------------------------------------------------------------------
# coefficient functions

_ZERO_EXP_CACHE = {}


def _zero_exp(n):
    if n not in _ZERO_EXP_CACHE:
        _ZERO_EXP_CACHE[n] = (0,) * n
    return _ZERO_EXP_CACHE[n]


class _Powers:
    """Integer powers and monomials of the columns of an (N, m) array.

    Powers are products of repeated multiplication (negative ones of the
    reciprocal), never ``**``: numpy's power picks its kernel by exponent
    (square, reciprocal, a vector pow), each up to an ulp off the plain
    product, so one fixed order of multiplications keeps every caller's
    arithmetic the same.
    """

    __slots__ = ("cols", "pows", "monos")

    def __init__(self, base):
        self.cols = [np.ascontiguousarray(base[:, j]) for j in range(base.shape[1])]
        self.pows = {}
        self.monos = {}

    def power(self, j, k):
        if k == 1:
            return self.cols[j]
        got = self.pows.get((j, k))
        if got is None:
            if k == -1:
                got = 1.0 / self.cols[j]
            else:
                unit = 1 if k > 0 else -1
                got = self.power(j, k - unit) * self.power(j, unit)
            self.pows[(j, k)] = got
        return got

    def monomial(self, exps):
        """prod_j base_j ** exps_j over the samples; None for all-zero exps."""
        if exps in self.monos:
            return self.monos[exps]
        mono = None
        for j, k in enumerate(exps):
            if k:
                pk = self.power(j, k)
                mono = pk if mono is None else mono * pk
        self.monos[exps] = mono
        return mono


def _samples(arr, width):
    """(N, width) view of a single sample (width,) or a batch (N, width)."""
    arr = np.asarray(arr)
    if arr.ndim == 1:
        return arr.reshape(1, width), True
    return arr, False


class PolyCoeff:
    """Polynomial coefficient: map {exponent tuple: complex vector (p,)}."""

    __slots__ = ("n", "p", "terms")

    def __init__(self, n, p, terms):
        self.n = n
        self.p = p
        clean = {}
        for alpha, vec in terms.items():
            vec = np.asarray(vec, dtype=complex).reshape(p)
            if np.any(vec != 0):
                clean[tuple(int(a) for a in alpha)] = vec
        self.terms = clean

    @classmethod
    def constant(cls, n, vec):
        vec = np.atleast_1d(np.asarray(vec, dtype=complex))
        return cls(n, vec.shape[0], {_zero_exp(n): vec})

    @classmethod
    def zero(cls, n, p):
        return cls(n, p, {})

    def value(self, x):
        """c(x) for x of shape (n,) or (N, n); returns (p,) or (N, p)."""
        xs, single = _samples(x, self.n)
        out = self._value(_Powers(xs), xs.shape[0])
        return out[0] if single else out

    def _value(self, xpow, count):
        out = np.zeros((count, self.p), dtype=complex)
        for alpha, vec in self.terms.items():
            mono = xpow.monomial(alpha)
            out += vec if mono is None else vec * mono[:, None]
        return out

    def diff(self, j):
        out = {}
        for alpha, vec in self.terms.items():
            a = alpha[j]
            if a == 0:
                continue
            shifted = alpha[:j] + (a - 1,) + alpha[j + 1:]
            prev = out.get(shifted)
            out[shifted] = a * vec if prev is None else prev + a * vec
        return PolyCoeff(self.n, self.p, out)

    def add(self, other):
        out = dict(self.terms)
        for alpha, vec in other.terms.items():
            prev = out.get(alpha)
            out[alpha] = vec if prev is None else prev + vec
        return PolyCoeff(self.n, self.p, out)

    def scale(self, z):
        if z == 0:
            return PolyCoeff.zero(self.n, self.p)
        return PolyCoeff(self.n, self.p, {a: z * v for a, v in self.terms.items()})

    def conj(self):
        return PolyCoeff(self.n, self.p, {a: np.conj(v) for a, v in self.terms.items()})

    def mul_component(self, other, j):
        """Pointwise product self(x) * other(x)[j]."""
        out = {}
        for a1, v1 in self.terms.items():
            for a2, v2 in other.terms.items():
                alpha = tuple(x + y for x, y in zip(a1, a2))
                term = v1 * v2[j]
                prev = out.get(alpha)
                out[alpha] = term if prev is None else prev + term
        return PolyCoeff(self.n, self.p, out)

    def restrict(self, lo, hi):
        return PolyCoeff(self.n, hi - lo, {a: v[lo:hi] for a, v in self.terms.items()})

    def bound(self):
        # sum of monomial magnitudes; a sup bound on the unit box, and a
        # reliable detector of coefficients that are zero up to roundoff
        if not self.terms:
            return 0.0
        return float(sum(np.abs(v).sum() for v in self.terms.values()))


# ---------------------------------------------------------------------------
# fields

PRUNE_TOL = 1e-14


class FourierField:
    """Finite map from integer frequency vectors to coefficient functions.

    Treat instances as immutable: every operation returns a new field.
    """

    __slots__ = ("dim_slow", "dim_fast", "dim_out", "num_freqs", "terms")

    def __init__(self, dim_slow, dim_fast, dim_out, num_freqs, terms):
        self.dim_slow = dim_slow
        self.dim_fast = dim_fast
        self.dim_out = dim_out
        self.num_freqs = num_freqs
        n = dim_slow + dim_fast
        clean = {}
        for k, coeff in terms.items():
            k = tuple(int(v) for v in k)
            if len(k) != num_freqs:
                raise ValueError(f"frequency vector {k} has length != {num_freqs}")
            if coeff.n != n or coeff.p != dim_out:
                raise ValueError("coefficient dimensions do not match the field")
            if coeff.bound() < PRUNE_TOL:
                continue
            clean[k] = coeff
        self.terms = clean

    @property
    def n_state(self):
        return self.dim_slow + self.dim_fast

    def eval_complex(self, x, z):
        """Sum of c_k(x) * z^k; z is the complex clock vector.

        x is (n,) or (N, n) and z is (K,) or (N, K); the result is
        (dim_out,) when both are single samples and (N, dim_out) otherwise.
        """
        xs, x_single = _samples(x, self.n_state)
        zs, z_single = _samples(z, self.num_freqs)
        count = max(xs.shape[0], zs.shape[0])
        xpow, zpow = _Powers(xs), _Powers(zs)
        out = np.zeros((count, self.dim_out), dtype=complex)
        for k, coeff in self.terms.items():
            value = coeff._value(xpow, xs.shape[0])
            zk = zpow.monomial(k)
            out += value if zk is None else value * zk[:, None]
        return out[0] if x_single and z_single else out

    def eval(self, x, z):
        """Real field value, (dim_out,) or (N, dim_out) as in eval_complex.

        The imaginary part cancels for real fields.
        """
        return self.eval_complex(x, z).real

    def mean_value(self, x):
        """The k = 0 coefficient at x of shape (n,) or (N, n), real part."""
        coeff = self.terms.get(_zero_exp(self.num_freqs))
        if coeff is None:
            return np.zeros(np.shape(x)[:-1] + (self.dim_out,))
        return coeff.value(x).real

    def add(self, other):
        self._check_compatible(other)
        out = dict(self.terms)
        for k, coeff in other.terms.items():
            prev = out.get(k)
            out[k] = coeff if prev is None else prev.add(coeff)
        return FourierField(self.dim_slow, self.dim_fast, self.dim_out, self.num_freqs, out)

    def scale(self, z):
        return FourierField(
            self.dim_slow,
            self.dim_fast,
            self.dim_out,
            self.num_freqs,
            {k: c.scale(z) for k, c in self.terms.items()},
        )

    def __add__(self, other):
        return self.add(other)

    def __neg__(self):
        return self.scale(-1.0)

    def output_slice(self, lo, hi):
        return FourierField(
            self.dim_slow,
            self.dim_fast,
            hi - lo,
            self.num_freqs,
            {k: c.restrict(lo, hi) for k, c in self.terms.items()},
        )

    def clock_derivative(self, basis):
        """d/dt through the clock only: c_k -> (2*pi*j*<k, omega>) c_k."""
        omega = basis.omega_array()
        out = {}
        for k, coeff in self.terms.items():
            dot = float(np.dot(k, omega))
            if dot == 0.0:
                continue
            out[k] = coeff.scale(2j * math.pi * dot)
        return FourierField(self.dim_slow, self.dim_fast, self.dim_out, self.num_freqs, out)

    def _check_compatible(self, other):
        if (
            self.dim_slow != other.dim_slow
            or self.dim_fast != other.dim_fast
            or self.dim_out != other.dim_out
            or self.num_freqs != other.num_freqs
        ):
            raise ValueError("field dimensions do not match")
