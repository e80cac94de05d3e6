"""Exact Poisson-equation machinery on the probing clock torus.

For a zero-mean trigonometric-polynomial forcing u(x, z) the solution of

    d/dt u_hat(x, Phi_t) = -u(x, Phi_t)        (x frozen)

is algebraic in the frequency domain: each coefficient is divided by
2*pi*j*<k, omega>.  Directional derivatives along the slow and fast vector
fields close the algebra, and from these the perturbative representation of
the fast dynamics is assembled:

    dLambda/dt = beta * [h_bar(X_t) - beta*upsilon_ff_bar(X_t) + W_t],
    W_t = beta^2 W0_t + beta * (d/dt) W1_t + (d^2/dt^2) W2_t,

an identity that holds pointwise; experiments.pmf_identity_suite checks it
to roundoff along a run.  The d/dt acting on W1 treats the explicit gain
factor a_t as frozen; the gain's own variation is already carried by the
r_t a_t term inside W0.  Mean (k = 0)
content of W1 is folded into W0 through its exact time-derivative expansion
so that W1 and W2 are zero-mean by construction.
"""

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import NotZeroMean, ZeroDivisor
from .fourier import FourierField, _zero_exp
from .probing import inner_frequency, rational_dependence


def mean_part(u):
    """The k = 0 term of u as a field (empty when u is zero-mean)."""
    zero = _zero_exp(u.num_freqs)
    terms = {zero: u.terms[zero]} if zero in u.terms else {}
    return FourierField(u.dim_slow, u.dim_fast, u.dim_out, u.num_freqs, terms)


def zero_mean_part(u):
    """u minus its clock average: drop the k = 0 term."""
    zero = _zero_exp(u.num_freqs)
    terms = {k: c for k, c in u.terms.items() if k != zero}
    return FourierField(u.dim_slow, u.dim_fast, u.dim_out, u.num_freqs, terms)


def solve_poisson(u_tilde, basis):
    """Solve d/dt u_hat = -u_tilde on the clock torus, zero-mean normalized.

    Requires u_tilde zero-mean and every active frequency vector rationally
    independent; coefficients are divided by 2*pi*j*<k, omega>.
    """
    zero = _zero_exp(u_tilde.num_freqs)
    if zero in u_tilde.terms:
        raise NotZeroMean("forcing has a k = 0 term; take the zero-mean part first")
    out = {}
    for k, coeff in u_tilde.terms.items():
        if rational_dependence(basis, k):
            raise ZeroDivisor(
                f"frequency vector {k} satisfies <k, omega> = 0; "
                "the probing basis is rationally dependent at this index"
            )
        dot = inner_frequency(basis, k)
        # -1/(2 pi j dot) == j/(2 pi dot)
        out[k] = coeff.scale(1j / (2.0 * math.pi * dot))
    return FourierField(u_tilde.dim_slow, u_tilde.dim_fast, u_tilde.dim_out, u_tilde.num_freqs, out)


def directional_derivative(u_hat, v, slot):
    """Field form of (d/dx_slot u_hat) . v with frequency-index convolution.

    slot selects the state block the Jacobian is taken over: "slow" for the
    leading theta coordinates, "fast" for the trailing lambda coordinates.
    v must take values in that block.
    """
    if slot == "slow":
        lo, width = 0, u_hat.dim_slow
    elif slot == "fast":
        lo, width = u_hat.dim_slow, u_hat.dim_fast
    else:
        raise ValueError(f"slot must be 'slow' or 'fast', got {slot!r}")
    if v.dim_out != width:
        raise ValueError(f"direction field has {v.dim_out} outputs, slot needs {width}")
    if (v.dim_slow, v.dim_fast, v.num_freqs) != (u_hat.dim_slow, u_hat.dim_fast, u_hat.num_freqs):
        raise ValueError("field dimensions do not match")

    out = {}
    for k1, c1 in u_hat.terms.items():
        partials = [c1.diff(lo + j) for j in range(width)]
        for k2, c2 in v.terms.items():
            k = tuple(a + b for a, b in zip(k1, k2))
            acc = None
            for j in range(width):
                piece = partials[j].mul_component(c2, j)
                acc = piece if acc is None else acc.add(piece)
            prev = out.get(k)
            out[k] = acc if prev is None else prev.add(acc)
    return FourierField(u_hat.dim_slow, u_hat.dim_fast, u_hat.dim_out, u_hat.num_freqs, out)


class UpsilonBlocks(NamedTuple):
    ss: FourierField
    sf: FourierField
    fs: FourierField
    ff: FourierField


def upsilon_blocks(f, basis):
    """The four coupling blocks built from Poisson solutions of f = (g; h).

    ss = -D^g g_hat, sf = -D^g h_hat, fs = -D^h g_hat, ff = -D^h h_hat.
    """
    if f.dim_out != f.n_state:
        raise ValueError("joint field must have dim_slow + dim_fast outputs")
    g = f.output_slice(0, f.dim_slow)
    h = f.output_slice(f.dim_slow, f.dim_out)
    g_hat = solve_poisson(zero_mean_part(g), basis)
    h_hat = solve_poisson(zero_mean_part(h), basis)
    return UpsilonBlocks(
        ss=directional_derivative(g_hat, g, "slow").scale(-1.0),
        sf=directional_derivative(h_hat, g, "slow").scale(-1.0),
        fs=directional_derivative(g_hat, h, "fast").scale(-1.0),
        ff=directional_derivative(h_hat, h, "fast").scale(-1.0),
    )


# ---------------------------------------------------------------------------
# gain-weighted fields
#
# Mixed gains a_t = (1+t)^{-rho}, r_t = rho/(1+t) satisfy da/dt = -r a and
# dr/dt = -r^2/rho, so polynomials in (a, r) are closed under d/dt:
#
#     d/dt a^p r^q = -(p + q/rho) a^p r^{q+1}.


def _powers(base, top):
    """[base, base^2, ..., base^top] by repeated multiplication."""
    out = [base]
    for _ in range(top - 1):
        out.append(out[-1] * base)
    return out


class GainPoly:
    """Polynomial in the gain pair (a_t, r_t) with real coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {
            (int(pa), int(pr)): float(c) for (pa, pr), c in terms.items() if c != 0.0
        }

    @classmethod
    def one(cls, c=1.0):
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, pa, pr, c=1.0):
        return cls({(pa, pr): c})

    def value(self, a, r):
        """c(a, r) for gains of shape () or (N,), powers by repeated multiplication."""
        a_pows = _powers(a, max(pa for pa, _ in self.terms) if self.terms else 0)
        r_pows = _powers(r, max(pr for _, pr in self.terms) if self.terms else 0)
        total = 0.0
        for (pa, pr), c in self.terms.items():
            term = c
            if pa:
                term = term * a_pows[pa - 1]
            if pr:
                term = term * r_pows[pr - 1]
            total += term
        return total

    def scale(self, c):
        return GainPoly({k: c * v for k, v in self.terms.items()})

    def add(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0.0) + v
        return GainPoly(out)

    def mul_monomial(self, pa, pr, c=1.0):
        return GainPoly({(p + pa, q + pr): c * v for (p, q), v in self.terms.items()})

    def ddt(self, rho):
        out = {}
        for (pa, pr), c in self.terms.items():
            if pa == 0 and pr == 0:
                continue
            key = (pa, pr + 1)
            out[key] = out.get(key, 0.0) - (pa + pr / rho) * c
        return GainPoly(out)

    def is_zero(self):
        return not self.terms


class GainField:
    """Sum of gain-polynomial-weighted Fourier fields; immutable."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(
            (c, f) for c, f in entries if not c.is_zero() and f.terms
        )

    @classmethod
    def wrap(cls, field, gain=None):
        return cls([(gain if gain is not None else GainPoly.one(), field)])

    def eval(self, x, z, a, r):
        """Sum of c(a, r) F(x, z) over the entries.

        x, z follow FourierField.eval ((n,)/(N, n) and (K,)/(N, K)) and the
        gains a, r are scalars or (N,); the result is (p,) or (N, p).
        """
        out = None
        for gain, field in self.entries:
            weight = np.asarray(gain.value(a, r))
            term = field.eval(x, z) * (weight[:, None] if weight.ndim else weight)
            out = term if out is None else out + term
        if out is None:
            raise ValueError("cannot evaluate an empty gain field without dimensions")
        return out

    def eval_or_zero(self, x, z, a, r, dim):
        if not self.entries:
            return np.zeros(np.shape(x)[:-1] + (dim,))
        return self.eval(x, z, a, r)

    def add(self, other):
        return GainField(self.entries + other.entries)

    def scale(self, c):
        return GainField([(gain.scale(c), field) for gain, field in self.entries])

    def __add__(self, other):
        return self.add(other)

    def ddt(self, g_field, h_field, basis, rho, beta, frozen=False):
        """Time derivative along the flow, entrywise.

        Each weighted field c(a, r) F(x, z) differentiates into the three
        transport terms a [D^g F] + beta [D^h F] + clk F, plus c'(a, r) F
        unless the gain factor is held frozen.
        """
        out = []
        for gain, field in self.entries:
            out.append((gain.mul_monomial(1, 0), directional_derivative(field, g_field, "slow")))
            out.append((gain.scale(beta), directional_derivative(field, h_field, "fast")))
            out.append((gain, field.clock_derivative(basis)))
            if not frozen:
                out.append((gain.ddt(rho), field))
        return GainField(out)

    def gain_derivative_part(self, rho):
        """Only the c'(a, r) F entries of the total derivative."""
        return GainField([(gain.ddt(rho), field) for gain, field in self.entries])

    def split_mean(self):
        """(mean-only, zero-mean) pair of gain fields."""
        mean_entries, zm_entries = [], []
        for gain, field in self.entries:
            mean_entries.append((gain, mean_part(field)))
            zm_entries.append((gain, zero_mean_part(field)))
        return GainField(mean_entries), GainField(zm_entries)


# ---------------------------------------------------------------------------
# perturbative mean flow


class PMeanFlowTerms:
    """Noise terms of the perturbative representation of the fast dynamics.

    W0, W1, W2 are gain-weighted fields; W1 and W2 are zero-mean by
    construction.  upsilon_ff_bar is the clock average of the fast-fast
    coupling block, identically zero under a rationally independent basis.
    The pieces they are built from stay readable for the identity suite:
    the lifts h_hat_hat (the double lift of h) and upsilon_ff_hat, their
    derivatives along the slow (dg_) and fast (dh_) fields dg_hh, dh_hh,
    dg_uff, dh_uff, and _ddW2, the second time derivative of W2 along
    the flow.
    """

    def __init__(self, system, gains):
        f = system.fourier
        if f is None:
            raise ValueError("system has no Fourier form; the perturbative terms need one")
        basis = system.basis
        rho, beta = gains.rho, gains.beta
        d_slow, d_fast = f.dim_slow, f.dim_fast

        g = f.output_slice(0, d_slow)
        h = f.output_slice(d_slow, f.dim_out)
        blocks = upsilon_blocks(f, basis)
        h_hat = solve_poisson(zero_mean_part(h), basis)
        h_hat_hat = solve_poisson(h_hat, basis)
        ups_ff_hat = solve_poisson(zero_mean_part(blocks.ff), basis)

        dg_hh = directional_derivative(h_hat_hat, g, "slow")
        dh_hh = directional_derivative(h_hat_hat, h, "fast")
        dg_uff = directional_derivative(ups_ff_hat, g, "slow")
        dh_uff = directional_derivative(ups_ff_hat, h, "fast")

        w2 = GainField.wrap(h_hat_hat)
        w1_raw = GainField(
            [
                (GainPoly.one(), (-dh_hh) + ups_ff_hat),
                (GainPoly.monomial(1, 0, -1.0 / beta), dg_hh),
            ]
        )
        w1_mean, w1 = w1_raw.split_mean()
        w0 = GainField(
            [
                (GainPoly.one(), -dh_uff),
                (GainPoly.monomial(1, 1, 1.0 / beta**2), dg_hh),
                (GainPoly.monomial(1, 0, -1.0 / beta**2), blocks.sf),
                (GainPoly.monomial(1, 0, -1.0 / beta), dg_uff),
            ]
        )
        # Fold the exact frozen-derivative expansion of W1's mean content
        # into W0 so the published W1 carries no k = 0 term.
        w0 = w0 + w1_mean.ddt(g, h, basis, rho, beta, frozen=True).scale(1.0 / beta)

        self.system = system
        self.gains = gains
        self.basis = basis
        self.W0 = w0
        self.W1 = w1
        self.W2 = w2
        self.g_field = g
        self.h_field = h
        self.h_hat = h_hat
        self.h_hat_hat = h_hat_hat
        self.upsilon = blocks
        self.upsilon_ff_hat = ups_ff_hat
        self.dg_hh = dg_hh
        self.dh_hh = dh_hh
        self.dg_uff = dg_uff
        self.dh_uff = dh_uff
        self.upsilon_ff_bar: Callable = lambda x: blocks.ff.mean_value(x)
        self.h_bar: Callable = lambda x: h.mean_value(x)
        # Assembled analytic derivatives; frozen gain factor on W1.
        self._dW1 = w1.ddt(g, h, basis, rho, beta, frozen=True)
        self._ddW2 = w2.ddt(g, h, basis, rho, beta).ddt(g, h, basis, rho, beta)

    def noise_value(self, x, z, t):
        """The assembled disturbance at state x, clock z, time t.

        Shapes as in fast_rhs_model.
        """
        a, r = self.gains.gains_at(t)
        beta = self.gains.beta
        d = self.h_field.dim_out
        return (
            beta**2 * self.W0.eval_or_zero(x, z, a, r, d)
            + beta * self._dW1.eval_or_zero(x, z, a, r, d)
            + self._ddW2.eval_or_zero(x, z, a, r, d)
        )

    def fast_rhs_model(self, x, z, t):
        """beta * [h_bar - beta*upsilon_ff_bar + W] at (x, z, t).

        Takes one sample (x (n,), z (K,), scalar t) and returns (dim_fast,),
        or N samples (x (N, n), z (N, K), t (N,)) and returns (N, dim_fast).
        """
        beta = self.gains.beta
        return beta * (
            self.h_bar(x) - beta * self.upsilon_ff_bar(x) + self.noise_value(x, z, t)
        )


def pmeanflow_terms(system, gains):
    """Construct every term of the perturbative fast-dynamics representation."""
    return PMeanFlowTerms(system, gains)
