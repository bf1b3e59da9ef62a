"""Independent ground-truth generators for validation.

Three oracle families, none of which touch the transform pipeline (the
dependency direction is enforced by imports: this module takes the
distribution catalog and the TailBoundProblem record, and calls no pipeline
numerics):

  * density_ppm: x^p times a Gaussian density, integrated by the tanh-sinh
    (double-exponential) rule of Takahasi and Mori (1974),
  * naive_series_ppm: the Poisson-mixture sum of Gaussian positive-part
    moments, the straightforward approach the transform route replaces
    (slow and fragile for small y, so tests keep it to moderate scales);
    its Poisson weights are log ratios from the mode, normalised over the
    count window,
  * mc_ppm / mc_tail: seeded Monte Carlo with five-sigma error bars;
    mc_tail takes a sequence of levels on one sample.

They need numpy and math only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec, Normal, Shift, sample
from .errors import PreconditionError, SeriesGuard
from .tailbound import TailBoundProblem

_EPS = float(np.finfo(float).eps)

__all__ = [
    "OracleEstimate",
    "density_ppm",
    "naive_series_ppm",
    "mc_ppm",
    "mc_tail",
]


@dataclass(frozen=True)
class OracleEstimate:
    """Value plus an error bar; half_width is 0 for deterministic oracles
    and five standard errors for Monte Carlo."""

    value: float
    half_width: float
    method: str

    def contains(self, x: float) -> bool:
        return abs(x - self.value) <= self.half_width


def _as_normal(spec) -> tuple[float, float]:
    shift = 0.0
    while isinstance(spec, Shift):
        shift += spec.c
        spec = spec.inner
    if not isinstance(spec, Normal):
        raise PreconditionError("density oracle supports Normal and Shift(Normal) only")
    return spec.mu + shift, math.sqrt(spec.var)


def density_ppm(spec: DistributionSpec, p: float, rel_tol: float = 1e-11) -> OracleEstimate:
    """E X_+^p by tanh-sinh quadrature of x^p against the Gaussian density.

    The window [max(0, mu - 12 sd), mu + 12 sd] is mapped by
    x = mid + half tanh(pi/2 sinh t), whose nodes cluster at both ends, so
    x^p at 0 is integrated at every p > 0.  Nodes t = k h, |t| <= 6; h is
    halved from 1 until two levels agree to rel_tol.  The half width is that
    gap, 16 eps times the sum (the integrand is positive) and a bound on
    what lies outside the window.
    """
    if not p > 0:
        raise PreconditionError("order must be positive")
    mu, sd = _as_normal(spec)
    lo, hi = max(0.0, mu - 12.0 * sd), mu + 12.0 * sd
    value = gap = 0.0
    if hi > 0.0:   # else the whole window is negative and the tail term bounds it

        def nodes_sum(t):
            # distance to the nearer end and weight, both in e = e^{-2|u|}
            # so that neither overflows at |t| = 6
            u = 0.5 * math.pi * np.sinh(t)
            e = np.exp(-2.0 * np.abs(u))
            d = (hi - lo) * e / (1.0 + e)
            x = np.where(u < 0.0, lo + d, hi - d)
            w = (hi - lo) * math.pi * np.cosh(t) * e / (1.0 + e) ** 2
            f = x**p * np.exp(-0.5 * ((x - mu) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
            return math.fsum(w * f)

        value, h, gap = nodes_sum(np.arange(-6.0, 7.0)), 1.0, math.inf
        while gap > rel_tol * value and h > 2.0**-10:
            h *= 0.5
            odd = np.arange(h, 6.0, 2.0 * h)
            prev, value = value, 0.5 * value + h * nodes_sum(np.concatenate([-odd, odd]))
            gap = abs(value - prev)
    tail = 0.5 * math.erfc(12.0 / math.sqrt(2.0)) * (abs(mu) + 13.0 * sd) ** p * 10.0
    return OracleEstimate(value, gap + 16.0 * _EPS * value + tail, "density")


def _normal_pos_moment(mu: float, sd: float, p: int) -> float:
    # closed recursion: I_p = mu I_{p-1} + (p-1) sd^2 I_{p-2},
    # I_0 = Phi(mu/sd), I_1 = mu Phi(mu/sd) + sd phi(mu/sd)
    z = mu / sd
    cdf = 0.5 * math.erfc(-z / math.sqrt(2.0))
    pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    i_prev, i_cur = cdf, mu * cdf + sd * pdf
    if p == 0:
        return i_prev
    for n in range(2, p + 1):
        i_prev, i_cur = i_cur, mu * i_cur + (n - 1) * sd * sd * i_prev
    return i_cur


def naive_series_ppm(problem: TailBoundProblem, t: float, p: int,
                     window_pad: int = 0) -> OracleEstimate:
    """E (eta - t)_+^p by summing the Poisson mixture of Gaussian terms.

    eta - t given a Poisson count j is Normal(y j - y lam - t, (1-eps) sigma^2),
    so each term has the closed form above.  The count window grows until the
    remaining Poisson mass times a growth-adjusted term bound is negligible;
    window_pad widens it further (used by tests to show insensitivity).
    """
    if p not in (1, 2, 3, 4):
        raise PreconditionError("naive series oracle supports p in {1, 2, 3, 4}")
    lam = problem.lam
    if lam > 1e4:
        raise SeriesGuard(f"rate {lam:.3g} beyond the series guard of 1e4")
    sd = math.sqrt((1.0 - problem.eps) * problem.sigma**2)
    spread = 12.0 * math.sqrt(lam) + 30.0 + window_pad
    j_lo = max(0, int(lam - spread))
    j_hi = int(lam + spread)
    js = np.arange(j_lo, j_hi + 1)
    # Poisson weights as log ratios log(lam / j) accumulated from the mode,
    # so no large lgamma values cancel, normalised over the window
    k = int(lam) - j_lo
    log_w = np.zeros(js.size)
    log_w[k + 1:] = np.cumsum(np.log(lam / js[k + 1:]))
    log_w[:k] = np.cumsum(-np.log(lam / js[1:k + 1])[::-1])[::-1]
    weights = np.exp(log_w)
    weights /= math.fsum(weights)
    terms = [
        _normal_pos_moment(problem.y * j - problem.y * lam - t, sd, p) for j in js
    ]
    value = math.fsum(w * v for w, v in zip(weights, terms))
    # the mass outside the window by Chernoff's bound e^{-lam} (e lam / j)^j on
    # P(N <= j_lo) and P(N > j_hi), priced at the largest windowed term
    # inflated for growth (which also covers the normalisation), plus a
    # 1e-12 relative allowance for the summation
    def chernoff(j: int) -> float:
        return math.exp(j * (1.0 + math.log(lam / j)) - lam)

    outside = (chernoff(j_lo) if j_lo > 0 else 0.0) + chernoff(j_hi + 1)
    edge = max(terms[-1], 1.0) * (1.0 + problem.y * spread) ** p
    half_width = outside * edge * 4.0 + 1e-12 * abs(value)
    return OracleEstimate(value, half_width, "naive-series")


def mc_ppm(spec: DistributionSpec, p: float, n: int, seed: int) -> OracleEstimate:
    """Monte Carlo mean of (sample)_+^p with a five-sigma half width."""
    if n < 1000:
        raise PreconditionError("need at least 1e3 draws")
    draws = sample(spec, seed, n)
    payload = np.clip(draws, 0.0, None) ** p
    value = float(payload.mean())
    half = 5.0 * float(payload.std(ddof=1)) / math.sqrt(n)
    return OracleEstimate(value, half, "monte-carlo")


def mc_tail(spec: DistributionSpec, x, n: int, seed: int):
    """Empirical P(X >= x) with a five-sigma half width.

    x may also be a sequence of levels, which share one sample of n draws
    and give a list of estimates.  With k of the n draws at or above a
    level, the value k / n is the mean of the 0/1 payload, bit for bit, and
    sqrt(p (1 - p) n / (n - 1)), p = k / n, is its std(ddof=1) in closed
    form."""
    if n < 1000:
        raise PreconditionError("need at least 1e3 draws")
    draws = sample(spec, seed, n)
    out = []
    for level in np.atleast_1d(x):
        p = int(np.count_nonzero(draws >= level)) / n
        half = 5.0 * math.sqrt(p * (1.0 - p) * n / (n - 1)) / math.sqrt(n)
        out.append(OracleEstimate(p, half, "monte-carlo"))
    return out[0] if np.ndim(x) == 0 else out
