"""Independent ground-truth generators for validation.

Three oracle families, none of which touch the transform pipeline (the
dependency direction is enforced by imports: this module takes the
distribution catalog and the TailBoundProblem record, and calls no pipeline
numerics):

  * density_ppm: direct quadrature of x^p times a Gaussian density,
  * naive_series_ppm: the Poisson-mixture sum of Gaussian positive-part
    moments, the straightforward approach the transform route replaces
    (slow and fragile for small y, so tests keep it to moderate scales),
  * mc_ppm / mc_tail: seeded Monte Carlo with five-sigma error bars;
    mc_tail takes a sequence of levels on one sample.

scipy (quad, the normal tail and the Poisson distribution) is imported
inside the oracle functions that use it, so importing this module, and with
it the package and the CLI, loads numpy only; the Gaussian terms of the
naive series take Phi and phi from math.erfc and math.exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec, Normal, Shift, sample
from .errors import PreconditionError, SeriesGuard
from .tailbound import TailBoundProblem

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
    """E X_+^p by adaptive quadrature of x^p against the Gaussian density."""
    from scipy import integrate as _sciint
    from scipy import stats as _scistats

    if not p > 0:
        raise PreconditionError("order must be positive")
    mu, sd = _as_normal(spec)
    hi = mu + 12.0 * sd
    if hi <= 0.0:
        # the entire integration window is negative; what is left beyond it
        # is bounded by the Gaussian tail estimate below
        value, abserr = 0.0, 0.0
    else:
        value, abserr = _sciint.quad(
            lambda x: x**p * math.exp(-0.5 * ((x - mu) / sd) ** 2) / (sd * math.sqrt(2 * math.pi)),
            max(0.0, mu - 12.0 * sd),
            hi,
            epsabs=1e-300,
            epsrel=rel_tol,
            limit=400,
        )
    tail = float(_scistats.norm.sf(12.0)) * (abs(mu) + 13.0 * sd) ** p * 10.0
    return OracleEstimate(value, abserr + tail, "density")


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
    from scipy import stats as _scistats

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
    weights = _scistats.poisson.pmf(js, lam)
    terms = [
        _normal_pos_moment(problem.y * j - problem.y * lam - t, sd, p) for j in js
    ]
    value = math.fsum(w * v for w, v in zip(weights, terms))
    # remaining mass, priced at the largest windowed term inflated for
    # growth, plus a 1e-12 relative allowance for the summation
    left_mass = float(_scistats.poisson.cdf(j_lo - 1, lam)) if j_lo > 0 else 0.0
    right_mass = float(_scistats.poisson.sf(j_hi, lam))
    edge = max(terms[-1], 1.0) * (1.0 + problem.y * spread) ** p
    half_width = (left_mass + right_mass) * edge * 4.0 + 1e-12 * abs(value)
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
