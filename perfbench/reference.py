"""Independent reference values for E X_+^p, used to check every benchmark
operation outside its timed region.

Nothing here calls the pospart numerics: specs are read as plain data and
the moments are rebuilt from their definitions.

  * point and discrete laws: exact atom sums in mpmath;
  * pure centred Poisson y (N - lam): the lattice sum over the Poisson pmf;
  * Gaussian, alone or plus a centred Poisson: the Poisson mixture of
    Gaussian positive-part moments,
        E (m + s Z)_+^p = s^p Gamma(p+1)/sqrt(2 pi) e^{-a^2/4} D_{-p-1}(-a),
    a = m/s, with D the parabolic cylinder function.

Small Poisson windows are summed term by term in mpmath at 30 digits.  Wide
windows (large rates) would take minutes there, so they are summed in
float64: pmf ratios accumulated from the mode (no lgamma cancellation),
normalised over the window, and scipy's pbdv for D.  That path carries an
explicit error estimate (``ref_err``) which the checks add to the program's
own reported error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy.special import pbdv

mp.mp.dps = 30

# Largest windows summed in mpmath; beyond them the float64 path is used.
_MP_MIXTURE_TERMS = 48
_MP_LATTICE_TERMS = 4000
# Relative accuracy of scipy's pbdv against mpmath for orders -5 < nu < -1,
# swept over p in [0.05, 4] and a in [-8, 30]: worst 4.7e-11 for a >= -4.5
# and 9.4e-9 below (the tiny left tail).  The bounds take about twice that.
_PBDV_REL_ERR_CORE = 1e-10
_PBDV_REL_ERR_LEFT = 3e-8
_FLOAT_SUM_REL_ERR = 1e-13


@dataclass(frozen=True)
class Law:
    """A law flattened to Gaussian part + one centred Poisson + shift.

    ``atoms`` is set instead for point and discrete laws."""

    shift: float = 0.0
    var: float = 0.0
    lam: float = 0.0
    y: float = 0.0
    atoms: tuple = ()


def flatten(spec) -> Law:
    """Read a spec tree (as plain data) into a Law.  Supports the trees the
    benchmark generates: point, discrete, normal, cpoisson, and
    shift(sum(normal, cpoisson))."""
    kind = type(spec).__name__
    if kind == "PointMass":
        return Law(atoms=((float(spec.x), 1.0),))
    if kind == "FiniteDiscrete":
        return Law(atoms=tuple((float(x), float(w)) for x, w in spec.atoms))
    if kind == "Normal":
        return Law(shift=float(spec.mu), var=float(spec.var))
    if kind == "CenteredScaledPoisson":
        return Law(lam=float(spec.lam), y=float(spec.y))
    if kind == "Shift":
        inner = flatten(spec.inner)
        if inner.atoms:
            return Law(atoms=tuple((x + spec.c, w) for x, w in inner.atoms))
        return Law(inner.shift + spec.c, inner.var, inner.lam, inner.y)
    if kind == "IndependentSum":
        a, b = flatten(spec.left), flatten(spec.right)
        if a.atoms or b.atoms or (a.lam and b.lam):
            raise ValueError(f"no reference for {spec!r}")
        pois = a if a.lam else b
        return Law(a.shift + b.shift, a.var + b.var, pois.lam, pois.y)
    raise ValueError(f"no reference for {spec!r}")


def _gauss_ppm_mp(m, s, p):
    a = mp.mpf(m) / s
    return (s**p * mp.gamma(p + 1) / mp.sqrt(2 * mp.pi)
            * mp.exp(-a * a / 4) * mp.pcfd(-p - 1, -a))


def _gauss_ppm_float(a: np.ndarray, p: float):
    """E (a + Z)_+^p and an error estimate, vectorised over a."""
    out = np.zeros_like(a)
    core = np.abs(a) <= 30.0
    d, _ = pbdv(-p - 1.0, -a[core])
    out[core] = math.gamma(p + 1.0) / math.sqrt(2 * math.pi) * np.exp(-0.25 * a[core] ** 2) * d
    right = a > 30.0
    if right.any():
        # Phi(-30) < 1e-197, so the positive part is the full moment:
        # a^p E(1 + Z/a)^p = a^p sum_k C(p, 2k) (2k-1)!! a^-2k
        ar = a[right]
        acc = np.ones_like(ar)
        term = np.ones_like(ar)
        for k in range(1, 12):
            term = term * (p - 2 * k + 2) * (p - 2 * k + 1) / (2 * k) / ar**2
            acc = acc + term
        out[right] = ar**p * acc
    rel = np.where(a >= -4.5, _PBDV_REL_ERR_CORE, _PBDV_REL_ERR_LEFT)
    return out, rel * np.abs(out)


def _poisson_window(lam: float) -> tuple[int, int]:
    spread = 12.0 * math.sqrt(lam) + 40.0
    return max(0, int(lam - spread)), int(math.ceil(lam + spread))


def _poisson_weights_float(lam: float, lo: int, hi: int) -> np.ndarray:
    """Poisson pmf on [lo, hi], normalised over the window; log-ratios are
    accumulated from the mode so no large lgamma values cancel."""
    ns = np.arange(lo, hi + 1, dtype=float)
    mode = min(max(int(lam), lo), hi)
    logr = np.zeros_like(ns)
    k = mode - lo
    # log pmf(n) - log pmf(mode) = sum over the steps between them of log(lam / j)
    up = np.log(lam / ns[k + 1:])
    logr[k + 1:] = np.cumsum(up)
    down = -np.log(lam / ns[1:k + 1])[::-1]
    logr[:k] = np.cumsum(down)[::-1]
    w = np.exp(logr - logr.max())
    return w / math.fsum(w)


def ppm_reference(spec, p: float) -> tuple[float, float]:
    """(E X_+^p, absolute error estimate of that reference)."""
    law = flatten(spec)
    if law.atoms:
        val = mp.fsum(mp.mpf(w) * mp.power(mp.mpf(x), p) for x, w in law.atoms if x > 0)
        return float(val), 0.0
    if law.lam == 0.0:
        return float(_gauss_ppm_mp(law.shift, mp.sqrt(law.var), p)), 0.0
    lo, hi = _poisson_window(law.lam)
    n_terms = hi - lo + 1
    if law.var == 0.0:
        return _lattice(law, p, lo, hi, n_terms)
    return _mixture(law, p, lo, hi, n_terms)


def _lattice(law: Law, p: float, lo: int, hi: int, n_terms: int):
    lam, y, c = law.lam, law.y, law.shift
    if n_terms <= _MP_LATTICE_TERMS:
        lam_mp = mp.mpf(lam)
        acc = []
        w = mp.exp(-lam_mp) * lam_mp**lo / mp.factorial(lo)
        for n in range(lo, hi + 1):
            x = y * (n - lam_mp) + c
            if x > 0:
                acc.append(w * x**p)
            w = w * lam_mp / (n + 1)
        return float(mp.fsum(acc)), 0.0
    w = _poisson_weights_float(lam, lo, hi)
    x = y * (np.arange(lo, hi + 1) - lam) + c
    terms = w * np.where(x > 0, np.abs(x), 0.0) ** p
    val = math.fsum(terms)
    return val, _FLOAT_SUM_REL_ERR * val


def _mixture(law: Law, p: float, lo: int, hi: int, n_terms: int):
    lam, y, c = law.lam, law.y, law.shift
    if n_terms <= _MP_MIXTURE_TERMS:
        s = mp.sqrt(law.var)
        lam_mp = mp.mpf(lam)
        w = mp.exp(-lam_mp) * lam_mp**lo / mp.factorial(lo)
        acc = []
        for n in range(lo, hi + 1):
            acc.append(w * _gauss_ppm_mp(y * (n - lam_mp) + c, s, p))
            w = w * lam_mp / (n + 1)
        return float(mp.fsum(acc)), 0.0
    s = math.sqrt(law.var)
    w = _poisson_weights_float(lam, lo, hi)
    a = (y * (np.arange(lo, hi + 1) - lam) + c) / s
    g, g_err = _gauss_ppm_float(a, p)
    val = s**p * math.fsum(w * g)
    err = s**p * math.fsum(w * g_err) + _FLOAT_SUM_REL_ERR * abs(val)
    return val, err


def moment_miss(value: float, reported_error: float, ref: float, ref_err: float) -> bool:
    """True when a result lies outside its own reported error around the
    reference (a few ulps of rounding in the final product are allowed)."""
    if not (math.isfinite(value) and math.isfinite(reported_error)):
        return True
    slack = 4.0 * np.finfo(float).eps * max(abs(value), abs(ref))
    return abs(value - ref) > reported_error + ref_err + slack


def eta_moments_reference(sigma: float, y: float, eps: float, t: float):
    """Reference (mu2, mu3) of the tail-bound surrogate eta - t with
    eta = N(0, (1-eps) sigma^2) + y (Poisson(eps sigma^2 / y^2) - eps sigma^2 / y^2)."""
    law = Law(shift=-t, var=(1.0 - eps) * sigma**2, lam=eps * sigma**2 / y**2, y=y)
    lo, hi = _poisson_window(law.lam)
    n = hi - lo + 1
    return _mixture(law, 2.0, lo, hi, n), _mixture(law, 3.0, lo, hi, n)
