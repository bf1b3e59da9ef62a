"""Stable evaluation of truncated exp/cos/sin Taylor remainders.

exp_remainder(z, m) is e^z minus its Taylor polynomial through degree m
(m = -1 returns e^z itself).  cos_remainder(x, m) and sin_remainder(x, m)
are the signed cosine/sine analogues, normalised so the leading term of the
tail series is positive:

    cos_remainder(x, m)  = (-1)^(m+1) (cos x - sum_{j<=m} (-1)^j x^(2j)/(2j)!)
    sin_remainder(x, m)  = (-1)^(m+1) (sin x - sum_{j<=m} (-1)^j x^(2j+1)/(2j+1)!)

with cos_remainder(x, -1) = cos x and sin_remainder(x, -1) = sin x.

Below a switch radius the subtraction above cancels catastrophically, so the
value is computed from the convergent tail series instead; above it the
direct subtraction is safe (the largest polynomial term and the remainder
share magnitude, so cancellation stays at a couple of ulps).

inv_power(s, t, q) = (s + it)^(-q) on the principal branch.  Every complex
power used by the integral representations routes through it, so the branch
convention is fixed, and testable, in exactly one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, PreconditionError

# Tail series stop once a term is below this fraction of the leading term at
# the switch radius; beyond double-precision noise floor.
_SERIES_STOP = 1e-18


def switch_radius(m: int) -> float:
    """|z| at or below which the tail series is used for order ``m``.

    max(1, m) * 0.5 keeps subtraction cancellation near 2 ulps while the
    series still converges in under ~30 terms.
    """
    return 0.5 * max(1, m)


@dataclass(frozen=True)
class MomentOrder:
    """The triple (p, k, ell) that selects which representation applies.

    k is the integer part of p and ell the smallest integer >= p - 1, so
    k <= p < k + 1 and ell < p <= ell + 1.  For integer p, k = p and
    ell = p - 1; otherwise ell = k.
    """

    p: float
    k: int
    ell: int

    def __post_init__(self):
        if not (self.k <= self.p < self.k + 1):
            raise PreconditionError(f"k = {self.k} inconsistent with p = {self.p}")
        if not (self.ell < self.p <= self.ell + 1):
            raise PreconditionError(f"ell = {self.ell} inconsistent with p = {self.p}")
        if self.ell > self.k:
            raise PreconditionError("ell may not exceed k")

    @classmethod
    def from_p(cls, p: float) -> "MomentOrder":
        p = float(p)
        if not math.isfinite(p) or p <= 0.0:
            raise PreconditionError(f"moment order must be positive and finite, got {p!r}")
        k = math.floor(p)
        ell = k - 1 if p == k else k
        return cls(p, int(k), int(ell))

    @property
    def is_integer(self) -> bool:
        return self.p == self.k


def _as_array(z, dtype):
    arr = np.asarray(z, dtype=dtype)
    return arr, arr.ndim == 0


@lru_cache(maxsize=None)
def _series_terms(n0: int, step: int, radius: float) -> int:
    """Terms after the leading one that sum_r x^(n0 + step r) / (n0 + step r)!
    takes for |x| <= radius, through the first one below _SERIES_STOP times
    the leading term; the terms left out shrink at least geometrically."""
    ratio, n, count = 1.0, n0, 0
    while ratio > _SERIES_STOP:
        for _ in range(step):
            n += 1
            ratio *= radius / n
        count += 1
    return count


def _exp_tail_series(z: np.ndarray, m: int) -> np.ndarray:
    # sum_{j >= m+1} z^j / j!; callers only pass |z| <= switch radius
    term = z ** (m + 1) / math.factorial(m + 1)
    acc = term.copy()
    for j in range(m + 2, m + 2 + _series_terms(m + 1, 1, switch_radius(m))):
        term = term * z / j
        acc = acc + term
    return acc


def _exp_taylor_poly(z: np.ndarray, m: int) -> np.ndarray:
    # Horner for sum_{j=0}^m z^j / j!
    acc = np.full_like(z, 1.0 / math.factorial(m))
    for j in range(m - 1, -1, -1):
        acc = acc * z + 1.0 / math.factorial(j)
    return acc


def exp_remainder(z, m: int):
    """e^z minus its Taylor polynomial through degree m; m = -1 gives e^z.

    Accepts scalars or arrays (complex ok).  Re z beyond the floating range
    overflows to an infinite-magnitude value rather than raising.
    """
    if m < -1:
        raise DomainError(f"remainder order must be >= -1, got {m}")
    zz, scalar = _as_array(z, complex)
    with np.errstate(over="ignore", invalid="ignore"):
        if m == -1:
            out = np.exp(zz)
        else:
            out = np.empty_like(zz)
            small = np.abs(zz) <= switch_radius(m)
            if small.any():
                out[small] = _exp_tail_series(zz[small], m)
            big = ~small
            if big.any():
                w = zz[big]
                out[big] = np.exp(w) - _exp_taylor_poly(w, m)
    return complex(out[()]) if scalar else out


def _alternating_tail(x2: np.ndarray, lead: np.ndarray, n0: int, radius: float) -> np.ndarray:
    # sum_{r>=0} (-1)^r x^(n0 + 2r) / (n0 + 2r)! given the leading term, for
    # |x| <= radius
    term = lead.copy()
    acc = lead.copy()
    for n in range(n0, n0 + 2 * _series_terms(n0, 2, radius), 2):
        term = -term * x2 / ((n + 1) * (n + 2))
        acc = acc + term
    return acc


def cos_remainder(x, m: int):
    """Signed cosine remainder; m = -1 returns cos x.

    Tail-series form: sum_{r>=0} (-1)^r x^(2(m+1+r)) / (2(m+1+r))!, so the
    leading term x^(2m+2)/(2m+2)! is positive.
    """
    if m < -1:
        raise DomainError(f"remainder order must be >= -1, got {m}")
    xx, scalar = _as_array(x, float)
    if m == -1:
        out = np.cos(xx)
    else:
        out = np.empty_like(xx)
        small = np.abs(xx) <= switch_radius(m)
        if small.any():
            xs = xx[small]
            n0 = 2 * m + 2
            lead = xs**n0 / math.factorial(n0)
            out[small] = _alternating_tail(xs * xs, lead, n0, switch_radius(m))
        big = ~small
        if big.any():
            xb = xx[big]
            x2 = xb * xb
            acc = np.full_like(xb, (-1.0) ** m / math.factorial(2 * m))
            for j in range(m - 1, -1, -1):
                acc = acc * x2 + (-1.0) ** j / math.factorial(2 * j)
            out[big] = (-1.0) ** (m + 1) * (np.cos(xb) - acc)
    return float(out[()]) if scalar else out


def sin_remainder(x, m: int):
    """Signed sine remainder; m = -1 returns sin x.

    Tail-series form: sum_{r>=0} (-1)^r x^(2(m+1+r)+1) / (2(m+1+r)+1)!.
    """
    if m < -1:
        raise DomainError(f"remainder order must be >= -1, got {m}")
    xx, scalar = _as_array(x, float)
    if m == -1:
        out = np.sin(xx)
    else:
        out = np.empty_like(xx)
        small = np.abs(xx) <= switch_radius(m)
        if small.any():
            xs = xx[small]
            n0 = 2 * m + 3
            lead = xs**n0 / math.factorial(n0)
            out[small] = _alternating_tail(xs * xs, lead, n0, switch_radius(m))
        big = ~small
        if big.any():
            xb = xx[big]
            x2 = xb * xb
            acc = np.full_like(xb, (-1.0) ** m / math.factorial(2 * m + 1))
            for j in range(m - 1, -1, -1):
                acc = acc * x2 + (-1.0) ** j / math.factorial(2 * j + 1)
            out[big] = (-1.0) ** (m + 1) * (np.sin(xb) - xb * acc)
    return float(out[()]) if scalar else out


def inv_power(s: float, t, q: float):
    """(s + it)^(-q) on the principal branch (argument in (-pi, pi]).

    For s = 0, t > 0 this equals t^(-q) * exp(-i pi q / 2).  Raises at the
    branch point s = t = 0.
    """
    tt, scalar = _as_array(t, float)
    if s == 0.0 and np.any(tt == 0.0):
        raise DomainError("inv_power is undefined at z = 0")
    z = s + 1j * tt
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.exp(-q * np.log(z))
    return complex(out[()]) if scalar else out


def exp_remainder_bound(u: float, m: int) -> float:
    """Explicit bound min(2|u|^m/m!, |u|^(m+1)/(m+1)!) for |e_m(iu)|, m >= 0."""
    if m < 0:
        raise DomainError("bound applies to m >= 0 only")
    au = abs(u)
    return min(2.0 * au**m / math.factorial(m), au ** (m + 1) / math.factorial(m + 1))
