"""Stable evaluation of truncated exponential Taylor remainders.

exp_remainder(z, m) is e^z minus its Taylor polynomial through degree m
(m = -1 returns e^z itself).  On the imaginary axis its real and imaginary
parts are the cosine and sine remainders:
Re exp_remainder(ix, 2m+1) = cos x - sum_{j<=m} (-1)^j x^(2j)/(2j)! and
Im exp_remainder(ix, 2m+1) = sin x - sum_{j<=m} (-1)^j x^(2j+1)/(2j+1)!.

Below a switch radius the subtraction e^z - poly cancels catastrophically,
so exp_remainder computes the value from the convergent tail series instead,
and above it by the direct subtraction.

inv_power(s, t, q) = (s + it)^(-q) on the principal branch, with the exact
unit phase (-i)^q on the imaginary axis at integer q.  These powers go
through it: the remainder form of the moment integrand and the part of a
folded lattice integrand past its period (moments._transform_kernel,
moments._fold), and the by-parts powers of the harmonic tails
(by_parts_powers, so harmonic_tail and the moment routes' tail model).
These take their own principal powers, without the exact axis phase:
power_tail (Python's complex **), the lattice kernel (LatticeKernel,
_lerch_sum, _integral_term, _pole_pair) and the single-exponential branch of
moments._transform_kernel's integrand (np.exp of a multiple of np.log).

The closed tails past a truncation point T, shared by the moment routes,
the lattice kernel and the Pin engine: harmonic_tail, by repeated
integration by parts (Olver, Asymptotics and Special Functions, 1974), and
decay_bound, the Gaussian-Mills or algebraic bound.
"""

from __future__ import annotations

import cmath
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

    max(1, m) * 0.5, half the degree, where the series takes at most 50
    terms (m <= 168).  The direct subtraction just above it still cancels:
    against 250-digit mpmath on 1,200 points of x in [0.05, 60], the worst
    relative error of the real / imaginary part of exp_remainder(ix, 2m+1)
    (switch at m + 0.5) is 1.6e-12 / 5.4e-12 at m = 20, 1.3e-10 / 2.2e-10 at
    m = 30 and 4.2e-9 / 9.9e-9 at m = 40, each just above the switch.
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
def _series_terms(n0: int, radius: float) -> int:
    """Terms after the leading one that sum_r x^(n0 + r) / (n0 + r)! takes
    for |x| <= radius, through the first one below _SERIES_STOP times the
    leading term; the terms left out shrink at least geometrically."""
    ratio, n, count = 1.0, n0, 0
    while ratio > _SERIES_STOP:
        n += 1
        ratio *= radius / n
        count += 1
    return count


def _exp_tail_series(z: np.ndarray, m: int) -> np.ndarray:
    # sum_{j >= m+1} z^j / j!; callers only pass |z| <= switch radius
    term = z ** (m + 1) / math.factorial(m + 1)
    acc = term.copy()
    for j in range(m + 2, m + 2 + _series_terms(m + 1, switch_radius(m))):
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


_AXIS_UNITS = (1.0, -1j, -1.0, 1j)     # (-i)^q by q mod 4


def inv_power(s, t, q: float):
    """(s + it)^(-q) on the principal branch (argument in (-pi, pi]).

    For s = 0, t > 0 this equals t^(-q) * exp(-i pi q / 2).  At s = 0 and
    integer q that phase is the exact unit (-i)^q (its conjugate for t < 0),
    so a part that vanishes is exactly 0.  s may be an array that broadcasts
    against t.  Raises at the branch point s = t = 0 when s is 0 throughout.

    A float s with a float t, the closed tails' case, takes the same
    formulas in Python floats and cmath, without building 0-d arrays, and
    returns a Python complex.  It equals the 0-d array path bit for bit
    where max(|s|, |t|) >= 2, where glibc's clog and cmath.log both take
    log(hypot); nearer |z| = 1 they take log1p in different forms and the
    last bits can differ (within 4 q eps relative).  Where float ** or
    cmath.exp overflows (they raise where numpy rounds to inf), the array
    path returns instead, as it does at s = t = 0, where it raises; an
    underflow gives 0 and a NaN gives NaN on either path.
    """
    # floats only: a numpy float64 would warn where a float raises OverflowError
    if type(s) is float and type(t) is float and (s or t):
        try:
            if s == 0.0 and q == math.floor(q):
                unit = _AXIS_UNITS[int(q) % 4]
                return complex(abs(t) ** -q * (unit if t > 0.0 else unit.conjugate()))
            return cmath.exp(-q * cmath.log(s + 1j * t))
        except OverflowError:
            pass
    tt, scalar = _as_array(t, float)
    if isinstance(s, float):
        axis = s == 0.0
    else:                                   # an offset per point
        s = np.asarray(s, dtype=float)
        scalar, axis = scalar and s.ndim == 0, not np.any(s)
    if axis and np.any(tt == 0.0):
        raise DomainError("inv_power is undefined at z = 0")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if axis and q == math.floor(q):
            unit = _AXIS_UNITS[int(q) % 4]
            out = np.abs(tt) ** -q * np.where(tt > 0.0, unit, np.conj(unit))
        else:
            out = np.exp(-q * np.log(s + 1j * tt))
    return complex(out[()]) if scalar else out


# ---------------------------------------------------------------------------
# Closed tails
# ---------------------------------------------------------------------------


def by_parts_coefs(x: float, q: float, k: int) -> list:
    """a_0 .. a_k of the by-parts series (harmonic_tail): a_0 = 1, a_{n+1} = a_n (q+n)/x."""
    a = [1.0]
    for n in range(k):
        a.append(a[-1] * (q + n) / x)
    return a


def by_parts_powers(s, T, q: float, k: int) -> list:
    """(s+iT)^(-q-n) for n < k."""
    zT = s + 1j * T
    zpow = inv_power(s, T, q)
    out = [zpow]
    for _ in range(k - 1):
        zpow = zpow / zT
        out.append(zpow)
    return out


def by_parts_remainder(a_k: float, fall, q: float, k: int):
    """|a_k| T^(1-q-k) / (q+k-1), given fall = T^(1-q-k)."""
    return abs(a_k) * fall / (q + k - 1.0)


def by_parts_sum(x: float, T, a: list, zpows: list):
    """The by-parts series of harmonic_tail from its coefficients and powers."""
    eiTx = cmath.exp(1j * T * x) if isinstance(T, float) else np.exp(1j * T * x)
    val = 0.0 + 0.0j
    for an, zpow in zip(a, zpows):
        val += an * (-(zpow * eiTx) / (1j * x))
    return val


def power_tail(s, p: float, T, weight: float = 1.0):
    """weight * int_T^inf (s+it)^-(p+1) dt = weight (s+iT)^-p / (ip) for p > 0:
    harmonic_tail at x = 0."""
    return weight * (s + 1j * T) ** -p / (1j * p)


def harmonic_tail(x: float, s, p: float, T, k: int, weight: float = 1.0):
    """weight * int_T^inf e^{itx} (s+it)^-q dt (q = p + 1 > 1, T > 0), a bound
    on its truncation error and the sum of its terms' sizes (its rounding).

    At x = 0 it is the power tail weight (s+iT)^-p / (ip).  Else k
    integrations by parts give sum_{n<k} a_n (-(s+iT)^{-q-n} e^{iTx} / (ix)),
    a_0 = 1, a_{n+1} = a_n (q+n)/x, with remainder at most
    |weight a_k| T^(1-q-k) / (q+k-1) for any T > 0, not merely
    asymptotically.  Harmonics at one T can share by_parts_powers.  A float
    T takes Python complex arithmetic, an array T the same code in numpy.
    """
    if x == 0.0:
        val = power_tail(s, p, T, weight)
        return val, 0.0, abs(val)
    q = p + 1.0
    a = by_parts_coefs(x, q, k)
    zpows = by_parts_powers(s, T, q, k)
    val = weight * by_parts_sum(x, T, a, zpows)
    size = abs(weight / x) * sum(abs(an * zpow) for an, zpow in zip(a, zpows))
    return val, abs(weight) * by_parts_remainder(a[k], T ** (1.0 - q - k), q, k), size


def decay_bound(K, a, T, q):
    """K min(T^-q e^{-a T^2/2} / (a T), T^(1-q) / (q-1)), in log form: a bound
    on int_T^inf of an integrand below K e^{-a t^2/2} t^-q, q > 1, from the
    Gaussian-Mills bound and the algebraic one; a = 0 leaves the algebraic
    bound.  A float T takes math, an array T numpy, with K, a and q
    broadcasting against it."""
    if isinstance(T, float):
        log_t = math.log(T)
        bound = (1.0 - q) * log_t - math.log(q - 1.0) if q > 1.0 else math.inf
        if a > 0.0:
            bound = min(-q * log_t - 0.5 * a * T * T - math.log(a * T), bound)
        return K * math.exp(bound)
    log_t = np.log(T)
    with np.errstate(divide="ignore"):
        mills = -q * log_t - 0.5 * a * T * T - np.log(a * T)
    return K * np.exp(np.minimum(mills, (1.0 - q) * log_t - np.log(q - 1.0)))


# ---------------------------------------------------------------------------
# The folded lattice kernel
# ---------------------------------------------------------------------------

_EPS = float(np.finfo(float).eps)
_CHEB_N = 32          # interpolation degree: 33 Chebyshev points per kernel
_CHEB_RHO = 4.0       # Bernstein ellipse of the interpolation bound
_EM_TERMS = 30        # Euler-Maclaurin corrections, derivative orders 1 .. 59
_BP_TERMS = 30        # by-parts terms of the Euler-Maclaurin integral
_DIRECT_CAP = 4096    # longest direct sum before the integral term
_NODE_TARGET = 2.0**-62   # error aimed at in each node's b^q S(b)
_EULER_GAMMA = 0.5772156649015329


# Riemann zeta(k) for the orders the lattice kernel reads (k = 2 .. 24 and
# the even k to 60): the doubles of 999 terms plus the Euler-Maclaurin tail
# through B_2, whose first omitted term is below 3e-17 (the formula is kept
# in the tests, which check every entry bit for bit).
_ZETA = {
    2: 1.6449340668482264, 3: 1.2020569031595945, 4: 1.0823232337111384,
    5: 1.03692775514337, 6: 1.0173430619844492, 7: 1.008349277381923,
    8: 1.0040773561979444, 9: 1.0020083928260821, 10: 1.000994575127818,
    11: 1.0004941886041194, 12: 1.000246086553308, 13: 1.0001227133475785,
    14: 1.0000612481350588, 15: 1.000030588236307, 16: 1.0000152822594086,
    17: 1.0000076371976379, 18: 1.000003817293265, 19: 1.0000019082127165,
    20: 1.0000009539620338, 21: 1.0000004769329869, 22: 1.0000002384505027,
    23: 1.000000119219926, 24: 1.000000059608189, 26: 1.0000000149015549,
    28: 1.000000003725334, 30: 1.0000000009313275, 32: 1.000000000232831,
    34: 1.0000000000582077, 36: 1.000000000014552, 38: 1.000000000003638,
    40: 1.0000000000009095, 42: 1.0000000000002274, 44: 1.0000000000000568,
    46: 1.0000000000000142, 48: 1.0000000000000036, 50: 1.0000000000000009,
    52: 1.0000000000000002, 54: 1.0, 56: 1.0, 58: 1.0, 60: 1.0,
}


@lru_cache(maxsize=None)
def binomial_row(n: int) -> np.ndarray:
    """C(n, 0 .. n) as floats, each the exact integer rounded once (as an
    int times a float rounds it); one read-only row per n, made on first use."""
    row = np.array([float(math.comb(n, i)) for i in range(n + 1)])
    row.setflags(write=False)
    return row


def _read_only(*arrays) -> tuple:
    """The arrays, marked read-only: a cached table is shared by every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def _em_tables(M: int):
    """The fixed parts of an Euler-Maclaurin closure with M corrections, made
    on first use: for the odd orders m = 2j + 1, j < M, the complex C(m, i)
    (0 past i = m) and the index m - i of (i theta)^(m-i) in the powers
    (index 2M, a zero, past i = m); the coefficients
    (-1)^j 2 zeta(2j+2) / (2 pi)^(2j+2); and the remainder's factor
    2 zeta(2M) / (2 pi)^(2M)."""
    comb = np.zeros((M, 2 * M), dtype=complex)
    index = np.full((M, 2 * M), 2 * M)
    for j in range(M):
        m = 2 * j + 1
        comb[j, : m + 1] = binomial_row(m)
        index[j, : m + 1] = np.arange(m, -1, -1)
    coef = np.array([(-1) ** j * 2.0 * _ZETA[2 * j + 2] / (2.0 * math.pi) ** (2 * j + 2)
                     for j in range(M)])
    return (*_read_only(comb, index, coef), 2.0 * _ZETA[2 * M] / (2.0 * math.pi) ** (2 * M))


def _phi1(x):
    """expm1(x) / x, with the limit 1 at x = 0."""
    safe = np.where(x == 0.0, 1.0, x)
    return np.where(x == 0.0, 1.0, np.expm1(safe) / safe)


def _pole_pair(q: float, n0: int, theta: float, w):
    """The two terms of J(w) = int_w^inf e^{i theta u} u^-q du that have a
    pole at q = n0 + 1, summed: Gamma(1-q) (-i theta)^(q-1) and the series
    term -w^(1-q) (i theta w)^n0 / (n0! (n0 + 1 - q)).

    With e = q - 1 - n0, |e| <= 0.1, the sum is (i theta)^n0 / n0! * D,
    D = (w^-e - (-i theta)^e G(e)) / e and G(e) = Gamma(1-e) n0! / prod_j (j+e).
    Written as e^B phi1(e Q) Q with Q = -log w - L - log G(e) / e and
    B = e (L + log G(e) / e), it has no cancellation and the limit at e = 0
    is Q.  log Gamma(1-e) / e = gamma + sum_k zeta(k) e^(k-1) / k (DLMF 5.7.3).
    """
    e = q - 1.0 - n0
    lg = _EULER_GAMMA + math.fsum(_ZETA[k] * e ** (k - 1) / k for k in range(2, 24))
    lg -= math.fsum((math.log1p(e / j) / (e / j) if e else 1.0) / j for j in range(1, n0 + 1))
    big_l = math.log(abs(theta)) - 0.5j * math.pi * math.copysign(1.0, theta)
    Q = -np.log(w) - big_l - lg
    D = np.exp(e * (big_l + lg)) * _phi1(e * Q) * Q
    return (1j * theta) ** n0 / math.factorial(n0) * D


def _integral_term(q: float, theta: float, N: int, b, series: bool):
    """int_N^inf e^{i theta x} (x + b)^-q dx and a bound on its error.

    harmonic_tail's, exact at theta = 0 and by _BP_TERMS integrations by
    parts otherwise, through (x + b)^-q = i^q (s' + it')^-q with
    t' = x + Re b and s' = -Im b, times e^{-i theta Re b}.  With ``series``:
    the incomplete gamma function, e^{-i theta b} Gamma(1-q, -i theta w)
    (-i theta)^(q-1) with w = N + b, from
    Gamma(a, z) = Gamma(a) - z^a sum_k (-z)^k / (k! (a+k)) (DLMF 8.2.4,
    8.7.3) and its limit at integer q (DLMF 8.4.15), for |theta w| of order 1."""
    w = N + b
    log_w = math.log(float(np.max(np.abs(w))))
    if not series:
        T = N + b.real
        val, trunc, size = harmonic_tail(theta, -b.imag, q - 1.0, T, _BP_TERMS)
        # the phase theta T of e^{i theta T} is rounded twice (T, then theta T)
        rnd = ((8.0 if theta else 4.0) * (1.0 + q * log_w) + 2.0 * abs(theta) * T) * _EPS * size
        return np.exp(1j * (0.5 * math.pi * q - theta * b.real)) * val, trunc + rnd
    w1q = np.exp((1.0 - q) * np.log(w))
    z = 1j * theta * w
    n0 = int(round(q - 1.0))
    pair = abs(q - 1.0 - n0) <= 0.1
    zmax = float(np.max(np.abs(z)))
    kmax = max(int(q) + 2, 8)
    while zmax ** (kmax + 1) / math.factorial(kmax + 1) > 1e-20 * _EPS:
        kmax += 1
    acc = np.zeros_like(w)
    absum = np.zeros(w.shape)
    term = np.ones_like(w)
    for k in range(kmax + 1):
        if not (pair and k == n0):
            t = term / (k + 1.0 - q)
            acc = acc + t
            absum = absum + np.abs(t)
        term = term * z / (k + 1)
    if pair:
        head = _pole_pair(q, n0, theta, w)
    else:
        big_l = math.log(abs(theta)) - 0.5j * math.pi * math.copysign(1.0, theta)
        head = math.gamma(1.0 - q) * np.exp((q - 1.0) * big_l) * np.ones_like(w)
    J = head - w1q * acc
    val = np.exp(-1j * theta * b) * J
    scale = np.abs(np.exp(-1j * theta * b))
    trunc = 2.0 * zmax ** (kmax + 1) / math.factorial(kmax + 1) * np.abs(w1q)
    rnd = 32.0 * _EPS * (1.0 + q * log_w) * (np.abs(head) + np.abs(w1q) * absum)
    return val, scale * (trunc + rnd)


def _lerch_sum(q: float, theta: float, b):
    """S(b) = sum_{n>=0} e^{i theta n} (n + b)^-q for Re b >= 1, and a bound
    on its error.

    Summed directly over n < N, then closed by Euler-Maclaurin:
    sum_{n>=N} g(n) = int_N^inf g + g(N)/2 - sum_j B_2j/(2j)! g^(2j-1)(N) + R,
    |R| <= 2 zeta(2M) (2 pi)^-2M int_N^inf |g^(2M)| (DLMF 2.10.1, 24.7.2),
    with g(x) = e^{i theta x} (x + b)^-q.  For large q the direct sum alone
    reaches the node target."""
    beta = float(np.min(b.real))
    bmax = float(np.max(np.abs(b)))
    at = abs(theta)
    M = _EM_TERMS
    # direct only: the tail is at most (N + beta - 1)^(1-q) / (q - 1)
    log_n = (-math.log((q - 1.0) * _NODE_TARGET) + q * math.log(bmax)) / (q - 1.0)
    direct = log_n <= math.log(512.0)
    if direct:
        N = max(1, math.ceil(math.exp(log_n) - beta + 1.0))
    else:
        # Euler-Maclaurin needs (|theta| + (q + 2M)/(N + beta)) / (2 pi) <= 0.52
        N = max(1, math.ceil((q + 2 * M) / (1.04 * math.pi - at) - beta))
        xbp = 4.0 * (q + _BP_TERMS)
        series = 0.0 < at * _DIRECT_CAP < xbp
        if at and not series:
            N = max(N, math.ceil(xbp / at - beta))
    ns = np.arange(N, dtype=float)[:, None]
    terms = np.exp(1j * theta * ns - q * np.log(ns + b[None, :]))
    val = terms.sum(axis=0)
    err = _EPS * (8.0 + q * math.log(N + bmax) + math.log2(N + 1)) * np.abs(terms).sum(axis=0)
    if direct:
        return val, err + (N + beta - 1.0) ** (1.0 - q) / (q - 1.0)
    w = N + b
    wq = np.exp(-q * np.log(w))
    eN = np.exp(1j * theta * N)
    # u_i = (-1)^i (q)_i w^-i and v_k = (i theta)^k, so that
    # g^(m)(N) = e^{i theta N} w^-q sum_i C(m, i) v_(m-i) u_i
    u = [np.ones_like(w)]
    for i in range(2 * M - 1):
        u.append(-u[-1] * (q + i) / w)
    comb, index, coef, em_factor = _em_tables(M)
    v = np.array([(1j * theta) ** k for k in range(2 * M)] + [0j])
    deriv = (comb * v[index]) @ np.array(u)
    corr = coef @ deriv
    absum = np.abs(coef) @ np.abs(deriv)
    integral, integral_err = _integral_term(q, theta, N, b, series)
    val = val + integral + eN * wq * (0.5 - corr)
    # the remainder bound, through (x + beta)^(-q-i) <= |x + b|^(-q-i)
    bound = 0.0
    poch = 1.0
    for i, c in enumerate(binomial_row(2 * M)):
        bound += c * at ** (2 * M - i) * poch * (N + beta) ** (1.0 - q - i) / (q + i - 1.0)
        poch *= q + i
    em = em_factor * bound
    err = err + em + integral_err + 8.0 * _EPS * np.abs(wq) * (0.5 + absum)
    return val, err


def _clenshaw(coefs, x):
    """sum_k coefs[k] T_k(x) by Clenshaw's recurrence."""
    b1 = np.zeros(np.shape(x), dtype=complex)
    b2 = np.zeros_like(b1)
    for a in coefs[:0:-1]:
        b1, b2 = a + 2.0 * x * b1 - b2, b1
    return coefs[0] + x * b1 - b2


@lru_cache(maxsize=None)
def _kernel_tables(n: int):
    """The lattice kernel's fixed arrays for degree n, made on first use: the
    Chebyshev points of the second kind, the end-point halves and the
    cosine matrix times 2 / n that take values to coefficients, and
    k^2 and 2k for the terms k = 1 .. 9999 of the bound on |H|."""
    x = np.cos(math.pi * np.arange(n + 1) / n)
    half = np.ones(n + 1)
    half[0] = half[-1] = 0.5
    weights = (2.0 / n) * np.cos(math.pi * np.outer(np.arange(n + 1), np.arange(n + 1)) / n)
    ks = np.arange(1.0, 1e4)
    return _read_only(x, half, weights, ks * ks, 2.0 * ks)


class LatticeKernel:
    """K_1(t) = sum_{k>=1} w^k (s + i(t + kP))^-q on the period [c, c + P],
    w = e^{i theta}: the folded tail of a transform with
    phi(s + i(t + P)) = w phi(s + it), so that
    int_{c+P}^inf Re[phi(s+it) (s+it)^-q] dt = int_c^{c+P} Re[phi(s+it) K_1(t)] dt.

    K_1(t) = w (iP)^-q Phi(w, q, b) with b = 1 + (t - is)/P and Phi the Lerch
    transcendent (a Hurwitz zeta when w = 1).  The factor
    H(b) = b^q Phi(w, q, b) = sum_n w^n (b / (n + b))^q is analytic where
    Re b > 0, which holds inside the Bernstein ellipse rho = 4 of the period
    (the nearest singularity of K_1 is a full period away), and there
    |H| <= sum_n |b / (n + b)|^q.  H is interpolated in 33 Chebyshev points;
    the interpolation error is at most 4 M rho^-n / (rho - 1) (Trefethen,
    Approximation Theory and Approximation Practice, Thm 8.2).  ``bound`` is
    a uniform bound on |K_1 - computed K_1| over the period, with the node
    errors (times the Lebesgue constant) and rounding included.
    """

    def __init__(self, q: float, theta: float, s: float, P: float, c: float):
        if not (q > 1.0 and P > 0.0 and c >= 0.0 and -math.pi <= theta <= math.pi):
            raise DomainError("lattice kernel needs q > 1, P > 0, c >= 0, |theta| <= pi")
        self.q, self.s, self.P, self.c = q, s, P, c
        n = _CHEB_N
        x, half, weights, ks2, ks_twice = _kernel_tables(n)
        b = self._b(c + 0.5 * P * (1.0 + x))
        S, S_err = _lerch_sum(q, theta, b)
        bq = np.exp(q * np.log(b))
        H = bq * S
        H_err = np.abs(bq) * S_err + 8.0 * _EPS * (1.0 + q * np.abs(np.log(b))) * np.abs(H)
        # Chebyshev coefficients of the interpolant in the points of the second kind
        coefs = weights @ (half * H)
        coefs[0] *= 0.5
        coefs[-1] *= 0.5
        self._coefs = coefs
        self._front = np.exp(1j * theta - q * np.log(1j * P))   # w (iP)^-q
        # |H| on the ellipse: Re b >= r_min > 0 and |b| <= B there
        rho = _CHEB_RHO
        reach = 0.25 * (rho + 1.0 / rho)
        centre = complex(1.5 + c / P, -s / P)
        r_min = centre.real - reach
        B = abs(centre) + reach
        # a float sum of positive terms, rounded up by far more than its error
        M = (1.0 + 1e-9) * (1.0 + float(np.sum((B * B / (ks2 + ks_twice * r_min + B * B))
                                                ** (0.5 * q)))
                           + B ** q * 1e4 ** (1.0 - q) / (q - 1.0))
        lebesgue = 2.0 / math.pi * math.log(n + 1.0) + 1.0
        absum = float(np.sum(np.abs(coefs)))
        e_h = (4.0 * M * rho ** -n / (rho - 1.0) + lebesgue * float(np.max(H_err))
               + 8.0 * (n + 1) * _EPS * absum)
        floor = P ** -q * (1.0 + c / P) ** -q      # max of |(iP)^-q b^-q| on the period
        self.bound = floor * (e_h + (absum + e_h) * _EPS * (8.0 + q * math.log(B)))

    def _b(self, t):
        return 1.0 + (np.asarray(t, dtype=float) - 1j * self.s) / self.P

    def __call__(self, t):
        """K_1 at points t of [c, c + P]."""
        tt = np.asarray(t, dtype=float)
        x = 2.0 * (tt - self.c) / self.P - 1.0
        b = self._b(tt)
        return self._front * np.exp(-self.q * np.log(b)) * _clenshaw(self._coefs, x)
