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

The folded lattice kernel (LatticeKernel) needs the Lerch sum
S(b) = sum_n e^{i theta n} (n + b)^-q at 33 points (_lerch_sum).  It sums at
most _DIRECT_CAP = 256 terms per point directly, N of them, and closes the
rest by one of:
  - "direct": nothing, where the tail bound alone is small enough (q >~ 13),
    N <= 64 or so;
  - "exact": at theta = 0 the Euler-Maclaurin integral is a power, N ~ 20;
  - "series": the incomplete-gamma series for that integral where its
    rounding, about e^|theta (N + b)| times |N + b|^(1-q), stays within the
    direct sum's (|theta (N + b)| of a few units at low q, more at high q),
    N ~ 20, in 30 to 140 series terms;
  - "by-parts": integration by parts at the order its own remainder bound
    picks (at most 60), at the N where that remainder reaches the target,
    about 40 / |theta| at low q, at most 256.
Past |theta| = 3 pi / 4 even and odd terms can be paired, which turns the
phase into 2 theta - 2 pi and halves both sums ("paired ..."); they are
where that takes fewer terms and its closure is as accurate.  So a build
costs at most 256 x 33 complex powers and a fixed handful of array
operations.
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


def by_parts_powers(s, T, q: float, k: int):
    """(s+iT)^(-q-n) for n < k: a list at a float T, a (k, *T.shape) array,
    one running product, at an array T."""
    zT = s + 1j * T
    zpow = inv_power(s, T, q)
    if isinstance(zpow, np.ndarray):
        out = np.empty((k,) + zpow.shape, dtype=complex)
        out[0] = zpow
        out[1:] = 1.0 / zT
        return np.cumprod(out, axis=0)
    out = [zpow]
    for _ in range(k - 1):
        zpow = zpow / zT
        out.append(zpow)
    return out


def by_parts_remainder(a_k: float, fall, q: float, k: int):
    """|a_k| T^(1-q-k) / (q+k-1), given fall = T^(1-q-k)."""
    return abs(a_k) * fall / (q + k - 1.0)


def by_parts_sum(x: float, T, a: list, zpows):
    """The by-parts series of harmonic_tail from its coefficients and powers
    (an array of powers takes one matrix product)."""
    if isinstance(zpows, np.ndarray):
        return -np.exp(1j * T * x) / (1j * x) * (np.array(a[: len(zpows)]) @ zpows)
    eiTx = cmath.exp(1j * T * x)
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
    T takes Python complex arithmetic, an array T one running product of
    powers and matrix products in numpy.
    """
    if x == 0.0:
        val = power_tail(s, p, T, weight)
        return val, 0.0, abs(val)
    q = p + 1.0
    a = by_parts_coefs(x, q, k)
    zpows = by_parts_powers(s, T, q, k)
    val = weight * by_parts_sum(x, T, a, zpows)
    if isinstance(zpows, np.ndarray):
        size = abs(weight / x) * (np.abs(a[:k]) @ np.abs(zpows))
    else:
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
_BP_TERMS = 60        # most integrations by parts of the Euler-Maclaurin integral
_DIRECT_CAP = 256     # most direct terms of a Lerch sum (a pair's two halves share it)
_NODE_TARGET = 2.0**-62   # truncation error aimed at in each node's b^q S(b)
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
    on first use.  With c_j = B_(2j+2) / (2j+2)! = (-1)^j 2 zeta(2j+2) /
    (2 pi)^(2j+2), the corrections' sum over the odd orders m = 2j + 1 < 2M is
    sum_j c_j sum_i C(m, i) (i theta)^(m-i) u_i = sum_i u_i sum_k A[i, k] (i theta)^k,
    so A[i, k] = c_j C(i + k, i) where i + k = 2j + 1, else 0.  Returns A, |A|
    and the remainder's factor 2 zeta(2M) / (2 pi)^(2M)."""
    table = np.zeros((2 * M, 2 * M))
    for j in range(M):
        m = 2 * j + 1
        c = (-1) ** j * 2.0 * _ZETA[2 * j + 2] / (2.0 * math.pi) ** (2 * j + 2)
        table[np.arange(m + 1), np.arange(m, -1, -1)] = c * binomial_row(m)
    return (*_read_only(table, np.abs(table)), 2.0 * _ZETA[2 * M] / (2.0 * math.pi) ** (2 * M))


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


def _series_length(q: float, zmax: float):
    """The last k of the incomplete-gamma series at |z| <= zmax, where
    k >= q + 1 and the next term's size zmax^(k+1) / (k+1)! is below
    1e-20 eps, and that size."""
    kmax = max(int(q) + 2, 8)
    log_z = math.log(zmax)
    log_next = (kmax + 1) * log_z - math.lgamma(kmax + 2.0)
    while log_next > math.log(1e-20 * _EPS):
        kmax += 1
        log_next += log_z - math.log(kmax + 1.0)
    return kmax, math.exp(log_next)


def _series_rounding(q: float, log_w: float, kmax: int, zmax: float) -> float:
    """The series' rounding per unit of |w^(1-q)| times its terms' sizes:
    term k is a running product of k factors, each rounding by at most 8 eps,
    and sum_k k |term_k| is about |z| sum_k |term_k| (the terms z^k / k!
    peak near k = |z|); a row of kmax + 1 terms is summed pairwise (numpy: 4
    complex partial sums per block of 64), so a term passes through at most
    kmax/4 + 8 + log2(kmax + 1) additions."""
    return (4.0 * (1.0 + q * log_w) + 0.25 * kmax + 8.0 + math.log2(kmax + 1.0)
            + 8.0 * zmax) * _EPS


def _integral_term(q: float, theta: float, N: int, b, order: int):
    """int_N^inf e^{i theta x} (x + b)^-q dx and a bound on its error.

    order k > 0: harmonic_tail's k integrations by parts (exact at
    theta = 0), through (x + b)^-q = i^q (s' + it')^-q with t' = x + Re b and
    s' = -Im b, times e^{-i theta Re b}; each term costs a row of one running
    product.  order 0: the incomplete gamma function,
    e^{-i theta b} Gamma(1-q, -i theta w) (-i theta)^(q-1) with w = N + b,
    from Gamma(a, z) = Gamma(a) - z^a sum_k (-z)^k / (k! (a+k)) (DLMF 8.2.4,
    8.7.3) and its limit at integer q (DLMF 8.4.15), in as many terms as
    |theta w| needs; its rounding grows like e^|theta w| and is charged
    through the terms' sizes."""
    w = N + b
    log_w = math.log(float(np.max(np.abs(w))))
    if order:
        T = N + b.real
        val, trunc, size = harmonic_tail(theta, -b.imag, q - 1.0, T, order)
        # the powers are a running product of order factors; the phase
        # theta T of e^{i theta T} is rounded twice (T, then theta T)
        rnd = (((8.0 if theta else 4.0) * (1.0 + q * log_w) + 4.0 * order
                + 2.0 * abs(theta) * T) * _EPS * size)
        return np.exp(1j * (0.5 * math.pi * q - theta * b.real)) * val, trunc + rnd
    w1q = np.exp((1.0 - q) * np.log(w))
    z = 1j * theta * w
    n0 = int(round(q - 1.0))
    pair = abs(q - 1.0 - n0) <= 0.1
    zmax = float(np.max(np.abs(z)))
    kmax, next_size = _series_length(q, zmax)
    ks = np.arange(kmax + 1.0)
    # z^k / k! for k <= kmax, one running product per node, one row per node
    powers = np.empty((kmax + 1,) + w.shape, dtype=complex)
    powers[0] = 1.0
    powers[1:] = z / ks[1:, None]
    powers = np.cumprod(powers, axis=0).T
    denom = ks + 1.0 - q
    if pair:
        denom[n0] = math.inf            # its term is in the pole pair
    terms = powers / denom
    acc = np.sum(terms, axis=1)
    sizes = np.abs(terms)
    absum = sizes.sum(axis=1)
    if pair:
        head = _pole_pair(q, n0, theta, w)
    else:
        big_l = math.log(abs(theta)) - 0.5j * math.pi * math.copysign(1.0, theta)
        head = math.gamma(1.0 - q) * cmath.exp((q - 1.0) * big_l)
    phase = np.exp(-1j * theta * b)
    val = phase * (head - w1q * acc)
    # the terms past kmax shrink by at least half each
    trunc = 2.0 * next_size * np.abs(w1q)
    # term k carries 8 k eps from its running product (charged here exactly,
    # where _series_rounding predicts it as |z| times the sizes)
    rnd = (32.0 * (1.0 + q * log_w) * _EPS * np.abs(head) + np.abs(w1q)
           * (_series_rounding(q, log_w, kmax, 0.0) * absum + 8.0 * _EPS * (sizes @ ks)))
    return val, np.abs(phase) * (trunc + rnd)


def _by_parts_order(q: float, at: float, T: float):
    """The order k <= _BP_TERMS where harmonic_tail's remainder bound
    |a_k| T^(1-q-k) / (q+k-1) at phase at = |theta| past T is least, and the
    log of that bound (Olver's optimal truncation: the bound shrinks while
    q + k - 1 < at T)."""
    k = min(_BP_TERMS, max(1, math.ceil(at * T + 1.0 - q)))
    return k, (math.lgamma(q + k) - math.lgamma(q) - k * math.log(at * T)
               + (1.0 - q) * math.log(T) - math.log(q + k - 1.0))


def _em_remainder(q: float, at: float, T: float) -> float:
    """Euler-Maclaurin's remainder bound past T = N + beta, at phase
    at = |theta| with _EM_TERMS corrections: 2 zeta(2M) (2 pi)^-2M times
    sum_i C(2M, i) at^(2M-i) (q)_i T^(1-q-i) / (q+i-1), which bounds
    int_N^inf |g^(2M)| through (x + beta)^(-q-i) >= |x + b|^(-q-i)."""
    M = _EM_TERMS
    j = np.arange(2 * M + 1, dtype=float)
    pj = np.cumprod(np.concatenate(([1.0], q + j[:-1])))
    return _em_tables(M)[2] * float(np.sum(binomial_row(2 * M) * at ** (2 * M - j) * pj
                                           * np.exp((1.0 - q - j) * math.log(T)) / (q + j - 1.0)))


def _direct_rounding(q: float, at: float, bmax: float, sizes):
    """The rounding bound of a direct sum whose terms have the sizes given
    along the last axis (n = 0, 1, ...): each term's power and phase, and
    numpy's pairwise sum of a row (4 complex partial sums per block of 64,
    so a term passes through at most N/4 + 8 + log2(N) additions); theta n
    rounds once, and a paired phase is itself within eps/2 relative, so
    the phase is off by at most |theta| n eps."""
    N = sizes.shape[-1]
    ns = np.arange(N, dtype=float)
    return _EPS * ((8.0 + q * (1.0 + math.log(N + bmax)) + 0.25 * N + math.log2(N + 1.0))
                   * sizes.sum(axis=-1) + at * (sizes @ ns))


def _closure(q: float, theta: float, b, cap: int):
    """Where the direct sum of _lerch_sum stops and how its tail is closed:
    (N, order, log_err) with order as in _integral_term, or None for a
    direct sum alone, and log_err the log of the plan's predicted error: the
    direct sum's rounding at the node nearest 0, the closure's error and its
    rounding on a tail of size up to (N + beta)^(1-q) / (q - 1), and
    Euler-Maclaurin's remainder where the cap cut N short.

    A direct sum alone where its tail bound (N + beta - 1)^(1-q) / (q - 1)
    reaches the node target in N <= n_em terms; n_em (at most cap) is where
    Euler-Maclaurin's corrections converge,
    (|theta| + (q + 2M) / (N + beta)) / (2 pi) <= 0.52.  Else the integral
    is exact at theta = 0, and otherwise the series at n_em or integration
    by parts at the N in [n_em, cap] whose remainder reaches the target.
    The series is taken when its predicted rounding,
    _series_rounding |w|^(1-q) e^|theta w|, is within what the direct sum
    charges on a leading term of size |b|^-q, or below the remainder that
    integration by parts reaches within the cap."""
    beta = float(np.min(b.real))
    bmax = float(np.max(np.abs(b)))
    at = abs(theta)
    log_target = math.log(_NODE_TARGET) - q * math.log(bmax)
    n_em = max(1, math.ceil((q + 2 * _EM_TERMS) / (1.04 * math.pi - at) - beta))
    log_em = math.log(_em_remainder(q, at, cap + beta)) if n_em > cap else -math.inf
    n_em = min(cap, n_em)
    log_n = (-math.log(q - 1.0) - log_target) / (q - 1.0)
    log_w = math.log(n_em + bmax)
    log_floor = (math.log((8.0 + q * (1.0 + log_w) + 0.25 * n_em + math.log2(n_em + 1.0)) * _EPS)
                 - q * math.log(bmax))
    if log_n <= math.log(n_em + beta - 1.0):
        N, order, log_tail = max(1, math.ceil(math.exp(log_n) - beta + 1.0)), None, log_target
    elif not theta:
        N, order, log_tail = n_em, 1, log_em
    else:
        zmax = at * (n_em + bmax)
        log_size = (1.0 - q) * math.log(n_em + beta) + zmax
        log_parts = _by_parts_order(q, at, cap + beta)[1]
        log_series = math.inf
        if log_size + math.log(4.0 * _EPS) <= max(log_floor, log_parts):   # else it cannot compete
            kmax = _series_length(q, zmax)[0]
            log_series = log_size + math.log(_series_rounding(q, log_w, kmax, zmax))
        if log_series <= log_floor or log_parts > max(log_floor, log_series):
            N, order, log_tail = n_em, 0, max(log_series, log_em)
        else:
            # the smallest N in [n_em, cap] whose optimal remainder reaches the target
            lo, hi = n_em, cap
            while lo < hi:
                mid = (lo + hi) // 2
                if _by_parts_order(q, at, mid + beta)[1] <= log_target:
                    hi = mid
                else:
                    lo = mid + 1
            order, log_r = _by_parts_order(q, at, lo + beta)
            N, log_tail = lo, max(log_r, log_em)
    sizes = np.exp(-q * np.log(np.arange(N, dtype=float) + beta))
    log_round = math.log(_direct_rounding(q, at, bmax, sizes))
    if order is not None:       # the closure's rounding, on a tail of size at most
                                # (N + beta)^(1-q) / (q - 1)
        log_round = np.logaddexp(log_round, math.log(32.0 * (1.0 + q * math.log(N + bmax)) * _EPS)
                                 + (1.0 - q) * math.log(N + beta) - math.log(q - 1.0))
    return N, order, float(np.logaddexp(log_round, log_tail))


def _lerch_sum(q: float, theta: float, b):
    """S(b) = sum_{n>=0} e^{i theta n} (n + b)^-q for Re b > 0, a bound on its
    error, the number of direct terms per node and the closure's name.

    Summed directly and closed as _closure says (_em_sum), in at most
    _DIRECT_CAP direct terms per node.  For |theta| > 3 pi / 4 the terms can
    be paired, n = 2m and 2m + 1:
    S(b) = 2^-q (S'(b/2) + e^{i theta} S'((b+1)/2)), where S' has the phase
    2 theta - 2 pi sign(theta), at most pi / 2 in size, so that
    Euler-Maclaurin needs some 20 terms per half instead of 256 or more near
    |theta| = pi.  They are where the pair's predicted error (_closure) is
    the smaller.  At low q the paired phase can land where neither the
    series nor integration by parts closes well in half the cap (|theta|
    some 0.05 to 0.15 below pi); there the terms stay unpaired, whose
    integration by parts is then short.
    """
    N, order, log_err = _closure(q, theta, b, _DIRECT_CAP)
    if abs(theta) > 0.75 * math.pi:
        sign = math.copysign(1.0, theta)
        # 2 (theta - sign pi) with pi = fl(pi) + sin(fl(pi)): theta - fl(pi)
        # is exact (Sterbenz), so the phase is rounded once
        half_phase = 2.0 * ((theta - sign * math.pi) - sign * math.sin(math.pi))
        halves = np.concatenate((0.5 * b, 0.5 * b + 0.5))
        half_n, half_order, half_err = _closure(q, half_phase, halves, _DIRECT_CAP // 2)
        if (1.0 - q) * math.log(2.0) + half_err < log_err:     # 2^-q (S'_even + S'_odd)
            m = b.size
            val, err, closure = _em_sum(q, half_phase, halves, half_n, half_order)
            even, odd = val[:m], val[m:]
            scale = 2.0 ** -q
            out = scale * (even + cmath.exp(1j * theta) * odd)
            err = scale * (err[:m] + err[m:] + 4.0 * _EPS * (np.abs(even) + np.abs(odd)))
            return out, err, 2 * half_n, "paired " + closure
    val, err, closure = _em_sum(q, theta, b, N, order)
    return val, err, N, closure


def _em_sum(q: float, theta: float, b, N: int, order):
    """_lerch_sum without pairing, over n < N directly and closed by order
    (None: the direct sum's tail bound alone).

    Summed directly over n < N, then closed by Euler-Maclaurin:
    sum_{n>=N} g(n) = int_N^inf g + g(N)/2 - sum_j B_2j/(2j)! g^(2j-1)(N) + R,
    |R| <= 2 zeta(2M) (2 pi)^-2M int_N^inf |g^(2M)| (DLMF 2.10.1, 24.7.2),
    with g(x) = e^{i theta x} (x + b)^-q, and the integral by
    _integral_term.  The direct terms are a phase row times the powers
    (n + b)^-q, which are real where b is."""
    beta = float(np.min(b.real))
    bmax = float(np.max(np.abs(b)))
    at = abs(theta)
    ns = np.arange(N, dtype=float)
    powers = np.exp(-q * np.log(b[:, None] + ns))         # one row per node
    val = np.sum(powers * np.exp(1j * theta * ns), axis=1)
    err = _direct_rounding(q, at, bmax, np.abs(powers))
    if order is None:
        return val, err + (N + beta - 1.0) ** (1.0 - q) / (q - 1.0), "direct"
    M = _EM_TERMS
    w = N + b
    wq = np.exp(-q * np.log(w))
    # u_i = (-1)^i (q)_i w^-i and v_k = (i theta)^k, so that
    # g^(m)(N) = e^{i theta N} w^-q sum_i C(m, i) v_(m-i) u_i
    i = np.arange(2 * M, dtype=float)
    u = np.empty((2 * M,) + w.shape, dtype=w.dtype)
    u[0] = 1.0
    u[1:] = -(q + i[:-1, None]) / w
    u = np.cumprod(u, axis=0)
    table, table_abs, _ = _em_tables(M)
    v = np.full(2 * M, 1j * theta)
    v[0] = 1.0
    v = np.cumprod(v)
    corr = (table @ v) @ u
    absum = (table_abs @ np.abs(v)) @ np.abs(u)
    integral, integral_err = _integral_term(q, theta, N, b, order)
    val = val + integral + np.exp(1j * theta * N) * wq * (0.5 - corr)
    err = (err + _em_remainder(q, at, N + beta) + integral_err
           + (8.0 + 4.0 * M) * _EPS * np.abs(wq) * (0.5 + absum))
    return val, err, "exact" if not theta else ("by-parts" if order else "series")


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
    cosine matrix times 2 / n that take values to coefficients."""
    x = np.cos(math.pi * np.arange(n + 1) / n)
    half = np.ones(n + 1)
    half[0] = half[-1] = 0.5
    weights = (2.0 / n) * np.cos(math.pi * np.outer(np.arange(n + 1), np.arange(n + 1)) / n)
    return _read_only(x, half, weights)


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
    |H| <= sum_n |b / (n + b)|^q <= 1 + int_0^inf (1 + u^2 / B^2)^(-q/2) du
    = 1 + B sqrt(pi) Gamma((q-1)/2) / (2 Gamma(q/2)) = M, with |b| <= B,
    since |n + b|^2 >= n^2 + |b|^2.  H is interpolated in 33 Chebyshev
    points; the interpolation error is at most 4 M rho^-n / (rho - 1)
    (Trefethen, Approximation Theory and Approximation Practice, Thm 8.2).
    ``bound`` is a uniform bound on |K_1 - computed K_1| over the period,
    with the node errors (times the Lebesgue constant) and rounding
    included.  ``terms`` is the number of direct Lerch terms per node (at
    most _DIRECT_CAP) and ``closure`` how _lerch_sum closed their tail.
    """

    def __init__(self, q: float, theta: float, s: float, P: float, c: float):
        if not (q > 1.0 and P > 0.0 and c >= 0.0 and -math.pi <= theta <= math.pi):
            raise DomainError("lattice kernel needs q > 1, P > 0, c >= 0, |theta| <= pi")
        self.q, self.s, self.P, self.c = q, s, P, c
        n = _CHEB_N
        x, half, weights = _kernel_tables(n)
        b = self._b(c + 0.5 * P * (1.0 + x))
        S, S_err, self.terms, self.closure = _lerch_sum(q, theta, b)
        bq = np.exp(q * np.log(b))
        H = bq * S
        H_err = np.abs(bq) * S_err + 8.0 * _EPS * (1.0 + q * np.abs(np.log(b))) * np.abs(H)
        # Chebyshev coefficients of the interpolant in the points of the second kind
        coefs = weights @ (half * H)
        coefs[0] *= 0.5
        coefs[-1] *= 0.5
        self._coefs = coefs
        self._front = np.exp(1j * theta - q * np.log(1j * P))   # w (iP)^-q
        # |H| on the ellipse, where Re b >= 1.5 - reach > 0 and |b| <= B
        rho = _CHEB_RHO
        reach = 0.25 * (rho + 1.0 / rho)
        B = abs(complex(1.5 + c / P, -s / P)) + reach
        M = 1.0 + B * math.sqrt(math.pi) / 2.0 * math.exp(math.lgamma(0.5 * (q - 1.0))
                                                           - math.lgamma(0.5 * q))
        lebesgue = 2.0 / math.pi * math.log(n + 1.0) + 1.0
        absum = float(np.sum(np.abs(coefs)))
        e_h = (4.0 * M * rho ** -n / (rho - 1.0) + lebesgue * float(np.max(H_err))
               + 8.0 * (n + 1) * _EPS * absum)
        # max of |(iP)^-q b^-q| on the period, where |b| >= |1 + c/P - is/P|
        floor = P ** -q * abs(complex(1.0 + c / P, -s / P)) ** -q
        self.bound = floor * (e_h + (absum + e_h) * _EPS * (8.0 + q * math.log(B)))

    def _b(self, t):
        """b = 1 + (t - is) / P, a real array where s = 0."""
        tt = np.asarray(t, dtype=float)
        return 1.0 + (tt - 1j * self.s if self.s else tt) / self.P

    def __call__(self, t):
        """K_1 at points t of [c, c + P]."""
        tt = np.asarray(t, dtype=float)
        x = 2.0 * (tt - self.c) / self.P - 1.0
        b = self._b(tt)
        return self._front * np.exp(-self.q * np.log(b)) * _clenshaw(self._coefs, x)
