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
moments._fold), and the by-parts powers of the moment routes' tail model
(by_parts_powers).  These take their own principal powers, without the
exact axis phase: power_tail (Python's complex **), the lattice kernel
(LatticeKernel, _lerch_sum) and the single-exponential branch of
moments._transform_kernel's integrand (np.exp of a multiple of np.log).

The closed tails past a truncation point T, for the moment routes' tail
model (moments._TailModel): power_tail, the by-parts series
(by_parts_coefs, by_parts_powers, by_parts_sum and by_parts_remainder;
Olver, Asymptotics and Special Functions, 1974), and decay_bound, the
Gaussian-Mills or algebraic bound, which the Pin engine shares.

The folded lattice kernel (LatticeKernel) needs the Lerch sum
S(b) = sum_n e^{i theta n} (n + b)^-q at 33 points (_lerch_sum), closed in
one of two ways:
  - "direct": N terms and nothing else, where the tail bound
    (N + beta - 1)^(1-q) / (q - 1) reaches the target within
    _DIRECT_CAP = 256 terms (q of about 10 and more);
  - "abel-plana": N >= 8 terms, then the Abel-Plana formula (DLMF 2.10.2)
    for the rest, at every phase alike: f(N)/2, the integral of f past N on a
    line rotated by sgn(theta) pi / 2 (a power at theta = 0), and the
    Abel-Plana integral, both in 16-point Gauss-Legendre panels that double
    in width away from 0.  Each panel's error is bounded on a Bernstein
    ellipse, as the interpolant's is, and each line's tail in closed form.
So a build costs at most 256 x 33 complex powers, and up to 1,024 x 33
(about 200 to 450 x 33 in practice) complex exponentials with the real
logarithms and arctangents of their exponents, and a fixed handful of array
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
    """a_0 .. a_k of the by-parts series (by_parts_sum): a_0 = 1, a_{n+1} = a_n (q+n)/x."""
    a = [1.0]
    for n in range(k):
        a.append(a[-1] * (q + n) / x)
    return a


def by_parts_powers(s: float, T: float, q: float, k: int) -> list:
    """(s+iT)^(-q-n) for n < k, one running product from inv_power's float pair."""
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


def by_parts_sum(x: float, T: float, a: list, zpows: list) -> complex:
    """int_T^inf e^{itx} (s+it)^-q dt (q > 1, T > 0, x != 0) to k terms:
    k integrations by parts give sum_{n<k} a_n (-(s+iT)^{-q-n} e^{iTx} / (ix)),
    with a_n from by_parts_coefs and the powers from by_parts_powers, and a
    remainder at most by_parts_remainder(a_k, T^(1-q-k), q, k) for any
    T > 0, not merely asymptotically (Olver, Asymptotics and Special
    Functions, 1974).  Harmonics at one T can share the powers."""
    eiTx = cmath.exp(1j * T * x)
    val = 0.0 + 0.0j
    for an, zpow in zip(a, zpows):
        val += an * (-(zpow * eiTx) / (1j * x))
    return val


def power_tail(s, p: float, T, weight: float = 1.0):
    """weight * int_T^inf (s+it)^-(p+1) dt = weight (s+iT)^-p / (ip) for p > 0:
    the by-parts series at x = 0, exact."""
    return weight * (s + 1j * T) ** -p / (1j * p)


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
_DIRECT_CAP = 256     # most direct terms of a Lerch sum closed by nothing
_NODE_TARGET = 2.0**-62   # truncation error aimed at in each node's b^q S(b)
_AP_TERMS = 8         # least direct terms before the Abel-Plana closure
_GL_POINTS = 16       # Gauss-Legendre points per panel
_FIRST_PANEL = 0.5    # panels [0, 1/2], [1/2, 1], [1, 2], ...: each doubles
_AP_PANELS = 8        # most panels of the Abel-Plana integral (to y = 64)
_MAX_PANELS = 56      # most panels on the rotated line: 1,024 nodes per point
# the positive half of the 16-point Gauss-Legendre rule on [-1, 1]: (node,
# weight), each the double nearest the root of P_16 or its weight (40 digits)
_GL_HALF = ((0.09501250983763744, 0.1894506104550685), (0.2816035507792589, 0.18260341504492358),
            (0.45801677765722737, 0.16915651939500254), (0.6178762444026438, 0.14959598881657674),
            (0.755404408355003, 0.12462897125553388), (0.8656312023878318, 0.09515851168249279),
            (0.9445750230732326, 0.062253523938647894), (0.9894009349916499, 0.027152459411754096))


def _read_only(*arrays) -> tuple:
    """The arrays, marked read-only: a cached table is shared by every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def binomial_row(n: int) -> np.ndarray:
    """C(n, 0 .. n) as floats, each the exact integer rounded once (as an
    int times a float rounds it); one read-only row per n, made on first use."""
    return _read_only(np.array([float(math.comb(n, i)) for i in range(n + 1)]))[0]


@lru_cache(maxsize=None)
def _panel_table():
    """The closure's panels, made on first use: their nodes, weights and
    end points, and per panel and Bernstein ellipse rho (16 from 1.1 to
    64), the parts of _panel_error's bounds that depend on them alone: the
    midpoint m, the reach r beta, the least Re y = m - r alpha, r alpha,
    the Gauss-Legendre factor with r, and the Abel-Plana integrand's bound
    without its power and its factor of |theta| (inf where the ellipse is
    not allowed).  The edges are powers of two, so m and r are exact, and
    so is each node's offset from its midpoint."""
    x, w = np.array(_GL_HALF).T
    x, w = np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))
    edges = np.concatenate(([0.0], _FIRST_PANEL * 2.0 ** np.arange(_MAX_PANELS)))
    m, r = 0.5 * (edges[1:, None] + edges[:-1, None]), 0.5 * (edges[1:, None] - edges[:-1, None])
    rho = np.geomspace(1.1, 64.0, 16)
    alpha, beta = 0.5 * (rho + 1.0 / rho), 0.5 * (rho - 1.0 / rho)
    u = m - r * alpha
    gauss = (np.log(r) + math.log(64.0 / 15.0) - 2.0 * (_GL_POINTS - 1) * np.log(rho)
             - np.log(rho * rho - 1.0))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ap = np.where(u > 0.0, math.log(2.0) - np.log(np.expm1(2.0 * math.pi * u)), np.inf)
    ap[0] = np.where(r[0] * beta <= 0.5, math.log(0.5) + 2.0 * math.pi * r[0] * (alpha - 1.0)
                     - np.log(r[0] * (alpha - 1.0)), np.inf)
    ap_at = np.vstack((r[0] * (1.0 + alpha), u[1:]))
    return _read_only((m + r * x).ravel(), (r * w).ravel(), edges[1:], m, r * beta, u, r * alpha,
                      gauss, ap, ap_at)


def _panel_error(q: float, at: float, a: float, B: float, n_ap: int, n_rot: int) -> float:
    """A bound on the Gauss-Legendre error of the closure's first n_ap
    panels of the Abel-Plana integral and n_rot of the rotated one.

    A panel of midpoint m and half width r takes its error from the
    Bernstein ellipse rho about it, on which the integrand is below M:
    r (64/15) M rho^-30 / (rho^2 - 1) for 16 points (Trefethen, ATAP,
    Thm 19.3), at the rho of _panel_table that gives the least.  On the
    ellipse, |Re y - m| <= r alpha and |Im y| <= r beta, with alpha, beta =
    (rho +- 1/rho)/2.  With a = N + min Re b and B = |Im b|:
      - |f(N +- iy)| <= e^{|theta| |Re y|} (a - |Im y|)^-q;
      - on the Abel-Plana line past the first panel, Re y >= m - r alpha > 0
        and |e^{2 pi y} - 1| >= e^{2 pi Re y} - 1;
      - on its first panel [0, 1/2], y = 0 is a removable singularity, so M
        is taken on the ellipse's edge, at least r (alpha - 1) from 0, with
        |e^z - 1| >= (2/pi) e^{min(Re z, 0)} |z| for |Im z| <= pi;
      - on the rotated line, |f(N + i sgn(theta) y)| = e^{-|theta| Re y} /
        |y - y*|^q, y* = i sgn(theta) (N + b) at least a from the real axis.
    """
    m, reach, u, far, gauss, ap, ap_at = _panel_table()[3:]
    n = max(n_ap, n_rot)
    with np.errstate(divide="ignore"):
        power = -q * np.log(np.maximum(a - reach[:n], 0.0))      # inf where reach >= a
        logs = [power[:n_ap] + ap[:n_ap] + at * ap_at[:n_ap]]
        if n_rot:
            near = np.hypot(np.maximum(a - reach[:n_rot], 0.0), np.maximum(u[:n_rot] - B, 0.0))
            d = np.maximum(near, np.hypot(a, np.maximum(m[:n_rot] - B, 0.0)) - far[:n_rot])
            logs.append(-at * u[:n_rot] - q * np.log(np.maximum(d, 0.0)))
    total = np.concatenate(logs) + np.concatenate((gauss[:n_ap], gauss[:n_rot]))
    return float(np.sum(np.exp(np.min(total, axis=1))))


def _panel_counts(q: float, at: float, a: float, B: float, log_target: float):
    """The panels each line takes and a bound on both tails past them.

    Each line runs to the first panel end Y past which its tail is within a
    quarter of the target (or to its last panel), the rotated line (none at
    theta = 0) at least as far as the other.  With |N + b +- iy| >= h =
    hypot(a, y - B) past B, the tails are at most
    2 h^-q e^{-(2 pi - |theta|) Y} / ((2 pi - |theta|) (1 - e^{-2 pi Y}))
    and h^-q e^{-|theta| Y} / |theta| or (Y - B)^(1-q) / (q - 1)."""
    Y = _panel_table()[2]
    log_h = -q * np.log(np.hypot(a, np.maximum(Y - B, 0.0)))
    rate = 2.0 * math.pi - at
    ap = log_h - rate * Y - np.log1p(-np.exp(-2.0 * math.pi * Y)) + math.log(2.0 / rate)
    reached = ap[:_AP_PANELS] <= log_target - math.log(4.0)
    n_ap = 1 + int(np.argmax(reached)) if reached.any() else _AP_PANELS
    if not at:
        return n_ap, 0, math.exp(ap[n_ap - 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        power = np.where(Y > B, (1.0 - q) * np.log(Y - B) - math.log(q - 1.0), np.inf)
    rot = np.minimum(log_h - at * Y - math.log(at), power)
    reached = rot <= log_target - math.log(4.0)
    n_rot = max(n_ap, 1 + int(np.argmax(reached)) if reached.any() else _MAX_PANELS)
    return n_ap, n_rot, math.exp(ap[n_ap - 1]) + math.exp(rot[n_rot - 1])


def _additions(n: int) -> float:
    """A bound on the additions a term passes through in numpy's pairwise
    sum of a row of n: 4 complex partial sums per block of up to 64, then
    one per halving, so min(n, 64)/4 + 8 + log2(n + 1)."""
    return 0.25 * min(n, 64) + 8.0 + math.log2(n + 1.0)


def _direct_rounding(q: float, at: float, bmax: float, sizes):
    """The rounding bound of a direct sum whose terms have the sizes given
    along the last axis (n = 0, 1, ...): each term's power and phase, and
    their pairwise sum (_additions); theta n rounds once, so the phase is
    off by at most |theta| n eps."""
    N = sizes.shape[-1]
    ns = np.arange(N, dtype=float)
    return _EPS * ((8.0 + q * (1.0 + math.log(N + bmax)) + _additions(N))
                   * sizes.sum(axis=-1) + at * (sizes @ ns))


def _lerch_sum(q: float, theta: float, b):
    """S(b) = sum_{n>=0} e^{i theta n} (n + b)^-q for Re b > 0, a bound on its
    error, the number of direct terms and of quadrature nodes per point, and
    the closure's name.

    "direct": N terms, where the tail bound (N + beta - 1)^(1-q) / (q - 1),
    beta = min Re b, reaches the node target within _DIRECT_CAP terms.
    "abel-plana": N terms, at least _AP_TERMS and 1.5 |Im b| (so that the
    poles of f past N, at y = +-i (N + b), sit well off the lines near
    y = |Im b|), then, with f(x) = e^{i theta x} (x + b)^-q analytic for
    Re x > -Re b and |theta| <= pi < 2 pi (DLMF 2.10.2),
    sum_{n>=N} f(n) = f(N)/2 + int_N^inf f + i int_0^inf [f(N+iy) - f(N-iy)] / (e^{2 pi y} - 1) dy,
    where int_N^inf f is (N + b)^(1-q) / (q - 1) at theta = 0 and else
    i sgn(theta) int_0^inf f(N + i sgn(theta) y) dy.  Both lines take the
    same panels (_panel_table), so f(N + i sgn(theta) y) is evaluated once
    for both.  The Abel-Plana integrand decays like e^{-(2 pi - |theta|) y},
    the rotated one like e^{-|theta| y} |N + b + iy|^-q; their tail bounds
    set their lengths (_panel_counts).  The bound adds the panels' errors
    (_panel_error), the tails and the rounding of every product, from
    closed bounds on |f| at the nodes.  Where f(N + iy) - f(N - iy) cancels
    near y = 0, its two terms are each charged in full.
    """
    at = abs(theta)
    beta = float(np.min(b.real))
    bmax = float(np.max(np.abs(b)))
    log_target = math.log(_NODE_TARGET) - q * math.log(bmax)
    log_n = (-math.log(q - 1.0) - log_target) / (q - 1.0)
    direct = log_n <= math.log(_DIRECT_CAP + beta - 1.0)
    B = float(np.max(np.abs(b.imag)))
    # past N, f's poles sit about N + beta off both lines, near y = |Im b|
    N = (max(1, math.ceil(math.exp(log_n) - beta + 1.0)) if direct
         else min(_DIRECT_CAP, max(_AP_TERMS, math.ceil(1.5 * B))))
    ns = np.arange(N, dtype=float)
    powers = np.exp(-q * np.log(b[:, None] + ns))         # one row per node
    val = np.sum(powers * np.exp(1j * theta * ns), axis=1)
    err = _direct_rounding(q, at, bmax, np.abs(powers))
    if direct:
        return val, err + (N + beta - 1.0) ** (1.0 - q) / (q - 1.0), N, 0, "direct"
    w = N + b
    a = N + beta
    log_w = np.log(w)
    half_f = 0.5 * np.exp(1j * theta * N - q * log_w)
    val = val + half_f
    err = err + (6.0 + q * (1.0 + np.abs(log_w)) + at * N) * _EPS * np.abs(half_f)
    n_ap, n_rot, tail = _panel_counts(q, at, a, B, log_target)
    if not theta:
        exact = np.exp((1.0 - q) * log_w) / (q - 1.0)
        val = val + exact
        err = err + (6.0 + (q - 1.0) * (1.0 + np.abs(log_w))) * _EPS * np.abs(exact)
    y, wt = _panel_table()[:2]
    k_ap, k_rot = _GL_POINTS * n_ap, _GL_POINTS * n_rot
    sign = -1.0 if theta < 0.0 else 1.0
    y_all = y[:max(k_ap, k_rot)]
    y_ap = y[:k_ap]
    # f(N + i sign y) on every node, f(N - i sign y) on the Abel-Plana ones:
    # sum_n f(n) gains i sign (sum_j c+_j f(N + i sign y_j) - sum_j c-_j f(N - i sign y_j))
    decay = wt[:k_ap] / np.expm1(2.0 * math.pi * y_ap)       # y < 64: no overflow
    plus = np.zeros(y_all.size)
    plus[:k_rot] = wt[:k_rot]
    plus[:k_ap] += decay
    coefs = np.concatenate((plus, -decay))
    # the exponent i theta N -+ |theta| y - q log z at z = w +- i sign y, its
    # log |z| and arg z taken apart (numpy's complex log is several times slower)
    re = w.real[:, None]
    im = np.concatenate((w.imag[:, None] + sign * y_all, w.imag[:, None] - sign * y_ap), axis=1)
    shift = np.concatenate((-at * y_all, at * y_ap))
    exponent = np.empty(im.shape, dtype=complex)
    exponent.real = shift - 0.5 * q * np.log(re * re + im * im)
    exponent.imag = theta * N - q * np.arctan2(im, re)
    values = np.exp(exponent)
    quad = 1j * sign * np.sum(values * coefs, axis=1)
    # |f(N +- i sign y)| <= e^{-+|theta| y} h^-q, h = hypot(a, y - B), and each
    # product is off by kappa eps relative: the exponent's parts theta N,
    # |theta| y, q log |z| and q arg z, its exp, the node's rounding (2 y eps,
    # so 2 (|theta| y + q) eps), the weight and the products' sum; each
    # Abel-Plana weight by 4 pi y eps more (its node)
    size = -q * np.log(np.hypot(a, np.maximum(y_all - B, 0.0)))
    kappa = (12.0 + _additions(values.shape[1]) + at * (N + 3.0 * y_all)
             + 2.0 * q * (4.2 + np.log(float(np.max(np.abs(w))) + y_all)))
    rot = wt[:k_rot] * np.exp(size[:k_rot] - at * y_all[:k_rot])
    ap = decay * (np.exp(size[:k_ap] - at * y_ap) + np.exp(size[:k_ap] + at * y_ap))
    rnd = rot @ kappa[:k_rot] + ap @ (kappa[:k_ap] + 4.0 * math.pi * y_ap)
    err = (err + 4.0 * _EPS * np.abs(val) + _EPS * float(rnd) + tail
           + _panel_error(q, at, a, B, n_ap, n_rot))
    return val + quad, err, N, values.shape[1], "abel-plana"


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
    Each node's S(b) comes from _lerch_sum with a bound on its error: the
    direct sum's rounding and, where it is closed by the Abel-Plana formula,
    each quadrature panel's Bernstein-ellipse bound (the same Trefethen,
    Thm 19.3), the closed tails of both lines and the rounding of every
    node.  ``bound`` is a uniform bound on |K_1 - computed K_1| over the
    period, with the node errors (times the Lebesgue constant) and rounding
    included.  Per Chebyshev point, ``terms`` is the number of direct Lerch
    terms (at most _DIRECT_CAP) and ``nodes`` the number of quadrature
    nodes at which the closure evaluates f (0 for a direct sum, at most
    1,024); ``closure`` is "direct" or "abel-plana".
    """

    def __init__(self, q: float, theta: float, s: float, P: float, c: float):
        if not (q > 1.0 and P > 0.0 and c >= 0.0 and -math.pi <= theta <= math.pi):
            raise DomainError("lattice kernel needs q > 1, P > 0, c >= 0, |theta| <= pi")
        self.q, self.s, self.P, self.c = q, s, P, c
        n = _CHEB_N
        x, half, weights = _kernel_tables(n)
        b = self._b(c + 0.5 * P * (1.0 + x))
        S, S_err, self.terms, self.nodes, self.closure = _lerch_sum(q, theta, b)
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
