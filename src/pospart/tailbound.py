"""The optimal-bound pipeline for sums of bounded random variables.

Given a variance budget sigma^2, a summand upper bound y, and a skewness
fraction eps in (0, 1), the surrogate variable is

    eta = Normal(0, (1-eps) sigma^2) + y * (Poisson(lam) - lam),
    lam = eps sigma^2 / y^2,

whose transform has a simple closed form, so the positive-part moments of
eta - t are cheap through the transform representations.  The bound at level
x is

    Pin(x) = (E (eta - t_x)_+^2)^3 / (E (eta - t_x)_+^3)^2,

where t_x is the root of m(t) := t + E(eta-t)_+^3 / E(eta-t)_+^2 = x.

Moments come from the vertical-line route by the trapezoidal rule, whose
whole error is an alias sum with closed-form bounds, so no level is refined
(_moments23); each level's line is a saddle point (_line), and the levels on
one rung share its evaluations of E e^{z eta} (_trapezoid).  Below the
support's effective left edge (the Poisson floor minus thirty Gaussian
standard deviations) the positive part equals the variable itself, so raw
moments apply exactly; that switch keeps the x -> 0 end of a bound curve
exact and fast.  The paper's identity
d/dt E(eta-t)_+^p = -p E(eta-t)_+^(p-1) gives the slope
m'(t) = 2 mu1 mu3 / mu2^2 - 2 from the same pass (_eta_moments); m_of_t runs
the same engine on one level.

All levels of a curve sample the same increasing m, so the solver (_solve)
steps them together through one table of samples of m, each level from its
root under the Gaussian limit of eta (_gaussian_start), and the budget that
counts is the bar on m itself.  A probe that misses its level by little
settles it by an exact Taylor step in t (_carry) instead of another pass.
Each result row carries the error bars of mu2, mu3 and Pin, NaN only on a
level that failed, and the number of engine passes that evaluated it.

_eta, the unshifted spec that eta_spec shifts, is the one description of the
surrogate here: the line transform, its Gaussian variance and the raw
moments all come from the catalog's code for that spec; only the saddle
point's slope (_saddle) is written out from (sigma, y, eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import (
    CenteredScaledPoisson,
    DistributionSpec,
    IndependentSum,
    Normal,
    Shift,
    _log_fl_vec,
    gaussian_var,
    raw_moment,
)
from .errors import (
    BracketFailure,
    BudgetExceeded,
    DegenerateMoment,
    PositivePartError,
    PreconditionError,
    UnmetBudget,
)
from .moments import gamma_p1
from .quadrature import check_rel_tol
from .remainders import decay_bound

__all__ = [
    "TailBoundProblem",
    "TailBoundResult",
    "eta_spec",
    "m_of_t",
    "solve_tx",
    "pin",
    "pin_curve",
]

_FAR_LEFT_Z = 30.0        # Gaussian z-score beyond which (eta-t) > 0 in effect
_RIGHT_GUARD_SIGMAS = 40.0
_ORDERS = (1.0, 2.0, 3.0)
_PREF = np.array([gamma_p1(p) / math.pi for p in _ORDERS])[:, None]
# (level, node) cells per block: a block's arrays stay cache-sized and reuse
# freed memory, where larger ones are mapped afresh
_CELLS = 1 << 13
# transform nodes one rung may take: pin at eps = 1 - 1.8e-9 takes 1.8e6 a
# pass, and eps = 1 - 3e-10 is about the last that fits
_MAX_NODES = 5_000_000
_ROUNDING = 16.0          # eps per term for the sums and z^-(p+1)
# the share of a level's allowance its alias and truncation bounds aim at:
# the left aliases are a one-signed bias close to their bound, and h and N
# grow only with the log of the aim
_AIM = 1e-3
_EPS = float(np.finfo(float).eps)
# bisection alone narrows [edge, x] to 1e-14 relative width in about 60
# passes; interpolation and Newton passes only shorten that
_MAX_PASSES = 200


@dataclass(frozen=True)
class TailBoundProblem:
    """(sigma, y, eps) with finite sigma, y > 0, 0 < eps < 1 and sigma^2, lam in float range."""

    sigma: float
    y: float
    eps: float

    def __post_init__(self):
        if not 0.0 < self.sigma < math.inf:
            raise PreconditionError("sigma must be positive and finite")
        if not 0.0 < self.y < math.inf:
            raise PreconditionError("y must be positive and finite")
        if not 0.0 < self.eps < 1.0:
            raise PreconditionError("eps must be in (0, 1)")
        try:
            ok = 0.0 < self.sigma**2 < math.inf and 0.0 < self.lam < math.inf
        except (ZeroDivisionError, OverflowError):
            ok = False
        if not ok:
            raise PreconditionError(f"y = {self.y!r} and sigma = {self.sigma!r} put sigma^2 or "
                                    "the Poisson rate eps sigma^2 / y^2 outside the float range")

    @property
    def lam(self) -> float:
        return self.eps * self.sigma**2 / self.y**2


@dataclass
class TailBoundResult:
    """One level of the bound.  mu2_err and mu3_err bound the moments'
    integration error.  pin = F(t_x) = mu2^3 / mu3^2, while the bound that
    holds at the row's own root is G(t_x) = mu3 / (x - t_x)^3 >= Pin(x), and
    G / F = (1 - u)^-3 with u = (m - x) mu2 / mu3.  So
    pin_err = pin (3 mu2_err/mu2 + 2 mu3_err/mu3 + 3 |u|), with the rounding
    of m and of pin, carries the bars and the residual to Pin to first
    order, and G lies within it.  The bars are 0 at the far left, where
    closed forms apply, and NaN only on a level that failed.  probes counts
    the engine passes that evaluated the level: 0 at the far left and on a
    level that failed.  t_x is the level's last probe or one Taylor step past
    it (_carry), where mu2, mu3 and their bars are the Taylor model's."""

    x: float
    t_x: float
    pin: float
    mu2: float
    mu3: float
    residual: float
    error: Optional[str] = None
    mu2_err: float = math.nan
    mu3_err: float = math.nan
    pin_err: float = math.nan
    probes: int = 0

    def is_failure(self) -> bool:
        return self.error is not None


def _eta(problem: TailBoundProblem) -> DistributionSpec:
    """eta itself, unshifted, as a catalog spec."""
    return IndependentSum(
        Normal(0.0, (1.0 - problem.eps) * problem.sigma**2),
        CenteredScaledPoisson(problem.lam, problem.y),
    )


def eta_spec(problem: TailBoundProblem, t: float) -> DistributionSpec:
    """The surrogate variable eta - t as a catalog spec."""
    return Shift(_eta(problem), -t)


def _log_transform_at(problem: TailBoundProblem, t, s):
    """log E e^{s(eta - t)} for real s; t and s may be arrays."""
    return -s * t + np.real(_log_fl_vec(_eta(problem), s))


def _saddle(problem: TailBoundProblem, c, q):
    """The root r > 0 of kappa'(r) = c + q / r, where kappa(r) = log E e^{r eta}:
    the minimiser of the convex kappa(r) - c r - q log r.  c and q are
    arrays that broadcast.

    kappa'(r) = a r + lam y (e^{ry} - 1) lies between sigma^2 r and, for
    r y <= 1, (e - 1) sigma^2 r, so the root lies between min(1/y, r_(e-1))
    and r_1, r_v the positive root of v sigma^2 r^2 - c r - q.  Bisection on
    log2 r narrows that bracket to about 1/32 of a binary order."""
    a, lam, y = gaussian_var(_eta(problem)), problem.lam, problem.y
    var = problem.sigma * problem.sigma

    def log2_root(v):
        d = np.hypot(c, 2.0 * np.sqrt(v * q))
        with np.errstate(divide="ignore", over="ignore"):
            r = np.where(c > 0.0, (c + d) / (2.0 * v), 2.0 * q / (d - c))
            return np.clip(np.log2(r), -1074.0, 1023.0)

    lo = np.minimum(-math.log2(y), log2_root((math.e - 1.0) * var))
    hi = log2_root(var)
    with np.errstate(over="ignore"):
        for _ in range(math.ceil(math.log2(32.0 * np.max(hi - lo) + 1.0))):
            mid = 0.5 * (lo + hi)
            r = np.exp2(mid)
            up = a * r + lam * y * np.expm1(r * y) > c + q / r
            hi, lo = np.where(up, mid, hi), np.where(up, lo, mid)
    return np.exp2(0.5 * (lo + hi))


def _line(problem: TailBoundProblem, t):
    """The line offset s(t): the saddle point of log E e^{s(eta - t)} -
    3 log s, the line on which the p = 2 integrand's largest value e^{-st}
    E e^{s eta} s^-3 is least (Daniels 1954), rounded down to a power of 2
    so that levels share a rung: above the saddle E e^{s eta} can grow like
    e^{e^{sy}}, while at s/2 that value is at most 8 e^{st/2} times larger.
    The line only moves the contour, not the value; far left s ~ 3/|t|, so
    -s t stays near 3.  t may be an array."""
    return np.exp2(np.floor(np.log2(_saddle(problem, t, 3.0))))


def _far_left_edge(problem: TailBoundProblem) -> float:
    # eta has a hard floor at -lam*y (the Poisson part) minus Gaussian spread;
    # below this edge P(eta <= t) is under the Phi(-30) ~ 5e-198 level
    gauss_sd = math.sqrt(1.0 - problem.eps) * problem.sigma
    return -(problem.lam * problem.y + _FAR_LEFT_Z * gauss_sd)


def _far_left(problem: TailBoundProblem, t):
    """(mu1, mu2, mu3, m) at or below the far-left edge, where (eta-t)_+ is
    eta - t itself: raw moments, and m(t) in the cancellation-free form
    (m3 - 2 sigma^2 t) / (t^2 + sigma^2).  t may be an array."""
    var = problem.sigma * problem.sigma
    m3 = raw_moment(_eta(problem), 3)
    mu2 = t * t + var
    return -t, mu2, m3 - 3.0 * var * t - t**3, (m3 - 2.0 * var * t) / mu2


def _gaussian_start(sigma: float, edge: float, x) -> np.ndarray:
    """Each level's first probe: sigma a, where a is the root of the Gaussian
    limit m_N(a) = x / sigma, put into [edge, x].

    As eps -> 0, eta tends to Normal(0, sigma^2), its variance at every eps,
    whose m is sigma m_N(t / sigma).  With g_p = E(Z - a)_+^p for a standard
    normal Z, Q = P(Z > a) and phi its density, g1 = phi - a Q and
    g2 = (1 + a^2) Q - a phi, and Stein's identity g3 + a g2 = 2 g1 gives
    m_N = a + g3 / g2 = 2 g1 / g2 and the engine's slope
    2 g1 g3 / g2^2 - 2 = m_N (m_N - a) - 2 = m_N^2 - 2 Q / g2.  For a > 0 the
    g_p are taken in units of phi (Q / phi is the Mills ratio, finite while
    a <= 35) and the first slope form is used; for a <= 0 the second, which
    does not cancel as a -> -inf (m_N ~ -2 / a).  m_N is increasing and
    convex, so Newton steps from a point right of the root stay right of it:
    x / sigma, or below 1 the outer root of -2a / (1 + a^2), which lies
    below m_N.  a stays within [-1e150, 35], where a^2 is finite."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        z = x / sigma
    below = np.clip(z, 2e-150, 1.0)
    a = np.clip(np.where(z < 1.0, -(1.0 + np.sqrt(1.0 - below * below)) / below, z), -1e150, 35.0)
    for _ in range(8):
        q = 0.5 * np.array([math.erfc(v) for v in (a / math.sqrt(2.0)).tolist()])
        phi = np.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
        right = a > 0.0
        unit = np.where(right, phi, 1.0)
        q, phi = q / unit, phi / unit
        g2 = (1.0 + a * a) * q - a * phi
        m = 2.0 * (phi - a * q) / g2
        slope = np.where(right, m * (m - a) - 2.0, m * m - 2.0 * q / g2)
        a = np.clip(a - (m - z) / slope, -1e150, 35.0)
    return np.clip(sigma * a, edge, x)


def m_of_t(problem: TailBoundProblem, t: float, rel_tol: float = 1e-9) -> float:
    """m(t) = t + E(eta-t)_+^3 / E(eta-t)_+^2, from the engine the solver
    runs (_eta_moments) on the one level t."""
    if not math.isfinite(t):
        raise PreconditionError(f"level t must be finite, got {t!r}")
    check_rel_tol(rel_tol)
    ev = _eta_moments(problem, [t], rel_tol)
    if ev.failure[0] is not None:
        raise ev.failure[0]
    return float(ev.m[0])


@dataclass
class _EtaMoments:
    """Moments of eta - t for a batch of levels t, one column per level.

    mu[p-1] is E(eta-t)_+^p and err[p-1] its error bar, for p = 1, 2, 3; m is
    m(t).  mu1 is NaN unless finite and positive.  A failed row is NaN, and
    failure holds the PositivePartError that ended it (else None).
    """

    mu: np.ndarray
    err: np.ndarray
    m: np.ndarray
    failure: list


def _left_alias(p, a_t, s, L):
    """log of the bound (a_t + L)^p Li_{-p}(e^{-sL}) on the left aliases
    sum_k e^{-skL} G_p(t - kL), k >= 1, for p = 1, 2, 3: with a_t = M + (-t)_+
    and M = (E eta^4)^(1/4), Minkowski gives G_p(t - kL) <= (M + (kL - t)_+)^p
    <= k^p (a_t + L)^p, and sum_k k^p w^k = w P_p(w) / (1 - w)^(p+1) with
    the Eulerian polynomials P_1 = 1, P_2 = 1 + w, P_3 = 1 + 4w + w^2."""
    w = np.exp(-s * L)
    poly = np.where(p == 1.0, 1.0, np.where(p == 2.0, 1.0 + w, 1.0 + w * (4.0 + w)))
    return p * np.log(a_t + L) - s * L + np.log(poly) - (p + 1.0) * np.log1p(-w)


def _right_alias(problem: TailBoundProblem, p, t, r):
    """log of B(r) = (p / (e r))^p E e^{r(eta - t)}: Chernoff's bound
    (x)_+^p <= (p / (e r))^p e^{rx} gives, for any r > s, the right aliases
    sum_k e^{skL} G_p(t + kL) <= B(r) / (e^{(r - s) L} - 1), k >= 1."""
    return p * np.log(p / (math.e * r)) + _log_transform_at(problem, t, r)


def _trapezoid(problem: TailBoundProblem, t, lines, rung, step, last):
    """Trapezoidal sums on Bromwich lines that levels share.

    Rung j has the nodes u = 0, step[j], ..., last[j] step[j] on the line
    Re z = lines[j], and level i sits on rung rung[i].  Returns (total,
    absolute, moment, plain): total[p-1, i] sums Re[e^{-iut} H_p(u)] over its
    rung's nodes, u = 0 at half weight, where H_p = E e^{z eta} (s/z)^(p+1)
    / E e^{s eta} is scaled so that |H_p| <= 1 at every scale; absolute,
    moment and plain, per rung, sum the same weights times |H_p| and _ROUNDING +
    |log E e^{z eta}| + |log E e^{s eta}|, u and 1.  H_p is evaluated once
    per node, on chunks of nodes over every rung that reaches them, which
    end where a rung ends, and the levels go in blocks: at most _CELLS
    nodes, or (level, node) cells, at a time."""
    eta = _eta(problem)
    kappa = _log_transform_at(problem, 0.0, lines)
    total = np.zeros((3, t.size))
    absolute, moment, plain = np.zeros((3, 3, lines.size))
    first = 0
    for end in np.unique(last) + 1:
        live = np.flatnonzero(last >= first)
        rows = np.flatnonzero(last[rung] >= first)
        place = np.searchsorted(live, rung[rows])
        while first < end:
            width = int(min(end - first, max(1, _CELLS // live.size)))
            index = first + np.arange(width)
            u = step[live, None] * index
            z = lines[live, None] + 1j * u
            w = lines[live, None] / z
            with np.errstate(over="ignore", invalid="ignore", under="ignore"):
                lg = _log_fl_vec(eta, z)
                hp = np.exp(lg - kappa[live, None]) * w * w
            if first == 0:
                hp[:, 0] *= 0.5
            hp = np.stack([hp, hp * w, hp * w * w])
            size = np.abs(hp)
            weight = _ROUNDING + np.abs(lg) + np.abs(kappa[live, None])
            absolute[:, live] += (size * weight).sum(axis=2)
            moment[:, live] += (size * u).sum(axis=2)
            plain[:, live] += size.sum(axis=2)
            per_block = max(1, _CELLS // width)
            for lo in range(0, rows.size, per_block):
                i, j = rows[lo:lo + per_block], place[lo:lo + per_block]
                phase = t[i, None] * u[j]
                terms = np.cos(phase) * hp.real[:, j] + np.sin(phase) * hp.imag[:, j]
                total[:, i] += terms.sum(axis=2)
            first += width
    return total, absolute, moment, plain


def _moments23(problem: TailBoundProblem, t: np.ndarray, cut: np.ndarray):
    """mu1..mu3 and their error bars by the trapezoidal rule on Bromwich lines.

    On the line z = s + iu (s = _line(t)) the rule with step h sums
    (h / pi) Gamma(p+1) e^{-st} Re[e^{-iut} E e^{z eta} z^-(p+1)] over
    u = 0 (half weight), h, 2h, ...; by Poisson summation that sum is exactly
    sum_k e^{skL} G_p(t + kL), L = 2 pi / h, G_p(t) = E(eta - t)_+^p (Abate and
    Whitt 1992).  Each level takes h and the node count N a priori: its left
    aliases (_left_alias), right aliases (_right_alias, at the r that
    minimises B(r) e^{-rL}) and truncation beyond N h (the Gaussian-Mills
    bound of remainders.decay_bound, which the moment routes' tail model
    shares) each get a third of _AIM times the allowance cut[p-1] (in units
    of the moment).
    Levels on one rung share its nodes (_trapezoid): the smallest h and the
    largest N h of their levels.  A level's bar is those bounds at the rung's
    h and N plus rounding: eps times the terms' sizes weighted by _ROUNDING,
    |log E e^{z eta}| + |log E e^{s eta}| + |st| for the exponentials and
    u |t| for the phase.  A level whose own N, or its rung's, would pass
    _MAX_NODES is NaN.
    """
    a = gaussian_var(_eta(problem))
    p = np.array(_ORDERS)[:, None]
    s = _line(problem, t)
    log_k = _log_transform_at(problem, t, s)
    share = cut * (_AIM / 3.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_share = np.log(share)
        # the left aliases: s L = p log(a_t + L) - log share + ..., a
        # contraction from below; a level still short steps up to its bound
        # M = (E eta^4)^(1/4) = sigma M(1, y/sigma, eps): E eta^4 overflows past sigma ~ 1e77
        unit = TailBoundProblem(1.0, problem.y / problem.sigma, problem.eps)
        a_t = problem.sigma * raw_moment(_eta(unit), 4) ** 0.25 + np.maximum(-t, 0.0)
        x = np.maximum(1.0, -log_share)
        for _ in range(3):
            x = x + _left_alias(p, a_t, s, x / s) - log_share
        x = np.where(np.isfinite(x), 1.01 * x + 0.01, np.inf)
        while True:
            short = _left_alias(p, a_t, s, x / s) > log_share
            if not short.any():
                break
            x = np.where(short, 1.01 * x + 0.01, x)
        # the right aliases: B(r) / (e^{(r-s)L} - 1) <= share from
        # L = log1p(B(r) / share) / (r - s), r at the saddle of level t + L
        r = np.maximum(_saddle(problem, t + x / s, p), 1.0625 * s)
        log_b = _right_alias(problem, p, t, r)
        length = np.maximum(x / s, np.logaddexp(0.0, log_b - log_share) / (r - s))
        h = 2.0 * math.pi / length.max(axis=0)
        K = np.exp(log_k)
        target = share / _PREF
        # a truncation point that meets every target.  In v = sqrt(a) T the
        # Mills bound is K a^(p/2) v^-(p+2) e^{-v^2/2}: it meets the target
        # from the root of v = phi(v) = sqrt(2 (A - (p+2) log v)) on, and phi
        # falls, so from v >= that root two steps land at or above it.  The
        # algebraic bound inverts exactly
        A = log_k + 0.5 * p * np.log(a) - np.log(target)
        v = np.maximum(1.0, np.sqrt(2.0 * np.maximum(A, 0.0)))
        for _ in range(2):
            v = np.sqrt(2.0 * np.maximum(A - (p + 2.0) * np.log(v), 0.0))
        t_slow = (K / (p * target)) ** (1.0 / p)
        end = np.minimum(v / math.sqrt(a), t_slow).max(axis=0)
        ok = np.flatnonzero(np.ceil(end / h) <= _MAX_NODES)
    lines, rung = np.unique(s[ok], return_inverse=True)
    step = np.full(lines.size, np.inf)
    np.minimum.at(step, rung, h[ok])
    last = np.zeros(lines.size)
    np.maximum.at(last, rung, end[ok])
    last = np.ceil(last / step)
    # a rung runs its smallest step to its largest end: past the cap, its levels are NaN
    fits = last <= _MAX_NODES
    ok, rung = ok[fits[rung]], (np.cumsum(fits) - 1)[rung[fits[rung]]]
    lines, step, last = lines[fits], step[fits], last[fits]
    mu, err = np.full((2, 3, t.size), np.nan)
    if not ok.size:
        return mu, err
    tl = t[ok]
    total, absolute, moment, plain = _trapezoid(problem, tl, lines, rung, step, last)
    st, sl = step[rung], lines[rung]
    scale = np.exp(np.log(_PREF * st) + log_k[ok] - (p + 1.0) * np.log(sl))
    rounding = _EPS * scale * (absolute[:, rung] + np.abs(tl) * moment[:, rung]
                               + np.abs(sl * tl) * plain[:, rung])
    span = 2.0 * math.pi / st
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        alias = (np.exp(_left_alias(p, a_t[ok], sl, span))
                 + np.exp(log_b[:, ok] - np.log(np.expm1((r[:, ok] - sl) * span))))
    mu[:, ok] = scale * total
    err[:, ok] = alias + _PREF * decay_bound(K[ok], a, last[rung] * st, p + 1.0) + rounding
    return mu, err


def _eta_moments(problem: TailBoundProblem, ts, rel_tol: float, tail=None) -> _EtaMoments:
    """mu1, mu2, mu3 and m(t) of eta - t for every level in ts in one pass;
    the one place that classifies a level.

    Far-left levels take the closed form, and levels at or above 40 sigma
    fail with DegenerateMoment.  The others go to one trapezoidal pass on
    their lines (_moments23), whose aliasing and truncation fit each
    moment's allowance 0.125 rel_tol (1 + max(sigma,|t|)^p), or tail[p-1]
    where tail, a (3, n) array, gives a smaller one (NaN entries give none);
    the solver sizes tail from a level's own moments when its bar on m
    missed.  A level whose rule or rung would pass _MAX_NODES nodes fails
    with BudgetExceeded, one whose mu2 is not above its own error bar with
    DegenerateMoment.  m = t + mu3 / mu2.
    """
    ts = np.asarray(ts, dtype=float)
    n = ts.size
    mu = np.full((3, n), np.nan)
    err = np.full((3, n), np.nan)
    m = np.full(n, np.nan)
    left = ts <= _far_left_edge(problem)
    *moms, m[left] = _far_left(problem, ts[left])
    mu[:, left] = moms
    err[:, left] = 0.0
    with np.errstate(over="ignore"):   # the absolute budget's scale, inf past overflow
        basis = 1.0 + np.maximum(problem.sigma, np.abs(ts)) ** np.array(_ORDERS)[:, None]
    cut = 0.125 * rel_tol * basis
    if tail is not None:
        cut = np.fmin(cut, tail)
    line = ~left & (ts < _RIGHT_GUARD_SIGMAS * problem.sigma)
    if line.any():
        mu[:, line], err[:, line] = _moments23(problem, ts[line], cut[:, line])
    mu[0, ~(np.isfinite(mu[0]) & (mu[0] > 0.0))] = np.nan
    # mu2 within its bar of 0; the right guard's levels hold no values
    bad = ~left & ~(np.isfinite(mu[1]) & (mu[1] > err[1]))
    failure = [None] * n
    for i in np.flatnonzero(bad):
        over = line[i] and np.isnan(mu[1, i])    # a rule past _MAX_NODES
        failure[i] = BudgetExceeded(None, _MAX_NODES) if over else DegenerateMoment(float(ts[i]))
    mu[:, bad] = err[:, bad] = np.nan
    m[~left] = ts[~left] + mu[2, ~left] / mu[1, ~left]
    return _EtaMoments(mu, err, m, failure)


def _row(problem: TailBoundProblem, x: float, t: float, mu2: float, mu3: float,
         m: float, mu2_err: float, mu3_err: float, probes: int = 0) -> TailBoundResult:
    """The result at root t, found after probes engine passes.  Pin =
    mu2^3 / mu3^2, except at the far left, where |t| can reach 1e9 sigma and
    that ratio rounds above 1: there it is
    exp(3 log1p(sigma^2/t^2) - 2 log1p(3 sigma^2/t^2 - m3/t^3))."""
    if t > _far_left_edge(problem):
        value = mu2**3 / mu3**2
    else:
        r = problem.sigma**2 / (t * t)
        value = math.exp(3.0 * math.log1p(r)
                         - 2.0 * math.log1p(3.0 * r - raw_moment(_eta(problem), 3) / t**3))
    # G(t) = mu3 / (x - t)^3 differs from F by 3 |m - x| F mu2 / mu3 to first
    # order; m = t + mu3 / mu2 and m - x round by at most 2 eps |m|, and
    # either form of F by at most 8 eps
    off = 3.0 * (abs(m - x) + 2.0 * _EPS * abs(m)) * mu2 / mu3 + 8.0 * _EPS
    return TailBoundResult(x=x, t_x=t, pin=value, mu2=mu2, mu3=mu3, residual=abs(m - x),
                           mu2_err=mu2_err, mu3_err=mu3_err,
                           pin_err=value * (3.0 * mu2_err / mu2 + 2.0 * mu3_err / mu3 + off),
                           probes=probes)


def _carry(problem: TailBoundProblem, t, mu, err, d):
    """mu1..mu3 of eta - t carried by Taylor's theorem from a level t, where
    they are mu (3, n) with bars err, to t + d, with their bars; no transform
    is evaluated.  d is an array of n steps.

    G_p(t) = E(eta - t)_+^p has G_p' = -p G_(p-1), so with G_0 = P(eta > t)

        G_1(t + d) = mu1 - G_0 d
        G_2(t + d) = mu2 - 2 mu1 d + G_0 d^2
        G_3(t + d) = mu3 - 3 mu2 d + 3 mu1 d^2 - G_0 d^3,

    each G_0 a value P(eta > xi) at some xi between t and t + d.  All of them
    lie in [g, 1], g the larger of two lower bounds on G_0(t + d_+).
    Cauchy-Schwarz gives G_0 >= G_1^2 / G_2, where G_1 is at least
    mu1 - e1 - d_+ (G_1' = -G_0 >= -1) and G_2 at most mu2 + e2.  And left of
    0, P(eta <= u) <= e^{-u^2 / (2 sigma^2)}: log E e^{-r eta} is
    (1 - eps) sigma^2 r^2 / 2 + lam (e^{-ry} - 1 + ry), at most
    sigma^2 r^2 / 2, and Chernoff's bound at r = -u / sigma^2 is that
    Gaussian tail.  Across the far-left span that bound is the tight one;
    Cauchy-Schwarz leaves about sigma^2 / t^2 there.  The model takes the
    middle of [g, 1]; each bar is the probe's bars carried through (e1,
    e2 + 2|d| e1, e3 + 3|d| e2 + 3 d^2 e1), plus half of [g, 1] times |d|^p,
    plus _ROUNDING eps per unit of the terms' sizes for the arithmetic, g
    and d."""
    mu1, mu2, mu3 = mu
    e1, e2, e3 = err
    a = np.abs(d)
    up = np.maximum(d, 0.0)
    z = np.minimum(t + up, 0.0) / problem.sigma
    g = np.maximum(np.maximum(mu1 - e1 - up, 0.0) ** 2 / (mu2 + e2), -np.expm1(-0.5 * z * z))
    mid, half = 0.5 * (1.0 + g), 0.5 * (1.0 - g)
    sq = d * d
    value = np.stack([mu1 - mid * d, mu2 - 2.0 * mu1 * d + mid * sq,
                      mu3 - 3.0 * mu2 * d + 3.0 * mu1 * sq - mid * sq * d])
    size = np.stack([mu1 + a, mu2 + 2.0 * mu1 * a + sq,
                     mu3 + 3.0 * mu2 * a + 3.0 * mu1 * sq + sq * a])
    bar = np.stack([e1 + half * a, e2 + 2.0 * a * e1 + half * sq,
                    e3 + 3.0 * a * e2 + 3.0 * sq * e1 + half * sq * a])
    return value, bar + _ROUNDING * _EPS * size


def _hermite_inverse(x, ta, ma, da, tb, mb, db):
    """The cubic Hermite interpolant of t(m) through (ma, ta) and (mb, tb)
    with slopes dt/dm = 1/da and 1/db, at m = x; arrays broadcast."""
    h = mb - ma
    u = (x - ma) / h
    u2 = u * u
    u3 = u2 * u
    return ((2.0 * u3 - 3.0 * u2 + 1.0) * ta + (u3 - 2.0 * u2 + u) * h / da
            + (3.0 * u2 - 2.0 * u3) * tb + (u3 - u2) * h / db)


def _solve(problem: TailBoundProblem, xs, tol_x: float, rel_tol: float) -> list:
    """One outcome per level x: a TailBoundResult, or the PositivePartError
    that ended that level.

    m is increasing (m' >= 0 by Cauchy-Schwarz) and tends to 0 as t -> -inf.
    Levels at or below m(edge), the far-left edge, solve the closed-form
    quadratic x t^2 + 2 sigma^2 t + x sigma^2 - m3 = 0; levels x <= tol_x/2
    take the root at tol_x/2, since m never reaches 0.  Every other root lies
    in [edge, x] because m(x) > x.  Each level is first probed at its root
    under the Gaussian limit of eta (_gaussian_start), put into [edge, x];
    that start only picks the first probe, and the steps below settle the
    level.  Each pass evaluates all open levels together, with
    m' = 2 mu1 mu3/mu2^2 - 2 from the same pass.

    After each pass, a level whose sound probe (below) has m' > 0 and misses
    x takes a Taylor step: _carry carries its moments to t + d, and Newton
    on that model, whose slope obeys the same identity, gives the root d of
    m(t + d) = x.  If t + d lies between the far-left edge and the right
    guard, and both |m - x| and the model's bar on m (its moments' bars,
    remainders and rounding included) are within tol_x, the level settles
    there with the probes it took; otherwise it steps and is probed again.

    A probe's bar on m is (mu3_err + (m - t) mu2_err) / mu2.  A probe is
    sound when that bar is within tol_x: only a sound probe settles a level,
    which it does once |m - x| <= tol_x or by its Taylor step, and only
    sound probes enter the table of samples (t, m, m', bar) of the one
    increasing m that all levels share, seeded with the exact far-left edge.
    A level's bracket is the tightest the table certifies, a sample counting
    below x when m + bar < x and above when m - bar > x.  Its next probe is
    the cubic Hermite inverse interpolant of t(m) between the nearest
    samples on either side of x when that cubic is monotone, as t(m) is, by
    Fritsch and Carlson's (1980) sufficient condition: its end slopes over
    the secant's, alpha and beta, have alpha^2 + beta^2 <= 9.  Otherwise, as
    across the far-left span from
    the edge, where m' is near 0 and the cubic bends so far that it lands
    just past the level's own probe on every pass, the Newton step from that
    probe comes first.  The first of the two that lies strictly inside the
    bracket is taken, else the bracket's midpoint.

    A probe that is not sound sizes the level's later allowances from its
    own moments, so that aliasing and truncation take at most a quarter of
    tol_x of the bar on m.  It still steps when the sign of m - x is certain (|m - x| > bar);
    otherwise the level is probed again at the same t, and if that probe,
    sized from the moments there, is still not sound and uncertain, the
    level ends with UnmetBudget.  Where a degenerate moment stops a probe
    the bracket closes from the right, and a level whose bracket then
    narrows to rounding level without meeting tol_x fails with it; otherwise
    such a level returns its best sound probe with the residual reached.
    """
    if not (1e-12 <= tol_x <= 1e-3):
        raise PreconditionError(f"tol_x must lie in [1e-12, 1e-3], got {tol_x!r}")
    check_rel_tol(rel_tol)
    xs = np.asarray(xs, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise PreconditionError("levels x must be finite")
    tol = max(min(0.05 * tol_x, rel_tol), 1e-13)
    var = problem.sigma * problem.sigma
    edge = _far_left_edge(problem)
    m3 = raw_moment(_eta(problem), 3)
    mu1_e, mu2_e, mu3_e, m_edge = _far_left(problem, edge)
    if mu2_e * mu2_e < np.finfo(float).tiny:
        # the slope m' = 2 mu1 mu3 / mu2^2 - 2 divides by it
        raise PreconditionError(
            f"sigma = {problem.sigma!r} is too small a scale: the second moment at the far-left "
            f"edge, {mu2_e:.3g}, squares below the float range; Pin(x) on (sigma, y, eps) is "
            "Pin(x / sigma) on (1, y / sigma, eps)")
    out: list = [None] * xs.size
    far = xs <= m_edge
    for i in np.flatnonzero(far):
        level = float(xs[i])
        xt = max(level, 0.5 * tol_x)
        root = (-var - math.sqrt(var * var - xt * (xt * var - m3))) / xt
        _, mu2, mu3, m = _far_left(problem, root)
        out[i] = (_row(problem, level, root, mu2, mu3, m, 0.0, 0.0) if abs(m - level) <= tol_x
                  else BracketFailure(-math.inf, edge, 0.0, m_edge))

    idx = np.flatnonzero(~far)
    x = xs[idx]
    lo = np.full(idx.size, edge)
    hi = x.copy()
    t = _gaussian_start(problem.sigma, edge, x)
    probes = np.zeros(idx.size, dtype=int)  # engine passes that evaluated the level
    newton = np.full(idx.size, np.nan)  # the Newton step from the level's last probe
    tail = np.full((3, idx.size), np.nan)  # truncation allowances sized from its moments
    sized_at = np.full(idx.size, np.nan)   # the level t those moments came from
    # (|m - x|, t, mu2, mu3, m, mu2_err, mu3_err) of the closest sound probe;
    # its row is built once, when the level settles
    best: list = [None] * idx.size
    stop: list = [None] * idx.size      # the DegenerateMoment that last cut the bracket
    missed: list = [None] * idx.size    # the UnmetBudget of the last probe that was not sound
    # samples (t, m, m', bar on m) of sound probes, by columns
    table = np.array([[edge], [m_edge], [2.0 * mu1_e * mu3_e / (mu2_e * mu2_e) - 2.0], [0.0]])

    def best_row(j):
        return _row(problem, float(x[j]), *best[j][1:], int(probes[j]))

    def settle(j):
        # no probe met tol_x: a root past a degenerate probe is unusable,
        # otherwise the closest sound probe reports the residual it reached
        if stop[j] is not None:
            return stop[j]
        return best_row(j) if best[j] is not None else missed[j]

    open_ = list(range(idx.size))
    for _ in range(_MAX_PASSES):
        if not open_:
            break
        probe = t[open_]
        probes[open_] += 1
        ev = _eta_moments(problem, probe, tol, tail[:, open_])
        mu1, mu2, mu3 = ev.mu
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            bar = (ev.err[2] + (ev.m - probe) * ev.err[1]) / mu2
            slope = 2.0 * mu1 * mu3 / (mu2 * mu2) - 2.0
        sound = bar <= tol_x                # False on failed rows, whose bars are NaN
        keep = sound & (slope > 0.0)
        table = np.concatenate(
            [table, np.stack([probe[keep], ev.m[keep], slope[keep], bar[keep]])], axis=1)
        # each probe's Taylor step: Newton on the model m(t + d) = x (_carry),
        # whose slope obeys the same identity; the last model evaluated is the
        # level's row if its residual and its bar on m meet tol_x
        goal = x[open_]
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            d = (goal - ev.m) / slope
            for _ in range(4):
                near = probe + d
                (c1, c2, c3), (_, b2, b3) = _carry(problem, probe, ev.mu, ev.err, near - probe)
                m_near = near + c3 / c2
                d = near - probe - (m_near - goal) / (2.0 * c1 * c3 / (c2 * c2) - 2.0)
            taylor = (keep & (edge < near) & (near < _RIGHT_GUARD_SIGMAS * problem.sigma)
                      & (np.abs(m_near - goal) <= tol_x) & ((b3 + c3 / c2 * b2) / c2 <= tol_x))
        step, again = [], []
        for k, j in enumerate(open_):
            exc = ev.failure[k]
            newton[j] = math.nan
            if isinstance(exc, DegenerateMoment):
                hi[j] = t[j]
                stop[j] = exc
                step.append(j)
                continue
            if exc is not None:
                out[idx[j]] = exc
                continue
            g = ev.m[k] - x[j]
            if sound[k]:
                if best[j] is None or abs(g) < best[j][0]:
                    best[j] = (abs(g), float(t[j]), float(mu2[k]), float(mu3[k]),
                               float(ev.m[k]), float(ev.err[1, k]), float(ev.err[2, k]))
                if abs(g) <= tol_x:
                    out[idx[j]] = best_row(j)
                    continue
                if taylor[k]:
                    out[idx[j]] = _row(problem, float(x[j]), float(near[k]), float(c2[k]),
                                       float(c3[k]), float(m_near[k]), float(b2[k]),
                                       float(b3[k]), int(probes[j]))
                    continue
            else:
                missed[j] = UnmetBudget(f"m(t) at t = {float(t[j])!r}", float(bar[k]), tol_x)
                if not abs(g) > bar[k] and sized_at[j] == t[j]:
                    out[idx[j]] = missed[j]
                    continue
                # later passes leave aliasing and truncation a quarter of
                # tol_x of the bar on m: an eighth of tol_x mu2 to mu3's
                # allowance, and the same over m - t = mu3 / mu2 to mu2's
                tail[1:, j] = 0.125 * tol_x * mu2[k] * np.array([mu2[k] / mu3[k], 1.0])
                sized_at[j] = t[j]
                if not abs(g) > bar[k]:
                    again.append(j)
                    continue
            if g < 0.0:
                lo[j] = t[j]
            else:
                hi[j] = t[j]
            if slope[k] > 0.0:
                newton[j] = t[j] - g / slope[k]
            step.append(j)
        if step:
            js = np.array(step)
            tt, mm, dm, eb = table
            level = x[js, None]
            below = np.where(mm + eb < level, tt, -np.inf)
            above = np.where(mm - eb > level, tt, np.inf)
            # the edge is below every open level; a level may have no
            # sample above it yet
            a, b = below.argmax(axis=1), above.argmin(axis=1)
            lo[js] = np.maximum(lo[js], below[np.arange(js.size), a])
            t_b = above[np.arange(js.size), b]
            hi[js] = np.minimum(hi[js], t_b)
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                guess = _hermite_inverse(x[js], tt[a], mm[a], dm[a], t_b, mm[b], dm[b])
                secant = (mm[b] - mm[a]) / (t_b - tt[a])
                monotone = secant * secant * (1.0 / dm[a] ** 2 + 1.0 / dm[b] ** 2) <= 9.0
            first = np.where(monotone, guess, newton[js])
            second = np.where(monotone, newton[js], guess)
            guess = np.where((lo[js] < first) & (first < hi[js]), first, second)
            t[js] = np.where((lo[js] < guess) & (guess < hi[js]), guess, 0.5 * (lo[js] + hi[js]))
            narrow = hi[js] - lo[js] <= 1e-14 * (1.0 + np.abs(hi[js]))
            for j in js[narrow]:
                out[idx[j]] = settle(j)
            again += js[~narrow].tolist()
        open_ = again
    for j in open_:
        out[idx[j]] = settle(j)
    return out


def _rows(problem: TailBoundProblem, x, tol_x: float, rel_tol: float) -> list:
    """The rows of _solve for one level or a sequence of levels, raising
    the first level's failure."""
    rows = _solve(problem, np.atleast_1d(x), tol_x, rel_tol)
    for row in rows:
        if isinstance(row, PositivePartError):
            raise row
    return rows


def solve_tx(
    problem: TailBoundProblem,
    x,
    tol_x: float = 1e-9,
    rel_tol: float = 1e-9,
):
    """The root t_x of m(t) = x; x may be one level or an array of levels,
    which are solved together (see _solve).  Moments are computed to
    max(min(0.05 tol_x, rel_tol), 1e-13), and tighter where the bar on
    m(t_x) needs it to stay within tol_x."""
    roots = [row.t_x for row in _rows(problem, x, tol_x, rel_tol)]
    return roots[0] if np.ndim(x) == 0 else np.array(roots)


def pin(
    problem: TailBoundProblem,
    x,
    rel_tol: float = 1e-9,
    tol_x: float = 1e-9,
):
    """The bound at a level x, with the solved root and both moments.  x
    may also be a sequence of levels, which are solved together (see
    _solve) and give a list of rows; as in solve_tx, the first level that
    fails raises its error."""
    rows = _rows(problem, x, tol_x, rel_tol)
    return rows[0] if np.ndim(x) == 0 else rows


def pin_curve(
    problem: TailBoundProblem,
    x_min: float,
    x_max: float,
    steps: int,
    rel_tol: float = 1e-9,
    tol_x: float = 1e-9,
) -> list[TailBoundResult]:
    """The bound on a uniform grid of x values, ascending, all levels solved
    together.  A failing level yields a NaN row carrying the error message
    instead of aborting the remaining grid."""
    if steps < 2:
        raise PreconditionError("need at least two grid points")
    if not x_min < x_max:
        raise PreconditionError("x_min must be below x_max")
    h = (x_max - x_min) / (steps - 1)
    xs = [x_min + h * i for i in range(steps)]
    out = []
    for x, row in zip(xs, _solve(problem, xs, tol_x, rel_tol)):
        if isinstance(row, PositivePartError):
            row = TailBoundResult(
                x=x, t_x=math.nan, pin=math.nan, mu2=math.nan, mu3=math.nan,
                residual=math.nan, error=str(row),
            )
        out.append(row)
    return out
