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

Moments come from the vertical-line route at s* = min(1/y, 2/sigma), which
keeps e^{s y} moderate while the transform still decays like a Gaussian in
the integration variable; for strongly negative t the line moves inward, in
rungs s* 2^-k, so exp(-s t) cannot dwarf the result.  Below the support's
effective left edge (the Poisson floor minus thirty Gaussian standard
deviations) the positive part equals the variable itself, so raw moments
apply exactly; that switch keeps the x -> 0 end of a bound curve exact and
fast.

On the line z = s + iu the integrand of E(eta-t)_+^p is Re[e^{-zt} H_p(u)]
with H_p = E e^{z eta} z^-(p+1), so the batched engine (_eta_moments)
evaluates H_p for p = 1, 2, 3 once per node of a Gauss-Kronrod grid that
the levels on one line share (_grid_moments).  The paper's identity
d/dt E(eta-t)_+^p = -p E(eta-t)_+^(p-1) gives the slope
m'(t) = 2 mu1 mu3 / mu2^2 - 2 from the same pass.  A level whose grid error
misses its budget is integrated again with the flat panels halved
(_moments23); m_of_t runs the same engine on one level.

The engine works through a grid in runs of _RUN_PANELS panels: it
evaluates H_p on one run at a time and adds each level's panel sums run by
run.  Within a run the levels go in blocks of about _BLOCK_CELLS (level,
node) cells, one level at least, and a block's phases, integrand and
gk15_reduce scratch are a few arrays of at most 3 _BLOCK_CELLS doubles each
(one level's whole run when that is larger).  Arrays that small mostly
reuse the memory the block before freed, where larger ones are mapped
afresh and fault their pages in again; the blocking changes no bit,
because each level's sums keep their order.

All levels of a curve sample the same increasing m, so the solver (_solve)
steps them together through one table of samples of m, and the budget that
counts is the bar on m itself.  Each result row carries the error bars of
mu2, mu3 and Pin; they are NaN only on a level that failed.

_eta, the unshifted spec that eta_spec shifts, is the one description of the
surrogate here: the line transform, the oscillation frequency and the raw
moments all come from the catalog's code for that spec.
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
    _fl_vec,
    _log_fl_vec,
    freq_scale,
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
from .quadrature import _NODES, check_rel_tol, gk15_reduce

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
_NEG_T_EXPONENT_CAP = 6.0  # keep s|t| small when t is far negative
_ORDERS = (1.0, 2.0, 3.0)
_PREF = np.array([gamma_p1(p) / math.pi for p in _ORDERS])[:, None]
# panels per run: the engine evaluates the transform of eta on one run of a
# grid at a time, and sums each level's panels run by run
_RUN_PANELS = (1 << 16) // 15
# (t, node) cells per block of levels within a run; a block's arrays stay
# cache-sized and reuse freed memory, where larger ones are mapped afresh
_BLOCK_CELLS = 1 << 13
# transform nodes one grid may take after its cut; the adaptive route it
# replaced solved eps up to about 1 - 1.8e-9, whose grids take 4.3e6 to 5.0e6
_MAX_NODES = 5_000_000
# flat-width halvings for a missed level (y / sigma = 100 resolves at 3 to 4)
_MAX_HALVINGS = 6
# bisection alone narrows [edge, x] to 1e-14 relative width in about 60
# passes; interpolation and Newton passes only shorten that
_MAX_PASSES = 200
# panel width near u = 0 as a share of the distance to the pole at u = i s
_GRADE = 0.25


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
    integration error, and pin_err = pin (3 mu2_err/mu2 + 2 mu3_err/mu3)
    carries them to Pin to first order.  They are 0 at the far left, where
    closed forms apply, and NaN only on a level that failed."""

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


def _line(problem: TailBoundProblem, t):
    """The line offset s(t): s* = min(1/y, 2/sigma), or for t < -6/s* the
    largest rung s* 2^-k with -s t <= 6, so exp(-s t) cannot dwarf the
    result and levels on one rung share a line; the line choice only moves
    the contour, not the value.  t may be an array."""
    s_star = min(1.0 / problem.y, 2.0 / problem.sigma)
    # On this line the log transform stays below about 8.9, so the line
    # integrand cannot overflow: -s t <= 6, a s^2/2 <= 2 (1-eps) and, with
    # s y <= 1 and e_1(x) <= (e-2) x^2 there, lam e_1(s y) <= 4 (e-2) eps.
    # Scaling by 2^-k is exact, so -s t = (-s* t) 2^-k: the frexp exponent
    # of (-s* t) / 6 is the k that puts -s t in (3, 6]
    v = np.maximum(-s_star * np.asarray(t, dtype=float), _NEG_T_EXPONENT_CAP)
    k = np.frexp(v / _NEG_T_EXPONENT_CAP)[1]
    k = np.where(np.ldexp(v, 1 - k) <= _NEG_T_EXPONENT_CAP, k - 1, k)
    return np.ldexp(s_star, -k)


def _envelope(a: float, K, T, q):
    """Bound on the line integrand's tail beyond T for the order q = p + 1,
    on arrays: K = e^{log transform} times the smaller of the Gaussian-Mills
    bound T^-q e^{-a T^2/2} / (a T) and the algebraic bound T^(1-q) / (q-1)."""
    mills = np.exp(-0.5 * a * T * T) / (a * T)
    return K * np.minimum(T**-q * mills, T ** (1.0 - q) / (q - 1.0))


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


def _grid_moments(problem: TailBoundProblem, t: np.ndarray, s: np.ndarray,
                  log_k: np.ndarray, cut: np.ndarray, halvings: int = 0):
    """mu1..mu3 and their error bars on shared Gauss-Kronrod grids.

    Levels are bucketed by oscillation frequency (within a factor 2); each
    bucket shares one grid.  Near u = 0 each panel spans a quarter of its
    left end's distance to the pole of z^-(p+1) at u = i s (smallest s of
    the bucket); the widths grow until they would reach 4/freq, halved
    `halvings` times, and from there on all panels share that one width.  The
    grid ends where the tail envelope of every level and order fits its
    truncation allowance cut[p-1] (absolute, in units of the moment).

    Within a bucket the levels are grouped by their line s (_line: s*, or a
    rung s* 2^-k below -6/s*).  A group evaluates the transform of eta once
    per node, as H_p = E e^{z eta} z^-(p+1), and each of its levels
    integrates cos(u t) Re H_p + sin(u t) Im H_p = Re[e^{-iut} H_p], with
    e^{iut} = e^{i t mid} e^{i t (u - mid)} for the node u of a panel with
    midpoint mid: one exponential per (level, panel), and one row of 15 per
    (level, panel width), which all flat panels share; two broadcast
    multiplies form the phases of a block in one array.  The transform is
    evaluated on runs of _RUN_PANELS panels, and each run's levels go in
    blocks of at most _BLOCK_CELLS cells, or of one level when its run alone
    is larger (at most 15 _RUN_PANELS cells): a block's arrays are bounded
    by three times its cells, and each level sums its panels run by run in
    the same order however the levels are blocked.  The Kronrod values
    and QUADPACK error estimates (the 50 eps resabs floor included) are linear
    in the integrand, so the level's factor e^{-st} multiplies them after
    the reduction.  A level's error bar is its summed panel errors plus the
    tail envelope.  Buckets whose grid would pass _MAX_NODES nodes are NaN.
    """
    eta = _eta(problem)
    a = gaussian_var(eta)
    q = np.array(_ORDERS)[:, None] + 1.0
    K = np.exp(log_k)
    target = cut / _PREF
    # a grid end that meets every target: at T >= 1 the Mills bound is below
    # e^{-a T^2/2}/a, and the algebraic bound inverts exactly
    with np.errstate(over="ignore"):
        t_gauss = np.maximum(1.0, np.sqrt(2.0 * np.maximum(np.log(K / (a * target)), 0.0) / a))
        t_slow = (K / ((q - 1.0) * target)) ** (1.0 / (q - 1.0))
    t_end = np.minimum(t_gauss, t_slow).max(axis=0)
    base = freq_scale(eta)
    freq = np.abs(t) + base
    bucket = np.ceil(np.log2(freq / base))
    mu, err = np.full((2, 3, t.size), np.nan)
    env = np.zeros((3, t.size))
    for b in np.unique(bucket):
        rows = np.flatnonzero(bucket == b)
        cap = math.ldexp(4.0 / freq[rows].max(), -halvings)
        s_min = s[rows].min()
        edges = [0.0]
        while edges[-1] < t_end[rows].max():
            width = _GRADE * math.hypot(s_min, edges[-1])
            if width >= cap:
                break
            edges.append(edges[-1] + width)
        n_graded, top = len(edges) - 1, edges[-1]
        # cut at the first edge where every envelope fits its target; the
        # envelopes fall with T, so bisect on the edge index.  Flat edges lie
        # cap apart past the graded ones, so no edge past the cut is built
        lo, hi = 0, n_graded + math.ceil(max(t_end[rows].max() - top, 0.0) / cap)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            T = edges[mid] if mid <= n_graded else top + cap * (mid - n_graded)
            if np.all(_envelope(a, K[rows], T, q) <= target[:, rows]):
                hi = mid
            else:
                lo = mid
        if not 15 * hi <= _MAX_NODES:
            continue
        edges = np.concatenate([edges, top + cap * np.arange(1, hi - n_graded + 1)])
        env[:, rows] = _envelope(a, K[rows], edges[hi], q)
        # panel i has the node offsets off[w[i]] from its midpoint: one row
        # per graded panel, and one that all flat panels share
        w = np.minimum(np.arange(hi), n_graded)
        half = 0.5 * np.append(np.diff(edges[: n_graded + 1]), cap)
        off = half[:, None] * _NODES
        half = half[w]
        mids = edges[:hi] + half
        per_block = max(1, _BLOCK_CELLS // (15 * min(hi, _RUN_PANELS)))
        mu[:, rows] = err[:, rows] = 0.0
        for line in np.unique(s[rows]):
            group = rows[s[rows] == line]
            for first_panel in range(0, hi, _RUN_PANELS):
                run = slice(first_panel, min(first_panel + _RUN_PANELS, hi))
                # the run's graded panels come first, each with its own row
                # of offsets; the flat ones after them share off[n_graded]
                n_gr = max(0, min(run.stop, n_graded) - first_panel)
                z = line + 1j * (mids[run, None] + off[w[run]])
                iz = 1.0 / z
                with np.errstate(over="ignore", invalid="ignore", under="ignore"):
                    h = _fl_vec(eta, z) * iz * iz
                # H_p = E e^{z eta} z^-(p+1) for p = 1, 2, 3
                h = np.stack([h, h * iz, h * iz * iz])[:, None]
                h_re, h_im = np.ascontiguousarray(h.real), np.ascontiguousarray(h.imag)
                for first in range(0, group.size, per_block):
                    r = group[first: first + per_block]
                    it = 1j * t[r, None]
                    at_mid = np.exp(it * mids[run])[..., None]
                    phase = np.empty((r.size, run.stop - first_panel, 15), dtype=complex)
                    np.multiply(at_mid[:, :n_gr],
                                np.exp(it[..., None] * off[first_panel: first_panel + n_gr]),
                                out=phase[:, :n_gr])
                    np.multiply(at_mid[:, n_gr:], np.exp(it * off[n_graded])[:, None],
                                out=phase[:, n_gr:])
                    f = phase.real * h_re
                    f += phase.imag * h_im
                    k, e = gk15_reduce(f, half[run])
                    mu[:, r] += k.sum(axis=2)
                    err[:, r] += e.sum(axis=2)
    shift = np.exp(-s * t)
    return _PREF * mu * shift, _PREF * (err * shift + env)


def _meets(mu, err, tol, basis):
    """(ok, share): share is the larger of err_p / max(tol |mu_p|, 0.5 tol basis_p)
    for p = 2, 3; ok if both are finite and <= 1, mu3 > 0 and mu2 > tol basis_2."""
    with np.errstate(invalid="ignore"):
        budget = np.maximum(tol * np.abs(mu[1:]), 0.5 * tol * basis[1:])
        within = np.all(np.isfinite(mu[1:]) & (err[1:] <= budget), axis=0)
        return within & (mu[1] > tol * basis[1]) & (mu[2] > 0.0), np.max(err[1:] / budget, axis=0)


def _moments23(problem: TailBoundProblem, t, s, log_k, cut, tol, basis, mu, err):
    """Refines each level whose first grid (mu, err: _grid_moments on t, s,
    log_k, cut) misses at tol, halving its flat panels up to _MAX_HALVINGS
    times while it misses and its share has not stalled; it keeps the finest."""
    ok, share = _meets(mu, err, tol, basis)
    open_, shrinking = np.flatnonzero(~ok), np.zeros(t.size, dtype=bool)
    for k in range(1, _MAX_HALVINGS + 1):
        if not open_.size:
            break
        m, e = _grid_moments(problem, t[open_], s[open_], log_k[open_], cut[:, open_], k)
        ok, new = _meets(m, e, tol[open_], basis[:, open_])
        reached = ~np.isnan(new)
        mu[:, open_[reached]], err[:, open_[reached]] = m[:, reached], e[:, reached]
        # too coarse a grid leaves the share about flat for a few halvings;
        # a resolved one more than halves it per halving, down to rounding
        shrank = new < 0.5 * share[open_]
        go_on = reached & ~ok & (shrank | ~shrinking[open_])
        share[open_], shrinking[open_] = new, shrank
        open_ = open_[go_on]
    return mu, err


def _eta_moments(problem: TailBoundProblem, ts, rel_tol: float, tail=None) -> _EtaMoments:
    """mu1, mu2, mu3 and m(t) of eta - t for every level in ts in one pass;
    the one place that classifies a level.

    Far-left levels take the closed form, and levels at or above 40 sigma
    fail with DegenerateMoment.  The others share Gauss-Kronrod grids on
    their lines (_grid_moments).  A grid ends where each moment's truncation
    fits its allowance 0.125 rel_tol (1 + max(sigma,|t|)^p), or tail[p-1]
    where tail, a (3, n) array, gives a smaller one (NaN entries give none);
    the solver sizes tail from a level's own moments when its bar on m
    missed.  A level that fails _meets at rel_tol is refined (_moments23) at
    rel_tol times the smaller share tail[p-1] / (0.125 rel_tol (1 +
    max(sigma,|t|)^p)) of p = 2, 3 (at most 1, at least 1e-13 in all), its own
    tolerance.  A level whose grid would pass _MAX_NODES fails with
    BudgetExceeded, one whose mu2 is not above the floor at its own tolerance
    with DegenerateMoment.  m = t + mu3 / mu2.
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
    s = _line(problem, ts)
    log_k = _log_transform_at(problem, ts, s)
    with np.errstate(over="ignore"):   # the absolute budget's scale, inf past overflow
        basis = 1.0 + np.maximum(problem.sigma, np.abs(ts)) ** np.array(_ORDERS)[:, None]
    cut = 0.125 * rel_tol * basis
    tol = np.full(n, rel_tol)
    if tail is not None:
        # the budget scales with the tolerance, so a level whose mu2 or mu3
        # allowance shrank takes the same share of rel_tol
        share = np.fmin(1.0, np.fmin(tail[1] / cut[1], tail[2] / cut[2]))
        tol = np.maximum(1e-13, share * rel_tol)
        cut = np.fmin(cut, tail)
    line = ~left & (ts < _RIGHT_GUARD_SIGMAS * problem.sigma)
    if line.any():
        mu[:, line], err[:, line] = _grid_moments(problem, ts[line], s[line], log_k[line],
                                                  cut[:, line])
    miss = line & ~_meets(mu, err, rel_tol, basis)[0]
    if miss.any():
        mu[:, miss], err[:, miss] = _moments23(problem, ts[miss], s[miss], log_k[miss],
                                               cut[:, miss], tol[miss], basis[:, miss],
                                               mu[:, miss], err[:, miss])
    mu[0, ~(np.isfinite(mu[0]) & (mu[0] > 0.0))] = np.nan
    # below the degeneracy floor; the right guard's levels hold no values
    bad = ~left & ~(np.isfinite(mu[1]) & (mu[1] > tol * basis[1]))
    failure = [None] * n
    for i in np.flatnonzero(bad):
        over = line[i] and np.isnan(mu[1, i])    # a grid past _MAX_NODES
        failure[i] = BudgetExceeded(None, _MAX_NODES) if over else DegenerateMoment(float(ts[i]))
    mu[:, bad] = err[:, bad] = np.nan
    m[~left] = ts[~left] + mu[2, ~left] / mu[1, ~left]
    return _EtaMoments(mu, err, m, failure)


def _row(problem: TailBoundProblem, x: float, t: float, mu2: float, mu3: float,
         m: float, mu2_err: float, mu3_err: float) -> TailBoundResult:
    """The result at root t.  Pin = mu2^3 / mu3^2, except at the far left,
    where |t| can reach 1e9 sigma and that ratio rounds above 1: there it is
    exp(3 log1p(sigma^2/t^2) - 2 log1p(3 sigma^2/t^2 - m3/t^3))."""
    if t > _far_left_edge(problem):
        value = mu2**3 / mu3**2
    else:
        r = problem.sigma**2 / (t * t)
        value = math.exp(3.0 * math.log1p(r)
                         - 2.0 * math.log1p(3.0 * r - raw_moment(_eta(problem), 3) / t**3))
    return TailBoundResult(x=x, t_x=t, pin=value, mu2=mu2, mu3=mu3, residual=abs(m - x),
                           mu2_err=mu2_err, mu3_err=mu3_err,
                           pin_err=value * (3.0 * mu2_err / mu2 + 2.0 * mu3_err / mu3))


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
    in [edge, x] because m(x) > x.  From t = x each pass evaluates all open
    levels together, with m' = 2 mu1 mu3/mu2^2 - 2 from the same pass.

    A probe's bar on m is (mu3_err + (m - t) mu2_err) / mu2.  A probe is
    sound when that bar is within tol_x: only a sound probe settles a level,
    which it does once |m - x| <= tol_x, and only sound probes enter the
    table of samples (t, m, m', bar) of the one increasing m that all levels
    share, seeded with the exact far-left edge.  A level's bracket is the
    tightest the table certifies, a sample counting below x when m + bar < x
    and above when m - bar > x.  Its next probe is the cubic Hermite inverse
    interpolant of t(m) between the nearest samples on either side of x when
    that lies strictly inside the bracket, else the Newton step from its own
    probe when that does, else the bracket's midpoint.

    A probe that is not sound sizes the level's later grid ends from its own
    moments, so that truncation takes at most a quarter of tol_x of the bar
    on m.  It still steps when the sign of m - x is certain (|m - x| > bar);
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
    t = x.copy()
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
        return _row(problem, float(x[j]), *best[j][1:])

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
        ev = _eta_moments(problem, probe, tol, tail[:, open_])
        mu1, mu2, mu3 = ev.mu
        with np.errstate(invalid="ignore", divide="ignore"):
            bar = (ev.err[2] + (ev.m - probe) * ev.err[1]) / mu2
            slope = 2.0 * mu1 * mu3 / (mu2 * mu2) - 2.0
        sound = bar <= tol_x                # False on failed rows, whose bars are NaN
        keep = sound & (slope > 0.0)
        table = np.concatenate(
            [table, np.stack([probe[keep], ev.m[keep], slope[keep], bar[keep]])], axis=1)
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
            else:
                missed[j] = UnmetBudget("m(t)", float(bar[k]), tol_x, float(t[j]))
                if not abs(g) > bar[k] and sized_at[j] == t[j]:
                    out[idx[j]] = missed[j]
                    continue
                # later grid ends leave truncation a quarter of tol_x of the
                # bar on m: an eighth of tol_x mu2 to mu3's tail, and the same
                # over m - t = mu3 / mu2 to mu2's
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
            guess = np.where((lo[js] < guess) & (guess < hi[js]), guess, newton[js])
            t[js] = np.where((lo[js] < guess) & (guess < hi[js]), guess, 0.5 * (lo[js] + hi[js]))
            narrow = hi[js] - lo[js] <= 1e-14 * (1.0 + np.abs(hi[js]))
            for j in js[narrow]:
                out[idx[j]] = settle(j)
            again += js[~narrow].tolist()
        open_ = again
    for j in open_:
        out[idx[j]] = settle(j)
    return out


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
    roots = []
    for row in _solve(problem, np.atleast_1d(x), tol_x, rel_tol):
        if isinstance(row, PositivePartError):
            raise row
        roots.append(row.t_x)
    return roots[0] if np.ndim(x) == 0 else np.array(roots)


def pin(
    problem: TailBoundProblem,
    x: float,
    rel_tol: float = 1e-9,
    tol_x: float = 1e-9,
) -> TailBoundResult:
    """The bound at a single level x, with the solved root and both moments."""
    row = _solve(problem, [x], tol_x, rel_tol)[0]
    if isinstance(row, PositivePartError):
        raise row
    return row


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
