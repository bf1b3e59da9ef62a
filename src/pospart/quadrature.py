"""Adaptive Gauss-Kronrod integration over (0, inf).

Strategy: geometric panel grading from t0 = 1e-6 * oscillation_scale handles
an algebraic endpoint at 0; past the first panels, a ladder of panels that
double in width (capped for oscillatory integrands) runs to a truncation
point T where the caller-supplied envelope certifies the remaining tail.  T
is placed on the ladder from the tail model before the panels up to it are
evaluated, so one batch of integrand calls covers them.  Each panel carries
a 15/7-point Gauss-Kronrod pair and is bisected until its error estimate
fits the budget.

Tail handling is truncation with an analytic bound.  A profile may attach two
optional analytic pieces so slowly decaying integrands stay affordable:

  * ``head``: the exact value (plus a rigorous bound on its error) of the
    segment (0, cutoff), for integrands whose pointwise evaluation near 0 is
    dominated by cancellation.  Panels then start at the cutoff.
  * ``tail_closed_form``: the exact integral over (T, inf) of the slowly
    decaying non-oscillatory component; the envelope then only has to cover
    what is left, which shrinks the truncation point by orders of magnitude.

Reported total error is always err_est + tail_bound, and the contract is
|value - true| <= err_est + tail_bound.  The budget max(rel_tol |value|,
abs_tol) is split half to the panels, a quarter to truncation and an eighth
to the stub below a graded chain.  Each phase stops at its own cap, and one
check at the end decides: a result within the budget, or UnmetBudget
carrying the partial result.

Everything here is pure and deterministic: identical inputs give bit-identical
results.  Every panel sum is math.fsum's correctly rounded value of the exact
sum, so it does not depend on the order of the panels.  Panels live in
parallel arrays; each refinement round bisects the (at most 64) splittable
panels with the largest errors, largest first and ties to the lower index
(the order of heapq.nlargest), and keeps the value and error totals as exact
running sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BudgetExceeded, NonFiniteIntegrand, PreconditionError, UnmetBudget

__all__ = [
    "QuadratureResult",
    "IntegrandProfile",
    "HeadRule",
    "integrate_halfline",
    "partial_integrals",
]

# 15-point Kronrod nodes/weights with the embedded 7-point Gauss rule
# (abscissae for [-1, 1]; the Gauss nodes sit at the odd Kronrod indices).
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])          # ascending, len 15
_WEIGHTS_K = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:15:2] = np.concatenate([_WG[:-1], _WG[::-1]])  # gauss at odd idx

_MAX_REFINE_ROUNDS = 500
_SPLIT_BATCH = 64


@dataclass
class QuadratureResult:
    """Outcome of one half-line integration.

    ``err_est`` sums the panel Gauss-vs-Kronrod discrepancies; ``tail_bound``
    covers everything handled analytically (truncation envelope, head-rule
    remainder, sub-grading leftovers).  The reported total error is their sum;
    a returned result has it within the budget, and a partial result carried
    by an exception may not.
    """

    value: float
    err_est: float
    tail_bound: float
    panels_used: int
    evaluations: int
    truncation_T: float

    @property
    def total_error(self) -> float:
        return self.err_est + self.tail_bound


@dataclass(frozen=True)
class HeadRule:
    """Analytic handling of (0, cutoff): exact value plus an error bound."""

    cutoff: float
    value: float
    bound: float


@dataclass
class IntegrandProfile:
    """What the integrator needs to know about f beyond point values.

    alpha: algebraic exponent of |f(t)| as t -> 0+ (must exceed -1).
    tail_envelope: T -> upper bound on the magnitude of the tail integral
        beyond T that is *not* captured by tail_closed_form.
    oscillation_scale: reciprocal of the dominant frequency.
    tail_closed_form: optional T -> exact integral over (T, inf) of the
        slow non-oscillatory component of f.
    head: optional analytic rule for (0, cutoff).
    max_panel_width: cap on panel width, for oscillatory integrands.
    edges: optional fixed edges of the first panels, from the head cutoff
        (or 0) up; growth starts at the last one.  Every edge stays a panel
        edge, so f may jump there, and the tail model may hold only past the
        last edge (an infinite envelope below it keeps truncation out).
    """

    alpha: float
    tail_envelope: Callable[[float], float]
    oscillation_scale: float = 1.0
    tail_closed_form: Optional[Callable[[float], float]] = None
    head: Optional[HeadRule] = None
    max_panel_width: Optional[float] = None
    edges: Optional[tuple] = None

    def __post_init__(self):
        if not self.alpha > -1.0:
            raise PreconditionError("alpha must exceed -1 for integrability at 0")
        if not self.oscillation_scale > 0.0:
            raise PreconditionError("oscillation scale must be positive")


class _Panels:
    """Panels (a_i, b_i) in ascending order with their Kronrod values and
    error estimates, held as parallel float64 arrays."""

    __slots__ = ("a", "b", "val", "err")

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.val = np.zeros(len(self.a))
        self.err = np.zeros(len(self.a))

    def __len__(self) -> int:
        return len(self.a)

    def put(self, lo: int, hi: int, *parts: "_Panels") -> None:
        """Replace panels lo..hi-1 by the panels of ``parts``, in order."""
        for name in self.__slots__:
            mine = getattr(self, name)
            setattr(self, name, np.concatenate(
                [mine[:lo], *(getattr(p, name) for p in parts), mine[hi:]]))

    def value(self) -> float:
        return math.fsum(self.val.tolist())

    def error(self) -> float:
        return math.fsum(self.err.tolist())


class _State:
    """Mutable evaluation state shared by the growth and refinement phases."""

    def __init__(self, f, max_evals: int):
        self.f = f
        self.max_evals = int(max_evals)
        self.evaluations = 0
        self.first_panel_peak = None  # max |f| / t^alpha estimate support

    def panels(self, a, b, keep_first: bool = False) -> _Panels:
        """The panels (a_i, b_i) with their Kronrod values and error estimates."""
        fresh = _Panels(a, b)
        n, half = len(fresh), 0.5 * (fresh.b - fresh.a)
        if self.evaluations + 15 * n > self.max_evals:
            raise _CapHit()
        pts = (0.5 * (fresh.a + fresh.b))[:, None] + half[:, None] * _NODES[None, :]
        y = np.asarray(self.f(pts.ravel()), dtype=float).reshape(n, 15)
        self.evaluations += 15 * n
        if not np.all(np.isfinite(y)):
            bad = np.argwhere(~np.isfinite(y))[0]
            raise NonFiniteIntegrand(float(pts[bad[0], bad[1]]))
        if keep_first:
            self.first_panel_peak = (pts[0], np.abs(y[0]))
        fresh.val, fresh.err = gk15_reduce(y, half)
        return fresh


def gk15_reduce(y: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod values and error estimates of panels from their node values.

    y has shape (n, 15), one row per panel, and half holds the n
    half-widths.  The error starts from the Gauss/Kronrod gap and is scaled
    in the QUADPACK way, resasc * min(1, (200 gap / resasc)^1.5), with a
    floor of 50 eps resabs for rounding.
    """
    k = half * (y @ _WEIGHTS_K)
    g = half * (y @ _WEIGHTS_G)
    resabs = half * (np.abs(y) @ _WEIGHTS_K)
    mean = k / (2.0 * half)
    resasc = half * (np.abs(y - mean[:, None]) @ _WEIGHTS_K)
    raw = np.abs(k - g)
    # scaled estimate in the Kronrod tradition: the raw Gauss/Kronrod gap
    # measures the 7-point error, which the 15-point rule beats by a wide
    # margin on resolved panels
    err = raw.copy()
    ok = (resasc > 0.0) & (raw > 0.0)
    err[ok] = resasc[ok] * np.minimum(1.0, (200.0 * raw[ok] / resasc[ok]) ** 1.5)
    return k, np.maximum(err, 50.0 * np.finfo(float).eps * resabs)


class _CapHit(Exception):
    pass


def _initial_edges(profile: IntegrandProfile, start: float) -> tuple[list[float], float, bool]:
    """Edges of the first panels, the width to continue growing with, and
    whether they start with the graded chain toward 0."""
    osc = profile.oscillation_scale
    cap = profile.max_panel_width or math.inf
    t0 = 1e-6 * osc
    if profile.edges is not None:
        if start > 0.0:
            raise PreconditionError("a profile with fixed edges integrates from its first edge")
        edges = [float(e) for e in profile.edges]
        return edges, min(edges[-1] - edges[0], cap), False
    if start > 0.0:
        chain, width = [start], min(start, cap)
    elif profile.head is not None:
        c = profile.head.cutoff
        chain, width = [c], min(c, cap)
    elif profile.alpha < 0.0:
        # graded sub-t0 chain (ratio 4) pushing the uncovered stub below
        # machine relevance; the stub gets an analytic bound later.
        chain = [t0 * 4.0 ** (-i) for i in range(30, -1, -1)]
        return chain + [chain[-1] + min(t0, cap)], min(2.0 * t0, cap), True
    else:
        chain, width = [0.0], min(0.5 * osc, cap)
    return chain + [chain[-1] + width], min(2.0 * width, cap), False


def _place(profile: IntegrandProfile, T: float, width: float, room: int,
           share: Callable[[float], float], last: float = 8e307) -> tuple[list[float], float, bool]:
    """Place the truncation point on the ladder of panel edges from T, which
    steps by min(width, cap), doubles the width up to the cap, holds at most
    ``room`` panels and ends at its first edge past ``last``.

    The first ladder end where the envelope fits ``share`` of it is found by
    an exponential search, then a binary search; inside the crossing panel,
    bisection on the monotone envelope against that end's share moves the
    end to where the share is used rather than overshot.
    Returns the edges from T to the placed point (all of them when none
    fits), the width growth would continue with, and whether it fits."""
    cap = profile.max_panel_width or math.inf
    ends, widths, shares = [T], [width], {}

    def end(k: int) -> int:
        """Ladder index k, or the last one when the ladder ends sooner."""
        while len(ends) <= min(k, room) and ends[-1] < last:
            ends.append(ends[-1] + min(widths[-1], cap))
            widths.append(min(2.0 * widths[-1], cap))
        return min(k, len(ends) - 1)

    def fits(t: float, share: float) -> bool:
        env = profile.tail_envelope(t)
        return math.isfinite(env) and (env <= share or env <= 1e-305)

    def fits_end(k: int) -> bool:
        shares[k] = share(ends[k])
        return fits(ends[k], shares[k])

    lo, hi = -1, 0
    while not fits_end(hi):
        lo, hi = hi, end(2 * hi + 1)
        if hi == lo:
            return ends, widths[-1], False
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits_end(mid) else (mid, hi)
    if hi > 0:
        a, b = ends[hi - 1], ends[hi]
        lo_T, hi_T = a, b
        for _ in range(24):
            mid = 0.5 * (lo_T + hi_T)
            lo_T, hi_T = (lo_T, mid) if fits(mid, shares[hi]) else (mid, hi_T)
        if a * (1.0 + 1e-12) < hi_T < b - 1e-12 * (abs(b) + 1.0):
            ends[hi] = hi_T
    return ends[:hi + 1], widths[hi], True


def _grow(
    state: _State,
    profile: IntegrandProfile,
    panels: _Panels,
    width: float,
    rel_tol: float,
    abs_tol: float,
    head_value: float = 0.0,
    fresh: int = 0,
    settled: bool = False,
) -> float:
    """Extend panels to a truncation point T where the tail envelope fits a
    quarter of the budget; returns the width that growth would continue with.

    T is placed (_place) before the panels up to it are evaluated, in one
    batch with the last ``fresh`` panels, which are not evaluated yet.  The
    running value at T' is taken as the head value, plus the evaluated
    panels, plus tail_closed_form(T').  With no abs_tol floor and no panel
    evaluated, that value can be far too small, so the first batch then
    stops at the oscillation scale.  When T was placed but the actual running
    value misses the envelope there (or with ``settled``), T is placed again
    against a lower bound on the running value: past T, its size is at least
    its size at T less twice the envelope at T."""
    tail_cf = profile.tail_closed_form
    last = profile.oscillation_scale if fresh and abs_tol == 0.0 else 8e307
    while float(panels.b[-1]) < 8e307:
        T = float(panels.b[-1])
        known = head_value + panels.value()
        run = lambda t: abs(known + (tail_cf(t) if tail_cf else 0.0))
        least = run(T) - 2.0 * profile.tail_envelope(T) if settled else None
        share = lambda t: 0.25 * max(rel_tol * (run(t) if least is None else least), abs_tol)
        done = len(panels) - fresh
        room = max((state.max_evals - state.evaluations) // 15 - fresh, 0)
        ends, width, placed = _place(profile, T, width, room, share, last)
        if len(ends) == 1 and not fresh:
            if placed:
                break
            raise _CapHit()
        grown = state.panels(np.concatenate([panels.a[done:], ends[:-1]]),
                             np.concatenate([panels.b[done:], ends[1:]]), keep_first=fresh > 0)
        panels.put(done, len(panels), grown)
        fresh, settled, last = 0, placed, 8e307
    return width


def _deepen(
    state: _State,
    profile: IntegrandProfile,
    panels: _Panels,
    rel_tol: float,
    abs_tol: float,
    head_value: float,
) -> float:
    """Extend the graded sub-chain toward 0 until the uncovered stub fits an
    eighth of the budget; needed when alpha is close to -1, where the stub
    mass delta^(alpha+1) shrinks very slowly."""
    alpha = profile.alpha
    tail_cf = profile.tail_closed_form
    for _ in range(15):
        pts, mags = state.first_panel_peak
        with np.errstate(divide="ignore"):
            c_hat = float(np.max(mags / pts**alpha))
        delta = float(panels.a[0])
        stub = 2.0 * c_hat * delta ** (alpha + 1.0) / (alpha + 1.0)
        T = float(panels.b[-1])
        run = head_value + panels.value() + (tail_cf(T) if tail_cf else 0.0)
        budget = max(rel_tol * abs(run), abs_tol)
        if stub <= 0.125 * budget or delta <= 1e-290 or c_hat == 0.0:
            return stub
        bounds = [delta * 4.0 ** (-i) for i in range(20, -1, -1)]
        panels.put(0, 0, state.panels(bounds[:-1], bounds[1:], keep_first=True))
    return stub


def _worst(err: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """The indices in ``cand`` of the _SPLIT_BATCH largest errors, largest
    first and ties to the lower index: the order of heapq.nlargest."""
    e = err[cand]
    if len(cand) > _SPLIT_BATCH:
        kth = np.partition(e, len(e) - _SPLIT_BATCH)[len(e) - _SPLIT_BATCH]
        keep = e >= kth
        cand, e = cand[keep], e[keep]
    return cand[np.argsort(-e, kind="stable")[:_SPLIT_BATCH]]


def _exact_parts(xs: list) -> list:
    """Floats whose exact sum is that of ``xs``, the first being fsum(xs).

    Each next float is fsum of what the previous ones miss.  fsum rounds
    correctly and a sum of doubles is a multiple of 2^-1074, so the chain
    ends at an exact zero after a few terms."""
    out = []
    while True:
        x = math.fsum(xs)
        if x == 0.0 or not math.isfinite(x):
            return out or [x]
        out.append(x)
        xs = xs + [-x]


def _refine(
    state: _State,
    panels: _Panels,
    rel_tol: float,
    abs_tol: float,
    base_value: float,
) -> None:
    """Bisect worst panels until their summed error fits half the budget,
    the round cap is reached or no panel above the error floor is wide
    enough to split (relative to its end).

    The value and error totals are fsum over all panels, kept as exact
    running sums so a round costs O(split panels) in the interpreter."""
    vals = _exact_parts(panels.val.tolist())
    errs = _exact_parts(panels.err.tolist())
    for _ in range(_MAX_REFINE_ROUNDS):
        target = 0.5 * max(rel_tol * abs(vals[0] + base_value), abs_tol)
        if errs[0] <= target:
            return
        a, b, err = panels.a, panels.b, panels.err
        # the largest error is above the mean, so above the floor
        floor = target / (2.0 * len(panels))
        order = _worst(err, np.flatnonzero((err > floor) & ((b - a) > 1e-15 * b)))
        if not len(order):
            return
        # children left, right per parent, parents in selection order
        mid = 0.5 * (a[order] + b[order])
        children = state.panels(np.stack([a[order], mid], axis=1).ravel(),
                                np.stack([mid, b[order]], axis=1).ravel())
        vals = _exact_parts(vals + children.val.tolist() + (-panels.val[order]).tolist())
        errs = _exact_parts(errs + children.err.tolist() + (-err[order]).tolist())
        counts = np.ones(len(panels), dtype=int)
        counts[order] = 2
        left = (np.cumsum(counts) - counts)[order]  # where each left child lands
        slots = np.stack([left, left + 1], axis=1).ravel()
        for name in _Panels.__slots__:
            spliced = np.repeat(getattr(panels, name), counts)
            spliced[slots] = getattr(children, name)
            setattr(panels, name, spliced)


def _within_budget(result: QuadratureResult, rel_tol: float, abs_tol: float) -> QuadratureResult:
    """The result when its total error fits max(rel_tol |value|, abs_tol),
    else UnmetBudget carrying it."""
    budget = max(rel_tol * abs(result.value), abs_tol)
    if not result.total_error <= budget:
        raise UnmetBudget(f"an integral ({result.evaluations} evaluations)",
                          result.total_error, budget, result)
    return result


def check_rel_tol(rel_tol: float) -> None:
    """The range of relative tolerances every integral and route accepts."""
    if not (1e-13 <= rel_tol <= 1e-2):
        raise PreconditionError(f"rel_tol must lie in [1e-13, 1e-2], got {rel_tol!r}")


def integrate_halfline(
    f: Callable[[np.ndarray], np.ndarray],
    profile: IntegrandProfile,
    rel_tol: float,
    abs_tol: float = 0.0,
    start: float = 0.0,
    max_evals: int = 2_000_000,
) -> QuadratureResult:
    """Integrate f over (start, inf) within the profile's error contract.

    The integrand must be vectorised: it receives an ndarray of strictly
    positive points and returns an ndarray of values.  Returns a result
    whose total error fits max(rel_tol |value|, abs_tol).  Raises
    NonFiniteIntegrand for non-finite values at interior nodes,
    BudgetExceeded at the evaluation cap, and UnmetBudget when the other
    phases end with the error above the budget; both carry the partial
    result.
    """
    check_rel_tol(rel_tol)
    if abs_tol < 0.0 or start < 0.0:
        raise PreconditionError("abs_tol and start must be nonnegative")

    head_value = head_bound = stub_bound = 0.0
    if start == 0.0 and profile.head is not None:
        head_value = profile.head.value
        head_bound = profile.head.bound

    edges, width, sub_grading = _initial_edges(profile, start)
    state = _State(f, max_evals)
    panels = _Panels(edges[:-1], edges[1:])

    def _partial():
        T = float(panels.b[-1])
        cf = profile.tail_closed_form(T) if profile.tail_closed_form else 0.0
        if not state.evaluations:
            # the cap stopped the first batch, which evaluates every first
            # panel: none holds a value, and without a first panel there is
            # no bound on the stub below it
            return QuadratureResult(head_value + cf, math.inf, math.inf, 0, 0, T)
        env = profile.tail_envelope(T)
        return QuadratureResult(
            value=head_value + panels.value() + cf,
            err_est=panels.error(),
            tail_bound=(env if math.isfinite(env) else math.inf) + head_bound + stub_bound,
            panels_used=len(panels),
            evaluations=state.evaluations,
            truncation_T=T,
        )

    try:
        width = _grow(state, profile, panels, width, rel_tol, abs_tol, head_value, len(panels))
        if sub_grading and state.first_panel_peak is not None:
            stub_bound = _deepen(state, profile, panels, rel_tol, abs_tol, head_value)
        for last in (False, True):
            T = float(panels.b[-1])
            base = head_value + (profile.tail_closed_form(T) if profile.tail_closed_form else 0.0)
            _refine(state, panels, rel_tol, abs_tol, base)
            # the truncation share was sized before refinement: a refined
            # value whose budget the envelope misses takes one more pass
            result = _partial()
            budget = max(rel_tol * abs(result.value), abs_tol)
            if last or result.total_error <= budget or profile.tail_envelope(T) <= 0.25 * budget:
                break
            _grow(state, profile, panels, width, rel_tol, abs_tol, head_value, settled=True)
    except _CapHit:
        raise BudgetExceeded(_partial(), max_evals) from None
    return _within_budget(result, rel_tol, abs_tol)


def partial_integrals(
    f: Callable[[np.ndarray], np.ndarray],
    profile: IntegrandProfile,
    v_sequence,
    rel_tol: float,
    abs_tol: float = 0.0,
    max_evals: int = 2_000_000,
) -> list[tuple[float, float]]:
    """Improper-integral convergents: (v, integral over (v, inf)) per v.

    The sequence must be strictly decreasing and stay above
    1e-9 * oscillation_scale.  The largest v is integrated directly; smaller
    ones are reached by adding finite slices, so for a constant-sign
    integrand the convergents are automatically monotone.  Each slice's
    panel error must fit the budget of the convergent it completes, as the
    direct integral's total error fits its own; else UnmetBudget carries the
    slice.
    """
    vs = [float(v) for v in v_sequence]
    if len(vs) == 0:
        raise PreconditionError("need at least one lower endpoint")
    if any(b >= a for a, b in zip(vs, vs[1:])):
        raise PreconditionError("v sequence must be strictly decreasing")
    if vs[-1] < 1e-9 * profile.oscillation_scale:
        raise PreconditionError("lower endpoints must stay above 1e-9 * oscillation scale")

    base = integrate_halfline(f, profile, rel_tol, abs_tol, start=vs[0], max_evals=max_evals)
    out = [(vs[0], base.value)]
    state = _State(f, max_evals - base.evaluations)
    acc = base.value
    cap = profile.max_panel_width or math.inf
    for hi, lo in zip(vs, vs[1:]):
        edges = [lo]
        while edges[-1] < hi:
            a = edges[-1]
            b = min(a + min(max(a, lo), cap), hi)
            edges.append(hi if b <= a else b)
        try:
            panels = state.panels(edges[:-1], edges[1:])
            _refine(state, panels, rel_tol, abs_tol, acc)
        except _CapHit:
            raise BudgetExceeded(
                QuadratureResult(acc, math.inf, math.inf, len(edges) - 1, state.evaluations, hi),
                max_evals,
            ) from None
        acc = acc + panels.value()
        # the slice (lo, hi) against the budget of the convergent it completes
        _within_budget(QuadratureResult(panels.value(), panels.error(), 0.0, len(panels),
                                        state.evaluations, hi),
                       rel_tol, max(abs_tol, rel_tol * abs(acc)))
        out.append((lo, acc))
    return out
