"""Positive-part moments E X_+^p from Fourier-Laplace and characteristic
transforms.

The half-line representations implemented here:

  * ppm_laplace: vertical-line form at s > 0,
        E X_+^p = Gamma(p+1)/pi * int_0^inf Re[E e_j((s+it)X) / (s+it)^(p+1)] dt
    valid for every remainder order j in {-1, 0, ..., ell}.
  * ppm_negative_s: the same integrand at s < 0 for integer p, plus the
    exact raw moment E X^p as an additive correction.
  * ppm_cf: the characteristic-function form at s = 0 with j = ell, the
    same integrand; integer orders add the E X^k / 2 correction.
  * ppm_diff: the same integrand at s = 0, j = ell, taken over X minus a
    moment-matched companion Y, plus E Y_+^p, an exact atom sum for a
    finite Y.  The moment polynomials cancel, and the remainder difference
    E e_ell(itX) - E e_ell(itY) stays free of the O(1) cancellation that
    E e^{itX} - E e^{itY} suffers near 0.

Each route factors its integrand as

    f(t) = [finite harmonics gamma_i e^{itx_i}] * z^-(p+1)  (projected to Re)
         + [algebraic terms coef_r * Re z^(r-p-1)]
         + [transform residual bounded by |E e^{(s+it)X}|]

and hands the quadrature an exact closed form for the algebraic-plus-harmonic
tail beyond the truncation point (powers integrate in closed form; harmonics
by repeated integration by parts with a rigorous remainder bound, both from
``remainders``: ``power_tail`` and ``by_parts_*``), leaving only a
fast-shrinking residual for the truncation envelope
(``remainders.decay_bound``: Gaussian-Mills where the law has a Gaussian
factor, algebraic where it has none).  Without this split the oscillatory
t^(ell-p-1) tails would need truncation points beyond 1e16 to reach the
advertised tolerances.

Near zero the integrand is a convergent power series in t with exact raw
moments as coefficients; the segment below a small cutoff is integrated from
that series analytically (the head rule), so no panel ever evaluates the
cancellation-prone region.

A pure lattice law X = y (N - lam) + c (``distributions.lattice``) has a
transform that never decays: E e^{(s+i(t+P))X} = e^{i theta} E e^{(s+it)X}
with P = 2 pi / y.  Its part of the integral past one period is folded
exactly onto [c0, c0 + P], c0 the head cutoff (0 on a line), against the
kernel K_1(t) = sum_{k>=1} e^{ik theta} (s + i(t + kP))^-(p+1), a Lerch
transcendent (``remainders.LatticeKernel``).  Past the period only the
moment polynomial, with its closed tail, and a companion's atoms remain, so
every route on such a law takes a bounded number of evaluations at every
rate.  The period end is a fixed panel edge, and the kernel's error bound
joins the reported error.  The improper convergents keep the unfolded path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import (
    DistributionSpec,
    FiniteDiscrete,
    abs_moment_bound,
    atoms,
    freq_scale,
    gaussian_var,
    lattice,
    raw_moment,
    scale,
    _factorial,
    _fl_vec,
    _log_fl_vec,
    _MAX_FACTORIAL,
    _moment_poly,
    _moments,
    _moments_through,
    _remainder_vec,
    _series_coefs,
    _WEIGHT_FLOOR,
)
from .errors import (
    MomentMismatch,
    NumericalDegeneracy,
    PreconditionError,
)
from .quadrature import (HeadRule, IntegrandProfile, QuadratureResult, check_rel_tol,
                         integrate_halfline, partial_integrals)
from .remainders import (LatticeKernel, MomentOrder, by_parts_coefs, by_parts_powers,
                         by_parts_remainder, by_parts_sum, decay_bound, inv_power, power_tail)
from .specparse import render

__all__ = [
    "MomentOrder",
    "MomentResult",
    "gamma_p1",
    "ppm_laplace",
    "ppm_negative_s",
    "ppm_cf",
    "ppm_diff",
    "match_discrete",
    "i_p",
    "j_p",
    "improper_cf_moment",
]

_BYPARTS_TERMS = 4
_HEAD_FRACTION = 0.05   # head cutoff = this / dominant frequency
_HEAD_TERMS = 24        # the head rule sums series orders ell+1 .. ell+1 + this
_CSP_EXPAND_LAMBDA = 50.0
_MATCH_RTOL = 1e-10


def gamma_p1(p: float) -> float:
    """Gamma(p + 1); relative error of the libm Lanczos branch is < 1e-13
    everywhere we allow."""
    if not (0.0 < p <= 169.0):
        raise PreconditionError(f"moment order {p!r} outside the supported range")
    return math.gamma(p + 1.0)


@dataclass
class MomentResult:
    """A computed positive-part moment.

    value = correction_terms + prefactor * quadrature.value, with prefactor
    Gamma(p+1)/pi.  reported_error propagates the quadrature's own error
    accounting (plus any error from an exactly-known companion term).
    """

    value: float
    quadrature: QuadratureResult
    method_used: str
    correction_terms: float
    prefactor: float
    extra_error: float = 0.0

    @property
    def reported_error(self) -> float:
        return self.prefactor * self.quadrature.total_error + self.extra_error


# ---------------------------------------------------------------------------
# Analytic tail handling
# ---------------------------------------------------------------------------


@dataclass
class _TailModel:
    """Closed form and envelope of the integrand's tail beyond T.

    A harmonic gamma e^{itx} (s+it)^-q, q = p + 1, takes _BYPARTS_TERMS
    integrations by parts (``remainders.by_parts_sum``), the powers of (s+iT)
    shared by a call's harmonics and the a_n fixed per model.  A polynomial
    term is a power tail; a residual factor takes ``remainders.decay_bound``.
    """

    p: float
    s: float
    harmonics: list          # (x, gamma) with x != 0, gamma real
    poly: list               # (coef, r): coef * Re[(s+it)^(r-p-1)] in f
    decay: list              # (K, a): residual below K e^{-a t^2 / 2} |z|^-q, a = 0 for none
    start: float = 0.0       # the model holds for T >= start only

    def __post_init__(self):
        self.q = self.p + 1.0
        self._coefs = [by_parts_coefs(x, self.q, _BYPARTS_TERMS) for x, _ in self.harmonics]

    def closed(self, T: float) -> float:
        acc = []
        if self.harmonics:
            zpows = by_parts_powers(self.s, T, self.q, _BYPARTS_TERMS)
            acc = [
                (gamma * by_parts_sum(x, T, a, zpows)).real
                for (x, gamma), a in zip(self.harmonics, self._coefs)
            ]
        acc += [power_tail(self.s, self.p - r, T, coef).real for coef, r in self.poly]
        return math.fsum(acc)

    def envelope(self, T: float) -> float:
        if T < self.start:
            return math.inf
        acc = 0.0
        if self.harmonics:
            q, k = self.q, _BYPARTS_TERMS
            fall = T ** (1.0 - q - k)
            for (_, gamma), a in zip(self.harmonics, self._coefs):
                acc += abs(gamma) * by_parts_remainder(a[k], fall, q, k)
        for K, a in self.decay:
            acc += decay_bound(K, a, T, self.q)
        return acc


def _transform_at(spec, s: float) -> float:
    """E e^{sX}; raises PreconditionError when it is not finite in floating
    point, since no tail bound can scale by it."""
    with np.errstate(over="ignore", invalid="ignore"):
        phis = float(np.real(_fl_vec(spec, complex(s))))
    if not math.isfinite(phis):
        raise PreconditionError(
            f"E e^(sX) is not finite in floating point at s = {s!r} for {render(spec)}")
    return phis


def _structure(spec, s: float):
    """Split the transform part of an integrand for tail purposes.

    Returns (harmonics, decay, zero_weight): harmonics are the nonzero atoms
    as (x, w e^{sx}); a spec with a Gaussian component is covered by
    |E e^{(s+it)X}| <= E e^{sX} * exp(-vg t^2/2) instead, the decay entry
    (E e^{sX}, vg); anything left over (an unexpanded compound-Poisson
    factor, dropped atom mass) is a decay-free entry (K, 0).  Raises
    PreconditionError when E e^{sX} is not finite in floating point: no tail
    bound can scale by it.
    """
    phis = _transform_at(spec, s)
    vg = gaussian_var(spec)
    if vg > 0.0:
        return [], [(phis, vg)], 0.0
    at = atoms(spec, csp_max_lambda=_CSP_EXPAND_LAMBDA)
    if at is None:
        return [], [(phis, 0.0)], 0.0
    lst, _dropped = at
    harmonics = [(x, w * math.exp(s * x)) for x, w in lst if x != 0.0]
    zero_w = math.fsum(w for x, w in lst if x == 0.0)
    rest = phis - (math.fsum(g for _, g in harmonics) + zero_w)
    return harmonics, [(rest, 0.0)] if rest > 0.0 else [], zero_w


def _merge_poly(entries):
    by_r: dict[float, float] = {}
    for coef, r in entries:
        by_r[r] = by_r.get(r, 0.0) + coef
    return [(c, r) for r, c in sorted(by_r.items()) if c != 0.0]


def _cos_phase(r: int, mo: MomentOrder) -> float:
    # cos(pi (r - p - 1) / 2), exact at integer p where it is 0 or +-1
    if mo.is_integer:
        return (1.0, 0.0, -1.0, 0.0)[(r - mo.k - 1) % 4]
    return math.cos(0.5 * math.pi * (r - mo.p - 1.0))


def _head_rule(parts, mo: MomentOrder, cutoff: float) -> HeadRule:
    """Analytic value of the integrand over (0, cutoff) from the moment series.

    The integrand expands as sum_{r > ell} (m_r / r!) cos(pi(r-p-1)/2) t^(r-p-1)
    with exact raw moments (signed sums over ``parts`` for the difference
    form), which integrates term by term; the truncation error is controlled
    through E|X|^(R+1) <= sqrt(E X^(2R+2)).
    """
    p = mo.p
    R = mo.ell + 1 + _HEAD_TERMS
    try:
        reach = cutoff ** (R + 1 - p)   # the largest power of the cutoff below
    except OverflowError:
        raise PreconditionError(
            f"the law's scale, {_HEAD_FRACTION / cutoff:.3g}, is too small for the head rule "
            f"at s = 0: its cutoff {cutoff:.3g} to the power {R + 1 - p:g} leaves the float range"
        ) from None
    specs = [spec for _, spec in parts]
    # the moments through R at once, but past 171 order by order: 171! is
    # out of the float range, and the loop refuses there unless the term vanishes
    top = min(R, _MAX_FACTORIAL + 1)
    moms = _moments_through(specs, top)
    terms = []
    for r in range(mo.ell + 1, R + 1):
        if r > top:
            moms = [_moments(spec, r) for spec in specs]
        mr = sum(sign * mom[r] for (sign, _), mom in zip(parts, moms))
        c = _cos_phase(r, mo)
        if mr != 0.0 and c != 0.0:
            terms.append(mr / _factorial(r) * c * cutoff ** (r - p) / (r - p))
    bnd = sum(abs_moment_bound(spec, R + 1) for _, spec in parts)
    bound = bnd / _factorial(R + 1) * reach / (R + 1 - p)
    return HeadRule(cutoff=cutoff, value=math.fsum(terms), bound=bound)


# ---------------------------------------------------------------------------
# Route kernels
# ---------------------------------------------------------------------------


@dataclass
class _Kernel:
    f: object
    profile: IntegrandProfile
    prefactor: float
    correction: float
    method: str
    extra_error: float = 0.0


def _moment_terms(spec, mo: MomentOrder, j: int, s: float):
    entries = []
    for r, c in enumerate(_series_coefs(spec, j)):
        if s == 0.0 and mo.is_integer and (r - mo.k) % 2 == 0:
            continue  # Re[(it)^(r-p-1)] identically zero for this parity
        entries.append((-c, r))
    return entries


def _profile(parts, p: float, s: float, moment_terms, freq: float, head,
             alpha: float, edges=None) -> IntegrandProfile:
    """Integrand profile for the transform part sum_i sign_i E e^{(s+it)X_i}
    (``parts`` pairs each sign with its spec) plus the algebraic
    ``moment_terms`` the route subtracts from it.  With fixed ``edges`` the
    tail model holds from the last edge on."""
    harmonics, decay, zero_w = [], [], 0.0
    for sign, spec in parts:
        h, d, zw = _structure(spec, s)
        harmonics += [(x, sign * w) for x, w in h]
        decay += d
        zero_w += sign * zw
    if p + 1.0 <= 1.0 and any(a == 0.0 for _, a in decay):
        # the algebraic bound T^(1-q) / (q-1) on a decay-free residual is
        # infinite, so no truncation point would fit the budget
        raise PreconditionError(
            f"moment order p = {p!r} too small for this law: p + 1 rounds to 1, and "
            f"its transform has no Gaussian factor to bound the tail")
    poly = _merge_poly(moment_terms + ([(zero_w, 0)] if zero_w else []))
    tail = _TailModel(p=p, s=s, harmonics=harmonics, poly=poly,
                      decay=decay, start=edges[-1] if edges else 0.0)
    return IntegrandProfile(
        alpha=alpha,
        tail_envelope=tail.envelope,
        oscillation_scale=1.0 / freq,
        tail_closed_form=tail.closed if harmonics or poly else None,
        head=head,
        max_panel_width=4.0 * math.pi / freq,
        edges=edges,
    )


def _period_edges(c: float, P: float, s: float, spike: float, fine: float,
                  coarse: float) -> tuple:
    """Panel edges over one period [c, c + P] of a lattice transform, which
    peaks at t = 0 and t = P.  Within ``spike`` of a peak the panels are at
    most ``fine`` wide, beyond it they double up to ``coarse``.  The left
    side grades up from the head cutoff c (or from |s| on a line, the scale
    of (s+it)^-q near 0); c + P is the last edge."""
    def side(first: float, width: float) -> list:
        out = [first]
        while out[-1] < 0.5 * P:
            width = min(width, fine if out[-1] < spike else coarse)
            out.append(min(out[-1] + width, 0.5 * P))
            width *= 2.0
        return out

    left = side(c, c if c > 0.0 else min(abs(s), fine))
    right = [P - d for d in reversed(side(0.0, fine)[:-1])]
    return tuple(left + right + ([c + P] if c > 0.0 else []))


def _transform_kernel(spec, mo: MomentOrder, s: float, j: int, method: str,
                      other=None, fold: bool = True) -> _Kernel:
    """The kernel of Re[E e_j((s+it)X) / (s+it)^(p+1)] for every route:
    Laplace (s > 0), negative line (s < 0), and the characteristic-function
    form (s = 0, j = ell) behind ppm_cf, i_p and the improper convergents.
    With a companion ``other`` = Y (s = 0, j = ell) the remainder is taken
    over X minus Y, the difference form behind ppm_diff.

    At s = 0 with integer p the kernel carries the formula's E X^k / 2
    correction ((E X^k - E Y^k) / 2 with a companion), and at s < 0
    (integer p) the raw moment E X^k.  For j = -1 a spec whose transform
    has a single-exp closed form is evaluated as one exponential.  Every
    remainder order j in {-1, 0, ..., ell} gives the same integral.  A pure
    lattice law is folded onto one period (``_fold``) unless ``fold`` is
    off, as for the improper convergents, which integrate from v > 0.
    """
    if not (-1 <= j <= mo.ell):
        raise PreconditionError(f"remainder order j = {j} outside [-1, {mo.ell}]")
    p = mo.p
    q = p + 1.0
    parts = [(1.0, spec)] if other is None else [(1.0, spec), (-1.0, other)]

    def f(t):
        tt = np.asarray(t, dtype=float)
        z = s + 1j * tt
        with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
            lg = _log_fl_vec(spec, z) if j == -1 else None
            if lg is not None:
                return np.real(np.exp(lg - q * np.log(z)))
            rem = _remainder_vec(spec, z, j)
            if other is not None:
                rem = rem - _remainder_vec(other, z, j)
            return np.real(rem * inv_power(s, tt, q))

    correction = 0.0
    if s <= 0.0 and mo.is_integer:
        correction = math.fsum(sign * raw_moment(sp, mo.k) for sign, sp in parts)
        if s == 0.0:
            correction *= 0.5
    # for integer p the would-be t^(ell-p) = 1/t coefficient vanishes by
    # parity and the integrand extends continuously to 0
    alpha = mo.ell - p if s == 0.0 and not mo.is_integer else 0.0
    terms = [(sign * c, r) for sign, sp in parts for c, r in _moment_terms(sp, mo, j, s)]
    prefactor = gamma_p1(p) / math.pi
    lat = lattice(spec) if fold else None
    if lat is not None:
        f, profile, fold_error = _fold(spec, other, lat, mo, s, j, f, terms, alpha)
        return _Kernel(f, profile, prefactor, correction, method, prefactor * fold_error)
    freq = max(freq_scale(sp) for _, sp in parts)
    head = _head_rule(parts, mo, _HEAD_FRACTION / freq) if s == 0.0 else None
    profile = _profile(parts, p, s, terms, freq, head, alpha)
    return _Kernel(f, profile, prefactor, correction, method)


def _fold(spec, other, lat, mo: MomentOrder, s: float, j: int, f, terms, alpha: float):
    """The route's integrand f and profile with the lattice law
    X = y (N - lam) + c folded onto one period, and the error the fold adds.

    With P = 2 pi / y, E e^{(s+i(t+P))X} = e^{i theta} E e^{(s+it)X}, so the
    transform's integral past the period end c + P equals
    int_c^{c+P} Re[E e^{(s+it)X} K_1(t)] dt, K_1 the LatticeKernel.  On the
    period the integrand gains that term; past its end only the moment
    polynomial (closed tail) and a companion's own part are left.  The head
    cutoff and the panels come from the span and from the spike of
    |E e^{(s+it)X}| = E e^{sX} exp(-lam e^{sy} (1 - cos ty)), about
    1 / (y sqrt(lam e^{sy})) wide, not from freq_scale.  The fold's error is
    the kernel's error bound times E e^{sX} P."""
    y, lam, theta = lat
    p, q = mo.p, mo.p + 1.0
    P = 2.0 * math.pi / y
    phis = _transform_at(spec, s)
    rate = lam * math.exp(s * y)
    # the lattice factor's frequency within its spike: the inverse width
    # plus the drift of its phase lam (e^{sy} sin ty - ty)
    nu = y * (1.0 + math.sqrt(rate)) + lam * y * abs(math.expm1(s * y))
    # past this distance from a peak |E e^{(s+it)X}| is below the weight floor
    log_floor = -math.log(_WEIGHT_FLOOR)
    spike = math.acos(1.0 - log_floor / rate) / y if log_floor < 2.0 * rate else 0.5 * P
    rest = [] if other is None else [(-1.0, other)]
    freq = max([y] + [freq_scale(sp) for _, sp in rest])
    c = 0.0
    head = None
    if s == 0.0:
        c = _HEAD_FRACTION / max(nu, freq)
        head = _head_rule([(1.0, spec)] + rest, mo, c)
    coarse = min(P / 8.0, 4.0 * math.pi / freq)
    edges = _period_edges(c, P, s, spike, min(2.0 / nu, coarse), coarse)
    end = edges[-1]
    kernel = LatticeKernel(q, theta, s, P, c)

    def folded(t):
        tt = np.asarray(t, dtype=float)
        inside = tt < end
        out = np.empty(tt.shape)
        ti, to = tt[inside], tt[~inside]
        if ti.size:
            with np.errstate(over="ignore", invalid="ignore", under="ignore"):
                phi = _fl_vec(spec, s + 1j * ti)
            out[inside] = f(ti) + np.real(phi * kernel(ti))
        if to.size:
            z = s + 1j * to
            with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
                rem = -_moment_poly(spec, z, j)
                if other is not None:
                    rem = rem - _remainder_vec(other, z, j)
                out[~inside] = np.real(rem * inv_power(s, to, q))
        return out

    profile = _profile(rest, p, s, terms, freq, head, alpha, edges)
    return folded, profile, phis * P * kernel.bound


def _abs_tol(kernel: _Kernel, spec, p: float, rel_tol: float) -> float:
    """Half of rel_tol times the magnitude basis 1 + max(scale, |E X|)^p,
    in units of the kernel's integral."""
    basis = 1.0 + max(scale(spec), abs(raw_moment(spec, 1))) ** p
    return rel_tol * basis / kernel.prefactor * 0.5


def _run(kernel: _Kernel, spec, p: float, rel_tol: float) -> MomentResult:
    abs_tol = _abs_tol(kernel, spec, p, rel_tol)
    quad = integrate_halfline(kernel.f, kernel.profile, rel_tol, abs_tol=abs_tol)
    value = kernel.correction + kernel.prefactor * quad.value
    return MomentResult(
        value=value,
        quadrature=quad,
        method_used=kernel.method,
        correction_terms=kernel.correction,
        prefactor=kernel.prefactor,
        extra_error=kernel.extra_error,
    )


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def _check_line(p: float, s: float, rel_tol: float) -> None:
    """Refuse a finite line s != 0 on which the power factor |s|^-(p+1) of
    the integrand near t = 0 leaves the float range: above 2^1023 it
    overflows, and below 2^(-1022 + 53) / rel_tol the integrand has fewer
    than 53 bits left at the budget's scale (subnormal values, or none at
    all).  On the line at infinity the factor is exactly 0, and a transform
    finite there (a law at or on one side of 0) makes the integral exactly 0."""
    check_rel_tol(rel_tol)
    log2_power = -(p + 1.0) * math.log2(abs(s))
    if math.isfinite(s) and not -1022.0 + 53.0 + math.log2(1.0 / rel_tol) <= log2_power <= 1023.0:
        raise PreconditionError(
            f"|s|^-(p+1) = 2^{log2_power:.6g} leaves the float range at p = {p!r}, "
            f"s = {s!r}; take a line with |s| nearer 1")


def ppm_laplace(spec: DistributionSpec, p: float, s: float, j: int = -1,
                rel_tol: float = 1e-9) -> MomentResult:
    """E X_+^p from the vertical-line transform at s > 0.  Every catalog
    transform is entire; _structure refuses an s with E e^{sX} not finite,
    and _check_line one whose power factor |s|^-(p+1) leaves the float
    range."""
    mo = MomentOrder.from_p(p)
    if not s > 0.0:
        raise PreconditionError(f"s = {s!r} outside (0, inf]")
    _check_line(mo.p, s, rel_tol)
    kernel = _transform_kernel(spec, mo, s, j, f"laplace(s={s}, j={j})")
    return _run(kernel, spec, p, rel_tol)


def ppm_negative_s(spec: DistributionSpec, p: float, s: float, j: int = -1,
                   rel_tol: float = 1e-9) -> MomentResult:
    """E X_+^p for integer p from the transform at s < 0:
    the raw moment E X^p plus the same integral as ppm_laplace."""
    mo = MomentOrder.from_p(p)
    if not mo.is_integer:
        raise PreconditionError("the negative-strip form needs integer p")
    if not s < 0.0:
        raise PreconditionError(f"s = {s!r} outside [-inf, 0)")
    _check_line(mo.p, s, rel_tol)
    kernel = _transform_kernel(spec, mo, s, j, f"negative(s={s}, j={j})")
    return _run(kernel, spec, p, rel_tol)


def ppm_cf(spec: DistributionSpec, p: float, rel_tol: float = 1e-9) -> MomentResult:
    """E X_+^p from the characteristic function (s = 0) with j = ell;
    integer orders carry the E X^k / 2 correction."""
    mo = MomentOrder.from_p(p)
    kernel = _transform_kernel(spec, mo, 0.0, mo.ell, "cf")
    return _run(kernel, spec, p, rel_tol)


def _exact_positive_part(spec, p: float) -> Optional[float]:
    at = atoms(spec)
    if at is None or at[1] != 0.0:
        return None
    return math.fsum(w * x**p for x, w in at[0] if x > 0.0)


def ppm_diff(spec_x: DistributionSpec, spec_y: DistributionSpec, p: float,
             rel_tol: float = 1e-9) -> MomentResult:
    """E X_+^p = E Y_+^p + remainder-difference integral, for Y whose raw
    moments 1..k match X (within 1e-10 relative).

    With a finitely supported Y the companion term is an exact atom sum, so
    the only quadrature left is the fast-converging difference integral.
    """
    mo = MomentOrder.from_p(p)
    for r in range(1, mo.k + 1):
        mx, my = raw_moment(spec_x, r), raw_moment(spec_y, r)
        gap = abs(mx - my) / (1.0 + abs(mx))
        if gap > _MATCH_RTOL:
            raise MomentMismatch(r, gap)
    exact = _exact_positive_part(spec_y, p)
    extra_error = 0.0
    if exact is None:
        companion = ppm_cf(spec_y, p, rel_tol)
        exact = companion.value
        extra_error = companion.reported_error
    kernel = _transform_kernel(spec_x, mo, 0.0, mo.ell, "diff", other=spec_y)
    kernel.correction += exact
    kernel.extra_error += extra_error
    return _run(kernel, spec_x, p, rel_tol)


def match_discrete(spec: DistributionSpec, p: float) -> DistributionSpec:
    """A finitely supported companion matching raw moments 1..k of ``spec``.

    A Gauss rule of n nodes, from the classical Hankel-Cholesky /
    Jacobi-matrix construction on the spec's moment sequence, reproduces
    moments 0..2n-1, so any n from k+1 down to floor(k/2)+1 matches 1..k.
    The rule takes the largest n whose (n+1)-square Hankel matrix has a
    Cholesky factor: a law close to fewer atoms (a small-rate Poisson) has
    a nearly singular one at n = k+1.  Specs already supported on at most
    k+1 points are returned unchanged, as are atomic specs whose first
    factorisation fails.
    """
    mo = MomentOrder.from_p(p)
    n = mo.k + 1
    at = atoms(spec)
    if at is not None and at[1] == 0.0 and len(at[0]) <= n:
        return spec
    mom = _moments_through([spec], 2 * n)[0][: 2 * n + 1]
    hankel = np.array([[mom[i + j] for j in range(n + 1)] for i in range(n + 1)])
    for n in range(n, mo.k // 2, -1):
        try:
            chol = np.linalg.cholesky(hankel[: n + 1, : n + 1])
            break
        except np.linalg.LinAlgError:
            if at is not None:
                return spec
    else:
        raise NumericalDegeneracy("Hankel moment matrix is singular beyond tolerance")
    r = chol.T
    diag = np.empty(n)
    off = np.empty(n - 1) if n > 1 else np.empty(0)
    prev_ratio = 0.0
    for jj in range(n):
        ratio = r[jj, jj + 1] / r[jj, jj]
        diag[jj] = ratio - prev_ratio
        prev_ratio = ratio
        if jj + 1 < n:
            off[jj] = r[jj + 1, jj + 1] / r[jj, jj]
    # Golub-Welsch: nodes are the eigenvalues of the (at most about 6x6)
    # Jacobi matrix, weights the squared first components of its eigenvectors
    jacobi = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vecs = np.linalg.eigh(jacobi)
    weights = mom[0] * vecs[0] ** 2
    weights = weights / math.fsum(float(w) for w in weights)
    # eigensolver noise can leave a symmetric rule's zero node at ~1e-15,
    # which would poison the by-parts tail bounds downstream
    span = max(float(np.max(np.abs(nodes))), 1.0)
    nodes = np.where(np.abs(nodes) <= 1e-9 * span, 0.0, nodes)
    return FiniteDiscrete(tuple((float(x), float(w)) for x, w in zip(nodes, weights)))


# ---------------------------------------------------------------------------
# The canonical tail integrals I_p and J_p
# ---------------------------------------------------------------------------


def i_p(p: float, v: float, rel_tol: float = 1e-10) -> float:
    """I_p(v) = int_v^inf Re[e_ell(-iu) / (iu)^(p+1)] du, p noninteger."""
    mo = MomentOrder.from_p(p)
    if mo.is_integer:
        raise PreconditionError("I_p is defined for noninteger p only")
    if v < 0.0:
        raise PreconditionError("lower endpoint must be nonnegative")
    from .distributions import PointMass

    minus_one = PointMass(-1.0)
    kernel = _transform_kernel(minus_one, mo, 0.0, mo.ell, "i_p")
    target = v ** (-p) * min(v, 1.0) if v > 0.0 else 1.0
    abs_tol = 0.5 * rel_tol * target
    quad = integrate_halfline(kernel.f, kernel.profile, rel_tol, abs_tol=abs_tol, start=v)
    return quad.value


def j_p(p: float, x: float, v: float, rel_tol: float = 1e-10) -> float:
    """J_p(x, v) = x^p I_p(v x) for x >= 0, v > 0; J_p(0, v) = 0."""
    if x < 0.0:
        raise PreconditionError("x must be nonnegative")
    if not v > 0.0:
        raise PreconditionError("v must be positive")
    if x == 0.0:
        return 0.0
    return x**p * i_p(p, v * x, rel_tol)


def improper_cf_moment(spec: DistributionSpec, p: float, v_sequence,
                       rel_tol: float = 1e-9) -> list[tuple[float, float]]:
    """Improper-integral convergents of the characteristic-function form.

    Returns (v, Gamma(p+1)/pi * int_v^inf ...) for each v.  These approach
    ppm_cf(spec, p) for every catalog law at every order: each left tail is
    compact or has all moments finite, which meets the left-tail condition.
    """
    mo = MomentOrder.from_p(p)
    if mo.is_integer:
        raise PreconditionError("the improper form is for noninteger p")
    kernel = _transform_kernel(spec, mo, 0.0, mo.ell, "improper-cf", fold=False)
    abs_tol = _abs_tol(kernel, spec, p, rel_tol)
    pairs = partial_integrals(kernel.f, kernel.profile, v_sequence, rel_tol, abs_tol=abs_tol)
    return [(v, kernel.prefactor * val) for v, val in pairs]
