"""Positive-part moments E X_+^p from Fourier-Laplace and characteristic
transforms.

The half-line representations implemented here:

  * ppm_laplace: vertical-line form at 0 < s <= s2,
        E X_+^p = Gamma(p+1)/pi * int_0^inf Re[E e_j((s+it)X) / (s+it)^(p+1)] dt
    valid for every remainder order j in {-1, 0, ..., ell}.
  * ppm_negative_s: the same integrand at s < 0 for integer p, plus the
    exact raw moment E X^p as an additive correction.
  * ppm_cf: the characteristic-function form at s = 0 with j = ell, the
    same integrand; integer orders add the E X^k / 2 correction.
  * ppm_diff: the difference form against a moment-matched companion whose
    positive-part moment is computable exactly.

Each route factors its integrand as

    f(t) = [finite harmonics gamma_i e^{itx_i}] * z^-(p+1)  (projected to Re)
         + [algebraic terms coef_r * Re z^(r-p-1)]
         + [transform residual bounded by |E e^{(s+it)X}|]

and hands the quadrature an exact closed form for the algebraic-plus-harmonic
tail beyond the truncation point (powers integrate in closed form; harmonics
by repeated integration by parts with a rigorous remainder bound), leaving
only a fast-shrinking residual for the truncation envelope.  Without this
split the oscillatory t^(ell-p-1) tails would need truncation points beyond
1e16 to reach the advertised tolerances.

Near zero the integrand is a convergent power series in t with exact raw
moments as coefficients; the segment below a small cutoff is integrated from
that series analytically (the head rule), so no panel ever evaluates the
cancellation-prone region.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import (
    DistributionSpec,
    FiniteDiscrete,
    Classification,
    abs_moment_bound,
    atoms,
    freq_scale,
    gaussian_var,
    left_tail_classify,
    raw_moment,
    scale,
    strip,
    _factorial,
    _fl_vec,
    _log_fl_vec,
    _remainder_vec,
    _series_coefs,
)
from .errors import (
    MomentMismatch,
    NumericalDegeneracy,
    PreconditionError,
)
from .quadrature import HeadRule, IntegrandProfile, QuadratureResult, integrate_halfline, partial_integrals
from .remainders import MomentOrder, inv_power
from .specparse import render

__all__ = [
    "MomentOrder",
    "MomentResult",
    "MomentRequest",
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


def _by_parts_coefs(x: float, q: float, k: int) -> list:
    """a_0 .. a_k of the by-parts series below: a_0 = 1, a_{n+1} = a_n (q+n)/x."""
    a = [1.0]
    for n in range(k):
        a.append(a[-1] * (q + n) / x)
    return a


def _by_parts_powers(s: float, T: float, q: float, k: int) -> list:
    """(s+iT)^(-q-n) for n < k."""
    zT = s + 1j * T
    zpow = inv_power(s, T, q)
    out = [zpow]
    for _ in range(k - 1):
        zpow = zpow / zT
        out.append(zpow)
    return out


def _by_parts_remainder(a_k: float, decay: float, q: float, k: int) -> float:
    """|a_k| T^(1-q-k) / (q+k-1), given decay = T^(1-q-k)."""
    return abs(a_k) * decay / (q + k - 1.0)


def _by_parts_sum(x: float, T: float, a: list, zpows: list) -> complex:
    eiTx = cmath.exp(1j * T * x)
    val = 0.0 + 0.0j
    for an, zpow in zip(a, zpows):
        val += an * (-(zpow * eiTx) / (1j * x))
    return val


def _by_parts(x: float, s: float, q: float, T: float, k: int):
    """Closed tail of a single harmonic: int_T^inf e^{itx} (s+it)^{-q} dt.

    Repeated integration by parts gives

        sum_{n<k} a_n * (-(s+iT)^{-q-n} e^{iTx} / (ix)),
        a_0 = 1, a_{n+1} = a_n (q+n)/x,

    with remainder bounded by |a_k| T^{1-q-k}/(q+k-1).  Exact for any T > 0,
    not merely asymptotic, so the bound is rigorous wherever the solver puts T.
    """
    a = _by_parts_coefs(x, q, k)
    val = _by_parts_sum(x, T, a, _by_parts_powers(s, T, q, k))
    return val, _by_parts_remainder(a[k], T ** (1.0 - q - k), q, k)


def _power_tail(coef: float, r: float, p: float, s: float, T: float) -> float:
    # int_T^inf coef * Re[(s+it)^(r-p-1)] dt  =  -coef * Im[(s+iT)^(r-p)]/(r-p)
    zT = s + 1j * T
    return -coef * (zT ** (r - p)).imag / (r - p)


@dataclass
class _TailModel:
    """Closed form and envelope of the integrand's tail beyond T.

    Each harmonic is summed by ``_by_parts``; the powers of (s+iT) are shared
    by all harmonics of a call and the coefficients a_n are fixed per model.
    """

    p: float
    q: float
    s: float
    harmonics: list          # (x, gamma) with x != 0, gamma real
    poly: list               # (coef, r): coef * Re[(s+it)^(r-p-1)] in f
    gauss: list              # (K, vg) residual factors K e^{-vg t^2 / 2}
    fallback_K: float        # residual with no decay beyond |z|^-q
    k: int = _BYPARTS_TERMS

    def __post_init__(self):
        self._coefs = [_by_parts_coefs(x, self.q, self.k) for x, _ in self.harmonics]

    def closed(self, T: float) -> float:
        acc = []
        if self.harmonics:
            zpows = _by_parts_powers(self.s, T, self.q, self.k)
            acc = [
                (gamma * _by_parts_sum(x, T, a, zpows)).real
                for (x, gamma), a in zip(self.harmonics, self._coefs)
            ]
        acc += [_power_tail(coef, r, self.p, self.s, T) for coef, r in self.poly]
        return math.fsum(acc)

    def envelope(self, T: float) -> float:
        acc = 0.0
        slow = T ** (1.0 - self.q) / (self.q - 1.0)
        if self.harmonics:
            q, k = self.q, self.k
            decay = T ** (1.0 - q - k)
            for (_, gamma), a in zip(self.harmonics, self._coefs):
                acc += abs(gamma) * _by_parts_remainder(a[k], decay, q, k)
        for K, vg in self.gauss:
            mills = math.exp(-0.5 * vg * T * T) / (vg * T) if vg * T * T < 1400 else 0.0
            acc += K * min(T ** (-self.q) * mills, slow)
        if self.fallback_K:
            acc += self.fallback_K * slow
        return acc

    @property
    def has_closed(self) -> bool:
        return bool(self.harmonics or self.poly)


def _structure(spec, s: float):
    """Split the transform part of an integrand for tail purposes.

    Returns (harmonics, gauss list, fallback_K, zero_weight): harmonics are
    the nonzero atoms as (x, w e^{sx}); specs with a Gaussian component are
    covered by |E e^{(s+it)X}| <= E e^{sX} * exp(-vg t^2/2) instead; anything
    left over (an unexpanded compound-Poisson factor, dropped atom mass)
    falls back to the decay-free bound.  Raises PreconditionError when
    E e^{sX} is not finite in floating point: no tail bound can scale by it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        phis = float(np.real(_fl_vec(spec, complex(s))))
    if not math.isfinite(phis):
        raise PreconditionError(
            f"E e^(sX) is not finite in floating point at s = {s!r} for {render(spec)}")
    vg = gaussian_var(spec)
    if vg > 0.0:
        return [], [(phis, vg)], 0.0, 0.0
    at = atoms(spec, csp_max_lambda=_CSP_EXPAND_LAMBDA)
    if at is not None:
        lst, _dropped = at
        harmonics = [(x, w * math.exp(s * x)) for x, w in lst if x != 0.0]
        zero_w = math.fsum(w for x, w in lst if x == 0.0)
        covered = math.fsum(g for _, g in harmonics) + zero_w
        return harmonics, [], max(phis - covered, 0.0), zero_w
    return [], [], phis, 0.0


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


def _head_rule(spec, mo: MomentOrder, cutoff: float, r0: int, other=None,
               extra_terms: int = 24) -> HeadRule:
    """Analytic value of the integrand over (0, cutoff) from the moment series.

    The integrand expands as sum_{r >= r0} (m_r / r!) cos(pi(r-p-1)/2) t^(r-p-1)
    with exact raw moments (moment differences for the two-spec form), which
    integrates term by term; the truncation error is controlled through
    E|X|^(R+1) <= sqrt(E X^(2R+2)).
    """
    p = mo.p
    R = r0 + extra_terms
    terms = []
    for r in range(r0, R + 1):
        mr = raw_moment(spec, r) - (raw_moment(other, r) if other is not None else 0.0)
        c = _cos_phase(r, mo)
        if mr != 0.0 and c != 0.0:
            terms.append(mr / _factorial(r) * c * cutoff ** (r - p) / (r - p))
    bnd = abs_moment_bound(spec, R + 1)
    if other is not None:
        bnd += abs_moment_bound(other, R + 1)
    bound = bnd / _factorial(R + 1) * cutoff ** (R + 1 - p) / (R + 1 - p)
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


def _moment_terms(spec, mo: MomentOrder, j: int, s: float):
    entries = []
    for r, c in enumerate(_series_coefs(spec, j)):
        if s == 0.0 and mo.is_integer and (r - mo.k) % 2 == 0:
            continue  # Re[(it)^(r-p-1)] identically zero for this parity
        entries.append((-c, r))
    return entries


def _profile(parts, p: float, s: float, moment_terms, freq: float, head,
             alpha: float) -> IntegrandProfile:
    """Integrand profile for the transform part sum_i sign_i E e^{(s+it)X_i}
    (``parts`` pairs each sign with its spec) plus the algebraic
    ``moment_terms`` the route subtracts from it."""
    harmonics, gauss, fallback, zero_w = [], [], 0.0, 0.0
    for sign, spec in parts:
        h, g, fb, zw = _structure(spec, s)
        harmonics += [(x, sign * w) for x, w in h]
        gauss += g
        fallback += fb
        zero_w += sign * zw
    poly = _merge_poly(moment_terms + ([(zero_w, 0)] if zero_w else []))
    tail = _TailModel(p=p, q=p + 1.0, s=s, harmonics=harmonics, poly=poly,
                      gauss=gauss, fallback_K=fallback)
    return IntegrandProfile(
        alpha=alpha,
        tail_envelope=tail.envelope,
        oscillation_scale=1.0 / freq,
        tail_closed_form=tail.closed if tail.has_closed else None,
        head=head,
        max_panel_width=4.0 * math.pi / freq,
    )


def _transform_kernel(spec, mo: MomentOrder, s: float, j: int, method: str) -> _Kernel:
    """The kernel of Re[E e_j((s+it)X) / (s+it)^(p+1)] for every
    single-spec route: Laplace (s > 0), negative strip (s < 0), and the
    characteristic-function form (s = 0, j = ell) behind ppm_cf, i_p and the
    improper convergents.

    At s = 0 with integer p the kernel carries the formula's E X^k / 2
    correction.  For j = -1 a spec whose transform has a single-exp closed
    form is evaluated as one exponential.
    """
    p = mo.p
    q = p + 1.0

    def f(t):
        tt = np.asarray(t, dtype=float)
        z = s + 1j * tt
        lg = _log_fl_vec(spec, z) if j == -1 else None
        with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
            if lg is not None:
                return np.real(np.exp(lg - q * np.log(z)))
            return np.real(_remainder_vec(spec, z, j) * inv_power(s, tt, q))

    correction = 0.5 * raw_moment(spec, mo.k) if s == 0.0 and mo.is_integer else 0.0
    freq = freq_scale(spec)
    head = None
    alpha = 0.0
    if s == 0.0:
        head = _head_rule(spec, mo, _HEAD_FRACTION / freq, mo.ell + 1)
        # for integer p the would-be t^(ell-p) = 1/t coefficient vanishes by
        # parity and the integrand extends continuously to 0
        alpha = mo.ell - p if not mo.is_integer else 0.0
    profile = _profile([(1.0, spec)], p, s, _moment_terms(spec, mo, j, s), freq, head, alpha)
    return _Kernel(f, profile, gamma_p1(p) / math.pi, correction, method)


def _diff_kernel(spec_x, spec_y, mo: MomentOrder) -> _Kernel:
    p = mo.p
    q = p + 1.0

    def f(t):
        tt = np.asarray(t, dtype=float)
        z = 1j * tt
        d = _fl_vec(spec_x, z) - _fl_vec(spec_y, z)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
            w = inv_power(0.0, tt, q)
        return np.real(d * w)

    freq = max(freq_scale(spec_x), freq_scale(spec_y))
    head = _head_rule(spec_x, mo, _HEAD_FRACTION / freq, mo.k + 1, other=spec_y)
    alpha = mo.k - p if mo.k < p else 0.0
    profile = _profile([(1.0, spec_x), (-1.0, spec_y)], p, 0.0, [], freq, head, alpha)
    return _Kernel(f, profile, gamma_p1(p) / math.pi, 0.0, "diff")


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
    )


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def ppm_laplace(spec: DistributionSpec, p: float, s: float, j: int = -1,
                rel_tol: float = 1e-9) -> MomentResult:
    """E X_+^p from the vertical-line transform at 0 < s <= s2."""
    mo = MomentOrder.from_p(p)
    band = strip(spec)
    if not (0.0 < s <= band.s2):
        raise PreconditionError(f"s = {s!r} outside (0, {band.s2}]")
    if not (-1 <= j <= mo.ell):
        raise PreconditionError(f"remainder order j = {j} outside [-1, {mo.ell}]")
    kernel = _transform_kernel(spec, mo, s, j, f"laplace(s={s}, j={j})")
    return _run(kernel, spec, p, rel_tol)


def ppm_negative_s(spec: DistributionSpec, p: float, s: float, j: int = -1,
                   rel_tol: float = 1e-9) -> MomentResult:
    """E X_+^p for integer p from the transform at s < 0:
    the raw moment E X^p plus the same integral as ppm_laplace."""
    mo = MomentOrder.from_p(p)
    if not mo.is_integer:
        raise PreconditionError("the negative-strip form needs integer p")
    band = strip(spec)
    if not (band.s1 <= s < 0.0):
        raise PreconditionError(f"s = {s!r} outside [{band.s1}, 0)")
    if not (-1 <= j <= mo.ell):
        raise PreconditionError(f"remainder order j = {j} outside [-1, {mo.ell}]")
    kernel = _transform_kernel(spec, mo, s, j, f"negative(s={s}, j={j})")
    correction = raw_moment(spec, mo.k)
    result = _run(kernel, spec, p, rel_tol)
    result.value += correction
    result.correction_terms = correction
    return result


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
    """E X_+^p = E Y_+^p + transform-difference integral, for Y whose raw
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
    kernel = _diff_kernel(spec_x, spec_y, mo)
    result = _run(kernel, spec_x, p, rel_tol)
    result.value += exact
    result.correction_terms = exact
    result.extra_error = extra_error
    return result


def match_discrete(spec: DistributionSpec, p: float) -> DistributionSpec:
    """A finitely supported companion matching raw moments 1..k of ``spec``.

    k+1 atoms suffice: they are the Gauss nodes/weights of the spec's moment
    sequence, obtained by the classical Hankel-Cholesky / Jacobi-matrix
    construction, which reproduces moments 0..2k+1.  Specs already supported
    on at most k+1 points are returned unchanged.
    """
    mo = MomentOrder.from_p(p)
    n = mo.k + 1
    at = atoms(spec)
    if at is not None and at[1] == 0.0 and len(at[0]) <= n:
        return spec
    mom = [raw_moment(spec, r) for r in range(2 * n + 1)]
    hankel = np.array([[mom[i + j] for j in range(n + 1)] for i in range(n + 1)])
    try:
        chol = np.linalg.cholesky(hankel)
    except np.linalg.LinAlgError as exc:
        if at is not None:
            return spec
        raise NumericalDegeneracy(
            "Hankel moment matrix is singular beyond tolerance"
        ) from exc
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

    Returns (v, Gamma(p+1)/pi * int_v^inf ...) for each v; when the left
    tail of the spec decays fast enough these approach ppm_cf(spec, p).
    """
    mo = MomentOrder.from_p(p)
    if mo.is_integer:
        raise PreconditionError("the improper form is for noninteger p")
    if left_tail_classify(spec, p) is not Classification.SATISFIES_II:
        raise PreconditionError("left-tail class unknown; improper form rejected")
    kernel = _transform_kernel(spec, mo, 0.0, mo.ell, "improper-cf")
    abs_tol = _abs_tol(kernel, spec, p, rel_tol)
    pairs = partial_integrals(kernel.f, kernel.profile, v_sequence, rel_tol, abs_tol=abs_tol)
    return [(v, kernel.prefactor * val) for v, val in pairs]


# ---------------------------------------------------------------------------
# Request record used by the CLI
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentRequest:
    """One moment computation: spec, order, route, and route parameters."""

    spec: DistributionSpec
    p: float
    method: str = "cf"              # cf | laplace | negative | diff
    s: Optional[float] = None
    j: int = -1
    other: Optional[DistributionSpec] = None
    rel_tol: float = 1e-9

    def compute(self) -> MomentResult:
        if self.method == "cf":
            return ppm_cf(self.spec, self.p, self.rel_tol)
        if self.method == "laplace":
            s = 1.0 if self.s is None else self.s
            return ppm_laplace(self.spec, self.p, s, self.j, self.rel_tol)
        if self.method == "negative":
            s = -1.0 if self.s is None else self.s
            return ppm_negative_s(self.spec, self.p, s, self.j, self.rel_tol)
        if self.method == "diff":
            other = self.other
            if other is None:
                other = match_discrete(self.spec, self.p)
            return ppm_diff(self.spec, other, self.p, self.rel_tol)
        raise PreconditionError(f"unknown method {self.method!r}")
