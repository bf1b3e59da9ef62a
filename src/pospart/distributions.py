"""Distribution catalog: exact transforms, raw moments, samplers.

Every entry supplies a closed-form Fourier-Laplace transform E e^{zX}, exact
raw moments by recursion, a finiteness strip, an analytic left-tail class,
and a seeded sampler.  Specs are immutable trees built from six variants:

    PointMass(x)                    X = x
    FiniteDiscrete(((x1,w1), ...))  finitely many atoms, weights sum to 1
    Normal(mu, var)
    CenteredScaledPoisson(lam, y)   y * (Poisson(lam) - lam)
    Shift(inner, c)                 X + c
    IndependentSum(left, right)     X + Y independent

All operations here are pure; sampling takes an explicit seed.  Of the
third-party packages the module imports numpy only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import PreconditionError, StripViolation
from .remainders import exp_remainder

__all__ = [
    "PointMass",
    "FiniteDiscrete",
    "Normal",
    "CenteredScaledPoisson",
    "Shift",
    "IndependentSum",
    "DistributionSpec",
    "StripBounds",
    "TailClass",
    "Classification",
    "strip",
    "fl_transform",
    "raw_moment",
    "abs_moment_bound",
    "remainder_transform",
    "left_tail_classify",
    "tail_class",
    "sample",
    "scale",
    "freq_scale",
    "gaussian_var",
    "atoms",
]


@dataclass(frozen=True)
class StripBounds:
    """Interval [s1, s2] of real s with E e^{sX} finite, s1 <= 0 <= s2."""

    s1: float
    s2: float

    def __post_init__(self):
        if not (self.s1 <= 0.0 <= self.s2):
            raise PreconditionError("strip must contain 0")

    def intersect(self, other: "StripBounds") -> "StripBounds":
        return StripBounds(max(self.s1, other.s1), min(self.s2, other.s2))

    def contains(self, s: float) -> bool:
        return self.s1 <= s <= self.s2


@dataclass(frozen=True)
class PointMass:
    x: float

    def __post_init__(self):
        if not math.isfinite(self.x):
            raise PreconditionError("atom must be finite")


@dataclass(frozen=True)
class FiniteDiscrete:
    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.atoms) == 0:
            raise PreconditionError("a discrete spec needs at least one atom")
        if not all(math.isfinite(x) for x, _ in self.atoms):
            raise PreconditionError("atoms must be finite")
        total = math.fsum(w for _, w in self.atoms)
        if any(w <= 0.0 for _, w in self.atoms):
            raise PreconditionError("atom weights must be positive")
        if abs(total - 1.0) > 1e-12:
            raise PreconditionError(
                f"atom weights must sum to 1 within 1e-12, got {total!r}"
            )


@dataclass(frozen=True)
class Normal:
    mu: float
    var: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise PreconditionError("mean must be finite")
        if not 0.0 < self.var < math.inf:
            raise PreconditionError("variance must be positive and finite")


@dataclass(frozen=True)
class CenteredScaledPoisson:
    """y * (Poisson(lam) - lam): mean 0, variance lam * y^2."""

    lam: float
    y: float

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:
            raise PreconditionError("rate must be positive and finite")
        if not 0.0 < self.y < math.inf:
            raise PreconditionError("scale must be positive and finite")


@dataclass(frozen=True)
class Shift:
    inner: "DistributionSpec"
    c: float

    def __post_init__(self):
        if not math.isfinite(self.c):
            raise PreconditionError("shift must be finite")


@dataclass(frozen=True)
class IndependentSum:
    left: "DistributionSpec"
    right: "DistributionSpec"


DistributionSpec = Union[
    PointMass, FiniteDiscrete, Normal, CenteredScaledPoisson, Shift, IndependentSum
]


class TailClass(enum.Enum):
    COMPACT_LEFT = "compact-left"
    ALL_MOMENTS_FINITE = "all-moments-finite"


class Classification(enum.Enum):
    SATISFIES_II = "satisfies-left-tail-condition"
    UNKNOWN = "unknown"


def strip(spec: DistributionSpec) -> StripBounds:
    """Finiteness strip; every catalog variant has an entire transform."""
    inf = math.inf
    if isinstance(spec, (PointMass, FiniteDiscrete, Normal, CenteredScaledPoisson)):
        return StripBounds(-inf, inf)
    if isinstance(spec, Shift):
        return strip(spec.inner)
    if isinstance(spec, IndependentSum):
        return strip(spec.left).intersect(strip(spec.right))
    raise PreconditionError(f"unknown spec {spec!r}")


def tail_class(spec: DistributionSpec) -> TailClass:
    """Analytic left-tail class per variant; never estimated numerically."""
    if isinstance(spec, (PointMass, FiniteDiscrete)):
        return TailClass.COMPACT_LEFT
    if isinstance(spec, CenteredScaledPoisson):
        # support is y*(N - lam), bounded below by -y*lam
        return TailClass.COMPACT_LEFT
    if isinstance(spec, Normal):
        return TailClass.ALL_MOMENTS_FINITE
    if isinstance(spec, Shift):
        return tail_class(spec.inner)
    if isinstance(spec, IndependentSum):
        left, right = tail_class(spec.left), tail_class(spec.right)
        if left == right == TailClass.COMPACT_LEFT:
            return TailClass.COMPACT_LEFT
        return TailClass.ALL_MOMENTS_FINITE
    raise PreconditionError(f"unknown spec {spec!r}")


def left_tail_classify(spec: DistributionSpec, p: float) -> Classification:
    """Whether the left tail decays fast enough for the improper
    characteristic-function representation at order p.

    Every catalog variant qualifies: a compact left tail trivially, and a
    variant with all moments finite via the Markov bound from any moment of
    order above p.  Unknown is reserved for future user-supplied transforms.
    """
    if tail_class(spec) in (TailClass.COMPACT_LEFT, TailClass.ALL_MOMENTS_FINITE):
        return Classification.SATISFIES_II
    return Classification.UNKNOWN


def _log_fl_vec(spec, z):
    """log E e^{zX} when the tree has a single-branch closed form, else None.

    Summing exponents across the tree lets one np.exp serve the whole
    transform, which matters in the quadrature hot path."""
    if isinstance(spec, PointMass):
        return z * spec.x
    if isinstance(spec, Normal):
        return spec.mu * z + 0.5 * spec.var * z * z
    if isinstance(spec, CenteredScaledPoisson):
        # lam * (e^{zy} - 1 - zy); the stable exp remainder avoids the
        # small-|zy| cancellation
        return spec.lam * exp_remainder(z * spec.y, 1)
    if isinstance(spec, Shift):
        inner = _log_fl_vec(spec.inner, z)
        return None if inner is None else z * spec.c + inner
    if isinstance(spec, IndependentSum):
        left = _log_fl_vec(spec.left, z)
        if left is None:
            return None
        right = _log_fl_vec(spec.right, z)
        return None if right is None else left + right
    return None


def _fl_vec(spec, z):
    """E e^{zX} for an ndarray (or scalar) of complex z; no strip check."""
    if isinstance(spec, FiniteDiscrete):
        acc = 0.0
        for x, w in spec.atoms:
            acc = acc + w * np.exp(z * x)
        return acc
    if isinstance(spec, Shift) or isinstance(spec, IndependentSum):
        lg = _log_fl_vec(spec, z)
        if lg is not None:
            return np.exp(lg)
        if isinstance(spec, Shift):
            return np.exp(z * spec.c) * _fl_vec(spec.inner, z)
        return _fl_vec(spec.left, z) * _fl_vec(spec.right, z)
    lg = _log_fl_vec(spec, z)
    if lg is not None:
        return np.exp(lg)
    raise PreconditionError(f"unknown spec {spec!r}")


def fl_transform(spec: DistributionSpec, z: complex) -> complex:
    """E e^{zX} in closed form.  Re z must lie in the finiteness strip."""
    re = float(np.min(np.real(np.asarray(z, dtype=complex))))
    re_hi = float(np.max(np.real(np.asarray(z, dtype=complex))))
    band = strip(spec)
    if not (band.contains(re) and band.contains(re_hi)):
        raise StripViolation(
            f"Re z in [{re}, {re_hi}] outside strip [{band.s1}, {band.s2}]"
        )
    out = _fl_vec(spec, np.asarray(z, dtype=complex))
    return complex(out[()]) if np.ndim(z) == 0 else out


# 171! is the first factorial past the float range
_MAX_FACTORIAL = 170


def _factorial(r: int) -> int:
    """r! for a series coefficient m_r / r!, which converts r! to a float:
    past 170! that conversion overflows, so the order is refused."""
    if r > _MAX_FACTORIAL:
        raise PreconditionError(
            f"moment order too high for this route: its moment series needs {r}!, "
            f"and r! leaves the float range past r = {_MAX_FACTORIAL}")
    return math.factorial(r)


@lru_cache(maxsize=256)
def _poisson_moments(spec) -> list:
    """The raw moments m_0, m_1, ... of a CenteredScaledPoisson computed so
    far; _raw_moment_cached extends the list in place."""
    return [1.0]


# bounded: match_discrete asks for at most 2k+3 orders of one spec (and of
# its subtrees) per call, far below the size, so hits within a call are kept
@lru_cache(maxsize=1024)
def _raw_moment_cached(spec, r: int) -> float:
    if r == 0:
        return 1.0
    if isinstance(spec, PointMass):
        return float(spec.x**r)
    if isinstance(spec, FiniteDiscrete):
        return math.fsum(w * x**r for x, w in spec.atoms)
    if isinstance(spec, Normal):
        # E X^r = mu E X^(r-1) + (r-1) var E X^(r-2)
        prev2, prev1 = 1.0, spec.mu
        if r == 1:
            return prev1
        for n in range(2, r + 1):
            cur = spec.mu * prev1 + (n - 1) * spec.var * prev2
            prev2, prev1 = prev1, cur
        return prev1
    if isinstance(spec, CenteredScaledPoisson):
        # cumulants: kappa_1 = 0, kappa_n = lam * y^n for n >= 2; moments by
        # the standard cumulant-to-moment recursion.  m_n needs only m_0 ..
        # m_(n-1), so each spec keeps one sequence and extends it to order r
        mom = _poisson_moments(spec)
        kappa = [0.0, 0.0] + [spec.lam * spec.y**n for n in range(2, r + 1)]
        for n in range(len(mom), r + 1):
            mom.append(math.fsum(
                math.comb(n - 1, i - 1) * kappa[i] * mom[n - i]
                for i in range(1, n + 1)
            ))
        return mom[r]
    if isinstance(spec, Shift):
        return math.fsum(
            math.comb(r, i) * spec.c ** (r - i) * _raw_moment_cached(spec.inner, i)
            for i in range(r + 1)
        )
    if isinstance(spec, IndependentSum):
        return math.fsum(
            math.comb(r, i)
            * _raw_moment_cached(spec.left, i)
            * _raw_moment_cached(spec.right, r - i)
            for i in range(r + 1)
        )
    raise PreconditionError(f"unknown spec {spec!r}")


def raw_moment(spec: DistributionSpec, r: int) -> float:
    """Exact raw moment E X^r by closed-form recursion."""
    if r < 0:
        raise PreconditionError("moment order must be >= 0")
    return _raw_moment_cached(spec, int(r))


def abs_moment_bound(spec: DistributionSpec, r: int) -> float:
    """Computable upper bound on E |X|^r.

    Even orders are exact; odd orders use Cauchy-Schwarz, E|X|^r <= sqrt(E X^{2r}).
    """
    if r < 0:
        raise PreconditionError("moment order must be >= 0")
    if r == 0:
        return 1.0
    if r % 2 == 0:
        return raw_moment(spec, r)
    return math.sqrt(abs(raw_moment(spec, 2 * r)))


def scale(spec: DistributionSpec) -> float:
    """Dispersion used for panel grading: sqrt(variance) when positive,
    else the largest atom magnitude, else 1."""
    var = raw_moment(spec, 2) - raw_moment(spec, 1) ** 2
    if var > 0.0:
        return math.sqrt(var)
    at = atoms(spec)
    if at is not None:
        biggest = max(abs(x) for x, _ in at[0])
        if biggest > 0.0:
            return biggest
    return 1.0


def gaussian_var(spec: DistributionSpec) -> float:
    """Total variance of Gaussian components; drives |E e^{(s+it)X}| decay."""
    if isinstance(spec, Normal):
        return spec.var
    if isinstance(spec, Shift):
        return gaussian_var(spec.inner)
    if isinstance(spec, IndependentSum):
        return gaussian_var(spec.left) + gaussian_var(spec.right)
    return 0.0


def freq_scale(spec: DistributionSpec) -> float:
    """Upper estimate of the dominant oscillation frequency of t -> E e^{itX}."""

    def rec(s):
        if isinstance(s, PointMass):
            return abs(s.x)
        if isinstance(s, FiniteDiscrete):
            return max(abs(x) for x, _ in s.atoms)
        if isinstance(s, Normal):
            return abs(s.mu) + math.sqrt(s.var)
        if isinstance(s, CenteredScaledPoisson):
            # instantaneous phase rate of exp(lam(e^{ity}-1-ity)) is at most
            # 2*lam*y; add spread so adaptivity rarely has to rescue us.
            return 2.0 * s.lam * s.y + 10.0 * s.y * math.sqrt(s.lam)
        if isinstance(s, Shift):
            return rec(s.inner) + abs(s.c)
        if isinstance(s, IndependentSum):
            return rec(s.left) + rec(s.right)
        raise PreconditionError(f"unknown spec {s!r}")

    f = rec(spec)
    return f if f > 0.0 else 1.0


def atoms(
    spec: DistributionSpec,
    csp_max_lambda: float = 0.0,
    weight_floor: float = 1e-18,
):
    """(atom list, dropped mass) when the spec is purely atomic, else None.

    A CenteredScaledPoisson is only expanded when its rate is at or below
    ``csp_max_lambda``; the Poisson tail mass beyond the kept window is
    returned as dropped mass so callers can bound what the list misses.
    """
    if isinstance(spec, PointMass):
        return [(spec.x, 1.0)], 0.0
    if isinstance(spec, FiniteDiscrete):
        return list(spec.atoms), 0.0
    if isinstance(spec, Normal):
        return None
    if isinstance(spec, CenteredScaledPoisson):
        if spec.lam > csp_max_lambda:
            return None
        w = math.exp(-spec.lam)
        out = []
        dropped = 1.0
        j = 0
        while j < spec.lam + 20 * math.sqrt(spec.lam) + 200:
            if w > weight_floor:
                out.append((spec.y * (j - spec.lam), w))
                dropped -= w
            j += 1
            w = w * spec.lam / j
        return out, max(dropped, 0.0)
    if isinstance(spec, Shift):
        inner = atoms(spec.inner, csp_max_lambda, weight_floor)
        if inner is None:
            return None
        lst, dropped = inner
        return [(x + spec.c, w) for x, w in lst], dropped
    if isinstance(spec, IndependentSum):
        left = atoms(spec.left, csp_max_lambda, weight_floor)
        right = atoms(spec.right, csp_max_lambda, weight_floor)
        if left is None or right is None:
            return None
        ll, dl = left
        rr, dr = right
        if len(ll) * len(rr) > 20000:
            return None
        conv: dict[float, float] = {}
        for xl, wl in ll:
            for xr, wr in rr:
                key = xl + xr
                conv[key] = conv.get(key, 0.0) + wl * wr
        return sorted(conv.items()), dl + dr
    raise PreconditionError(f"unknown spec {spec!r}")


# ---------------------------------------------------------------------------
# Remainder transforms E e_j(zX).
# ---------------------------------------------------------------------------

_SERIES_TERMS = 60  # tail-series length for the non-atomic small-|z| branch


@lru_cache(maxsize=1024)
def _series_coefs(spec, n: int) -> tuple:
    """The moment-series coefficients m_r / r! of E e^{zX} for r = 0 .. n."""
    return tuple(raw_moment(spec, r) / _factorial(r) for r in range(n + 1))


def _remainder_vec(spec, z, j: int):
    """E e_j(zX) over an ndarray of complex z.

    Atomic specs evaluate atom-wise through the stable scalar kernel.  For
    the rest, small |z| * freq uses the convergent moment series
    sum_{r>j} m_r z^r / r! and large |z| the direct subtraction from the
    transform; both branches are exact in exact arithmetic.
    """
    at = atoms(spec)
    if at is not None and len(at[0]) <= 512:
        acc = 0.0
        for x, w in at[0]:
            acc = acc + w * exp_remainder(z * x, j)
        return acc + 0j
    if j == -1:
        return _fl_vec(spec, z)
    fr = freq_scale(spec)
    zz = np.asarray(z, dtype=complex)
    out = np.empty_like(zz)
    small = np.abs(zz) * fr <= 0.5
    if small.any():
        zs = zz[small]
        c = _series_coefs(spec, j + 1 + _SERIES_TERMS)
        acc = np.full_like(zs, c[-1])
        for r in range(j + _SERIES_TERMS, j, -1):
            acc = acc * zs + c[r]
        out[small] = acc * zs ** (j + 1)
    big = ~small
    if big.any():
        zb = zz[big]
        c = _series_coefs(spec, j)
        poly = np.full_like(zb, c[-1])
        for r in range(j - 1, -1, -1):
            poly = poly * zb + c[r]
        out[big] = _fl_vec(spec, zb) - poly
    return out


def remainder_transform(spec: DistributionSpec, z: complex, j: int) -> complex:
    """E e_j(zX): the transform minus its first j+1 moment terms."""
    if j < -1:
        raise PreconditionError("remainder order must be >= -1")
    re = float(np.real(z))
    if not strip(spec).contains(re):
        raise StripViolation(f"Re z = {re} outside the finiteness strip")
    out = _remainder_vec(spec, np.asarray(z, dtype=complex), j)
    return complex(np.asarray(out)[()])


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _draw(spec, rng, n: int) -> np.ndarray:
    if isinstance(spec, PointMass):
        return np.full(n, float(spec.x))
    if isinstance(spec, FiniteDiscrete):
        xs = np.asarray([x for x, _ in spec.atoms])
        cdf = np.cumsum(np.asarray([w for _, w in spec.atoms]))
        idx = np.searchsorted(cdf, rng.random(n) * cdf[-1], side="right")
        return xs[np.minimum(idx, len(xs) - 1)]
    if isinstance(spec, Normal):
        return spec.mu + math.sqrt(spec.var) * rng.standard_normal(n)
    if isinstance(spec, CenteredScaledPoisson):
        return spec.y * (rng.poisson(spec.lam, n) - spec.lam)
    if isinstance(spec, Shift):
        return _draw(spec.inner, rng, n) + spec.c
    if isinstance(spec, IndependentSum):
        return _draw(spec.left, rng, n) + _draw(spec.right, rng, n)
    raise PreconditionError(f"unknown spec {spec!r}")


def sample(spec: DistributionSpec, seed: int, n: int) -> np.ndarray:
    """n i.i.d. draws, deterministic for a given seed."""
    if n < 1:
        raise PreconditionError("need at least one draw")
    rng = np.random.Generator(np.random.PCG64(seed))
    return _draw(spec, rng, int(n))
