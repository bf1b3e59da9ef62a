"""Distribution catalog: exact transforms, raw moments, samplers.

Every entry supplies a closed-form Fourier-Laplace transform E e^{zX}, exact
raw moments by recursion, and a seeded sampler.  Specs are immutable trees
built from six variants:

    PointMass(x)                    X = x
    FiniteDiscrete(((x1,w1), ...))  finitely many atoms, weights sum to 1
    Normal(mu, var)
    CenteredScaledPoisson(lam, y)   y * (Poisson(lam) - lam)
    Shift(inner, c)                 X + c
    IndependentSum(left, right)     X + Y independent

Every transform here is entire: the only limit on a line Re z = s is that
E e^{sX} be finite in floating point, which the moment routes check.
``lattice`` recognises a centred Poisson, shifted or not, as a law on the
lattice of span y, whose transform repeats after one period 2 pi / y up to
a phase; the moment routes fold their integrals onto that period.  Every
law has a compact left tail or all moments finite, so the left-tail
condition of the characteristic-function form holds for every law and
order.  A spec tree nests at most 64 levels deep.

All operations here are pure; sampling takes an explicit seed.  Of the
third-party packages the module imports numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import PreconditionError
from .remainders import binomial_row, exp_remainder

__all__ = [
    "PointMass",
    "FiniteDiscrete",
    "Normal",
    "CenteredScaledPoisson",
    "Shift",
    "IndependentSum",
    "DistributionSpec",
    "fl_transform",
    "raw_moment",
    "abs_moment_bound",
    "remainder_transform",
    "sample",
    "scale",
    "freq_scale",
    "gaussian_var",
    "atoms",
    "lattice",
]


# nesting deeper than this is refused: the spec tree is walked recursively
_MAX_DEPTH = 64


def _nest(node, *children) -> None:
    """Record a composite node's depth (a leaf has depth 1) and refuse it
    past _MAX_DEPTH.  The depth is kept out of the dataclass fields, so eq,
    hash, repr and fields() see only the spec."""
    depth = 1 + max(getattr(child, "_depth", 1) for child in children)
    if depth > _MAX_DEPTH:
        raise PreconditionError(f"spec nested deeper than {_MAX_DEPTH} levels")
    object.__setattr__(node, "_depth", depth)


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
        _nest(self, self.inner)


@dataclass(frozen=True)
class IndependentSum:
    left: "DistributionSpec"
    right: "DistributionSpec"

    def __post_init__(self):
        _nest(self, self.left, self.right)


DistributionSpec = Union[
    PointMass, FiniteDiscrete, Normal, CenteredScaledPoisson, Shift, IndependentSum
]


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
    """E e^{zX} for an ndarray (or scalar) of complex z."""
    lg = _log_fl_vec(spec, z)
    if lg is not None:
        return np.exp(lg)
    if isinstance(spec, FiniteDiscrete):
        acc = 0.0
        for x, w in spec.atoms:
            acc = acc + w * np.exp(z * x)
        return acc
    if isinstance(spec, Shift):
        return np.exp(z * spec.c) * _fl_vec(spec.inner, z)
    if isinstance(spec, IndependentSum):
        return _fl_vec(spec.left, z) * _fl_vec(spec.right, z)
    raise PreconditionError(f"unknown spec {spec!r}")


def fl_transform(spec: DistributionSpec, z: complex) -> complex:
    """E e^{zX} in closed form, for any complex z whose real part is not NaN."""
    zz = np.asarray(z, dtype=complex)
    if np.isnan(zz.real).any():
        raise PreconditionError("Re z is NaN")
    out = _fl_vec(spec, zz)
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
def _moment_list(spec) -> list:
    """The raw moments m_0, m_1, ... of one spec node computed so far;
    _moments extends the list in place."""
    return [1.0]


def _moments(spec, r: int) -> list:
    """The raw moments of spec through at least order r.

    Each node keeps one list and extends it from where it stopped, reading
    each child's list once, so a request costs time linear in the tree's
    depth and an order asked for again is a lookup.  A composite node builds
    each order's terms as one row, C(n, i) (a float, binomial_row) times
    the two other factors in that order, summed by math.fsum (_row_sum)."""
    mom = _moment_list(spec)
    n0 = len(mom)
    if n0 > r:
        return mom
    if isinstance(spec, PointMass):
        for n in range(n0, r + 1):
            mom.append(float(spec.x**n))
    elif isinstance(spec, FiniteDiscrete):
        for n in range(n0, r + 1):
            mom.append(math.fsum(w * x**n for x, w in spec.atoms))
    elif isinstance(spec, Normal):
        # E X^n = mu E X^(n-1) + (n-1) var E X^(n-2)
        if n0 == 1:
            mom.append(spec.mu)
        for n in range(len(mom), r + 1):
            mom.append(spec.mu * mom[n - 1] + (n - 1) * spec.var * mom[n - 2])
    elif isinstance(spec, (CenteredScaledPoisson, Shift, IndependentSum)):
        # a numpy product past the float range is inf, as a float product
        # is, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            if isinstance(spec, CenteredScaledPoisson):
                # cumulants: kappa_1 = 0, kappa_n = lam * y^n for n >= 2;
                # moments by the standard cumulant-to-moment recursion,
                # m_n = sum_{i=1..n} C(n-1, i-1) kappa_i m_(n-i)
                kappa = np.array([0.0, 0.0] + [spec.lam * spec.y**n for n in range(2, r + 1)])
                own = np.array(mom + [0.0] * (r + 1 - n0))
                for n in range(n0, r + 1):
                    own[n] = _row_sum(binomial_row(n - 1), kappa[1:n + 1], own[n - 1::-1])
                    mom.append(float(own[n]))
            elif isinstance(spec, Shift):
                # m_n = sum_i C(n, i) c^(n-i) E inner^i
                inner = np.array(_moments(spec.inner, r)[:r + 1])
                powers = np.array([spec.c**n for n in range(n0)] + [0.0] * (r + 1 - n0))
                for n in range(n0, r + 1):
                    powers[n] = spec.c**n
                    mom.append(_row_sum(binomial_row(n), powers[n::-1], inner[:n + 1]))
            else:
                # m_n = sum_i C(n, i) E left^i E right^(n-i)
                left = np.array(_moments(spec.left, r)[:r + 1])
                right = np.array(_moments(spec.right, r)[:r + 1])
                for n in range(n0, r + 1):
                    mom.append(_row_sum(binomial_row(n), left[:n + 1], right[n::-1]))
    else:
        raise PreconditionError(f"unknown spec {spec!r}")
    return mom


def _row_sum(binomials, first, second) -> float:
    """math.fsum of binomials * first * second, each product rounded in that
    order as a float times a float is."""
    return math.fsum((binomials * first * second).tolist())


def _moments_through(specs, top: int) -> list:
    """The moment lists of specs through order top, each asked for once.

    If that fails, the orders are asked for again one at a time, spec by
    spec, so that the failure raised is the one an order-by-order reading
    meets first (one node may fail at a lower order than another)."""
    try:
        return [_moments(spec, top) for spec in specs]
    except (ArithmeticError, ValueError):
        for r in range(top + 1):
            for spec in specs:
                _moments(spec, r)
        raise


def raw_moment(spec: DistributionSpec, r: int) -> float:
    """Exact raw moment E X^r by closed-form recursion."""
    if r < 0:
        raise PreconditionError("moment order must be >= 0")
    r = int(r)
    return _moments(spec, r)[r]


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
    """Upper estimate of the dominant oscillation frequency of t -> E e^{itX}.

    For X = y (N - lam) the transform is phi(t) = exp(lam (e^{ity} - 1 - ity)),
    whose phase lam (sin ty - ty) turns at the rate lam y (1 - cos ty), and
    that is exactly y (-ln |phi(t)|).  So the rate is at most 2 lam y, and at
    most y ln(1 / _WEIGHT_FLOOR) = 41.4 y wherever |phi| is above the weight
    floor; where it is below, the factor is negligible.  The two bounds meet
    at lam = 20.7.  The 10 y sqrt(lam) spread on top keeps adaptivity from
    having to rescue the grid.
    """

    def rec(s):
        if isinstance(s, PointMass):
            return abs(s.x)
        if isinstance(s, FiniteDiscrete):
            return max(abs(x) for x, _ in s.atoms)
        if isinstance(s, Normal):
            return abs(s.mu) + math.sqrt(s.var)
        if isinstance(s, CenteredScaledPoisson):
            rate = min(2.0 * s.lam, -math.log(_WEIGHT_FLOOR))
            return rate * s.y + 10.0 * s.y * math.sqrt(s.lam)
        if isinstance(s, Shift):
            return rec(s.inner) + abs(s.c)
        if isinstance(s, IndependentSum):
            return rec(s.left) + rec(s.right)
        raise PreconditionError(f"unknown spec {s!r}")

    f = rec(spec)
    return f if f > 0.0 else 1.0


# Poisson weights at or below this are left out of an atom list
_WEIGHT_FLOOR = 1e-18


def lattice(spec: DistributionSpec):
    """(y, lam, theta) when X = y (N - lam) + c with N Poisson(lam), else None.

    Such a law lives on a lattice of span y, and its transform repeats over
    one period P = 2 pi / y up to a phase: E e^{(s + i(t + P))X} =
    e^{i theta} E e^{(s + it)X} with theta = 2 pi (c / y - lam), reduced to
    [-pi, pi).  Shifts and point masses added to a centred Poisson move c;
    centred Poissons of the same span add their rates.  A point mass alone
    is not a lattice here, nor is a sum with a Gaussian or with other atoms.
    """

    def rec(s):
        # (span or None, rate, offset)
        if isinstance(s, CenteredScaledPoisson):
            return s.y, s.lam, 0.0
        if isinstance(s, PointMass):
            return None, 0.0, s.x
        if isinstance(s, Shift):
            inner = rec(s.inner)
            return inner and (inner[0], inner[1], inner[2] + s.c)
        if isinstance(s, IndependentSum):
            left, right = rec(s.left), rec(s.right)
            if not (left and right):
                return None
            spans = {left[0], right[0]} - {None}
            if len(spans) > 1:
                return None
            return min(spans, default=None), left[1] + right[1], left[2] + right[2]
        return None

    got = rec(spec)
    if not got or got[0] is None:
        return None
    y, lam, c = got
    turns = ((c / y) % 1.0 - lam % 1.0) % 1.0
    if turns >= 0.5:
        turns -= 1.0
    return y, lam, 2.0 * math.pi * turns


def atoms(spec: DistributionSpec, csp_max_lambda: float = 0.0):
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
            if w > _WEIGHT_FLOOR:
                out.append((spec.y * (j - spec.lam), w))
                dropped -= w
            j += 1
            w = w * spec.lam / j
        return out, max(dropped, 0.0)
    if isinstance(spec, Shift):
        inner = atoms(spec.inner, csp_max_lambda)
        if inner is None:
            return None
        lst, dropped = inner
        return [(x + spec.c, w) for x, w in lst], dropped
    if isinstance(spec, IndependentSum):
        left = atoms(spec.left, csp_max_lambda)
        right = atoms(spec.right, csp_max_lambda)
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
_EPS = float(np.finfo(float).eps)


@lru_cache(maxsize=1024)
def _series_coefs(spec, n: int) -> tuple:
    """The moment-series coefficients m_r / r! of E e^{zX} for r = 0 .. n;
    past r = 170 the first r! refuses, after its moment."""
    mom = _moments_through([spec], min(n, _MAX_FACTORIAL + 1))[0]
    return tuple(mom[r] / _factorial(r) for r in range(n + 1))


def _remainder_vec(spec, z, j: int):
    """E e_j(zX) over an ndarray of complex z.

    Atomic specs evaluate the stable kernel once over the atoms x nodes grid
    and sum over the atom axis.  For the rest, small |z| * freq
    uses the convergent moment series sum_{r>j} m_r z^r / r!, but a node
    stays on it only while the series' last two terms are below rounding of
    its sum; every other node takes the direct subtraction from the
    transform.  Both branches are exact in exact arithmetic.  For a lattice
    law freq is its spread y (1 + sqrt(lam)): there E e^{|z| |X|} stays
    near 1, so the series is no noisier than the subtraction, which near
    z = 0 loses everything to cancellation.
    """
    at = atoms(spec)
    if at is not None and len(at[0]) <= 512:
        xs, ws = np.array(at[0]).T
        shape = (-1,) + (1,) * np.ndim(z)
        return np.add.reduce(ws.reshape(shape) * exp_remainder(xs.reshape(shape) * z, j)) + 0j
    if j == -1:
        return _fl_vec(spec, z)
    lat = lattice(spec)
    fr = lat[0] * (1.0 + math.sqrt(lat[1])) if lat else freq_scale(spec)
    zz = np.asarray(z, dtype=complex)
    out = np.empty_like(zz)
    small = np.asarray(np.abs(zz) * fr <= 0.5)
    if small.any():
        zs = zz[small]
        c = _series_coefs(spec, j + 1 + _SERIES_TERMS)
        acc = np.full_like(zs, c[-1])
        for r in range(j + _SERIES_TERMS, j, -1):
            acc = acc * zs + c[r]
        az = np.abs(zs)
        last = (abs(c[-1]) * az + abs(c[-2])) * az ** (_SERIES_TERMS - 1)
        out[small] = acc * zs ** (j + 1)
        small[small] = last <= _EPS * np.abs(acc)
    big = ~small
    if big.any():
        zb = zz[big]
        out[big] = _fl_vec(spec, zb) - _moment_poly(spec, zb, j)
    return out


def _moment_poly(spec, z, j: int):
    """The moment polynomial sum_{r<=j} m_r z^r / r! over an ndarray of z
    (0 for j = -1)."""
    c = _series_coefs(spec, j)
    if not c:
        return np.zeros_like(z)
    poly = np.full_like(z, c[-1])
    for r in range(j - 1, -1, -1):
        poly = poly * z + c[r]
    return poly


def remainder_transform(spec: DistributionSpec, z: complex, j: int) -> complex:
    """E e_j(zX): the transform minus its first j+1 moment terms."""
    if j < -1:
        raise PreconditionError("remainder order must be >= -1")
    if math.isnan(float(np.real(z))):
        raise PreconditionError("Re z is NaN")
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
