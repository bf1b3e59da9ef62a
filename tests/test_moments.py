import functools
import itertools
import math
import time

import numpy as np
import pytest

from mixture import mixture_ppm
from pospart.distributions import (
    CenteredScaledPoisson,
    FiniteDiscrete,
    IndependentSum,
    Normal,
    PointMass,
    Shift,
    atoms,
    raw_moment,
    scale,
)
from pospart.errors import MomentMismatch, PositivePartError, PreconditionError, UnmetBudget
from pospart.moments import (
    _BYPARTS_TERMS,
    MomentOrder,
    _TailModel,
    _transform_kernel,
    gamma_p1,
    i_p,
    improper_cf_moment,
    j_p,
    match_discrete,
    ppm_cf,
    ppm_diff,
    ppm_laplace,
    ppm_negative_s,
)
from pospart.quadrature import integrate_halfline
from pospart.remainders import (by_parts_coefs, by_parts_powers, by_parts_remainder, by_parts_sum,
                                decay_bound, power_tail)
from pospart.specparse import parse_spec
from pospart.tailbound import TailBoundProblem, eta_spec

ETA = Shift(
    IndependentSum(Normal(0.0, 0.75), CenteredScaledPoisson(0.25, 1.0)), -0.8
)


def _brute_window(f, a, b, n=400_001):
    grid = np.linspace(a, b, n)
    return np.trapezoid(f(grid), grid)


def test_gamma_prefactor():
    for n in range(1, 20):
        assert gamma_p1(float(n)) == pytest.approx(math.factorial(n), rel=1e-13)
    assert gamma_p1(0.5) == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-13)
    with pytest.raises(PreconditionError):
        gamma_p1(180.0)


# -- closed tails ----------------------------------------------------------


def test_power_tail_matches_quadrature():
    for s in (0.0, 0.4, -0.6):
        for r in (0, 1, 3):
            for p in (0.7, 2.5, 3.8):
                if r >= p:
                    continue
                f = lambda t: np.real((s + 1j * t) ** (r - p - 1.0))
                window = _brute_window(f, 5.0, 600.0)
                closed = (power_tail(s, p - r, 5.0) - power_tail(s, p - r, 600.0)).real
                assert closed == pytest.approx(window, rel=1e-7, abs=1e-9)


def _by_parts(x, s, q, T, k, weight=1.0):
    # one harmonic's by-parts tail with its own powers, and its remainder bound
    a = by_parts_coefs(x, q, k)
    val = weight * by_parts_sum(x, T, a, by_parts_powers(s, T, q, k))
    return val, abs(weight) * by_parts_remainder(a[k], T ** (1.0 - q - k), q, k)


def test_by_parts_matches_quadrature():
    for x in (0.7, -1.3, 5.0):
        for s in (0.0, 0.5):
            for q in (1.5, 3.0):
                f = lambda t: np.exp(1j * t * x) * (s + 1j * t) ** (-q)
                grid = np.linspace(9.0, 2000.0, 2_000_001)
                window = np.trapezoid(f(grid), grid)
                hi, bound_hi = _by_parts(x, s, q, 2000.0, 6)
                lo, bound_lo = _by_parts(x, s, q, 9.0, 6)
                assert abs((lo - hi) - window) <= 1e-6 + bound_hi + bound_lo


def test_tail_model_equals_per_harmonic_by_parts():
    # the model shares the (s+iT) powers across harmonics and fixes the a_n
    # per model; its sums must stay bit-identical to one by-parts tail per harmonic
    rng = np.random.default_rng(11)
    for s in (0.0, 0.5, -0.5):
        for p in (0.5, 1.0, 2.5, 4.0):
            q = p + 1.0
            n = int(rng.integers(1, 40))
            xs = 10.0 ** rng.uniform(-3.0, 3.0, n) * rng.choice([-1.0, 1.0], n)
            harmonics = [(float(x), float(g)) for x, g in zip(xs, rng.normal(0.0, 1.0, n))]
            poly = [(0.3, 0)]  # r < p, as the routes build them
            decay = [(0.8, 2.0), (0.25, 0.0)]
            model = _TailModel(p=p, s=s, harmonics=harmonics, poly=poly, decay=decay)
            k = _BYPARTS_TERMS
            for T in 10.0 ** rng.uniform(-2.0, 6.0, 12):
                T = float(T)
                closed = math.fsum(
                    [_by_parts(x, s, q, T, k, g)[0].real for x, g in harmonics]
                    + [power_tail(s, p - r, T, c).real for c, r in poly])
                env = 0.0
                for x, g in harmonics:
                    env += _by_parts(x, s, q, T, k, g)[1]
                for K, a in decay:
                    env += decay_bound(K, a, T, q)
                assert model.closed(T) == closed
                assert model.envelope(T) == env


@pytest.mark.parametrize("spec", [PointMass(1.3), FiniteDiscrete(((-1.5, 0.25), (0.0, 0.25), (2.0, 0.5)))])
@pytest.mark.parametrize("p", [0.7, 2.0, 3.0, 3.5])
def test_tail_model_consistency_atomic(spec, p):
    # the profile's closed-form tail must equal the actual integral of the
    # route integrand over (T1, T2) up to the by-parts remainder bounds
    mo = MomentOrder.from_p(p)
    kern = _transform_kernel(spec, mo, 0.0, mo.ell, "cf")
    cf = kern.profile.tail_closed_form
    env = kern.profile.tail_envelope
    t1, t2 = 40.0, 4000.0
    window = _brute_window(kern.f, t1, t2, 2_000_001)
    closed = cf(t1) - cf(t2)
    assert abs(closed - window) <= env(t1) + env(t2) + 5e-7


def test_tail_model_consistency_laplace():
    spec = FiniteDiscrete(((-0.7, 0.3), (0.4, 0.45), (2.2, 0.25)))
    mo = MomentOrder.from_p(2.5)
    kern = _transform_kernel(spec, mo, 0.7, 2, "laplace")
    cf = kern.profile.tail_closed_form
    env = kern.profile.tail_envelope
    window = _brute_window(kern.f, 30.0, 1500.0, 2_000_001)
    assert abs((cf(30.0) - cf(1500.0)) - window) <= env(30.0) + env(1500.0) + 5e-7


# -- representation routes --------------------------------------------------


def test_laplace_point_mass_identity():
    r = ppm_laplace(PointMass(1.0), 0.5, 1.0, -1)
    assert r.value == pytest.approx(1.0, abs=5e-10)
    assert abs(r.value - 1.0) <= r.reported_error


def test_laplace_negative_support_is_zero():
    r = ppm_laplace(PointMass(-2.0), 1.5, 1.0, 0)
    assert abs(r.value) <= 1e-10


def test_laplace_normal_first_moment():
    r = ppm_laplace(Normal(0.0, 1.0), 1.0, 0.5, -1, rel_tol=1e-11)
    want = 1.0 / math.sqrt(2.0 * math.pi)
    assert r.value == pytest.approx(want, abs=1e-10)
    assert abs(r.value - want) <= r.reported_error


def test_laplace_preconditions():
    with pytest.raises(PreconditionError):
        ppm_laplace(Normal(0.0, 1.0), 1.5, 0.0)
    with pytest.raises(PreconditionError):
        ppm_laplace(Normal(0.0, 1.0), 1.5, -0.5)
    with pytest.raises(PreconditionError):
        ppm_laplace(Normal(0.0, 1.0), 1.5, 1.0, j=2)


@pytest.mark.parametrize("route, window", [(ppm_laplace, "(0, inf]"),
                                           (ppm_negative_s, "[-inf, 0)")])
def test_nan_line_is_refused(route, window):
    with pytest.raises(PreconditionError) as err:
        route(Normal(0.0, 1.0), 2, math.nan)
    assert str(err.value) == f"s = nan outside {window}"


def test_line_where_the_transform_overflows_is_refused():
    # E e^{40 X} = e^800 for the standard normal: every s > 0 is a line of
    # the entire transform, but this one is past the float range
    with pytest.raises(PreconditionError, match="not finite in floating point"):
        ppm_laplace(Normal(0.0, 1.0), 2, 40.0)


@pytest.mark.parametrize("spec, p, s", [
    (FiniteDiscrete(((-1.0, 0.5), (2.0, 0.5))), 169, 85.0),   # printed 0, true 3.74e50
    (PointMass(1.0), 169, 170.0),    # printed 1 + 3.1e-9 with a bar of 1.1e-14
    (PointMass(1.0), 169, 60.0),     # ran 955,950 evaluations, then failed
    (PointMass(1.0), 2, 1e-300),     # |s|^-3 overflows
    (PointMass(-1.0), 4, -1e-250),   # on the negative line
])
def test_line_where_the_power_factor_leaves_the_float_range_is_refused(spec, p, s, monkeypatch):
    # -(p+1) log2|s| above 1023 or below -1022 + 53 + log2(1/rel_tol):
    # refused before any integrand evaluation, naming p and s
    import pospart.moments as moments
    monkeypatch.setattr(moments, "integrate_halfline", None)
    route = ppm_laplace if s > 0.0 else ppm_negative_s
    with pytest.raises(PreconditionError, match=f"p = {float(p)!r}, s = {s!r}"):
        route(spec, p, s)


def test_power_factor_floor_moves_with_rel_tol(monkeypatch):
    # at p = 169 the floor -1022 + 53 + log2(1/rel_tol) puts the last line
    # kept at s = 46.0 for rel_tol 1e-9 and at s = 50.6 for 1e-2
    import pospart.moments as moments

    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(moments, "integrate_halfline", reached)
    for s, rel_tol in ((45.9, 1e-9), (50.5, 1e-2)):
        with pytest.raises(Reached):
            ppm_laplace(PointMass(1.0), 169, s, rel_tol=rel_tol)
    for s, rel_tol in ((46.1, 1e-9), (50.7, 1e-2)):
        with pytest.raises(PreconditionError, match="leaves the float range"):
            ppm_laplace(PointMass(1.0), 169, s, rel_tol=rel_tol)


def test_order_whose_p_plus_one_rounds_to_one_is_refused(monkeypatch):
    # q = p + 1 = 1 leaves the decay-free residual's algebraic tail bound
    # infinite: refused before any integrand evaluation, where it ran out
    # of its 2,000,000 evaluations
    import pospart.moments as moments
    monkeypatch.setattr(moments, "integrate_halfline", None)
    spec = IndependentSum(CenteredScaledPoisson(100.0, 1.0), CenteredScaledPoisson(60.0, 0.37))
    with pytest.raises(PreconditionError, match=r"p = 1e-300 .*p \+ 1 rounds to 1"):
        ppm_cf(spec, 1e-300)


def test_negative_strip_examples():
    r = ppm_negative_s(PointMass(-1.0), 2, -0.5, -1)
    assert abs(r.value) <= 1e-10
    assert r.correction_terms == pytest.approx(1.0)
    r = ppm_negative_s(PointMass(2.0), 1, -1.0, -1)
    assert r.value == pytest.approx(2.0, abs=1e-9)
    r = ppm_negative_s(FiniteDiscrete(((-1.0, 0.5), (1.0, 0.5))), 3, -0.5)
    assert r.value == pytest.approx(0.5, abs=1e-9)


def test_negative_strip_rejects_fractional_order():
    with pytest.raises(PreconditionError):
        ppm_negative_s(PointMass(1.0), 2.5, -0.5)
    with pytest.raises(PreconditionError):
        ppm_negative_s(PointMass(1.0), 2, 0.5)


def test_cf_gaussian_values():
    assert ppm_cf(Normal(0.0, 1.0), 2.0).value == pytest.approx(0.5, abs=1e-9)
    assert ppm_cf(Normal(0.0, 1.0), 1.0).value == pytest.approx(
        1.0 / math.sqrt(2 * math.pi), abs=1e-9
    )


@pytest.mark.parametrize("x", [-3.0, -1.0, 0.5, 2.0])
def test_cf_point_mass_fractional(x):
    r = ppm_cf(PointMass(x), 0.7)
    assert r.value == pytest.approx(max(x, 0.0) ** 0.7, abs=1e-8 * (1 + abs(x) ** 0.7))


def test_cf_value_recomposition_invariant():
    r = ppm_cf(Normal(0.3, 1.2), 2.0)
    assert r.value == pytest.approx(
        r.correction_terms + r.prefactor * r.quadrature.value, rel=1e-15
    )
    assert r.correction_terms == pytest.approx(0.5 * raw_moment(Normal(0.3, 1.2), 2))


def test_cf_nonnegative_within_budget():
    for spec in (PointMass(-2.0), FiniteDiscrete(((-3.0, 0.9), (-0.5, 0.1)))):
        r = ppm_cf(spec, 1.7)
        assert r.value >= -r.reported_error


_ATOMIC_LAWS = {
    "point(1)": PointMass(1.0),
    "point(-1.7)": PointMass(-1.7),
    "two-atom": FiniteDiscrete(((-1.0, 0.5), (2.0, 0.5))),
    "three-atom": FiniteDiscrete(((-0.7, 0.3), (0.4, 0.45), (2.2, 0.25))),
}


def _check_atomic_cf(name, p):
    spec = _ATOMIC_LAWS[name]
    atoms = [(spec.x, 1.0)] if isinstance(spec, PointMass) else spec.atoms
    exact = math.fsum(w * x**p for x, w in atoms if x > 0.0)
    result = ppm_cf(spec, float(p))
    assert abs(result.value - exact) <= result.reported_error, (result.value, exact)
    assert result.quadrature.evaluations <= 1000


@pytest.mark.parametrize("p", range(20, 76, 5))
@pytest.mark.parametrize("name", list(_ATOMIC_LAWS))
def test_integer_cf_on_atomic_laws_within_bar(name, p):
    # high integer orders evaluate each atom's remainder just above its
    # series switch, where the direct subtraction cancels the most
    _check_atomic_cf(name, p)


@pytest.mark.parametrize("p", [
    pytest.param(p, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 1: atomic laws miss their bar from p ~ 80"))
    for p in (80, 90, 100)
])
def test_integer_cf_point_mass_high_order(p):
    _check_atomic_cf("point(1)", p)


def test_j_invariance_on_the_line():
    for p in (0.5, 1.7, 2.5, 3.8):
        mo = MomentOrder.from_p(p)
        vals = [ppm_laplace(Normal(0.3, 1.0), p, 0.7, j).value for j in range(-1, mo.ell + 1)]
        assert max(vals) - min(vals) <= 2e-12 * (1.0 + abs(vals[0]))


def test_method_agreement_spot():
    # every pair of routes: Laplace lines s in {0.3, 1} with j in {-1, ell},
    # the characteristic function, and the difference against matched atoms
    specs = (
        PointMass(1.3),
        FiniteDiscrete(((-1.0, 0.5), (1.0, 0.5))),
        FiniteDiscrete(((-0.7, 0.3), (0.4, 0.45), (2.2, 0.25))),
        Normal(0.0, 1.0),
        Normal(0.4, 0.6),
        ETA,
    )
    for spec in specs:
        for p in (0.5, 1.0, 2.0, 2.5, 3.0):
            ell = MomentOrder.from_p(p).ell
            results = [ppm_laplace(spec, p, s, j) for s in (0.3, 1.0) for j in (-1, ell)]
            results += [ppm_cf(spec, p), ppm_diff(spec, match_discrete(spec, p), p)]
            for a, b in itertools.combinations(results, 2):
                gap = abs(a.value - b.value)
                assert gap <= a.reported_error + b.reported_error + 4e-16, \
                    (spec, p, a.method_used, b.method_used, gap)


# -- difference route -------------------------------------------------------


def test_diff_identical_specs():
    r = ppm_diff(Normal(0.0, 1.0), Normal(0.0, 1.0), 2.3)
    want = ppm_cf(Normal(0.0, 1.0), 2.3).value
    assert r.value == pytest.approx(want, rel=1e-9)


def test_diff_symmetric_pair():
    r = ppm_diff(Normal(0.0, 1.0), FiniteDiscrete(((-1.0, 0.5), (1.0, 0.5))), 2.0)
    assert r.value == pytest.approx(0.5, abs=1e-9)
    assert r.correction_terms == pytest.approx(0.5)


def test_diff_matched_companion_agrees_with_cf():
    for spec in (Normal(0.0, 1.0), ETA):
        for p in (2.5, 3.0):
            companion = match_discrete(spec, p)
            a = ppm_diff(spec, companion, p)
            b = ppm_cf(spec, p)
            assert abs(a.value - b.value) <= 1e-8 * (1.0 + abs(b.value))


def test_diff_rejects_mismatched_moments():
    with pytest.raises(MomentMismatch) as err:
        ppm_diff(Normal(0.0, 1.0), PointMass(0.3), 2.5)
    assert err.value.order == 1


def _exact_ppm(spec, p):
    """E X_+^p for N(0, 1), by the Gamma-function formula, or for y (N - lam)
    with N Poisson, by the atom sum over n > lam."""
    if isinstance(spec, Normal):
        return 2.0 ** (0.5 * p - 1.0) * math.gamma(0.5 * (p + 1.0)) / math.sqrt(math.pi)
    lam, y = spec.lam, spec.y
    return math.fsum(math.exp(n * math.log(lam) - lam - math.lgamma(n + 1.0)) * (y * (n - lam)) ** p
                     for n in range(1, 200) if n > lam)


@pytest.mark.parametrize("spec, p", [
    (Normal(0.0, 1.0), 4.5), (Normal(0.0, 1.0), 5.0), (Normal(0.0, 1.0), 5.5),
    (CenteredScaledPoisson(3.0, 0.5), 3.0),
])
def test_diff_against_matched_atoms_within_bar(spec, p):
    # the remainders of X and of its matched atoms are both small near the
    # head cutoff, so their difference carries no O(1) rounding noise for
    # refinement to chase
    result = ppm_diff(spec, match_discrete(spec, p), p)
    assert abs(result.value - _exact_ppm(spec, p)) <= result.reported_error
    assert result.quadrature.evaluations <= 5000


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
@pytest.mark.parametrize("lam", [1e-6, 1e-5])
def test_small_rate_poisson_cf_within_bar(lam, p):
    # freq_scale is far below the lattice frequency 1 here, so the moment
    # series is asked for nodes where it has not converged
    spec = CenteredScaledPoisson(lam, 1.0)
    result = ppm_cf(spec, p)
    assert abs(result.value - _exact_ppm(spec, p)) <= result.reported_error
    assert result.quadrature.evaluations <= 5000


@functools.lru_cache(maxsize=None)
def _lattice_sum(lam, y, ps):
    """E X_+^p of y (N - lam), N Poisson(lam), for each p in ps: the atom sum
    over lam < n <= lam + 12 sqrt(lam) + 40 in mpmath at 30 digits, the
    weights from the first one by the ratios lam / n."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        lam_mp, y_mp = mpmath.mpf(lam), mpmath.mpf(y)
        lo = math.floor(lam) + 1
        w = mpmath.exp(-lam_mp + lo * mpmath.log(lam_mp) - mpmath.loggamma(lo + 1))
        acc = [[] for _ in ps]
        for n in range(lo, math.ceil(lam + 12.0 * math.sqrt(lam) + 40.0)):
            x = y_mp * (n - lam_mp)
            for out, p in zip(acc, ps):
                out.append(w * x**p)
            w = w * lam_mp / (n + 1)
        return tuple(float(mpmath.fsum(out)) for out in acc)


_LATTICE_ORDERS = (0.5, 1.5, 2.0, 3.5)
# the negative line needs integer p; diff at small rates keeps its companion's
# by-parts tail and is not covered
_LATTICE_ROWS = [
    (lam, route, p)
    for lam in (1e-8, 1e-6, 1e-3, 0.5, 3.0, 51.0, 100.0, 2051.79, 1e4 + 0.3, 70752.5, 1e6 + 0.5)
    for route in ("cf", "laplace", "negative", "diff")
    for p in _LATTICE_ORDERS
    if not (route == "negative" and p != int(p) or route == "diff" and lam < 0.5)
]


@pytest.mark.parametrize("lam, route, p", _LATTICE_ROWS)
def test_lattice_law_at_every_rate_within_bar(lam, route, p):
    # a pure lattice law folds its transform's tail onto one period, so every
    # route costs a bounded number of evaluations at every Poisson rate
    spec = CenteredScaledPoisson(lam, 1.0)
    s = 1.0 / max(1.0, math.sqrt(lam))
    if route == "cf":
        result = ppm_cf(spec, p)
    elif route == "laplace":
        result = ppm_laplace(spec, p, s)
    elif route == "negative":
        result = ppm_negative_s(spec, p, -s)
    else:
        result = ppm_diff(spec, match_discrete(spec, p), p)
    exact = _lattice_sum(lam, 1.0, _LATTICE_ORDERS)[_LATTICE_ORDERS.index(p)]
    # no ulp allowance: integer-order cf at lam = 1e6 + 0.5 was 1.7e-10 off
    # with a bar of 2.9e-11 while (it)^-q carried a rounding phase
    assert abs(result.value - exact) <= result.reported_error, (result.value, exact)
    assert result.quadrature.evaluations <= 50_000


_CPOISSON_HIGH_ORDERS = (8.0, 9.5, 10.0, 12.0)
_CF_MISS = pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason="cf on a pure cpoisson law misses its bar at p >= 8")


@pytest.mark.parametrize("route", [pytest.param("cf", marks=_CF_MISS), "laplace"])
@pytest.mark.parametrize("lam, y", [(3.0, 0.5), (40.0, 0.2)])
@pytest.mark.parametrize("p", _CPOISSON_HIGH_ORDERS)
def test_pure_cpoisson_high_order_within_bar(p, lam, y, route):
    # cf ends 1.8 to 16.2 times its bar away from the exact atom sum, after
    # 225 to 360 evaluations and far inside its budget, so no cap or budget
    # check can report it; laplace at s = 1 is within its bars on every row
    spec = CenteredScaledPoisson(lam, y)
    result = ppm_cf(spec, p) if route == "cf" else ppm_laplace(spec, p, 1.0)
    exact = _lattice_sum(lam, y, _CPOISSON_HIGH_ORDERS)[_CPOISSON_HIGH_ORDERS.index(p)]
    assert abs(result.value - exact) <= result.reported_error, (result.value, exact)


@pytest.mark.parametrize("route, spec, p, s", [
    ("laplace", Normal(0.0, 1.0), 2.0, 0.01),
    ("negative", Normal(0.0, 1.0), 2.0, -1e-3),
    ("cf", CenteredScaledPoisson(3.0, 0.5), 20.0, None),
    ("laplace", CenteredScaledPoisson(3.0, 0.5), 20.0, 1.0),
])
def test_missed_budget_raises(route, spec, p, s):
    # each returned a bar far above its budget: 66 times on the line
    # s = 0.01, where the tail share is sized before refinement, 67,555 times
    # on s = -1e-3, and at p = 20 the round cap left cf and laplace 1.7e-4
    # apart, with bars 1.56e6 and 210 times their budgets
    run = {"cf": lambda: ppm_cf(spec, p), "laplace": lambda: ppm_laplace(spec, p, s),
           "negative": lambda: ppm_negative_s(spec, p, s)}[route]
    if route == "laplace" and s == 0.01:
        # the second pass from the refined value meets the budget here
        result = run()
        assert abs(result.value - 0.5) <= result.reported_error
        return
    with pytest.raises(UnmetBudget, match="error bar of an integral") as err:
        run()
    assert err.value.partial.total_error == err.value.bar > err.value.budget


def _mix_law(law, rng):
    """A law from the ranges of the moment_mix benchmark requests, and its
    Laplace line s."""
    u = rng.random(4).tolist()
    if law == "point":
        x = 10.0 ** (-2.0 + 3.0 * u[0]) * (-1.0 if u[1] < 0.3 else 1.0)
        return PointMass(x), 1.0 / abs(x)
    if law == "discrete":
        k = 2 + int(u[1] * 5)
        xs = 10.0 ** (-1.0 + 2.0 * u[0]) * rng.standard_normal(k)
        ws = (rng.dirichlet(np.ones(k)) * 0.9 + 0.1 / k)[:-1].tolist()
        atoms_ = tuple(zip(xs.tolist(), ws + [1.0 - math.fsum(ws)]))
        return FiniteDiscrete(atoms_), 1.0 / float(np.max(np.abs(xs)))
    if law == "normal":
        sd = 10.0 ** (-1.0 + 2.0 * u[0])
        mu = sd * (4.0 * u[1] - 2.0)
        return Normal(mu, sd * sd), 1.0 / (sd + abs(mu))
    if law == "cpoisson":
        lam = 10.0 ** (-6.0 + 12.0 * u[0])
        return CenteredScaledPoisson(lam, 1.0), 1.0 / max(1.0, math.sqrt(lam))
    # normal plus cpoisson: the tail-bound law eta - t
    problem = TailBoundProblem(1.0, 10.0 ** (-4.0 + 6.0 * u[0]), 0.05 + 0.9 * u[1])
    return eta_spec(problem, 4.0 * u[2] - 1.0), min(1.0 / problem.y, 2.0)


_SWEEP_LAWS = ("point", "discrete", "normal", "cpoisson", "normal_cpoisson")
_SWEEP_ROUTES = ("cf", "laplace", "negative", "diff")


@pytest.mark.parametrize("law", _SWEEP_LAWS)
@pytest.mark.parametrize("route", _SWEEP_ROUTES)
def test_ordinary_requests_return(route, law):
    # a missed budget raises: on a seeded grid over the benchmark's request
    # ranges (p in (0, 4], integer on half of it, rel_tol 1e-9) every call
    # still returns a value
    rng = np.random.default_rng([5, _SWEEP_ROUTES.index(route), _SWEEP_LAWS.index(law)])
    for _ in range(10):
        spec, s = _mix_law(law, rng)
        if route == "negative" or rng.random() < 0.5:
            p = float(rng.integers(1, 5))
        else:
            p = 4.0 * (1.0 - rng.random())
        if route == "cf":
            result = ppm_cf(spec, p, 1e-9)
        elif route == "laplace":
            result = ppm_laplace(spec, p, s, -1, 1e-9)
        elif route == "negative":
            result = ppm_negative_s(spec, p, -s, -1, 1e-9)
        else:
            result = ppm_diff(spec, match_discrete(spec, p), p, 1e-9)
        assert math.isfinite(result.value) and result.reported_error >= 0.0


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 2.5, 3.5])
def test_small_rate_poisson_diff_within_bar_or_refused(p):
    # orders up to 2 may exhaust the evaluation budget (ROADMAP item 2); a
    # value that comes back lies within its bar
    spec = CenteredScaledPoisson(1e-6, 1.0)
    try:
        result = ppm_diff(spec, match_discrete(spec, p), p)
    except PositivePartError:
        assert p <= 2.0
        return
    assert abs(result.value - _exact_ppm(spec, p)) <= result.reported_error


def _poisson_atoms(lam, y):
    """The atoms (y (n - lam), P(N = n)) of y (N - lam), N Poisson(lam), in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    lam, y = mpmath.mpf(lam), mpmath.mpf(y)
    return [(y * (n - lam), mpmath.exp(-lam) * lam**n / mpmath.factorial(n)) for n in range(80)]


def _atom_sum(law, p):
    """E X_+^p of a list of (x, weight) atoms, summed in mpmath at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        return float(mpmath.fsum(w * x**p for x, w in law if x > 0))


@pytest.mark.parametrize("lam, p", [
    (1e-4, 4.0), (1e-4, 4.5), (1e-4, 6.0), (1e-5, 4.0), (1e-5, 4.5), (1e-5, 6.0), (1e-3, 6.0),
])
def test_diff_on_nearly_one_atom_laws_within_bar(lam, p):
    # the moment sequence of a small-rate Poisson law is nearly that of one
    # atom, so the Hankel matrix of k+1 Gauss nodes has no Cholesky factor;
    # a rule of fewer nodes still matches moments 1..k
    spec = CenteredScaledPoisson(lam, 1.0)
    result = ppm_diff(spec, match_discrete(spec, p), p)
    assert abs(result.value - _atom_sum(_poisson_atoms(lam, 1.0), p)) <= result.reported_error


def _conv(a, b):
    return [(x + u, w * v) for x, w in a for u, v in b]


def _mp_atoms(*pairs):
    mpmath = pytest.importorskip("mpmath")
    return [(mpmath.mpf(x), mpmath.mpf(w)) for x, w in pairs]


_TWO_ATOMS = ((-1.0, 0.5), (2.0, 0.5))


@pytest.mark.parametrize("text, law", [
    ("sum(discrete(-1:0.5,2:0.5), point(0.3))",
     lambda: _conv(_mp_atoms(*_TWO_ATOMS), _mp_atoms((0.3, 1.0)))),
    ("shift(discrete(-1:0.25,0.5:0.5,2:0.25), 0.7)",
     lambda: _conv(_mp_atoms((-1.0, 0.25), (0.5, 0.5), (2.0, 0.25)), _mp_atoms((0.7, 1.0)))),
    ("sum(discrete(-1:0.5,2:0.5), cpoisson(0.5,1))",
     lambda: _conv(_mp_atoms(*_TWO_ATOMS), _poisson_atoms(0.5, 1.0))),
    ("sum(cpoisson(0.3,1), cpoisson(2,0.5))",
     lambda: _conv(_poisson_atoms(0.3, 1.0), _poisson_atoms(2.0, 0.5))),
    ("shift(cpoisson(2.25,0.7), 0.3)",
     lambda: _conv(_poisson_atoms(2.25, 0.7), _mp_atoms((0.3, 1.0)))),
    ("sum(cpoisson(0.3,1), cpoisson(2.1,1))",
     lambda: _conv(_poisson_atoms(0.3, 1.0), _poisson_atoms(2.1, 1.0))),
])
def test_sums_and_shifts_of_atomic_laws_within_bar(text, law):
    # these laws run the convolution branch of atoms() and the shift
    # factor of the transform kernel; the last two are lattice laws, folded
    # with the phase of their shift or of their summed rates
    spec, law = parse_spec(text), law()
    for p in (0.5, 1.5, 2.0, 3.5):
        exact = _atom_sum(law, p)
        for result in (ppm_cf(spec, p), ppm_laplace(spec, p, 0.5),
                       ppm_diff(spec, match_discrete(spec, p), p)):
            assert abs(result.value - exact) <= result.reported_error, (p, result.method_used)
            assert result.quadrature.evaluations <= 20_000, (p, result.method_used)


@pytest.mark.parametrize("spread", [0.1, 1.0])
@pytest.mark.parametrize("lam", [1e2, 1e4, 1e6, 1e7])
def test_large_rate_poisson_gaussian_within_bar(lam, spread):
    # spread = lam y^2 is the Poisson part's variance.  The evaluations stay
    # bounded as lam grows because freq_scale bounds the phase rate by
    # y ln 1e18 wherever |E e^{itX}| is above the weight floor
    y = math.sqrt(spread / lam)
    spec = Shift(IndependentSum(Normal(0.0, 0.25), CenteredScaledPoisson(lam, y)), -0.5)
    ps = (0.5, 1.5, 2.0, 3.5)
    exact = mixture_ppm(0.25, lam, y, -0.5, ps)
    s = 1.0 / scale(spec)
    for p in ps:
        results = [ppm_cf(spec, p), ppm_laplace(spec, p, s),
                   ppm_diff(spec, match_discrete(spec, p), p)]
        if p == int(p):
            results.append(ppm_negative_s(spec, p, -s))
        for result in results:
            where = (p, result.method_used)
            assert abs(result.value - exact[p]) <= result.reported_error + 1e-13 * exact[p], where
            assert result.quadrature.evaluations <= 20_000, where


# -- moment matching --------------------------------------------------------


def test_match_discrete_point_mass_degenerate():
    spec = PointMass(2.0)
    assert match_discrete(spec, 1.5) is spec


def test_match_discrete_normal_rules():
    for p, k in ((2.5, 2), (3.5, 3)):
        rule = match_discrete(Normal(0.0, 1.0), p)
        assert isinstance(rule, FiniteDiscrete)
        assert len(rule.atoms) == k + 1
        for r in range(1, k + 1):
            assert raw_moment(rule, r) == pytest.approx(
                raw_moment(Normal(0.0, 1.0), r), abs=1e-10
            )
        xs = sorted(x for x, _ in rule.atoms)
        assert xs == pytest.approx([-x for x in xs[::-1]], abs=1e-9)


def test_match_discrete_compound():
    rule = match_discrete(ETA, 3.0)
    for r in range(1, 4):
        assert raw_moment(rule, r) == pytest.approx(raw_moment(ETA, r), abs=1e-10)


# -- I_p / J_p ---------------------------------------------------------------


def test_ip_zero_at_origin():
    for p in (0.25, 0.5, 0.75, 1.5, 2.5):
        assert abs(i_p(p, 0.0)) <= 1e-9


def test_ip_rejects_integer_order():
    with pytest.raises(PreconditionError):
        i_p(2.0, 0.5)


def test_ip_positivity_and_lower_bound():
    for p in (0.25, 0.5, 0.75):
        for v in (*np.logspace(-3, 3, 9), 1e-2, 1e-1, 1e1, 1e2):
            assert i_p(p, float(v)) > -1e-10
        for jj in (1, 2, 3):
            got = i_p(p, 2.0 * jj * math.pi)
            bound = (jj * math.pi**2 - 1) * math.cos(math.pi * p / 2) ** 3 \
                / (2 * jj * math.pi) ** (p + 1)
            assert got >= bound - 1e-9


def test_ip_simplified_form_is_used_consistently():
    # for p < 1 the I_p integrand has the real closed form
    # (sin(pi p/2) - sin(pi p/2 + t)) / t^(p+1); the kernel must match it
    p = 0.5
    mo = MomentOrder.from_p(p)
    kern = _transform_kernel(PointMass(-1.0), mo, 0.0, mo.ell, "cf")
    t = np.array([0.3, 2.0, 11.0])
    simplified = (math.sin(math.pi * p / 2) - np.sin(math.pi * p / 2 + t)) / t ** (p + 1)
    assert np.allclose(kern.f(t), simplified, rtol=1e-12)


def test_ip_asymptotic_band_frozen():
    # measured once and frozen: the ratio I_p(v) / (v^-p (v ^ 1)) stays inside
    # [0.8, 2.2] across p in {0.25, 0.5, 0.75}, v in [1e-2, 1e3]
    for p in (0.25, 0.5, 0.75):
        for v in np.logspace(-2, 3, 16):
            ratio = i_p(p, float(v)) / (v**-p * min(v, 1.0))
            assert 0.8 <= ratio <= 2.2, (p, v, ratio)


def test_jp_scaling_identity():
    for x in (0.5, 2.0, 7.0):
        for v in (0.1, 1.0, 10.0):
            lhs = j_p(0.5, x, v)
            rhs = x**0.5 * i_p(0.5, v * x)
            assert lhs == pytest.approx(rhs, rel=1e-10)
    assert j_p(0.5, 0.0, 1.0) == 0.0


def test_jp_direct_quadrature_cross_check():
    # evaluate the defining integral directly instead of through the scaling
    p, x, v = 0.5, 3.0, 0.2
    mo = MomentOrder.from_p(p)
    kern = _transform_kernel(PointMass(-x), mo, 0.0, mo.ell, "jp")
    direct = integrate_halfline(kern.f, kern.profile, 1e-11, abs_tol=1e-12, start=v)
    assert j_p(p, x, v) == pytest.approx(direct.value, abs=1e-9)


# -- improper convergents ----------------------------------------------------


def test_improper_convergents_point_mass():
    conv = improper_cf_moment(PointMass(1.0), 0.5, [1.0, 0.1, 0.01])
    gaps = [abs(val - 1.0) for _, val in conv]
    assert gaps[-1] < gaps[0]
    assert gaps[-1] <= 0.1


def test_improper_negative_mass_rate():
    conv = improper_cf_moment(PointMass(-1.0), 0.5, [1.0, 0.3, 0.1, 0.03, 0.01])
    gaps = [abs(val) for _, val in conv]
    slope = np.polyfit(np.log([v for v, _ in conv]), np.log(gaps), 1)[0]
    assert slope >= 0.45


def test_improper_rejects_integer_order():
    with pytest.raises(PreconditionError):
        improper_cf_moment(Normal(0.0, 1.0), 2.0, [1.0, 0.1])


def test_deep_shift_costs_time_linear_in_depth():
    # each node extends one list of raw moments, reading each child's list
    # once; a per-(spec, order) cache recomputed the subtrees and took
    # seconds here, doubling with each level
    spec = PointMass(1.0)
    for _ in range(24):
        spec = Shift(spec, 0.001)
    start = time.perf_counter()
    got = ppm_cf(spec, 1.5, 1e-9)
    assert time.perf_counter() - start < 1.0
    assert abs(got.value - 1.024**1.5) <= got.reported_error


def test_deepest_python_built_tree_within_bar():
    # 63 shifts around a point: 64 levels, the deepest tree the limit accepts
    spec = PointMass(1.0)
    for _ in range(63):
        spec = Shift(spec, 0.01)
    got = ppm_cf(spec, 2.5, 1e-9)
    x = atoms(spec)[0][0][0]
    assert abs(got.value - x**2.5) <= got.reported_error


def test_compound_example_against_naive_series():
    # the motivating computation: Gaussian plus centred scaled Poisson,
    # shifted, at an integer order, against the mixture-series oracle
    from pospart.oracles import naive_series_ppm
    from pospart.tailbound import TailBoundProblem, eta_spec

    oracle = naive_series_ppm(TailBoundProblem(1.0, 1.0, 0.25), 0.8, 3)
    got = ppm_cf(ETA, 3.0, 1e-9)
    assert abs(got.value - oracle.value) <= 1e-7 * abs(oracle.value)
    for problem in (TailBoundProblem(1.0, 1.0, 0.5), TailBoundProblem(1.0, 0.3, 0.2)):
        for t in (-1.0, 0.0, 1.0):
            for p in (2, 3):
                oracle = naive_series_ppm(problem, t, p)
                got = ppm_cf(eta_spec(problem, t), float(p), 1e-9)
                assert abs(got.value - oracle.value) <= 1e-7 * abs(oracle.value), (problem, t, p)
