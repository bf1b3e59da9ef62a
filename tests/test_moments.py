import itertools
import math

import numpy as np
import pytest

from pospart.distributions import (
    CenteredScaledPoisson,
    FiniteDiscrete,
    IndependentSum,
    Normal,
    PointMass,
    Shift,
    raw_moment,
)
from pospart.errors import MomentMismatch, PreconditionError
from pospart.moments import (
    MomentOrder,
    MomentRequest,
    _TailModel,
    _by_parts,
    _power_tail,
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
                closed = _power_tail(1.0, r, p, s, 5.0) - _power_tail(1.0, r, p, s, 600.0)
                assert closed == pytest.approx(window, rel=1e-7, abs=1e-9)


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
    # per model; its sums must stay bit-identical to one _by_parts per harmonic
    rng = np.random.default_rng(11)
    for s in (0.0, 0.5, -0.5):
        for p in (0.5, 1.0, 2.5, 4.0):
            q = p + 1.0
            n = int(rng.integers(1, 40))
            xs = 10.0 ** rng.uniform(-3.0, 3.0, n) * rng.choice([-1.0, 1.0], n)
            harmonics = [(float(x), float(g)) for x, g in zip(xs, rng.normal(0.0, 1.0, n))]
            poly = [(0.3, 0)]  # r < p, as the routes build them
            gauss = [(0.8, 2.0)]
            model = _TailModel(p=p, q=q, s=s, harmonics=harmonics, poly=poly,
                               gauss=gauss, fallback_K=0.25)
            k = model.k
            for T in 10.0 ** rng.uniform(-2.0, 6.0, 12):
                T = float(T)
                closed = math.fsum(
                    [(g * _by_parts(x, s, q, T, k)[0]).real for x, g in harmonics]
                    + [_power_tail(c, r, p, s, T) for c, r in poly])
                env = 0.0
                slow = T ** (1.0 - q) / (q - 1.0)
                for x, g in harmonics:
                    env += abs(g) * _by_parts(x, s, q, T, k)[1]
                for K, vg in gauss:
                    mills = math.exp(-0.5 * vg * T * T) / (vg * T) if vg * T * T < 1400 else 0.0
                    env += K * min(T ** (-q) * mills, slow)
                env += 0.25 * slow
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


def test_request_dispatch():
    req = MomentRequest(spec=PointMass(1.0), p=0.5, method="cf")
    assert req.compute().value == pytest.approx(1.0, abs=1e-8)
    req = MomentRequest(spec=Normal(0.0, 1.0), p=2.0, method="diff")
    assert req.compute().value == pytest.approx(0.5, abs=1e-8)
    with pytest.raises(PreconditionError):
        MomentRequest(spec=PointMass(1.0), p=0.5, method="bogus").compute()


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
