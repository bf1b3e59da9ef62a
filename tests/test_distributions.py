import math
from dataclasses import fields

import numpy as np
import pytest

from pospart.distributions import (
    CenteredScaledPoisson,
    FiniteDiscrete,
    IndependentSum,
    Normal,
    PointMass,
    Shift,
    abs_moment_bound,
    fl_transform,
    raw_moment,
    remainder_transform,
    sample,
    scale,
)
from pospart.errors import PreconditionError

ETA = Shift(
    IndependentSum(Normal(0.0, 0.75), CenteredScaledPoisson(0.25, 1.0)), -0.8
)

CATALOG = [
    PointMass(3.0),
    PointMass(-1.5),
    FiniteDiscrete(((-1.0, 0.5), (1.0, 0.5))),
    FiniteDiscrete(((-0.7, 0.3), (0.4, 0.45), (2.2, 0.25))),
    Normal(0.0, 1.0),
    Normal(0.4, 0.6),
    CenteredScaledPoisson(2.0, 1.0),
    CenteredScaledPoisson(5000.0, 0.01),
    ETA,
]


def test_transform_examples():
    assert fl_transform(PointMass(3.0), 0.0) == pytest.approx(1.0)
    assert fl_transform(Normal(0.0, 1.0), 1j) == pytest.approx(math.exp(-0.5))


def test_eta_transform_closed_form():
    # exp{-zt + z^2 (1-eps) sigma^2 / 2 + (e^{zy}-1-zy) eps sigma^2 / y^2}
    z = 0.37 + 0.9j
    want = np.exp(-z * 0.8 + z * z / 2 * 0.75 + (np.exp(z) - 1 - z) * 0.25)
    assert fl_transform(ETA, z) == pytest.approx(complex(want), rel=1e-14)


@pytest.mark.parametrize("spec", CATALOG)
def test_normalisation(spec):
    assert fl_transform(spec, 0.0) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("spec", CATALOG)
def test_transform_derivative_is_mean(spec):
    h = 1e-5
    mu1 = raw_moment(spec, 1)
    approx = (fl_transform(spec, h) - fl_transform(spec, -h)).real / (2 * h)
    assert abs(approx - mu1) <= 1e-6 * (1.0 + abs(mu1))


def test_sum_transform_is_product():
    z = 0.3 + 1.1j
    pair = IndependentSum(Normal(0.1, 0.5), FiniteDiscrete(((0.0, 0.25), (2.0, 0.75))))
    want = fl_transform(pair.left, z) * fl_transform(pair.right, z)
    assert fl_transform(pair, z) == pytest.approx(want, rel=1e-14)


def test_transform_refuses_nan_re_z():
    with pytest.raises(PreconditionError):
        fl_transform(FiniteDiscrete(((1.0, 1.0),)), float("nan") + 0j)


def test_remainder_transform_refuses_nan_re_z():
    with pytest.raises(PreconditionError):
        remainder_transform(FiniteDiscrete(((1.0, 1.0),)), complex(math.nan, 0.5), 1)
    with pytest.raises(PreconditionError):
        remainder_transform(ETA, complex(math.nan, 0.0), -1)


def test_python_built_trees_nest_at_most_64_levels():
    # the limit parse_spec enforces holds for trees built in Python too
    spec = PointMass(1.0)
    for _ in range(63):
        spec = Shift(spec, 0.01)
    with pytest.raises(PreconditionError, match="deeper than 64"):
        Shift(spec, 0.01)
    with pytest.raises(PreconditionError, match="deeper than 64"):
        IndependentSum(Normal(0.0, 1.0), spec)
    # the depth is no field: eq, hash, repr and fields() see the spec only
    pair = IndependentSum(Shift(PointMass(1.0), 0.5), Normal(0.0, 1.0))
    assert [f.name for f in fields(Shift)] == ["inner", "c"]
    assert [f.name for f in fields(IndependentSum)] == ["left", "right"]
    assert pair == IndependentSum(Shift(PointMass(1.0), 0.5), Normal(0.0, 1.0))
    assert hash(pair) == hash(IndependentSum(Shift(PointMass(1.0), 0.5), Normal(0.0, 1.0)))
    assert repr(pair) == ("IndependentSum(left=Shift(inner=PointMass(x=1.0), c=0.5), "
                          "right=Normal(mu=0.0, var=1.0))")


def test_raw_moment_examples():
    assert raw_moment(Normal(0.0, 1.0), 2) == pytest.approx(1.0)
    assert raw_moment(CenteredScaledPoisson(3.0, 0.5), 1) == 0.0
    # third central moment of a Poisson equals its rate; verified by a direct
    # weighted sum over counts <= 60
    lam, y = 2.0, 1.0
    direct = math.fsum(
        math.exp(-lam) * lam**j / math.factorial(j) * (y * (j - lam)) ** 3
        for j in range(61)
    )
    assert raw_moment(CenteredScaledPoisson(lam, y), 3) == pytest.approx(direct, rel=1e-12)
    assert direct == pytest.approx(2.0, rel=1e-12)


def _poisson_moments_per_order(lam, y, r):
    # the whole cumulant-to-moment recursion rerun for one order
    kappa = [0.0, 0.0] + [lam * y**n for n in range(2, r + 1)]
    mom = [1.0] + [0.0] * r
    for n in range(1, r + 1):
        mom[n] = math.fsum(math.comb(n - 1, i - 1) * kappa[i] * mom[n - i]
                           for i in range(1, n + 1))
    return mom[r]


def test_poisson_moments_extend_one_sequence_bit_for_bit():
    # one cached sequence per spec, grown to each order, gives the bits of
    # the recursion rerun per order; orders are asked out of turn, and the
    # shifted sums take their binomial sums over them
    for lam, y in ((100.0, 1.0), (0.25, 1.0), (3.0, 0.5), (1e-5, 1.0), (40.0, 2.5)):
        spec = CenteredScaledPoisson(lam, y)
        direct = [_poisson_moments_per_order(lam, y, r) for r in range(71)]
        for r in (7, 70, 0, 33, 69, 1):
            assert raw_moment(spec, r) == direct[r]
        assert [raw_moment(spec, r) for r in range(71)] == direct, (lam, y)
        normal = [raw_moment(Normal(0.0, 0.5), r) for r in range(71)]
        summed = Shift(IndependentSum(Normal(0.0, 0.5), spec), -0.3)
        for r in range(71):
            want = math.fsum(
                math.comb(r, i) * (-0.3) ** (r - i) * math.fsum(
                    math.comb(i, j) * normal[j] * direct[i - j] for j in range(i + 1))
                for i in range(r + 1))
            assert raw_moment(summed, r) == want, (lam, y, r)


def _generator_moments(spec, r, lists):
    """The moment recursion as a generator over math.comb summed by
    math.fsum, one list per node in ``lists`` extended in place: the
    reference that distributions._moments' numpy rows must match."""
    mom = lists.setdefault(spec, [1.0])
    n0 = len(mom)
    if n0 > r:
        return mom
    if isinstance(spec, PointMass):
        mom += [float(spec.x**n) for n in range(n0, r + 1)]
    elif isinstance(spec, FiniteDiscrete):
        mom += [math.fsum(w * x**n for x, w in spec.atoms) for n in range(n0, r + 1)]
    elif isinstance(spec, Normal):
        if n0 == 1:
            mom.append(spec.mu)
        for n in range(len(mom), r + 1):
            mom.append(spec.mu * mom[n - 1] + (n - 1) * spec.var * mom[n - 2])
    elif isinstance(spec, CenteredScaledPoisson):
        kappa = [0.0, 0.0] + [spec.lam * spec.y**n for n in range(2, r + 1)]
        for n in range(n0, r + 1):
            mom.append(math.fsum(math.comb(n - 1, i - 1) * kappa[i] * mom[n - i]
                                 for i in range(1, n + 1)))
    elif isinstance(spec, Shift):
        inner = _generator_moments(spec.inner, r, lists)
        for n in range(n0, r + 1):
            mom.append(math.fsum(math.comb(n, i) * spec.c ** (n - i) * inner[i]
                                 for i in range(n + 1)))
    else:
        left = _generator_moments(spec.left, r, lists)
        right = _generator_moments(spec.right, r, lists)
        for n in range(n0, r + 1):
            mom.append(math.fsum(math.comb(n, i) * left[i] * right[n - i]
                                 for i in range(n + 1)))
    return mom


_MOMENT_TREES = [
    PointMass(-1.7),
    FiniteDiscrete(((-0.7, 0.3), (0.4, 0.45), (2.2, 0.25))),
    Normal(0.4, 2.3),
    CenteredScaledPoisson(3.0, 0.5),
    CenteredScaledPoisson(1e-5, 1.0),
    CenteredScaledPoisson(100.0, 1.0),
    Shift(CenteredScaledPoisson(2.0, 1.5), -0.7),
    IndependentSum(Normal(-0.2, 0.3), FiniteDiscrete(((-1.0, 0.5), (2.0, 0.5)))),
    IndependentSum(CenteredScaledPoisson(40.0, 0.2), CenteredScaledPoisson(0.7, 1.0)),
    ETA,
    Shift(IndependentSum(Normal(0.0, 0.6), CenteredScaledPoisson(4.4, 0.3)), -0.5),
]


@pytest.mark.parametrize("spec", _MOMENT_TREES)
@pytest.mark.parametrize("first", [0, 13, 70])
def test_moments_match_the_generator_recursion_bit_for_bit(spec, first):
    # each order's terms are one numpy row with the generator's two products
    # in its order, still summed by math.fsum: the same doubles through
    # order 70, whether a list is filled at once or extended from order 13
    from pospart.distributions import _moment_list
    _moment_list.cache_clear()
    want = [m.hex() for m in _generator_moments(spec, 70, {})]
    raw_moment(spec, first)
    assert [raw_moment(spec, r).hex() for r in range(71)] == want


def test_moments_asked_at_once_fail_as_order_by_order():
    # X + Y with atoms at 9e153: the sum's order 2 overflows in math.fsum
    # before the atoms' order 3 leaves the float range; asking for order 5
    # at once reports the failure that reading order by order meets first
    from pospart.distributions import _moment_list, _series_coefs
    _moment_list.cache_clear()
    spec = IndependentSum(PointMass(9e153), PointMass(9e153))
    with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
        _series_coefs(spec, 5)


def test_normal_moments_match_gaussian_table():
    # E X^4 = mu^4 + 6 mu^2 var + 3 var^2
    mu, var = 0.7, 1.3
    want = mu**4 + 6 * mu**2 * var + 3 * var**2
    assert raw_moment(Normal(mu, var), 4) == pytest.approx(want, rel=1e-13)


def test_shift_and_sum_moments_by_binomial():
    spec = Shift(Normal(0.5, 2.0), -1.2)
    direct = raw_moment(Normal(0.5 - 1.2, 2.0), 3)
    assert raw_moment(spec, 3) == pytest.approx(direct, rel=1e-12)


def test_abs_moment_bound_is_exact_even_and_dominates_odd():
    spec = Normal(0.3, 1.0)
    assert abs_moment_bound(spec, 4) == raw_moment(spec, 4)
    # E|X|^3 <= sqrt(E X^6)
    n = 2_000_000
    draws = sample(spec, 11, n)
    emp = np.mean(np.abs(draws) ** 3)
    assert emp <= abs_moment_bound(spec, 3) * 1.01


@pytest.mark.parametrize("spec", CATALOG)
@pytest.mark.parametrize("j", [-1, 0, 1, 2])
def test_remainder_transform_recomposition(spec, j):
    z = 0.9 + 1.4j  # comfortably past the series switch for these scales
    lhs = remainder_transform(spec, z, j) + sum(
        z**r * raw_moment(spec, r) / math.factorial(r) for r in range(j + 1)
    )
    want = fl_transform(spec, z)
    assert abs(lhs - want) <= 1e-12 * abs(want)


def test_remainder_transform_examples():
    assert remainder_transform(PointMass(2.0), 0.5 + 0.1j, -1) == pytest.approx(
        complex(np.exp((0.5 + 0.1j) * 2)), rel=1e-14
    )
    assert remainder_transform(ETA, 0.0 + 0.0j, 1) == 0.0
    # E X = 0 makes the j=1 correction vanish for the standard normal
    t = 0.7
    got = remainder_transform(Normal(0.0, 1.0), 1j * t, 1)
    assert got == pytest.approx(math.exp(-t * t / 2) - 1.0, rel=1e-13)


def test_negative_part_moments_are_finite_for_catalog():
    # the left-tail condition implies E X_-^r < inf for r < p; all catalog
    # entries have every moment, checked through the even bounds
    for spec in CATALOG:
        assert math.isfinite(abs_moment_bound(spec, 5))


def test_sampler_point_mass_and_determinism():
    assert list(sample(PointMass(2.0), 1, 3)) == [2.0, 2.0, 2.0]
    a = sample(ETA, 123, 1000)
    b = sample(ETA, 123, 1000)
    assert np.array_equal(a, b)
    c = sample(ETA, 124, 1000)
    assert not np.array_equal(a, c)


def test_sampler_binomial_proportion():
    spec = FiniteDiscrete(((0.0, 0.5), (1.0, 0.5)))
    n = 100_000
    mean = sample(spec, 2, n).mean()
    assert abs(mean - 0.5) <= 5 * 0.5 / math.sqrt(n)


def test_sampler_fourth_moment_band():
    n = 1_000_000
    draws = sample(Normal(0.0, 1.0), 3, n)
    m4 = np.mean(draws**4)
    # var(X^4) = E X^8 - (E X^4)^2 = 105 - 9 = 96
    assert abs(m4 - 3.0) <= 5 * math.sqrt(96.0 / n)


def test_sampler_poisson_regimes():
    for lam in (0.3, 8.0, 30.0, 80.0, 5000.0):
        spec = CenteredScaledPoisson(lam, 1.0)
        n = 200_000
        draws = sample(spec, 17, n)
        sd = math.sqrt(lam)
        assert abs(draws.mean()) <= 5 * sd / math.sqrt(n)
        assert abs(draws.var() - lam) <= 6 * math.sqrt((lam + 3 * lam**2) / n) + 0.01 * lam


def test_discrete_sampler_dkw_band():
    spec = FiniteDiscrete(((-1.0, 0.2), (0.5, 0.5), (2.0, 0.3)))
    n = 200_000
    draws = np.sort(sample(spec, 9, n))
    # Dvoretzky-Kiefer-Wolfowitz at confidence 1e-6
    band = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * n))
    cdf = 0.0
    for x, w in spec.atoms:
        cdf += w
        emp = np.searchsorted(draws, x, side="right") / n
        assert abs(emp - cdf) <= band


def test_spec_validation():
    with pytest.raises(PreconditionError):
        FiniteDiscrete(((0.0, 0.3), (1.0, 0.6)))
    with pytest.raises(PreconditionError):
        Normal(0.0, 0.0)
    with pytest.raises(PreconditionError):
        CenteredScaledPoisson(-1.0, 1.0)


@pytest.mark.parametrize("build", [
    lambda: PointMass(math.nan),
    lambda: Normal(math.nan, 1.0),
    lambda: Normal(0.0, math.inf),
    lambda: CenteredScaledPoisson(math.inf, 1.0),
    lambda: CenteredScaledPoisson(1.0, math.nan),
    lambda: Shift(Normal(0.0, 1.0), math.nan),
    lambda: FiniteDiscrete(((math.inf, 0.5), (0.0, 0.5))),
], ids=["point-nan", "normal-mean-nan", "normal-var-inf", "poisson-rate-inf",
        "poisson-scale-nan", "shift-nan", "discrete-atom-inf"])
def test_constructors_reject_non_finite(build):
    with pytest.raises(PreconditionError):
        build()


def test_scale_fallbacks():
    assert scale(Normal(0.0, 4.0)) == pytest.approx(2.0)
    assert scale(PointMass(3.0)) == pytest.approx(3.0)
    assert scale(PointMass(0.0)) == 1.0
