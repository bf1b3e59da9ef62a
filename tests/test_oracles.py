import math
from pathlib import Path

import numpy as np
import pytest

from pospart.distributions import FiniteDiscrete, Normal, PointMass, Shift, sample
from pospart.errors import PreconditionError, SeriesGuard
from pospart.oracles import density_ppm, mc_ppm, mc_tail, naive_series_ppm
from pospart.tailbound import TailBoundProblem, eta_spec


def test_density_normal_first_moment():
    est = density_ppm(Normal(0.0, 1.0), 1.0)
    # closed form: E N_+ = phi(0)
    assert est.value == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-11)
    assert est.half_width <= 1e-9


def test_density_symmetry_and_far_shift():
    assert density_ppm(Normal(0.0, 1.0), 2.0).value == pytest.approx(0.5, abs=1e-10)
    assert density_ppm(Shift(Normal(0.0, 1.0), -10.0), 3.0).value <= 1e-15


@pytest.mark.parametrize("mu, sd, p", [
    (0.0, 1.0, 1.0), (0.4, 0.775, 2.5), (1.0, 1.0, 0.3), (2.0, 0.5, 1.7), (-1.0, 2.0, 0.5),
    (5.0, 1.0, 3.8), (0.0, 1.0, 0.01), (13.0, 1.0, 2.0), (0.0, 1e-3, 1.5),
])
def test_density_bar_contains_the_closed_form(mu, sd, p):
    # E (mu + sd Z)_+^p = sd^p phi(a) Gamma(p + 1) e^{a^2/4} D_{-p-1}(-a), a = mu / sd,
    # at 40 digits; the window's ends include x = 0 at small p and a window
    # that starts above 0
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a = mpmath.mpf(mu) / sd
        want = float(mpmath.mpf(sd) ** p * mpmath.npdf(a) * mpmath.gamma(p + 1)
                     * mpmath.exp(a * a / 4) * mpmath.pcfd(-p - 1, -a))
    est = density_ppm(Normal(mu, sd * sd), p)
    assert est.contains(want), (est, want)


def test_density_rejects_unsupported():
    with pytest.raises(PreconditionError):
        density_ppm(PointMass(1.0), 2.0)


def test_naive_series_gaussian_limit():
    problem = TailBoundProblem(1.0, 1.0, 1e-12)
    est = naive_series_ppm(problem, 0.0, 2)
    assert est.value == pytest.approx(0.5, rel=1e-9)


def test_naive_series_self_consistency():
    problem = TailBoundProblem(1.0, 1.0, 0.5)
    est = naive_series_ppm(problem, 0.0, 2)
    # widening the count window by 20 terms must not move the value
    wider = naive_series_ppm(problem, 0.0, 2, window_pad=20)
    assert abs(est.value - wider.value) < 1e-10
    assert est.half_width <= 1e-10 * max(est.value, 1.0) + 1e-12


@pytest.mark.parametrize("p", [2, 3])
def test_naive_series_bar_contains_the_mixture_sum_at_a_large_rate(p):
    # lam = 5000: Poisson weights from the pmf were 5.3e-13 off at p = 2,
    # outside the 3.0e-13 bar; as log ratios from the mode they are not.
    # The reference is the 40-digit sum of the Gaussian terms in closed form
    mpmath = pytest.importorskip("mpmath")
    problem, t = TailBoundProblem(1.0, 0.01, 0.5), 0.3
    est = naive_series_ppm(problem, t, p)
    with mpmath.workdps(40):
        lam, y, sd = mpmath.mpf(problem.lam), mpmath.mpf(problem.y), mpmath.sqrt(0.5)
        total = mpmath.mpf(0)
        for j in range(int(lam - 1000), int(lam + 1000)):
            w = mpmath.exp(j * mpmath.log(lam) - lam - mpmath.loggamma(j + 1))
            m = y * (j - lam) - t
            cdf, pdf = mpmath.ncdf(m / sd), mpmath.npdf(m / sd)
            i_prev, i_cur = cdf, m * cdf + sd * pdf
            for n in range(2, p + 1):
                i_prev, i_cur = i_cur, m * i_cur + (n - 1) * sd * sd * i_prev
            total += w * i_cur
        want = float(total)
    assert est.contains(want), (est, want)


def test_naive_series_guards():
    with pytest.raises(PreconditionError):
        naive_series_ppm(TailBoundProblem(1.0, 1.0, 0.5), 0.0, 5)
    with pytest.raises(SeriesGuard):
        naive_series_ppm(TailBoundProblem(1.0, 0.001, 0.5), 0.0, 2)


def test_mc_point_mass_exact():
    est = mc_ppm(PointMass(2.0), 3.0, 5000, 1)
    assert est.value == 8.0
    assert est.half_width == 0.0


def test_mc_normal_band_contains_density_value():
    est = mc_ppm(Normal(0.0, 1.0), 1.0, 10**6, 42)
    want = density_ppm(Normal(0.0, 1.0), 1.0).value
    assert est.contains(want)


def test_mc_discrete_band():
    spec = FiniteDiscrete(((-1.0, 0.5), (1.0, 0.5)))
    est = mc_ppm(spec, 5.0, 10**5, 9)
    assert est.contains(0.5)


def test_mc_tail_examples():
    assert mc_tail(PointMass(0.0), 1.0, 5000, 3).value == 0.0
    est = mc_tail(Normal(0.0, 1.0), 0.0, 10**6, 7)
    assert est.contains(0.5)


def test_mc_determinism_and_minimum_size():
    a = mc_ppm(Normal(0.0, 1.0), 2.0, 10**4, 5)
    b = mc_ppm(Normal(0.0, 1.0), 2.0, 10**4, 5)
    assert a.value == b.value
    with pytest.raises(PreconditionError):
        mc_ppm(Normal(0.0, 1.0), 2.0, 10, 5)


def test_oracles_do_not_import_the_pipeline():
    # validation only means something if the oracle stays independent
    import pospart.oracles as omod

    assert not hasattr(omod, "ppm_cf")
    assert not hasattr(omod, "ppm_laplace")
    assert not hasattr(omod, "integrate_halfline")
    source = Path(omod.__file__).read_text()
    assert "from .moments" not in source
    assert "from .quadrature" not in source


def test_eta_tail_band_is_below_pin():
    from pospart.tailbound import pin

    problem = TailBoundProblem(1.0, 1.0, 0.5)
    row = pin(problem, 2.0)
    est = mc_tail(eta_spec(problem, 0.0), 2.0, 10**5, 11)
    assert est.value <= row.pin + est.half_width


def test_mc_tail_on_a_sequence_shares_one_sample():
    spec = eta_spec(TailBoundProblem(1.0, 1.0, 0.5), 0.0)
    levels = [-1.0, 0.5, 2.0, 40.0]
    n = 10**4
    ests = mc_tail(spec, levels, n, 3)
    assert len(ests) == len(levels)
    draws = sample(spec, 3, n)
    for x, est in zip(levels, ests):
        assert est.value == mc_tail(spec, x, n, 3).value
        payload = (draws >= x).astype(float)
        assert est.value == float(payload.mean())
        want = 5.0 * float(payload.std(ddof=1)) / math.sqrt(n)
        assert abs(est.half_width - want) <= 1e-12 * want, (x, est.half_width, want)


def test_pin_check_draws_once_and_solves_once(monkeypatch):
    from pospart import oracles, tailbound, validate

    draws, solves = [], []
    real_sample, real_solve = oracles.sample, tailbound._solve
    monkeypatch.setattr(oracles, "sample", lambda *a: draws.append(1) or real_sample(*a))
    monkeypatch.setattr(tailbound, "_solve", lambda *a: solves.append(1) or real_solve(*a))
    check = validate._check_pin(False, 5)
    assert check.passed, check.detail
    assert len(draws) == 1 and len(solves) == 1, (draws, solves)
