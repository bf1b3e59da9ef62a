import math
from pathlib import Path

import numpy as np
import pytest

from pospart.distributions import FiniteDiscrete, Normal, PointMass, Shift
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
