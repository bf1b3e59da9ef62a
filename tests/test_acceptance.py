"""Acceptance gate: the criteria A1..A9, each a check of the full suite in
`pospart.validate` (which holds every grid and tolerance) run within a
wall-clock budget; test_a8_curve_probes states A8's budget in counts as
well.  `pytest tests/test_acceptance.py -v -s` prints one line per criterion.
"""

import time

from pospart import validate
from pospart.tailbound import TailBoundProblem, pin_curve


def _gate(tag, check, budget, seed=0):
    start = time.perf_counter()
    result = check(False, seed)
    elapsed = time.perf_counter() - start
    assert result.passed, result.detail
    assert elapsed < budget, f"{result.check_id} took {elapsed:.3f}s"
    print(f"[{tag}] PASS  {result.detail}  ({elapsed:.2f}s, budget {budget:.0f}s)")


def test_a1_point_mass_identity():
    _gate("A1", validate._check_point_mass, 10)


def test_a2_method_agreement():
    _gate("A2", validate._check_method_agreement, 60)


def test_a3_gaussian_oracle():
    _gate("A3", validate._check_gaussian, 5)


def test_a4_compound_oracle():
    _gate("A4", validate._check_compound, 120)


def test_a5_tail_integral_suite():
    _gate("A5", validate._check_tail_integrals, 30)


def test_a6_improper_convergence():
    _gate("A6", validate._check_improper, 60)


def test_a7_pin_bound_sanity():
    _gate("A7", validate._check_pin, 120, seed=1000)


def test_a8_curve_performance():
    pin_curve(TailBoundProblem(1.0, 1.0, 0.5), 0.0, 5.0, 11, rel_tol=1e-7)  # warm the route caches
    _gate("A8", validate._check_curve, 1)


def test_a8_curve_probes():
    # A8's budget in counts, which do not depend on the host: each level off
    # the far-left edge settles by its second engine pass, at a probe or one
    # Taylor step past it, and the curve evaluates at most 200 levels
    rows = pin_curve(TailBoundProblem(1.0, 1.0, 0.5), 0.0, 5.0, 101, rel_tol=1e-7, tol_x=1e-9)
    assert not any(r.is_failure() for r in rows)
    assert max(r.probes for r in rows) <= 2, [r.probes for r in rows]
    assert sum(r.probes for r in rows) <= 200, sum(r.probes for r in rows)


def test_a9_quadrature_closed_forms():
    _gate("A9", validate._check_quadrature, 20)
