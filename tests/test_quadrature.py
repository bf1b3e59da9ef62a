import hashlib
import heapq
import math

import numpy as np
import pytest

from corpus import build_corpus
from pospart.errors import BudgetExceeded, NonFiniteIntegrand, PreconditionError, UnmetBudget
from pospart.quadrature import (
    _NODES,
    _SPLIT_BATCH,
    _WEIGHTS_K,
    HeadRule,
    IntegrandProfile,
    _exact_parts,
    _place,
    _worst,
    gk15_reduce,
    integrate_halfline,
    partial_integrals,
)


# sha256 prefixes of the Kronrod values and error estimates, pinned from
# the one-scratch form that this plain form replaced
_GK15_DIGESTS = {(64, 15): "8aa9af6659c07d61", (840, 15): "45fe577a0f47ec5e"}


@pytest.mark.parametrize("shape", list(_GK15_DIGESTS))
def test_gk15_reduce_bits(shape):
    # the panel rows span 60 decades; row 3 is all zeros (resasc = 0) and
    # row 5 is odd about the midpoint (raw = 0 with resasc > 0)
    rng = np.random.default_rng(20)
    y = rng.standard_normal(shape) * 10.0 ** rng.uniform(-30.0, 30.0, shape[0])[:, None]
    y[3, :] = 0.0
    y[5, :] = 2.0 * _NODES**3
    half = 10.0 ** rng.uniform(-3.0, 1.0, shape[0])
    k, err = gk15_reduce(y, half)
    assert k[3] == 0.0 and err[3] == 0.0 and k[5] == 0.0
    # a zero gap leaves the rounding floor 50 eps resabs
    assert err[5] == 50.0 * np.finfo(float).eps * (half[5] * (np.abs(y[5]) @ _WEIGHTS_K))
    assert hashlib.sha256(k.tobytes() + err.tobytes()).hexdigest()[:16] == _GK15_DIGESTS[shape]


def test_exponential_example():
    prof = IntegrandProfile(0.0, lambda T: math.exp(-T))
    r = integrate_halfline(lambda t: np.exp(-t), prof, 1e-10)
    assert abs(r.value - 1.0) <= 1e-10
    assert abs(r.value - 1.0) <= r.total_error


def test_inverse_sqrt_example():
    prof = IntegrandProfile(
        -0.5, lambda T: 0.0 if T >= 1.0 else 2.0 * (1.0 - math.sqrt(T))
    )
    f = lambda t: np.where(t <= 1.0, 1.0 / np.sqrt(np.maximum(t, 1e-300)), 0.0)
    r = integrate_halfline(f, prof, 1e-10)
    assert abs(r.value - 2.0) <= 1e-9


def test_oscillatory_fresnel_example():
    # closed form sqrt(2 pi); cross-checked against a 250k-point trapezoid
    # oracle on (1e-8, 1e4), which is only good to ~1e-4 itself
    def cf(T):
        return (math.cos(T) * T**-1.5 + 1.5 * math.sin(T) * T**-2.5
                - 15.0 / 4.0 * math.cos(T) * T**-3.5)

    prof = IntegrandProfile(
        -0.5, lambda T: (105.0 / 8.0) * (2.0 / 7.0) * T**-3.5,
        tail_closed_form=cf, max_panel_width=2 * math.pi,
    )
    f = lambda t: np.sin(t) * np.maximum(t, 1e-300) ** -1.5
    r = integrate_halfline(f, prof, 1e-10)
    want = math.sqrt(2.0 * math.pi)
    assert abs(r.value - want) <= 1e-8

    # 250k-subdivision trapezoid oracle on (1e-8, 1e4); the grid is graded
    # near 0 because a uniform one cannot see the t^-1/2 endpoint at all
    grid = np.concatenate([
        np.geomspace(1e-8, 1.0, 50_001), np.linspace(1.0, 1e4, 200_001)[1:]
    ])
    oracle = np.trapezoid(f(grid), grid)
    assert abs(oracle - want) <= 1e-3
    assert abs(r.value - oracle) <= 2e-3


def test_head_rule_replaces_the_origin_segment():
    # integrand t^-0.5 e^-t with an exact analytic head on (0, c)
    c = 1e-3
    # int_0^c t^-1/2 e^-t = sum_k (-1)^k c^(k+1/2) / (k! (k+1/2))
    head_val = math.fsum(
        (-1.0) ** k * c ** (k + 0.5) / (math.factorial(k) * (k + 0.5)) for k in range(12)
    )
    prof = IntegrandProfile(
        -0.5, lambda T: math.exp(-T) / math.sqrt(max(T, 1e-30)),
        head=HeadRule(cutoff=c, value=head_val, bound=1e-16),
    )
    r = integrate_halfline(lambda t: np.exp(-t) / np.sqrt(t), prof, 1e-11)
    assert abs(r.value - math.sqrt(math.pi)) <= 1e-10


def test_partial_integrals_exponential():
    prof = IntegrandProfile(0.0, lambda T: math.exp(-T))
    pairs = partial_integrals(lambda t: np.exp(-t), prof, [1.0, 0.1, 0.01], 1e-10)
    assert [v for v, _ in pairs] == [1.0, 0.1, 0.01]
    for v, val in pairs:
        assert val == pytest.approx(math.exp(-v), rel=1e-9)


def test_partial_integrals_monotone_for_constant_sign():
    prof = IntegrandProfile(0.0, lambda T: 1.0 / T)
    pairs = partial_integrals(
        lambda t: 1.0 / (1.0 + t * t), prof, [2.0, 1.0, 0.5, 0.1, 0.01], 1e-9
    )
    vals = [val for _, val in pairs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_partial_integrals_validation():
    prof = IntegrandProfile(0.0, lambda T: math.exp(-T))
    with pytest.raises(PreconditionError):
        partial_integrals(lambda t: np.exp(-t), prof, [0.1, 0.5], 1e-9)
    with pytest.raises(PreconditionError):
        partial_integrals(lambda t: np.exp(-t), prof, [1.0, 1e-12], 1e-9)


def test_corpus_within_reported_error():
    hits = 0
    ratios = []
    for entry in build_corpus():
        r = integrate_halfline(entry.f, entry.profile, entry.rel_tol)
        achieved = abs(r.value - entry.exact)
        assert achieved <= r.total_error, (entry.name, achieved, r.total_error)
        ratios.append((entry.name, r.total_error / max(achieved, 1e-300)))
        if r.total_error <= 100.0 * achieved:
            hits += 1
    assert hits >= 18, ratios


def test_determinism_bit_identical():
    for entry in build_corpus()[:6]:
        a = integrate_halfline(entry.f, entry.profile, entry.rel_tol)
        b = integrate_halfline(entry.f, entry.profile, entry.rel_tol)
        assert a.value == b.value
        assert a.err_est == b.err_est
        assert a.evaluations == b.evaluations


def test_monotone_budget():
    for entry in build_corpus():
        coarse = integrate_halfline(entry.f, entry.profile, 1e-6)
        fine = integrate_halfline(entry.f, entry.profile, 5e-7)
        assert fine.evaluations >= coarse.evaluations, entry.name


def test_rel_tol_domain():
    prof = IntegrandProfile(0.0, lambda T: math.exp(-T))
    with pytest.raises(PreconditionError):
        integrate_halfline(lambda t: np.exp(-t), prof, 1e-1)
    with pytest.raises(PreconditionError):
        integrate_halfline(lambda t: np.exp(-t), prof, 1e-14)


def test_non_finite_integrand_reported():
    prof = IntegrandProfile(0.0, lambda T: math.exp(-T))

    def bad(t):
        return np.where(np.abs(t - 1.3) < 0.3, np.nan, np.exp(-t))

    with pytest.raises(NonFiniteIntegrand):
        integrate_halfline(bad, prof, 1e-9)


def test_budget_exceeded_carries_partial():
    # an envelope that never certifies forces growth until the cap
    prof = IntegrandProfile(0.0, lambda T: 1.0, max_panel_width=0.5)
    with pytest.raises(BudgetExceeded) as err:
        integrate_halfline(lambda t: 1.0 / (1.0 + t * t), prof, 1e-9, max_evals=20000)
    partial = err.value.partial
    assert partial.evaluations <= 20000
    assert partial.value == pytest.approx(math.pi / 2, rel=0.1)
    assert abs(partial.value - math.pi / 2) <= partial.total_error


def test_budget_exceeded_before_the_first_batch():
    # a cap the first batch would pass: no panel is evaluated, so the
    # partial has no value for them and its bar must still cover the integral
    entry = next(e for e in build_corpus() if e.name == "rsqrt_box")
    with pytest.raises(BudgetExceeded) as err:
        integrate_halfline(entry.f, entry.profile, 1e-9, max_evals=300)
    partial = err.value.partial
    assert partial.evaluations == 0
    assert partial.total_error >= abs(partial.value - entry.exact)


def test_error_split_reserve():
    # reported truncation share stays within a quarter-ish of the budget
    prof = IntegrandProfile(0.0, lambda T: 1.0 / T)
    r = integrate_halfline(lambda t: 1.0 / (1.0 + t * t), prof, 1e-8)
    budget = 1e-8 * abs(r.value)
    assert r.tail_bound <= 0.26 * budget
    assert r.err_est <= 0.51 * budget


def test_partial_integrals_tail_integrand_rate():
    # the canonical tail integrand at order one half: the convergents to the
    # full integral shrink like v^(1/2), within a factor of ten
    from pospart.distributions import PointMass
    from pospart.moments import MomentOrder, _transform_kernel

    mo = MomentOrder.from_p(0.5)
    kern = _transform_kernel(PointMass(-1.0), mo, 0.0, mo.ell, "rate")
    vs = [1.0, 0.1, 0.01, 0.001]
    pairs = partial_integrals(kern.f, kern.profile, vs, 1e-10, abs_tol=1e-12)
    scaled = [val / math.sqrt(v) for v, val in pairs]
    assert max(scaled) <= 10.0 * min(scaled)
    # fine-grid trapezoid oracle over one slice
    grid = np.geomspace(0.01, 40.0, 400_001)
    oracle = np.trapezoid(kern.f(grid), grid)
    tail = pairs[2][1] - 0.0  # integral from 0.01
    # the oracle misses (40, inf), bounded by the profile's own envelope
    assert abs(tail - oracle) <= kern.profile.tail_envelope(40.0) + abs(
        kern.profile.tail_closed_form(40.0)) + 1e-6


# -- refinement: the round cap and bit-identical panel selection ------------


def _many_jumps(seed=7, count=1000, end=50.0):
    """A seeded step function on (0, end) with ``count`` jumps: each jump
    needs ~45 bisections at rel_tol 1e-10, far more than 500 rounds of 64."""
    rng = np.random.default_rng(seed)
    jumps = np.sort(rng.uniform(0.0, end, count))
    heights = rng.uniform(-1.0, 1.0, count + 1)
    f = lambda t: np.where(t < end, heights[np.searchsorted(jumps, t)], 0.0)
    return f, IntegrandProfile(0.0, lambda T: max(end - T, 0.0), max_panel_width=1.0)


def test_refine_cap_is_reported():
    # the round cap stops refinement over budget: UnmetBudget carries the
    # partial result
    f, prof = _many_jumps()
    with pytest.raises(UnmetBudget, match=r"integral \(960375 evaluations\)") as err:
        integrate_halfline(f, prof, 1e-10)
    capped = err.value.partial
    assert capped.evaluations == 960_375  # 25 growth panels, 500 rounds of 64 split ones
    assert capped.err_est > 1e-10 * abs(capped.value)
    assert err.value.bar == capped.total_error and err.value.budget == 1e-10 * abs(capped.value)
    smooth = integrate_halfline(lambda t: np.exp(-t),
                                IntegrandProfile(0.0, lambda T: math.exp(-T)), 1e-10)
    assert smooth.total_error <= 1e-10 * smooth.value
    # a partial_integrals slice ends the same way, against the budget of the
    # convergent it completes
    with pytest.raises(UnmetBudget) as err:
        partial_integrals(f, prof, [50.0, 1.0], 1e-10)
    part = err.value.partial
    assert part.truncation_T == 50.0 and part.panels_used > 30_000
    assert err.value.bar == part.err_est > err.value.budget


def test_worst_panels_follow_nlargest_order():
    # ties go to the lower index and at most _SPLIT_BATCH panels are taken,
    # exactly as heapq.nlargest picks them
    rng = np.random.default_rng(3)
    for n in (1, 5, 64, 65, 200, 3000):
        err = rng.integers(0, 6, n).astype(float) * 0.125
        cand = np.flatnonzero(err > 0.125)
        want = heapq.nlargest(_SPLIT_BATCH, cand.tolist(), key=lambda i: err[i])
        assert _worst(err, cand).tolist() == want


def test_exact_parts_track_fsum_of_a_changing_set():
    # the running totals of refinement: add some values, remove others, and
    # the first part must stay fsum of what is left, bit for bit
    rng = np.random.default_rng(5)
    live, parts = [], [0.0]
    for _ in range(300):
        add = (rng.standard_normal(8) * 10.0 ** rng.integers(-20, 20, 8)).tolist()
        drop, live = live[:5], live[5:] + add
        parts = _exact_parts(parts + add + [-x for x in drop])
        assert parts[0] == math.fsum(live)


def _bits(r):
    return r.value.hex(), r.err_est.hex(), r.panels_used, r.evaluations


def test_refine_heavy_moment_bits():
    # golden values: refinement has to pick, split and sum the panels in the
    # same order as the list-of-panels integrator it replaced
    from pospart.distributions import CenteredScaledPoisson, _fl_vec, freq_scale
    from pospart.moments import (_HEAD_FRACTION, MomentOrder, _abs_tol, _head_rule, _profile,
                                 _transform_kernel, match_discrete, ppm_cf)
    from pospart.remainders import inv_power
    from pospart.specparse import parse_spec

    law = parse_spec("sum(discrete(-1:0.5,2:0.5), cpoisson(0.5,1))")
    assert _bits(ppm_cf(law, 2.5).quadrature) == (
        "0x1.b07477745b4dfp+1", "0x1.21a9725e3414ap-43", 58, 870)
    # Re[(E e^{itX} - E e^{itY}) / (it)^5] against the moment-matched
    # companion: the difference of two O(1) transforms just above the head
    # cutoff is rounding noise, so refinement runs into its round cap
    spec = CenteredScaledPoisson(3.0, 0.5)
    other = match_discrete(spec, 4.0)
    mo = MomentOrder.from_p(4.0)
    kern = _transform_kernel(spec, mo, 0.0, mo.ell, "diff", other=other)
    freq = max(freq_scale(spec), freq_scale(other))
    # the head cutoff from freq_scale, the one the pinned bits were taken with
    parts = [(1.0, spec), (-1.0, other)]
    prof = _profile(parts, 4.0, 0.0, [], freq, _head_rule(parts, mo, _HEAD_FRACTION / freq), 0.0)

    def f(t):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
            return np.real((_fl_vec(spec, 1j * t) - _fl_vec(other, 1j * t))
                           * inv_power(0.0, t, 5.0))

    with pytest.raises(UnmetBudget) as err:
        integrate_halfline(f, prof, 1e-9, abs_tol=_abs_tol(kern, spec, 4.0, 1e-9))
    assert _bits(err.value.partial) == (
        "0x1.7e7725a21b5c0p-12", "0x1.d8365041807cfp-34", 31812, 953400)


def test_partial_integrals_bits():
    from pospart.distributions import PointMass
    from pospart.moments import MomentOrder, _transform_kernel

    mo = MomentOrder.from_p(0.5)
    kern = _transform_kernel(PointMass(-1.0), mo, 0.0, mo.ell, "bits")
    pairs = partial_integrals(kern.f, kern.profile, [1.0, 0.1, 0.01, 0.001], 1e-10,
                              abs_tol=1e-12)
    assert [val.hex() for _, val in pairs] == [
        "0x1.24121087cf7e9p+0", "0x1.c22a15cdfbe9ep-2",
        "0x1.2125b28b98218p-3", "0x1.6e4bdab013158p-5"]


def test_tied_panel_errors_bits():
    # a jump of height +1 or -1 at the same offset in each of 100 unit
    # panels: all 100 panel errors tie exactly, the first round splits the
    # 64 leftmost, and the value shows which side the ties went to
    f = lambda t: np.where(t < 100.0, np.where(t < 70.0, 1.0, -1.0) * (t % 1.0 < 0.3), 0.0)
    prof = IntegrandProfile(0.0, lambda T: max(100.0 - T, 0.0),
                            oscillation_scale=2.0, max_panel_width=1.0)
    r = integrate_halfline(f, prof, 1e-10)
    assert _bits(r) == ("0x1.8000000000c8cp+3", "0x1.389c21d5186abp-31", 3684, 109020)


def test_one_batch_per_growth_pass(monkeypatch):
    # the kernel is called once per batch: one for the first growth pass,
    # one per refinement round, and at most one more for a second pass; the
    # first batch of a generic integral (abs_tol = 0) stops at the
    # oscillation scale, so it may take one more before refinement
    import pospart.quadrature as quadrature
    from pospart import moments
    from pospart.distributions import FiniteDiscrete, Normal, PointMass
    from pospart.validate import QUADRATURE_CASES

    counts = []
    refining = [False]
    refine = quadrature._refine

    def counted_refine(*args):
        refining[0] = True
        try:
            return refine(*args)
        finally:
            refining[0] = False

    def counted(f, profile, *args, **kwargs):
        calls = {"grow": 0, "rounds": 0}
        counts.append(calls)

        def g(t):
            calls["rounds" if refining[0] else "grow"] += 1
            return f(t)

        return integrate_halfline(g, profile, *args, **kwargs)

    monkeypatch.setattr(quadrature, "_refine", counted_refine)
    monkeypatch.setattr(moments, "integrate_halfline", counted)
    moments.ppm_cf(PointMass(1.3), 2.5)
    moments.ppm_cf(Normal(0.0, 1.0), 2.0)
    moments.ppm_laplace(FiniteDiscrete(((-1.0, 0.5), (2.0, 0.5))), 2.5, 1.0)
    assert len(counts) == 3 and all(c["grow"] <= 2 for c in counts), counts
    f, prof, _ = next((f, p, e) for name, f, p, e in QUADRATURE_CASES if name == "rsqrt_box")
    counted(f, prof, 1e-9)
    assert counts[-1]["grow"] <= 2, counts


def test_placement_bisects_the_ladder():
    # on a ladder of 1,000 unit panels of e^{-u/100} with its exact tail as
    # envelope, placed before any of them is evaluated against the value
    # they add: the envelope first fits its share near T = 600-880, found by
    # an exponential search, a binary search and a 24-step bisection, at
    # most 2 log2(panels) + 26 tail-model calls, and the last panel ends there
    body = 100.0 * -math.expm1(-10.0)
    for rel_tol, head_value in ((1e-3, 0.0), (1e-2, 0.5), (1e-3, -37.0), (1e-12, 0.0)):
        calls = []

        def envelope(T):
            calls.append(T)
            return 100.0 * math.exp(-T / 100.0)

        prof = IntegrandProfile(0.0, envelope, max_panel_width=1.0)
        share = 0.25 * rel_tol * abs(head_value + body)
        ends, width, placed = _place(prof, 0.0, 1.0, 1000, lambda T: share)
        assert len(calls) <= 24 + 2 + 2 * math.log2(1000), (rel_tol, len(calls))
        T = ends[-1]
        assert ends[:-1] == [float(k) for k in range(len(ends) - 1)] and width == 1.0
        if rel_tol == 1e-12:
            # the envelope fits nowhere below T = 1000: the whole ladder,
            # uncut, whether it ends at the affordable panels or at ``last``
            assert ends == [float(k) for k in range(1001)] and not placed
            assert _place(prof, 0.0, 1.0, 10**6, lambda T: share, 1000.0) == (ends, width, False)
            continue
        assert placed and 500.0 < T < 900.0 and T != math.floor(T)
        assert envelope(T) <= share < envelope(T - 2.0**-24)
