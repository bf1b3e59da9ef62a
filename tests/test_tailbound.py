import math

import numpy as np
import pytest

from mixture import mixture_ppm23, mixture_ppm23_mp
from pospart import moments, tailbound
from pospart.distributions import raw_moment
from pospart.errors import (
    BracketFailure,
    BudgetExceeded,
    DegenerateMoment,
    PreconditionError,
    UnmetBudget,
)
from pospart.moments import ppm_cf, ppm_laplace
from pospart.oracles import density_ppm, naive_series_ppm
from pospart.tailbound import (
    TailBoundProblem,
    _eta_moments,
    eta_spec,
    m_of_t,
    pin,
    pin_curve,
    solve_tx,
)

P_UNIT = TailBoundProblem(1.0, 1.0, 0.5)
EPS = float(np.finfo(float).eps)


def test_problem_validation():
    with pytest.raises(PreconditionError):
        TailBoundProblem(0.0, 1.0, 0.5)
    with pytest.raises(PreconditionError):
        TailBoundProblem(1.0, 1.0, 1.5)
    with pytest.raises(PreconditionError):
        TailBoundProblem(1.0, -1.0, 0.5)
    with pytest.raises(PreconditionError):
        TailBoundProblem(math.inf, 1.0, 0.5)
    # sigma^2 or lam = eps sigma^2 / y^2 past the float range: lam used to
    # raise ZeroDivisionError (y = 1e-300) or OverflowError (y = 1e300), or
    # overflow to a rate the Poisson spec rejected (y = 1e-160)
    for sigma, y in ((1.0, 1e-300), (1.0, 1e300), (1.0, 1e-160), (1e200, 1.0), (1e-200, 1.0)):
        with pytest.raises(PreconditionError, match=r"y = .* and sigma = "):
            TailBoundProblem(sigma, y, 0.5)
    # the range the pipeline is meant for stays open, with lam's formula
    for y in (1e-4, 1e2):
        assert TailBoundProblem(1.0, y, 0.5).lam == 0.5 * 1.0**2 / y**2


def test_eta_transform_and_variance():
    spec = eta_spec(P_UNIT, 0.7)
    # matches exp{-st + s^2(1-eps)sigma^2/2 + (e^{sy}-1-sy) eps sigma^2/y^2}
    for s in (0.3, 1.0, -0.8):
        from pospart.distributions import fl_transform

        want = math.exp(-s * 0.7 + s * s * 0.25 + (math.exp(s) - 1 - s) * 0.5)
        assert fl_transform(spec, s).real == pytest.approx(want, rel=1e-13)
    assert fl_transform(eta_spec(P_UNIT, 0.0), 0.0) == pytest.approx(1.0)
    for t in (-2.0, 0.0, 3.0):
        spec = eta_spec(P_UNIT, t)
        var = raw_moment(spec, 2) - raw_moment(spec, 1) ** 2
        assert var == pytest.approx(P_UNIT.sigma**2, rel=1e-12)


def test_m_exceeds_t_and_matches_gaussian_limit():
    # eps -> 0: m(0) approaches the pure normal ratio E N_+^3 / E N_+^2
    small = TailBoundProblem(1.0, 1.0, 1e-9)
    got = m_of_t(small, 0.0)
    num = density_ppm(__import__("pospart").Normal(0.0, 1.0), 3.0).value
    den = density_ppm(__import__("pospart").Normal(0.0, 1.0), 2.0).value
    assert got == pytest.approx(num / den, rel=1e-6)
    for t in (-5.0, -1.0, 0.0, 2.0):
        assert m_of_t(P_UNIT, t) > t


def test_m_matches_naive_series():
    problem = TailBoundProblem(1.0, 0.1, 0.2)
    t = 1.0
    mu2 = naive_series_ppm(problem, t, 2)
    mu3 = naive_series_ppm(problem, t, 3)
    want = t + mu3.value / mu2.value
    assert m_of_t(problem, t) == pytest.approx(want, rel=1e-6)


def test_m_cross_method():
    # Laplace and characteristic-function moments agree at random draws and
    # at small y, where the naive series oracle is excluded
    rng = np.random.default_rng(3)
    cases = [
        (TailBoundProblem(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.3, 1.5)),
                          float(rng.uniform(0.1, 0.9))), float(rng.uniform(-2.0, 2.0)))
        for _ in range(10)
    ]
    cases += [(TailBoundProblem(1.0, 0.01, 0.5), t) for t in (-1.0, 0.0, 1.0)]
    for problem, t in cases:
        spec = eta_spec(problem, t)
        for p in (2.0, 3.0):
            a = ppm_laplace(spec, p, min(1.0 / problem.y, 2.0 / problem.sigma), -1, 1e-10)
            b = ppm_cf(spec, p, 1e-10)
            gap = abs(a.value - b.value)
            assert gap <= a.reported_error + b.reported_error + 1e-14
            assert gap <= 1e-7 * abs(a.value), (problem, t, p)


def test_solve_residuals_on_grid():
    for x in (0.0, 1.0, 2.0, 4.0):
        t = solve_tx(P_UNIT, x, tol_x=1e-9)
        assert abs(m_of_t(P_UNIT, t, 5e-11) - x) <= 1.1e-9


def test_solve_monotone_roots():
    # an array of levels is solved together
    roots = solve_tx(P_UNIT, [0.5, 1.0, 1.5, 2.0, 3.0], tol_x=1e-9)
    assert all(a <= b + 1e-9 for a, b in zip(roots, roots[1:]))
    assert roots[1] == pytest.approx(solve_tx(P_UNIT, 1.0, tol_x=1e-9), abs=1e-8)


def test_solver_tolerance_domain():
    with pytest.raises(PreconditionError):
        solve_tx(P_UNIT, 1.0, tol_x=1e-2)
    with pytest.raises(PreconditionError):
        solve_tx(P_UNIT, 1.0, tol_x=1e-13)
    # rel_tol takes the range the moment routes enforce
    for rel_tol in (math.nan, math.inf, -1.0, 0.0, 1e-14, 0.05):
        with pytest.raises(PreconditionError, match="rel_tol"):
            solve_tx(P_UNIT, 1.0, rel_tol=rel_tol)
        with pytest.raises(PreconditionError, match="rel_tol"):
            pin(P_UNIT, 1.0, rel_tol=rel_tol)
        with pytest.raises(PreconditionError, match="rel_tol"):
            pin_curve(P_UNIT, 0.0, 1.0, 3, rel_tol=rel_tol)
        # m_of_t checks it on every branch: -100 lies below the far-left
        # edge, whose closed form returned 0.02005 whatever rel_tol was
        for t in (-100.0, 0.0):
            with pytest.raises(PreconditionError, match="rel_tol"):
                m_of_t(P_UNIT, t, rel_tol=rel_tol)


def test_m_rejects_non_finite_level():
    # -inf used to fall into the far-left closed form and return NaN
    for t in (-math.inf, math.inf, math.nan):
        with pytest.raises(PreconditionError, match="level t must be finite"):
            m_of_t(P_UNIT, t)


def test_line_rungs():
    # the line is the saddle point of log E e^{s(eta - t)} - 3 log s rounded
    # down to a power of 2, so levels share rungs: within a factor 2 below the
    # root of kappa'(s) = t + 3 / s that 100 bisection steps find, up to the
    # line's own bisection's 2^(1/32).  Far left (t below -10 (E eta^4)^(1/4))
    # s ~ 3 / |t|
    rng = np.random.default_rng(5)
    for _ in range(200):
        problem = TailBoundProblem(math.exp(rng.uniform(-3.0, 3.0)),
                                   math.exp(rng.uniform(-6.0, 6.0)), rng.uniform(0.01, 0.99))
        sigma, y, lam = problem.sigma, problem.y, problem.lam
        a = (1.0 - problem.eps) * sigma**2
        edge = tailbound._far_left_edge(problem)
        t = np.concatenate([edge * rng.uniform(0.0, 1.0, 20), sigma * rng.uniform(0.0, 40.0, 20)])
        s = tailbound._line(problem, t)
        k = np.log2(s)
        assert np.all(k == np.round(k))
        for level, line in zip(t, s):
            def slope(v):
                return a * v + lam * y * math.expm1(v * y) - level - 3.0 / v
            hi = 1.0
            while slope(hi) < 0.0:
                hi *= 2.0
            lo = hi / 2.0
            while slope(lo) > 0.0:
                lo /= 2.0
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if slope(mid) < 0.0 else (lo, mid)
            root = 0.5 * (lo + hi)
            assert -1.0 - 1.0 / 32.0 <= math.log2(line / root) <= 1.0 / 32.0, \
                (problem, level, line, root)
        far = t < -10.0 * raw_moment(tailbound._eta(problem), 4) ** 0.25
        assert np.all((-s[far] * t[far] > 1.0) & (-s[far] * t[far] <= 3.0))
        assert float(tailbound._line(problem, float(t[0]))) == s[0]


def test_trapezoid_alias_identity():
    # by Poisson summation the trapezoidal sum with step h on the line s is
    # sum_k e^{skL} G_p(t + kL), L = 2 pi / h: at a coarse h on s = 4 s*
    # (s* = min(1/y, 2/sigma)) the right aliases outweigh G_p itself by up to
    # 1e14, so a rule that bounded only the left aliases would be that far
    # off.  T_h - G_p is the alias sum built from the mixture sums (in
    # mpmath: the right aliases sit far in the tail) within the rule's
    # rounding term, and each side's alias bound holds
    problem = TailBoundProblem(1.0, 0.05, 0.01)
    var, lam, y = 0.99, problem.lam, problem.y
    line = 4.0 * min(1.0 / y, 2.0 / problem.sigma)
    ts = np.array([-1.0, 0.7, 2.0])
    a_t = raw_moment(tailbound._eta(problem), 4) ** 0.25 + np.maximum(-ts, 0.0)
    worst = 0.0
    for width in (5.0, 8.0):
        step = 2.0 * math.pi / width
        total, absolute, moment, plain = tailbound._trapezoid(
            problem, ts, np.array([line]), np.zeros(ts.size, dtype=int), np.array([step]),
            np.array([400.0]))
        scale = (tailbound._PREF * step * line ** -np.array([[2.0], [3.0], [4.0]])
                 * np.exp(tailbound._log_transform_at(problem, ts, line)))
        rounding = tailbound._EPS * scale * (absolute + np.abs(ts) * moment
                                              + np.abs(line * ts) * plain)
        for i, t in enumerate(ts):
            g = {k: np.array(mixture_ppm23_mp(var, lam, y, -t - k * width)) for k in range(-4, 7)}
            right = sum(math.exp(line * k * width) * g[k] for k in range(1, 7))
            left = sum(math.exp(line * k * width) * g[k] for k in range(-4, 0))
            for p in (2, 3):
                value = scale[p - 1, i] * total[p - 1, i]
                miss = abs(value - g[0][p - 2] - right[p - 2] - left[p - 2])
                assert miss <= rounding[p - 1, i], (width, t, p, miss, rounding[p - 1, i])
                worst = max(worst, right[p - 2] / g[0][p - 2])
                assert left[p - 2] <= math.exp(tailbound._left_alias(p, a_t[i], line, width))
                r = 1.5 * line
                bound = math.exp(tailbound._right_alias(problem, p, t, r))
                assert right[p - 2] <= bound / math.expm1((r - line) * width)
    assert worst > 1e12, worst


def test_engine_blocks_keep_values(monkeypatch):
    # node chunks and level blocks of any size give the same moments to
    # rounding: levels on several rungs with different node counts, the
    # rungs' chunks running out at different places
    problem = TailBoundProblem(1.0, 5.0, 0.9)
    ts = np.array([-20.0, -8.0, -3.0, 0.0, 0.4, 2.0, 3.5, 5.0])
    cut = 1e-9 * (1.0 + np.maximum(1.0, np.abs(ts)) ** np.array([[1.0], [2.0], [3.0]]))
    want, bar = tailbound._moments23(problem, ts, cut)
    assert np.unique(tailbound._line(problem, ts)).size >= 3
    for cells in (7, 64, 1000):
        monkeypatch.setattr(tailbound, "_CELLS", cells)
        got, got_bar = tailbound._moments23(problem, ts, cut)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want) + 1e-3 * bar), cells
        assert np.allclose(got_bar, bar, rtol=1e-6, atol=0.0), cells


def test_node_cap_holds_for_a_shared_rung(monkeypatch):
    # t = -1.25 and -1.0 share a rung, which runs the smaller step of one to
    # the farther end of the other: more nodes than either level alone.
    # With the cap between the two counts, each level alone fits and the
    # pair ends in BudgetExceeded
    ts = [-1.25, -1.0]
    nodes, real = [], tailbound._trapezoid
    monkeypatch.setattr(tailbound, "_trapezoid",
                        lambda *a: nodes.append(a[5].tolist()) or real(*a))
    for t in ts:
        _eta_moments(P_UNIT, [t], 1e-9)
    _eta_moments(P_UNIT, ts, 1e-9)
    (one,), (two,), (both,) = nodes
    assert both > max(one, two)
    monkeypatch.setattr(tailbound, "_MAX_NODES", max(one, two))
    for t in ts:
        assert _eta_moments(P_UNIT, [t], 1e-9).failure == [None]
    ev = _eta_moments(P_UNIT, ts, 1e-9)
    assert all(isinstance(f, BudgetExceeded) for f in ev.failure)
    assert np.isnan(ev.mu).all()


def test_log_transform_on_the_line_stays_small():
    # the bound in _line (about 8.9) is why the line route needs no guard
    # against an overflowing transform
    rng = np.random.default_rng(4)
    for _ in range(3000):
        sigma = math.exp(rng.uniform(-5.0, 5.0))
        problem = TailBoundProblem(sigma, math.exp(rng.uniform(-8.0, 8.0)),
                                   rng.uniform(1e-9, 1.0))
        if rng.random() < 0.5:
            t = -math.exp(rng.uniform(-10.0, 20.0))
        else:
            t = rng.uniform(0.0, 40.0) * sigma
        s = tailbound._line(problem, t)
        assert tailbound._log_transform_at(problem, t, s) <= 10.0


def test_degenerate_far_right():
    with pytest.raises(DegenerateMoment):
        m_of_t(P_UNIT, 60.0)


def test_pin_record_consistency():
    row = pin(P_UNIT, 2.0)
    assert row.pin == pytest.approx(row.mu2**3 / row.mu3**2, rel=1e-15)
    assert 0.0 < row.pin <= 1.0
    assert row.residual <= 1e-9


def test_pin_lyapunov_bound_on_grid():
    for x in np.linspace(0.0, 5.0, 11):
        row = pin(P_UNIT, float(x), rel_tol=1e-8)
        assert 0.0 < row.pin <= 1.0


def test_far_left_pin_stays_in_unit_interval():
    # at x = 0 the root sits near -2 sigma^2 / tol_x, where mu2^3 / mu3^2
    # rounds above 1 unless it is formed from log1p terms
    for y in (0.05, 0.2, 1.0, 3.0, 10.0):
        for eps in (0.05, 0.3, 0.5, 0.7, 0.95):
            problem = TailBoundProblem(1.0, y, eps)
            for row in pin_curve(problem, 0.0, 5.0, 2, rel_tol=1e-7):
                assert not row.is_failure(), (y, eps, row.error)
                assert 0.0 < row.pin <= 1.0, (y, eps, row)


def test_pin_gaussian_limit():
    # eps -> 0 reproduces a pure-Gaussian pipeline value
    small = TailBoundProblem(1.0, 1.0, 1e-10)
    row = pin(small, 2.0)
    ref = pin(TailBoundProblem(1.0, 0.01, 1e-10), 2.0)
    assert row.pin == pytest.approx(ref.pin, rel=1e-5)


def test_curve_shapes_and_failure_isolation():
    rows = pin_curve(P_UNIT, 0.0, 5.0, 21, rel_tol=1e-8)
    assert len(rows) == 21
    assert [r.x for r in rows] == pytest.approx(list(np.linspace(0.0, 5.0, 21)))
    assert all(not r.is_failure() for r in rows)
    assert all(rows[i].pin >= rows[i + 1].pin - 1e-12 for i in range(20))
    # m > 0, so levels below -tol_x / 2 have no root; only those rows fail
    rows = pin_curve(P_UNIT, -1.0, 1.0, 5, rel_tol=1e-8)
    assert [r.is_failure() for r in rows] == [True, True, False, False, False]
    assert all(math.isnan(r.pin) and "no root" in r.error for r in rows[:2])
    with pytest.raises(BracketFailure):
        pin(P_UNIT, -1e-3)


def test_pin_on_a_sequence_of_levels():
    # the levels are solved together, one row each, and the first failing
    # level raises, as in solve_tx
    rows = pin(P_UNIT, [1.0, 2.0, 3.0])
    assert [r.x for r in rows] == [1.0, 2.0, 3.0]
    for r in rows:
        assert not r.is_failure() and r.residual <= 1e-9, (r.x, r.residual)
        assert r.t_x == pytest.approx(pin(P_UNIT, r.x).t_x, abs=1e-8)
    with pytest.raises(BracketFailure):
        pin(P_UNIT, [1.0, -1e-3, 2.0])


def _assert_rows_match_series(problem, rows, rtol):
    # each moment must also lie within its own error bar, and pin_err must
    # carry both bars to Pin; a NaN bar fails both checks
    for r in rows:
        assert not r.is_failure(), (r.x, r.error)
        for got, bar, p in ((r.mu2, r.mu2_err, 2), (r.mu3, r.mu3_err, 3)):
            ref = naive_series_ppm(problem, r.t_x, p)
            miss = abs(got - ref.value)
            assert miss <= rtol * ref.value + ref.half_width, (r.x, p, got, ref)
            assert miss <= bar + ref.half_width, (r.x, p, got, bar, ref)
        m = r.t_x + r.mu3 / r.mu2
        off = 3.0 * (r.residual + 2.0 * EPS * abs(m)) * r.mu2 / r.mu3 + 8.0 * EPS
        assert r.pin_err == pytest.approx(
            r.pin * (3.0 * r.mu2_err / r.mu2 + 2.0 * r.mu3_err / r.mu3 + off), rel=1e-15)


def _bar_on_m(row):
    # (mu3_err + (m - t) mu2_err) / mu2, with m - t = mu3 / mu2
    return (row.mu3_err + row.mu3 / row.mu2 * row.mu2_err) / row.mu2


def test_curve_rows_match_series_oracle():
    rows = pin_curve(P_UNIT, 0.0, 5.0, 41, rel_tol=1e-7)
    _assert_rows_match_series(P_UNIT, rows, 1e-9)
    assert all(r.residual <= 1e-9 for r in rows)


def _count_engine_calls(monkeypatch) -> list:
    # the number of levels each _moments23 call, one per engine pass, takes
    calls, real = [], tailbound._moments23
    monkeypatch.setattr(tailbound, "_moments23",
                        lambda *a: calls.append(np.size(a[1])) or real(*a))
    return calls


# y / sigma = 22.7: the benchmark's moment_mix eta request whose level leaves
# the first grid
P_WIDE = TailBoundProblem(1.0, 22.70367194543268, 0.7073413367479777)


def test_refined_rows_match_series_oracle(monkeypatch):
    # at y / sigma >= 20 Gauss-Kronrod panels 4/freq wide used to miss the
    # integrand's e^{iuy} part, and a level was refined; the trapezoidal rule
    # takes its step from the alias bounds, so one pass gives all three
    # orders within their bars of both independent references
    calls = _count_engine_calls(monkeypatch)
    ts = [-1.0, 0.5, 1.4592682828722885, 3.0]
    ev = _eta_moments(P_WIDE, ts, 5e-11)
    assert calls == [4]
    for i, t in enumerate(ts):
        mix = mixture_ppm23(1.0 - P_WIDE.eps, P_WIDE.lam, P_WIDE.y, -t)
        for p in (1, 2, 3):
            ref = naive_series_ppm(P_WIDE, t, p)
            assert abs(ev.mu[p - 1, i] - ref.value) <= ev.err[p - 1, i] + ref.half_width, (t, p)
            if p > 1:
                assert abs(ev.mu[p - 1, i] - mix[p - 2]) <= ev.err[p - 1, i] + 1e-13 * mix[p - 2]
    calls.clear()
    rows = pin_curve(P_WIDE, 0.5, 4.5, 3, rel_tol=1e-7)
    assert calls
    _assert_rows_match_series(P_WIDE, rows, 1e-9)
    assert all(r.residual <= 1e-9 and _bar_on_m(r) <= 1e-9 for r in rows)
    assert all(math.isfinite(v) for r in rows for v in (r.mu2_err, r.mu3_err, r.pin_err))


def test_large_y_curve_within_bars_at_bounded_work(monkeypatch):
    # y / sigma = 50: the adaptive route that used to take the missed levels
    # spent 65.8M evaluations (33 s) on this curve
    problem = TailBoundProblem(1.0, 50.0, 0.3)
    work = []
    transform, integrate = tailbound._log_fl_vec, moments.integrate_halfline

    def counted_nodes(spec, z):
        work.append(np.size(z))
        return transform(spec, z)

    def counted_integral(*args, **kwargs):
        result = integrate(*args, **kwargs)
        work.append(result.evaluations)
        return result

    monkeypatch.setattr(tailbound, "_log_fl_vec", counted_nodes)
    monkeypatch.setattr(moments, "integrate_halfline", counted_integral)
    rows = pin_curve(problem, 0.5, 4.5, 5)
    _assert_rows_match_series(problem, rows, 1e-9)
    assert sum(work) <= 5_000_000, sum(work)


@pytest.mark.parametrize("y", [100.0, 30.0])
def test_extreme_y_curve_has_no_failed_row(y):
    # y / sigma = 100 and 30 at eps = 0.01: on the line s* = 1/y the
    # Gauss-Kronrod grids stopped at QUADPACK's rounding floor, and rows
    # x = 1.67, 3.33, 5 (y = 100) and 3.33, 5 (y = 30) failed with
    # UnmetBudget.  On the saddle-point line every row settles, within its
    # bars of the mixture sums
    problem = TailBoundProblem(1.0, y, 0.01)
    rows = pin_curve(problem, 0.0, 5.0, 4, rel_tol=1e-7, tol_x=1e-9)
    assert not any(r.is_failure() for r in rows), [(r.x, r.error) for r in rows]
    for r in rows[1:]:
        mu2, mu3 = mixture_ppm23(0.99, problem.lam, y, -r.t_x)
        assert abs(r.mu2 - mu2) <= r.mu2_err + 4e-15 * mu2, (r.x, r.mu2, mu2)
        assert abs(r.mu3 - mu3) <= r.mu3_err + 4e-15 * mu3, (r.x, r.mu3, mu3)
        assert r.residual <= 1e-9 and _bar_on_m(r) <= 1e-9


def test_far_negative_small_y_level_stays_on_the_grid(monkeypatch):
    # the level t = -2,510 of the y = 1e-4 curve: its Gauss-Kronrod grid was
    # longer than one work block, which used to send it to the adaptive route;
    # it takes one pass on its rung's trapezoidal grid
    problem = TailBoundProblem(1.0, 1e-4, 0.5)
    calls = _count_engine_calls(monkeypatch)
    ev = _eta_moments(problem, [-2510.0], 5e-11)
    assert calls == [1] and ev.failure == [None]
    mix = mixture_ppm23(0.5, problem.lam, problem.y, 2510.0)
    for p in (2, 3):
        assert abs(ev.mu[p - 1, 0] - mix[p - 2]) <= ev.err[p - 1, 0], (p, ev.mu[:, 0], mix)


def _engine_bar_on_m(ev, t):
    # a one-level pass's bar on m at t, as the solver forms it
    return (ev.err[2, 0] + (ev.m[0] - t) * ev.err[1, 0]) / ev.mu[1, 0]


def test_m_of_t_runs_the_solver_engine(monkeypatch):
    # m_of_t runs the engine the solver runs, so at a row's root it lies
    # within the row's residual, its bar on m and the engine's own bar of x,
    # whether the row settled at a probe or one Taylor step past it; the
    # adaptive route alone used to give 5.8e-12 and 6.5e-11 here against
    # residuals of 3.9e-14 and 6.9e-11
    for x in (1.0, 2.0):
        row = pin(P_UNIT, x)
        engine = _engine_bar_on_m(_eta_moments(P_UNIT, [row.t_x], 5e-11), row.t_x)
        assert abs(m_of_t(P_UNIT, row.t_x, 5e-11) - x) <= row.residual + _bar_on_m(row) + engine, x
    # at right-tail roots the adaptive route's absolute budget floor left
    # m 2.4e-8, 7.0e-7 and 4.0e-7 off the series oracle
    problem = TailBoundProblem(1.0, 1.001074356060161, 0.08100531266023471)
    for x in (3.5, 4.35, 4.5):
        t = pin(problem, x).t_x
        want = t + naive_series_ppm(problem, t, 3).value / naive_series_ppm(problem, t, 2).value
        assert abs(m_of_t(problem, t, 5e-11) - want) <= 1e-8, x
    # at y = 1e-4 (lam = 5e7, past the series oracle's guard) one pass
    # gives m, which agrees with the mixture sums within its bar on m
    small_y = TailBoundProblem(1.0, 1e-4, 0.5)
    calls = _count_engine_calls(monkeypatch)
    m = m_of_t(small_y, 0.5, 5e-11)
    ev = _eta_moments(small_y, [0.5], 5e-11)
    assert calls == [1, 1]
    mu2, mu3 = mixture_ppm23(0.5, small_y.lam, small_y.y, -0.5)
    bar = _engine_bar_on_m(ev, 0.5)
    assert m == ev.m[0]
    assert abs(m - (0.5 + mu3 / mu2)) <= bar + 1e-13 * m
    # the level of P_WIDE that Gauss-Kronrod grids had to refine agrees with
    # the series oracle
    t = 1.4592682828722885
    want = t + naive_series_ppm(P_WIDE, t, 3).value / naive_series_ppm(P_WIDE, t, 2).value
    assert abs(m_of_t(P_WIDE, t, 5e-11) - want) <= 1e-10 and calls == [1, 1, 1]


@pytest.mark.parametrize("y", [1e-4, 1e-3])
def test_small_y_curve_stays_on_the_grid(y, monkeypatch):
    # lam = 5e7 and 5e5: each engine pass is one trapezoidal grid pass, and
    # every row is within its bars of the mixture sums
    problem = TailBoundProblem(1.0, y, 0.5)
    calls = _count_engine_calls(monkeypatch)
    passes = []
    engine = tailbound._eta_moments
    monkeypatch.setattr(tailbound, "_eta_moments",
                        lambda problem, ts, *a: passes.append(1) or engine(problem, ts, *a))
    rows = pin_curve(problem, 0.0, 5.0, 11, rel_tol=1e-7, tol_x=1e-9)
    assert len(calls) == len(passes)
    assert not any(r.is_failure() for r in rows)
    for r in rows[1:]:    # x = 0 takes the far-left closed form
        mu2, mu3 = mixture_ppm23(0.5, problem.lam, y, -r.t_x)
        assert abs(r.mu2 - mu2) <= r.mu2_err + 1e-13 * mu2, (r.x, r.mu2, mu2)
        assert abs(r.mu3 - mu3) <= r.mu3_err + 1e-13 * mu3, (r.x, r.mu3, mu3)


def test_right_tail_moments_regression():
    # a moment budget with the absolute part 0.5 rel_tol (1 + max(sigma,|t|)^p)
    # let mu3 drift by 1e-6 relative here, which moved m(t) by 7e-7 against
    # the oracle; a bar on m within tol_x holds each moment to
    # tol_x / (m - t) relative (m - t = 0.93) and the true m to 2 tol_x.
    # The row is the one at x = 4.35 of the benchmark's 101-point curve
    problem = TailBoundProblem(1.0, 1.001074356060161, 0.08100531266023471)
    row = pin_curve(problem, 0.0, 5.0, 101, rel_tol=1e-7, tol_x=1e-9)[87]
    assert row.x == pytest.approx(4.35)
    mu2 = naive_series_ppm(problem, row.t_x, 2).value
    mu3 = naive_series_ppm(problem, row.t_x, 3).value
    assert row.mu2 == pytest.approx(mu2, rel=1.1e-9)
    assert row.mu3 == pytest.approx(mu3, rel=1.1e-9)
    assert abs(row.t_x + mu3 / mu2 - row.x) <= 2.0 * 1e-9


def test_engine_moments_slope_and_error_bars():
    # d/dt E(eta-t)_+^p = -p E(eta-t)_+^(p-1) makes m'(t) = 2 mu1 mu3 / mu2^2 - 2,
    # which Cauchy-Schwarz keeps >= 0; compare with a central difference of m.
    # On P_UNIT, -15 and -8 lie below -6 / s*, so they sit on the rungs
    # s = 0.25 and 0.5 next to the shared line s* = 1 of the others.  mu1
    # keeps its grid error bar: it must hold against the oracle too.  The
    # other problems take y / sigma and eps to the ends of the curve ranges
    ts = np.array([-15.0, -8.0, -3.0, -1.0, 0.0, 0.7, 2.0, 3.5])
    h = 1e-4
    for problem in (P_UNIT, TailBoundProblem(1.0, 0.05, 0.05), TailBoundProblem(1.0, 0.05, 0.95),
                    TailBoundProblem(1.0, 10.0, 0.05), TailBoundProblem(1.0, 10.0, 0.95)):
        ev = _eta_moments(problem, ts, 1e-12)
        mu1, mu2, mu3 = ev.mu
        slope = 2.0 * mu1 * mu3 / mu2**2 - 2.0
        plus = _eta_moments(problem, ts + h, 1e-12).m
        minus = _eta_moments(problem, ts - h, 1e-12).m
        assert np.all(slope >= 0.0), problem
        assert np.allclose(slope, (plus - minus) / (2.0 * h), rtol=1e-6, atol=1e-7), problem
        for i, t in enumerate(ts):
            for p in (1, 2, 3):
                ref = naive_series_ppm(problem, float(t), p)
                assert abs(ev.mu[p - 1, i] - ref.value) <= ev.err[p - 1, i] + ref.half_width, \
                    (problem, t, p)


@pytest.mark.parametrize("problem, xs", [
    (P_UNIT, (0.1, 0.25, 0.5)),
    (TailBoundProblem(1.0, 0.0936, 0.457), (4.35, 4.7, 5.0)),
])
def test_taylor_step_within_its_bars(problem, xs):
    # moments carried from the engine's pass at the roots t to t + d (_carry)
    # lie within their bars, plus the other side's, of the engine and of the
    # series oracle at t + d: on the far-left span of P_UNIT, where
    # P(eta > t) sits at the top of the bracket [g, 1], and in the right tail
    # of (1, 0.0936, 0.457), where it is near 0 and the bracket is loose.
    # There the remainder is charged at its size: mu1 at |d| = 1e-3 misses
    # by more than 0.9 of its bar
    ts = solve_tx(problem, list(xs))
    ev = _eta_moments(problem, ts, 5e-11)
    tight = 0.0
    for d in (1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3):
        near = ts + d
        got, bar = tailbound._carry(problem, ts, ev.mu, ev.err, near - ts)
        at = _eta_moments(problem, near, 5e-11)
        miss = np.abs(got - at.mu)
        assert np.all(miss <= bar + at.err), (d, miss, bar, at.err)
        tight = max(tight, float(np.max(miss / (bar + at.err))))
        for i, t in enumerate(near):
            for p in (1, 2, 3):
                ref = naive_series_ppm(problem, float(t), p)
                assert abs(got[p - 1, i] - ref.value) <= bar[p - 1, i] + ref.half_width, (d, t, p)
    assert tight > 0.9, tight


def test_level_whose_taylor_bar_misses_is_probed_again(monkeypatch):
    # x = 1 settles one Taylor step past its fourth probe.  With every Taylor
    # bar past tol_x it is probed a fifth time and settles there, so m_of_t,
    # which does a one-level probe's arithmetic, reproduces its residual bit
    # for bit
    calls = _count_engine_calls(monkeypatch)
    row = pin(P_UNIT, 1.0)
    assert len(calls) == row.probes == 4
    assert row.residual == 0.0 and m_of_t(P_UNIT, row.t_x, 5e-11) != 1.0
    carry = tailbound._carry
    monkeypatch.setattr(tailbound, "_carry",
                        lambda *a: (carry(*a)[0], carry(*a)[1] + 1.0))
    calls.clear()
    row = pin(P_UNIT, 1.0)
    assert len(calls) == row.probes == 5
    assert abs(m_of_t(P_UNIT, row.t_x, 5e-11) - 1.0) == row.residual <= 1e-9


def test_curve_validation():
    with pytest.raises(PreconditionError):
        pin_curve(P_UNIT, 0.0, 5.0, 1)
    with pytest.raises(PreconditionError):
        pin_curve(P_UNIT, 3.0, 1.0, 5)


def test_tx_reproduced_by_naive_oracle_pipeline():
    # re-solve m(t) = x with the mixture-series oracle in place of the
    # transform pipeline; the roots must land within 10 tol_x of each other
    tol_x = 1e-9
    t_ref = solve_tx(P_UNIT, 2.0, tol_x=tol_x)

    def m_oracle(t):
        mu2 = naive_series_ppm(P_UNIT, t, 2).value
        mu3 = naive_series_ppm(P_UNIT, t, 3).value
        return t + mu3 / mu2

    lo, hi = t_ref - 0.5, t_ref + 0.5
    assert (m_oracle(lo) - 2.0) < 0.0 < (m_oracle(hi) - 2.0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if m_oracle(mid) < 2.0:
            lo = mid
        else:
            hi = mid
    t_oracle = 0.5 * (lo + hi)
    assert abs(t_ref - t_oracle) <= 10.0 * tol_x


def test_curve_rows_meet_the_budget_on_m():
    # the benchmark's seed-1 curve: every row settles with |m - x| <= tol_x
    # and a bar on m within tol_x, right-tail rows included
    problem = TailBoundProblem(1.0, 1.001074356060161, 0.08100531266023471)
    rows = pin_curve(problem, 0.0, 5.0, 101, rel_tol=1e-7, tol_x=1e-9)
    for r in rows:
        assert not r.is_failure(), (r.x, r.error)
        assert r.residual <= 1e-9, (r.x, r.residual)
        assert _bar_on_m(r) <= 1e-9, (r.x, _bar_on_m(r))


def test_far_right_pin_matches_series_oracle():
    # the root sits near 8 sigma, where a moment budget with the absolute
    # part 0.5 rel_tol (1 + max(sigma,|t|)^p) let mu2 miss by 5.5e-4
    # relative behind a residual of 2e-10; the bar on m now sizes the grid
    row = pin(P_UNIT, 9.0)
    for got, p in ((row.mu2, 2), (row.mu3, 3)):
        ref = naive_series_ppm(P_UNIT, row.t_x, p)
        assert abs(got - ref.value) <= 1e-8 * ref.value + ref.half_width, (p, got, ref)
    assert row.pin_err / row.pin <= 1e-6
    assert row.residual <= 1e-9 and _bar_on_m(row) <= 1e-9


def test_a8_curve_engine_rows(monkeypatch):
    # the levels of a curve step through one table of samples of m from their
    # Gaussian roots: the A8 curve takes at most 280 engine rows (291 from
    # t = x, 497 with a Newton step per level from there).
    # Shared rungs hold its transform of eta to at most 15,000 nodes, and its
    # (level, node) cells to the 153,480 of the Gauss-Kronrod grids the
    # trapezoidal rule replaced, in blocks of at most 8,192 cells.  Every
    # row is within its bars of the mixture sums
    rows, nodes, cells = [], [], []
    engine, transform, cos = tailbound._eta_moments, tailbound._log_fl_vec, np.cos

    def counted(problem, ts, *args):
        rows.append(np.size(ts))
        return engine(problem, ts, *args)

    def counted_nodes(spec, z):
        if np.iscomplexobj(z):      # nodes on the line, not the real kappa(s)
            nodes.append(np.size(z))
        return transform(spec, z)

    def counted_cells(phase):
        cells.append(np.size(phase))
        return cos(phase)

    monkeypatch.setattr(tailbound, "_eta_moments", counted)
    monkeypatch.setattr(tailbound, "_log_fl_vec", counted_nodes)
    monkeypatch.setattr(tailbound.np, "cos", counted_cells)
    curve = pin_curve(P_UNIT, 0.0, 5.0, 101, rel_tol=1e-7, tol_x=1e-9)
    monkeypatch.undo()
    assert all(not r.is_failure() for r in curve)
    assert sum(rows) <= 280, rows
    assert sum(nodes) <= 15_000, sum(nodes)
    assert sum(cells) <= 153_480 and max(cells) <= 8192, (sum(cells), max(cells))
    for r in curve[1:]:
        mu2, mu3 = mixture_ppm23(0.5, P_UNIT.lam, P_UNIT.y, -r.t_x)
        assert abs(r.mu2 - mu2) <= r.mu2_err + 4e-15 * mu2, (r.x, r.mu2, mu2)
        assert abs(r.mu3 - mu3) <= r.mu3_err + 4e-15 * mu3, (r.x, r.mu3, mu3)


def test_a8_curve_pin_within_its_bar_of_the_bound_at_its_root():
    # Pin(x) <= G(t_x) = E(eta - t_x)_+^3 / (x - t_x)^3 at each row's own
    # root; the row reports F = mu2^3 / mu3^2, which misses G by about
    # 3 |m - x| F mu2 / mu3.  Before pin_err charged that, 40 of these 99 rows
    # missed G, the worst by 15,000 times its bar.  G takes mu3 from the
    # 30-digit mixture sums (one rounding, charged as eps G)
    mpmath = pytest.importorskip("mpmath")
    rows = pin_curve(P_UNIT, 0.0, 5.0, 101, rel_tol=1e-7, tol_x=1e-9)
    solved = [r for r in rows if r.x > 0.05]
    assert len(solved) == 99 and not any(r.is_failure() for r in solved)
    for r in solved:
        _, mu3 = mixture_ppm23_mp(0.5, P_UNIT.lam, P_UNIT.y, -r.t_x)
        with mpmath.workdps(30):
            g = float(mpmath.mpf(mu3) / (mpmath.mpf(r.x) - mpmath.mpf(r.t_x)) ** 3)
        assert abs(r.pin - g) <= r.pin_err + EPS * g, (r.x, r.pin, g, r.pin_err)


@pytest.mark.parametrize("tol_x", [1e-4, 1e-3])
@pytest.mark.parametrize("sigma, y, eps", [(1.0, 0.1, 0.5), (1.0, 3.0, 0.2)])
def test_pin_within_its_bar_of_the_bound_at_its_root_at_loose_tol_x(sigma, y, eps, tol_x):
    # G / F = (1 - u)^-3 misses F by 3u + 6u^2 + ...; a bar of 3 |u| F left
    # 12 of these rows outside it, among them x = 0.10-0.25 on (1, 0.1, 0.5)
    # at tol_x 1e-3.  G takes the row's own mu3, so its bar adds to pin_err
    rows = pin_curve(TailBoundProblem(sigma, y, eps), 0.0, 5.0, 101, rel_tol=1e-7, tol_x=tol_x)
    assert not any(r.is_failure() for r in rows)
    for r in rows:
        gap = r.x - r.t_x
        g = r.mu3 / gap**3
        assert abs(r.pin - g) <= r.pin_err + r.mu3_err / gap**3 + EPS * g, (r.x, r.pin, g)


def test_a_row_whose_residual_share_reaches_one_fails():
    # u = (m - x) mu2 / mu3 >= 1 leaves G / F = (1 - u)^-3 without a bound
    got = tailbound._row(P_UNIT, 1.0, 0.0, 1.0, 1.0, 2.5, 0.0, 0.0)
    assert isinstance(got, UnmetBudget) and got.bar == pytest.approx(1.5) and got.budget == 1.0


def test_a8_curve_takes_three_passes(monkeypatch):
    # each level's first probe is its root under the Gaussian limit of eta,
    # so the A8 curve takes 3 passes (5 from t = x), and each row counts the
    # passes that evaluated it: none at the far left (x = 0 and 0.05)
    passes = _count_engine_calls(monkeypatch)
    rows = pin_curve(P_UNIT, 0.0, 5.0, 101, rel_tol=1e-7, tol_x=1e-9)
    assert len(passes) <= 3, passes
    far = [r.t_x <= tailbound._far_left_edge(P_UNIT) for r in rows]
    assert far == [True, True] + [False] * 99
    assert all((r.probes == 0) == f and r.probes <= len(passes) for r, f in zip(rows, far))
    assert max(r.probes for r in rows) == len(passes)
    assert sum(r.probes for r in rows) == sum(passes)


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 3.0, 4.5, (1.0, 2.0, 3.0)])
def test_lone_levels_take_few_passes(x, monkeypatch):
    # a lone level whose probes stay above x has the far-left edge as its
    # sample below; the cubic through it (m' ~ 0.004 there) is not monotone
    # and landed just past the last probe on every pass: x = 1 took 9
    # passes, x = 3 took 8 and the three levels together 9
    passes = _count_engine_calls(monkeypatch)
    rows = pin(P_UNIT, x)
    assert len(passes) <= 5, passes
    assert all(r.residual <= 1e-9 for r in np.atleast_1d(rows))


@pytest.mark.parametrize("y", [1e-4, 1e-3])
def test_small_y_101_point_curve_takes_few_passes(y, monkeypatch):
    # lam = 5e7 and 5e5: from t = x the levels below m(edge) of the unit
    # problem crawled through 12 and 9 passes
    passes = _count_engine_calls(monkeypatch)
    rows = pin_curve(TailBoundProblem(1.0, y, 0.5), 0.0, 5.0, 101, rel_tol=1e-7, tol_x=1e-9)
    assert len(passes) <= 4, passes
    assert all(not r.is_failure() and r.residual <= 1e-9 for r in rows)


@pytest.mark.parametrize("y", [0.05, 0.3, 2.0, 10.0])
@pytest.mark.parametrize("eps", [0.05, 0.5, 0.95])
def test_curve_takes_few_passes_across_the_curve_ranges(y, eps, monkeypatch):
    # y / sigma and eps over the benchmark's curve ranges: 4 to 6 passes from
    # t = x; every row meets tol_x in its residual and in its bar on m
    passes = _count_engine_calls(monkeypatch)
    rows = pin_curve(TailBoundProblem(1.0, y, eps), 0.0, 5.0, 101, rel_tol=1e-7, tol_x=1e-9)
    assert len(passes) <= 4, passes
    for r in rows:
        assert not r.is_failure(), (r.x, r.error)
        assert r.residual <= 1e-9, (r.x, r.residual)
        assert r.probes == 0 or _bar_on_m(r) <= 1e-9, (r.x, _bar_on_m(r))


@pytest.mark.parametrize("sigma", [1e-150, 1.0, 1e120])
def test_gaussian_start_is_finite_and_in_the_bracket(sigma):
    # x / sigma from 0 to past the float range: no warning (pytest.ini makes
    # RuntimeWarning an error), a finite start within [edge, x].  m(edge) is
    # sigma times the unit problem's, whose raw moments do not overflow
    problem = TailBoundProblem(sigma, sigma, 0.5)
    edge = tailbound._far_left_edge(problem)
    m_edge = sigma * tailbound._far_left(P_UNIT, tailbound._far_left_edge(P_UNIT))[3]
    xs = [x for x in (0.0, 0.5e-9, m_edge, 5.0 * sigma, 40.0 * sigma, 1e300 * sigma, 1e300)
          if math.isfinite(x)]
    for x in xs:
        t = tailbound._gaussian_start(sigma, edge, np.array([x]))[0]
        assert math.isfinite(t) and edge <= t <= x, (x, t)
    # near the Gaussian limit the start is the root itself
    small = TailBoundProblem(1.0, 1.0, 1e-9)
    starts = tailbound._gaussian_start(1.0, tailbound._far_left_edge(small), np.array([0.5, 2.0, 4.5]))
    for x, t in zip((0.5, 2.0, 4.5), starts):
        assert abs(m_of_t(small, float(t)) - x) <= 1e-6, (x, t)


def test_unmet_budget_on_m_ends_with_a_report(monkeypatch):
    # on (1, 100, 0.01) at tol_x = 1e-12 the rounding term of the rule's
    # sums keeps the bar on m at the root above tol_x (8.0e-11 at x = 5): the
    # level ends with UnmetBudget after a few passes, not at the pass cap.
    # (pin(P_UNIT, 10.0), the input here while Gauss-Kronrod grids stopped
    # at QUADPACK's rounding floor, now meets tol_x)
    problem = TailBoundProblem(1.0, 100.0, 0.01)
    passes = []
    engine = tailbound._eta_moments

    def counted(problem, ts, *args):
        passes.append(np.size(ts))
        return engine(problem, ts, *args)

    monkeypatch.setattr(tailbound, "_eta_moments", counted)
    with pytest.raises(UnmetBudget, match="error bar of m"):
        pin(problem, 5.0, tol_x=1e-12)
    assert len(passes) <= 20
    row = pin_curve(problem, 4.0, 5.0, 2, tol_x=1e-12)[1]
    assert row.is_failure() and "error bar of m" in row.error
    assert pin(P_UNIT, 10.0).residual <= 1e-9
