import math

import numpy as np
import pytest

from mixture import mixture_ppm23
from pospart import moments, tailbound
from pospart.distributions import raw_moment
from pospart.errors import BracketFailure, DegenerateMoment, PreconditionError, UnmetBudget
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
    # s* above -6/s*; below it the largest rung s* 2^-k with -s t <= 6, so
    # -s t lies in (3, 6] and the levels of one rung share a line
    rng = np.random.default_rng(5)
    for _ in range(200):
        problem = TailBoundProblem(math.exp(rng.uniform(-3.0, 3.0)),
                                   math.exp(rng.uniform(-6.0, 6.0)), rng.uniform(0.01, 0.99))
        s_star = min(1.0 / problem.y, 2.0 / problem.sigma)
        t = np.concatenate([-6.0 / s_star * np.exp(rng.uniform(0.0, 30.0, 50)),
                            [-6.0 / s_star, -6.0 / s_star * (1.0 + 1e-15), 0.0, 3.0]])
        s = tailbound._line(problem, t)
        k = np.log2(s_star / s)
        assert np.all(k == np.round(k)) and np.all(k >= 0.0)
        above = -s_star * t <= 6.0
        assert np.all(s[above] == s_star)
        assert np.all((3.0 < -s[~above] * t[~above]) & (-s[~above] * t[~above] <= 6.0))
        assert float(tailbound._line(problem, float(t[0]))) == s[0]


def test_grid_moments_match_direct_phase(monkeypatch):
    # the engine forms e^{iut} as e^{i t mid} e^{i t (u - mid)}; on the same
    # nodes, direct cos(ut) and sin(ut) give the same moments to 1e-13
    # relative.  -15 and -8 sit on the rungs s* / 4 and s* / 2 of P_UNIT
    from pospart.distributions import _fl_vec
    from pospart.quadrature import gk15_reduce

    seen = []

    def reduce(f, half):
        seen.append(half)
        return gk15_reduce(f, half)

    def transform(spec, z):
        seen.append(z)
        return _fl_vec(spec, z)

    monkeypatch.setattr(tailbound, "gk15_reduce", reduce)
    monkeypatch.setattr(tailbound, "_fl_vec", transform)
    lines, mixed = set(), 0
    for problem in (P_UNIT, TailBoundProblem(1.0, 0.2, 0.1), TailBoundProblem(1.0, 5.0, 0.9)):
        for level in (-15.0, -8.0, -3.0, 0.0, 0.7, 2.0, 3.5, 4.5):
            t = np.array([level])
            s = tailbound._line(problem, t)
            cut = 1e-12 * (1.0 + np.maximum(1.0, abs(t)) ** np.array([[1.0], [2.0], [3.0]]))
            seen.clear()
            mu, _ = tailbound._grid_moments(problem, t, s, tailbound._log_transform_at(problem, t, s),
                                            cut)
            z, half = seen
            # graded panels of their own widths, then flat ones sharing one
            mixed += 1 < np.unique(half).size < half.size - 1
            iz = 1.0 / z
            h = _fl_vec(tailbound._eta(problem), z) * iz * iz
            h = np.stack([h, h * iz, h * iz * iz])
            f = np.cos(z.imag * level) * h.real + np.sin(z.imag * level) * h.imag
            k, _ = gk15_reduce(f[:, None], half)
            want = tailbound._PREF * k.sum(axis=2) * np.exp(-s * t)
            assert np.all(np.abs(mu - want) <= 1e-13 * np.abs(want)), (problem, level, mu, want)
            lines.add(float(s[0]))
    assert len(lines) >= 4 and mixed >= 20, (lines, mixed)


@pytest.mark.parametrize("problem, levels, halvings", [
    (P_UNIT, np.linspace(0.0, 4.5, 400), 0),
    (TailBoundProblem(1.0, 0.01, 0.99), np.array([0.0, 0.5, 2.0]), 6),
])
def test_grid_moments_blocking_keeps_each_level_bits(problem, levels, halvings, monkeypatch):
    # how a grid's levels fall into level blocks moves no bit: the batch,
    # the batch reversed with every level twice, and a level repeated (the
    # one batch whose grid is that level's own) match the level alone.  The
    # 400 levels share a few grids, so a grid spans several level blocks;
    # the other grids run past one panel run (about 10,000 panels)
    from pospart.quadrature import gk15_reduce

    calls = []

    def reduce(f, half):
        calls.append((f.shape[2], half.tobytes()))
        return gk15_reduce(f, half)

    def moments(ts):
        s = tailbound._line(problem, ts)
        cut = 1e-10 * (1.0 + np.maximum(1.0, np.abs(ts)) ** np.array([[1.0], [2.0], [3.0]]))
        out = tailbound._grid_moments(problem, ts, s, tailbound._log_transform_at(problem, ts, s),
                                      cut, halvings)
        return np.concatenate(out)

    monkeypatch.setattr(tailbound, "gk15_reduce", reduce)
    want = moments(levels)
    assert np.all(np.isfinite(want)) and np.unique(tailbound._line(problem, levels)).size == 1
    if halvings:
        assert max(panels for panels, _ in calls) == (1 << 16) // 15   # a whole run
    else:
        assert len(calls) > len(set(calls))      # a grid in several level blocks
    twice = moments(np.repeat(levels, 2)[::-1])[:, ::-1]
    assert twice[:, ::2].tobytes() == want.tobytes() and twice[:, 1::2].tobytes() == want.tobytes()
    for t in levels[[0, -1]]:
        alone = moments(np.array([t]))
        calls.clear()
        repeated = moments(np.full(levels.size, t))
        assert len(calls) >= 2 and repeated.tobytes() == np.repeat(alone, levels.size, 1).tobytes()


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
        assert r.pin_err == pytest.approx(
            r.pin * (3.0 * r.mu2_err / r.mu2 + 2.0 * r.mu3_err / r.mu3), rel=1e-15)


def _bar_on_m(row):
    # (mu3_err + (m - t) mu2_err) / mu2, with m - t = mu3 / mu2
    return (row.mu3_err + row.mu3 / row.mu2 * row.mu2_err) / row.mu2


def test_curve_rows_match_series_oracle():
    rows = pin_curve(P_UNIT, 0.0, 5.0, 41, rel_tol=1e-7)
    _assert_rows_match_series(P_UNIT, rows, 1e-9)
    assert all(r.residual <= 1e-9 for r in rows)


def _count_refinements(monkeypatch) -> list:
    # the number of levels each _moments23 call refines
    calls, real = [], tailbound._moments23
    monkeypatch.setattr(tailbound, "_moments23",
                        lambda *a: calls.append(np.size(a[1])) or real(*a))
    return calls


# y / sigma = 22.7: the benchmark's moment_mix eta request whose level leaves
# the first grid
P_WIDE = TailBoundProblem(1.0, 22.70367194543268, 0.7073413367479777)


def test_refined_rows_match_series_oracle(monkeypatch):
    # at y / sigma >= 20 the flat panels 4/freq wide are too coarse for the
    # integrand's e^{iuy} part, so a level can miss its budget on the first
    # grid; it is refined on the same engine, and all three orders come from
    # the finest grid, within their bars of both independent references
    calls = _count_refinements(monkeypatch)
    ts = [-1.0, 0.5, 1.4592682828722885, 3.0]
    ev = _eta_moments(P_WIDE, ts, 5e-11)
    assert calls == [2]
    for i, t in enumerate(ts):
        mix = mixture_ppm23(1.0 - P_WIDE.eps, P_WIDE.lam, P_WIDE.y, -t)
        for p in (1, 2, 3):
            ref = naive_series_ppm(P_WIDE, t, p)
            assert abs(ev.mu[p - 1, i] - ref.value) <= ev.err[p - 1, i] + ref.half_width, (t, p)
            if p > 1:
                assert abs(ev.mu[p - 1, i] - mix[p - 2]) <= ev.err[p - 1, i] + 1e-13 * mix[p - 2]
    # the solver takes mu1 for its step from the refined grid too
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
    transform, integrate = tailbound._fl_vec, moments.integrate_halfline

    def counted_nodes(spec, z):
        work.append(np.size(z))
        return transform(spec, z)

    def counted_integral(*args, **kwargs):
        result = integrate(*args, **kwargs)
        work.append(result.evaluations)
        return result

    monkeypatch.setattr(tailbound, "_fl_vec", counted_nodes)
    monkeypatch.setattr(moments, "integrate_halfline", counted_integral)
    rows = pin_curve(problem, 0.5, 4.5, 5)
    _assert_rows_match_series(problem, rows, 1e-9)
    assert sum(work) <= 5_000_000, sum(work)


def test_far_negative_small_y_level_stays_on_the_grid(monkeypatch):
    # the level t = -2,510 of the y = 1e-4 curve: its grid is longer than one
    # work block, which used to send it to the adaptive route
    problem = TailBoundProblem(1.0, 1e-4, 0.5)
    calls = _count_refinements(monkeypatch)
    ev = _eta_moments(problem, [-2510.0], 5e-11)
    assert calls == [] and ev.failure == [None]
    mix = mixture_ppm23(0.5, problem.lam, problem.y, 2510.0)
    for p in (2, 3):
        assert abs(ev.mu[p - 1, 0] - mix[p - 2]) <= ev.err[p - 1, 0], (p, ev.mu[:, 0], mix)


def test_m_of_t_runs_the_solver_engine(monkeypatch):
    # m_of_t and a one-level pin probe do the same arithmetic, so m_of_t at
    # the root reproduces the row's residual; the adaptive route alone used
    # to give 5.8e-12 and 6.5e-11 here against residuals of 3.9e-14 and
    # 6.9e-11
    for x in (1.0, 2.0):
        row = pin(P_UNIT, x)
        assert abs(m_of_t(P_UNIT, row.t_x, 5e-11) - x) == row.residual, x
    # at right-tail roots the adaptive route's absolute budget floor left
    # m 2.4e-8, 7.0e-7 and 4.0e-7 off the series oracle
    problem = TailBoundProblem(1.0, 1.001074356060161, 0.08100531266023471)
    for x in (3.5, 4.35, 4.5):
        t = pin(problem, x).t_x
        want = t + naive_series_ppm(problem, t, 3).value / naive_series_ppm(problem, t, 2).value
        assert abs(m_of_t(problem, t, 5e-11) - want) <= 1e-8, x
    # at y = 1e-4 (lam = 5e7, past the series oracle's guard) the level
    # stays on the first grid, and its m agrees with the mixture sums within
    # its bar on m
    small_y = TailBoundProblem(1.0, 1e-4, 0.5)
    calls = _count_refinements(monkeypatch)
    m = m_of_t(small_y, 0.5, 5e-11)
    ev = _eta_moments(small_y, [0.5], 5e-11)
    assert calls == []
    mu2, mu3 = mixture_ppm23(0.5, small_y.lam, small_y.y, -0.5)
    bar = (ev.err[2, 0] + (m - 0.5) * ev.err[1, 0]) / ev.mu[1, 0]
    assert m == ev.m[0]
    assert abs(m - (0.5 + mu3 / mu2)) <= bar + 1e-13 * m
    # the refined level of P_WIDE agrees with the series oracle
    t = 1.4592682828722885
    want = t + naive_series_ppm(P_WIDE, t, 3).value / naive_series_ppm(P_WIDE, t, 2).value
    assert abs(m_of_t(P_WIDE, t, 5e-11) - want) <= 1e-10 and calls == [1]


@pytest.mark.parametrize("y", [1e-4, 1e-3])
def test_small_y_curve_stays_on_the_grid(y, monkeypatch):
    # lam = 5e7 and 5e5: freq_scale bounds the Poisson phase rate by
    # y ln 1e18, so each level meets its budget on its first grid and none is
    # refined
    problem = TailBoundProblem(1.0, y, 0.5)
    calls = _count_refinements(monkeypatch)
    rows = pin_curve(problem, 0.0, 5.0, 11, rel_tol=1e-7, tol_x=1e-9)
    assert calls == []
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
    # the levels of a curve step through one table of samples of m: the A8
    # curve takes at most 330 engine rows (497 with a Newton step per level).
    # Per-level phases, shared rungs and 4/freq flat panels hold its
    # transform of eta to at most 15,000 nodes (32,940 with 2/freq panels,
    # a line per level below -6/s* and a phase per cell)
    rows, nodes, blocks = [], [], []
    engine, transform, reduce = tailbound._eta_moments, tailbound._fl_vec, tailbound.gk15_reduce

    def counted(problem, ts, *args):
        rows.append(np.size(ts))
        return engine(problem, ts, *args)

    def counted_nodes(spec, z):
        nodes.append(np.size(z))
        return transform(spec, z)

    def counted_cells(y, half):
        blocks.append(y.size)
        return reduce(y, half)

    monkeypatch.setattr(tailbound, "_eta_moments", counted)
    monkeypatch.setattr(tailbound, "_fl_vec", counted_nodes)
    monkeypatch.setattr(tailbound, "gk15_reduce", counted_cells)
    curve = pin_curve(P_UNIT, 0.0, 5.0, 101, rel_tol=1e-7, tol_x=1e-9)
    assert all(not r.is_failure() for r in curve)
    assert sum(rows) <= 330, rows
    assert sum(nodes) <= 15_000, sum(nodes)
    # the engine's blocks hold about 8,192 (level, node) cells, so their
    # arrays (three orders per cell) stay cache-sized and are not mapped afresh
    assert max(blocks) <= 3 * 8192, max(blocks)


def test_unmet_budget_on_m_ends_with_a_report(monkeypatch):
    # past x ~ 9.5 on P_UNIT no grid end brings the bar on m at the root
    # within tol_x (mu2 is near 1e-9 at t = 9): the level ends with
    # UnmetBudget after a few passes, not at the pass cap
    passes = []
    engine = tailbound._eta_moments

    def counted(problem, ts, *args):
        passes.append(np.size(ts))
        return engine(problem, ts, *args)

    monkeypatch.setattr(tailbound, "_eta_moments", counted)
    with pytest.raises(UnmetBudget, match="error bar of m"):
        pin(P_UNIT, 10.0)
    assert len(passes) <= 20
    row = pin_curve(P_UNIT, 9.0, 10.0, 2)[1]
    assert row.is_failure() and "error bar of m" in row.error
