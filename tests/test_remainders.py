import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pospart import remainders
from pospart.errors import DomainError, PreconditionError
from pospart.remainders import (
    LatticeKernel,
    MomentOrder,
    decay_bound,
    exp_remainder,
    inv_power,
    switch_radius,
)


def test_exp_remainder_is_exp_at_order_minus_one():
    assert exp_remainder(1.0, -1) == pytest.approx(math.e, rel=1e-15)
    assert exp_remainder(0.0, 0) == 0.0


def test_exp_remainder_order_one_at_i():
    # 60-term tail-series oracle frozen to closed form: e^i - 1 - i
    want = complex(math.cos(1.0) - 1.0, math.sin(1.0) - 1.0)
    got = exp_remainder(1j, 1)
    assert abs(got - want) <= 1e-15


def test_trig_remainders_match_plain_trig_at_minus_one():
    # e_{-1}(ix) = e^{ix}: its parts are cos x and sin x
    assert exp_remainder(1j * math.pi, -1).real == pytest.approx(-1.0, abs=1e-15)
    assert exp_remainder(0.5j * math.pi, -1).imag == pytest.approx(1.0, abs=1e-15)


def test_sine_remainder_small_argument():
    # Im e_1(0.1i) = sin 0.1 - 0.1
    want = math.sin(0.1) - 0.1
    assert exp_remainder(0.1j, 1).imag == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("m", range(0, 9))
def test_relative_accuracy_against_high_precision(m):
    # mpmath-free oracle: evaluate the tail series in extended precision via
    # fractions of factorials (complex z as a pair of Decimals) at modest |z|
    # and on the switch-radius circle, and by direct formula at large |z|
    from decimal import Decimal, getcontext

    getcontext().prec = 60

    def tail(z, n0, step, sign):
        # sum_r sign^r z^(n0 + step r) / (n0 + step r)! for complex z
        zr, zi = Decimal(z.real), Decimal(z.imag)
        re, im = Decimal(1), Decimal(0)
        for _ in range(n0):
            re, im = re * zr - im * zi, re * zi + im * zr
        re, im = re / math.factorial(n0), im / math.factorial(n0)
        acc_re, acc_im = re, im
        for n in range(n0 + step, n0 + 220, step):
            for k in range(n - step + 1, n + 1):
                re, im = (re * zr - im * zi) / k, (re * zi + im * zr) / k
            re, im = sign * re, sign * im
            acc_re, acc_im = acc_re + re, acc_im + im
        return complex(float(acc_re), float(acc_im))

    radius = switch_radius(m)
    zs = [0.3, -0.4, 2.0, -7.0, 25.0, 49.0, 1e-6, 1e-6j]
    zs += [radius * complex(math.cos(phase), math.sin(phase))
           for phase in (0.0, 0.7, 1.6, 2.1, math.pi, 3.9, 5.2)]
    for z in zs:
        want = tail(complex(z), m + 1, 1, 1)
        assert exp_remainder(z, m) == pytest.approx(want, rel=1e-13)
    # on the imaginary axis e_{2m+1}(ix) is (-1)^(m+1) times the alternating
    # cosine and sine tails, at the switch radius m + 0.5 of order 2m+1
    sign = (-1.0) ** (m + 1)
    for x in (1e-6, 0.3 * radius, -0.8 * radius, radius, -radius):
        got = exp_remainder(1j * x, 2 * m + 1)
        assert sign * got.real == pytest.approx(tail(x, 2 * m + 2, 2, -1).real, rel=1e-13)
        assert sign * got.imag == pytest.approx(tail(x, 2 * m + 3, 2, -1).real, rel=1e-13)


@given(
    u=st.floats(min_value=-8.0, max_value=3.0),
    m=st.integers(min_value=0, max_value=6),
)
@settings(max_examples=200)
def test_imaginary_axis_bound(u, m):
    # explicit-constant envelope: |e_m(iu)| <= min(2|u|^m/m!, |u|^(m+1)/(m+1)!)
    u = math.copysign(10.0**u, u)
    bound = min(2.0 * abs(u) ** m / math.factorial(m), abs(u) ** (m + 1) / math.factorial(m + 1))
    assert abs(exp_remainder(1j * u, m)) <= bound * (1.0 + 1e-12)


def test_imaginary_axis_bound_log_grid():
    for u in np.logspace(-8, 3, 45):
        for m in range(0, 7):
            bound = min(2.0 * u**m / math.factorial(m), u ** (m + 1) / math.factorial(m + 1))
            assert abs(exp_remainder(1j * u, m)) <= bound * (1 + 1e-12)


@given(
    re=st.floats(min_value=-20, max_value=20),
    im=st.floats(min_value=-20, max_value=20),
    m=st.integers(min_value=0, max_value=8),
)
@settings(max_examples=200)
def test_telescoping(re, im, m):
    z = complex(re, im)
    lhs = exp_remainder(z, m) - exp_remainder(z, m - 1)
    rhs = -(z**m) / math.factorial(m)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(exp_remainder(z, m)) + abs(rhs))


@pytest.mark.parametrize("m", [0, 1, 3, 6])
def test_seam_continuity_at_switch_radius(m):
    r = switch_radius(m)
    for phase in (0.0, 0.7, 2.1, 3.9):
        z = r * complex(math.cos(phase), math.sin(phase))
        series = exp_remainder(z * (1 - 1e-14), m)
        direct = exp_remainder(z * (1 + 1e-14), m)
        assert abs(series - direct) <= 1e-12 * abs(series)


@pytest.mark.parametrize("m", [0, 1, 2, 4, 8])
def test_trig_seam_continuity(m):
    # the cosine and sine remainders are the parts of exp_remainder(ix,
    # 2m+1), which switches from the tail series at radius m + 0.5
    x = switch_radius(2 * m + 1)
    below = exp_remainder(1j * x * (1 - 1e-14), 2 * m + 1)
    above = exp_remainder(1j * x * (1 + 1e-14), 2 * m + 1)
    for part in (np.real, np.imag):
        assert abs(part(below) - part(above)) <= 1e-12 * (abs(part(below)) + 1e-300)


def test_even_odd_reduction_identities():
    # Re[e_l(itx) / (it)^(p+1)] reduces to the sine remainder for even p and
    # the cosine remainder for odd p, both parts of e_{2m-1}(itx)
    for m in (1, 2, 3):
        for t in (0.2, 1.7, 9.3):
            for x in (-2.4, 0.3, 1.0):
                sign = (-1.0) ** m
                trig = exp_remainder(1j * t * x, 2 * m - 1)
                p_even = 2 * m
                lhs = (exp_remainder(1j * t * x, p_even - 1) * inv_power(0.0, t, p_even + 1)).real
                rhs = sign * trig.imag / t ** (2 * m + 1)
                assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(rhs)))
                p_odd = 2 * m - 1
                lhs = (exp_remainder(1j * t * x, p_odd - 1) * inv_power(0.0, t, p_odd + 1)).real
                rhs = sign * trig.real / t ** (2 * m)
                assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(rhs)))


def test_inv_power_examples():
    assert inv_power(1.0, 0.0, 2.0) == pytest.approx(1.0)
    assert inv_power(0.0, 1.0, 1.0) == pytest.approx(-1j, abs=1e-15)
    want = 2.0**-1.5 * np.exp(-1j * 3 * np.pi / 4)
    assert inv_power(0.0, 2.0, 1.5) == pytest.approx(want, abs=1e-15)


def test_inv_power_principal_branch_vs_log():
    rng = np.random.default_rng(5)
    for _ in range(50):
        s = rng.uniform(-3, 3)
        t = rng.uniform(0.01, 10)
        q = rng.uniform(0.1, 5)
        want = np.exp(-q * np.log(s + 1j * t))
        assert inv_power(s, t, q) == pytest.approx(want, rel=1e-13)


def test_inv_power_rejects_origin():
    with pytest.raises(DomainError):
        inv_power(0.0, 0.0, 1.5)


def test_inv_power_float_pair_matches_array_path():
    # A float pair takes cmath.  The reference is the 0-d array path such a
    # pair took before (a 1-element array can take numpy's SIMD pow, whose
    # last bit differs from libm's on AVX-512 hosts).  Where the larger of
    # |s| and |t| is at least 2, glibc's clog and cmath.log both take
    # log(hypot); nearer |z| = 1 they take log1p in different forms, and
    # t = 1.999 with |s| = 0.3 (|z| = 2.02) moves in the last bits.  repr
    # tells signed zeros apart and reads every NaN as nan.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(30)
    mags = np.append(10.0 ** rng.uniform(-8.0, 12.0, 24), 1.999)
    qs = [float(q) for q in range(1, 171, 7)] + [170.0] + rng.uniform(0.01, 170.0, 24).tolist()
    for s in (0.0, 1e-6, -1e-6, 0.3, -0.3, 50.0, -50.0):
        for t in np.concatenate([mags, -mags]).tolist():
            for q in qs:
                got, want = inv_power(s, t, q), inv_power(s, np.array(t), q)
                assert type(got) is complex
                if max(abs(s), abs(t)) >= 2.0 or not cmath.isfinite(want):
                    assert repr(got) == repr(want), (s, t, q)
                else:
                    assert abs(got - want) <= 4.0 * q * eps * abs(want), (s, t, q)


def test_inv_power_float_pair_extremes():
    # where float ** or cmath.exp would raise, the float pair returns the
    # array path's value (RuntimeWarnings are errors under pytest.ini)
    for s, t, q in [(0.0, 1e-300, 3.0), (0.0, 1e300, 3.0), (0.0, 1e-300, 2.5),
                    (0.3, 1e-300, 1e3), (0.0, math.nan, 3.0), (0.3, math.nan, 2.5)]:
        assert repr(inv_power(s, t, q)) == repr(inv_power(s, np.array(t), q)), (s, t, q)
    assert math.isinf(abs(inv_power(0.0, 1e-300, 3.0)))
    assert inv_power(0.0, 1e300, 3.0) == 0.0
    assert cmath.isnan(inv_power(0.0, math.nan, 3.0))
    for q in (3.0, 1.5):
        with pytest.raises(DomainError):
            inv_power(0.0, 0.0, q)
        with pytest.raises(DomainError):
            inv_power(-0.0, -0.0, q)


def test_float_pair_tails_take_no_numpy(monkeypatch):
    # the tail model's closed tail and envelope at a float T are numpy-free:
    # inv_power's float pair, the by-parts powers and sum, the power tails
    # and decay_bound's float form
    from pospart.moments import _TailModel
    cases = [(0.0, 7.0, 3.0), (0.0, 7.0, 2.5), (0.3, 7.0, 2.5), (-0.3, 120.0, 4.0)]
    powers = [inv_power(s, t, q) for s, t, q in cases]
    models = [(_TailModel(p=q - 1.0, s=s, harmonics=[(1.3, 0.7), (-0.4, 0.2)],
                          poly=[(0.3, 0)], decay=[(0.8, 2.0), (0.25, 0.0)]), t)
              for s, t, q in cases]
    tails = [(model.closed(t), model.envelope(t)) for model, t in models]

    def boom(*args, **kwargs):
        raise AssertionError("numpy reached on a float pair")

    for name in ("exp", "log", "errstate", "asarray"):
        monkeypatch.setattr(remainders.np, name, boom)
    assert [inv_power(s, t, q) for s, t, q in cases] == powers
    assert [(model.closed(t), model.envelope(t)) for model, t in models] == tails


def test_exp_remainder_rejects_bad_order():
    with pytest.raises(DomainError):
        exp_remainder(1.0, -2)


def test_moment_order_triple():
    mo = MomentOrder.from_p(2.5)
    assert (mo.k, mo.ell, mo.is_integer) == (2, 2, False)
    mo = MomentOrder.from_p(3.0)
    assert (mo.k, mo.ell, mo.is_integer) == (3, 2, True)
    mo = MomentOrder.from_p(0.3)
    assert (mo.k, mo.ell) == (0, 0)
    with pytest.raises(PreconditionError):
        MomentOrder.from_p(0.0)
    with pytest.raises(PreconditionError):
        MomentOrder.from_p(-1.0)


def test_vectorised_matches_scalar():
    z = np.array([0.1 + 0.2j, -3.0 + 1j, 0.0 + 0.0j, 12.0 - 5j])
    out = exp_remainder(z, 2)
    for zi, oi in zip(z, out):
        assert oi == pytest.approx(exp_remainder(complex(zi), 2), rel=1e-14, abs=1e-300)


def test_overflow_returns_infinite_magnitude():
    # arguments beyond the floating range overflow to inf instead of raising
    out = exp_remainder(800.0, 2)
    assert math.isinf(out.real)


_KERNEL_ORDERS = (1.5, 2.0, 3.0, 3.0 + 5e-7, 2.0 - 8e-7)
_KERNEL_PHASES = (0.0, 2.0 * math.pi * 1e-9, 0.03, math.pi - 1e-9, -math.pi)
_KERNEL_LINES = (0.0, 1e-3, -1e-3, 1.0, -1.0)
# every order with every phase, each on one line, and one pair on every line
_KERNEL_CASES = [(q, th, _KERNEL_LINES[i % 5]) for i, (q, th) in
                 enumerate((q, th) for q in _KERNEL_ORDERS for th in _KERNEL_PHASES)]
_KERNEL_CASES += [(2.0 - 8e-7, -math.pi, s) for s in _KERNEL_LINES]
# low, middle and high phases at three orders, on three lines: the rotated
# line's integrand decays like e^{-|theta| y}, so the small phases take the
# most panels, and the phases near pi the Abel-Plana integral's slowest decay
_KERNEL_CASES += [(q, th, s) for q in (2.1, 4.133, 5.0)
                  for th in (0.05, -0.121, -0.144, 0.3, 0.7, 3.0, math.pi - 0.03)
                  for s in (0.0, 0.3, -0.3)]


@pytest.mark.parametrize("q, theta, s", _KERNEL_CASES)
def test_lattice_kernel_against_lerchphi(q, theta, s):
    # K_1(t) = sum_{k>=1} e^{ik theta} (s + i(t + kP))^-q = w (iP)^-q Phi(w, q, b),
    # b = 1 + (t - is)/P: w = 1 is a Hurwitz zeta, a tiny theta takes the
    # longest rotated line, and integer and nearly integer q are where
    # Gamma(1 - q) (-i theta)^(q-1) has its poles
    mpmath = pytest.importorskip("mpmath")
    P = 2.0 * math.pi
    c = 0.05 if s == 0.0 else 0.0
    kernel = LatticeKernel(q, theta, s, P, c)
    ts = np.array([c, c + 0.37 * P, c + P])
    got = kernel(ts)
    with mpmath.workdps(25):
        w = mpmath.expj(theta)
        front = w * mpmath.power(1j * mpmath.mpf(P), -q)
        want = [complex(front * mpmath.lerchphi(w, q, 1 + (mpmath.mpf(t) - 1j * s) / P))
                for t in ts]
    err = np.abs(got - np.array(want))
    assert np.all(err <= kernel.bound), (err, kernel.bound)
    assert kernel.bound <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("theta, s, P", [(0.7, 2.80, 0.335), (-1.3, -2.81, 0.469)])
def test_lattice_kernel_bound_takes_the_line_into_its_scale(theta, s, P):
    # on a line |s| well above P, |b| >= |1 - is/P| sets the kernel's size:
    # a scale (iP)^-q (1 + c/P)^-q put the bar 1e6 and 2.5e3 times above
    # max |K_1|.  The reference is a 40-digit direct sum of 3,000 terms
    # (mpmath.lerchphi is itself 5.5e-17 and 2.1e-16 off here)
    mpmath = pytest.importorskip("mpmath")
    q = 20
    kernel = LatticeKernel(float(q), theta, s, P, 0.0)
    ts = np.linspace(0.0, P, 9)
    got = kernel(ts)
    with mpmath.workdps(40):
        wk = [mpmath.expj(k * theta) for k in range(1, 3001)]
        want = np.array([complex(mpmath.fsum(w / mpmath.mpc(s, t + k * P) ** q
                                             for k, w in enumerate(wk, 1)))
                         for t in ts.tolist()])
    err = np.abs(got - want)
    assert np.all(err <= kernel.bound), (err, kernel.bound)
    assert kernel.bound <= 1e-12 * np.max(np.abs(want)), (kernel.bound, np.max(np.abs(want)))


@pytest.mark.parametrize("q, theta, s, P", [
    # where the planned closures' bars reached 9.0e-12, 4.1e-12 and 1.1e-12
    # of max |K_1| (by parts, a paired series and an unpaired one)
    (1.13, -3.04, -2.48, 0.33),
    (1.05, -math.pi, 0.0, 2.0 * math.pi),
    (1.05, math.pi - 0.05, 0.0, 2.0 * math.pi),
    # the rotated line's slow decay at low q: 480 nodes at 6.3e-6
    (1.05, 6.3e-6, 0.0, 2.0 * math.pi),
    (1.05, 0.03, 0.0, 2.0 * math.pi),
    (1.05, 0.07, 0.0, 2.0 * math.pi),
    (1.05, 0.11, 0.0, 2.0 * math.pi),
])
def test_lattice_kernel_at_low_q_within_a_tight_bar(q, theta, s, P):
    # against 30-digit lerchphi at 9 points of the period, the bar holds the
    # error and stays within 1e-12 of the kernel's size
    mpmath = pytest.importorskip("mpmath")
    kernel = LatticeKernel(q, theta, s, P, 0.0)
    ts = np.linspace(0.0, P, 9)
    got = kernel(ts)
    with mpmath.workdps(30):
        w = mpmath.expj(theta)
        front = w * mpmath.power(1j * mpmath.mpf(P), -q)
        want = np.array([complex(front * mpmath.lerchphi(w, q, 1 + (mpmath.mpf(t) - 1j * s) / P))
                         for t in ts.tolist()])
    err = np.abs(got - want)
    assert np.all(err <= kernel.bound), (err, kernel.bound)
    assert kernel.bound <= 1e-12 * np.max(np.abs(want)), (kernel.bound, np.max(np.abs(want)))


def test_gauss_legendre_panel_is_exact_through_degree_31():
    # the closure's panels take the 16-point rule from a table of doubles:
    # the first, on [0, 1/2], integrates y^k exactly for k <= 31
    y, wt = remainders._panel_table()[:2]
    for k in range(32):
        assert wt[:16] @ y[:16] ** k == pytest.approx(0.5 ** (k + 1) / (k + 1), rel=2e-15), k


# (theta, s) of the costliest builds among moment_mix's laws, by q
_COSTLY_PHASES = {4.0: [(3.1, 0.0)], 4.133: [(-0.1213, 0.0337)], 5.0: [(-0.1443, -1.0)]}


@pytest.mark.parametrize("q", [1.5, 2.1, 4.0, 4.133, 5.0, 13.0])
def test_lattice_kernel_direct_terms_are_bounded_at_every_phase(q):
    # no build sums more than 256 direct Lerch terms or evaluates f at more
    # than 1,024 quadrature nodes per point at any phase or line, and the
    # bar stays within 1e-11 of the kernel's size (P i)^-q
    P = 2.0 * math.pi
    grid = [(theta, s) for s in (0.0, 0.3, -0.3, 1.0, -1.0)
            for theta in np.linspace(-math.pi, math.pi, 181).tolist()]
    for theta, s in grid + _COSTLY_PHASES.get(q, []):
        kernel = LatticeKernel(q, theta, s, P, 0.0)
        assert kernel.terms <= 256, (theta, s, kernel.terms, kernel.closure)
        assert kernel.nodes <= 1024, (theta, s, kernel.nodes)
        assert kernel.closure in ("direct", "abel-plana")
        assert 0.0 < kernel.bound <= 1e-11 * P ** -q, (theta, s, kernel.bound)


def test_decay_bound_forms():
    # floats (the tail model) and arrays (the Pin engine) give one bound:
    # the smaller of the Gaussian-Mills and the algebraic one, and a = 0 the
    # algebraic one alone, without a warning
    T, q = np.array([0.5, 3.0, 40.0]), 3.5
    slow = 2.0 * T ** (1.0 - q) / (q - 1.0)
    mills = 2.0 * T ** -q * np.exp(-0.35 * T * T) / (0.7 * T)
    for a, want in ((0.0, slow), (0.7, np.minimum(mills, slow))):
        got = decay_bound(2.0, a, T, q)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        assert [decay_bound(2.0, a, t, q) for t in T.tolist()] == pytest.approx(got, rel=1e-14)
