import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pospart.errors import DomainError, PreconditionError
from pospart.remainders import (
    MomentOrder,
    cos_remainder,
    exp_remainder,
    exp_remainder_bound,
    inv_power,
    sin_remainder,
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
    assert cos_remainder(math.pi, -1) == pytest.approx(-1.0, abs=1e-15)
    assert sin_remainder(math.pi / 2, -1) == pytest.approx(1.0, abs=1e-15)


def test_sine_remainder_small_argument():
    want = 0.1 - math.sin(0.1)
    assert sin_remainder(0.1, 0) == pytest.approx(want, rel=1e-13)


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
    for x in (1e-6, 0.3 * radius, -0.8 * radius, radius, -radius):
        assert cos_remainder(x, m) == pytest.approx(tail(x, 2 * m + 2, 2, -1).real, rel=1e-13)
        assert sin_remainder(x, m) == pytest.approx(tail(x, 2 * m + 3, 2, -1).real, rel=1e-13)


@given(
    u=st.floats(min_value=-8.0, max_value=3.0),
    m=st.integers(min_value=0, max_value=6),
)
@settings(max_examples=200, deadline=None)
def test_imaginary_axis_bound(u, m):
    # explicit-constant envelope: |e_m(iu)| <= min(2|u|^m/m!, |u|^(m+1)/(m+1)!)
    u = math.copysign(10.0**u, u)
    val = abs(exp_remainder(1j * u, m))
    assert val <= exp_remainder_bound(u, m) * (1.0 + 1e-12)


def test_imaginary_axis_bound_log_grid():
    for u in np.logspace(-8, 3, 45):
        for m in range(0, 7):
            assert abs(exp_remainder(1j * u, m)) <= exp_remainder_bound(u, m) * (1 + 1e-12)


@given(
    re=st.floats(min_value=-20, max_value=20),
    im=st.floats(min_value=-20, max_value=20),
    m=st.integers(min_value=0, max_value=8),
)
@settings(max_examples=200, deadline=None)
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
    # the trig remainders are parts of exp_remainder(ix, 2m+1), so they
    # switch from the tail series where it does
    x = switch_radius(2 * m + 1)
    for fn in (cos_remainder, sin_remainder):
        below = fn(x * (1 - 1e-14), m)
        above = fn(x * (1 + 1e-14), m)
        assert abs(below - above) <= 1e-12 * (abs(below) + 1e-300)


def test_even_odd_reduction_identities():
    # Re[e_l(itx) / (it)^(p+1)] equals the real sine/cosine remainder forms
    for m in (1, 2, 3):
        for t in (0.2, 1.7, 9.3):
            for x in (-2.4, 0.3, 1.0):
                p_even = 2 * m
                lhs = (exp_remainder(1j * t * x, p_even - 1) * inv_power(0.0, t, p_even + 1)).real
                rhs = sin_remainder(t * x, m - 1) / t ** (2 * m + 1)
                assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(rhs)))
                p_odd = 2 * m - 1
                lhs = (exp_remainder(1j * t * x, p_odd - 1) * inv_power(0.0, t, p_odd + 1)).real
                rhs = cos_remainder(t * x, m - 1) / t ** (2 * m)
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
