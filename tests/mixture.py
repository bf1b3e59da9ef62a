"""Independent references for X = N(0, var) + y (N - lam) + c, N ~ Poisson(lam).

X is a Poisson mixture of Gaussians: given N = n it is normal with mean
y (n - lam) + c.  Nothing here calls the pospart numerics.  The Poisson
window lam +- (10 sqrt(lam) + 30) leaves out mass far below 1e-20 at the
rates the tests use.
"""

import math

import numpy as np


def poisson_weights(lam):
    """(n, P(N = n)) over the window.  Log ratios log(lam / n) are
    accumulated from the mode, so no large lgamma values cancel, and the
    weights are normalised over the window.  (log1p((lam - n) / n) lost
    eps / lam relative at small rates: 1e-10 of P(N = 1) at lam = 1e-6.)"""
    half = 10.0 * math.sqrt(lam) + 30.0
    lo = max(0, int(lam - half))
    ns = np.arange(lo, int(lam + half) + 1, dtype=float)
    k = int(lam) - lo
    log_w = np.zeros_like(ns)
    log_w[k + 1:] = np.cumsum(np.log(lam / ns[k + 1:]))
    log_w[:k] = np.cumsum(-np.log(lam / ns[1:k + 1])[::-1])[::-1]
    w = np.exp(log_w)
    return ns, w / math.fsum(w)


def mixture_ppm(var, lam, y, c, ps):
    """{p: E X_+^p} for p in ps: x^p against the mixture density, integrated
    over x = u^2, u in [0, 4], by 20-point Gauss-Legendre on panels 0.1 wide
    (the integrand 2 u^(2p+1) f(u^2) is smooth).  At lam = 100 it agrees
    with 30-digit mpmath sums of the Gaussian moments in closed form to
    2e-16 relative, and halving the panels or widening u or the window
    moves no digit."""
    ns, w = poisson_weights(lam)
    x, wx = np.polynomial.legendre.leggauss(20)
    mids = np.arange(0.05, 4.0, 0.1)
    u = (mids[:, None] + 0.05 * x).ravel()
    wu = np.tile(0.05 * wx, mids.size)
    m = y * (ns - lam) + c
    dens = np.zeros_like(u)
    for i in range(0, m.size, 4096):
        d = (u * u)[:, None] - m[i:i + 4096]
        dens += np.exp(-0.5 * d * d / var) @ w[i:i + 4096]
    dens /= math.sqrt(2.0 * math.pi * var)
    return {p: math.fsum(wu * 2.0 * u ** (2.0 * p + 1.0) * dens) for p in ps}


def _left_tail_j23(x):
    """(E (Z - x)_+^2, E (Z - x)_+^3) for x >= 1 without cancellation: they
    are 2 Hh_2(x) and 6 Hh_3(x), and the ratios r_n = Hh_n / Hh_(n-1), with
    Hh_(-1) = phi, satisfy r_n = 1 / (x + (n + 1) r_(n+1)), run backward from
    n = 400 (the continued fraction of the Mills ratio and its successors).
    Against 40-digit mpmath they are within 4e-16 relative from x = 1 on."""
    r = np.zeros_like(x)
    ratios = [None] * 4
    for n in range(399, -1, -1):
        r = 1.0 / (x + (n + 1.0) * r)
        if n < 4:
            ratios[n] = r
    h2 = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * ratios[0] * ratios[1] * ratios[2]
    return 2.0 * h2, 6.0 * h2 * ratios[3]


def mixture_ppm23(var, lam, y, c):
    """(E X_+^2, E X_+^3) as the Poisson-weighted sums of the Gaussian
    moments in closed form, with a = m / s:
    E (m + s Z)_+^2 = (m^2 + s^2) Phi(a) + m s phi(a) and
    E (m + s Z)_+^3 = (m^3 + 3 m s^2) Phi(a) + s (m^2 + 2 s^2) phi(a).
    Those forms cancel in a component's left tail, by about a^4 at a << 0,
    so components with a < -1 take s^p E (Z + a)_+^p from _left_tail_j23."""
    ns, w = poisson_weights(lam)
    s = math.sqrt(var)
    m = y * (ns - lam) + c
    a = m / s
    # Phi(a) from erfc, which is accurate where it is used (a >= -1 below)
    cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in a.tolist()])
    pdf = np.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
    mu2 = (m * m + var) * cdf + m * s * pdf
    mu3 = (m * m + 3.0 * var) * m * cdf + s * (m * m + 2.0 * var) * pdf
    tail = a < -1.0
    j2, j3 = _left_tail_j23(-a[tail])
    mu2[tail], mu3[tail] = var * j2, var * s * j3
    return math.fsum(w * mu2), math.fsum(w * mu3)


def mixture_ppm23_mp(var, lam, y, c, dps=30):
    """mixture_ppm23 in mpmath at dps digits, for arguments far enough in
    the tail that the float weights or moments underflow."""
    import mpmath as mp

    with mp.workdps(dps):
        lam, y, var, c = mp.mpf(lam), mp.mpf(y), mp.mpf(var), mp.mpf(c)
        s = mp.sqrt(var)
        half = 10 * mp.sqrt(lam) + 30
        mu2 = mu3 = mp.mpf(0)
        for n in range(max(0, int(lam - half)), int(lam + half) + 1):
            w = mp.exp(n * mp.log(lam) - lam - mp.loggamma(n + 1))
            m = y * (n - lam) + c
            cdf, pdf = mp.ncdf(m / s), mp.npdf(m / s)
            mu2 += w * ((m * m + var) * cdf + m * s * pdf)
            mu3 += w * ((m * m + 3 * var) * m * cdf + s * (m * m + 2 * var) * pdf)
        return float(mu2), float(mu3)
