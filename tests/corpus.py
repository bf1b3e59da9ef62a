"""Validation corpus: 20 half-line integrals with closed forms.

Spans endpoint exponents in (-0.9, 0], algebraic tails t^-q with q in
(1.3, 4), exponential and Gaussian decay, and oscillation (with by-parts
closed-form tails where the decay alone would put the truncation point out
of reach).  Each entry carries the exact value, an integrand, a profile
factory, and the rel_tol it is meant to run at.  The exp, gauss, rsqrt_box
and lorentz entries are the closed-form table of ``validate``'s quadrature
check, each at its own rel_tol here.
"""

import math
from dataclasses import dataclass
from typing import Callable

import mpmath
import numpy as np

from pospart.quadrature import IntegrandProfile
from pospart.validate import QUADRATURE_CASES

TWO_PI = 2.0 * math.pi


@dataclass
class CorpusEntry:
    name: str
    f: Callable
    profile: IntegrandProfile
    exact: float
    rel_tol: float


_CLOSED = {name: (f, profile, exact) for name, f, profile, exact in QUADRATURE_CASES}


def _closed(name: str, rel_tol: float) -> CorpusEntry:
    """The entry of validate's closed-form table, at its own rel_tol."""
    return CorpusEntry(name, *_CLOSED[name], rel_tol)


def build_corpus() -> list[CorpusEntry]:
    entries = []

    entries.append(_closed("exp", 1e-10))

    entries.append(CorpusEntry(
        "t_exp", lambda t: t * np.exp(-t),
        IntegrandProfile(0.0, lambda T: (T + 1.0) * math.exp(-T)),
        1.0, 1e-10))

    entries.append(_closed("gauss", 1e-10))

    entries.append(_closed("rsqrt_box", 1e-9))

    entries.append(CorpusEntry(
        "steep_box", lambda t: np.where(t <= 1.0, np.maximum(t, 1e-300) ** -0.9, 0.0),
        IntegrandProfile(-0.9, lambda T: 0.0 if T >= 1.0 else 10.0 * (1.0 - T**0.1)),
        10.0, 1e-8))

    entries.append(CorpusEntry(
        "rsqrt_exp", lambda t: np.exp(-t) / np.sqrt(t),
        IntegrandProfile(-0.5, lambda T: math.exp(-T) / math.sqrt(max(T, 1e-30))),
        math.sqrt(math.pi), 1e-10))

    # |int_T^inf e^-t sin t| = e^-T |sin(T + pi/4)| / sqrt(2)
    entries.append(CorpusEntry(
        "damped_sine", lambda t: np.exp(-t) * np.sin(t),
        IntegrandProfile(0.0, lambda T: 0.7072 * math.exp(-T), max_panel_width=TWO_PI),
        0.5, 1e-10))

    # int_T^inf sin(t) t^-1.5 by parts, three closed terms
    def _cf_fresnel(T):
        return (math.cos(T) * T**-1.5 + 1.5 * math.sin(T) * T**-2.5
                - 15.0 / 4.0 * math.cos(T) * T**-3.5)

    entries.append(CorpusEntry(
        "fresnel", lambda t: np.sin(t) * np.maximum(t, 1e-300) ** -1.5,
        IntegrandProfile(-0.5, lambda T: (105.0 / 8.0) * (2.0 / 7.0) * T**-3.5,
                         tail_closed_form=_cf_fresnel, max_panel_width=math.pi),
        math.sqrt(2.0 * math.pi), 1e-9))

    # int_0^inf t^2/(1+t^2)^2 = pi/4
    entries.append(CorpusEntry(
        "atan_tail", lambda t: t * t / (1.0 + t * t) ** 2,
        IntegrandProfile(0.0, lambda T: 1.0 / T),
        math.pi / 4.0, 1e-9))

    entries.append(_closed("lorentz", 1e-9))

    entries.append(CorpusEntry(
        "quartic_tail", lambda t: (1.0 + t) ** -4.0,
        IntegrandProfile(0.0, lambda T: (1.0 + T) ** -3.0 / 3.0),
        1.0 / 3.0, 1e-10))

    entries.append(CorpusEntry(
        "singular_lorentz",
        lambda t: np.maximum(t, 1e-300) ** -0.3 / (1.0 + t * t),
        IntegrandProfile(-0.3, lambda T: T**-1.3 / 1.3),
        math.pi / (2.0 * math.sin(0.35 * math.pi)), 1e-9))

    # |int_T^inf e^-t cos 5t| <= e^-T / sqrt(26)
    entries.append(CorpusEntry(
        "damped_cos5", lambda t: np.exp(-t) * np.cos(5.0 * t),
        IntegrandProfile(0.0, lambda T: 0.1962 * math.exp(-T), max_panel_width=TWO_PI / 5.0),
        1.0 / 26.0, 1e-10))

    entries.append(CorpusEntry(
        "gauss_square", lambda t: t * t * np.exp(-0.5 * t * t),
        IntegrandProfile(0.0, lambda T: 1.1 * (T + 1.0 / max(T, 1.0)) * math.exp(-0.5 * T * T)),
        math.sqrt(math.pi / 2.0), 1e-10))

    entries.append(CorpusEntry(
        "cubic_peak", lambda t: t / (1.0 + t * t) ** 2,
        IntegrandProfile(0.0, lambda T: 0.5 / (1.0 + T * T)),
        0.5, 1e-10))

    # int_0^inf t^(a-1) (1+t)^(-a-b) = B(a, b)
    entries.append(CorpusEntry(
        "beta_tail",
        lambda t: np.maximum(t, 1e-300) ** -0.4 * (1.0 + t) ** -1.8,
        IntegrandProfile(-0.4, lambda T: T**-0.4 * (1.0 + T) ** -0.8 / 1.2 if T > 0 else math.inf),
        float(mpmath.beta(0.6, 1.2)), 1e-9))

    # sin^2 t / t^2 = 1/(2t^2) - cos(2t)/(2t^2); slow part in closed form,
    # oscillatory part by parts to third order
    entries.append(CorpusEntry(
        "sinc_square",
        lambda t: (np.sin(t) / np.maximum(t, 1e-300)) ** 2,
        IntegrandProfile(0.0, lambda T: 0.26 / T**3,
                         tail_closed_form=lambda T: (0.5 / T + math.sin(2.0 * T) / (4.0 * T * T)
                                                     - math.cos(2.0 * T) / (4.0 * T**3)),
                         max_panel_width=0.5 * math.pi),
        math.pi / 2.0, 1e-9))

    # Gamma(0.4) with a steeper endpoint and exponential decay
    def _pow_exp_env(T):
        if T < 1.0:
            return math.gamma(0.4)
        return (T**-0.6 + 0.6 * T**-1.6) * math.exp(-T)

    entries.append(CorpusEntry(
        "power_exp",
        lambda t: np.maximum(t, 1e-300) ** -0.6 * np.exp(-t),
        IntegrandProfile(-0.6, _pow_exp_env),
        math.gamma(0.4), 1e-9))

    entries.append(CorpusEntry(
        "exp_integral", lambda t: np.exp(-0.5 * t) / (1.0 + t),
        IntegrandProfile(0.0, lambda T: 2.0 * math.exp(-0.5 * T) / (1.0 + T)),
        math.exp(0.5) * float(mpmath.e1(0.5)), 1e-10))

    def _sqrt_exp_env(T):
        if T < 1.0:
            return 0.5 * math.sqrt(math.pi)
        return (math.sqrt(T) + 0.5 / math.sqrt(T)) * math.exp(-T)

    entries.append(CorpusEntry(
        "sqrt_exp", lambda t: np.sqrt(t) * np.exp(-t),
        IntegrandProfile(0.5, _sqrt_exp_env),
        0.5 * math.sqrt(math.pi), 1e-10))

    assert len(entries) == 20
    return entries
