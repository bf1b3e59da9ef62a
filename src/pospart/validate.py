"""The registry of cross-checks of the transform pipeline.

Each check tests the pipeline against an independent oracle or an exact
identity and reports one pass/fail line.  These checks are the only copy of
the criteria: the CLI ``validate`` command and the acceptance gate
(``tests/test_acceptance.py``) both run them.  The full suite is the
acceptance grade; the quick suite trims grids and Monte Carlo sizes.

``run_suite`` returns the checks' results in registry order.  On Linux,
when the process may run on more than one CPU and no other Python thread
is alive, it forks one child process that runs the point-mass and pin-bound
checks, about half of the suite's time, while the calling process runs the
others in registry order; the child sends its results back through a pipe,
pickled, and the caller reaps it before returning or raising.  A side check
the child did not report (it raised, its result would not pickle, or the
child died) runs again in the caller, so exceptions surface in registry
order as in a serial run.  Otherwise, or if the fork fails, every check
runs in order in the calling process.  The Monte Carlo sample comes from its own seeded
generator, so the results are identical either way.
"""

from __future__ import annotations

import inspect
import math
import os
import pickle
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .distributions import FiniteDiscrete, Normal, PointMass
from .errors import PreconditionError
from .moments import i_p, improper_cf_moment, j_p, match_discrete, ppm_cf, ppm_diff, ppm_laplace
from .oracles import density_ppm, mc_tail, naive_series_ppm
from .quadrature import IntegrandProfile, integrate_halfline
from .remainders import MomentOrder
from .tailbound import TailBoundProblem, eta_spec, pin, pin_curve

__all__ = ["ValidationCheck", "run_suite", "SUITES", "QUADRATURE_CASES"]


@dataclass
class ValidationCheck:
    check_id: str
    label: str
    passed: bool
    detail: str


def _check_point_mass(quick: bool, seed: int) -> ValidationCheck:
    xs = (-1.0, 0.1, 5.0) if quick else (-5.0, -1.0, -0.1, 0.0, 0.1, 1.0, 5.0)
    ps = (0.5, 2.0, 3.8) if quick else (0.3, 0.5, 1.0, 1.7, 2.0, 2.5, 3.0, 3.8)
    # np.max propagates a NaN that the builtin max can drop, so a NaN fails the check
    worst = float(np.max([
        abs(ppm_cf(PointMass(x), p, 1e-9).value - max(x, 0.0) ** p) / (1e-8 * (1.0 + abs(x) ** p))
        for x in xs for p in ps
    ]))
    return ValidationCheck(
        "point-mass", "atom identity E X_+^p = x_+^p", worst <= 1.0,
        f"worst error at {worst:.3g} of tolerance",
    )


def _check_gaussian(quick: bool, seed: int) -> ValidationCheck:
    r1 = ppm_cf(Normal(0.0, 1.0), 1.0, 1e-10)
    r2 = ppm_cf(Normal(0.0, 1.0), 2.0, 1e-10)
    d1 = density_ppm(Normal(0.0, 1.0), 1.0)
    ok = abs(r1.value - d1.value) <= 1e-8 and abs(r1.value - 0.3989423) <= 1e-7
    ok = ok and abs(r2.value - 0.5) <= 1e-8
    return ValidationCheck(
        "gaussian", "standard normal orders 1 and 2 vs density oracle", ok,
        f"p=1 gap {abs(r1.value - d1.value):.2e}, p=2 gap {abs(r2.value - 0.5):.2e}",
    )


def _check_method_agreement(quick: bool, seed: int) -> ValidationCheck:
    specs = [PointMass(1.3), Normal(0.4, 0.6)] if quick else [
        PointMass(1.3),
        FiniteDiscrete(((-1.0, 0.5), (1.0, 0.5))),
        Normal(0.0, 1.0),
        Normal(0.4, 0.6),
    ]
    ps = (0.5, 2.0) if quick else (0.5, 1.0, 2.0, 2.5, 3.0)
    gaps = []
    for spec in specs:
        for p in ps:
            vals = [ppm_laplace(spec, p, s, -1, 1e-9) for s in (0.3, 1.0)]
            vals += [ppm_cf(spec, p, 1e-9), ppm_diff(spec, match_discrete(spec, p), p, 1e-9)]
            gaps += [abs(a.value - b.value)
                     / (a.reported_error + b.reported_error + 4e-16 * (1 + abs(a.value)))
                     for a in vals for b in vals]
    worst = float(np.max(gaps))
    return ValidationCheck(
        "agreement", "Laplace/CF/difference routes agree within reported errors",
        worst <= 1.0, f"worst gap at {worst:.3f} of combined budget",
    )


def _check_compound(quick: bool, seed: int) -> ValidationCheck:
    cases = [(1.0, 1.0, 0.5, 0.0)] if quick else [
        (1.0, 1.0, 0.5, -1.0), (1.0, 1.0, 0.5, 0.0), (1.0, 1.0, 0.5, 1.0),
        (1.0, 0.3, 0.2, -1.0), (1.0, 0.3, 0.2, 0.0), (1.0, 0.3, 0.2, 1.0),
    ]
    gaps = []
    for sigma, y, eps, t in cases:
        problem = TailBoundProblem(sigma, y, eps)
        for p in (2, 3):
            oracle = naive_series_ppm(problem, t, p)
            got = ppm_laplace(eta_spec(problem, t), float(p), min(1.0 / y, 2.0 / sigma), -1, 1e-10)
            gaps.append(abs(got.value - oracle.value) / abs(oracle.value) / 1e-6)
    worst = float(np.max(gaps))
    return ValidationCheck(
        "compound", "Gaussian+Poisson vs naive series oracle", worst <= 1.0,
        f"worst relative gap at {worst:.4f} of 1e-6",
    )


def _check_tail_integrals(quick: bool, seed: int) -> ValidationCheck:
    ok = True
    details = []
    for p in (0.5,) if quick else (0.25, 0.5, 0.75, 1.5, 2.5):
        z = abs(i_p(p, 0.0))
        ok = ok and z <= 1e-9
        details.append(f"I({p},0)={z:.1e}")
    sc = abs(j_p(0.5, 3.0, 0.2) - 3.0**0.5 * i_p(0.5, 0.6))
    ok = ok and sc <= 1e-10 * 3.0**0.5 * abs(i_p(0.5, 0.6))
    details.append(f"scaling gap={sc:.1e}")
    return ValidationCheck("tail-integrals", "I_p vanishes at 0; J_p scaling", ok,
                           ", ".join(details))


def _check_improper(quick: bool, seed: int) -> ValidationCheck:
    # the gap to the moment must shrink like a power of v: every gap positive
    # and the log-log slope of gap against v at least 0.45 (p - ell)
    vs = [1.0, 0.1, 0.01] if quick else [1.0, 0.3, 0.1, 0.03, 0.01]
    ok = True
    details = []
    for spec, name in ((PointMass(-1.0), "atom(-1)"), (Normal(0.0, 1.0), "normal")):
        for p in (0.5,) if quick else (0.5, 1.5):
            target = ppm_cf(spec, p, 1e-11).value
            gaps = [abs(val - target) for _, val in improper_cf_moment(spec, p, vs, 1e-10)]
            positive = all(0.0 < g < math.inf for g in gaps)
            slope = float(np.polyfit(np.log(vs), np.log(gaps), 1)[0]) if positive else math.nan
            ok = ok and gaps[-1] < gaps[0] and slope >= 0.45 * (p - MomentOrder.from_p(p).ell)
            details.append(f"{name} p={p}: gap {gaps[0]:.1e}->{gaps[-1]:.1e}")
    return ValidationCheck("improper", "improper CF convergents approach the moment",
                           ok, "; ".join(details))


def _check_pin(quick: bool, seed: int) -> ValidationCheck:
    # the levels are solved together and share one Monte Carlo sample
    problem = TailBoundProblem(1.0, 1.0, 0.5)
    n = 10**5 if quick else 10**6
    xs = (2.0,) if quick else (1.0, 2.0, 3.0)
    rows = pin(problem, xs, rel_tol=1e-9)
    tails = mc_tail(eta_spec(problem, 0.0), xs, n, seed)
    ok = True
    details = []
    for row, tail in zip(rows, tails):
        ok = ok and 0.0 < row.pin <= 1.0 and row.residual <= 1e-9
        ok = ok and tail.value <= row.pin + tail.half_width
        details.append(f"x={row.x}: pin={row.pin:.5f} mc={tail.value:.5f}")
    return ValidationCheck("pin-bound", "bound dominates the Monte Carlo tail",
                           ok, "; ".join(details))


def _check_curve(quick: bool, seed: int) -> ValidationCheck:
    problem = TailBoundProblem(1.0, 1.0, 0.5)
    steps = 21 if quick else 101
    rows = pin_curve(problem, 0.0, 5.0, steps, rel_tol=1e-7, tol_x=1e-9)
    ok = len(rows) == steps and all(
        not r.is_failure() and 0.0 < r.pin <= 1.0 and r.residual <= 1e-9 for r in rows)
    return ValidationCheck(
        "curve", f"{steps}-point bound curve: every row valid, residuals in tolerance", ok,
        f"pin range [{rows[-1].pin:.3e}, {rows[0].pin:.5f}]",
    )


# closed-form half-line integrals (name, integrand, profile, exact value);
# the test corpus builds its entries of these names from this table
QUADRATURE_CASES = (
    ("exp", lambda t: np.exp(-t), IntegrandProfile(0.0, lambda T: math.exp(-T)), 1.0),
    ("rsqrt_box", lambda t: np.where(t <= 1.0, 1.0 / np.sqrt(np.maximum(t, 1e-300)), 0.0),
     IntegrandProfile(-0.5, lambda T: 0.0 if T >= 1.0 else 2.0 * (1.0 - math.sqrt(T))), 2.0),
    ("lorentz", lambda t: 1.0 / (1.0 + t * t), IntegrandProfile(0.0, lambda T: 1.0 / T),
     math.pi / 2.0),
    ("gauss", lambda t: np.exp(-0.5 * t * t),
     IntegrandProfile(0.0, lambda T: math.sqrt(math.pi / 2) if T < 1.0
                      else math.exp(-0.5 * T * T) / T),
     math.sqrt(math.pi / 2.0)),
)


def _check_quadrature(quick: bool, seed: int) -> ValidationCheck:
    # every value of the closed-form table inside the reported error envelope
    ok = True
    worst = 0.0
    for _, f, profile, exact in QUADRATURE_CASES:
        r = integrate_halfline(f, profile, 1e-9)
        achieved = abs(r.value - exact)
        ok = ok and achieved <= r.total_error
        worst = max(worst, achieved / max(r.total_error, 1e-300))
    return ValidationCheck(
        "quadrature", "closed-form integrals inside the reported envelope",
        ok, f"worst achieved/reported = {worst:.3f}",
    )


SUITES = {
    "quick": True,
    "full": False,
}

_CHECKS = [
    _check_point_mass,
    _check_gaussian,
    _check_method_agreement,
    _check_compound,
    _check_tail_integrals,
    _check_improper,
    _check_pin,
    _check_curve,
    _check_quadrature,
]


# the checks the child process runs, about half of the full suite's time
_SIDE = (_check_point_mass, _check_pin)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _may_fork() -> bool:
    """Linux, a second CPU for the child, and no other Python thread, whose
    locks the child could inherit held."""
    return sys.platform == "linux" and _usable_cpus() >= 2 and threading.active_count() == 1


def _run_side(checks, side, quick: bool, seed: int, fd: int) -> None:
    """The child's work: each side check's (index, result), pickled onto the
    pipe fd as it is done; a check that raises or whose result does not
    pickle is left out, for the caller to run again."""
    with open(fd, "wb", buffering=0) as pipe:
        for i in side:
            try:
                record = pickle.dumps((i, checks[i](quick, seed)))
            except Exception:
                continue
            pipe.write(record)


def _collect(fd: int, pid: int) -> dict:
    """The child's results by registry index, read from the pipe fd to EOF;
    the child is reaped before this returns."""
    reported = {}
    try:
        with open(fd, "rb") as pipe:
            while True:
                i, result = pickle.load(pipe)
                reported[i] = result
    except (EOFError, pickle.UnpicklingError):
        pass   # EOF, or a record cut short by a child that died writing it
    finally:
        os.waitpid(pid, 0)
    return reported


def run_suite(suite: str, seed: int = 0) -> list[ValidationCheck]:
    """The suite's checks, in registry order; see the module docstring for
    the ones that may run in a child process.  An exception surfaces as it
    would running the checks one by one, and no child process is left when
    this returns or raises."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if seed < 0:
        # the Monte Carlo check seeds its generator with seed
        raise PreconditionError(f"seed must be a non-negative integer, got {seed}")
    quick = SUITES[suite]
    checks = _CHECKS
    # a wrapped entry (functools.wraps) is still a side check
    side = [i for i, chk in enumerate(checks) if inspect.unwrap(chk) in _SIDE]
    if not side or not _may_fork():
        return [chk(quick, seed) for chk in checks]
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:   # out of processes or memory: run serially
        os.close(read)
        os.close(write)
        return [chk(quick, seed) for chk in checks]
    if pid == 0:
        try:
            os.close(read)
            _run_side(checks, side, quick, seed, write)
        finally:
            os._exit(0)
    os.close(write)
    results = [None] * len(checks)
    stop, error = len(checks), None
    try:
        for i, chk in enumerate(checks):
            if i not in side:
                try:
                    results[i] = chk(quick, seed)
                except Exception as exc:
                    stop, error = i, exc
                    break
    finally:
        reported = _collect(read, pid)
    # a side check before the first failure that the child did not report
    # runs here, and its exception comes first
    for i in side:
        if i < stop:
            results[i] = reported[i] if i in reported else checks[i](quick, seed)
    if error is not None:
        raise error
    return results
