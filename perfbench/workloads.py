"""Seeded inputs and checked operations for the benchmark workloads.

Every workload is a closed loop: one process, one operation at a time.  The
inputs follow a Halton sequence: operation i maps to the i-th point of a
low-discrepancy sequence over the workload's parameter ranges, and the seed
jitters every coordinate of every point by up to 1/128 of its range.  Any
prefix of the sequence covers the ranges evenly, so a run that stops after
however many operations fit in its time still sees every regime at close to
its share of the ranges, and runs with different seeds execute different but
comparable inputs.  The per-operation cost spans 0.5 ms to tens of seconds
across these ranges; a design that drew each input independently would make
every timing depend on how many expensive draws a run happened to get.  No
regime is excluded: the failing corners appear at the share the ranges give
them.

An operation's ``run`` is the only timed part.  Its ``check`` compares the
output with an independent reference (see reference.py) and returns None or
the reason the operation failed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import io
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

import numpy as np

WORKLOADS = ("curve", "moment_mix", "cli_cold", "validate_full")

CURVE_STEPS = 101
CURVE_REL_TOL = 1e-7
CURVE_TOL_X = 1e-9
CURVE_CHECKED_ROWS = 3
CURVE_MOMENT_RTOL = 1e-6          # the acceptance suite's (A4) tolerance
ETA_REL_TOL = 5e-11               # solve_tx's moment tolerance at tol_x = 1e-9
MOMENT_REL_TOL = 1e-9             # the CLI default
MOMENT_ROUTES = ("cf", "laplace", "negative", "diff", "eta")
LAWS = ("point", "discrete", "normal", "cpoisson", "normal_cpoisson")
# Guard against a hung operation: one still running after HANG_LIMIT_S
# (wall clock) is interrupted and counts as failed.  It is not a latency
# criterion, which would make the set of failed operations depend on the
# host's speed: with the work limit below, no operation in the ranges takes
# more than about 5 s on the baseline host.
HANG_LIMIT_S = 60.0
# Work limit per moment request, in tail-model terms (see TailMeter).  The
# cost of a few requests jumps by 10x between neighbouring inputs: a diff
# request on cpoisson(lam ~ 40) takes 4 s at one seed and 43 s at another,
# nearly all of it in the analytic tail model, which sums one term per atom
# of the law on every call.  A request past the limit stops and counts as
# failed.  The limit is counted, not timed, so the same requests fail on
# every run of the same code.  It is about 2 s of that diff request on the
# baseline host, and four times the most (25k terms) that any request below
# it in a run uses.
TAIL_TERMS_LIMIT = 100_000
# A run is a fixed number of operations: whole cycles, as many as take
# --seconds at the baseline's host-scaled cost per operation (NOMINAL_OP_S).
# A moment_mix cycle holds each (route, law) cell twice; its median needs
# that many requests to settle.
CYCLE = {"curve": 1, "moment_mix": 50, "cli_cold": 1, "validate_full": 1}
NOMINAL_OP_S = {"curve": 1.25, "moment_mix": 0.31, "cli_cold": 1.15, "validate_full": 1.45}


def op_count(name: str, seconds: float) -> int:
    cycle = CYCLE[name]
    return cycle * max(1, round(seconds / (NOMINAL_OP_S[name] * cycle)))


@dataclass
class Op:
    kind: str                       # route or operation type, names the root span
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


# ---------------------------------------------------------------------------
# Jittered Halton sequence
# ---------------------------------------------------------------------------

_BASES = (2, 3, 7, 11, 13, 17)   # coprime to the 25-request moment_mix cycle


def _radical_inverse(i: int, base: int) -> float:
    out, f = 0.0, 1.0 / base
    while i > 0:
        i, digit = divmod(i, base)
        out += digit * f
        f /= base
    return out


JITTER = 1.0 / 64.0   # full width of the seeded jitter per coordinate


class Design:
    """Point i of a Halton sequence, jittered by the seed."""

    def __init__(self, seed: int, salt: int):
        self.seed = seed
        self.salt = salt

    def point(self, i: int) -> list[float]:
        jitter = np.random.default_rng([self.seed, self.salt, i, 0]).random(len(_BASES)) - 0.5
        out = []
        for b, j in zip(_BASES, jitter):
            u = _radical_inverse(i + 1, b) + JITTER * float(j)
            out.append(-u if u < 0.0 else (2.0 - u if u >= 1.0 else u))  # reflect into [0, 1)
        return out

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.salt, i])


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


# ---------------------------------------------------------------------------
# curve: one 101-point Pin curve per problem
# ---------------------------------------------------------------------------


def curve_problems(seed: int) -> Iterator[tuple[float, float, float]]:
    """(sigma, y, eps): the A8 problem first, then y/sigma log-uniform in
    [0.05, 10] and eps uniform in [0.05, 0.95].  Larger y/sigma at small eps
    costs about 50 s per level and is reached through moment_mix's eta
    requests instead."""
    yield (1.0, 1.0, 0.5)
    design = Design(seed, 1)
    i = 0
    while True:
        u = design.point(i)
        yield (1.0, _log_uniform(u[0], 0.05, 10.0), 0.05 + 0.9 * u[1])
        i += 1


def _check_curve(problem, rows, seed: int, index: int) -> Optional[str]:
    import reference  # checks run after timing; keeps mpmath out of set-up
    if len(rows) != CURVE_STEPS:
        return f"{len(rows)} rows"
    for r in rows:
        if r.is_failure():
            return f"row x={r.x:g} failed: {r.error}"
        vals = (r.t_x, r.pin, r.mu2, r.mu3, r.residual)
        if not all(math.isfinite(v) for v in vals):
            return f"row x={r.x:g} not finite"
        if not 0.0 < r.pin <= 1.0:
            return f"row x={r.x:g} pin={r.pin!r} outside (0, 1]"
        if r.residual > CURVE_TOL_X:
            return f"row x={r.x:g} residual {r.residual:.3g} > tol_x"
    picks = np.random.default_rng([seed, 2, index]).choice(CURVE_STEPS, CURVE_CHECKED_ROWS,
                                                           replace=False)
    for k in sorted(int(i) for i in picks):
        r = rows[k]
        (mu2, e2), (mu3, e3) = reference.eta_moments_reference(
            problem.sigma, problem.y, problem.eps, r.t_x)
        for got, want, err, name in ((r.mu2, mu2, e2, "mu2"), (r.mu3, mu3, e3, "mu3")):
            if abs(got - want) > CURVE_MOMENT_RTOL * abs(want) + err:
                return f"row x={r.x:g} {name}={got!r}, reference {want!r}"
    return None


def curve_ops(pp, seed: int) -> Iterator[Op]:
    for index, (sigma, y, eps) in enumerate(curve_problems(seed)):
        problem = pp.TailBoundProblem(sigma, y, eps)

        def run(problem=problem):
            return pp.pin_curve(problem, 0.0, 5.0 * problem.sigma, CURVE_STEPS,
                                rel_tol=CURVE_REL_TOL, tol_x=CURVE_TOL_X)

        def check(rows, problem=problem, index=index):
            return _check_curve(problem, rows, seed, index)

        yield Op("curve", f"curve(sigma={sigma!r}, y={y!r}, eps={eps!r})", run, check)


# ---------------------------------------------------------------------------
# moment_mix: single requests across routes, laws and orders
# ---------------------------------------------------------------------------

# (route, law) cells: every route takes a fifth of the requests, laws are
# uniform within it, and the eta route uses the normal+cpoisson surrogate
# only.  Request i goes to cell (7 i) mod 25, so every 25 consecutive
# requests hold each cell once, routes interleaved.
_CELLS = ([(r, law) for r in MOMENT_ROUTES[:4] for law in LAWS]
          + [("eta", "normal_cpoisson")] * len(LAWS))


class WorkLimitExceeded(Exception):
    pass


class TailMeter:
    """Counts the tail-model work of the current request and stops it past
    the limit.

    Rebinds ``integrate_halfline`` in every loaded pospart module (the way
    layertrace.py does) so the profile it receives gets counting wrappers
    around ``tail_envelope`` and ``tail_closed_form``.  A call costs one term
    per harmonic (atom) the model sums over, and at least one.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.terms = 0
        self._installed = False

    def install(self, pp) -> None:
        if self._installed:
            return
        original = pp.quadrature.integrate_halfline
        meter = self

        def integrate_halfline(f, profile, *args, **kwargs):
            profile = dataclasses.replace(profile,
                                          tail_envelope=meter._wrap(profile.tail_envelope),
                                          tail_closed_form=meter._wrap(profile.tail_closed_form))
            return original(f, profile, *args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name == "pospart" or name.startswith("pospart."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, integrate_halfline)
        self._installed = True

    def _wrap(self, fn):
        if fn is None:
            return None
        model = getattr(inspect.unwrap(fn), "__self__", None)
        cost = max(1, len(getattr(model, "harmonics", ())))
        meter = self

        def counted(*args, **kwargs):
            meter.terms += cost
            if meter.terms > meter.limit:
                raise WorkLimitExceeded(f"more than {meter.limit} tail-model terms")
            return fn(*args, **kwargs)

        return counted

    def run(self, fn):
        self.terms = 0
        return fn()


TAIL_METER = TailMeter(TAIL_TERMS_LIMIT)


def _order(u: float, integer_only: bool) -> float:
    """p in (0, 4]: integers 1..4 on half the range, fractional elsewhere."""
    if integer_only or u < 0.5:
        return float(1 + int((u % 0.5) * 8.0))
    p = (u - 0.5) * 8.0
    return p if p != int(p) else p + 0.5


def _law(pp, law: str, u: list[float], rng) -> tuple[Any, float]:
    """A spec and the scale used to place the Laplace line s = 1/scale."""
    if law == "point":
        x = _log_uniform(u[1], 0.01, 10.0) * (-1.0 if u[4] < 0.3 else 1.0)
        return pp.PointMass(x), abs(x)
    if law == "discrete":
        k = 2 + int(u[4] * 5)
        scale = _log_uniform(u[1], 0.1, 10.0)
        xs = scale * rng.standard_normal(k)
        ws = rng.dirichlet(np.ones(k)) * 0.9 + 0.1 / k
        ws = [float(w) for w in ws[:-1]]
        atoms = tuple(zip((float(x) for x in xs), ws + [1.0 - math.fsum(ws)]))
        return pp.FiniteDiscrete(atoms), float(np.max(np.abs(xs)))
    if law == "normal":
        sd = _log_uniform(u[1], 0.1, 10.0)
        mu = sd * (4.0 * u[4] - 2.0)
        return pp.Normal(mu, sd * sd), sd + abs(mu)
    if law == "cpoisson":
        lam = _log_uniform(u[1], 1e-6, 1e6)
        return pp.CenteredScaledPoisson(lam, 1.0), max(1.0, math.sqrt(lam))
    raise ValueError(law)


def _surrogate(pp, u: list[float]):
    """Tail-bound surrogate eta - t: sigma = 1, y log-uniform in [1e-4, 1e2],
    eps uniform in [0.05, 0.95], t uniform in [-1, 3]."""
    problem = pp.TailBoundProblem(1.0, _log_uniform(u[1], 1e-4, 1e2), 0.05 + 0.9 * u[3])
    return problem, 4.0 * u[4] - 1.0


def check_moment(result, spec, p) -> Optional[str]:
    import reference
    ref, ref_err = reference.ppm_reference(spec, p)
    if reference.moment_miss(result.value, result.reported_error, ref, ref_err):
        return (f"value {result.value!r} +- {result.reported_error:.3g}, "
                f"reference {ref!r} +- {ref_err:.3g}")
    return None


def _check_eta(m, problem, t) -> Optional[str]:
    import reference
    (mu2, e2), (mu3, e3) = reference.eta_moments_reference(problem.sigma, problem.y,
                                                           problem.eps, t)
    ratio = mu3 / mu2
    tol = (2.0 * CURVE_MOMENT_RTOL * abs(ratio) + (e3 + abs(ratio) * e2) / mu2
           + 4.0 * np.finfo(float).eps * abs(t + ratio))
    if not math.isfinite(m) or abs(m - (t + ratio)) > tol:
        return f"m={m!r}, reference {t + ratio!r}"
    return None


def moment_request(pp, index: int, design: Design) -> Op:
    u = design.point(index)
    route, law = _CELLS[(7 * index) % len(_CELLS)]
    rng = design.rng(index)
    if route == "eta":
        problem, t = _surrogate(pp, u)
        return Op("eta", f"m_of_t(y={problem.y!r}, eps={problem.eps!r}, t={t!r})",
                  lambda: TAIL_METER.run(lambda: pp.m_of_t(problem, t, ETA_REL_TOL)),
                  lambda m: _check_eta(m, problem, t))
    p = _order(u[2], route == "negative")
    if law == "normal_cpoisson":
        problem, t = _surrogate(pp, u)
        spec = pp.eta_spec(problem, t)
        s = min(1.0 / problem.y, 2.0 / problem.sigma)
    else:
        spec, scale = _law(pp, law, u, rng)
        s = 1.0 / scale
    if route == "cf":
        run = lambda: pp.ppm_cf(spec, p, MOMENT_REL_TOL)
    elif route == "laplace":
        run = lambda: pp.ppm_laplace(spec, p, s, -1, MOMENT_REL_TOL)
    elif route == "negative":
        run = lambda: pp.ppm_negative_s(spec, p, -s, -1, MOMENT_REL_TOL)
    else:
        run = lambda: pp.ppm_diff(spec, pp.match_discrete(spec, p), p, MOMENT_REL_TOL)
    return Op(route, f"{route}({pp.render(spec)}, p={p!r})", lambda: TAIL_METER.run(run),
              lambda r: check_moment(r, spec, p))


def moment_ops(pp, seed: int) -> Iterator[Op]:
    """The requests of the design, except that request 0 of every run is
    ppm_cf(cpoisson(1e-6, 1), 2.5), which returns 1.28e20 +- 3.5e15 for a
    true value near 1e-6.  A run holds two requests per (route, law) cell, too
    few for the design to reach that corner (lam < 1e-4 on the cf route), so
    it is pinned like the A8 problem in curve."""
    TAIL_METER.install(pp)
    spec = pp.CenteredScaledPoisson(1e-6, 1.0)
    yield Op("cf", f"cf({pp.render(spec)}, p=2.5)",
             lambda: TAIL_METER.run(lambda: pp.ppm_cf(spec, 2.5, MOMENT_REL_TOL)),
             lambda r: check_moment(r, spec, 2.5))
    design = Design(seed, 3)
    i = 1
    while True:
        yield moment_request(pp, i, design)
        i += 1


# ---------------------------------------------------------------------------
# cli_cold: one-shot `python -m pospart` processes
# ---------------------------------------------------------------------------


def cli_commands(seed: int) -> Iterator[list[str]]:
    """Alternating cheap `moment` and one-level `pin` commands."""
    design = Design(seed, 4)
    i = 0
    while True:
        u = design.point(i)
        if i % 2 == 0:
            kind = int(u[0] * 3)
            if kind == 0:
                dist = f"point({_log_uniform(u[1], 0.1, 10.0):.4f})"
            elif kind == 1:
                dist = f"normal({4.0 * u[4] - 2.0:.4f},{_log_uniform(u[1], 0.1, 10.0):.4f})"
            else:
                w = 0.2 + 0.6 * u[3]
                dist = f"discrete({-_log_uniform(u[1], 0.1, 10.0):.4f}:{w:.4f},{4.0 * u[4]:.4f}:{1.0 - w:.4f})"
            yield ["moment", "--dist", dist, "--p", f"{0.5 + 3.0 * u[2]:.4f}"]
        else:
            yield ["pin", "--sigma", "1", "--y", f"{_log_uniform(u[1], 0.3, 3.0):.4f}",
                   "--eps", f"{0.2 + 0.6 * u[3]:.4f}", "--x", f"{0.5 + 2.5 * u[2]:.4f}"]
        i += 1


def in_process_main(pp, argv: list[str]) -> tuple[int, bytes]:
    """Exit code and stdout bytes of cli.main(argv) run in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = pp.cli.main(argv)
    return code, buf.getvalue().encode()


def check_cli(pp, argv, out) -> Optional[str]:
    import reference
    code, stdout, stderr = out
    if code != 0:
        return f"exit {code}: {stderr.decode(errors='replace').strip()[-200:]}"
    want_code, want = in_process_main(pp, argv)
    if want_code != 0 or stdout != want:
        return f"stdout {stdout!r} differs from in-process {want!r}"
    fields = [float(v) for v in stdout.decode().strip().splitlines()[-1].split(",")]
    if argv[0] == "moment":
        spec = pp.parse_spec(argv[2])
        value, err = fields[0], fields[1] + fields[2]
        ref, ref_err = reference.ppm_reference(spec, float(argv[4]))
        if reference.moment_miss(value, err, ref, ref_err):
            return f"value {value!r} +- {err:.3g}, reference {ref!r}"
    else:
        pin, residual = fields[2], fields[5]
        if not (0.0 < pin <= 1.0 and residual <= CURVE_TOL_X):
            return f"pin {pin!r}, residual {residual!r}"
    return None


def cli_ops(pp, seed: int, root: str) -> Iterator[Op]:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    for argv in cli_commands(seed):
        def run(argv=argv):
            proc = subprocess.run([sys.executable, "-m", "pospart", *argv], cwd=root, env=env,
                                  capture_output=True, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr

        yield Op("cli", "pospart " + " ".join(argv), run,
                 lambda out, argv=argv: check_cli(pp, argv, out))


# ---------------------------------------------------------------------------
# validate_full: the full oracle cross-check suite
# ---------------------------------------------------------------------------


def validate_ops(pp, seed: int) -> Iterator[Op]:
    i = 0
    while True:
        suite_seed = int(np.random.default_rng([seed, 5, i]).integers(0, 2**31))

        def check(checks):
            if len(checks) != 9:
                return f"{len(checks)} checks"
            bad = [c.check_id for c in checks if not c.passed]
            return f"failed checks: {', '.join(bad)}" if bad else None

        yield Op("suite", f"run_suite('full', {suite_seed})",
                 lambda s=suite_seed: pp.validate.run_suite("full", s), check)
        i += 1


def operations(name: str, pp, seed: int, root: str) -> Iterator[Op]:
    if name == "curve":
        return curve_ops(pp, seed)
    if name == "moment_mix":
        return moment_ops(pp, seed)
    if name == "cli_cold":
        return cli_ops(pp, seed, root)
    return validate_ops(pp, seed)


def warm_up(name: str, pp) -> None:
    """Work done once before timing: fills lazy caches the way a user's
    first call would."""
    if name == "curve":
        pp.pin_curve(pp.TailBoundProblem(1.0, 1.0, 0.5), 0.0, 5.0, 11, rel_tol=CURVE_REL_TOL)
    elif name == "moment_mix":
        TAIL_METER.install(pp)
        spec = pp.Normal(0.0, 1.0)
        pp.ppm_cf(spec, 2.5, MOMENT_REL_TOL)
        pp.ppm_laplace(spec, 2.0, 1.0, -1, MOMENT_REL_TOL)
        pp.ppm_diff(spec, pp.match_discrete(spec, 1.5), 1.5, MOMENT_REL_TOL)
        pp.m_of_t(pp.TailBoundProblem(1.0, 1.0, 0.5), 0.5, ETA_REL_TOL)
    elif name == "cli_cold":
        in_process_main(pp, ["moment", "--dist", "point(1)", "--p", "0.5"])
    else:
        pp.validate.run_suite("quick", 0)
