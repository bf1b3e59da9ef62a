#!/usr/bin/env python3
"""pospart benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

--seconds sets the amount of work: as many operations (whole cycles) as take
that long at the baseline's host-scaled speed.  --trace 0 measures the
end-to-end metrics with tracing off.  --trace 1 runs half that many seeded
operations untraced and then the same ones traced, and prints the per-layer
metrics plus the tracing overhead.  Every operation's output is checked
against an independent reference after the timed region.  See README.md for
the metrics and workloads.
"""

from __future__ import annotations

import time

_START = time.perf_counter()   # set-up time counts from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_REPEATS = 5       # this process plus four fresh interpreters
VALIDATE_CHECK_IDS = ("point-mass", "gaussian", "agreement", "compound", "tail-integrals",
                      "improper", "pin-bound", "curve", "quadrature")
OUT_DIR = os.path.join(HERE, "out")

# Host-speed calibration.  The baseline host's speed wanders by up to 2x
# within seconds (CPU time tracks wall time, so it is clock and co-tenant
# load, not waiting).  A fixed kernel shaped like the program's hot path (small numpy
# batches plus interpreter work) runs before and after every operation; every timing is
# scaled by CAL_NOMINAL_S / (the kernel's time around it), i.e. reported in
# milliseconds of a host running the kernel in CAL_NOMINAL_S.  run.host_speed
# in the traced run reports the factor that was applied.
CAL_NOMINAL_S = 0.0014      # median kernel time on the 2-core host in baseline.json
_CAL_X = np.linspace(0.05, 4.0, 240)
_CAL_W = np.linspace(0.5, 1.5, 240)


def calibrate() -> float:
    """Median of three runs of the calibration kernel, in seconds."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for k in range(80):
            y = np.exp(-0.5 * _CAL_X * _CAL_X + 0.01 * k) * np.cos((1.0 + k % 16) * _CAL_X)
            acc += float(y @ _CAL_W)
            acc += math.fsum(float(v) for v in y[::8])
            for j in range(40):
                acc += j * 1e-12
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SetupError(Exception):
    pass


def load_program():
    """Import pospart from the checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pospart", "__init__.py")):
        raise SetupError(f"no pospart sources under {src}")
    sys.path.insert(0, src)
    import pospart
    import pospart.cli
    import pospart.validate
    if os.path.dirname(os.path.dirname(os.path.abspath(pospart.__file__))) != src:
        raise SetupError(f"pospart imported from {pospart.__file__}, not {src}")
    return pospart


def set_up(name: str):
    """Import and warm up; returns the package, the host-scaled seconds taken
    since this module started loading, and the peak resident memory (MB) at
    that point."""
    pp = load_program()
    workloads.warm_up(name, pp)
    elapsed = time.perf_counter() - _START
    rss = peak_rss_mb(children=False)
    return pp, (elapsed * CAL_NOMINAL_S / calibrate(), rss)


def probe_setup(name: str) -> float:
    """Host-scaled set-up time of a fresh interpreter (import + warm-up),
    timed inside it."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                           "--probe-setup"], cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"setup probe failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.strip().splitlines()[-1])


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an operation that overran the hang guard;
    a BaseException so no handler in the program swallows it."""


def _alarm(signum, frame):
    raise OpTimeout()


def execute(op, limit: float, tracer=None):
    """Run one operation; returns (output, exception, seconds)."""
    if tracer:
        tracer.req += 1
    idx = tracer.open(f"op.{op.kind}") if tracer else None
    start = time.perf_counter()
    out = exc = None
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            out = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    except OpTimeout:
        exc = TimeoutError(f"still running after {limit:.3g} s")
    except Exception as e:  # a failed operation is a result, not a harness error
        exc = e
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.close(idx)
    return out, exc, elapsed


def run_loop(ops, count: int, tracer=None):
    """Run `count` operations; records are (op, output, exception, seconds,
    host-scaled seconds)."""
    raw, cal = [], [calibrate()]
    for _ in range(count):
        op = next(ops)
        out, exc, dt = execute(op, workloads.HANG_LIMIT_S, tracer)
        raw.append((op, out, exc, dt))
        cal.append(calibrate())
        if tracer is not None:
            tracer.after_op(timed_out=isinstance(exc, TimeoutError))
    records = []
    for k, (op, out, exc, dt) in enumerate(raw):
        # the kernel's time just before and just after the operation
        factor = 0.5 * (cal[k] + cal[k + 1]) / CAL_NOMINAL_S
        records.append((op, out, exc, dt, dt / factor))
    return records, statistics.median(cal) / CAL_NOMINAL_S


def verdicts(records) -> tuple[list, bool]:
    """Reason each operation failed (or None), and whether every output could
    be checked; computed outside timed regions."""
    out, all_checked = [], True
    for op, result, exc, *_ in records:
        if exc is not None:
            out.append(f"raised {type(exc).__name__}: {exc}")
            continue
        try:
            out.append(op.check(result))
        except Exception:  # the output could not be verified
            traceback.print_exc()
            out.append("check raised")
            all_checked = False
    return out, all_checked


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def latency_stats(records):
    """Median and p90 latency (ms) and throughput (1/s), host-scaled."""
    lat_ms = [1e3 * r[4] for r in records]
    p90 = statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) > 1 else lat_ms[0]
    return statistics.median(lat_ms), p90, 1e3 * len(lat_ms) / math.fsum(lat_ms)


def end_to_end(name, pp, setup, seed, seconds):
    own_setup, setup_rss = setup
    ops = workloads.operations(name, pp, seed, ROOT)
    records, factor = run_loop(ops, workloads.op_count(name, seconds))
    rss = peak_rss_mb(children=True) if name == "cli_cold" else setup_rss
    setups = [own_setup] + [probe_setup(name) for _ in range(SETUP_REPEATS - 1)]
    p50, _, rate = latency_stats(records)
    raw_p50 = 1e3 * statistics.median(r[3] for r in records)
    print(f"note: unscaled op_p50_ms {raw_p50!r}, host slowdown {factor:.4f}", file=sys.stderr)
    metrics = {
        "op_p50_ms": (p50, "ms"),
        "ops_per_s": (rate, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "rss_mb": (rss, "MB"),
    }
    return records, metrics


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def import_times() -> tuple[float, float]:
    """(pospart cumulative import s, scipy import s) from -X importtime."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pospart"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"import failed: {proc.stderr.strip()[-300:]}")
    total = scipy_self = 0.0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line.split("|")
        try:
            self_us, cum_us = float(parts[0].split(":")[1]), float(parts[1])
        except ValueError:
            continue  # the header line
        mod = parts[2].strip()
        if mod == "pospart":
            total = cum_us * 1e-6
        if mod == "scipy" or mod.startswith("scipy."):
            scipy_self += self_us * 1e-6
    return total, scipy_self


def traced_run(name, pp, seed, seconds):
    from layertrace import Tracer

    if name == "cli_cold":
        def fresh():
            for argv in workloads.cli_commands(seed):
                yield workloads.Op("cli", " ".join(argv),
                                   lambda a=argv: (*workloads.in_process_main(pp, a), b""),
                                   lambda out, a=argv: workloads.check_cli(pp, a, out))
    else:
        def fresh():
            return workloads.operations(name, pp, seed, ROOT)

    count = max(1, workloads.op_count(name, seconds) // 2)
    untraced, factor = run_loop(fresh(), count)
    _, p90, _ = latency_stats(untraced)
    rss = peak_rss_mb(children=False)
    tracer = Tracer()
    tracer.install()
    try:
        records, _ = run_loop(fresh(), count, tracer)
    finally:
        tracer.restore()
    tracer.write(os.path.join(OUT_DIR, f"trace-{name}.npz"))
    t_plain = math.fsum(r[4] for r in untraced)
    t_traced = math.fsum(r[4] for r in records)
    metrics = layer_metrics(tracer, records)
    metrics["trace.overhead_share"] = ((t_traced - t_plain) / t_plain, "share")
    metrics["run.ops"] = (float(len(untraced)), "count")
    metrics["run.op_p90_ms"] = (p90, "ms")
    metrics["run.peak_rss_mb"] = (rss, "MB")
    metrics["run.host_speed"] = (1.0 / factor, "ratio")
    if name == "cli_cold":
        imp, imp_scipy = import_times()
        metrics["cli.import_s"] = (imp, "s")
        metrics["cli.import_scipy_s"] = (imp_scipy, "s")
    return records, metrics


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tr, records):
    n = len(records)
    c, calls, total, self_t = tr.counts, tr.calls, tr.total, tr.self_time

    def layer_self(layer):
        return math.fsum(v for k, v in self_t.items() if k.startswith(layer + "."))

    roots = calls["tailbound.pin"]
    routes = ("moments.ppm_cf", "moments.ppm_laplace", "moments.ppm_negative_s", "moments.ppm_diff")
    route_calls = sum(calls[r] for r in routes)
    quad_self = layer_self("quadrature")
    m = {
        "tailbound.roots": (_ratio(roots, n), "count/op"),
        "tailbound.m_evals_per_root": (_ratio(calls["tailbound.m_eval"], roots), "count"),
        "tailbound.integrals_per_root": (_ratio(c["tailbound.integrals"], roots), "count"),
        "tailbound.evals_per_root": (_ratio(c["tailbound.evals"], roots), "count"),
        "tailbound.cf_fallback_share": (_ratio(c["tailbound.cf_calls"], 2 * calls["tailbound.m_eval"]),
                                        "share"),
        "tailbound.self_s": (_ratio(layer_self("tailbound"), n), "s/op"),
        "quadrature.integrals": (_ratio(c["integrals"], n), "count/op"),
        "quadrature.evals": (_ratio(c["evals"], n), "count/op"),
        "quadrature.evals_per_integral": (_ratio(c["evals"], c["integrals"]), "count"),
        "quadrature.evals_max": (float(c["evals_max"]), "count"),
        "quadrature.batches_per_integral": (_ratio(c["batches"], c["integrals"]), "count"),
        "quadrature.panels_per_integral": (_ratio(c["panels"], c["integrals"]), "count"),
        "quadrature.self_s": (_ratio(quad_self, n), "s/op"),
        "quadrature.self_us_per_batch": (1e6 * _ratio(quad_self, c["batches"]), "us"),
        "quadrature.budget_exceeded": (_ratio(c["budget_exceeded"], n), "count/op"),
        "distributions.nodes": (_ratio(c["nodes"], n), "count/op"),
        "distributions.kernel_s": (_ratio(total["distributions.kernel"], n), "s/op"),
        "distributions.ns_per_node": (1e9 * _ratio(total["distributions.kernel"], c["nodes"]), "ns"),
    }
    for route in workloads.MOMENT_ROUTES:
        m[f"moments.route_ms.{route}"] = (1e3 * _ratio(total[f"op.{route}"], calls[f"op.{route}"]), "ms")
    m.update({
        "moments.integrals_per_moment": (_ratio(c["moments.integrals"], route_calls), "count"),
        "moments.build_ms": (1e3 * _ratio(math.fsum(self_t[r] for r in routes), route_calls), "ms"),
        "moments.match_discrete_ms": (1e3 * _ratio(total["moments.match_discrete"],
                                                   calls["moments.match_discrete"]), "ms"),
        "moments.tailmodel_calls": (_ratio(calls["moments.tailmodel"], n), "count/op"),
        "moments.tailmodel_s": (_ratio(total["moments.tailmodel"], n), "s/op"),
        "moments.tailmodel_us_per_call": (1e6 * _ratio(total["moments.tailmodel"],
                                                       calls["moments.tailmodel"]), "us"),
        "cli.import_s": (0.0, "s"),
        "cli.import_scipy_s": (0.0, "s"),
        "cli.main_ms": (1e3 * _ratio(total["cli.main"], calls["cli.main"]), "ms"),
        "oracles.mc_s": (_ratio(total["oracles.mc_ppm"] + total["oracles.mc_tail"], n), "s/op"),
        "oracles.density_s": (_ratio(total["oracles.density_ppm"], n), "s/op"),
        "oracles.series_s": (_ratio(total["oracles.naive_series_ppm"], n), "s/op"),
    })
    for cid in VALIDATE_CHECK_IDS:
        m[f"validate.check_s.{cid}"] = (_ratio(tr.check_time[cid], n), "s/op")
    return m


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    signal.signal(signal.SIGALRM, _alarm)
    try:
        pp, setup = set_up(args.workload)
        if args.probe_setup:
            print(repr(setup[0]))
            return 0
        if args.trace:
            records, metrics = traced_run(args.workload, pp, args.seed, args.seconds)
        else:
            records, metrics = end_to_end(args.workload, pp, setup, args.seed, args.seconds)
        reasons, all_checked = verdicts(records)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    failed = [(op.label, why) for (op, *_), why in zip(records, reasons) if why is not None]
    for label, why in failed:
        print(f"failed: {label}: {why}", file=sys.stderr)
    if args.trace:
        metrics["run.fail_share"] = (len(failed) / len(records), "share")
    print(json.dumps({
        "correct": all_checked,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
