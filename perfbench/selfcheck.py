#!/usr/bin/env python3
"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout.  Checks that

  * one seed gives identical inputs and another seed different ones, on
    every workload;
  * the reference checker passes a result inside its reported error, flags
    the same result moved just outside it, and flags the known silent defect
    ppm_cf(cpoisson(1e-6, 1), 2.5);
  * two traced runs with the same seed record identical per-operation counts
    (integrals, evaluations, batches, nodes, panels, m(t) evaluations) and
    fail as many operations;
  * both modes print exactly the metrics, with the units, that
    BENCHMARK.json lists;
  * the benchmark exits non-zero, without a result line, in a directory that
    holds only BENCHMARK.json and the benchmark's files.

Exits 0 when every check passes.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'}  {what}")
    if not ok:
        FAILURES.append(what)


def labels(pp, name: str, seed: int, n: int) -> list[str]:
    if name == "cli_cold":
        return [" ".join(a) for a in itertools.islice(workloads.cli_commands(seed), n)]
    return [op.label for op in itertools.islice(workloads.operations(name, pp, seed, ROOT), n)]


def check_inputs(pp) -> None:
    for name in workloads.WORKLOADS:
        a, b, c = labels(pp, name, 7, 40), labels(pp, name, 7, 40), labels(pp, name, 8, 40)
        expect(a == b, f"{name}: seed 7 twice gives identical inputs")
        expect(a != c, f"{name}: seeds 7 and 8 give different inputs")


def check_checker(pp) -> None:
    spec, p = pp.Normal(0.3, 2.0), 2.5
    result = pp.ppm_laplace(spec, p, 0.5, -1, 1e-9)
    ref, ref_err = reference.ppm_reference(spec, p)
    err = result.reported_error
    expect(not reference.moment_miss(result.value, err, ref, ref_err),
           "checker passes a result inside its reported error")
    for sign in (1.0, -1.0):
        edge = err + ref_err + 4.0 * 2.2e-16 * abs(ref)
        expect(reference.moment_miss(ref + sign * 1.001 * edge, err, ref, ref_err),
               f"checker flags the result moved just outside its error ({sign:+.0f})")
        expect(not reference.moment_miss(ref + sign * 0.999 * (err + ref_err), err, ref, ref_err),
               f"checker passes the result moved just inside its error ({sign:+.0f})")
    bad = pp.ppm_cf(pp.CenteredScaledPoisson(1e-6, 1.0), 2.5, 1e-9)
    why = workloads.check_moment(bad, pp.CenteredScaledPoisson(1e-6, 1.0), 2.5)
    expect(why is not None, f"checker flags ppm_cf(cpoisson(1e-6, 1), 2.5): {why}")


def bench(name: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr[-500:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect_metrics(result: dict, listed: list, what: str) -> None:
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in listed}
    expect(got == want, f"{what}: metrics and units match BENCHMARK.json")


def traced_counts(name: str, seed: int, seconds: float) -> tuple[list, int]:
    """Per-operation counts and the number of failed operations."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = json.load(fh)["per_layer"]
    result = bench(name, seed, seconds, 1)
    expect_metrics(result, listed, f"{name} --trace 1")
    with open(os.path.join(run.OUT_DIR, f"trace-{name}.counts.json")) as fh:
        return json.load(fh)["per_op"], result["failed"]


def check_end_to_end_names() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = json.load(fh)["end_to_end"]
    expect_metrics(bench("validate_full", 1, 1.0, 0), listed, "validate_full --trace 0")


def check_counts() -> None:
    for name, seconds in (("moment_mix", 6.0), ("curve", 6.0), ("validate_full", 4.0)):
        (a, fail_a), (b, fail_b) = traced_counts(name, 11, seconds), traced_counts(name, 11, seconds)
        # operations interrupted by the hang guard (None) have no fixed count
        pairs = [(x, y) for x, y in zip(a, b) if x is not None and y is not None]
        expect(len(pairs) > 0 and all(x == y for x, y in pairs),
               f"{name}: two traced runs with seed 11 give identical counts for "
               f"{len(pairs)} operations")
        expect(fail_a == fail_b, f"{name}: two traced runs with seed 11 fail as many operations "
                                 f"({fail_a}, {fail_b})")


def check_bare_directory() -> None:
    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "curve",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"bare directory: exit {proc.returncode}, no result line")


def main() -> int:
    pp = run.load_program()
    check_inputs(pp)
    check_checker(pp)
    check_counts()
    check_end_to_end_names()
    check_bare_directory()
    print(f"{len(FAILURES)} self-check(s) failed" if FAILURES else "all self-checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
