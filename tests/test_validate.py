"""run_suite: the same checks, in the same order, whether or not the
pin-bound check runs on a worker thread."""

import functools
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from pospart import oracles, validate


def _counting(fn, calls):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls.append((fn.__name__, threading.current_thread() is threading.main_thread()))
        return fn(*args, **kwargs)

    return wrapper


def _refuse(*args, **kwargs):
    raise AssertionError("not to be called here")


@pytest.fixture
def two_cpus(monkeypatch):
    # the worker is used on any host running these tests
    monkeypatch.setattr(validate, "_usable_cpus", lambda: 2)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("suite", ["quick", "full"])
def test_suite_equals_the_checks_run_one_by_one(two_cpus, suite, seed):
    quick = validate.SUITES[suite]
    want = [chk(quick, seed) for chk in validate._CHECKS]
    assert validate.run_suite(suite, seed) == want


def test_one_cpu_gives_the_same_checks_on_the_calling_thread(monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(validate, "_usable_cpus", lambda: 2)
    threaded = validate.run_suite("full", 7)
    monkeypatch.setattr(validate, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _refuse)
    assert validate.run_suite("full", 7) == threaded


def test_an_earlier_exception_propagates_and_the_worker_is_joined(two_cpus, monkeypatch):
    class Broken(Exception):
        pass

    def broken(quick, seed):
        raise Broken

    calls = []
    monkeypatch.setattr(validate, "_CHECKS", [broken, _counting(validate._check_pin, calls)])
    before = threading.active_count()
    with pytest.raises(Broken):
        validate.run_suite("quick", 0)
    assert len(calls) <= 1
    assert threading.active_count() == before


def test_exceptions_surface_in_registry_order(two_cpus, monkeypatch):
    class PinFailed(Exception):
        pass

    class Later(Exception):
        pass

    @functools.wraps(validate._check_pin)
    def pin_fails(quick, seed):
        raise PinFailed

    def later(quick, seed):
        raise Later

    monkeypatch.setattr(validate, "_CHECKS", [validate._check_gaussian, pin_fails, later])
    before = threading.active_count()
    with pytest.raises(PinFailed):
        validate.run_suite("quick", 0)
    assert threading.active_count() == before


def test_a_wrapped_pin_check_runs_once(two_cpus, monkeypatch):
    calls = []
    checks = validate._CHECKS
    monkeypatch.setattr(validate, "_CHECKS", [_counting(chk, calls) for chk in checks])
    got = validate.run_suite("quick", 1)
    assert sorted(name for name, _ in calls) == sorted(chk.__name__ for chk in checks)
    # once, and on the worker
    assert [on_main for name, on_main in calls if name == "_check_pin"] == [False]
    assert got == [chk(True, 1) for chk in checks]


def test_a_registry_without_the_pin_check_starts_no_worker(two_cpus, monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(oracles, "sample", _refuse)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _refuse)
    rest = [chk for chk in validate._CHECKS if chk is not validate._check_pin]
    monkeypatch.setattr(validate, "_CHECKS", rest)
    assert validate.run_suite("quick", 0) == [chk(True, 0) for chk in rest]


def test_cli_import_leaves_out_concurrent_futures():
    # run_suite imports it on first use; every CLI process imports the
    # validate module
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    script = "import sys, pospart.cli\nprint('concurrent.futures' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
