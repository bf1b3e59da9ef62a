"""run_suite: the same checks, in the same order, whether or not the
point-mass and pin-bound checks run in a child process."""

import functools
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from pospart import oracles, validate


def _refuse(*args, **kwargs):
    raise AssertionError("not to be called here")


def _logging(fn, log):
    """fn, appending (its name, the pid it ran in) to the file log."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with open(log, "a") as f:
            f.write(f"{fn.__name__} {os.getpid()}\n")
        return fn(*args, **kwargs)

    return wrapper


def _calls(log):
    return [tuple(line.split()) for line in log.read_text().splitlines()] if log.exists() else []


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    # run_suite forks on any Linux host running these tests
    monkeypatch.setattr(validate, "_usable_cpus", lambda: 2)


linux_only = pytest.mark.skipif(sys.platform != "linux", reason="run_suite forks only on Linux")


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("suite", ["quick", "full"])
def test_suite_equals_the_checks_run_one_by_one(two_cpus, suite, seed):
    quick = validate.SUITES[suite]
    want = [chk(quick, seed) for chk in validate._CHECKS]
    assert validate.run_suite(suite, seed) == want


def test_one_cpu_gives_the_same_checks_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(validate, "_usable_cpus", lambda: 2)
    forked = validate.run_suite("full", 7)
    monkeypatch.setattr(validate, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(os, "fork", _refuse)
    assert validate.run_suite("full", 7) == forked


def test_another_live_thread_gives_the_same_checks_without_a_child(two_cpus, monkeypatch):
    # a fork beside a running thread could copy a lock it holds
    want = [chk(True, 3) for chk in validate._CHECKS]
    monkeypatch.setattr(os, "fork", _refuse)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60.0,))
    other.start()
    try:
        got = validate.run_suite("quick", 3)
    finally:
        release.set()
        other.join(timeout=60.0)
    assert not other.is_alive()
    assert got == want


@linux_only
def test_a_failed_fork_runs_every_check_in_the_caller(two_cpus, monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    want = [chk(True, 4) for chk in validate._CHECKS]
    monkeypatch.setattr(os, "fork", no_fork)
    fds = sorted(os.listdir("/proc/self/fd"))
    assert validate.run_suite("quick", 4) == want
    assert sorted(os.listdir("/proc/self/fd")) == fds   # the pipe is closed


def test_an_earlier_exception_propagates_and_the_worker_is_joined(two_cpus, monkeypatch, tmp_path):
    class Broken(Exception):
        pass

    def broken(quick, seed):
        raise Broken

    log = tmp_path / "calls"
    monkeypatch.setattr(validate, "_CHECKS", [broken, _logging(validate._check_pin, log)])
    with pytest.raises(Broken):
        validate.run_suite("quick", 0)
    _assert_no_child_left()
    assert len(_calls(log)) <= 1


def test_exceptions_surface_in_registry_order(two_cpus, monkeypatch):
    # the child reports no result for pin_fails, so the caller runs it
    # again, after Later, and PinFailed still comes first
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
    with pytest.raises(PinFailed):
        validate.run_suite("quick", 0)
    _assert_no_child_left()


@linux_only
def test_a_wrapped_pin_check_runs_once(two_cpus, monkeypatch, tmp_path):
    log = tmp_path / "calls"
    checks = validate._CHECKS
    monkeypatch.setattr(validate, "_CHECKS", [_logging(chk, log) for chk in checks])
    got = validate.run_suite("quick", 1)
    _assert_no_child_left()
    calls = _calls(log)
    assert sorted(name for name, _ in calls) == sorted(chk.__name__ for chk in checks)
    side = {chk.__name__ for chk in validate._SIDE}
    me = str(os.getpid())
    assert all((pid != me) == (name in side) for name, pid in calls), calls
    assert got == [chk(True, 1) for chk in checks]


def test_a_child_that_dies_costs_a_rerun_not_a_result(two_cpus, monkeypatch):
    caller = os.getpid()

    @functools.wraps(validate._check_point_mass)
    def dies_in_the_child(quick, seed):
        if os.getpid() != caller:
            os._exit(1)
        return validate._check_point_mass(quick, seed)

    checks = [dies_in_the_child, *validate._CHECKS[1:]]
    monkeypatch.setattr(validate, "_CHECKS", checks)
    got = validate.run_suite("quick", 2)
    _assert_no_child_left()
    assert got == [chk(True, 2) for chk in checks]


def test_a_registry_without_side_checks_forks_no_child(two_cpus, monkeypatch):
    monkeypatch.setattr(oracles, "sample", _refuse)
    monkeypatch.setattr(os, "fork", _refuse)
    rest = [chk for chk in validate._CHECKS if chk not in validate._SIDE]
    monkeypatch.setattr(validate, "_CHECKS", rest)
    assert validate.run_suite("quick", 0) == [chk(True, 0) for chk in rest]


def test_cli_import_leaves_out_concurrent_futures():
    # every CLI process imports the validate module
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    script = ("import sys, pospart.cli\n"
              "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
