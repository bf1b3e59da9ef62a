import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pospart.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_moment_point_mass(capsys):
    code, out, err = run_cli(capsys, "moment", "--dist", "point(1)", "--p", "0.5",
                             "--method", "cf")
    assert code == 0
    fields = out.strip().split(",")
    assert len(fields) == 4
    assert float(fields[0]) == pytest.approx(1.0, abs=1e-8)
    assert out.count("\n") == 1  # one data row, no header


def test_moment_method_agreement_default_s(capsys):
    code, out, _ = run_cli(capsys, "moment", "--dist", "point(1)", "--p", "0.5",
                           "--method", "laplace")
    assert code == 0
    assert float(out.split(",")[0]) == pytest.approx(1.0, abs=1e-8)


def test_moment_weight_sum_message(capsys):
    code, out, err = run_cli(capsys, "moment", "--dist", "discrete(0:0.5,1:0.4)",
                             "--p", "1")
    assert code == 2
    assert out == ""
    assert "sum to 1" in err


def test_moment_parse_error_offset(capsys):
    code, _, err = run_cli(capsys, "moment", "--dist", "pnt(1)", "--p", "1")
    assert code == 2
    assert "offset 1" in err


def test_moment_json_format(capsys):
    code, out, _ = run_cli(capsys, "moment", "--dist", "normal(0,1)", "--p", "2",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"value", "err_est", "tail_bound", "evaluations"}
    assert obj["value"] == pytest.approx(0.5, abs=1e-8)


def test_pin_row(capsys):
    code, out, _ = run_cli(capsys, "pin", "--sigma", "1", "--y", "1", "--eps", "0.5",
                           "--x", "2")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == "x,t_x,pin,mu2,mu3,residual"
    vals = dict(zip(header.split(","), map(float, row.split(","))))
    assert 0.0 < vals["pin"] <= 1.0
    assert vals["residual"] <= 1e-9


def test_pin_rejects_bad_eps(capsys):
    code, _, err = run_cli(capsys, "pin", "--sigma", "1", "--y", "1", "--eps", "1.5",
                           "--x", "2")
    assert code == 2
    assert "eps must be in (0, 1)" in err


@pytest.mark.parametrize("rel_tol", ["nan", "-1", "0.5"])
def test_pin_rejects_bad_rel_tol(capsys, rel_tol):
    code, out, err = run_cli(capsys, "pin", "--sigma", "1", "--y", "1", "--eps", "0.5",
                             "--x", "2", "--rel-tol", rel_tol)
    assert code == 2
    assert out == ""
    assert "rel_tol must lie in" in err


def test_curve_structure_and_determinism(capsys):
    args = ("curve", "--sigma", "1", "--y", "1", "--eps", "0.5",
            "--x-min", "0", "--x-max", "3", "--steps", "7", "--rel-tol", "1e-7")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    lines = out1.strip().split("\n")
    assert len(lines) == 8  # header + 7 rows
    xs = [float(line.split(",")[0]) for line in lines[1:]]
    assert xs == sorted(xs)
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2  # byte identical


def test_curve_out_file(tmp_path, capsys):
    target = tmp_path / "curve.csv"
    code, out, _ = run_cli(capsys, "curve", "--sigma", "1", "--y", "1", "--eps", "0.5",
                           "--x-min", "1", "--x-max", "2", "--steps", "3",
                           "--rel-tol", "1e-7", "--out", str(target))
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("x,t_x,pin,mu2,mu3,residual\n")
    assert len(text.strip().split("\n")) == 4


def test_locale_free_numbers(capsys):
    code, out, _ = run_cli(capsys, "pin", "--sigma", "1", "--y", "1", "--eps", "0.5",
                           "--x", "1")
    assert code == 0
    assert "," in out and ";" not in out
    for token in out.strip().split("\n")[1].split(","):
        float(token)  # parses with '.' decimal separator


def test_validate_quick_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "validate", "--suite", "quick", "--seed", "7")
    assert code == 0
    assert "PASS" in out1 and "FAIL" not in out1
    code, out2, _ = run_cli(capsys, "validate", "--suite", "quick", "--seed", "7")
    assert out1 == out2


def test_validate_rejects_negative_seed(capsys):
    code, out, err = run_cli(capsys, "validate", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1, err
    assert "-1" in err


@pytest.mark.parametrize("target", ["missing/x.csv", "."])
@pytest.mark.parametrize("argv", [
    ["moment", "--dist", "point(1)", "--p", "0.5"],
    ["pin", "--sigma", "1", "--y", "1", "--eps", "0.5", "--x", "2"],
    ["curve", "--sigma", "1", "--y", "1", "--eps", "0.5", "--x-min", "1", "--x-max", "2",
     "--steps", "2", "--rel-tol", "1e-7"],
])
def test_unwritable_out_exits_two(tmp_path, capsys, argv, target):
    # a path under a missing directory, and a directory
    path = str(tmp_path / target)
    code, out, err = run_cli(capsys, *argv, "--out", path)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ") and len(err.splitlines()) == 1, err


def test_unknown_flag_exits_two(capsys):
    code, _, _ = run_cli(capsys, "moment", "--dist", "point(1)", "--p", "1",
                         "--bogus", "3")
    assert code == 2


def test_numerical_failure_exits_three(capsys, recwarn):
    # a compound-Poisson-only spec at fractional order has no usable decay
    # structure for the residual envelope, so the evaluation cap is honest
    code, out, err = run_cli(capsys, "moment", "--dist", "cpoisson(200, 1)",
                             "--p", "0.5")
    assert code == 3
    assert out == ""
    assert "budget" in err.lower()
    # far right the budget's scale overflows: the message alone, no numpy warning
    code, out, err = run_cli(capsys, "pin", "--sigma", "1", "--y", "1", "--eps", "0.5",
                             "--x", "1e300")
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure:") and len(err.splitlines()) == 1, err
    assert not recwarn.list, [str(w.message) for w in recwarn]


def test_moment_negative_strip_method(capsys):
    code, out, _ = run_cli(capsys, "moment", "--dist", "point(2)", "--p", "1",
                           "--method", "negative")
    assert code == 0
    assert float(out.split(",")[0]) == pytest.approx(2.0, abs=1e-8)
    # fractional order is outside the negative-strip form's domain
    code, _, err = run_cli(capsys, "moment", "--dist", "point(2)", "--p", "1.5",
                           "--method", "negative")
    assert code == 2
    assert "integer" in err


@pytest.mark.parametrize("dist, p", [
    ("normal(0,1e-300)", "2"),   # OverflowError in the head rule
    ("point(1e200)", "2"),       # OverflowError in the raw moments
    ("point(1)", "1e-300"),      # ZeroDivisionError in the tail envelope
])
def test_float_overflow_exits_three(capsys, dist, p):
    code, out, err = run_cli(capsys, "moment", "--dist", dist, "--p", p)
    assert code == 3
    assert out == ""
    assert "numerical failure" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["--dist", "cpoisson(0.001,30)", "--method", "laplace", "--p", "1.5"],
    ["--dist", "discrete(-800:0.5,1:0.5)", "--method", "negative", "--p", "2"],
])
def test_transform_overflow_at_s_exits_two(argv):
    # E e^{sX} overflows at the default s: a precondition on s, reported
    # without a numpy warning
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "pospart", "moment", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "s = " in proc.stderr and "error:" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "Traceback" not in proc.stderr


def test_high_integer_order_writes_no_warning():
    # at p = 145 the integrand's powers of t reach the edge of the float
    # range; stderr carries diagnostics only, never a numpy warning
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "pospart", "moment", "--dist", "point(1)",
                           "--p", "145"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


_IMPORT_PATH_SCRIPT = """
import sys
import pospart, pospart.cli, pospart.validate
from pospart.cli import main
from pospart.distributions import CenteredScaledPoisson, sample
sample(CenteredScaledPoisson(50, 1), 0, 3)
runs = (
    ["moment", "--dist", "normal(0,1)", "--p", "2.5"],
    ["moment", "--dist", "cpoisson(3,0.5)", "--p", "1.5", "--method", "diff"],
    ["pin", "--sigma", "1", "--y", "1", "--eps", "0.5", "--x", "2"],
    ["curve", "--sigma", "1", "--y", "1", "--eps", "0.5",
     "--x-min", "0", "--x-max", "2", "--steps", "3"],
)
codes = [main(argv) for argv in runs]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print("RESULT", codes, loaded)
"""


def test_runtime_path_loads_no_scipy():
    # the transform pipeline, the sampler and the CLI's moment/pin/curve
    # commands run on numpy alone; scipy is left to the oracles, which load
    # it on first use
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PATH_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = proc.stdout.strip().splitlines()[-1]
    assert result == "RESULT [0, 0, 0, 0] []", result


def test_validate_without_scipy_exits_two():
    # scipy is the optional "validate" extra; a None entry in sys.modules
    # makes its import fail as on an install without it
    script = ('import sys\nsys.modules["scipy"] = None\n'
              'from pospart.cli import main\nsys.exit(main(["validate"]))\n')
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "pospart[validate]" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("y", ["1e-300", "1e300", "1e-160"])
def test_extreme_y_over_sigma_exits_two(capsys, y):
    # lam = eps sigma^2 / y^2 used to raise ZeroDivisionError (1e-300) or
    # OverflowError (1e300) and exit 3, or name the Poisson rate (1e-160)
    for cmd in (["pin", "--x", "1"], ["curve", "--x-min", "0", "--x-max", "1", "--steps", "3"]):
        code, out, err = run_cli(capsys, cmd[0], "--sigma", "1", "--y", y, "--eps", "0.5",
                                 *cmd[1:])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: y = {float(y)!r} and sigma = 1.0 ") and \
            len(err.splitlines()) == 1, err


def test_order_past_the_factorial_range_exits_two(capsys):
    # the cf route's moment series needs m_r / r! past r = 170 here; it used
    # to end in a bare OverflowError from converting r! to a float
    code, out, err = run_cli(capsys, "moment", "--dist", "normal(0,1)", "--p", "120")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "170" in err and len(err.splitlines()) == 1, err
