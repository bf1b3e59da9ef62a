import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pospart import validate
from pospart.cli import main
from pospart.errors import NonFiniteIntegrand


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


def test_moment_routes_and_defaults(capsys):
    # cf on point(1) is test_moment_point_mass; diff builds its moment-matched
    # companion when --other is absent
    code, out, _ = run_cli(capsys, "moment", "--dist", "normal(0,1)", "--p", "2",
                           "--method", "diff")
    assert code == 0
    assert float(out.split(",")[0]) == pytest.approx(0.5, abs=1e-8)
    code, out, _ = run_cli(capsys, "moment", "--dist", "point(1)", "--p", "0.5",
                           "--method", "bogus")
    assert code == 2
    assert out == ""
    # --other given to a route other than diff is refused before it runs
    code, out, err = run_cli(capsys, "moment", "--dist", "normal(0,1)", "--p", "2",
                             "--method", "cf", "--other", "bad(")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("argv, limit", [
    (("--dist", "point(1.3)", "--p", "2.5", "--method", "cf"), 480),
    (("--dist", "normal(0,1)", "--p", "2"), 150),
    (("--dist", "discrete(-1:0.5,2:0.5)", "--p", "2.5", "--method", "laplace"), 600),
])
def test_moment_evaluations_stay_below_their_ceiling(capsys, argv, limit):
    # a moment integral takes one Gauss-Kronrod batch per growth pass, which
    # costs fewer evaluations than growing the panels chunk by chunk did
    code, out, err = run_cli(capsys, "moment", *argv)
    assert code == 0, err
    assert int(out.strip().split(",")[3]) < limit, out


@pytest.mark.parametrize("method", ["cf", "laplace", "negative"])
def test_other_outside_diff_exits_two(capsys, method):
    code, out, err = run_cli(capsys, "moment", "--dist", "normal(0,1)", "--p", "2",
                             "--method", method, "--other", "point(5)")
    assert code == 2
    assert out == ""
    assert err == f"error: --other applies to --method diff only, not {method}\n"


@pytest.mark.parametrize("method, flag, value", [
    ("diff", "--j", "7"), ("cf", "--s", "5"), ("cf", "--j", "-1"), ("diff", "--s", "1"),
])
def test_line_flags_outside_laplace_and_negative_exit_two(capsys, method, flag, value):
    # --s and --j were ignored by cf and diff (exit 0); like --other outside
    # diff they are refused before the route runs
    code, out, err = run_cli(capsys, "moment", "--dist", "normal(0,1)", "--p", "2",
                             "--method", method, flag, value)
    assert (code, out) == (2, "")
    assert err == f"error: {flag} applies to --method laplace and negative only, not {method}\n"


@pytest.mark.parametrize("method", ["laplace", "negative"])
def test_remainder_order_defaults_to_minus_one(capsys, method):
    # the bytes of a line route without --j are those of --j -1
    argv = ["moment", "--dist", "normal(0.3,2)", "--p", "2", "--method", method]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, *argv, "--j", "-1") == (0, out, "")


_DEEP = "shift(" * 300 + "point(1)" + ", 0.001)" * 300


@pytest.mark.parametrize("argv", [
    ["--dist", "bogus(1)", "--p", "1.5"],
    ["--dist", "point(1", "--p", "1.5"],
    ["--dist", "point(1) x", "--p", "2"],
    ["--dist", "normal(0,-1)", "--p", "2", "--method", "laplace"],
    ["--dist", "discrete(1:0.3)", "--p", "1.5", "--method", "diff"],
    ["--dist", "point(1e308)", "--p", "2"],
    ["--dist", "point(1e308)", "--p", "2", "--method", "negative"],
    ["--dist", "normal(0,1)", "--p", "2", "--method", "diff", "--other", "point(1"],
])
def test_malformed_and_extreme_specs_end_in_a_known_exit(capsys, argv):
    code, out, err = run_cli(capsys, "moment", *argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code != 0:
        assert out == ""
        assert len(err.splitlines()) == 1, err


def test_nesting_past_the_limit_exits_two(capsys):
    code, out, err = run_cli(capsys, "moment", "--dist", _DEEP, "--p", "1.5")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "deeper than 64" in err and \
        len(err.splitlines()) == 1, err


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


def test_small_y_curve_has_no_failed_rows(capsys):
    # y / sigma = 1e-4 (lam = 5e7): every row meets its budget on m, so no
    # failed-row note reaches stderr
    code, out, err = run_cli(capsys, "curve", "--sigma", "1", "--y", "1e-4", "--eps", "0.5",
                             "--x-min", "0", "--x-max", "5", "--steps", "11")
    assert code == 0
    assert "note:" not in err
    assert len(out.strip().split("\n")) == 12


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


def test_validate_numerical_failure_exits_three(capsys, monkeypatch):
    def broken(quick, seed):
        raise NonFiniteIntegrand(1.0)

    monkeypatch.setattr(validate, "_CHECKS", [broken])
    code, out, err = run_cli(capsys, "validate")
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure:") and len(err.splitlines()) == 1, err


def test_validate_failing_check_exits_three(capsys, monkeypatch):
    def failing(quick, seed):
        return validate.ValidationCheck("broken", "a check that fails", False, "detail")

    monkeypatch.setattr(validate, "_CHECKS", [failing])
    code, out, err = run_cli(capsys, "validate")
    assert code == 3
    assert out == "broken  FAIL  a check that fails (detail)\n"
    assert err == ""


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


@pytest.mark.parametrize("argv", [
    ["curve", "--sigma", "1", "--y", "1", "--eps", "0.5", "--x-min", "-1e-05", "--x-max", "1",
     "--steps", "2"],
    ["pin", "--sigma", "1", "--y", "1", "--eps", "0.5", "--x", "-1e-12"],
    ["moment", "--dist", "normal(0,1)", "--p", "2", "--method", "negative", "--s", "-1e-1"],
])
def test_negative_values_in_exponent_notation(capsys, argv):
    # argparse took "-1e-05" for an option and exited 2 with "expected one
    # argument"; the two-token form now reads like "--opt=-1e-05"
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
    assert run_cli(capsys, *joined) == (code, out, err)


@pytest.mark.parametrize("token", ["-inf", "-Infinity", "-INF"])
def test_negative_infinity_is_a_value(capsys, token):
    # argparse took "-inf" for an option and exited 2 with "expected one
    # argument" while "--s=-inf" reached the route; both forms now give the
    # same exit and bytes, and a law whose E e^(sX) is infinite there still
    # exits 2 with that message
    for dist, want in (("point(1)", 0), ("point(-1)", 2)):
        argv = ["moment", "--dist", dist, "--p", "2", "--method", "negative"]
        code, out, err = run_cli(capsys, *argv, "--s", token)
        assert code == want, err
        assert run_cli(capsys, *argv, f"--s={token}") == (code, out, err)
    assert out == "" and "E e^(sX) is not finite" in err


def test_numerical_failure_exits_three(capsys, recwarn):
    # a large-rate compound Poisson plus atoms off its lattice has no usable
    # decay structure for the residual envelope, so the evaluation cap is honest
    code, out, err = run_cli(capsys, "moment", "--dist",
                             "sum(cpoisson(200,1), discrete(-1:0.5,0.37:0.5))", "--p", "0.5")
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


def test_large_y_pin_at_a_tiny_eps_exits_zero(capsys):
    # y / sigma = 27.5: the Gauss-Kronrod grid on the line s* = 1/y stopped
    # at QUADPACK's rounding floor with a bar of 1.7e-6 on m (exit 3)
    code, out, err = run_cli(capsys, "pin", "--sigma", "1", "--y", "27.5", "--eps", "1e-200",
                             "--x", "3.88")
    assert code == 0, err
    row = out.splitlines()[1].split(",")
    assert float(row[0]) == 3.88 and float(row[-1]) <= 1e-9


def test_pin_past_the_grid_work_bound_exits_three(capsys):
    # at eps = 1 - 1e-16 the Gaussian part of eta has variance 1e-16, so the
    # transform hardly decays and the level's grid would take far more than
    # the engine's node bound: a message, not a MemoryError or a hang
    code, out, err = run_cli(capsys, "pin", "--sigma", "1", "--y", "1",
                             "--eps", "0.9999999999999999", "--x", "2")
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure:") and len(err.splitlines()) == 1, err


@given(sigma=st.floats(-1.0, 1.0), ratio=st.floats(-4.0, 2.0),
       eps=st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                     st.floats(1e-16, 1e-15).map(lambda d: 1.0 - d)),
       x=st.floats(0.0, 5.0))
@settings(max_examples=300)
def test_pin_fuzz_ends_in_a_known_exit(sigma, ratio, eps, x):
    # y / sigma log-uniform in [1e-4, 1e2], eps in (0, 1) and within 1e-15 of
    # 1, x in [0, 5 sigma]: success, a precondition error (a subnormal eps
    # puts the Poisson rate out of range) or a numerical failure, each with
    # its message alone
    sigma = 10.0**sigma
    _assert_known_exit(["pin", "--sigma", repr(sigma), "--y", repr(sigma * 10.0**ratio),
                        "--eps", repr(eps), "--x", repr(x * sigma)])


def _assert_known_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 2, 3), (argv, code)
    assert not caught, (argv, [str(w.message) for w in caught])
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue(), argv


@given(sigma=st.floats(-1.0, 1.0), ratio=st.floats(-4.0, 1.0),
       eps=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       x_min=st.floats(-1.0, 5.0), span=st.floats(0.0, 3.0), steps=st.integers(1, 8))
@settings(max_examples=60)
def test_curve_fuzz_ends_in_a_known_exit(sigma, ratio, eps, x_min, span, steps):
    # y / sigma log-uniform in [1e-4, 10], up to 8 levels from [-sigma,
    # 8 sigma], an empty range or a single step now and then
    sigma = 10.0**sigma
    _assert_known_exit(["curve", "--sigma", repr(sigma), "--y", repr(sigma * 10.0**ratio),
                        "--eps", repr(eps), f"--x-min={x_min * sigma!r}",
                        f"--x-max={(x_min + span) * sigma!r}", "--steps", str(steps)])


# two decimals: floats() draws atoms as close to 0 as 1e-280, where a discrete
# law takes seconds to exhaust the evaluation budget
_NUMBER = st.integers(-1000, 1000).map(lambda k: k / 100)
_SCALE = st.floats(-3.0, 1.0).map(lambda e: 10.0**e)
_LAW = st.recursive(
    st.one_of(
        st.builds("point({})".format, _NUMBER),
        st.lists(st.tuples(_NUMBER, st.floats(0.01, 1.0)), min_size=1, max_size=3).map(
            lambda atoms: "discrete({})".format(",".join(
                f"{x!r}:{w / sum(w for _, w in atoms)!r}" for x, w in atoms))),
        st.builds("normal({},{})".format, _NUMBER, _SCALE),
        st.builds("cpoisson({},{})".format, st.floats(-6.0, 4.0).map(lambda e: 10.0**e), _SCALE),
    ),
    lambda inner: st.one_of(st.builds("shift({},{})".format, inner, _NUMBER),
                            st.builds("sum({},{})".format, inner, inner)),
    max_leaves=2,
)


@given(law=_LAW, p=st.one_of(st.integers(1, 6).map(float), st.floats(0.05, 8.0)),
       method=st.sampled_from(["cf", "laplace", "negative", "diff"]),
       s=st.one_of(st.none(), st.floats(0.05, 3.0)), j=st.integers(-1, 3),
       rel_tol=st.sampled_from([1e-9, 1e-6, 1e-3]))
@settings(max_examples=100)
def test_moment_fuzz_ends_in_a_known_exit(law, p, method, s, j, rel_tol):
    # point, discrete, normal and cpoisson laws (rates 1e-6 to 1e4), shifted
    # and summed, at integer and fractional p on every route, with line
    # offsets on the route's side and remainder orders in and out of the
    # law's range
    argv = ["moment", "--dist", law, "--p", repr(p), "--method", method,
            "--rel-tol", repr(rel_tol)]
    if method in ("laplace", "negative"):
        argv += ["--j", str(j)] + ([] if s is None else [f"--s={-s if method == 'negative' else s!r}"])
    _assert_known_exit(argv)


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
    ("point(1e200)", "2"),       # OverflowError in the raw moments
])
def test_float_overflow_exits_three(capsys, dist, p):
    code, out, err = run_cli(capsys, "moment", "--dist", dist, "--p", p)
    assert code == 3
    assert out == ""
    assert "numerical failure" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("dist, exact", [("point(1)", 1.0), ("normal(0,1)", 0.5)])
def test_order_below_float_resolution_within_bar(capsys, dist, exact):
    # at p = 1e-300, p + 1 rounds to 1 and the decay-free bound T^(1-q)/(q-1)
    # is infinite; the envelope used to divide by q - 1 = 0 for every law
    # (exit 3), but an atomic law has no decay-free residual and a Gaussian
    # one keeps its Mills bound
    code, out, err = run_cli(capsys, "moment", "--dist", dist, "--p", "1e-300")
    assert (code, err) == (0, "")
    value, err_est, tail_bound, _ = map(float, out.split(","))
    assert abs(value - exact) <= err_est + tail_bound


@pytest.mark.parametrize("argv, reason", [
    (["moment", "--dist", "point(1e200)", "--p", "2"],
     "OverflowError: Numerical result out of range"),
    (["pin", "--sigma", "1e120", "--y", "1e120", "--eps", "0.5", "--x", "2e120"],
     "OverflowError: Numerical result out of range"),
])
def test_float_exception_message_names_its_type(capsys, argv, reason):
    # an OverflowError from ** carries (errno, text): the message is the
    # type and the text, not the tuple
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (3, "", f"numerical failure: {reason}\n")


@pytest.mark.parametrize("argv", [
    ["moment", "--dist", "point(1e-100)", "--p", "1", "--method", "cf"],
    ["moment", "--dist", "point(1e-100)", "--p", "1", "--method", "diff"],
    ["moment", "--dist", "normal(0,1e-300)", "--p", "2"],
    ["pin", "--sigma", "1e-100", "--y", "1e-100", "--eps", "0.5", "--x", "2e-100"],
    ["pin", "--sigma", "1e-150", "--y", "1e-150", "--eps", "0.5", "--x", "2e-150"],
], ids=["point-cf", "point-diff", "normal-cf", "pin-1e-100", "pin-1e-150"])
def test_scale_below_the_float_range_exits_two(capsys, argv):
    # the cf and diff routes' head rule raises its cutoff, 0.05 over the scale,
    # to the power ell + 26 - p, and the tail-bound solver divides by the
    # square of the second moment at the far-left edge, about 470 sigma^2 here;
    # both used to leak as a bare OverflowError or ZeroDivisionError (exit 3)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "scale" in err and len(err.splitlines()) == 1, err
    assert "OverflowError" not in err and "ZeroDivisionError" not in err


def test_missed_tolerance_exits_three(capsys):
    # on the line s = -1e-3 the panels cannot reach the budget: the bar
    # was 67,555 times the budget after 938,610 evaluations, printed with exit 0
    code, out, err = run_cli(capsys, "moment", "--dist", "normal(0,1)", "--p", "2",
                             "--method", "negative", "--s", "-1e-3")
    assert code == 3 and out == ""
    assert re.fullmatch(r"numerical failure: the error bar of an integral \(\d+ evaluations\) "
                        r"is \S+, above its budget \S+\n", err), err


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


def test_pin_at_huge_sigma_fails_with_one_line():
    # mu1 mu3 passes the float range in the solver's slope: exit 3 with the
    # numerical-failure line alone on stderr, no numpy warning before it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "pospart", "pin", "--sigma", "1e100", "--y",
                           "1e100", "--eps", "0.5", "--x", "2e100"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("numerical failure:") and len(proc.stderr.splitlines()) == 1, \
        proc.stderr


@pytest.mark.parametrize("argv", [
    ["--dist", "discrete(-1:0.5,2:0.5)", "--p", "169", "--method", "laplace", "--s", "85"],
    ["--dist", "point(1)", "--p", "169", "--method", "laplace", "--s", "170"],
    ["--dist", "point(1)", "--p", "169", "--method", "laplace", "--s", "60"],
])
def test_line_whose_power_factor_leaves_the_float_range_exits_two(capsys, argv):
    # |s|^-170 is below 2^(-1022 + 53) / rel_tol on these lines: they
    # printed 0,0,0,390 (the moment is 3.74e50), 1.0000000031483238 with a
    # bar of 1.1e-14, and exit 3 after 955,950 evaluations
    code, out, err = run_cli(capsys, "moment", *argv)
    assert code == 2 and out == ""
    assert f"p = 169.0, s = {float(argv[-1])!r}" in err and err.startswith("error: ")


def test_order_whose_p_plus_one_rounds_to_one_exits_two(capsys):
    # p + 1 = 1: no tail bound on the decay-free transform, refused at once
    code, out, err = run_cli(capsys, "moment", "--dist", "sum(cpoisson(100,1),cpoisson(60,0.37))",
                             "--p", "1e-300")
    assert code == 2 and out == ""
    assert "p + 1 rounds to 1" in err


def test_high_integer_order_writes_no_warning():
    # at p = 145 the integrand's powers of t reach the edge of the float
    # range, and on the line s = inf the transform of a law below 0 is 0;
    # stderr carries diagnostics only, never a numpy warning
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    for argv in (["--dist", "point(1)", "--p", "145"],
                 ["--dist", "point(-1)", "--p", "2", "--method", "laplace", "--s", "inf"]):
        proc = subprocess.run([sys.executable, "-m", "pospart", "moment", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""


_IMPORT_PATH_SCRIPT = """
import sys
import pospart, pospart.cli, pospart.validate
from pospart import validate
from pospart.cli import main
from pospart.errors import NonFiniteIntegrand
from pospart.distributions import CenteredScaledPoisson, sample
sample(CenteredScaledPoisson(50, 1), 0, 3)
runs = (
    ["moment", "--dist", "normal(0,1)", "--p", "2.5"],
    ["moment", "--dist", "cpoisson(3,0.5)", "--p", "1.5", "--method", "diff"],
    ["moment", "--dist", "cpoisson(3,0.5)", "--p", "2.5", "--method", "cf"],
    ["moment", "--dist", "cpoisson(3,0.5)", "--p", "2.5", "--method", "laplace"],
    ["pin", "--sigma", "1", "--y", "1", "--eps", "0.5", "--x", "2"],
    ["curve", "--sigma", "1", "--y", "1", "--eps", "0.5",
     "--x-min", "0", "--x-max", "2", "--steps", "3"],
    ["validate", "--suite", "quick"],
)
codes = [main(argv) for argv in runs]
loaded = sorted(m for m in sys.modules
                if m.split(".")[0] in ("scipy", "mpmath", "hypothesis"))
print("RESULT", codes, loaded)
"""


def _run_python(script: str) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)


def test_runtime_path_loads_no_scipy():
    # the transform pipeline, the lattice kernel on both lines, the sampler,
    # the oracles and every CLI command run on numpy alone: no scipy, and no
    # test-only package either
    proc = _run_python(_IMPORT_PATH_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    result = proc.stdout.strip().splitlines()[-1]
    assert result == "RESULT [0, 0, 0, 0, 0, 0, 0] []", result


def test_validate_without_scipy_prints_the_same_bytes():
    # a None entry in sys.modules makes any import of scipy fail, as on an
    # install without it; the quick suite passes and prints what it prints
    # where scipy is present
    script = ("import sys\n{}from pospart.cli import main\n"
              "sys.exit(main(['validate', '--suite', 'quick']))\n")
    blocked = _run_python(script.format('sys.modules["scipy"] = None\n'))
    plain = _run_python(script.format(""))
    assert blocked.returncode == 0, blocked.stderr
    assert plain.returncode == 0, plain.stderr
    assert blocked.stdout == plain.stdout
    assert blocked.stderr == ""


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
