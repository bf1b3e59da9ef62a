"""The names that perfbench rebinds at run time must exist.

perfbench/layertrace.py wraps each attribute its TRACED table lists, and the
work meter in perfbench/workloads.py rebinds integrate_halfline and reads
the tail model behind a profile's tail_envelope.  A rename in pospart would
stop the traced run or silently drop a count, so these tests pin the names.
"""

import ast
import importlib
import pathlib

from pospart import moments, quadrature, tailbound
from pospart.distributions import FiniteDiscrete
from pospart.remainders import MomentOrder


def _traced() -> dict:
    # parsed, not imported: importing the tracer pulls in the benchmark
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED table in perfbench/layertrace.py")


def test_traced_attributes_exist():
    traced = _traced()
    assert "_moments23" in traced["tailbound"]
    for layer, attrs in traced.items():
        module = importlib.import_module(f"pospart.{layer}")
        for attr in attrs:
            assert callable(getattr(module, attr, None)), f"pospart.{layer}.{attr}"


def test_one_engine_call_per_m_evaluation(monkeypatch):
    # the tracer counts each _moments23 call as one m(t) evaluation: a line
    # level takes exactly one call, a far-left level (closed form) none
    calls, real = [], tailbound._moments23
    monkeypatch.setattr(tailbound, "_moments23", lambda *a: calls.append(a[1].size) or real(*a))
    problem = tailbound.TailBoundProblem(1.0, 1.0, 0.5)
    tailbound.m_of_t(problem, 0.7)
    assert calls == [1]
    tailbound.m_of_t(problem, 2.0 * tailbound._far_left_edge(problem))
    assert calls == [1]


def test_work_meter_hooks():
    # the meter rebinds every module attribute that is quadrature's
    # integrate_halfline, and counts one term per harmonic of the tail model
    assert moments.integrate_halfline is quadrature.integrate_halfline
    spec = FiniteDiscrete(((-1.0, 0.5), (2.0, 0.5)))
    kernel = moments._transform_kernel(spec, MomentOrder.from_p(2.5), 0.0, 2, "cf")
    assert len(kernel.profile.tail_envelope.__self__.harmonics) == 2
