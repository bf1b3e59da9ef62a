"""Outside-in layer tracing for the traced benchmark run.

The tracer rebinds module attributes of the already-imported ``pospart``
package in this process only: every module namespace that holds one of the
traced functions gets a wrapper that records a span, and ``restore`` puts the
originals back.  No source file changes.

A span is (name, start, end, parent, request id).  Spans stay in memory and
are written when the run ends.  Self time is a span's duration minus the time
covered by its direct children, computed as spans close.

Layers are named after the modules.  Besides the public functions, three
boundaries are wrapped from the outside of ``integrate_halfline``: the
integrand it receives (span ``distributions.kernel``: the transform and
remainder kernels) and the profile's ``tail_envelope`` / ``tail_closed_form``
(span ``<module>.tailmodel``, named after the module that built the profile).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

_perf = time.perf_counter

# (module, attribute) pairs wrapped as spans; the span is "<layer>.<attr>"
TRACED = {
    "cli": ("main",),
    "tailbound": ("pin_curve", "pin", "solve_tx", "m_of_t", "_moments23"),
    "moments": ("ppm_cf", "ppm_laplace", "ppm_negative_s", "ppm_diff", "match_discrete",
                "i_p", "j_p", "improper_cf_moment"),
    "quadrature": ("integrate_halfline", "partial_integrals"),
    "oracles": ("density_ppm", "naive_series_ppm", "mc_ppm", "mc_tail"),
    "validate": ("run_suite",),
}
COUNTERS = ("integrals", "evals", "batches", "nodes", "panels", "m_evals")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # per span: name id, start, end, parent index, request id
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.request: list[int] = []
        self._child = []      # time covered by direct children, per span
        self._stack: list[int] = []
        self.req = -1
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)     # counters, see COUNTERS and record_integral
        self.open_layers = defaultdict(int)
        self.check_time = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []
        self.per_op: list = []     # counter deltas per operation, None if interrupted
        self._last = (0,) * len(COUNTERS)

    # -- spans -----------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._nid(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.req)
        self._child.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.open_layers[name.split(".", 1)[0]] += 1
        self.start.append(_perf())
        return idx

    def close(self, idx: int) -> float:
        end = _perf()
        self.end[idx] = end
        self._stack.pop()
        dur = end - self.start[idx]
        parent = self.parent[idx]
        if parent >= 0:
            self._child[parent] += dur
        name = self.names[self.name_id[idx]]
        self.open_layers[name.split(".", 1)[0]] -= 1
        self.total[name] += dur
        self.self_time[name] += dur - self._child[idx]
        self.calls[name] += 1
        return dur

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    # -- boundaries inside integrate_halfline ------------------------------

    def _kernel(self, f):
        if getattr(f, "__wrapped_by_bench__", False):
            return f
        tracer = self

        def kernel(t):
            idx = tracer.open("distributions.kernel")
            try:
                return f(t)
            finally:
                tracer.close(idx)
                tracer.counts["batches"] += 1
                tracer.counts["nodes"] += np.size(t)

        kernel.__wrapped_by_bench__ = True
        return kernel

    def _profile(self, profile):
        if getattr(profile, "__wrapped_by_bench__", False):
            return profile

        def tail(fn):
            if fn is None:
                return None
            layer = getattr(fn, "__module__", "") or ""
            layer = layer.rsplit(".", 1)[-1] if layer.startswith("pospart") else "other"
            return self.wrap(f"{layer}.tailmodel", fn)

        out = dataclasses.replace(profile, tail_envelope=tail(profile.tail_envelope),
                                  tail_closed_form=tail(profile.tail_closed_form))
        out.__wrapped_by_bench__ = True   # partial_integrals passes it on to integrate_halfline
        return out

    def _integrator(self, name: str, fn, budget_exceeded):
        tracer = self

        @functools.wraps(fn)
        def traced(f, profile, *args, **kwargs):
            f = tracer._kernel(f)
            profile = tracer._profile(profile)
            idx = tracer.open(name)
            result = None
            try:
                result = fn(f, profile, *args, **kwargs)
                return result
            except budget_exceeded as exc:
                tracer.counts["budget_exceeded"] += 1
                result = exc.partial
                raise
            finally:
                tracer.close(idx)
                if name == "quadrature.integrate_halfline":
                    tracer.record_integral(result)

        return traced

    def record_integral(self, result) -> None:
        evals = result.evaluations if result is not None else 0
        panels = result.panels_used if result is not None else 0
        c = self.counts
        c["integrals"] += 1
        c["evals"] += evals
        c["panels"] += panels
        c["evals_max"] = max(c["evals_max"], evals)
        for layer in ("tailbound", "moments"):
            if self.open_layers[layer] > 0:
                c[f"{layer}.integrals"] += 1
                c[f"{layer}.evals"] += evals

    # -- installing and restoring ------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "pospart" or mod_name.startswith("pospart.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        from pospart import errors, validate

        for layer, attrs in TRACED.items():
            mod = sys.modules[f"pospart.{layer}"]
            for attr in attrs:
                original = getattr(mod, attr)
                if layer == "quadrature":
                    wrapper = self._integrator(f"quadrature.{attr}", original,
                                               errors.BudgetExceeded)
                elif attr == "_moments23":
                    wrapper = self.wrap("tailbound.m_eval", original)   # one m(t) evaluation
                elif attr == "ppm_cf":
                    wrapper = self._cf(self.wrap("moments.ppm_cf", original))
                else:
                    wrapper = self.wrap(f"{layer}.{attr}", original)
                self._rebind(original, wrapper)
        checks = validate._CHECKS
        self._patched.append((validate, "_CHECKS", checks))
        validate._CHECKS = [self._check(fn) for fn in checks]

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _cf(self, fn):
        tracer = self

        @functools.wraps(fn)
        def cf(*args, **kwargs):
            # called while an m(t) evaluation is open: the solver's CF fallback
            if tracer._stack and tracer.names[tracer.name_id[tracer._stack[-1]]] == "tailbound.m_eval":
                tracer.counts["tailbound.cf_calls"] += 1
            return fn(*args, **kwargs)

        return cf

    def _check(self, fn):
        tracer = self

        @functools.wraps(fn)
        def check(*args, **kwargs):
            idx = tracer.open("validate.check")
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer.close(idx)
            tracer.check_time[result.check_id] += dur
            return result

        return check

    # -- output --------------------------------------------------------------

    def after_op(self, timed_out: bool) -> None:
        self.counts["m_evals"] = self.calls["tailbound.m_eval"]
        now = tuple(self.counts[k] for k in COUNTERS)
        # an operation interrupted by the hang guard has no fixed count, and
        # the interrupt may have cut a span's bookkeeping short
        self.per_op.append(None if timed_out else [a - b for a, b in zip(now, self._last)])
        self._last = now
        if timed_out:
            self._stack.clear()
            self.open_layers.clear()

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names), name_id=np.array(self.name_id, dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent, dtype=np.int64),
                 request=np.array(self.request, dtype=np.int32))
        with open(os.path.splitext(path)[0] + ".counts.json", "w") as fh:
            json.dump({"counters": COUNTERS, "per_op": self.per_op}, fh)
