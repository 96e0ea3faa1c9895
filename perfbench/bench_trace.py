"""Span tracing from outside the program: wrappers around its public calls.

A :class:`Tracer` replaces each traced function at the place the program
looks it up (a module global or a class attribute), records one span per
call (layer, start, end, parent span, op index) in memory, and restores the
original objects when its ``installed()`` context exits, also on error.
Nothing under ``src/`` is touched; wrappers pass arguments and results
through unchanged, so a traced run computes the same values as an
untraced one.
"""

from __future__ import annotations

import functools
import json
import os
from contextlib import contextmanager
from time import perf_counter

from bench_kernels import rls_work
from pitchftc import actuator, fdi, harness, numerics, plant, sprc, supervisor


def _rls_hook(counters, args, kwargs, result):
    """Rows absorbed and computed QR work of one block update."""
    est, regressors = args[0], args[1]
    rows = regressors.shape[0]
    if rows == 0:
        return
    counters["numerics.rls_update.rows"] += rows
    counters["numerics.rls_update.gflop"] += rls_work(rows, est.dim)[0]


def _gain_hook(counters, args, kwargs, result):
    if not result.ok:
        counters["sprc.gain_failures"] += 1


def _switch_hook(counters, args, kwargs, result):
    if result:
        counters["supervisor.switches_applied"] += 1


def _csv_hook(counters, args, kwargs, result):
    counters["harness.csv_bytes"] += os.path.getsize(args[0])


#: (layer, owner, attribute, hook).  Functions that ``harness`` or ``sprc``
#: imported by name are patched in the importing module, because that is
#: where the call looks them up; methods are patched on their classes.
TARGETS = (
    ("numerics.rls_update", numerics.RlsEstimator, "update_block", _rls_hook),
    ("numerics.solve_dare", sprc, "solve_dare", None),
    ("numerics.psd_estimate", numerics, "psd_estimate", None),
    ("sprc.build_regressor_block", harness, "build_regressor_block", None),
    ("sprc.identifier_rows", sprc.MarkovIdentifier, "rows", None),
    ("sprc.build_lifted", sprc, "build_lifted", None),
    ("sprc.update_gain", sprc, "update_gain", _gain_hook),
    ("sprc.period_update", sprc.RepetitiveLaw, "period_update", None),
    ("sprc.output_slice", sprc.RepetitiveLaw, "output_slice", None),
    ("sprc.generate_prbs", harness, "generate_prbs", None),
    ("actuator.run_chunk", actuator.ActuatorBank, "run_chunk", None),
    ("plant.run_chunk", plant.Plant, "run_chunk", None),
    ("fdi.design_fdie", harness, "design_fdie", None),
    ("fdi.run_chunk", fdi.Fdie, "run_chunk", None),
    ("fdi.scan_chunk", fdi.DecisionFuser, "scan_chunk", None),
    ("supervisor.offline_tune", supervisor, "offline_tune", None),
    ("supervisor.on_detection", supervisor, "on_detection", _switch_hook),
    ("supervisor.compose_pitch_command", supervisor, "compose_pitch_command", None),
    ("harness.run_simulation", harness, "run_simulation", None),
    ("harness.write_csv", harness, "write_csv", _csv_hook),
    ("harness.read_csv", harness, "read_csv", None),
    ("harness.report_from_series", harness, "report_from_series", None),
)

COUNTERS = (
    "numerics.rls_update.rows",
    "numerics.rls_update.gflop",
    "sprc.gain_failures",
    "supervisor.switches_applied",
    "harness.csv_bytes",
)


class Tracer:
    """Records spans of the traced calls while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list = []
        self.counters = dict.fromkeys(COUNTERS, 0.0)
        self.op = -1
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, layer: int, fn, hook):
        spans, stack, counters = self.spans, self._stack, self.counters

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            pos = len(spans)
            spans.append(None)
            stack.append(pos)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[pos] = (layer, t0, t1, parent, self.op)
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    @contextmanager
    def installed(self):
        self._patched = []
        try:
            for layer, (name, owner, attr, hook) in enumerate(self.targets):
                original = owner.__dict__[attr]
                self._patched.append((name, owner, attr, original))
                setattr(owner, attr, self._wrap(layer, original, hook))
            yield self
        finally:
            for _, owner, attr, original in reversed(self._patched):
                setattr(owner, attr, original)
            self._stack.clear()

    def leftover_wrappers(self) -> list[str]:
        """Names patched by the last install that do not hold their original."""
        return [
            name
            for name, owner, attr, original in self._patched
            if owner.__dict__[attr] is not original
        ]

    def layer_totals(self) -> tuple[dict, float]:
        """Per layer: calls, total seconds, and self seconds.

        Self time is a span's duration minus the time its direct children
        cover; the code is serial, so children never overlap each other.
        Also returns the summed duration of root spans.
        """
        n = len(self.targets)
        calls, total, child = [0] * n, [0.0] * n, [0.0] * len(self.spans)
        root = 0.0
        for layer, t0, t1, parent, _ in self.spans:
            d = t1 - t0
            calls[layer] += 1
            total[layer] += d
            if parent < 0:
                root += d
            else:
                child[parent] += d
        self_s = [0.0] * n
        for pos, (layer, t0, t1, _, _) in enumerate(self.spans):
            self_s[layer] += (t1 - t0) - child[pos]
        out = {
            target[0]: {"calls": calls[i], "total_s": total[i], "self_s": self_s[i]}
            for i, target in enumerate(self.targets)
        }
        return out, root

    def write(self, path) -> None:
        """Write the spans as JSON: layer names plus one row per span."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "layers": [t[0] for t in self.targets],
                    "columns": ["layer", "start_s", "end_s", "parent", "op"],
                    "spans": self.spans,
                },
                handle,
            )
