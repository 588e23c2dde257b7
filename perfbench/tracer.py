"""Span tracing of blehop's public functions, installed from outside the package.

A :class:`Tracer` replaces every public function of the six layer modules
(plus ``SniffTrace.timestamps`` and ``Forecast.from_dict``) with a wrapper
that records a span: name, parent span, start and end. The wrapper is put
into *every* ``blehop`` namespace that binds the function, because ``cli``,
``predict`` and ``reconstruct`` import names with ``from .x import y`` and
would keep calling the original if only the defining module were patched.

Spans live in compact in-memory arrays and are written out once, at the
end, by :meth:`Tracer.save`. Self time (a span's duration minus the part
covered by its direct children; calls are nested on one thread, so the
children never overlap) is accumulated as spans close, so per-layer
totals need no second pass over the spans.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

LAYERS = ("csa", "simulate", "trace", "reconstruct", "predict", "cli")
METHODS = (
    ("trace", "SniffTrace", "timestamps", "trace.timestamps"),
    ("predict", "Forecast", "from_dict", "predict.forecast_from_dict"),
)


def _count_elements(counters, args, kwargs, result):
    counters["elements"] += int(np.size(args[0]))


def _count_simulated(counters, args, kwargs, result):
    timelines, trace = result
    counters["events"] += sum(len(t) for t in timelines)
    counters["observations"] += len(trace)


def _count_rows(counters, args, kwargs, result):
    counters["rows"] += len(result)


def _count_ok(counters, args, kwargs, result):
    counters["ok"] += result.error is None


def _count_forecast(counters, args, kwargs, result):
    counters["entries"] += len(result)


# Work counts taken at the span boundary, from a call's arguments and result.
COUNTERS = {
    "csa.prn_e_bulk": _count_elements,
    "csa.csa2_channels_bulk": _count_elements,
    "simulate.simulate": _count_simulated,
    "trace.load_trace": _count_rows,
    "reconstruct.reconstruct_connection": _count_ok,
    "predict.predict_csa1": _count_forecast,
    "predict.predict_csa2": _count_forecast,
}


# Called once per trace row by the parser; a wrapper would cost more than
# the body, so its time stays in the caller's self time.
UNWRAPPED = {"csa.check_access_address"}


def _targets():
    """(namespace, attribute, original, span name) for every binding to wrap."""
    modules = {layer: importlib.import_module(f"blehop.{layer}") for layer in LAYERS}
    names = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and f"{layer}.{attr}" not in UNWRAPPED):
                names[obj] = f"{layer}.{attr}"
    namespaces = [importlib.import_module("blehop"), *modules.values()]
    bindings = []
    for namespace in namespaces:
        for attr, obj in list(vars(namespace).items()):
            if inspect.isfunction(obj) and obj in names:
                bindings.append((namespace, attr, obj, names[obj]))
    for layer, cls_name, attr, span in METHODS:
        cls = getattr(modules[layer], cls_name)
        bindings.append((cls, attr, cls.__dict__[attr], span))
    return bindings


class Tracer:
    """Records spans while installed and :attr:`active`; otherwise calls through."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_phase = array("b")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls = defaultdict(int)  # (phase, name) -> count
        self.self_ns = defaultdict(int)
        self.counters = defaultdict(lambda: defaultdict(int))
        self.phase = 0
        self.active = False
        self._stack = []  # [span index, child time] per open span
        self._installed = []
        self._bindings = _targets()

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name):
        name_id = self._name_id(name)
        count = COUNTERS.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_phase.append(self.phase)
            self.span_end.append(0)
            frame = [index, 0]
            stack.append(frame)
            start = perf_counter_ns()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                self.span_end[index] = end
                duration = end - start
                key = (self.phase, name)
                self.calls[key] += 1
                self.self_ns[key] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if count is not None:
                count(self.counters[(self.phase, name)], args, kwargs, result)
            return result

        return traced

    def install(self):
        for owner, attr, original, name in self._bindings:
            if isinstance(original, classmethod):
                wrapper = classmethod(self._wrap(original.__func__, name))
            else:
                wrapper = self._wrap(original, name)
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def layer_self_ns(self, phase):
        """Self time per layer (first component of the span name) in one phase."""
        totals = dict.fromkeys(LAYERS, 0)
        for (span_phase, name), ns in self.self_ns.items():
            if span_phase == phase:
                totals[name.split(".")[0]] += ns
        return totals

    def save(self, path):
        """Write every recorded span to a ``.npz`` file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            phase=np.frombuffer(self.span_phase, dtype=np.int8),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
        )
