"""Per-layer spans around drivenqubit's public names, from outside it.

For the length of a traced pass, every public function of a layer module
(and the ``__init__`` of every public class it defines) is replaced, in
each module that holds it, by a wrapper that records a span.  The
solver call that ``dynamics`` makes, ``solve_ivp``, gets a span of its
own; ``driving.bessel_j`` is only counted, because it is called once per
harmonic and a span there would cost more than the call.  Nothing under
``src/`` changes.

A span's self time is its duration minus the part its child spans
cover; a layer's self time is the sum over its spans.  Spans are summed
as they close rather than stored, since a sweep pass makes ~10^5.

The wrappers cost time of their own, most of it charged to the caller's
span.  ``calibrate`` measures that cost on no-op calls, and
``layer_metrics`` subtracts it, call by call, from each layer's self
time, so that a change that only makes fewer calls does not read as a
faster layer.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = ("bath", "driving", "rates", "dynamics")
COUNTED_ONLY = {("driving", "bessel_j")}
# the modules that import a layer's names
PACKAGE_MODULES = LAYERS + ("cli",)
CALIBRATION_CALLS = 20_000
CALIBRATION_ROUNDS = 5


def _call_repeatedly(fn):
    # two arguments, as in the hot calls bessel_j(n, x) and
    # power_spectrum(bath, w)
    for _ in range(CALIBRATION_CALLS):
        fn(1, 0.5)


class Tracer:
    def __init__(self):
        # ns a span adds to its own and to its caller's self time, and a
        # counted call to its caller's; zero until calibrate()
        self.cost_ns = {"span_own": 0.0, "span_caller": 0.0, "counter": 0.0}
        self.reset()

    def reset(self):
        self.self_ns = defaultdict(int)   # layer -> self time
        self.spans = defaultdict(int)     # layer -> spans
        self.child_spans = defaultdict(int)   # layer -> spans opened in it
        self.child_counts = defaultdict(int)  # layer -> counted calls in it
        self.entries = defaultdict(int)   # layer -> calls from another layer
        self.calls = defaultdict(int)     # "layer.name" -> calls
        self.rhs_evals = 0
        self._stack = []                  # open spans: [layer, child time]

    def calibrate(self):
        """Measure cost_ns: the median over rounds of no-op calls made
        bare, through a span and through a counter, inside a span."""
        probe = Tracer()

        def noop(a, b):
            return None

        kinds = {"bare": noop, "span": probe.span("callee", "noop", noop),
                 "counter": probe.counter("callee", "noop", noop)}
        samples = defaultdict(list)
        for _ in range(CALIBRATION_ROUNDS):
            for kind, fn in kinds.items():
                probe.reset()
                probe.span(kind, "loop", _call_repeatedly)(fn)
                samples[kind].append(probe.self_ns[kind])
                samples[kind + "_callee"].append(probe.self_ns["callee"])
        per_call = {kind: statistics.median(ns) / CALIBRATION_CALLS
                    for kind, ns in samples.items()}
        self.cost_ns = {
            "span_own": per_call["span_callee"],
            "span_caller": per_call["span"] - per_call["bare"],
            "counter": per_call["counter"] - per_call["bare"],
        }

    def span(self, layer, name, fn):
        key = f"{layer}.{name}"

        def wrapper(*args, **kwargs):
            stack = self._stack
            if stack:
                self.child_spans[stack[-1][0]] += 1
            if not stack or stack[-1][0] != layer:
                self.entries[layer] += 1
            self.spans[layer] += 1
            self.calls[key] += 1
            frame = [layer, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                stack.pop()
                self.self_ns[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
        return wrapper

    def counter(self, layer, name, fn):
        key = f"{layer}.{name}"

        def wrapper(*args, **kwargs):
            if self._stack:
                self.child_counts[self._stack[-1][0]] += 1
            self.calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def solver(self, fn):
        timed = self.span("solver", "solve_ivp", fn)

        def wrapper(*args, **kwargs):
            sol = timed(*args, **kwargs)
            self.rhs_evals += sol.nfev
            return sol
        return wrapper

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the body of the ``with`` block."""
        modules = [importlib.import_module(f"drivenqubit.{m}")
                   for m in PACKAGE_MODULES]
        undo = []

        def swap(owner, attr, new):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        try:
            for layer in LAYERS:
                layer_mod = importlib.import_module(f"drivenqubit.{layer}")
                for name, obj in vars(layer_mod).copy().items():
                    if name.startswith("_") or getattr(
                            obj, "__module__", None) != layer_mod.__name__:
                        continue
                    if inspect.isclass(obj):
                        if not issubclass(obj, BaseException):
                            swap(obj, "__init__",
                                 self.span(layer, name, obj.__init__))
                        continue
                    if not inspect.isfunction(obj):
                        continue
                    make = (self.counter if (layer, name) in COUNTED_ONLY
                            else self.span)
                    wrapped = make(layer, name, obj)
                    for mod in modules:
                        if getattr(mod, name, None) is obj:
                            swap(mod, name, wrapped)
            dynamics = importlib.import_module("drivenqubit.dynamics")
            swap(dynamics, "solve_ivp", self.solver(dynamics.solve_ivp))
            yield self
        finally:
            for owner, attr, old in reversed(undo):
                setattr(owner, attr, old)

    def self_ms(self, layer) -> float:
        """The layer's self time less the calibrated cost of the wrappers."""
        cost = self.cost_ns
        wrappers = (self.spans[layer] * cost["span_own"]
                    + self.child_spans[layer] * cost["span_caller"]
                    + self.child_counts[layer] * cost["counter"])
        return (self.self_ns[layer] - wrappers) / 1e6

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the spans since the last reset; see UNITS."""
        ms = {layer: self.self_ms(layer)
              for layer in ("cli",) + LAYERS + ("solver",)}
        return {
            "driving.bessel_calls": self.calls["driving.bessel_j"],
            "driving.harmonic_sum_calls": self.calls["driving.dd_harmonic_sum"],
            "driving.self_ms": ms["driving"],
            "bath.spectrum_calls": self.calls["bath.power_spectrum"],
            "bath.self_ms": ms["bath"],
            "rates.calls": self.entries["rates"],
            "rates.self_ms": ms["rates"],
            "dynamics.solver_ms": ms["solver"],
            "dynamics.rhs_evals": self.rhs_evals,
            "dynamics.self_ms": ms["dynamics"],
            "cli.self_ms": ms["cli"],
        }


UNITS = {name: ("ms" if name.endswith("_ms") else "count")
         for name in Tracer().layer_metrics()}
