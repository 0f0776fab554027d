"""Outside-in tracing of pmlkit's layers.

``Tracer.install`` wraps the public functions of each pmlkit module and
the constructors of its public classes (construction is where pmlkit
validates), then rebinds every ``pmlkit.*`` namespace that holds one of
the originals, because ``pmlkit.cli`` and ``pmlkit/__init__`` import
functions by name.  It is called in a request's own process, so the
benchmark's parent process and the untraced requests never see a
wrapper.

Every call records a span ``[id, parent, request, key, start, end]`` in
memory.  A re-entrant call of the function that is already innermost
(``jsonable`` recursing over a report) is folded into the outer span.
A span's self time is its duration minus its children's durations.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "modelio", "distributions", "leakage", "oracles", "continuous")

#: sub-layers by the name of the function or class that opens them; a span
#: nested in another span of the same layer inherits that span's sub-layer
SUBLAYERS = {
    "leakage": {
        "profile": ("renyi_inf", "pml", "leakage_profile", "LeakageValue", "LeakageProfile",
                    "absolute_continuity_witness", "check_absolute_continuity"),
        "aggregate": ("maximal_leakage", "mean_leakage", "tail_probability"),
    },
    "oracles": {
        "subset": ("subset_oracle",),
        "partition": ("partition_oracle", "build_partition_gain", "PartitionGain"),
        "functions": ("randomized_function_oracle", "shattering_value"),
        "strategies": ("randomized_strategy_check", "gain_ratio", "GainFunction"),
    },
}


def _targets(module):
    """(owner, attribute, key) for each public function and class constructor
    defined in the module."""
    layer = module.__name__.rsplit(".", 1)[1]
    subs = {name: sub for sub, names in SUBLAYERS.get(layer, {}).items() for name in names}
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        key = (layer, subs.get(name), name)
        if inspect.isfunction(obj):
            yield module, name, key
        elif inspect.isclass(obj):
            for attr in ("__post_init__", "__init__"):
                if attr in vars(obj):
                    yield obj, attr, key
                    break


class Tracer:
    """Span recorder for one request; lives in that request's process."""

    def __init__(self, request_id: int):
        self.request_id = request_id
        self.spans = []
        self._stack = [-1]
        self._keys = [None]
        # Found in every request process, traced or not, so both kinds touch
        # the same inherited pages before their timed region.
        self._targets = [(owner, attr, key) for layer in LAYERS
                         for owner, attr, key in _targets(sys.modules[f"pmlkit.{layer}"])]
        self._namespaces = [module for name, module in sys.modules.items()
                            if name == "pmlkit" or name.startswith("pmlkit.")]

    def _wrap(self, fn, key):
        spans, stack, keys, clock, rid = self.spans, self._stack, self._keys, time.perf_counter, self.request_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys[-1] is key:
                return fn(*args, **kwargs)
            span = [len(spans), stack[-1], rid, key, clock(), 0.0]
            spans.append(span)
            stack.append(span[0])
            keys.append(key)
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
                keys.pop()

        return traced

    def install(self) -> None:
        wrapped = {}
        for owner, attr, key in self._targets:
            original = vars(owner)[attr]
            replacement = self._wrap(original, key)
            setattr(owner, attr, replacement)
            wrapped[id(original)] = replacement
        for module in self._namespaces:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and not attr.startswith("__"):
                    setattr(module, attr, wrapped[id(value)])

    def summary(self) -> dict:
        """Per-layer and per-sub-layer [calls, self seconds], and calls per
        function, for this request."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, parent, _, _, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        resolved = [None] * len(spans)
        layers, subs, calls = {}, {}, {}
        for span_id, parent, _, (layer, sub, name), start, end in spans:
            if parent >= 0 and spans[parent][3][0] == layer and resolved[parent] is not None:
                sub = resolved[parent]
            resolved[span_id] = sub
            self_s = end - start - child_time[span_id]
            for table, k in ((layers, layer), (subs, f"{layer}.{sub}" if sub else None)):
                if k is not None:
                    entry = table.setdefault(k, [0, 0.0])
                    entry[0] += 1
                    entry[1] += self_s
            fn = f"{layer}.{name}"
            calls[fn] = calls.get(fn, 0) + 1
        return {"request": self.request_id, "spans": len(spans), "layers": layers,
                "sublayers": subs, "calls": calls}
