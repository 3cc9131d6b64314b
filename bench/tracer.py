"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces each function named in ``layers.LAYERS`` with
a wrapper, in its defining module and in every ``macrobox`` module that
imported it by name (methods are replaced on their class).  A span holds
the layer, the job index, start and end times, the parent span and, for
layers reporting ``distinct_ratio``, a key of the call's (model, args).
Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import sys
import time
from fractions import Fraction

from layers import LAYERS

# Work sizes computed from the arguments of a call that returned.
_SIZES = {
    # 2^(copies s_a) Alice outcome tuples times 2^(copies s_b) Bob ones.
    "symmetry.jpd_general": lambda model, copies, *a, **k: 2 ** (copies * (model.s_a + model.s_b)),
    # Per side with >= 2 settings: n particles x s_a^n s_b^n contexts x 4^n outcomes.
    "ensemble.check_no_signalling": lambda model, *a, **k: sum(
        model.n * model.s_a ** model.n * model.s_b ** model.n * 4 ** model.n
        for s in (model.s_a, model.s_b) if s >= 2),
    "macro.macro_distribution_bruteforce": lambda model, *a, **k: 4 ** model.n,
}


class Tracer:
    def __init__(self):
        self.spans = []      # [layer, job, start, end, parent, key]
        self.stack = []
        self.job = -1
        self.missing = []
        self._frozen = {}    # id(obj) -> key, for the current job
        self._alive = []     # keeps the objects behind _frozen ids alive

    def start_job(self, index: int) -> None:
        self.job = index
        self._frozen.clear()
        self._alive.clear()

    # --- keys for distinct_ratio ----------------------------------------
    def _freeze(self, value):
        if isinstance(value, (int, str, float, bool, Fraction, type(None))):
            return value
        if isinstance(value, (list, tuple)):
            return tuple(self._freeze(v) for v in value)
        key = self._frozen.get(id(value))
        if key is None:
            key = self._model_key(value)
            self._frozen[id(value)] = key
            self._alive.append(value)
        return key

    def _model_key(self, value):
        box = getattr(value, "box", None)
        if box is not None and hasattr(value, "n"):   # a product model
            return ("pairs", value.n, box.s_a, box.s_b, tuple(sorted(box.table.items())))
        if isinstance(value, dict):
            return tuple(sorted((k, self._freeze(v)) for k, v in value.items()))
        # Explicit tables and other objects: one object per job, keyed by identity.
        return (type(value).__name__, id(value))

    # --- wrapping --------------------------------------------------------
    def _wrap(self, index: int, fn, distinct: bool, size):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = self._freeze((args, tuple(sorted(kwargs.items())))) if distinct else None
            record = [index, self.job, 0.0, 0.0, stack[-1] if stack else -1, key, 0]
            position = len(spans)
            spans.append(record)
            stack.append(position)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if size is not None:
                record[6] = size(*args, **kwargs)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer function wherever a macrobox module binds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "macrobox" or name.startswith("macrobox."))]
        for index, layer in enumerate(LAYERS):
            module = sys.modules.get(f"macrobox.{layer.module}")
            owner_name, _, method = layer.function.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(method) if owner is not None else None
            if raw is None:
                self.missing.append(layer.name)
                continue
            is_static = isinstance(raw, staticmethod)
            original = raw.__func__ if is_static else raw
            wrapper = self._wrap(index, original, "distinct_ratio" in layer.stats,
                                 _SIZES.get(layer.name))
            if owner_name:
                setattr(owner, method, staticmethod(wrapper) if is_static else wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    # --- statistics ------------------------------------------------------
    def stats(self) -> dict:
        """Per-layer metric values for the pass, keyed by metric name."""
        child_time = [0.0] * len(self.spans)
        for layer, job, start, end, parent, key, size in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = [0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        work = [0] * len(LAYERS)
        distinct = [set() for _ in LAYERS]
        for position, (layer, job, start, end, parent, key, size) in enumerate(self.spans):
            calls[layer] += 1
            self_s[layer] += end - start - child_time[position]
            work[layer] += size
            if key is not None:
                distinct[layer].add((job, key))
        values = {}
        for index, layer in enumerate(LAYERS):
            for stat in layer.stats:
                if stat == "calls":
                    value = calls[index]
                elif stat == "self_s":
                    value = self_s[index]
                elif stat == "distinct_ratio":
                    value = len(distinct[index]) / calls[index] if calls[index] else 0.0
                else:
                    value = work[index]
                values[f"{layer.name}.{stat}"] = value
        return values

    def span_rows(self) -> list:
        """Spans as [layer name, job, start, end, parent] rows for writing out."""
        return [[LAYERS[layer].name, job, start, end, parent]
                for layer, job, start, end, parent, key, size in self.spans]
