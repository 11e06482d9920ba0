"""Per-layer spans and counters for trideal, recorded from outside the package.

``Tracer.install`` wraps the public functions of each package module (its
``__all__``), the ``LaurentPoly`` arithmetic methods and ``cli.main``, and
puts each wrapper in every namespace that holds the original: the module
itself, every module that imported the name, and dicts such as
``cli._SEQUENCES``.  ``uninstall`` puts the originals back.

A call from one layer into another opens a span; a call within the same
layer only bumps counters, because its time is already inside the caller's
span.  Generators are timed per ``next()``, so the time a consumer spends
between items is charged to the consumer.  A layer's self time is the sum
of its spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import importlib
import sys
from functools import partial
from time import perf_counter
from types import GeneratorType

#: Library layers, named after their modules; ``cli`` is the root layer.
LAYERS = ("model", "enumeration", "bijections", "counting", "laurent")
ALL_LAYERS = (*LAYERS, "cli")

_SWEEPS = frozenset({"enumerate_deals", "enumerate_full_deck_deals"})
_PARAM_STREAMS = frozenset({"iter_full_deck_params", "iter_red_set_params"})
_CODECS = frozenset({"encode_full_deck", "decode_full_deck", "encode_red_set", "decode_red_set"})
_POLY_METHODS = ("__mul__", "__rmul__", "__pow__", "to_text", "constant_term")


class Tracer:
    """Span stack, per-layer self time and work counters for one traced pass."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(ALL_LAYERS, 0.0)
        self.counts = dict.fromkeys(
            ("enumeration.passes", "enumeration.deals", "model.calls", "bijections.params",
             "bijections.codec_calls", "counting.calls", "laurent.muls", "laurent.terms_out"),
            0,
        )
        self.max_terms = 0
        self.max_int = 0
        self._stack: list[list] = []  # [layer, seconds covered by child spans]
        self._undo: list[partial] = []

    # --- spans ----------------------------------------------------------

    def _call(self, layer, fn, args, kwargs):
        stack = self._stack
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        frame = [layer, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            stack.pop()
            self.self_s[layer] += duration - frame[1]
            if stack:
                stack[-1][1] += duration

    def _iterate(self, layer, it, item_key):
        while True:
            try:
                item = self._call(layer, next, (it,), {})
            except StopIteration:
                return
            if item_key:
                self.counts[item_key] += 1
            yield item

    # --- counters -------------------------------------------------------

    def _note_int(self, value) -> None:
        if isinstance(value, int) and abs(value) > self.max_int:
            self.max_int = abs(value)

    def _note_poly(self, value) -> None:
        if value is not NotImplemented:
            self.counts["laurent.terms_out"] += len(value)
            self.max_terms = max(self.max_terms, len(value))

    def _wrap(self, layer: str, name: str, fn):
        call_key = item_key = on_result = on_span_result = None
        if layer == "model":
            call_key = "model.calls"
        elif name in _SWEEPS:
            call_key, item_key = "enumeration.passes", "enumeration.deals"
        elif name in _CODECS:
            call_key = "bijections.codec_calls"
        elif name in _PARAM_STREAMS:
            item_key = "bijections.params"
        elif layer == "counting":
            call_key, on_span_result = "counting.calls", self._note_int
        elif name in ("__mul__", "__rmul__"):
            call_key, on_result = "laurent.muls", self._note_poly

        counts, stack = self.counts, self._stack

        def wrapper(*args, **kwargs):
            if call_key:
                counts[call_key] += 1
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                result = self._call(layer, fn, args, kwargs)
                if on_span_result:
                    on_span_result(result)
            if on_result:
                on_result(result)
            if isinstance(result, GeneratorType):
                return self._iterate(layer, result, item_key)
            return result

        return wrapper

    # --- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the imported ``trideal`` package."""
        package = {name: importlib.import_module(f"trideal.{name}") for name in (*LAYERS, "cli")}
        wrappers = {}
        for layer in LAYERS:
            module = package[layer]
            for name in module.__all__:
                obj = getattr(module, name)
                if callable(obj) and not isinstance(obj, type):
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
        main = package["cli"].main
        wrappers[id(main)] = (main, self._wrap("cli", "main", main))

        def swap(table: dict) -> None:
            for key, value in list(table.items()):
                entry = wrappers.get(id(value))
                if entry and entry[0] is value:
                    table[key] = entry[1]
                    self._undo.append(partial(table.__setitem__, key, value))

        for name, module in list(sys.modules.items()):
            if name == "trideal" or name.startswith("trideal."):
                namespace = vars(module)
                swap(namespace)
                for value in list(namespace.values()):
                    if type(value) is dict:
                        swap(value)
        poly = package["laurent"].LaurentPoly
        for name in _POLY_METHODS:
            original = poly.__dict__[name]
            setattr(poly, name, self._wrap("laurent", name, original))
            self._undo.append(partial(setattr, poly, name, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def metrics(self) -> dict[str, float]:
        """Counts of this pass; self times are combined across passes by the caller."""
        out = dict(self.counts)
        out["laurent.max_terms"] = self.max_terms
        out["counting.max_digits"] = len(str(self.max_int)) if self.max_int else 0
        return out
