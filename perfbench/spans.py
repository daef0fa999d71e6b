"""Span tracing of parkseq's layers, installed only for a traced run.

`Tracer.install()` replaces each layer's public functions with wrappers
that push a span on entry and pop it on exit. A wrapper is set on every
parkseq module that holds the function under any name (`divider` holds
`empty_spot`, `cli` holds `simulate_*`, the package re-exports most of
them), and `Layout.block`/`Layout.occupied` are wrapped on the class.
`uninstall()` puts every original back.

Spans are aggregated as they close, not kept one by one: a bijection run
opens millions of them. Per span name the tracer keeps calls and self
time (duration minus the time of its child spans), per
(parent, child) name pair a call count, and named work counters. A
generator's span covers one `next()`, so the consumer's time between
items is not charged to it.

With `track_core_memory`, `tracemalloc` runs while a `core` span is open,
and the largest peak of memory allocated inside one such span is kept.
It slows allocation-heavy code tenfold and more, so a run that measures
time leaves it off.
"""

from __future__ import annotations

import functools
import inspect
import sys
import tracemalloc
from collections import Counter
from time import perf_counter
from typing import Callable

import parkseq.cli  # loads every layer module, cli included
from parkseq.core import Layout

LAYERS = ("core", "circular", "counting", "divider", "bruteforce", "cli")

PUBLIC_FUNCTIONS = {
    "core": ("simulate_linear", "is_parking_sequence", "is_classical_parking_function"),
    "circular": ("simulate_circular", "rotate", "empty_spot", "restrict_to_linear"),
    "counting": ("count_linear", "count_circular", "count_classical", "option_count"),
    "divider": (
        "decode",
        "options_for_car",
        "enumerate_option_sequences",
        "sample_linear",
        "sample_circular",
    ),
    "bruteforce": (
        "verify",
        "verify_sweep",
        "compositions",
        "enumerate_parking_sequences",
        "bijection_checks",
    ),
    "cli": ("main",),
}

LAYOUT_METHODS = {"block": "core.layout_block", "occupied": "core.layout_occupied"}


def _count_work(tracer: "Tracer", name: str, args: tuple, result: object) -> None:
    """Work counters read at the layer boundary from arguments and results."""
    if name == "divider.options_for_car":
        tracer.counters["divider.options_built"] += len(result)
    elif name == "divider.decode":
        tracer.counters["divider.options_decoded"] += len(args[1].options)
    elif name == "bruteforce.verify":
        tracer.counters["bruteforce.tuples_classified"] += result.total_tuples


class Tracer:
    def __init__(self, track_core_memory: bool = False) -> None:
        self.track_core_memory = track_core_memory
        # name -> [calls, self seconds]
        self.stats: dict[str, list] = {}
        self.edges: Counter = Counter()
        self.counters: Counter = Counter()
        self.core_peak_bytes = 0
        # open spans: [name, start, seconds spent in child spans]
        self._stack: list[list] = []
        self._core_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self.edges[parent, name] += 1
        if self.track_core_memory and name.startswith("core."):
            if self._core_depth == 0:
                tracemalloc.start()
            self._core_depth += 1
        self._stack.append([name, perf_counter(), 0.0])

    def exit(self) -> None:
        end = perf_counter()
        name, start, child = self._stack.pop()
        if self.track_core_memory and name.startswith("core."):
            self._core_depth -= 1
            if self._core_depth == 0:
                self.core_peak_bytes = max(
                    self.core_peak_bytes, tracemalloc.get_traced_memory()[1]
                )
                tracemalloc.stop()
        duration = end - start
        stat = self.stats.setdefault(name, [0, 0.0])
        stat[0] += 1
        stat[1] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, name: str, fn: Callable) -> Callable:
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    self.enter(name)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        self.exit()
                    self.counters[name + ".yielded"] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            _count_work(self, name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for key, m in sys.modules.items()
            if key == "parkseq" or key.startswith("parkseq.")
        ]
        for layer, names in PUBLIC_FUNCTIONS.items():
            home = sys.modules[f"parkseq.{layer}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        for method, name in LAYOUT_METHODS.items():
            self._patch(Layout, method, self.wrap(name, getattr(Layout, method)))

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    def self_seconds(self, prefix: str) -> float:
        return sum(s[1] for name, s in self.stats.items() if name.startswith(prefix))

    def calls(self, prefix: str) -> int:
        return sum(s[0] for name, s in self.stats.items() if name.startswith(prefix))
