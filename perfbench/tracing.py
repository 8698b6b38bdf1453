"""Spans and counters recorded around anthill's public functions.

The tracer swaps functions on two namespaces for wrappers that time
each call: the `anthill.harness` module, so a soundness trial keeps its
own control flow, and the benchmark's call surface. Nothing inside the
package is changed, so calls a layer makes to itself are not traced.

A span holds its layer name, the item it belongs to (a trial, a
program or a set-up step; every top-level span starts a new item), its
phase (`setup` or `loop`), start, end and parent span. Spans stay in
memory and are written out once, when the run ends. A layer's self
time is its spans' durations minus their child spans and minus the
tracer's own bookkeeping done after each call. One cost is not taken
out: `run` is given an `on_step` callback that counts the rules, and
it runs inside the runtime span, so runtime times and steps/s include
one extra Python call per step.
"""

from __future__ import annotations

import json
import re
import time
from contextlib import contextmanager

# layer -> the public functions whose calls are charged to it
LAYER_FUNCTIONS = {
    "generate": ("gen_untyped_context", "gen_type", "gen_typed_term",
                 "gen_typed_program"),
    "translate": ("translate_term", "translate_program", "tag_of"),
    "printer": ("print_anthill_term", "print_anthill_type",
                "print_upython", "print_tag"),
    "parser": ("parse_anthill", "parse_upython"),
    "verify": ("verifies",),
    "verify.heap": ("principal_heap_type", "infer", "tag_subtype"),
    "contexts.validate": ("validate_context",),
    "contexts.type": ("type_context",),
    "contexts.plug": ("plug",),
    "runtime": ("run",),
    "harness": ("soundness_trial",),
}

# the module each layer's time is reported under, for load shares
LAYER_MODULE = {layer: layer.split(".")[0] for layer in LAYER_FUNCTIONS}

RULES = ("ECheck1", "ELet", "EApp1", "EApp2", "EGet1", "ESet", "EClass")
OUTCOMES = ("value", "casterror", "native-error", "timeout")

_CHECK = re.compile(r"\bcheck\(")


class Tracer:
    def __init__(self, anthill) -> None:
        self._anthill = anthill
        # [layer, item, phase, start, end, parent index, excluded seconds]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._items = 0
        self.phase = "setup"
        self.counts: dict[tuple[str, str], float] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _start(self, layer: str) -> int:
        if self._stack:
            parent = self._stack[-1]
            item = self.spans[parent][1]
        else:
            parent = None
            self._items += 1
            item = self._items
        self.spans.append([layer, item, self.phase, time.perf_counter(),
                           None, parent, 0.0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _end(self, index: int) -> None:
        self.spans[index][4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, layer: str):
        index = self._start(layer)
        try:
            yield
        finally:
            self._end(index)

    def _exclude_since(self, t0: float) -> None:
        # bookkeeping the tracer did inside the caller's span
        if self._stack:
            self.spans[self._stack[-1]][6] += time.perf_counter() - t0

    def count(self, key: str, amount: float = 1) -> None:
        k = (self.phase, key)
        self.counts[k] = self.counts.get(k, 0) + amount

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        after = self._counters(name)

        def traced(*args, **kwargs):
            index = self._start(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if after is not None:
                t0 = time.perf_counter()
                after(args, result)
                self._exclude_since(t0)
            return result

        return traced

    def _counters(self, name: str):
        A = self._anthill
        if name in ("translate_term", "translate_program"):
            def after(args, result):
                text = A.print_upython(result[0])
                self.count("translate.checks", len(_CHECK.findall(text)))
                self.count("translate.out_chars", len(text))
            return after
        if name.startswith("print_"):
            return lambda args, result: self.count("printer.chars",
                                                   len(result))
        if name.startswith("parse_"):
            def after(args, result):
                self.count("parser.chars", len(args[0]))
                self.count("parser.tokens", len(A.parser.tokenize(args[0])))
            return after
        return None

    def _wrap_run(self, run):
        A = self._anthill

        def traced_run(e, heap=None, budget=10 ** 6, on_step=None):
            heap = A.Heap() if heap is None else heap
            rules = {}

            def counted(steps, rule, heap_size):
                rules[rule] = rules.get(rule, 0) + 1
                if on_step is not None:
                    on_step(steps, rule, heap_size)

            index = self._start("runtime")
            try:
                outcome = run(e, heap, budget, counted)
            finally:
                self._end(index)
            t0 = time.perf_counter()
            self.count("runtime.runs")
            self.count("runtime.steps", outcome.steps)
            self.count("runtime.heap_cells", len(heap))
            self.count("runtime.outcome." + outcome_name(A, outcome))
            for rule, n in rules.items():
                self.count("runtime.rule." + rule, n)
            self._exclude_since(t0)
            return outcome

        return traced_run

    def install(self, *namespaces) -> None:
        for ns in namespaces:
            if hasattr(ns, "span"):
                self._saved.append((ns, "span", ns.span))
                ns.span = self.span
            for layer, names in LAYER_FUNCTIONS.items():
                for name in names:
                    fn = getattr(ns, name, None)
                    if fn is None:
                        continue
                    self._saved.append((ns, name, fn))
                    wrapped = (self._wrap_run(fn) if name == "run"
                               else self._wrap(layer, name, fn))
                    setattr(ns, name, wrapped)

    def uninstall(self) -> None:
        for ns, name, fn in reversed(self._saved):
            setattr(ns, name, fn)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def self_seconds(self) -> dict[tuple[str, str], float]:
        """(phase, layer) -> self time in seconds."""
        child = [0.0] * len(self.spans)
        for layer, item, phase, t0, t1, parent, excl in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[tuple[str, str], float] = {}
        for i, (layer, item, phase, t0, t1, parent, excl) in \
                enumerate(self.spans):
            key = (phase, layer)
            out[key] = out.get(key, 0.0) + (t1 - t0) - child[i] - excl
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for index, (layer, item, phase, t0, t1, parent, excl) in \
                    enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": layer, "item": item,
                    "phase": phase, "start": t0, "end": t1,
                    "parent": parent}) + "\n")


def outcome_name(A, outcome) -> str:
    if isinstance(outcome, A.Value):
        return "value"
    if isinstance(outcome, A.CastError):
        return "casterror"
    if isinstance(outcome, A.Timeout):
        return "timeout"
    if outcome.label is A.NATIVE:
        return "native-error"
    return "translated-error"


def layer_metrics(tracer: Tracer, setup_items: int, loop_items: int,
                  overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each per item: set-up work is divided by the
    programs set-up prepared, loop work by the items the loop ran."""
    self_s = tracer.self_seconds()
    counts = tracer.counts

    def per_item(source, key, scale=1.0):
        total = 0.0
        for phase, n in (("setup", setup_items), ("loop", loop_items)):
            v = source.get((phase, key), 0.0)
            if v:
                total += v * scale / n
        return total

    m = {}
    for metric, layer in (
            ("generate.ms", "generate"), ("translate.ms", "translate"),
            ("printer.ms", "printer"), ("parser.ms", "parser"),
            ("verify.ms", "verify"), ("verify.heap_ms", "verify.heap"),
            ("contexts.validate_ms", "contexts.validate"),
            ("contexts.type_ms", "contexts.type"),
            ("contexts.plug_ms", "contexts.plug"),
            ("runtime.ms", "runtime"), ("harness.self_ms", "harness")):
        m[metric] = (per_item(self_s, layer, 1000.0), "ms")
    m["translate.checks"] = (per_item(counts, "translate.checks"), "count")
    m["translate.out_kchars"] = (
        per_item(counts, "translate.out_chars", 0.001), "kchar")
    m["printer.kchars"] = (per_item(counts, "printer.chars", 0.001), "kchar")
    m["parser.tokens"] = (per_item(counts, "parser.tokens"), "count")

    def total(source, key):
        return sum(source.get((phase, key), 0.0)
                   for phase in ("setup", "loop"))

    parser_s = total(self_s, "parser")
    m["parser.kchars_per_s"] = (
        total(counts, "parser.chars") / 1000 / parser_s if parser_s else 0.0,
        "kchar/s")

    # the runtime counters describe the timed loop only
    runs = counts.get(("loop", "runtime.runs"), 0)
    steps = counts.get(("loop", "runtime.steps"), 0)
    run_s = self_s.get(("loop", "runtime"), 0.0)
    m["runtime.steps"] = (steps / loop_items, "count")
    m["runtime.steps_per_s"] = (steps / run_s if run_s else 0.0, "1/s")
    m["runtime.heap_cells"] = (
        counts.get(("loop", "runtime.heap_cells"), 0) / loop_items, "count")
    for outcome in OUTCOMES:
        n = counts.get(("loop", "runtime.outcome." + outcome), 0)
        m["runtime.outcome." + outcome] = (n / runs if runs else 0.0,
                                           "share")
    for rule in RULES:
        m["runtime.rule." + rule] = (
            counts.get(("loop", "runtime.rule." + rule), 0) / loop_items,
            "count")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m


def module_shares(tracer: Tracer) -> dict[str, float]:
    """Share of the traced loop's self time (the tracer's own
    bookkeeping left out) spent in each package module."""
    loop = {layer: s for (phase, layer), s in tracer.self_seconds().items()
            if phase == "loop"}
    total = sum(loop.values())
    shares: dict[str, float] = {}
    for layer, s in loop.items():
        if layer in LAYER_MODULE:
            module = LAYER_MODULE[layer]
            shares[module] = shares.get(module, 0.0) + s / total
    return shares
