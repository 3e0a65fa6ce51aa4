"""Per-layer tracing from outside the package.

The tracer replaces the name bindings through which the CLI reaches each
layer's public functions, in ``assocarray.cli``, ``assocarray.graph`` and
``assocarray.criteria``, with wrappers that record a span per call.  Algebra
operations are counted by handing the CLI a ``dataclasses.replace`` of every
algebra it builds, with counting operations; ``Value.number`` is counted by
replacing it on the class.  Spans stay in memory until :meth:`Tracer.write`.
Nothing in the package is edited, and :meth:`Tracer.installed` restores
every binding on exit.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from assocarray import cli, criteria, graph, values

# (module, binding, span name).  A function the CLI reaches through several
# modules is wrapped in each of them.
SPANS = (
    (cli, "resolve_algebra", "cli.resolve_algebra"),
    (cli, "parse_edge_list", "fileio.parse_edge_list"),
    (cli, "parse_set_triples", "fileio.parse_set_triples"),
    (cli, "parse_finite_algebra", "fileio.parse_finite_algebra"),
    (cli, "serialize_triples", "fileio.serialize_triples"),
    (cli, "serialize_edge_list", "fileio.serialize_edge_list"),
    (cli, "validate", "criteria.validate"),
    (cli, "demonstrate", "criteria.demonstrate"),
    (cli, "incidence_arrays", "graph.incidence_arrays"),
    (criteria, "incidence_arrays", "graph.incidence_arrays"),
    (cli, "adjacency", "graph.adjacency"),
    (criteria, "adjacency", "graph.adjacency"),
    (cli, "reverse_adjacency", "graph.reverse_adjacency"),
    (cli, "check_word_consistency", "graph.check_word_consistency"),
    (graph, "check_word_consistency", "graph.check_word_consistency"),
    (cli, "document_adjacency", "graph.document_adjacency"),
    (criteria, "adjacency_oracle", "graph.adjacency_oracle"),
    (graph, "adjacency_oracle", "graph.adjacency_oracle"),  # the benchmark's own check
    (cli, "from_triples", "array.from_triples"),
    (graph, "from_triples", "array.from_triples"),
    (graph, "transpose", "array.transpose"),
    (graph, "matmul", "array.matmul"),  # suffixed .skip or .full by skip_zeros
)
# Bindings through which the CLI builds algebras; each result is counted.
FACTORIES = ((cli, "make_builtin"), (cli, "from_finite_spec"), (graph, "make_builtin"))
INPUT_PARSERS = ("fileio.parse_edge_list", "fileio.parse_set_triples", "fileio.parse_finite_algebra")


class Tracer:
    """Spans and operation counts for a sequence of CLI calls.

    ``calls`` holds, per call opened with :meth:`begin_call`, the self time
    in nanoseconds of every span name seen.  ``ops`` counts by (what, where):
    algebra operations (``plus``, ``times``, ``zero_zero``) by innermost
    span name, ``contains``, ``number`` (``Value.number`` calls) and
    ``lines_in`` (parsed input lines) with where empty, and span
    invocations as (``calls``, span name).
    """

    def __init__(self):
        self.spans: list[tuple[int, int, int | None, str, int, int]] = []
        self.calls: list[Counter] = []
        self.ops: Counter = Counter()
        self._stack: list[list] = []  # [span id, name, child ns]
        self._next_id = 0

    def begin_call(self) -> None:
        self.calls.append(Counter())

    def span(self, name: str, fn, *args, **kwargs):
        span_id, self._next_id = self._next_id, self._next_id + 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, name, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            if self._stack:
                self._stack[-1][2] += end - start
            self.calls[-1][name] += end - start - frame[2]
            self.ops["calls", name] += 1
            self.spans.append((len(self.calls) - 1, span_id, parent, name, start, end))

    def _where(self) -> str:
        return self._stack[-1][1] if self._stack else ""

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            span_name = name
            if name == "array.matmul":
                span_name += ".skip" if kwargs.get("skip_zeros") else ".full"
            if name in INPUT_PARSERS:
                self.ops["lines_in", ""] += args[0].count("\n")
            return self.span(span_name, fn, *args, **kwargs)

        return traced

    def counting(self, alg):
        """The algebra with counting operations; ``zero_zero`` counts times
        calls whose operands are both zero, the terms zero-skipping avoids."""
        ops, where, zero = self.ops, self._where, alg.zero
        plus, times, contains = alg.plus_op, alg.times_op, alg.contains_op

        def plus_op(a, b):
            ops["plus", where()] += 1
            return plus(a, b)

        def times_op(a, b):
            at = where()
            ops["times", at] += 1
            if a == zero and b == zero:
                ops["zero_zero", at] += 1
            return times(a, b)

        def contains_op(v):
            ops["contains", ""] += 1
            return contains(v)

        return dataclasses.replace(alg, plus_op=plus_op, times_op=times_op, contains_op=contains_op)

    def _counting_factory(self, factory):
        def build(*args, **kwargs):
            return self.counting(factory(*args, **kwargs))

        return build

    @contextmanager
    def installed(self):
        saved = []
        number = values.Value.__dict__["number"]

        def counted_number(x):
            self.ops["number", ""] += 1
            return number.__func__(x)

        try:
            for module, attr, name in SPANS:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._wrap(getattr(module, attr), name))
            for module, attr in FACTORIES:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._counting_factory(getattr(module, attr)))
            values.Value.number = staticmethod(counted_number)
            yield self
        finally:
            values.Value.number = number
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_ms(self, name: str) -> float:
        """Median over calls that entered the span of its summed self time."""
        per_call = [c[name] for c in self.calls if name in c]
        return statistics.median(per_call) / 1e6 if per_call else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for call, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"call": call, "id": span_id, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")
