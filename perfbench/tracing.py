"""Per-layer tracing from outside the package.

A :class:`Tracer` replaces each layer's public functions with timing
wrappers, on the module attribute the caller actually looks up (for
example ``ranking.gini``, which ``rank`` resolves in its own namespace,
not ``metrics.gini``), and puts every original back on :meth:`restore`.

Only the outermost call into a layer is attributed: ``group_metrics``
calls ``h_group`` and ``gini`` itself, and those nested calls count
neither as calls nor as time.  Each attributed call closes a span whose
duration is charged to the enclosing span as child time, so a layer's
self time is its span time minus the spans it caused.  Hot functions
(``special``, tens of thousands of calls per Giddings fit) keep only a
count and a total, not one span each.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter_ns


@dataclass
class LayerStats:
    calls: int = 0
    ns: int = 0
    self_ns: int = 0
    depth: int = 0


@dataclass
class Span:
    op: int
    layer: str
    func: str
    start: int
    parent: int | None
    index: int
    end: int = 0
    child_ns: int = 0


def _ingest_rows(args, report) -> int:
    """Records parsed: papers where per-paper data exists, else members."""
    if report.dataset is None:
        return 0
    return sum(
        len(m.paper_citations) if m.paper_citations is not None else 1
        for g in report.dataset.groups
        for m in g.members
    )


def _kernel_draws(args, total) -> int:
    _values, sample_size, n_samples = args[:3]
    return sample_size * n_samples


def bindings():
    """(module, attribute, layer, counter, hot) for every traced name.

    ``counter`` is None or (name, fn): ``fn(args, result)`` gives the count
    that an outermost call adds to ``layer.name``.
    """
    from alphaindex import _kernels, distribution, ingest, metrics, ranking

    rows = ("rows", _ingest_rows)
    out = [(ingest, name, "ingest", rows, False)
           for name in ("read_dataset_file", "read_dataset", "read_long_form", "read_summary_form")]
    out.append((ingest, "validate", "model", None, False))
    out += [(metrics, name, "metrics", None, False)
            for name in ("group_metrics", "group_summary", "gini", "h_group", "lorenz_curve", "psi_curve")]
    out += [(ranking, name, "metrics", None, False) for name in ("gini", "h_group")]
    out += [(ranking, name, "ranking", None, False) for name in ("rank", "relative_h_group")]
    out.append((_kernels, "subset_hindex_sum", "_kernels", ("draws", _kernel_draws), False))
    out += [
        (distribution, name, "distribution", None, False)
        for name in (
            "build_histogram", "power_law_slope", "fit_beta", "fit_giddings",
            "empirical_moment_ratio", "theoretical_moment_ratio",
            "shapiro_wilk", "kurtosis", "skewness",
        )
    ]
    out.append((distribution, "bessel_i1_scaled", "special", None, True))
    return out


class Tracer:
    """Counters, spans and the installed wrappers of one traced run."""

    def __init__(self):
        self.layers: dict[str, LayerStats] = defaultdict(LayerStats)
        self.func_ns: Counter = Counter()  # "layer.func" -> outermost ns
        self.counts: Counter = Counter()  # "layer.counter" -> total
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op_ns = 0
        self.ops = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module, attr, layer, counter, hot in bindings():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            make = self._hot_wrapper if hot else self._wrapper
            setattr(module, attr, make(original, layer, counter))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrapper(self, fn, layer: str, counter):
        stats = self.layers[layer]
        func = f"{layer}.{fn.__name__}"
        count_key, count = (f"{layer}.{counter[0]}", counter[1]) if counter else (None, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stats.depth:
                return fn(*args, **kwargs)
            stats.depth += 1
            parent = self._stack[-1]
            span = Span(parent.op, layer, func, perf_counter_ns(), parent.index, len(self.spans))
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                self._stack.pop()
                stats.depth -= 1
                dur = span.end - span.start
                parent.child_ns += dur
                stats.calls += 1
                stats.ns += dur
                stats.self_ns += dur - span.child_ns
                self.func_ns[func] += dur
            if count_key:
                self.counts[count_key] += count(args, result)
            return result

        return wrapper

    def _hot_wrapper(self, fn, layer: str, _counter):
        stats = self.layers[layer]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stats.depth:
                return fn(*args, **kwargs)
            stats.depth += 1
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - start
                stats.depth -= 1
                self._stack[-1].child_ns += dur
                stats.calls += 1
                stats.ns += dur
                stats.self_ns += dur

        return wrapper

    # -- one op -------------------------------------------------------------

    def begin_op(self, op_index: int) -> None:
        root = Span(op_index, "cli", "cli.main", perf_counter_ns(), None, len(self.spans))
        self.spans.append(root)
        self._stack = [root]

    def end_op(self) -> None:
        root = self._stack.pop()
        root.end = perf_counter_ns()
        dur = root.end - root.start
        self.ops += 1
        self.op_ns += dur
        cli = self.layers["cli"]
        cli.calls += 1
        cli.ns += dur
        cli.self_ns += dur - root.child_ns
