"""Spans around kinpart's public module-level functions, for the traced run.

The traced run swaps names such as ``kinpart.harness.partition_batch`` and
``kinpart._batch.jacobi_orthogonalize`` for wrappers that record a span
(name, start, end, parent, thread) around every call, and puts the
originals back afterwards, so no file of the package changes.  Each wrapper
sits on the name the *caller* looks up: ``harness`` imports
``partition_batch`` into its own namespace, so that is the attribute to
replace.  Private helpers (``_thin_svd``, ``_frame_rates``, ``_gram``) stay
unwrapped and count as the self time of the public function around them.

Spans are kept in memory and reduced to per-layer metrics by
``layer_metrics`` once the run ends.
"""

import importlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a root span
    thread: int
    extra: dict | None = None

    @property
    def duration(self):
        return self.end - self.start


def _sample_extra(args, result):
    # Bytes of the arrays sample_system_block hands to the partition engine,
    # computed from their sizes (not a measurement of memory traffic).
    return {"bytes": sum(int(a.nbytes) for a in result)}


def _batch_extra(args, result):
    return {"systems": int(result["degenerate"].size),
            "degenerate": int(np.count_nonzero(result["degenerate"]))}


# (module, attribute the caller looks up, span name, extra-data hook)
WRAPPED = (
    ("kinpart.harness", "substream", "ensemble.substream", None),
    ("kinpart.harness", "sample_system_block", "ensemble.sample_system_block",
     _sample_extra),
    ("kinpart.harness", "partition_batch", "_batch.partition_batch",
     _batch_extra),
    ("kinpart._batch", "jacobi_orthogonalize", "_batch.jacobi_orthogonalize",
     None),
    ("kinpart.harness", "run_single", "harness.run_single", None),
    ("kinpart.harness", "conjecture_means", "expectations.conjecture_means",
     None),
    ("kinpart.cli", "write_reports_csv", "cli.write_reports_csv", None),
    ("kinpart.cli", "cmd_verify", "cli.cmd_verify", None),
    ("kinpart.partitions", "compute_partition", "partitions.compute_partition",
     None),
    ("kinpart.partitions", "svd_rates", "partitions.svd_rates", None),
    ("kinpart.partitions", "svd", "linalg.svd", None),
    ("kinpart.linalg", "jacobi_orthogonalize", "linalg.jacobi_orthogonalize",
     None),
    ("kinpart.partitions", "momenta_fast", "momenta.momenta_fast", None),
    ("kinpart.partitions", "project_oracle", "partitions.project_oracle", None),
    ("kinpart.partitions", "eigenvector_split_oracle",
     "partitions.eigenvector_split_oracle", None),
)


class Tracer:
    """In-memory span recorder; thread-aware.

    A span opened on a worker thread with no open span of its own takes the
    main thread's innermost open span as parent: the harness's pool threads
    run blocks on behalf of the ``run_single`` call that waits for them.
    """

    def __init__(self):
        self.spans = []
        self._stacks = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()

    def open(self, name):
        ident = threading.get_ident()
        stack = self._stacks.setdefault(ident, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if ident != self._main and main else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, 0.0, 0.0, parent, ident))
        stack.append(index)
        self.spans[index].start = time.perf_counter()
        return index

    def close(self, index):
        self.spans[index].end = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    @contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def _wrap(self, name, func, extra):
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(index)
            if extra is not None:
                self.spans[index].extra = extra(args, result)
            return result
        return wrapper

    @contextmanager
    def installed(self):
        """Replace the wrapped names for the length of the block."""
        from kinpart.harness import StatAccumulator

        saved = []
        try:
            for module_name, attr, name, extra in WRAPPED:
                module = importlib.import_module(module_name)
                func = getattr(module, attr)
                saved.append((module, attr, func))
                setattr(module, attr, self._wrap(name, func, extra))
            raw = StatAccumulator.__dict__["from_block"]
            saved.append((StatAccumulator, "from_block", raw))
            StatAccumulator.from_block = staticmethod(
                self._wrap("harness.from_block", raw.__func__, None))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _union_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


class SpanIndex:
    """Children, roots and self times of a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        self.children = [[] for _ in spans]
        for index, span in enumerate(spans):
            if span.parent >= 0:
                self.children[span.parent].append(index)
        self.root = [0] * len(spans)
        for index, span in enumerate(spans):  # parents precede children
            self.root[index] = (index if span.parent < 0
                                else self.root[span.parent])

    def self_time(self, index):
        span = self.spans[index]
        covered = _union_length(
            [(self.spans[c].start, self.spans[c].end)
             for c in self.children[index]],
            span.start, span.end)
        return span.duration - covered

    def nesting_violations(self, slack=1e-6):
        """Spans that leave their parent's interval, and parents whose
        children are busier than the parent could be (its duration times the
        number of threads its children ran on)."""
        bad = []
        for index, span in enumerate(self.spans):
            kids = [self.spans[c] for c in self.children[index]]
            if not kids:
                continue
            threads = len({k.thread for k in kids})
            busy = sum(k.duration for k in kids)
            if busy > span.duration * threads + slack:
                bad.append(f"{span.name}: children busy {busy!r} s > "
                           f"{threads} x {span.duration!r} s")
            for kid in kids:
                if kid.start < span.start - slack or kid.end > span.end + slack:
                    bad.append(f"{kid.name} outside parent {span.name}")
        return bad

    def under(self, root_name):
        """Indices of spans whose root span is named root_name."""
        return [i for i, r in enumerate(self.root)
                if self.spans[r].name == root_name]


LAYER_UNITS = {
    "ensemble.sample_ms_per_block": "ms/block",
    "ensemble.share": "frac",
    "ensemble.out_mb_per_block": "MB/block",
    "linalg.jacobi_ms_per_block": "ms/block",
    "linalg.jacobi_share": "frac",
    "linalg.svd_us_per_call": "us/call",
    "linalg.jacobi_us_per_call": "us/call",
    "batch.self_ms_per_block": "ms/block",
    "batch.degenerate_frac": "frac",
    "partitions.svd_rates_self_us": "us/call",
    "partitions.self_us_per_call": "us/call",
    "partitions.oracle_us_per_system": "us/system",
    "momenta.fast_us_per_call": "us/call",
    "harness.self_ms_per_block": "ms/block",
    "harness.from_block_us": "us/call",
    "harness.pool_utilisation": "frac",
    "expectations.means_ms_per_n": "ms/N",
    "cli.write_csv_ms": "ms/call",
    "cli.verify_ms": "ms/call",
}


def layer_metrics(spans, workers, oracle_systems):
    """Per-layer metrics from the spans of the traced jobs.

    Busy time is taken under the runner's ``bench.timed`` spans (the timed
    calls into kinpart); oracle time under ``bench.oracles``.  Shares are of
    the timed wall time times the worker count.  A layer the workload never
    calls reports 0.
    """
    index = SpanIndex(spans)
    timed = index.under("bench.timed")
    by_name = {}
    for i in timed:
        by_name.setdefault(spans[i].name, []).append(i)

    def count(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(spans[i].duration for i in by_name.get(name, ()))

    def self_busy(name):
        return sum(index.self_time(i) for i in by_name.get(name, ()))

    def per(total, calls, scale):
        return total / calls * scale if calls else 0.0

    capacity = workers * busy("bench.timed")
    blocks = count("_batch.partition_batch")
    samples = [spans[i] for i in by_name.get("ensemble.sample_system_block", ())]
    batches = [spans[i] for i in by_name.get("_batch.partition_batch", ())]
    systems = sum(s.extra["systems"] for s in batches)
    pool_busy = sum(
        spans[c].duration
        for i in by_name.get("harness.run_single", ())
        for c in index.children[i]
        if spans[c].name != "expectations.conjecture_means")
    oracle_spans = [i for i in index.under("bench.oracles")
                    if spans[i].name in ("partitions.project_oracle",
                                         "partitions.eigenvector_split_oracle")]
    jacobi = busy("_batch.jacobi_orthogonalize") + busy("linalg.jacobi_orthogonalize")
    return {
        "ensemble.sample_ms_per_block": per(
            busy("ensemble.sample_system_block"), len(samples), 1e3),
        "ensemble.share": per(
            busy("ensemble.sample_system_block") + busy("ensemble.substream"),
            capacity, 1.0),
        "ensemble.out_mb_per_block": per(
            sum(s.extra["bytes"] for s in samples), len(samples), 1e-6),
        "linalg.jacobi_ms_per_block": per(
            busy("_batch.jacobi_orthogonalize"), blocks, 1e3),
        "linalg.jacobi_share": per(jacobi, capacity, 1.0),
        "linalg.svd_us_per_call": per(
            busy("linalg.svd"), count("linalg.svd"), 1e6),
        "linalg.jacobi_us_per_call": per(
            busy("linalg.jacobi_orthogonalize"),
            count("linalg.jacobi_orthogonalize"), 1e6),
        "batch.self_ms_per_block": per(
            self_busy("_batch.partition_batch"), blocks, 1e3),
        "batch.degenerate_frac": per(
            sum(s.extra["degenerate"] for s in batches), systems, 1.0),
        "partitions.svd_rates_self_us": per(
            self_busy("partitions.svd_rates"), count("partitions.svd_rates"), 1e6),
        "partitions.self_us_per_call": per(
            self_busy("partitions.compute_partition"),
            count("partitions.compute_partition"), 1e6),
        "partitions.oracle_us_per_system": per(
            sum(spans[i].duration for i in oracle_spans), oracle_systems, 1e6),
        "momenta.fast_us_per_call": per(
            busy("momenta.momenta_fast"), count("momenta.momenta_fast"), 1e6),
        "harness.self_ms_per_block": per(
            self_busy("harness.run_single"), blocks, 1e3),
        "harness.from_block_us": per(
            busy("harness.from_block"), count("harness.from_block"), 1e6),
        "harness.pool_utilisation": per(
            pool_busy, workers * busy("harness.run_single"), 1.0),
        "expectations.means_ms_per_n": per(
            busy("expectations.conjecture_means"),
            count("expectations.conjecture_means"), 1e3),
        "cli.write_csv_ms": per(
            busy("cli.write_reports_csv"), count("cli.write_reports_csv"), 1e3),
        "cli.verify_ms": per(busy("cli.cmd_verify"), count("cli.cmd_verify"), 1e3),
    }
