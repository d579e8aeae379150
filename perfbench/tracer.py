"""Spans around calls into sslcrop's modules, recorded from outside the package.

Each wrap point replaces a function at the attribute its caller looks up
(for example `sslcrop.cli.rf_fit`, which `cli.run` calls by that global
name), so nothing under `src/` changes.  A span holds its layer name, wall
start and end, thread CPU start and end, its parent (from a thread-local
stack) and the id of the workload call it belongs to.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from pathlib import Path

# (layer, module, attribute, what to count from the result)
WRAP_POINTS = (
    ("tensor.gradients", "sslcrop.tensor", "gradients", None),
    ("tensor.sgd_step", "sslcrop.tensor", "sgd_step", None),
    ("model.forward", "sslcrop.model", "simsiam_forward", None),
    ("model.forward", "sslcrop.model", "classify", None),
    ("model.collapse_metric", "sslcrop.model", "collapse_metric", None),
    ("model.predict", "sslcrop.model", "predict_classes", None),
    ("model.checkpoint", "sslcrop.model", "checkpoint_text", "bytes"),
    ("augment.pair", "sslcrop.train", "aug1_pair", None),
    ("augment.pair", "sslcrop.train", "aug2", None),
    ("augment.pair", "sslcrop.train", "aug3_pair", None),
    ("train.pretrain", "sslcrop.cli", "pretrain", None),
    ("train.finetune", "sslcrop.cli", "finetune", None),
    ("forest.fit", "sslcrop.cli", "rf_fit", "trees"),
    ("forest.predict", "sslcrop.cli", "rf_predict", None),
    ("dataio.load_csv", "sslcrop.cli", "load_csv", None),
    ("dataio.make_split", "sslcrop.cli", "make_split", None),
    ("dataio.make_split", "sslcrop.dataio", "make_split", None),
    ("synthgen.generate", "sslcrop.cli", "generate", None),
    ("synthgen.generate", "sslcrop.synthgen", "generate", None),
    ("evaluation.contrastive", "sslcrop.evaluation", "embed_reference", None),
    ("evaluation.contrastive", "sslcrop.evaluation", "contrastive_classify_batch", None),
    ("cli.run", "sslcrop.cli", "run", None),
    ("cli.run_matrix", "sslcrop.cli", "run_matrix", None),
    ("cli.write_artifacts", "sslcrop.cli", "write_artifacts", None),
)


def _count(kind: str | None, result) -> int | None:
    if kind == "bytes":
        return len(result.encode("utf-8"))
    if kind == "trees":
        return len(result.trees)
    return None


class Span:
    __slots__ = ("id", "name", "parent", "call", "t0", "t1", "cpu0", "cpu1", "count")

    def __init__(self, id_, name, parent, call):
        self.id, self.name, self.parent, self.call = id_, name, parent, call
        self.t0 = self.t1 = self.cpu0 = self.cpu1 = 0.0
        self.count = None

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """In-memory span recorder.

    A thread whose own stack is empty (a matrix cell in a pool thread)
    takes as parent the innermost open span of the thread that opened the
    workload call (there, `cli.run_matrix` waiting on the pool).
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._call: Span | None = None
        self._call_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else (self._call_stack[-1] if self._call_stack else None)
        with self._lock:
            s = Span(next(self._ids), name, parent.id if parent else None,
                     self._call.id if self._call else None)
            self.spans.append(s)
        stack.append(s)
        s.cpu0, s.t0 = time.thread_time(), time.perf_counter()
        try:
            yield s
        finally:
            s.t1, s.cpu1 = time.perf_counter(), time.thread_time()
            stack.pop()

    @contextlib.contextmanager
    def call(self):
        """Root span of one workload call; its id is the spans' call id."""
        with self.span("call") as s:
            s.call = s.id
            self._call, self._call_stack = s, self._stack()
            try:
                yield s
            finally:
                self._call, self._call_stack = None, []

    def wrap(self, fn, layer: str, count_kind: str | None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(layer) as s:
                result = fn(*args, **kwargs)
                s.count = _count(count_kind, result)
                return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every point for the duration of the block, then restore."""
        originals = []
        try:
            for layer, module_name, attr, count_kind in WRAP_POINTS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, layer, count_kind))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.as_dict()) + "\n")


def covered(span: Span, children: list[Span]) -> float:
    """Length of the part of `span` that the union of `children` covers."""
    intervals = sorted((max(c.t0, span.t0), min(c.t1, span.t1)) for c in children)
    total, end = 0.0, span.t0
    for a, b in intervals:
        a = max(a, end)
        if b > a:
            total += b - a
            end = b
    return total


def children_by_parent(spans: list[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            out.setdefault(s.parent, []).append(s)
    return out


def self_seconds(span: Span, kids: dict[int, list[Span]]) -> float:
    return span.seconds - covered(span, kids.get(span.id, []))
