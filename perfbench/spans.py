"""Span recorder for the traced run, and the timing wrappers it swaps in.

A span is one timed call across a layer boundary: ``(id, parent, call, name,
start, end, info)``.  ``call`` groups the spans of one benchmark call; ``info``
carries a count measured at the boundary (the vector length of a kernel call,
the bytes per level of a built diagonal cache).  Spans stay in memory and are
written out once, when the benchmark ends.

The wrappers replace names in the package's modules only while one traced
call runs and put the originals back afterwards.  A name the package no longer
has is skipped, so its layer reads zero instead of the benchmark failing.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager


FIELDS = ("id", "parent", "call", "name", "start", "end", "info")


class Recorder:
    """Collects spans from any number of threads.

    Each thread keeps its own stack of open spans.  A span opened on a thread
    with an empty stack (a pool worker) takes the open call-level span as its
    parent, so worker spans nest under the ``explain`` that started them.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.call = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self._root
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def close(self, token, name: str, info=None) -> None:
        end = time.perf_counter()
        sid, parent, start = token
        self._stack().pop()
        self.spans.append((sid, parent, self.call, name, start, end, info))

    @contextmanager
    def root(self, name: str):
        """Span that every span opened inside it, on any thread, descends from."""
        token = self.open()
        outer, self._root = self._root, token[0]
        try:
            yield token[0]
        finally:
            self._root = outer
            self.close(token, name)

    def adopt(self, spans, parent: int) -> None:
        """Append spans recorded by another process's recorder under ``parent``.

        Ids are renumbered into this recorder; top-level spans get ``parent``.
        ``time.perf_counter`` is the system-wide monotonic clock on Linux, so
        the child's timestamps are comparable with this process's.
        """
        remap = {s[0]: next(self._ids) for s in spans}
        for sid, sparent, _call, name, start, end, info in spans:
            self.spans.append(
                (remap[sid], remap.get(sparent, parent), self.call, name, start, end, info)
            )


def _timed(rec: Recorder, name: str, fn, info=None, root: bool = False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if root:
            with rec.root(name):
                return fn(*args, **kwargs)
        token = rec.open()
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            rec.close(token, name, info(args, out) if info and out is not None else None)

    return wrapper


def _timed_iter(rec: Recorder, name: str, fn):
    """Wrap a generator function so that each ``next()`` is one span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            token = rec.open()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                rec.close(token, name)
            yield item

    return wrapper


def _vector_length(args, out):
    return int(out.size)


def _level_bytes(args, out):
    return {int(k): int(arr.nbytes) for k, arr in out.levels.items()}


# name in treeshap_hd.engine -> (span name, kind, info)
ENGINE_NAMES = {
    "iter_leaf_patterns": ("patterns.stream", "iter", None),
    "root_to_leaf_paths": ("model.paths", "iter", None),
    "background_distribution": ("patterns.dist", "call", None),
    "path_dependent_distribution": ("patterns.dist", "call", None),
    "build_diagonal_cache": ("cubes.build", "call", _level_bytes),
    "diagonal_matvec": ("fastmult.matvec", "call", _vector_length),
}


@contextmanager
def installed(rec: Recorder, cli: bool = False):
    """Swap timing wrappers into the package for the duration of the block.

    With ``cli`` set, also wraps the CLI module's ``explain`` (as the
    call-level span) and ``load_canonical``.
    """
    import treeshap_hd.engine as engine
    from treeshap_hd.model import EnsembleModel

    saved = []

    def swap(owner, attr, make):
        fn = getattr(owner, attr, None)
        if fn is not None:
            saved.append((owner, attr, fn))
            setattr(owner, attr, make(fn))

    try:
        for attr, (name, kind, info) in ENGINE_NAMES.items():
            if kind == "iter":
                swap(engine, attr, lambda fn, name=name: _timed_iter(rec, name, fn))
            else:
                swap(engine, attr, lambda fn, name=name, info=info: _timed(rec, name, fn, info))
        swap(EnsembleModel, "predict", lambda fn: _timed(rec, "model.predict", fn))
        if cli:
            import treeshap_hd.cli as cli_module

            swap(cli_module, "explain", lambda fn: _timed(rec, "engine.explain", fn, root=True))
            swap(cli_module, "load_canonical", lambda fn: _timed(rec, "model.load", fn))
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans) -> dict[int, dict]:
    """Per call: for each span name, total seconds, self seconds and count.

    Self time is a span's duration minus the union of its direct children's
    intervals; overlapping children (pool threads) are not counted twice.
    """
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[4], s[5]))
    calls: dict[int, dict] = {}
    for sid, _parent, call, name, start, end, _info in spans:
        entry = calls.setdefault(call, {}).setdefault(name, {"s": 0.0, "self_s": 0.0, "n": 0})
        entry["s"] += end - start
        entry["self_s"] += (end - start) - _union_length(children.get(sid, ()), start, end)
        entry["n"] += 1
    return calls
