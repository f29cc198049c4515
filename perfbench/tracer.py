"""Outside-in tracing: time calls into splade's module-level functions.

The tracer replaces module attributes with timing wrappers while installed and
puts the originals back afterwards; the package itself is not edited.  Each
call records a span (name, start, end, parent, call id, thread id) in memory.
Spans of one ``splade_detect`` call share its call id.  Stage 1 and stage 2 of
the rectangle search are told apart by the parent of ``best_rectangle``:
``naive_ls`` (stage 1) or ``algorithm1`` (stage 2).

Parents are tracked per thread, so attribution assumes the detector runs its
refinements on the calling thread (``SPLADE_THREADS=1``).
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

ROOT = "detect.splade_detect"

# (module, attribute) pairs wrapped while tracing; the span name is
# "<module tail>.<attribute>".
TARGETS = (
    ("splade.detect", "splade_detect"),
    ("splade.detect", "masked_lrv"),
    ("splade.detect", "boundary_layer_mask"),
    ("splade.detect", "block_means"),
    ("splade.detect", "components"),
    ("splade.detect", "resolve_envelope_overlaps"),
    ("splade.detect", "algorithm1"),
    ("splade.detect", "build_prefix_sum"),
    ("splade.single", "subsample"),
    ("splade.single", "naive_ls"),
    ("splade.single", "best_rectangle"),
    ("splade.single", "build_prefix_sum"),
)

# Span name -> per-layer self-time metric (best_rectangle is split by stage).
SELF_METRIC = {
    ROOT: "detect.self_s",
    "detect.masked_lrv": "calibrate.lrv_s",
    "detect.boundary_layer_mask": "calibrate.layer_s",
    "detect.block_means": "detect.block_means_s",
    "detect.components": "detect.components_s",
    "detect.resolve_envelope_overlaps": "detect.envelopes_s",
    "detect.algorithm1": "single.refine_s",
    "detect.build_prefix_sum": "lattice.prefix_s",
    "single.build_prefix_sum": "lattice.prefix_s",
    "single.subsample": "single.subsample_s",
    "single.naive_ls": "single.stage1_s",
}

SPAN_METRICS = (
    "single.stage2_s",
    "scan.stage2_pairs",
    "scan.stage2_calls",
    "single.stage1_s",
    "scan.stage1_pairs",
    "single.subsample_s",
    "single.refine_s",
    "calibrate.lrv_s",
    "calibrate.lrv_calls",
    "calibrate.layer_s",
    "lattice.prefix_s",
    "lattice.prefix_calls",
    "lattice.prefix_cells",
    "detect.block_means_s",
    "detect.components_s",
    "detect.envelopes_s",
    "detect.self_s",
)


def pair_count(lo_axes, hi_axes) -> int:
    """Size of a rectangle search space: the product over axes of #(lo < hi).

    ``hi_axes[k]`` must be ascending, as ``best_rectangle`` requires.
    """
    total = 1
    for lo, hi in zip(lo_axes, hi_axes):
        hi = np.asarray(hi)
        total *= int(np.sum(hi.size - np.searchsorted(hi, np.asarray(lo), side="right")))
    return total


def _attrs(name, args) -> dict:
    if name == "single.best_rectangle":
        return {"pairs": pair_count(args[1], args[2])}
    if name.endswith(".build_prefix_sum"):
        return {"cells": int(args[0].size)}
    return {}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    call: int
    thread: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans for calls made while ``installed()`` is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls = 0
        self._local = threading.local()
        self._origin = perf_counter()

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            if not stack and name == ROOT:
                tracer.calls += 1
            attrs = _attrs(name, args)
            span = Span(
                name,
                0.0,
                0.0,
                stack[-1] if stack else None,
                tracer.calls,
                threading.get_ident(),
                attrs,
            )
            idx = len(tracer.spans)
            tracer.spans.append(span)
            stack.append(idx)
            span.start = perf_counter() - tracer._origin
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter() - tracer._origin
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for mod_name, attr in TARGETS:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(f"{mod_name.rsplit('.', 1)[1]}.{attr}", fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def call_spans(self, call: int) -> list[int]:
        """Indices of the spans recorded during root call ``call``."""
        return [i for i, s in enumerate(self.spans) if s.call == call]

    def self_time(self, idx: int, children: list[int]) -> float:
        """Span duration minus the part of it that its child spans cover."""
        span = self.spans[idx]
        covered = 0.0
        reach = span.start
        for c in sorted(children, key=lambda c: self.spans[c].start):
            lo = max(self.spans[c].start, reach)
            hi = min(self.spans[c].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return (span.end - span.start) - covered

    def layer_metrics(self, call: int) -> dict[str, float]:
        """Per-layer self times and counts of one root call."""
        idxs = self.call_spans(call)
        children = {i: [] for i in idxs}
        for i in idxs:
            parent = self.spans[i].parent
            if parent in children:
                children[parent].append(i)
        out = dict.fromkeys(SPAN_METRICS, 0.0)
        for i in idxs:
            span = self.spans[i]
            self_s = self.self_time(i, children[i])
            if span.name == "single.best_rectangle":
                parent = self.spans[span.parent].name if span.parent is not None else ""
                stage = "stage1" if parent == "single.naive_ls" else "stage2"
                out[f"single.{stage}_s"] += self_s
                out[f"scan.{stage}_pairs"] += span.attrs["pairs"]
                if stage == "stage2":
                    out["scan.stage2_calls"] += 1
                continue
            out[SELF_METRIC[span.name]] += self_s
            if span.name == "detect.masked_lrv":
                out["calibrate.lrv_calls"] += 1
            if span.name.endswith(".build_prefix_sum"):
                out["lattice.prefix_calls"] += 1
                out["lattice.prefix_cells"] += span.attrs["cells"]
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line (times in seconds since the tracer started)."""
        with open(path, "w") as fh:
            for s in self.spans:
                rec = {
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "call": s.call,
                    "thread": s.thread,
                }
                rec.update(s.attrs)
                fh.write(json.dumps(rec) + "\n")
