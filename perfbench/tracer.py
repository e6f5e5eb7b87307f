"""Span tracer that wraps boxchain's public functions from outside.

Nothing in ``src/`` is edited: ``Tracer.install`` rebinds the names a
module looks up at its call sites (``boxchain.pipeline.build_edges``,
``boxchain.chain_graph.widened_images``, ``BoxTree.subdivide``, ...) to
timing wrappers and ``uninstall`` puts the originals back.

A span records name, start, end and its parent span.  Busy time is a
span's duration; self time is the duration minus the time covered by
the spans nested in it.  Calls made hundreds of thousands of times per
operation (``BoxTree.leaves_containing_point``) are aggregated into a
count plus busy time instead of one span each.  Spans opened with
``check`` mark the benchmark's own correctness work: they count as
nested time for their parent but as no layer, and their total is kept
apart so it can be taken out of the traced wall time.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

_now = time.perf_counter
AGGREGATED = "boxtree.leaves_containing_point"


class Tracer:
    """Records layer spans; with ``peaks`` also the tracemalloc peak of
    the layers wrapped with ``peak=True``.  tracemalloc slows the
    Python-heavy parts of those layers, so a run that reports peaks
    reports no times."""

    def __init__(self, peaks: bool = False):
        self.peaks = peaks
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.peak_mb = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []  # [name, start, end, parent span index or -1]
        self.check_s = 0.0
        self._checking = False
        self._stack = []  # [span index, nested seconds]
        self._saved = []  # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, _now(), None, parent])
        self._stack.append([len(self.spans) - 1, 0.0])

    def _close(self):
        index, nested = self._stack.pop()
        span = self.spans[index]
        span[2] = _now()
        duration = span[2] - span[1]
        if self._stack:
            self._stack[-1][1] += duration
        return duration, nested

    def _layer_call(self, name, fn, args, kwargs, peak):
        measure_peak = peak and self.peaks and not tracemalloc.is_tracing()
        self._open(name)
        if measure_peak:
            tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            if measure_peak:
                peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_mb[name] = max(self.peak_mb[name], peak_bytes / 1e6)
            duration, nested = self._close()
            self.busy[name] += duration
            self.self_s[name] += duration - nested
            self.calls[name] += 1

    def layer(self, name, fn, peak=False, on_result=None):
        """Wrap ``fn`` so each call is one span of layer ``name``."""

        def wrapper(*args, **kwargs):
            if self._checking:
                return fn(*args, **kwargs)
            result = self._layer_call(name, fn, args, kwargs, peak)
            if on_result is not None:
                on_result(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def aggregate(self, name, fn):
        """Wrap a high-frequency ``fn``: count and busy time, no spans."""

        def wrapper(*args, **kwargs):
            if self._checking:
                return fn(*args, **kwargs)
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _now() - t0
                self.busy[name] += duration
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][1] += duration

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def check(self, name):
        """Span for the benchmark's own checks.  Layer calls made by the
        checks are not recorded, and the span is no layer."""
        self._open(name)
        self._checking = True
        try:
            yield
        finally:
            self._checking = False
            self.check_s += self._close()[0]

    def overhead_s(self, repeats: int = 20000) -> float:
        """Time the wrappers added to this tracer's operation.

        The cost of one wrapped call over a plain call is measured on an
        empty function, once for spans and once for aggregated calls,
        and multiplied by the calls recorded.
        """
        probe = Tracer()

        def empty():
            return None

        def cost(wrapped):
            t0 = _now()
            for _ in range(repeats):
                empty()
            t1 = _now()
            for _ in range(repeats):
                wrapped()
            return max(0.0, ((_now() - t1) - (t1 - t0)) / repeats)

        per_span = cost(probe.layer("probe", empty))
        per_aggregate = cost(probe.aggregate("probe", empty))
        aggregated = self.calls.get(AGGREGATED, 0)
        spans = sum(self.calls.values()) - aggregated
        return spans * per_span + aggregated * per_aggregate

    # -- installing wrappers ----------------------------------------------

    def patch(self, owner, attribute, wrap):
        original = owner.__dict__[attribute]
        self._saved.append((owner, attribute, original))
        if isinstance(original, classmethod):
            setattr(owner, attribute, classmethod(wrap(original.__func__)))
        else:
            setattr(owner, attribute, wrap(original))

    def uninstall(self):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def install(self, after_build_edges=None):
        """Wrap every layer boundary of boxchain that the benchmark reports.

        ``after_build_edges(graph, tree, model, delta)`` runs, inside a
        check span, right after each ``build_edges`` call returns.
        """
        from boxchain import boxtree, chain_graph, pipeline, render
        from boxchain.boxtree import BoxTree

        def on_subdivide(report, args):
            self.counts["boxtree.boxes"] += report.leaf_count

        def on_prune(n_escaping, args):
            self.counts["boxtree.escaping"] += n_escaping

        def on_build(graph, args):
            self.counts["chain_graph.upsilon_boxes"] += graph.n_vertices
            self.counts["chain_graph.upsilon_edges"] += graph.n_edges
            if after_build_edges is not None:
                tree, model, delta = args[:3]
                with self.check("bench.edge_oracle"):
                    after_build_edges(graph, tree, model, delta)

        def on_gamma(gamma, args):
            self.counts["chain_graph.gamma_boxes"] += gamma.n_vertices
            self.counts["chain_graph.gamma_edges"] += gamma.n_edges

        def on_classify(report, args):
            self.counts["chain_graph.components"] += report.n_components

        def on_save(_, args):
            self.counts["pipeline.model_bytes"] += os.path.getsize(args[0])

        def on_load(loaded, args):
            _, tree, gamma = loaded
            self.counts["boxtree.boxes"] += tree.leaf_count
            self.counts["chain_graph.gamma_boxes"] += gamma.n_vertices
            self.counts["chain_graph.gamma_edges"] += gamma.n_edges
            if gamma.n_vertices:
                self.counts["chain_graph.components"] += int(gamma.comp.max()) + 1

        def layer(name, **kw):
            return lambda fn: self.layer(name, fn, **kw)

        plan = [
            (pipeline, "run_pipeline", layer("pipeline.run_pipeline")),
            (pipeline, "save_model", layer("pipeline.save_model", on_result=on_save)),
            (pipeline, "load_model", layer("pipeline.load_model", peak=True, on_result=on_load)),
            (pipeline, "sink_orbits", layer("maps.sink_orbits")),
            (pipeline, "sink_basin_selector", layer("boxtree.sink_basin_selector")),
            (pipeline, "report_for_map", layer("bounds.report_for_map")),
            (pipeline, "sink_section_for_map", layer("bounds.sink_section_for_map")),
            (pipeline, "build_edges", layer("chain_graph.build_edges", peak=True, on_result=on_build)),
            (pipeline, "scc_decompose", layer("chain_graph.scc_decompose")),
            (pipeline, "recurrent_model", layer("chain_graph.recurrent_model", on_result=on_gamma)),
            (pipeline, "classify_components", layer("chain_graph.classify_components", on_result=on_classify)),
            (chain_graph, "widened_images", layer("chain_graph.widened_images")),
            (chain_graph, "batch_forward", layer("maps.batch_forward")),
            (boxtree, "batch_forward", layer("maps.batch_forward")),
            (boxtree, "batch_backward", layer("maps.batch_backward")),
            (BoxTree, "subdivide", layer("boxtree.subdivide", on_result=on_subdivide)),
            (BoxTree, "prune_escaping", layer("boxtree.prune_escaping", peak=True, on_result=on_prune)),
            (BoxTree, "restore", layer("boxtree.restore")),
            (BoxTree, "leaves_containing_point",
             lambda fn: self.aggregate(AGGREGATED, fn)),
            (render, "render_slice", layer("render.render_slice")),
            (render.Image, "png_bytes", layer("render.png_bytes")),
        ]
        for owner, attribute, wrap in plan:
            self.patch(owner, attribute, wrap)
        return self
