"""Correctness checks the benchmark applies to boxchain's outputs.

Each check returns a list of failure messages (empty when it passes),
so the harness can count failed operations instead of stopping at the
first one.  ``selftest.py`` feeds each check a deliberately broken
input to show that it can fail.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def core_digest(record) -> str:
    """Digest of ``RunRecord.core()``, the deterministic part of a run."""
    text = json.dumps(record.core(), sort_keys=True, default=repr)
    return digest(text.encode())


def check_record(result, schedule, want_separating: bool) -> list:
    """Internal consistency of one ``run_pipeline`` result."""
    record = result.record
    fails = []
    if record.aborted is not None:
        fails.append(f"run aborted: {record.aborted}")
    if len(record.steps) != len(schedule):
        fails.append(f"{len(record.steps)} steps recorded, {len(schedule)} scheduled")
    for s in record.steps:
        if s.boxes_original - s.boxes_escaping != s.upsilon_boxes:
            fails.append(f"step {s.index}: boxes - escaping != upsilon boxes")
        if s.gamma_boxes > s.upsilon_boxes:
            fails.append(f"step {s.index}: gamma has more boxes than upsilon")
        if s.gamma_edges + s.cross_edges > s.upsilon_edges:
            fails.append(f"step {s.index}: gamma has more edges than upsilon")
        if s.gamma_boxes and s.n_components < 1:
            fails.append(f"step {s.index}: nonempty gamma without components")
    if record.steps and result.gamma.n_vertices != record.steps[-1].gamma_boxes:
        fails.append("final gamma size disagrees with the last step record")
    if want_separating and not record.separating:
        fails.append("run does not separate the sink from the J candidate")
    return fails


def edge_oracle(graph, tree, model, delta, leaf_ids) -> list:
    """Guaranteed-inclusion check on sampled source boxes.

    For each sampled leaf the tight scalar image ``MapModel.image`` is
    widened by ``delta`` and intersected with the tree; every leaf it
    meets must be an out-neighbour of the source in ``graph``.
    """
    fails = []
    for lid in leaf_ids:
        lid = int(lid)
        probe = model.image(tree.leaf_box(lid)).widen(delta)
        src = graph.row_of_leaf(lid)
        for target in tree.query_intersect(probe):
            if not graph.has_edge(src, graph.row_of_leaf(target)):
                fails.append(f"missing required edge {lid} -> {target}")
    return fails


def sample_leaves(graph, rng, count: int) -> np.ndarray:
    n = graph.n_vertices
    rows = rng.choice(n, size=min(count, n), replace=False)
    return graph.vertex_ids[np.sort(rows)]


def check_coverage(tree, gamma, points, label: str) -> list:
    """Every point must lie in some box of the recurrent model."""
    gamma_ids = set(int(v) for v in gamma.vertex_ids)
    fails = []
    for pt in points:
        leaves = tree.leaves_containing_point(tree.point_axis_values(pt))
        if not any(lid in gamma_ids for lid in leaves):
            fails.append(f"{label} {pt} lies in no gamma box")
    return fails


def check_png(data: bytes, width: int, height: int) -> list:
    fails = []
    if data[:8] != b"\x89PNG\r\n\x1a\n":
        fails.append("PNG signature missing")
    elif int.from_bytes(data[16:20], "big") != width or int.from_bytes(
        data[20:24], "big"
    ) != height:
        fails.append("PNG size differs from the render resolution")
    return fails
