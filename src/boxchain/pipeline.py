"""Iterative pipeline driver and model persistence.

One run executes, per scheduled step: subdivide (uniform or sink-basin
selective), eliminate V0-escaping boxes, build the box chain model
with delta = epsilon_min / delta_ratio (never more than half the
previous delta), extract the strongly connected subgraph as the
recurrent model, prune dropped leaves, classify components, and record
the accuracy ledger.  Everything recorded is deterministic for a given
configuration (wall time and memory excluded).

Models persist as line-oriented text (or JSON behind a flag): a header
with the format version, map parameters as decimal strings and the
grid/accuracy constants, then one record per recurrent-model box
(depth, grid indices, component id), then optionally the edges as
index pairs - cycle edges as ``E u v``, flagged cross-component edges
as ``X u v``.  Serialization is canonical, so save -> load -> save is
byte-identical.
"""

from __future__ import annotations

import io
import json
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import MemoryBudgetError, ParseError
from .ia import UsageError
from .maps import KINDS, MapModel, sink_orbits
from .boxtree import BoxTree, init_root, sink_basin_selector
from .bounds import report_for_map, sink_section_for_map
from .chain_graph import (
    ChainGraph,
    build_edges,
    classify_components,
    recurrent_model,
    scc_decompose,
)

__all__ = [
    "PRESETS",
    "RunConfig",
    "StepRecord",
    "RunRecord",
    "run_pipeline",
    "parse_schedule",
    "save_model",
    "load_model",
]

PRESETS = {
    "altper2": dict(kind="henon_complex", a="0.15", c="-1.1875", r_prime=1.9),
    "per31": dict(kind="henon_complex", a="0.3", c="-1.17", r_prime=2.01),
    "complexhorse": dict(kind="henon_complex", a="-0.74", c="-2.75", r_prime=2.84),
    "realhorse": dict(kind="henon_real", a="-0.25", c="-3", r_prime=2.57),
    "cubicdouble": dict(kind="cubic_poly", a="0,0.1", c="-0.19,1.1", r_prime=2.1),
}

_MODES = ("uniform", "sink_basin")


def parse_schedule(text) -> list[str]:
    """Parse "uniform*6,sink_basin*2" (or a list of tokens) into steps."""
    if isinstance(text, (list, tuple)):
        tokens = list(text)
    else:
        tokens = [t.strip() for t in str(text).split(",") if t.strip()]
    steps = []
    for tok in tokens:
        if "*" in tok:
            name, _, count = tok.partition("*")
        elif ":" in tok:
            name, _, count = tok.partition(":")
        else:
            name, count = tok, "1"
        name = name.strip()
        if name not in _MODES:
            raise ParseError(f"unknown schedule step {name!r}")
        try:
            n = int(count)
        except ValueError:
            raise ParseError(f"bad repeat count in {tok!r}") from None
        if n < 1:
            raise ParseError(f"bad repeat count in {tok!r}")
        steps.extend([name] * n)
    return steps


@dataclass
class RunConfig:
    kind: str
    c: str
    a: Optional[str] = None
    r_prime: Optional[float] = None
    schedule: list = field(default_factory=list)
    delta_ratio: float = 1000.0
    prune_iters: int = 6
    mem_budget_mb: Optional[float] = 4096.0
    max_depth: int = 32
    sink_iterates: int = 12
    sink_threshold: float = 1.0
    model_out: Optional[str] = None
    save_edges: bool = False
    json_model: bool = False

    @staticmethod
    def from_preset(name: str, **overrides) -> "RunConfig":
        if name not in PRESETS:
            raise UsageError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
        params = dict(PRESETS[name])
        params.update(overrides)
        return RunConfig(**params)

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise UsageError(f"unknown map kind {self.kind!r}")
        if not self.schedule:
            raise UsageError("schedule must contain at least one step")
        for tok in self.schedule:
            if tok not in _MODES:
                raise UsageError(f"unknown schedule step {tok!r}")
        if not self.delta_ratio > 1.0:
            raise UsageError("delta_ratio must exceed 1 (delta << epsilon)")
        if self.prune_iters < 1:
            raise UsageError("prune_iters must be at least 1")

    def build_model(self) -> MapModel:
        return MapModel(self.kind, c=self.c, a=self.a, r_prime=self.r_prime)


@dataclass
class StepRecord:
    index: int
    mode: str
    boxes_original: int
    boxes_escaping: int
    upsilon_boxes: int
    upsilon_edges: int
    gamma_boxes: int
    gamma_edges: int
    cross_edges: int
    n_components: int
    component_sizes: tuple  # largest first, capped
    separating: bool
    epsilon: float
    epsilon_min: float
    delta: float
    epsilon_prime: float
    delta_prime: float
    depths: tuple
    wall_s: float
    rss_mb: float

    def core_fields(self) -> dict:
        d = {
            k: getattr(self, k)
            for k in (
                "index",
                "mode",
                "boxes_original",
                "boxes_escaping",
                "upsilon_boxes",
                "upsilon_edges",
                "gamma_boxes",
                "gamma_edges",
                "cross_edges",
                "n_components",
                "component_sizes",
                "separating",
                "epsilon",
                "epsilon_min",
                "delta",
                "epsilon_prime",
                "delta_prime",
                "depths",
            )
        }
        return d


@dataclass
class RunRecord:
    config: dict
    map_r: float
    r_prime: float
    delta0_prime: float
    steps: list
    separating: bool
    sink_rows: tuple  # final-step sink/component entries
    sink_section: Optional[object]  # exact-mode separation constants
    aborted: Optional[str] = None
    total_wall_s: float = 0.0

    def core(self) -> dict:
        return {
            "config": self.config,
            "r_prime": self.r_prime,
            "delta0_prime": self.delta0_prime,
            "separating": self.separating,
            "aborted": self.aborted,
            "steps": [s.core_fields() for s in self.steps],
        }


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class PipelineResult:
    def __init__(self, record, model, tree, gamma, classification):
        self.record = record
        self.model = model
        self.tree = tree
        self.gamma = gamma
        self.classification = classification


def run_pipeline(
    config: RunConfig,
    on_step: Optional[Callable] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> PipelineResult:
    """Execute the configured schedule; returns record + final model.

    Raises MemoryBudgetError (with the partial record attached as
    ``.record``) if the edge build runs past the budget.
    """
    config.validate()
    model = config.build_model()
    orbits = sink_orbits(model)
    tree = init_root(model, max_depth=config.max_depth)
    say = progress or (lambda s: None)
    steps: list[StepRecord] = []
    record = RunRecord(
        config={
            "kind": config.kind,
            "a": config.a,
            "c": config.c,
            "r_prime": model.r_prime,
            "schedule": list(config.schedule),
            "delta_ratio": config.delta_ratio,
            "prune_iters": config.prune_iters,
        },
        map_r=model.R,
        r_prime=model.r_prime,
        delta0_prime=model.delta0_prime,
        steps=steps,
        separating=False,
        sink_rows=(),
        sink_section=None,
    )
    t_run = time.perf_counter()
    prev_delta = None
    gamma = None
    classification = None
    for index, mode in enumerate(config.schedule, start=1):
        t0 = time.perf_counter()
        if mode == "sink_basin":
            selector = sink_basin_selector(
                tree, iterates=config.sink_iterates, threshold=config.sink_threshold
            )
        else:
            selector = lambda lid: True
        tree.subdivide(selector)
        n_original = tree.leaf_count
        say(f"step {index} ({mode}): {n_original} boxes after subdivision")
        n_escaping = tree.prune_escaping(config.prune_iters)
        say(f"step {index}: {n_escaping} escaping boxes eliminated")
        epsilon = tree.epsilon()
        epsilon_min = tree.epsilon_min()
        delta = epsilon_min / config.delta_ratio
        if prev_delta is not None:
            delta = min(delta, prev_delta / 2.0)
        prev_delta = delta
        try:
            graph = build_edges(tree, model, delta, mem_budget_mb=config.mem_budget_mb)
        except MemoryBudgetError as exc:
            record.aborted = str(exc)
            record.total_wall_s = time.perf_counter() - t_run
            exc.record = record
            raise
        say(f"step {index}: graph with {graph.n_vertices} boxes, {graph.n_edges} edges")
        labeling = scc_decompose(graph)
        gamma = recurrent_model(graph, labeling)
        classification = classify_components(gamma, model, orbits)
        bounds = report_for_map(
            model,
            epsilon,
            epsilon_min=epsilon_min,
            delta=delta,
            with_sink=False,
        )
        step = StepRecord(
            index=index,
            mode=mode,
            boxes_original=n_original,
            boxes_escaping=n_escaping,
            upsilon_boxes=graph.n_vertices,
            upsilon_edges=graph.n_edges,
            gamma_boxes=gamma.n_vertices,
            gamma_edges=gamma.n_edges,
            cross_edges=len(gamma.cross_edges),
            n_components=classification.n_components,
            component_sizes=classification.sizes[:8],
            separating=classification.separating,
            epsilon=epsilon,
            epsilon_min=epsilon_min,
            delta=delta,
            epsilon_prime=bounds.epsilon_prime,
            delta_prime=bounds.delta_prime,
            depths=tuple(tree.live_depths()),
            wall_s=time.perf_counter() - t0,
            rss_mb=_rss_mb(),
        )
        steps.append(step)
        say(
            f"step {index}: gamma {gamma.n_vertices} boxes / {gamma.n_edges} edges, "
            f"{classification.n_components} components, separating="
            f"{classification.separating}"
        )
        if on_step is not None:
            on_step(step, tree, gamma, classification)
    record.separating = steps[-1].separating if steps else False
    record.sink_rows = classification.sinks if classification else ()
    record.sink_section = sink_section_for_map(model, m_ratio=config.delta_ratio)
    record.total_wall_s = time.perf_counter() - t_run
    if config.model_out:
        save_model(
            config.model_out,
            model,
            gamma,
            json_mode=config.json_model,
            include_edges=config.save_edges,
        )
    return PipelineResult(record, model, tree, gamma, classification)


# ---------------------------------------------------------------------------
# model persistence
# ---------------------------------------------------------------------------

_FORMAT = "boxchain-model"
_VERSION = 1


def _header_fields(model: MapModel, gamma: ChainGraph, include_edges: bool):
    out = f"{_FORMAT} {_VERSION} kind={model.kind}"
    if model.a_str is not None:
        out += f" a={model.a_str[0]},{model.a_str[1]}"
    out += f" c={model.c_str[0]},{model.c_str[1]}"
    out += (
        f" rprime={model.r_prime!r} m=2"
        f" delta={gamma.delta!r} epsilon={gamma.epsilon!r}"
        f" epsilon_min={gamma.epsilon_min!r}"
        f" boxes={gamma.n_vertices} comps={int(gamma.comp.max()) + 1 if gamma.n_vertices else 0}"
        f" edges={gamma.n_edges if include_edges else 0}"
        f" cross={len(gamma.cross_edges) if include_edges and gamma.cross_edges is not None else 0}"
    )
    return out


def save_model(
    path,
    model: MapModel,
    gamma: ChainGraph,
    json_mode: bool = False,
    include_edges: bool = False,
) -> None:
    """Persist the recurrent model; canonical, lossless, diffable."""
    if gamma is None or gamma.comp is None:
        raise UsageError("save_model needs a completed recurrent model")
    # one row per box: depth, grid indices, component id
    boxes = np.column_stack([gamma.tree.address_table(gamma.vertex_ids), gamma.comp])
    if json_mode:
        obj = {
            "format": _FORMAT,
            "version": _VERSION,
            "kind": model.kind,
            "a": None if model.a_str is None else list(model.a_str),
            "c": list(model.c_str),
            "rprime": repr(model.r_prime),
            "m": 2,
            "delta": repr(gamma.delta),
            "epsilon": repr(gamma.epsilon),
            "epsilon_min": repr(gamma.epsilon_min),
            "boxes": boxes.tolist(),
            "edges": (
                [
                    [int(u), int(v)]
                    for u in range(gamma.n_vertices)
                    for v in gamma.out_neighbors(u)
                ]
                if include_edges
                else []
            ),
            "cross_edges": (
                [[int(u), int(v)] for u, v in gamma.cross_edges]
                if include_edges and gamma.cross_edges is not None
                else []
            ),
        }
        text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
        with open(path, "w") as fh:
            fh.write(text)
        return
    buf = io.StringIO()
    buf.write(_header_fields(model, gamma, include_edges) + "\n")
    buf.write(("B" + " %d" * boxes.shape[1] + "\n") * len(boxes) % tuple(boxes.ravel().tolist()))
    if include_edges:
        for u in range(gamma.n_vertices):
            for v in gamma.out_neighbors(u):
                buf.write(f"E {u} {v}\n")
        if gamma.cross_edges is not None:
            for u, v in gamma.cross_edges:
                buf.write(f"X {int(u)} {int(v)}\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def _parse_header(line: str) -> dict:
    parts = line.split()
    if len(parts) < 2 or parts[0] != _FORMAT:
        raise ParseError("not a model file (bad magic)")
    if parts[1] != str(_VERSION):
        raise ParseError(f"unsupported model format version {parts[1]!r}")
    fields = {}
    for tok in parts[2:]:
        key, _, val = tok.partition("=")
        if not val:
            raise ParseError(f"malformed header field {tok!r}")
        fields[key] = val
    for req in ("kind", "c", "rprime", "delta", "epsilon", "epsilon_min", "boxes"):
        if req not in fields:
            raise ParseError(f"header missing field {req!r}")
    return fields


def load_model(path):
    """Load a persisted model: returns (model, tree, gamma)."""
    with open(path) as fh:
        text = fh.read()
    if not text:
        raise ParseError(f"{path}: empty model file")
    if text.lstrip().startswith("{"):
        return _load_json(text, path)
    lines = text.splitlines()
    fields = _parse_header(lines[0])
    model = MapModel(
        fields["kind"],
        c=fields["c"],
        a=fields.get("a"),
        r_prime=float(fields["rprime"]),
    )
    n_boxes = int(fields["boxes"])
    n_edges = int(fields.get("edges", "0"))
    n_cross = int(fields.get("cross", "0"))
    naxes = model.naxes
    addresses = []
    comps = []
    edges = []
    cross = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        try:
            if tag == "B":
                if len(parts) != 2 + naxes + 1:
                    raise ValueError("wrong field count")
                row = [int(p) for p in parts[1:]]
                comps.append(row.pop())
                addresses.append(row)  # depth, grid indices
            elif tag == "E":
                edges.append((int(parts[1]), int(parts[2])))
            elif tag == "X":
                cross.append((int(parts[1]), int(parts[2])))
            else:
                raise ValueError(f"unknown record tag {tag!r}")
        except (ValueError, IndexError) as exc:
            raise ParseError(f"{path}:{ln}: {exc}") from None
    if len(addresses) != n_boxes:
        raise ParseError(
            f"{path}: truncated model: header announces {n_boxes} boxes, "
            f"found {len(addresses)}"
        )
    if len(edges) != n_edges or len(cross) != n_cross:
        raise ParseError(f"{path}: truncated model: edge count mismatch")
    return _rebuild(
        model,
        addresses,
        comps,
        edges,
        cross,
        float(fields["delta"]),
        float(fields["epsilon"]),
        float(fields["epsilon_min"]),
    )


def _load_json(text: str, path):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: bad JSON model: {exc}") from None
    try:
        if obj["format"] != _FORMAT or obj["version"] != _VERSION:
            raise ParseError(f"{path}: unsupported model format")
        model = MapModel(
            obj["kind"],
            c=",".join(obj["c"]),
            a=None if obj.get("a") is None else ",".join(obj["a"]),
            r_prime=float(obj["rprime"]),
        )
        addresses = [[int(v) for v in b[:-1]] for b in obj["boxes"]]
        comps = [int(b[-1]) for b in obj["boxes"]]
        edges = [tuple(e) for e in obj.get("edges", [])]
        cross = [tuple(e) for e in obj.get("cross_edges", [])]
        return _rebuild(
            model,
            addresses,
            comps,
            edges,
            cross,
            float(obj["delta"]),
            float(obj["epsilon"]),
            float(obj["epsilon_min"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed JSON model: {exc}") from None


def _rebuild(model, addresses, comps, edges, cross, delta, epsilon, epsilon_min):
    try:
        tree = BoxTree.restore(model, addresses)
    except UsageError as exc:
        raise ParseError(str(exc)) from None
    n = len(addresses)
    # the header's values date from before pruning, so they bound the kept boxes
    if n and epsilon < tree.epsilon():
        raise ParseError(f"header epsilon {epsilon!r} < largest box side {tree.epsilon()!r}")
    if n and epsilon_min > tree.epsilon_min():
        raise ParseError(f"header epsilon_min {epsilon_min!r} > smallest box side {tree.epsilon_min()!r}")
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    if len(src):
        if src.min() < 0 or src.max() >= n or dst.min() < 0 or dst.max() >= n:
            raise ParseError("edge endpoint out of range")
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    if n:
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    gamma = ChainGraph(
        tree=tree,
        vertex_ids=np.arange(n, dtype=np.int64),
        indptr=indptr,
        indices=dst.astype(np.int32),
        delta=delta,
        epsilon=epsilon,
        epsilon_min=epsilon_min,
        comp=np.array(comps, dtype=np.int64),
        cross_edges=np.array(cross, dtype=np.int64).reshape(-1, 2),
    )
    return model, tree, gamma
