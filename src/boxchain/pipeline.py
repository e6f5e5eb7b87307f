"""Iterative pipeline driver and model persistence.

One run executes, per scheduled step: subdivide (uniform or sink-basin
selective), eliminate V0-escaping boxes (Henon maps only; for 1-D maps
the strongly connected components alone drop the boxes that never
return), build the box chain model with delta = epsilon_min /
delta_ratio (never more than half the previous delta), extract the
strongly connected subgraph as the recurrent model, prune dropped
leaves, classify components, and record the accuracy ledger.  Everything recorded is deterministic for a given
configuration (wall time and memory excluded).

A model file holds four tables: the header fields (format version, map
parameters as decimal strings, the grid/accuracy constants), the boxes
as int64 rows (depth, grid indices, component id), and optionally the
cycle edges and the flagged cross-component edges as k x 2 tables of
box rows.  The file is line-oriented text: a one-line header, then
``B ...``, ``E u v`` and ``X u v`` records.  The loader reads them a
piece of lines at a time, and one rebuild checks and builds the model.
Serialization is canonical, so save -> load -> save is byte-identical.
"""

from __future__ import annotations

import io
import math
import os
import re
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from .errors import MemoryBudgetError, ParseError, check_memory_budget, give_back, peak_rss_mb
from .ia import UsageError
from .maps import KINDS, MapModel, sink_orbits
from .boxtree import BoxTree, _any_per_row, init_root, sink_basin_selector
from .bounds import report_for_map, sink_section_for_map
from .chain_graph import (
    ChainGraph,
    RecurrentModel,
    _csr,
    build_edges,
    classify_components,
    recurrent_model,
    scc_decompose,
)

__all__ = [
    "PRESETS",
    "preset_params",
    "RunConfig",
    "StepRecord",
    "RunRecord",
    "run_pipeline",
    "parse_schedule",
    "check_out_path",
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
_PRUNE_ITERS = 6  # forward and backward escape checks per step of a Henon map
# each step refines a box at most once, and no box goes past the depth
# cap 62 // naxes <= 31: a longer schedule could never run to its end
_MAX_STEPS = 62


def preset_params(name: Optional[str], **given) -> dict:
    """The map parameters of preset ``name`` (none when name is None),
    each replaced by the matching given value that is not None."""
    if name is None:
        params = {}
    elif name in PRESETS:
        params = dict(PRESETS[name])
    else:
        raise UsageError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    params.update((key, value) for key, value in given.items() if value is not None)
    return params


def parse_schedule(text) -> list[str]:
    """Parse "uniform*6,sink_basin*2" (or a list of tokens) into steps."""
    if isinstance(text, (list, tuple)):
        tokens = list(text)
    else:
        tokens = [t.strip() for t in str(text).split(",") if t.strip()]
    steps = []
    for tok in tokens:
        name, star, count = tok.partition("*")
        name = name.strip()
        if name not in _MODES:
            raise ParseError(f"unknown schedule step {name!r}")
        try:
            n = int(count) if star else 1
        except ValueError:
            raise ParseError(f"bad repeat count in {tok!r}") from None
        if n < 1:
            raise ParseError(f"bad repeat count in {tok!r}")
        if len(steps) + n > _MAX_STEPS:
            raise ParseError(f"schedule longer than {_MAX_STEPS} steps at {tok!r}")
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
    mem_budget_mb: Optional[float] = 4096.0
    model_out: Optional[str] = None
    save_edges: bool = False

    @staticmethod
    def from_preset(name: str, **overrides) -> "RunConfig":
        return RunConfig(**{**preset_params(name), **overrides})

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise UsageError(f"unknown map kind {self.kind!r}")
        if not self.schedule:
            raise UsageError("schedule must contain at least one step")
        for tok in self.schedule:
            if tok not in _MODES:
                raise UsageError(f"unknown schedule step {tok!r}")
        if not 1.0 < self.delta_ratio < math.inf:
            raise UsageError("delta_ratio must be finite and exceed 1 (delta << epsilon)")
        if self.mem_budget_mb is not None and not self.mem_budget_mb > 0.0:
            raise UsageError("mem_budget_mb must be positive, or None for no budget")
        if self.model_out is not None:
            check_out_path(self.model_out)

    def build_model(self) -> MapModel:
        return MapModel(self.kind, c=self.c, a=self.a, r_prime=self.r_prime)


def check_out_path(path) -> None:
    """Raise UsageError unless ``path`` can name a file to write: it is
    no directory, and the directory it is in exists."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise UsageError(f"cannot write {path}: it is a directory")
    if not os.path.isdir(folder):
        raise UsageError(f"cannot write {path}: no directory {folder}")


def _fields_except(record, skip) -> dict:
    return {f.name: getattr(record, f.name) for f in fields(record) if f.name not in skip}


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
        """Every field but the machine-dependent wall time and memory."""
        return _fields_except(self, ("wall_s", "rss_mb"))


@dataclass
class RunRecord:
    config: dict
    r_prime: float
    delta0_prime: float
    steps: list
    separating: bool
    sink_rows: tuple  # final-step sink/component entries
    sink_section: Optional[object]  # exact-mode separation constants
    aborted: Optional[str] = None
    total_wall_s: float = 0.0

    def core(self) -> dict:
        """The deterministic record: every field but the wall time and the
        sink data, each step by its core fields."""
        core = _fields_except(self, ("sink_rows", "sink_section", "total_wall_s"))
        return dict(core, steps=[s.core_fields() for s in self.steps])


@dataclass
class PipelineResult:
    record: RunRecord
    model: MapModel
    tree: BoxTree
    gamma: Optional[RecurrentModel]
    classification: Optional[object]


def run_pipeline(
    config: RunConfig,
    on_step: Optional[Callable] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> PipelineResult:
    """Execute the configured schedule; returns record + final model.

    Checks the process's peak RSS against ``config.mem_budget_mb`` after
    each phase and each edge-lookup chunk, and raises MemoryBudgetError
    (with the partial record attached as ``.record``) once it has passed.
    """
    config.validate()
    model = config.build_model()
    orbits = sink_orbits(model)
    tree = init_root(model)
    prune_iters = _PRUNE_ITERS if model.is_henon else 0
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
            "prune_iters": prune_iters,
        },
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
    try:
        for index, mode in enumerate(config.schedule, start=1):
            graph = labeling = gamma = None  # the previous step's graphs are not read again
            t0 = time.perf_counter()
            # the selector and its sink-basin set live only through the subdivision
            tree.subdivide(sink_basin_selector(tree) if mode == "sink_basin" else lambda lid: True)
            check_memory_budget(config.mem_budget_mb, f"after step {index}'s subdivision")
            n_original = tree.leaf_count
            say(f"step {index} ({mode}): {n_original} boxes after subdivision")
            n_escaping = 0
            if prune_iters:
                n_escaping = tree.prune_escaping(prune_iters)
                check_memory_budget(config.mem_budget_mb, f"after step {index}'s escape pruning")
                say(f"step {index}: {n_escaping} escaping boxes eliminated")
            epsilon = tree.epsilon()
            epsilon_min = tree.epsilon_min()
            delta = epsilon_min / config.delta_ratio
            if prev_delta is not None:
                delta = min(delta, prev_delta / 2.0)
            prev_delta = delta
            graph = build_edges(tree, model, delta, mem_budget_mb=config.mem_budget_mb)
            say(f"step {index}: graph with {graph.n_vertices} boxes, {graph.n_edges} edges")
            labeling = scc_decompose(graph)
            gamma = recurrent_model(graph, labeling)
            give_back()  # the strong components' temporaries
            # the next subdivision step sees the recurrent region only
            tree.remove_leaves(graph.vertex_ids[labeling.comp < 0])
            give_back()  # the leaves' old arrays
            check_memory_budget(config.mem_budget_mb, f"after step {index}'s restriction")
            classification = classify_components(gamma, model, orbits)
            check_memory_budget(config.mem_budget_mb, f"after step {index}'s classification")
            bounds = report_for_map(
                model,
                epsilon,
                epsilon_min=epsilon_min,
                delta=delta,
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
                cross_edges=gamma.n_cross_edges,
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
                rss_mb=peak_rss_mb(),
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
            save_model(config.model_out, model, gamma, include_edges=config.save_edges)
        check_memory_budget(config.mem_budget_mb, "at the end of the run")
    except MemoryBudgetError as exc:
        record.aborted = str(exc)
        record.total_wall_s = time.perf_counter() - t_run
        exc.record = record
        raise
    return PipelineResult(record, model, tree, gamma, classification)


# ---------------------------------------------------------------------------
# model persistence
# ---------------------------------------------------------------------------

_FORMAT = "boxchain-model"
_VERSION = 1
_REQUIRED = ("kind", "c", "rprime", "delta", "epsilon", "epsilon_min", "boxes")
_ROWS_PER_WRITE = 1 << 16  # text records formatted per write
_PIECE_BYTES = 1 << 20  # text bytes read and parsed at a time (whole lines)
_KEYS_PER_CHECK = 1 << 17  # edge keys whose components are checked at a time


def save_model(path, model: MapModel, gamma: RecurrentModel, include_edges: bool = False) -> None:
    """Persist the recurrent model; canonical, lossless, diffable.  The
    header line is followed by the boxes (depth, grid indices, component
    id) and, with ``include_edges``, the cycle and cross edges (pairs of
    box rows).  Every field is a non-negative integer, written in decimal
    as ``%d`` writes it, ``_ROWS_PER_WRITE`` lines at a time
    (``_record_lines``).  The edges are written a block of rows at a
    time (``RecurrentModel.edge_blocks``), the cross edges after the
    cycle edges, each in (src, dst) order."""
    if gamma is None:
        raise UsageError("save_model needs a completed recurrent model")
    boxes = np.column_stack([gamma.tree.address_table(gamma.vertex_ids), gamma.comp])
    header = {
        "kind": model.kind,
        "a": None if model.a_str is None else ",".join(model.a_str),
        "c": ",".join(model.c_str),
        "rprime": repr(model.r_prime),
        "m": 2,
        "delta": repr(gamma.delta),
        "epsilon": repr(gamma.epsilon),
        "epsilon_min": repr(gamma.epsilon_min),
        "boxes": len(boxes),
        "comps": int(boxes[:, -1].max()) + 1 if len(boxes) else 0,
        "edges": gamma.n_edges if include_edges else 0,
        "cross": gamma.n_cross_edges if include_edges else 0,
    }
    items = [f"{key}={val}" for key, val in header.items() if val is not None]
    with open(path, "wb") as fh:
        fh.write((" ".join([_FORMAT, str(_VERSION)] + items) + "\n").encode())
        _write_records(fh, "B", boxes)
        cross = [np.empty((0, 2), dtype=np.int64)]
        if include_edges:
            for src, dst, block_cross in gamma.edge_blocks():
                _write_records(fh, "E", np.column_stack([src, dst]))
                cross.append(block_cross)
        _write_records(fh, "X", np.concatenate(cross))
    give_back()  # the blocks' text and tables, freed: a render may follow


def _write_records(fh, tag: str, table) -> None:
    for first in range(0, len(table), _ROWS_PER_WRITE):
        fh.write(_record_lines(tag, table[first : first + _ROWS_PER_WRITE]))


def _record_lines(tag: str, table) -> bytes:
    """The lines ``tag n_1 ... n_w`` of the rows of ``table``, a table
    of non-negative integers, byte for byte as
    ``(tag + " %d" * w + "\\n") * len(table) % tuple(table.ravel())``
    writes them.  Each line is laid out as a row of one byte matrix: the
    tag, then per field a space and W digits right-aligned (W those of
    the largest field), then a newline; a leading zero is a 0 byte, and
    dropping every 0 byte leaves the text."""
    n, w = table.shape
    if not n:
        return b""
    top = int(table.max())
    if int(table.min()) < 0:
        raise UsageError(f"{tag} records need non-negative fields, got {int(table.min())}")
    width = len(str(top))
    lines = np.empty((n, 2 + w * (1 + width)), dtype=np.uint8)
    lines[:, 0] = ord(tag)
    lines[:, -1] = ord("\n")
    fields = lines[:, 1:-1].reshape(n, w, 1 + width)  # a view
    fields[:, :, 0] = ord(" ")
    value = table.astype(np.min_scalar_type(top))  # unsigned: fast division
    for k in range(width):  # the digit of 10**k, where it is not a leading zero
        quotient = value // 10
        digit = value - quotient * 10
        digit += ord("0")
        if k:
            digit *= value != 0
        fields[:, :, width - k] = digit
        value = quotient
    return lines[lines != 0].tobytes()


def load_model(path):
    """Load a persisted model: returns (model, tree, gamma).  A file
    that cannot be read is a ParseError, as a malformed one is.  The
    file is read a piece of whole lines at a time (``_load``), and the
    memory freed is handed back to the system once the graph is built
    (``give_back``)."""
    try:
        with open(path, "rb") as fh:
            # a pipe's size is known only once it is read
            loaded = _load(fh if fh.seekable() else io.BytesIO(fh.read()))
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from None
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None
    give_back()  # the pieces' text and temporaries, freed: a save or render follows
    return loaded


def _parse_header(line: bytes):
    """The map, (delta, epsilon, epsilon_min) and B/E/X line counts of
    the header line; ``a`` and ``c`` are "re,im" decimal strings."""
    parts = line.decode("utf-8", "replace").split()
    if len(parts) < 2 or parts[0] != _FORMAT:
        raise ParseError("not a model file (bad magic)")
    if parts[1] != str(_VERSION):
        raise ParseError(f"unsupported model format version {parts[1]!r}")
    header = {}
    for tok in parts[2:]:
        key, _, val = tok.partition("=")
        if not val:
            raise ParseError(f"malformed header field {tok!r}")
        header[key] = val
    missing = [key for key in _REQUIRED if key not in header]
    if missing:
        raise ParseError(f"header missing field {missing[0]!r}")
    for key in ("a", "c"):
        if key in header and header[key].count(",") != 1:
            raise ParseError(f"header field {key!r} must be two decimal strings re,im")
    try:
        model = MapModel(
            header["kind"],
            c=header["c"],
            a=header.get("a"),
            r_prime=float(header["rprime"]),
        )
        scales = tuple(float(header[key]) for key in ("delta", "epsilon", "epsilon_min"))
    except ValueError as exc:
        raise ParseError(f"bad header: {exc}") from None
    try:
        announced = [int(header.get(key, "0")) for key in ("boxes", "edges", "cross")]
    except ValueError as exc:
        raise ParseError(f"bad header count: {exc}") from None
    return model, scales, announced


def _load(fh):
    """(model, tree, gamma) of the open model file ``fh``.  Each piece's
    E and X records are checked against the header's box count and
    written as keys src * n + dst into one int64 array, the E keys
    first, then the X keys, each in file order.  A record line takes 6
    bytes or more, its line break included, so the array is sized by the
    header's counts but never beyond what the file's body can hold; the
    lines beyond a tag's share are counted, not stored, and refused with
    the counts.  The components are checked once every box is read."""
    size = fh.seek(0, os.SEEK_END)
    fh.seek(0)
    first = _next_piece(fh)
    cut = re.search(rb"[\r\n]|\Z", first).start()
    model, scales, announced = _parse_header(first[:cut])
    del first
    fh.seek(cut)  # the records follow the header line
    n_edges, n_cross = (max(count, 0) for count in announced[1:])
    keys = np.empty(min(n_edges + n_cross, (size - cut + 1) // 6), dtype=np.int64)
    split = min(n_edges, len(keys))
    share = {"E": (0, split), "X": (split, len(keys))}
    n = min(max(announced[0], 0), size)  # a false count is refused below, whatever it is
    found = dict.fromkeys("BEX", 0)
    widths = {"B": model.naxes + 2, "E": 2, "X": 2}
    boxes, outside = [np.empty((0, widths["B"]), dtype=np.int64)], {}
    for tables in _read_records(fh, widths):
        boxes.append(tables["B"])
        found["B"] += len(tables["B"])
        for tag in "EX":
            table = tables[tag]
            bad = _any_per_row((table < 0) | (table >= n))
            if bad.any():
                outside.setdefault(tag, table[bad][0].tolist())
            start, stop = share[tag]
            at = start + found[tag]
            found[tag] += len(table)
            table = table[: max(stop - at, 0)]  # lines beyond the share: counted, not stored
            key = keys[at : at + len(table)]
            np.multiply(table[:, 0], max(n, 1), out=key)
            key += table[:, 1]
    found = [found[tag] for tag in "BEX"]
    if found != announced:
        raise ParseError(f"truncated model: header announces {announced} B/E/X lines, has {found}")
    if len(keys) < n_edges + n_cross:
        raise ParseError(f"file of {size} bytes changed while read")
    return _rebuild(model, scales, np.concatenate(boxes), keys, n_edges, outside)


def _read_records(fh, widths: dict):
    """Yield the record lines ``TAG n_1 ... n_w`` of the open file
    ``fh``, from where it stands, a piece of whole lines at a time: per
    piece, one int64 table per tag, whose rows are the tag's lines in
    file order; ``widths`` maps each tag to its w.  Fields are separated
    by whitespace (space, tab, CR, LF, VT, FF); blank lines are
    skipped.  A line's first field, its tag, is one byte, one of
    ``widths``' keys; every other field is an optional sign (``+`` or
    ``-``) then 1 to 18 decimal digits, so within int64.  The pieces are
    ``_next_piece``'s; the line breaks (LF, CRLF or CR) before a piece
    number the lines in its errors.  Each piece is checked in whole-array
    passes before its numbers are read (``_read_piece``)."""
    line = 0
    while data := _next_piece(fh):
        yield _read_piece(data, widths, line)
        line += np.count_nonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))
        if b"\r" in data:
            line += data.count(b"\r") - data.count(b"\r\n")


def _next_piece(fh) -> bytes:
    """The lines of the open file ``fh`` that end within its next
    ``_PIECE_BYTES`` bytes, else its next line, else the rest; ``fh`` is
    left after them.  A line ends at LF, CR or CRLF; a CR that ends the
    bytes read may start a CRLF, so it is left for the next piece."""
    data = fh.read(_PIECE_BYTES)
    while not (end := max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1):
        if not (more := fh.read(_PIECE_BYTES)):
            return data
        data += more
    fh.seek(end - len(data), os.SEEK_CUR)
    return data[:end]


def _read_piece(data: bytes, widths: dict, line: int) -> dict:
    buf = np.frombuffer(data, dtype=np.uint8)
    space = buf - 9 < 5  # tab, LF, VT, FF, CR (uint8 wraps below 9)
    space |= buf == ord(" ")
    edge = np.flatnonzero(np.diff(space, prepend=True, append=True))
    start, end = edge[0::2], edge[1::2]  # token k is buf[start[k]:end[k]]
    # a line's first token, its tag, is the piece's first token (a piece
    # starts a line) or one with a line break among the separators before it
    gap = end[:-1]  # the separators before token k + 1 start at gap[k]
    after = buf[gap]
    ishead = np.ones(len(start), dtype=bool)
    ishead[1:] = (after == ord("\n")) | (after == ord("\r"))
    wide = np.flatnonzero(start[1:] - gap > 1)  # gaps of several separators
    if len(wide):
        breaks = np.r_[np.flatnonzero((buf == ord("\n")) | (buf == ord("\r"))), len(buf)]
        ishead[wide + 1] = breaks[np.searchsorted(breaks, gap[wide])] < start[wide + 1]
    head = np.flatnonzero(ishead)
    nfields = np.diff(head, append=len(start)) - 1

    def fail(token, message):
        """Raise ``message``, formatted with the token's text."""
        at = start[token]
        number = line + len(re.findall(rb"\r\n?|\n", data[:at])) + 1
        text = data[at : end[token]].decode("utf-8", "replace")
        raise ParseError(f"line {number}: " + message.format(text))

    # every other token is a field: an optional sign, then 1 to 18 digits.
    # A field longer than 18 bytes must be a sign and 18 digits, and a
    # byte that is neither a separator nor a digit (in a file this program
    # wrote, none but the tags) must be a sign that starts a field of 2
    # bytes or more
    bad = np.zeros(len(start), dtype=bool)
    long = np.flatnonzero(end - start > 18)
    lead = buf[start[long]]
    bad[long] = (end[long] - start[long] > 19) | ((lead != ord("+")) & (lead != ord("-")))
    odd = buf - ord("0") < 10
    odd |= space
    np.logical_not(odd, out=odd)
    odd[start[head]] = False  # the tags
    odd = np.flatnonzero(odd)
    token = np.searchsorted(start, odd, side="right") - 1
    sign = (buf[odd] == ord("+")) | (buf[odd] == ord("-"))
    sign &= (odd == start[token]) & (end[token] - odd > 1)
    bad[token[~sign]] = True
    bad[head] = False
    if bad.any():
        fail(np.argmax(bad), "bad integer {!r}")
    tag = buf[start[head]]
    tag[end[head] - start[head] != 1] = 0
    known = np.zeros(len(head), dtype=bool)
    lines = {}
    for name, width in widths.items():
        rows = np.flatnonzero(tag == ord(name))
        known[rows] = True
        wrong = rows[nfields[rows] != width]
        if len(wrong):
            fail(head[wrong[0]], f"{{}} record with {nfields[wrong[0]]} integers, not {width}")
        lines[name] = rows
    if not known.all():
        fail(head[np.argmin(known)], "unknown record tag {!r}")
    # all checked: blank the tags and read every field in one call; the
    # fields of line r (of head[r]) are values[head[r] - r:][:width]
    text = buf.copy()
    text[start[head]] = ord(" ")
    # as bytes, which end in a NUL: fromstring reads a number past the end
    # of an array's buffer
    values = np.fromstring(text.tobytes(), dtype=np.int64, count=len(start) - len(head), sep=" ")
    tables = {}
    for name, rows in lines.items():
        if len(rows) == len(head):  # every line has this tag
            tables[name] = values.reshape(len(rows), widths[name])
        else:
            tables[name] = values[(head[rows] - rows)[:, None] + np.arange(widths[name])]
    return tables


def _rebuild(model: MapModel, scales, boxes, keys, n_edges: int, outside: dict):
    """Tree and recurrent model of the read tables, checked for
    consistency: delta, epsilon and epsilon_min are finite and positive,
    the ``boxes`` tile, the header's box sides bound them, component ids
    lie in [0, boxes), and the edges join distinct boxes once each, E
    edges within one component, X edges between two.  The edges are
    ``keys`` src * n + dst, the first ``n_edges`` of them E edges, and
    ``outside`` holds the first edge of each tag with an end outside
    the boxes.  The components are checked ``_KEYS_PER_CHECK`` keys at
    a time; then the keys are sorted in place and turned into the
    graph's CSR (``_csr``), so the edges cost about one key each."""
    for key, value in zip(("delta", "epsilon", "epsilon_min"), scales):
        if not 0.0 < value < math.inf:
            raise ParseError(f"header {key} {value!r} is not a finite positive number")
    delta, epsilon, epsilon_min = scales
    try:
        tree = BoxTree.restore(model, boxes[:, :-1])
    except UsageError as exc:
        raise ParseError(str(exc)) from None
    n = len(boxes)
    # the header's values date from before pruning, so they bound the kept boxes
    if n and epsilon < tree.epsilon():
        raise ParseError(f"header epsilon {epsilon!r} < largest box side {tree.epsilon()!r}")
    if n and epsilon_min > tree.epsilon_min():
        raise ParseError(f"header epsilon_min {epsilon_min!r} > smallest box side {tree.epsilon_min()!r}")
    comp = np.ascontiguousarray(boxes[:, -1])
    del boxes
    if ((comp < 0) | (comp >= n)).any():
        raise ParseError(f"component id {int(comp[(comp < 0) | (comp >= n)][0])} outside [0, {n})")
    radix = max(n, 1)
    for tag, within, part in (("E", True, keys[:n_edges]), ("X", False, keys[n_edges:])):
        if tag in outside:
            raise ParseError(f"{tag} edge {outside[tag]} outside [0, {n})")
        for first in range(0, len(part), _KEYS_PER_CHECK):
            src, dst = np.divmod(part[first : first + _KEYS_PER_CHECK], radix)
            wrong = np.flatnonzero((comp[src] == comp[dst]) != within)
            if len(wrong):
                where = "between two components" if within else "within one component"
                raise ParseError(f"{tag} edge {[int(src[wrong[0]]), int(dst[wrong[0]])]} lies {where}")
    keys.sort()
    repeated = np.flatnonzero(keys[1:] == keys[:-1])
    if len(repeated):
        # E and X edges are told apart by their ends' components
        src, dst = divmod(int(keys[repeated[0]]), radix)
        tag = "E" if comp[src] == comp[dst] else "X"
        raise ParseError(f"{tag} edge {[src, dst]} given twice")
    indptr, indices = _csr(keys, n)
    graph = ChainGraph(
        tree=tree,
        vertex_ids=np.arange(n, dtype=np.int64),
        indptr=indptr,
        indices=indices,
        delta=delta,
        epsilon=epsilon,
        epsilon_min=epsilon_min,
    )
    gamma = RecurrentModel(
        graph=graph,
        labels=comp,
        vertex_ids=graph.vertex_ids,
        comp=comp,
        n_edges=n_edges,
        n_cross_edges=len(keys) - n_edges,
    )
    return model, tree, gamma
