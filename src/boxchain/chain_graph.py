"""Box chain model and its recurrent subgraph.

``build_edges`` produces the transition graph on the live leaves: an
edge k -> j whenever the interval image F(B_k), widened by delta,
meets the closed box B_j.  The guaranteed-inclusion direction is what
matters: every pair whose widened image meets the box gets an edge
(over-approximation only adds edges, never drops them).

``scc_decompose`` labels strongly connected components; vertices on no
cycle (singletons without a self-edge) stay unlabeled.  The recurrent
model keeps exactly the labeled vertices, with intra-component (cycle)
edges primary and cross-component edges between labeled vertices
retained separately, flagged, for serialization.

Edge building is vectorized: widened images are computed in bulk, the
candidate grid cells per depth are enumerated as integer index ranges,
verified against exact cell endpoints, and matched against the packed
live-cell table by binary search.  This is the address form of the
tree query and is checked against the all-pairs oracle in the tests.
SCC labeling is delegated to scipy's compiled strong-components routine
(a standard algorithm, not part of this package's contribution) and is
canonicalized to (size desc, min vertex asc) order so labels are
deterministic; graphs with ~10^6 vertices stay well within memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import MemoryBudgetError
from .ia import UsageError
from .maps import MapModel, batch_forward, sink_orbits
from .boxtree import BoxTree

__all__ = [
    "ChainGraph",
    "SccLabeling",
    "ComponentReport",
    "build_edges",
    "widened_images",
    "scc_decompose",
    "recurrent_model",
    "classify_components",
]

_CHUNK_CANDIDATES = 4_000_000
_BYTES_PER_EDGE = 8.0
_BYTES_PER_VERTEX = 160.0


@dataclass
class ChainGraph:
    """Directed graph on live leaf boxes (CSR out-adjacency)."""

    tree: BoxTree
    vertex_ids: np.ndarray  # leaf ids, ascending
    indptr: np.ndarray
    indices: np.ndarray  # vertex rows, ascending within each row
    delta: float
    epsilon: float
    epsilon_min: float
    comp: Optional[np.ndarray] = None  # per-vertex component id (recurrent model)
    cross_edges: Optional[np.ndarray] = None  # flagged non-cycle edges [k, 2]

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_ids)

    @property
    def n_edges(self) -> int:
        return len(self.indices)

    def out_neighbors(self, row: int) -> np.ndarray:
        return self.indices[self.indptr[row] : self.indptr[row + 1]]

    def has_edge(self, src_row: int, dst_row: int) -> bool:
        nb = self.out_neighbors(src_row)
        k = np.searchsorted(nb, dst_row)
        return k < len(nb) and nb[k] == dst_row

    def row_of_leaf(self, leaf_id: int) -> int:
        k = int(np.searchsorted(self.vertex_ids, leaf_id))
        if k >= len(self.vertex_ids) or self.vertex_ids[k] != leaf_id:
            raise UsageError(f"leaf {leaf_id} is not a graph vertex")
        return k


def _pack(idxs: np.ndarray, depth: int, naxes: int) -> np.ndarray:
    p = idxs[:, 0].astype(np.int64).copy()
    for k in range(1, naxes):
        p <<= depth
        p |= idxs[:, k].astype(np.int64)
    return p


def widened_images(tree: BoxTree, model: MapModel, delta: float):
    """Bulk widened interval images: bounds of N_delta(F(B)) per live leaf.

    Returns (ids, wlo, whi); the same arrays drive build_edges and the
    all-pairs test oracle.
    """
    if delta <= 0.0:
        raise UsageError("delta must be positive")
    ids, _, _, lo, hi = tree.live_arrays()
    flo, fhi = batch_forward(model, lo, hi)
    if not (np.isfinite(flo).all() and np.isfinite(fhi).all()):
        raise UsageError("interval image blew up inside V0")
    wlo = np.nextafter(flo - delta, -np.inf)
    whi = np.nextafter(fhi + delta, np.inf)
    return ids, wlo, whi


def build_edges(
    tree: BoxTree,
    model: MapModel,
    delta: float,
    mem_budget_mb: Optional[float] = None,
) -> ChainGraph:
    """Box chain model: edge k -> j iff widen(F(B_k), delta) meets B_j."""
    if tree.leaf_count < 1:
        raise UsageError("tree has no live leaves")
    ids, wlo, whi = widened_images(tree, model, delta)
    _, depths, idxs, _, _ = tree.live_arrays()
    n = len(ids)
    naxes = tree.naxes
    rp = tree.r_prime
    budget_bytes = None if mem_budget_mb is None else mem_budget_mb * 1e6

    src_parts = []
    dst_parts = []
    total_edges = 0
    for depth in tree.live_depths():
        if naxes * depth > 62:
            raise UsageError(
                f"grid depth {depth} too deep for packed addressing: needs "
                f"naxes*depth <= 62 (depth <= {62 // naxes} with {naxes} axes)"
            )
        cell = tree.cell_size(depth)
        nmax = (1 << depth) - 1
        level_rows = np.flatnonzero(depths == depth)
        packed = _pack(idxs[level_rows], depth, naxes)
        order = np.argsort(packed)
        packed = packed[order]
        level_rows = level_rows[order]

        i0 = np.floor((wlo + rp) / cell).astype(np.int64) - 1
        i1 = np.floor((whi + rp) / cell).astype(np.int64) + 1
        np.clip(i0, 0, nmax, out=i0)
        np.clip(i1, 0, nmax, out=i1)
        ok_rows = np.flatnonzero((i0 <= i1).all(axis=1) & (whi >= -rp).all(axis=1) & (wlo <= rp).all(axis=1))
        if len(ok_rows) == 0:
            continue
        shapes = (i1[ok_rows] - i0[ok_rows] + 1).astype(np.int64)
        # group rows by candidate-range shape so offsets broadcast
        uniq, inverse = np.unique(shapes, axis=0, return_inverse=True)
        for gi in range(len(uniq)):
            shape = uniq[gi]
            rows = ok_rows[inverse == gi]
            ncand = int(np.prod(shape))
            step = max(1, _CHUNK_CANDIDATES // max(ncand, 1))
            offsets = (
                np.indices(shape).reshape(naxes, -1).T.astype(np.int64)
            )  # [ncand, naxes]
            for s in range(0, len(rows), step):
                rr = rows[s : s + step]
                base = i0[rr]  # [R, naxes]
                cand = base[:, None, :] + offsets[None, :, :]  # [R, ncand, naxes]
                low = -rp + cand * cell
                okc = (low <= whi[rr][:, None, :]) & (low + cell >= wlo[rr][:, None, :])
                okc = okc.all(axis=2)  # [R, ncand]
                if not okc.any():
                    continue
                rows_rep = np.repeat(rr, ncand).reshape(len(rr), ncand)[okc]
                flat = cand[okc]  # [K, naxes]
                p = _pack(flat, depth, naxes)
                pos = np.searchsorted(packed, p)
                inside = pos < len(packed)
                found = np.zeros(len(p), dtype=bool)
                found[inside] = packed[pos[inside]] == p[inside]
                if not found.any():
                    continue
                src_parts.append(rows_rep[found].astype(np.int64))
                dst_parts.append(level_rows[pos[found]].astype(np.int64))
                total_edges += int(found.sum())
                if budget_bytes is not None:
                    est = total_edges * _BYTES_PER_EDGE + n * _BYTES_PER_VERTEX
                    if est > budget_bytes:
                        raise MemoryBudgetError(
                            f"edge build exceeded memory budget "
                            f"({mem_budget_mb:.0f} MB) at {n} vertices, "
                            f">= {total_edges} edges",
                            vertices=n,
                            edges=total_edges,
                        )
    if total_edges:
        src = np.concatenate(src_parts)
        dst = np.concatenate(dst_parts)
        order = np.lexsort((dst, src))
        src = src[order]
        dst = dst[order]
    else:
        src = np.empty(0, dtype=np.int64)
        dst = np.empty(0, dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return ChainGraph(
        tree=tree,
        vertex_ids=ids.copy(),
        indptr=indptr,
        indices=dst.astype(np.int32),
        delta=float(delta),
        epsilon=tree.epsilon(),
        epsilon_min=tree.epsilon_min(),
    )


# ---------------------------------------------------------------------------
# strongly connected components
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SccLabeling:
    """Component id per vertex; -1 marks vertices on no cycle.

    Ids are canonical: 0 is the largest component, ties broken by the
    smallest member row, so the labeling is invariant under vertex
    permutation up to that canonical order.
    """

    comp: np.ndarray
    sizes: tuple  # box count per component id
    n_labeled: int

    @property
    def n_components(self) -> int:
        return len(self.sizes)


def scc_decompose(graph: ChainGraph) -> SccLabeling:
    """Label vertices by strongly connected component.

    A singleton component counts only with a self-edge; everything else
    is unlabeled (-1).  Deterministic for a given graph.
    """
    n = graph.n_vertices
    if n == 0:
        return SccLabeling(comp=np.empty(0, dtype=np.int64), sizes=(), n_labeled=0)
    mat = csr_matrix(
        (np.ones(graph.n_edges, dtype=np.int8), graph.indices, graph.indptr),
        shape=(n, n),
    )
    _, raw = connected_components(mat, directed=True, connection="strong")
    counts = np.bincount(raw)
    labeled = counts[raw] >= 2
    # singleton components survive only with a self-edge
    for row in np.flatnonzero(~labeled):
        if graph.has_edge(int(row), int(row)):
            labeled[row] = True
    comp = np.full(n, -1, dtype=np.int64)
    kept = np.unique(raw[labeled])
    # canonical order: size descending, then smallest member row
    labels, first_idx = np.unique(raw, return_index=True)
    first_row = np.zeros(raw.max() + 1, dtype=np.int64)
    first_row[labels] = first_idx
    kept_sorted = sorted(kept, key=lambda c: (-counts[c], first_row[c]))
    sizes = []
    for new_id, c in enumerate(kept_sorted):
        comp[(raw == c) & labeled] = new_id
        sizes.append(int(counts[c]))
    return SccLabeling(comp=comp, sizes=tuple(sizes), n_labeled=int(labeled.sum()))


def recurrent_model(
    graph: ChainGraph, labeling: SccLabeling, prune_tree: bool = True
) -> ChainGraph:
    """Restrict to the labeled vertices: the union of the SCCs.

    Primary edges are the cycle edges (within a component); edges
    between distinct labeled components are kept in ``cross_edges``,
    flagged.  Leaves dropped from the model are pruned from the tree so
    the next subdivision step sees the recurrent region only.
    """
    keep = labeling.comp >= 0
    keep_rows = np.flatnonzero(keep)
    new_row = np.full(graph.n_vertices, -1, dtype=np.int64)
    new_row[keep_rows] = np.arange(len(keep_rows))
    src_all = np.repeat(
        np.arange(graph.n_vertices), np.diff(graph.indptr)
    )
    dst_all = graph.indices.astype(np.int64)
    mask = keep[src_all] & keep[dst_all]
    src = new_row[src_all[mask]]
    dst = new_row[dst_all[mask]]
    same = labeling.comp[src_all[mask]] == labeling.comp[dst_all[mask]]
    cross = np.column_stack([src[~same], dst[~same]])
    src, dst = src[same], dst[same]
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    n = len(keep_rows)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    gamma = ChainGraph(
        tree=graph.tree,
        vertex_ids=graph.vertex_ids[keep_rows],
        indptr=indptr,
        indices=dst.astype(np.int32),
        delta=graph.delta,
        epsilon=graph.epsilon,
        epsilon_min=graph.epsilon_min,
        comp=labeling.comp[keep_rows],
        cross_edges=cross,
    )
    if prune_tree:
        dropped = graph.vertex_ids[~keep]
        graph.tree.remove_leaves(int(v) for v in dropped)
    return gamma


# ---------------------------------------------------------------------------
# component classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SinkComponentEntry:
    period: int
    method: str
    multiplier_max: float
    component_ids: tuple  # components whose box union meets the orbit
    covered: bool  # every orbit point found inside some model box


@dataclass(frozen=True)
class ComponentReport:
    n_components: int
    sizes: tuple
    j_candidate: int  # id of the largest component
    sinks: tuple  # SinkComponentEntry per detected sink orbit
    separating: bool

    def summary_lines(self):
        lines = [
            f"components: {self.n_components} "
            f"(largest #{self.j_candidate} with {self.sizes[self.j_candidate] if self.sizes else 0} boxes)"
        ]
        for s in self.sinks:
            comps = ",".join(str(c) for c in s.component_ids) or "-"
            lines.append(
                f"sink orbit period {s.period} ({s.method}, |mult| {s.multiplier_max:.3g}): "
                f"components {{{comps}}}"
                + ("" if s.covered else " [NOT COVERED]")
            )
        lines.append(f"separating: {str(self.separating).lower()}")
        return lines


def classify_components(
    gamma: ChainGraph,
    model: MapModel,
    orbits=None,
) -> ComponentReport:
    """Mark the largest component as the J candidate, locate sink orbits,
    and report whether the model separates a sink from it."""
    if gamma.comp is None:
        raise UsageError("classify_components needs a recurrent model")
    sizes = labeling_sizes(gamma)
    j_id = 0 if len(sizes) else -1
    if orbits is None:
        orbits = sink_orbits(model)
    tree = gamma.tree
    id_to_row = {int(v): k for k, v in enumerate(gamma.vertex_ids)}
    entries = []
    separating = False
    for orb in orbits:
        comp_ids = set()
        covered = True
        for pt in orb.points:
            vals = tree.point_axis_values(pt)
            leaves = tree.leaves_containing_point(vals)
            rows = [id_to_row[l] for l in leaves if l in id_to_row]
            if not rows:
                covered = False
                continue
            comp_ids.update(int(gamma.comp[r]) for r in rows)
        entry = SinkComponentEntry(
            period=orb.period,
            method=orb.method,
            multiplier_max=orb.multiplier_max,
            component_ids=tuple(sorted(comp_ids)),
            covered=covered,
        )
        entries.append(entry)
        if comp_ids and j_id not in comp_ids:
            separating = True
    return ComponentReport(
        n_components=len(sizes),
        sizes=sizes,
        j_candidate=j_id,
        sinks=tuple(entries),
        separating=separating,
    )


def labeling_sizes(gamma: ChainGraph) -> tuple:
    if gamma.comp is None or len(gamma.comp) == 0:
        return ()
    return tuple(int(c) for c in np.bincount(gamma.comp))
