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

Edge building is one call of the tree's address lookup
(``BoxTree.lookup``) on the widened images: per depth, each image gets
the exact index range of the grid cells it meets and the ranges are
matched against the sorted live addresses, so no candidate needs a
further check.  A deeper grid is matched in two stages, first the
range's cells at the shallowest live depth against the ancestors of
that grid's leaves, then only the fine cells inside the ancestors
found, so sparse deep grids cost about as many candidates per edge as
a single-depth tree.  This is checked against the all-pairs oracle in
the tests, on single- and three-depth trees.  Classification uses the
same lookup on the sink orbit points.  The edge build runs the lookup
in pieces of consecutive images on the thread pool
(``BoxTree.lookup_pieces``) and sorts the edges at the end, so their
order does not depend on the pieces.

When the live leaves pair up under complex conjugation σ
(``BoxTree.conjugate_rows``: a map with real coefficients on C or C^2),
only one leaf of each pair is imaged and looked up.  The grid is
σ-symmetric and the interval images commute with σ bit for bit, so
k -> j is an edge iff σk -> σj is; each edge found is stored with its
mirror, and one sort orders both halves.

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

from .errors import check_memory_budget
from .ia import UsageError, _down_arr, _up_arr
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
    "components_at_points",
]


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

    @classmethod
    def from_pairs(cls, src, dst, vertex_ids, **fields) -> "ChainGraph":
        """Graph on the vertices ``vertex_ids`` with the edges src -> dst
        (vertex rows, sorted by (src, dst)); ``fields`` are the others."""
        indptr = np.zeros(len(vertex_ids) + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=len(vertex_ids)), out=indptr[1:])
        indices = np.asarray(dst, dtype=np.int32)
        return cls(vertex_ids=vertex_ids, indptr=indptr, indices=indices, **fields)

    @property
    def n_edges(self) -> int:
        return len(self.indices)

    def edge_rows(self):
        """(src, dst) vertex rows of every edge, in CSR order (int32)."""
        src = np.arange(self.n_vertices, dtype=np.int32)
        return np.repeat(src, np.diff(self.indptr)), self.indices

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


def widened_images(tree: BoxTree, model: MapModel, delta: float, rows):
    """Bulk widened interval images: bounds of N_delta(F(B)) of the live
    leaves at ``rows``.

    Returns (wlo, whi), one row per entry of ``rows``; the same arrays
    drive build_edges and the all-pairs test oracle.
    """
    if not delta > 0.0:  # also rejects NaN
        raise UsageError(f"delta must be positive, got {delta!r}")
    _, _, _, lo, hi = tree.live_arrays()
    flo, fhi = batch_forward(model, lo.take(rows, axis=0), hi.take(rows, axis=0))
    if not (np.isfinite(flo).all() and np.isfinite(fhi).all()):
        raise UsageError("interval image blew up inside V0")
    wlo = _down_arr(flo - delta)
    whi = _up_arr(fhi + delta)
    return wlo, whi


def build_edges(
    tree: BoxTree,
    model: MapModel,
    delta: float,
    mem_budget_mb: Optional[float] = None,
) -> ChainGraph:
    """Box chain model: edge k -> j iff widen(F(B_k), delta) meets B_j.

    The lookup runs in pieces on the thread pool
    (``BoxTree.lookup_pieces``); the pieces return their (image, leaf)
    row pairs, and this thread turns them into edge keys, so every array
    that outlives a piece is allocated here.  Checks the process's peak
    RSS against ``mem_budget_mb`` on entry and after each lookup chunk
    (``check_memory_budget``).
    """
    if tree.leaf_count < 1:
        raise UsageError("tree has no live leaves")
    n = tree.leaf_count

    def check(edges: int) -> None:
        where = f"in the edge build at {n} vertices, >= {edges} edges"
        check_memory_budget(mem_budget_mb, where, vertices=n, edges=edges)

    check(0)
    # k -> j is an edge iff its mirror is: image and look up one of each pair
    rows, mirror = tree.conjugate_rows()
    wlo, whi = widened_images(tree, model, delta, rows)
    edge_parts = []  # one int64 per edge: src row << 32 | dst row
    total_edges = 0
    for chunks in tree.lookup_pieces(wlo, whi):
        for edge, dst in chunks:
            # the lookup numbers the imaged rows 0, 1, ...: without a
            # mirror, those are all the rows, in order
            if mirror is not None:
                edge = rows[edge]
                back = mirror[edge]
                back <<= 32
                back |= mirror[dst]
                edge_parts.append(back)
                total_edges += len(back)
            key = edge << 32
            key |= dst
            edge_parts.append(key)
            total_edges += len(key)
            check(total_edges)
    edges = np.concatenate(edge_parts) if edge_parts else np.empty(0, dtype=np.int64)
    del edge_parts
    edges.sort()  # by (src, dst)
    indptr = np.searchsorted(edges, np.arange(n + 1, dtype=np.int64) << 32)
    edges &= 0xFFFFFFFF  # keep dst
    return ChainGraph(
        tree=tree,
        vertex_ids=tree.live_arrays()[0].copy(),
        indptr=indptr,
        indices=edges.astype(np.int32),
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
        return SccLabeling(comp=np.empty(0, dtype=np.int64), sizes=())
    mat = csr_matrix(
        (np.ones(graph.n_edges, dtype=np.int8), graph.indices, graph.indptr),
        shape=(n, n),
    )
    _, raw = connected_components(mat, directed=True, connection="strong")
    counts = np.bincount(raw)
    # singleton components count only with a self-edge
    src, dst = graph.edge_rows()
    kept = counts >= 2
    kept[raw[src[src == dst]]] = True
    # canonical order: size descending, then smallest member row
    _, first_row = np.unique(raw, return_index=True)  # raw labels are 0..k-1
    kept_ids = np.flatnonzero(kept)
    kept_sorted = kept_ids[np.lexsort((first_row[kept_ids], -counts[kept_ids]))]
    lookup = np.full(len(counts), -1, dtype=np.int64)
    lookup[kept_sorted] = np.arange(len(kept_sorted))
    return SccLabeling(
        comp=lookup[raw],
        sizes=tuple(counts[kept_sorted].tolist()),
    )


def recurrent_model(graph: ChainGraph, labeling: SccLabeling) -> ChainGraph:
    """Restrict to the labeled vertices: the union of the SCCs.

    Primary edges are the cycle edges (within a component); edges
    between distinct labeled components are kept in ``cross_edges``,
    flagged.  The tree is left as it is.
    """
    keep = labeling.comp >= 0
    keep_rows = np.flatnonzero(keep)
    # per edge, in int32: the components of its ends (-1: unlabeled)
    comp = labeling.comp.astype(np.int32)
    out_degree = np.diff(graph.indptr)
    src_comp = np.repeat(comp, out_degree)
    dst_comp = comp[graph.indices]
    cycle = src_comp == dst_comp
    cycle &= dst_comp >= 0
    cross = src_comp >= 0
    cross &= dst_comp >= 0
    cross ^= cycle  # both ends labeled, in different components
    del src_comp, dst_comp
    # the kept vertices' new rows; monotone, so the edges stay sorted by (src, dst)
    new_row = np.cumsum(keep, dtype=np.int32)
    new_row -= 1
    src = np.repeat(new_row, out_degree)
    dst = new_row[graph.indices]
    cross_edges = np.empty((np.count_nonzero(cross), 2), dtype=np.int64)
    cross_edges[:, 0], cross_edges[:, 1] = src[cross], dst[cross]
    del cross
    return ChainGraph.from_pairs(
        src[cycle],
        dst[cycle],
        graph.vertex_ids[keep_rows],
        tree=graph.tree,
        delta=graph.delta,
        epsilon=graph.epsilon,
        epsilon_min=graph.epsilon_min,
        comp=labeling.comp[keep_rows],
        cross_edges=cross_edges,
    )


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
    points = [pt for orb in orbits for pt in orb.points]
    axes = np.array([gamma.tree.point_axis_values(pt) for pt in points], dtype=float)
    point, comp = components_at_points(gamma, axes.reshape(len(points), gamma.tree.naxes))
    entries = []
    separating = False
    first = 0
    for orb in orbits:
        last = first + len(orb.points)
        mine = (point >= first) & (point < last)
        comp_ids = set(comp[mine].tolist())
        covered = len(np.unique(point[mine])) == len(orb.points)
        first = last
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


def components_at_points(gamma: ChainGraph, axes: np.ndarray):
    """Distinct (point row, component id) pairs, sorted: each component
    of the recurrent model with a box containing the point.  ``axes``
    holds one row of real axis values per point."""
    point, lid = gamma.tree.meeting(axes, axes)
    row = np.searchsorted(gamma.vertex_ids, lid)
    member = row < gamma.n_vertices
    member[member] = gamma.vertex_ids[row[member]] == lid[member]
    radix = max(gamma.n_vertices, 1)  # component ids are below the vertex count
    pairs = np.unique(point[member] * radix + gamma.comp[row[member]])
    return pairs // radix, pairs % radix


def labeling_sizes(gamma: ChainGraph) -> tuple:
    return () if gamma.comp is None else tuple(np.bincount(gamma.comp).tolist())
