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
a single-depth tree.  Each stage searches the cells in runs along the
last axis, one binary search per run.  This is checked against the
all-pairs oracle in the tests, on single- and three-depth trees.
Classification uses the same lookup on the sink orbit points.  The
edge build images the leaves and looks them up in pieces of consecutive
rows (``BoxTree.lookup_pieces``), one after another: a piece is imaged
just before its lookup, so only one piece's images are held at a time.
Each piece sorts its own edges and returns a count per image and the
dst rows (int32); the pieces come in order, so the graph is their
join, with no key array and no sort of the whole graph, and its order
does not depend on the pieces.  The graph's vertex ids are the tree's
id array itself (``BoxTree.leaf_ids``), not a copy.

When the live leaves pair up under complex conjugation σ
(``BoxTree.conjugate_rows``: a map with real coefficients on C or C^2),
only one leaf of each pair, the one in the smaller row, is imaged and
looked up.  The grid is σ-symmetric and the interval images commute
with σ bit for bit, so k -> j is an edge iff σk -> σj is.  The graph
stores only the computed rows' out-edges, sorted by (src, dst), with
the mirror table; it answers for the whole graph Υ through σ
(``n_edges``, ``has_edge``, ``out_neighbors``, ``edge_rows``).

The strong components of a mirrored graph come from its quotient Q by
σ.  A vertex of Q is a pair {k, σk}; each stored edge k -> j gives the
edge [k] -> [j] with a parity bit, set when j is a mirrored row.  A
vertex lies on a cycle of Υ iff its pair lies on a cycle of Q, and a
strong component S of Q lifts to one σ-invariant component of 2|S|
boxes when some closed walk in S has odd parity, else to two mirrored
components of |S| boxes each (the covering graph of a Z/2 voltage
graph).  The parity is read off a labelling: a breadth-first search
from a virtual root joined to each component's smallest pair gives
every pair the parity of its tree path, and S is odd iff one of its
edges breaks that labelling.  A row with edges to both j and σj gives
[j] twice, once of each parity: the two are merged in place (scipy's
``sum_duplicates`` on int8 codes, 1 even, 2 odd, 3 both), since scipy's
strong components must not get a repeated edge, and an edge of code 3
within a component closes an odd walk.

Beyond the stored graph, the edge build holds the pieces' edges, one
int32 per stored edge, until the last piece is in.  The join then
copies each piece into the graph's table and drops it, handing its
memory back (``give_back``), so the pieces left and the part of the
table written so far are resident, not both in full: about one int32
per stored edge in all.  (tracemalloc counts the table in full when it
is allocated and traces two.)  The strong components hold five bytes
per stored edge (the quotient's dst pairs and codes); every other pass
over the edges (self-edges, the parity labelling, the restriction's
counts and tables) holds the temporaries of a block of rows.

SCC labeling is delegated to scipy's compiled strong-components routine
(a standard algorithm, not part of this package's contribution) and is
canonicalized to (size desc, min vertex asc) order so labels are
deterministic; graphs with ~10^6 vertices stay well within memory.

The recurrent model Γ (``RecurrentModel``) is the graph it restricts
with the component of each of its rows: it counts its cycle and cross
edges when it is made and has no edge tables of its own.  Its edges are
read a block of rows at a time, filtered from the graph's
(``RecurrentModel.edge_blocks``); a loaded model is the same, on the
graph of its own edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .errors import check_memory_budget, give_back
from .ia import UsageError, _down_arr, _up_arr
from .maps import MapModel, batch_forward, sink_orbits
from .boxtree import BoxTree

_BLOCK_EDGES = 1 << 16  # edges per block of rows in the passes over every edge

__all__ = [
    "ChainGraph",
    "RecurrentModel",
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
    """Directed graph on live leaf boxes (CSR out-adjacency).

    With ``mirror`` (the row of each vertex's mirror under σ), the CSR
    holds only the out-edges of the rows below their mirror's row; the
    other rows' edges are their mirrors (see the module docstring)."""

    tree: BoxTree
    vertex_ids: np.ndarray  # leaf ids, ascending
    indptr: np.ndarray
    indices: np.ndarray  # vertex rows, ascending within each row
    delta: float
    epsilon: float
    epsilon_min: float
    mirror: Optional[np.ndarray] = None

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_ids)

    @property
    def n_edges(self) -> int:
        return len(self.indices) * (1 if self.mirror is None else 2)

    def _mirrored(self, row: int) -> bool:
        """Whether ``row``'s out-edges are the mirrors of stored ones."""
        return self.mirror is not None and self.mirror[row] < row

    def edge_rows(self):
        """(src, dst) vertex rows of every edge, in CSR order (int32)."""
        blocks = list(self.edge_blocks(np.arange(self.n_vertices)))
        if not blocks:
            return np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32)
        return tuple(np.concatenate(part) for part in zip(*blocks))

    def edge_blocks(self, rows):
        """Yield (src, dst) vertex rows (int32) of the edges out of
        ``rows`` (ascending), in (src, dst) order, a block of rows at a
        time; a mirrored row's edges are the mirrors of stored ones."""
        for src, lens, dst in self.row_edge_blocks(rows):
            yield np.repeat(src.astype(np.int32), lens), dst

    def row_edge_blocks(self, rows):
        """``edge_blocks`` with the sources once per row: yield (src, lens,
        dst) per block, the block's rows, how many edges leave each, and
        the dst rows (int32) of those edges in (src, dst) order."""
        indptr, indices, mirror = self.indptr, self.indices, self.mirror
        stored = rows if mirror is None else np.minimum(rows, mirror[rows])
        counts = indptr[stored + 1] - indptr[stored]
        for start, stop in _blocks(np.cumsum(counts)):
            lens = counts[start:stop]
            total = int(lens.sum())
            # the positions of the stored edges, row after row
            at = np.repeat(indptr[stored[start:stop]] - (np.cumsum(lens) - lens), lens)
            at += np.arange(total)
            dst = indices[at]
            del at
            src = rows[start:stop]
            if mirror is not None:
                flip = np.repeat(stored[start:stop] < src, lens)
                dst[flip] = mirror[dst[flip]]
                # σ does not keep the order of a row: sort those rows again
                key = np.repeat(src.astype(np.int64) << 32, lens)
                key |= dst
                key.sort()
                key &= 0xFFFFFFFF
                dst = key.astype(np.int32)
            yield src, lens, dst

    def out_neighbors(self, row: int) -> np.ndarray:
        if self._mirrored(row):
            mirrored = self.mirror[self.out_neighbors(self.mirror[row])]
            return np.sort(mirrored).astype(self.indices.dtype)
        return self.indices[self.indptr[row] : self.indptr[row + 1]]

    def has_edge(self, src_row: int, dst_row: int) -> bool:
        if self._mirrored(src_row):
            src_row, dst_row = self.mirror[src_row], self.mirror[dst_row]
        nb = self.out_neighbors(src_row)
        k = np.searchsorted(nb, dst_row)
        return k < len(nb) and nb[k] == dst_row

    def row_of_leaf(self, leaf_id: int) -> int:
        k = int(np.searchsorted(self.vertex_ids, leaf_id))
        if k >= len(self.vertex_ids) or self.vertex_ids[k] != leaf_id:
            raise UsageError(f"leaf {leaf_id} is not a graph vertex")
        return k


def _csr(keys, n: int):
    """(indptr, indices) of the edges src -> dst on n vertices, given
    as their int64 keys src * n + dst, sorted.  The keys are reduced to
    dst in place, so the CSR costs one int32 per edge beyond them."""
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    np.remainder(keys, max(n, 1), out=keys)
    return indptr, keys.astype(np.int32)


def widened_images(tree: BoxTree, model: MapModel, delta: float, rows):
    """Bulk widened interval images: bounds of N_delta(F(B)) of the live
    leaves at ``rows``.

    Returns (wlo, whi), one row per entry of ``rows``; the same arrays
    drive build_edges and the all-pairs test oracle.
    """
    if not delta > 0.0:  # also rejects NaN
        raise UsageError(f"delta must be positive, got {delta!r}")
    flo, fhi = batch_forward(model, *tree.leaf_bounds(rows))
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

    The leaves are imaged and looked up in pieces of consecutive rows
    (``BoxTree.lookup_pieces``), each piece imaged just before its
    lookup; each piece returns its edges sorted, as a count per image
    and the dst rows (int32), so the build only joins them: no key array
    and no sort of the whole graph.  Once the last piece is in, the
    int32 table of all the edges is allocated, and each piece is copied
    into it, dropped and handed back (``give_back``) before the next, so
    the pieces and the table are never both resident in full.  The
    graph's vertex ids are ``tree.leaf_ids`` itself, which the tree
    replaces, never writes, when its leaves change.  On a mirrored tree
    the graph stores the edges of one leaf of each pair (see the module
    docstring).  Checks the process's peak RSS against
    ``mem_budget_mb`` on entry and after each lookup piece it consumes
    (``check_memory_budget``).
    """
    if tree.leaf_count < 1:
        raise UsageError("tree has no live leaves")
    n = tree.leaf_count

    def check(edges: int) -> None:
        check_memory_budget(mem_budget_mb, f"in the edge build at {n} vertices, >= {edges} edges")

    check(0)
    # k -> j is an edge iff its mirror is: image and look up one of each
    # pair, and store only those rows' edges
    rows, mirror = tree.conjugate_rows()
    indptr = np.zeros(n + 1, dtype=np.int64)
    parts = []  # each piece's dst rows, in (src, dst) order
    done = stored = 0
    pieces = tree.lookup_pieces(rows, lambda piece: widened_images(tree, model, delta, piece))
    for counts, dst in pieces:
        # the lookup numbers the imaged rows 0, 1, ...: without a mirror,
        # those are all the rows, in order
        indptr[1 + rows[done : done + len(counts)]] = counts
        done += len(counts)
        stored += len(dst)
        parts.append(dst)
        del dst  # the join drops each piece: hold it nowhere else
        check(stored * (1 if mirror is None else 2))
    # handing back after every piece, not every second one, kept
    # cubic11's peak 0.5-2.5 MB lower, for about 0.1 ms a call
    indices = np.empty(stored, dtype=np.int32)
    at = 0
    for k in range(len(parts)):
        part, parts[k] = parts[k], None
        indices[at : at + len(part)] = part
        at += len(part)
        del part
        give_back()
    np.cumsum(indptr, out=indptr)
    return ChainGraph(
        tree=tree,
        vertex_ids=tree.leaf_ids,
        indptr=indptr,
        indices=indices,
        delta=float(delta),
        epsilon=tree.epsilon(),
        epsilon_min=tree.epsilon_min(),
        mirror=mirror,
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
    is unlabeled (-1).  Deterministic for a given graph.  A mirrored
    graph's components are lifted from those of its quotient by σ.
    """
    n = graph.n_vertices
    if n == 0:
        return SccLabeling(comp=np.empty(0, dtype=np.int64), sizes=())
    if graph.mirror is not None:
        return _canonical(_lifted_components(graph))
    raw, kept = _strong_components(graph.indptr, graph.indices, n)
    return _canonical(np.where(kept[raw], raw, -1))


def _strong_components(indptr, indices, n: int):
    """(component per vertex, whether each component lies on a cycle:
    two vertices or more, or a self-edge) of a CSR graph, by scipy.

    The graph must not repeat an edge.  scipy's strong components take
    float64 weights as they are, unread, with no copy of the graph, but
    then do not merge repeated edges, and on small random digraphs with
    one repeated edge they did not finish within a minute (scipy
    1.17.1); rows with unsorted columns and no repeats gave the right
    components.  Other weight types cost a float64 copy of the graph
    and a sort of every row."""
    weights = np.broadcast_to(1.0, len(indices))
    mat = csr_matrix((weights, indices, indptr), shape=(n, n))
    _, raw = connected_components(mat, directed=True, connection="strong")
    del mat
    kept = np.bincount(raw) >= 2
    for edges, src in _row_blocks(indptr):
        dst = indices[edges]
        kept[raw[src[src == dst]]] = True
    return raw, kept


def _blocks(ends):
    """Yield (start, stop): runs of consecutive items with about
    _BLOCK_EDGES edges in all (at least one item), ``ends`` the running
    total of the items' edge counts."""
    total = int(ends[-1]) if len(ends) else 0
    marks = np.arange(_BLOCK_EDGES, total, _BLOCK_EDGES, dtype=np.int64)
    cuts = np.searchsorted(ends, marks, side="right")
    bounds = np.unique(np.concatenate([[0], cuts, [len(ends)]])).tolist()
    yield from zip(bounds[:-1], bounds[1:])


def _row_blocks(indptr):
    """Yield (edge slice, source row of each of its edges (int32)) for
    blocks of consecutive rows of a CSR table: the passes over every
    edge hold a block's temporaries, not the whole graph's."""
    for start, stop in _blocks(indptr[1:]):
        counts = np.diff(indptr[start : stop + 1])
        src = np.repeat(np.arange(start, stop, dtype=np.int32), counts)
        yield slice(int(indptr[start]), int(indptr[stop])), src


def _lifted_components(graph: ChainGraph) -> np.ndarray:
    """Raw component ids per vertex (-1: on no cycle) of a mirrored
    graph, from the strong components of its quotient by σ and the
    parity of their closed walks (see the module docstring)."""
    n, mirror = graph.n_vertices, graph.mirror
    computed = np.arange(n) < mirror  # the rows whose edges are stored
    rows = np.flatnonzero(computed)
    m = len(rows)  # quotient vertex p is the pair {rows[p], mirror[rows[p]]}
    pair = np.cumsum(computed, dtype=np.int32) - 1
    pair = pair[np.minimum(np.arange(n), mirror)]
    # per stored edge k -> j, the quotient edge [k] -> [j] with its code:
    # 1 when j is a computed row (even), 2 when it is mirrored (odd);
    # dst keeps room for the edges the parity search adds
    # (indexing, not np.take, which copies int32 indices to int64)
    nnz = len(graph.indices)
    dst = np.empty(nnz + m, dtype=np.int32)
    for start in range(0, nnz, _BLOCK_EDGES):
        part = graph.indices[start : start + _BLOCK_EDGES]
        dst[start : start + len(part)] = pair[part]
    code = np.where(computed, 1, 2).astype(np.int8)[graph.indices]
    # the rows between the computed ones store no edges
    indptr = np.append(graph.indptr[rows], graph.indptr[-1])
    # a row with edges to both j and σj repeats [j]: scipy sorts the rows
    # and adds the codes in place, so that edge gets code 3
    quotient = csr_matrix((code, dst[:nnz], indptr), shape=(m, m))
    quotient.sum_duplicates()
    indptr, code = quotient.indptr, quotient.data
    if not np.shares_memory(quotient.indices, dst):  # scipy copied a short array
        dst[: quotient.nnz] = quotient.indices
    del quotient
    raw, kept = _strong_components(indptr, dst[: len(code)], m)
    label, odd_comp = _parity_labelling(indptr, dst, code, raw, kept)
    # lift: an even component's vertex (p, side) lies in its sheet
    # side ^ label[p]; an odd component is one σ-invariant component
    comp = raw[pair].astype(np.int64)
    sheet = ~computed ^ label[pair]
    sheet[odd_comp[comp]] = False
    lifted = 2 * comp + sheet
    lifted[~kept[comp]] = -1
    return lifted


def _parity_labelling(indptr, dst, code, raw, kept):
    """(label per vertex, odd per component) of the quotient graph with
    the CSR table (``indptr``, ``dst``) and edge codes ``code`` (1 even,
    2 odd, 3 both); ``raw`` is the component of each vertex and ``kept``
    whether a component lies on a cycle.  A vertex's label is the
    parity of its path on a breadth-first tree of the edges within its
    component from the component's smallest vertex; a component is odd
    when one of its edges breaks the labels or has code 3.

    ``dst`` is overwritten: its edges that leave their component lead
    to a dead end, and the edges of a virtual root follow the others
    (it holds at least ``len(raw)`` entries beyond the edges)."""
    m, nnz = len(raw), len(code)
    dead_end = m + 1
    odd_comp = np.zeros(len(kept), dtype=bool)
    for edges, src in _row_blocks(indptr):
        to = dst[edges]
        comp = raw[src]
        inner = comp == raw[to]  # both ends in one component, a kept one
        # an edge to both j and σj within a component closes an odd walk
        odd_comp[comp[inner & (code[edges] == 3)]] = True
        to[~inner] = dead_end
    # the tree grows from a virtual root m joined to each component's
    # smallest vertex
    starts = np.unique(raw, return_index=True)[1][kept]
    end = nnz + len(starts)
    dst[nnz:end] = starts
    tree_ptr = np.append(indptr, [end, end])
    # scipy takes float64 weights as they are, unread, with no copy
    weights = np.broadcast_to(1.0, end)
    bfs = csr_matrix((weights, dst[:end], tree_ptr), shape=(m + 2, m + 2))
    _, up = breadth_first_order(bfs, m, directed=True, return_predecessors=True)
    del bfs
    # each tree edge gives its own parity (a code-3 edge either: its
    # component is odd whatever the labels), and pointer doubling sums
    # them up to the root
    label = np.zeros(m + 2, dtype=bool)
    for edges, src in _row_blocks(indptr):
        to = dst[edges]
        on_tree = up[to] == src
        label[to[on_tree]] = code[edges][on_tree] == 2
    up[up < 0] = m  # the root, the dead end and the vertices outside every kept component
    while (up != m).any():
        label ^= label[up]
        up = up[up]
    for edges, src in _row_blocks(indptr):
        to = dst[edges]
        broken = label[src] ^ label[to]
        broken ^= code[edges] == 2
        broken &= to != dead_end
        odd_comp[raw[src[broken]]] = True
    return label[:m], odd_comp


def _canonical(raw: np.ndarray) -> SccLabeling:
    """The labeling of the raw component ids per vertex (-1: none), in
    canonical order: size descending, then smallest member row."""
    labeled = np.flatnonzero(raw >= 0)
    ids, first, counts = np.unique(raw[labeled], return_index=True, return_counts=True)
    order = np.lexsort((first, -counts))
    lookup = np.full(int(ids[-1]) + 1 if len(ids) else 0, -1, dtype=np.int64)
    lookup[ids[order]] = np.arange(len(ids))
    comp = np.full(len(raw), -1, dtype=np.int64)
    comp[labeled] = lookup[raw[labeled]]
    return SccLabeling(comp=comp, sizes=tuple(counts[order].tolist()))


@dataclass(frozen=True)
class RecurrentModel:
    """The recurrent model Γ: the vertices of ``graph`` that ``labels``
    puts in a component, with the cycle edges (within a component) and
    the flagged cross edges (between two) among them.  Its rows are the
    labelled rows of ``graph``, in order; ``n_edges`` and
    ``n_cross_edges`` count its edges."""

    graph: ChainGraph
    labels: np.ndarray  # component of each graph row, -1 off Γ
    vertex_ids: np.ndarray  # leaf ids, ascending
    comp: np.ndarray  # component of each row
    n_edges: int
    n_cross_edges: int

    tree = property(lambda self: self.graph.tree)
    delta = property(lambda self: self.graph.delta)
    epsilon = property(lambda self: self.graph.epsilon)
    epsilon_min = property(lambda self: self.graph.epsilon_min)

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_ids)

    def edge_blocks(self):
        """Yield (src, dst, cross) per block of the graph's edges out of
        Γ's vertices: the rows of the cycle edges (int32, in (src, dst)
        order) and the cross edges [k, 2] among them, in (src, dst)
        order."""
        labels = self.labels
        keep = labels >= 0
        # Γ's rows of the kept vertices; monotone, so (src, dst) order stays
        new_row = np.cumsum(keep, dtype=np.int32)
        new_row -= 1
        for src, lens, dst in self.graph.row_edge_blocks(np.flatnonzero(keep)):
            dst_comp = labels.take(dst)
            cycle = np.repeat(labels.take(src), lens) == dst_comp
            cross = dst_comp >= 0
            cross ^= cycle  # the sources are kept: dst kept, in another component
            src, dst = np.repeat(new_row.take(src), lens), new_row.take(dst)
            yield src[cycle], dst[cycle], np.column_stack([src[cross], dst[cross]])


def recurrent_model(graph: ChainGraph, labeling: SccLabeling) -> RecurrentModel:
    """Restrict to the labeled vertices: the union of the SCCs.

    Primary edges are the cycle edges (within a component); edges
    between distinct labeled components are cross edges, flagged.  Both
    are counted here and read from ``graph`` (``RecurrentModel.edge_blocks``).
    The tree is left as it is.
    """
    labels = labeling.comp
    n_cycle = n_both = 0  # stored edges within a component; between kept vertices
    for edges, src in _row_blocks(graph.indptr):
        src_comp, dst_comp = labels[src], labels[graph.indices[edges]]
        both = src_comp >= 0
        both &= dst_comp >= 0
        n_both += int(np.count_nonzero(both))
        both &= src_comp == dst_comp
        n_cycle += int(np.count_nonzero(both))
    per_stored = 1 if graph.mirror is None else 2  # each stored edge and its mirror
    keep_rows = np.flatnonzero(labels >= 0)
    return RecurrentModel(
        graph=graph,
        labels=labels,
        vertex_ids=graph.vertex_ids[keep_rows],
        comp=labels[keep_rows],
        n_edges=per_stored * n_cycle,
        n_cross_edges=per_stored * (n_both - n_cycle),
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
    gamma: RecurrentModel,
    model: MapModel,
    orbits=None,
) -> ComponentReport:
    """Mark the largest component as the J candidate, locate sink orbits,
    and report whether the model separates a sink from it."""
    sizes = labeling_sizes(gamma)
    j_id = 0 if len(sizes) else -1
    if orbits is None:
        orbits = sink_orbits(model)
    points = [pt for orb in orbits for pt in orb.points]
    axes = np.array([model.point_axes(pt) for pt in points], dtype=float)
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


def components_at_points(gamma: RecurrentModel, axes: np.ndarray):
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


def labeling_sizes(gamma: RecurrentModel) -> tuple:
    return tuple(np.bincount(gamma.comp).tolist())
