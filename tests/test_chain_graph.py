"""Chain graph tests: edge examples, the all-pairs oracle, SCC vs the
transitive-closure oracle, recurrent-model extraction, classification."""

import math
import random
import weakref

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from boxchain.ia import UsageError
from boxchain.errors import MemoryBudgetError
from boxchain.maps import MapModel, fixed_points
from boxchain import boxtree, chain_graph
from boxchain.boxtree import BoxTree, init_root, sink_basin_selector
from boxchain.pipeline import save_model
from boxchain.chain_graph import (
    build_edges,
    classify_components,
    recurrent_model,
    scc_decompose,
)
from support_graphs import all_pairs_edges, edge_rows, gamma_edges, graph_from_pairs, traced_peak
from support_trees import live_ids


def quad_c0(rp=2.0):
    return MapModel("quad_poly", c="0", r_prime=rp)


def per31():
    return MapModel("henon_complex", c="-1.17", a="0.3", r_prime=2.01)


def altper2():
    return MapModel("henon_complex", c="-1.1875", a="0.15", r_prime=1.9)


def cubicdouble():
    return MapModel("cubic_poly", c="-0.19,1.1", a="0,0.1", r_prime=2.1)


def realhorse():
    return MapModel("henon_real", c="-3", a="-0.25", r_prime=2.57)


def grown_tree(model, depth, prune=6):
    """A tree subdivided ``depth`` times, with ``prune`` escape checks
    after each subdivision (none when prune is 0)."""
    tree = init_root(model)
    for _ in range(depth):
        tree.subdivide(lambda lid: True)
        if prune:
            tree.prune_escaping(prune)
    return tree


def mixed_tree(model, depth):
    """grown_tree(model, depth), then a small subset subdivided twice, as
    two sink-basin steps do, each step pruned: three live depths, the
    deepest one sparse in its grid.  The subset is chosen by leaf id, so
    the tree is not closed under conjugation: it takes the full path."""
    tree = grown_tree(model, depth)
    old = max(live_ids(tree))
    tree.subdivide(lambda lid: lid % 8 == 0)
    tree.prune_escaping(6)
    tree.subdivide(lambda lid: lid > old and lid % 8 == 1)
    tree.prune_escaping(6)
    assert len(tree.depth_counts()) == 3
    return tree


def sink_tree(model, depth, steps=2):
    """grown_tree(model, depth), then ``steps`` pruned sink-basin
    subdivisions: mixed depths, closed under conjugation when the map
    commutes with it (the selector's point orbits are exact mirrors)."""
    tree = grown_tree(model, depth)
    for _ in range(steps):
        tree.subdivide(sink_basin_selector(tree))
        tree.prune_escaping(6)
    assert len(tree.depth_counts()) == steps + 1
    return tree


def root_tree(model, depth):
    return init_root(model)


def one_removed(model, depth):
    """sink_tree(model, depth) without its first leaf, whose mirror stays."""
    tree = sink_tree(model, depth)
    tree.remove_leaves(live_ids(tree)[:1])
    return tree


from support_graphs import graph_from_adjacency  # synthetic graphs


# ---------------------------------------------------------------------------
# build_edges examples
# ---------------------------------------------------------------------------


def test_root_only_self_edge():
    m = per31()
    tree = init_root(m)
    g = build_edges(tree, m, delta=1e-3)
    assert g.n_vertices == 1 and g.n_edges == 1
    assert g.has_edge(0, 0)


def test_fixed_point_leaf_has_self_edge_at_every_depth():
    m = quad_c0()
    tree = init_root(m)
    for _ in range(5):
        tree.subdivide(lambda lid: True)
        tree.prune_escaping(4)
        g = build_edges(tree, m, delta=tree.epsilon_min() / 1000.0)
        for lid in tree.leaves_containing_point((1.0, 0.0)):
            row = g.row_of_leaf(lid)
            assert g.has_edge(row, row)


@pytest.mark.parametrize(
    "make,depth,grow",
    [
        pytest.param(quad_c0, 4, grown_tree, id="quad_c0-4"),
        pytest.param(per31, 4, grown_tree, id="per31-4"),
        pytest.param(quad_c0, 4, mixed_tree, id="quad_c0-4-three_depths"),
        pytest.param(per31, 3, mixed_tree, id="per31-3-three_depths"),
        pytest.param(per31, 3, sink_tree, id="per31-3-mirrored"),
        pytest.param(quad_c0, 4, sink_tree, id="quad_c0-4-mirrored"),
        pytest.param(cubicdouble, 4, grown_tree, id="cubicdouble-4"),
        pytest.param(realhorse, 4, grown_tree, id="realhorse-4"),
        pytest.param(per31, 0, root_tree, id="per31-root"),
        pytest.param(per31, 3, one_removed, id="per31-3-one_removed"),
    ],
)
def test_edges_match_all_pairs_oracle(make, depth, grow):
    model = make()
    tree = grow(model, depth)
    delta = tree.epsilon_min() / 1000.0
    g = build_edges(tree, model, delta)
    src, dst = edge_rows(g)
    got = set(zip(src.tolist(), dst.tolist()))
    want = all_pairs_edges(tree, model, delta)
    assert got == want
    assert g.n_edges == len(want)  # no edge twice
    # edge-soundness spot check: absent pairs are genuinely disjoint
    assert all(pair in got for pair in want)


def mirror_rows(tree):
    """The row of each live leaf's mirror, from its address: cell i goes
    to 2^d - 1 - i on the conjugation axes."""
    table = tree.address_table(live_ids(tree))
    depth = table[:, :1]
    axes = 1 + np.array(tree.model.conjugation_axes)
    mirrored = table.copy()
    mirrored[:, axes] = (1 << depth) - 1 - table[:, axes]
    row = {tuple(r): k for k, r in enumerate(table.tolist())}
    return np.array([row[tuple(r)] for r in mirrored.tolist()])


def grow_recording(model, depth, steps):
    """sink_tree(model, depth, steps), and the keep mask of each prune."""
    tree = init_root(model)
    kept = []
    for step in range(depth + steps):
        tree.subdivide((lambda lid: True) if step < depth else sink_basin_selector(tree))
        before = live_ids(tree)
        tree.prune_escaping(6)
        kept.append(np.isin(before, live_ids(tree)))
    return tree, kept


@pytest.mark.parametrize(
    "make,depth,steps",
    [
        pytest.param(per31, 3, 2, id="per31"),
        pytest.param(altper2, 3, 2, id="altper2"),
        pytest.param(quad_c0, 5, 1, id="circle"),
    ],
)
def test_mirrored_build_and_prune_equal_the_full_ones(make, depth, steps, monkeypatch):
    model = make()
    built = []
    for full in (False, True):
        if full:  # every map takes the full path from here on
            monkeypatch.setattr(MapModel, "conjugation_axes", property(lambda self: ()))
        tree, kept = grow_recording(model, depth, steps)
        assert (tree.conjugate_rows()[1] is None) == full
        built.append((kept, build_edges(tree, model, tree.epsilon_min() / 1000.0)))
    (kept, half), (kept_full, whole) = built
    assert len(half.tree.depth_counts()) == steps + 1
    for a, b in zip(kept, kept_full, strict=True):
        np.testing.assert_array_equal(a, b)
    # the mirrored graph stores half of the edges, one entry per mirrored
    # row, and answers for all
    assert half.mirror is not None and whole.mirror is None
    assert 2 * len(half.indices) - half.n_vertices == half.n_edges == whole.n_edges
    for a, b in zip((half.vertex_ids, *edge_rows(half)), (whole.vertex_ids, *edge_rows(whole))):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize(
    "make,depth,steps",
    [
        pytest.param(altper2, 3, 2, id="altper2"),
        pytest.param(per31, 3, 2, id="per31"),
        pytest.param(quad_c0, 5, 1, id="circle"),
    ],
)
def test_mirrored_rows_hold_their_mirror_alone(make, depth, steps, monkeypatch):
    """Each mirrored row's span of the table is [mirror[row]]; the
    edges and counts read from the table, Γ's included, are the full
    graph's."""
    model = make()
    half = build_edges(sink_tree(model, depth, steps), model, 1e-3)
    monkeypatch.setattr(MapModel, "conjugation_axes", property(lambda self: ()))
    whole = build_edges(sink_tree(model, depth, steps), model, 1e-3)
    mirror = half.mirror
    assert mirror is not None and whole.mirror is None
    for row in np.flatnonzero(mirror < np.arange(half.n_vertices)):
        assert half.indices[half.indptr[row] : half.indptr[row + 1]].tolist() == [mirror[row]]
    assert half.n_edges == whole.n_edges
    for a, b in zip((half.vertex_ids, *edge_rows(half)), (whole.vertex_ids, *edge_rows(whole))):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    got, want = (recurrent_model(g, scc_decompose(g)) for g in (half, whole))
    assert (got.n_edges, got.n_cross_edges) == (want.n_edges, want.n_cross_edges)
    assert want.n_edges > 0


@pytest.mark.parametrize(
    "make,depth",
    [pytest.param(per31, 3, id="per31"), pytest.param(quad_c0, 4, id="circle")],
)
def test_edge_set_is_invariant_under_conjugation(make, depth, monkeypatch):
    model = make()
    tree = sink_tree(model, depth)

    def no_search(tree):
        raise AssertionError("the last prune's renumbered mirror table was not kept")

    monkeypatch.setattr(BoxTree, "_find_conjugates", no_search)
    mirror = mirror_rows(tree)
    rows, got = tree.conjugate_rows()
    np.testing.assert_array_equal(got, mirror)
    # one leaf of each mirrored pair, none its own mirror
    assert (mirror != np.arange(len(mirror))).all()
    assert sorted(np.concatenate([rows, mirror[rows]]).tolist()) == list(range(len(mirror)))
    g = build_edges(tree, model, tree.epsilon_min() / 1000.0)
    src, dst = edge_rows(g)
    edges = set(zip(src.tolist(), dst.tolist()))
    assert {(int(mirror[u]), int(mirror[v])) for u, v in edges} == edges


@pytest.mark.parametrize("make", [per31, altper2, quad_c0])
def test_mirror_table_is_carried_through_every_mutation(make, monkeypatch):
    """After each subdivision, prune and removal of a mirrored run, the
    mirror table the tree kept equals a fresh search; the search runs
    only on the first subdivided tree."""
    model = make()
    tree = init_root(model)
    searches = []
    search = BoxTree._find_conjugates

    def counting(tree):
        searches.append(tree.leaf_count)
        return search(tree)

    monkeypatch.setattr(BoxTree, "_find_conjugates", counting)

    def check():
        rows, mirror = tree.conjugate_rows()
        fresh_rows, fresh = search(tree)
        assert mirror is not None
        np.testing.assert_array_equal(rows, fresh_rows)
        np.testing.assert_array_equal(mirror, fresh)

    for step in range(5):
        tree.subdivide((lambda lid: True) if step < 3 else sink_basin_selector(tree))
        check()
        tree.prune_escaping(6)
        check()
        g = build_edges(tree, model, tree.epsilon_min() / 1000.0)
        tree.remove_leaves(g.vertex_ids[scc_decompose(g).comp < 0])
        check()
    assert len(tree.depth_counts()) > 1
    assert searches == [2 ** model.naxes]
    # a removal that is not closed under conjugation drops the table
    tree.remove_leaves(live_ids(tree)[:1])
    assert tree.conjugate_rows()[1] is None


@pytest.mark.parametrize(
    "make,depth,grow",
    [
        pytest.param(cubicdouble, 4, grown_tree, id="complex_parameters"),
        pytest.param(realhorse, 4, grown_tree, id="real_mode"),
        pytest.param(per31, 0, root_tree, id="root"),
        pytest.param(per31, 3, one_removed, id="one_leaf_removed"),
        pytest.param(per31, 3, mixed_tree, id="mixed_tree"),
    ],
)
def test_full_path_without_mirrored_leaves(make, depth, grow):
    tree = grow(make(), depth)
    rows, mirror = tree.conjugate_rows()
    assert mirror is None
    np.testing.assert_array_equal(rows, np.arange(tree.leaf_count))


@pytest.mark.parametrize(
    "make,depth,grow",
    [
        pytest.param(per31, 3, sink_tree, id="per31-mirrored"),
        pytest.param(altper2, 3, sink_tree, id="altper2-mirrored"),
        pytest.param(cubicdouble, 4, grown_tree, id="cubicdouble"),
        pytest.param(realhorse, 4, grown_tree, id="realhorse"),
        pytest.param(per31, 3, mixed_tree, id="per31-mixed_tree"),
    ],
)
def test_outputs_do_not_depend_on_the_piece_size(make, depth, grow, monkeypatch, tmp_path):
    """Prune keep masks, CSR arrays and model bytes are the same with the
    default pieces and with small ones (so every phase runs many pieces,
    the last one short)."""
    model = make()
    kept = []
    prune = BoxTree.prune_escaping

    def recording(tree, max_iter):
        before = live_ids(tree)
        dropped = prune(tree, max_iter)
        kept.append(np.isin(before, live_ids(tree)))
        return dropped

    monkeypatch.setattr(BoxTree, "prune_escaping", recording)
    runs = []
    for pieces in ((boxtree._PRUNE_PIECE, boxtree._LOOKUP_PIECE), (37, 53)):
        monkeypatch.setattr(boxtree, "_PRUNE_PIECE", pieces[0])
        monkeypatch.setattr(boxtree, "_LOOKUP_PIECE", pieces[1])
        kept.clear()
        tree = grow(model, depth)
        graph = build_edges(tree, model, tree.epsilon_min() / 1000.0)
        gamma = recurrent_model(graph, scc_decompose(graph))
        path = tmp_path / f"model-{len(runs)}.txt"
        save_model(str(path), model, gamma, include_edges=True)
        runs.append((list(kept), graph, path.read_bytes()))
    (kept0, graph0, bytes0), (kept1, graph1, bytes1) = runs
    assert graph0.n_edges and len(kept0) == depth + (2 if grow is not grown_tree else 0)
    assert len(kept1) == len(kept0)
    for a, b in zip(kept0, kept1):
        np.testing.assert_array_equal(a, b)
    for field in ("vertex_ids", "indptr", "indices"):
        a, b = getattr(graph0, field), getattr(graph1, field)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert bytes1 == bytes0


def test_edge_build_drops_each_piece_as_it_joins(monkeypatch):
    """The edge build copies each lookup piece into the graph's table and
    drops it, handing the memory back, before it copies the next: at each
    hand-back the pieces joined so far are gone and the others are held,
    so the pieces and the table are never both resident in full.  The
    graph shares the tree's id array, which a restriction replaces and
    leaves as it is."""
    model = quad_c0()
    tree = grown_tree(model, 5)
    monkeypatch.setattr(boxtree, "_LOOKUP_PIECE", 7)
    pieces = []
    lookup = BoxTree.lookup_pieces

    def recording(self, rows, image):
        for counts, dst in lookup(self, rows, image):
            pieces.append(weakref.ref(dst))
            yield counts, dst

    monkeypatch.setattr(BoxTree, "lookup_pieces", recording)
    gone = []
    monkeypatch.setattr(chain_graph, "give_back", lambda: gone.append([p() is None for p in pieces]))
    graph = build_edges(tree, model, tree.epsilon_min() / 1000.0)
    assert len(pieces) > 10 and gone
    for joined in gone:
        assert joined == sorted(joined, reverse=True), "a piece was dropped before an earlier one"
    counts = [sum(joined) for joined in gone]
    assert counts[-1] == len(pieces)
    assert all(0 <= b - a <= 1 for a, b in zip([0] + counts, counts)), counts

    ids = graph.vertex_ids
    assert ids is tree.leaf_ids
    before = ids.copy()
    tree.remove_leaves(ids[::2])
    assert tree.leaf_ids is not ids and np.array_equal(ids, before)


def test_edges_rows_sorted_and_unique():
    model = quad_c0()
    tree = grown_tree(model, 4)
    g = build_edges(tree, model, 1e-4)
    # each row's dst rows strictly ascending: the keys src * n + dst
    src, dst = edge_rows(g)
    assert (np.diff(src.astype(np.int64) * g.n_vertices + dst) > 0).all()


def test_edge_rows_and_from_pairs_invert_each_other():
    for adj in ([], [[]], [[1], [], [0, 1, 2]]):
        src, dst = edge_rows(graph_from_adjacency(adj))
        assert list(zip(src.tolist(), dst.tolist())) == [
            (u, v) for u, outs in enumerate(adj) for v in sorted(outs)
        ]
    model = quad_c0()
    built = build_edges(grown_tree(model, 4), model, 1e-4)
    again = graph_from_pairs(
        *edge_rows(built),
        built.vertex_ids,
        tree=built.tree,
        delta=built.delta,
        epsilon=built.epsilon,
        epsilon_min=built.epsilon_min,
    )
    # built stores the edges of one leaf of each mirrored pair, again all
    assert built.mirror is not None and again.n_edges == built.n_edges
    for a, b in zip((built.vertex_ids, *edge_rows(built)), (again.vertex_ids, *edge_rows(again))):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("delta", [math.nan, 0.0, -1e-3])
def test_delta_must_be_positive(delta):
    # a NaN delta would widen no image and leave a graph without edges
    model = per31()
    tree = grown_tree(model, 1)
    with pytest.raises(UsageError, match="delta must be positive"):
        build_edges(tree, model, delta)


def test_memory_budget_abort():
    model = per31()
    tree = grown_tree(model, 3)
    with pytest.raises(MemoryBudgetError, match=r"in the edge build at [1-9]\d* vertices"):
        build_edges(tree, model, 1e-3, mem_budget_mb=0.01)


def test_mixed_depth_lookup_expands_few_candidates_per_edge(monkeypatch):
    """The lookup reaches the deeper leaves through the occupied cells of
    the shallowest depth: at most 3 candidate cells per edge on a
    three-depth tree (a scan of the deeper grids needs about 14).  The
    candidates are searched in runs along the last axis: fewer searches
    than cells."""
    model = per31()
    tree = grown_tree(model, 4)
    for _ in range(2):
        tree.subdivide(sink_basin_selector(tree))
        tree.prune_escaping(6)
    assert len(tree.depth_counts()) == 3
    counts, searches, pairs = [], [], []
    expand, lookup = boxtree._expand, BoxTree.lookup

    def counting_expand(*args):
        for runs in expand(*args):
            item, key, n = runs
            assert len(item) == len(key) == len(n)
            counts.append(int(n.sum()))  # the cells the runs cover
            searches.append(len(key))
            yield runs

    def counting_lookup(self, lo, hi):
        for query, leaf in lookup(self, lo, hi):
            pairs.append(len(query))
            yield query, leaf

    monkeypatch.setattr(boxtree, "_expand", counting_expand)
    monkeypatch.setattr(BoxTree, "lookup", counting_lookup)
    g = build_edges(tree, model, tree.epsilon_min() / 1000.0)
    # the lookup yields the edges of one leaf of each mirrored pair
    assert 2 * sum(pairs) == g.n_edges
    assert sum(counts) <= 3 * sum(pairs), (sum(counts), sum(pairs))
    assert sum(searches) < sum(counts), (sum(searches), sum(counts))


# ---------------------------------------------------------------------------
# scc_decompose
# ---------------------------------------------------------------------------


def test_two_cycle_single_component():
    g = graph_from_adjacency([[1], [0]])
    lab = scc_decompose(g)
    assert len(lab.sizes) == 1 and lab.sizes == (2,)
    assert list(lab.comp) == [0, 0]


def test_isolated_vertex_without_self_edge_unlabeled():
    g = graph_from_adjacency([[1], [0], []])
    lab = scc_decompose(g)
    assert lab.comp[2] == -1
    g2 = graph_from_adjacency([[1], [0], [2]])
    lab2 = scc_decompose(g2)
    assert lab2.comp[2] >= 0


def _closure_partition(adj):
    n = len(adj)
    reach = [0] * n
    for u, outs in enumerate(adj):
        for v in outs:
            reach[u] |= 1 << v
    for k in range(n):
        bit = 1 << k
        rk = reach[k]
        for u in range(n):
            if reach[u] & bit:
                reach[u] |= rk
    labeled = [u for u in range(n) if reach[u] >> u & 1]
    comps = {}
    for u in labeled:
        key = frozenset(
            v for v in labeled if reach[u] >> v & 1 and reach[v] >> u & 1
        )
        comps[u] = key
    return set(comps.values()), {u: comps[u] for u in labeled}


def test_scc_matches_reachability_oracle_on_random_digraphs():
    rng = random.Random(60)
    for trial in range(200):
        n = rng.randint(1, 60)
        density = rng.uniform(0.01, 0.15)
        adj = [
            [v for v in range(n) if rng.random() < density] for _ in range(n)
        ]
        g = graph_from_adjacency(adj)
        lab = scc_decompose(g)
        want_parts, want_member = _closure_partition(adj)
        got_parts = {}
        for u in range(n):
            if lab.comp[u] >= 0:
                got_parts.setdefault(int(lab.comp[u]), set()).add(u)
        assert {frozenset(s) for s in got_parts.values()} == want_parts
        assert set(want_member) == {u for u in range(n) if lab.comp[u] >= 0}


def test_scc_partition_invariant_under_permutation():
    rng = random.Random(7)
    n = 40
    adj = [[v for v in range(n) if rng.random() < 0.08] for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    padj = [[] for _ in range(n)]
    for u, outs in enumerate(adj):
        for v in outs:
            padj[perm[u]].append(perm[v])
    lab = scc_decompose(graph_from_adjacency(adj))
    plab = scc_decompose(graph_from_adjacency(padj))

    def parts(l, mapping=None):
        out = {}
        for u in range(n):
            if l.comp[u] >= 0:
                key = int(l.comp[u])
                out.setdefault(key, set()).add(mapping[u] if mapping else u)
        return {frozenset(s) for s in out.values()}

    inv = [0] * n
    for u, p in enumerate(perm):
        inv[p] = u
    assert parts(lab) == parts(plab, mapping=inv)


def test_scc_sizes_canonical_order():
    g = graph_from_adjacency([[1], [0], [3], [4], [2], [5]])
    lab = scc_decompose(g)
    assert lab.sizes == (3, 2, 1)


def random_mirrored_adjacency(rng, half):
    """A random digraph on 2 * half vertices and a random pairing σ of
    them (``mirror``), closed under σ: each edge's mirror is an edge.
    Besides random edges it has self-loops k -> k, odd 2-cycles
    k -> σk -> k, and cycles C whose mirror σC is another cycle."""
    n = 2 * half
    perm = rng.permutation(n)
    mirror = np.empty(n, dtype=np.int64)
    mirror[perm[:half]], mirror[perm[half:]] = perm[half:], perm[:half]
    edges = set()

    def add(u, v):
        edges.update({(int(u), int(v)), (int(mirror[u]), int(mirror[v]))})

    for _ in range(int(rng.integers(0, 2 * n))):
        add(*rng.integers(n, size=2))
    for k in rng.integers(n, size=int(rng.integers(0, 3))):
        add(k, k)
    for k in rng.integers(n, size=int(rng.integers(0, 3))):
        add(k, mirror[k])
    for _ in range(int(rng.integers(0, 3))):
        cycle = rng.choice(n, size=min(n, int(rng.integers(2, 5))), replace=False)
        for u, v in zip(cycle, np.roll(cycle, -1)):
            add(u, v)
    adj = [[] for _ in range(n)]
    for u, v in sorted(edges):
        adj[u].append(v)
    return adj, mirror


def mirrored_twin(full, mirror):
    """``full`` stored as a mirrored graph: the out-edges of the rows
    below their mirror's row, one entry σk -> k out of each other row
    σk, and the mirror table."""
    src, dst = edge_rows(full)
    stored = src < mirror[src]
    sigma = np.flatnonzero(mirror < np.arange(len(mirror)))
    src = np.concatenate([src[stored], sigma])
    dst = np.concatenate([dst[stored], mirror[sigma]])
    order = np.lexsort((dst, src))
    return graph_from_pairs(
        src[order],
        dst[order],
        full.vertex_ids,
        tree=full.tree,
        delta=full.delta,
        epsilon=full.epsilon,
        epsilon_min=full.epsilon_min,
        mirror=mirror,
    )


def assert_same_labeling(got, want):
    assert got.comp.dtype == want.comp.dtype and np.array_equal(got.comp, want.comp)
    assert got.sizes == want.sizes


def invariant_components(labeling, mirror) -> np.ndarray:
    """Whether σ maps each component onto itself."""
    comp = labeling.comp
    return np.array([(comp[mirror[comp == c]] == c).all() for c in range(len(labeling.sizes))], dtype=bool)


def assert_lift_equals_scc(adj, mirror, rng):
    """The components lifted from the mirrored twin of the graph ``adj``
    equal the whole graph's strong components, labels and sizes; the
    twin answers every edge query as the whole graph does.  Returns the
    whole graph's labeling."""
    full = graph_from_adjacency(adj)
    half = mirrored_twin(full, mirror)
    n = full.n_vertices
    want = scc_decompose(full)
    assert_same_labeling(scc_decompose(half), want)
    assert half.n_edges == full.n_edges == 2 * len(half.indices) - n
    for a, b in zip(edge_rows(half), edge_rows(full)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    for u in range(n):  # one row at a time, as has_edge reads it
        one = np.array([u])
        assert np.array_equal(next(half.row_edge_blocks(one))[2], next(full.row_edge_blocks(one))[2])
    for u, v in rng.integers(n, size=(20, 2)):
        assert half.has_edge(u, v) == full.has_edge(u, v)
    return want


def test_lift_equals_scc_of_the_explicit_graph_on_random_mirrored_digraphs():
    """The lifted components equal the strong components of the whole
    graph on random σ-symmetric digraphs."""
    rng = np.random.default_rng(21)
    seen = {"odd": 0, "mirrored cycle": 0, "loop": 0, "odd 2-cycle": 0}
    for _ in range(300):
        adj, mirror = random_mirrored_adjacency(rng, int(rng.integers(1, 25)))
        want = assert_lift_equals_scc(adj, mirror, rng)
        invariant = invariant_components(want, mirror)
        seen["odd"] += np.count_nonzero(invariant)
        seen["mirrored cycle"] += np.count_nonzero(~invariant & (np.array(want.sizes) >= 2))
        seen["loop"] += sum(u in outs for u, outs in enumerate(adj))
        seen["odd 2-cycle"] += sum(int(mirror[u]) in outs for u, outs in enumerate(adj))
    assert min(seen.values()) > 50, seen


def test_lift_of_an_even_cycle_reached_first_from_outside():
    """Rows k and k + 5 are mirrors.  The self-looped row 0 reaches the
    even 4-cycle 1 -> 2 -> 3 -> 4 -> 1 through σ4 = 9, so a search that
    left row 0's component would label row 4 two levels before the
    cycle's own search from row 1 does, across one σ entry, and find
    the cycle odd."""
    mirror = (np.arange(10) + 5) % 10
    adj = [[] for _ in range(10)]
    for u, v in [(0, 0), (0, 9), (1, 2), (2, 3), (3, 4), (4, 1)]:
        adj[u].append(v)
        adj[mirror[u]].append(int(mirror[v]))
    want = assert_lift_equals_scc(adj, mirror, np.random.default_rng(0))
    assert want.sizes == (4, 4, 1, 1)


@pytest.mark.parametrize(
    "make,depth,steps",
    [
        pytest.param(altper2, 3, 2, id="altper2"),
        pytest.param(per31, 3, 2, id="per31"),
        pytest.param(per31, 4, 1, id="per31-4"),
        pytest.param(quad_c0, 5, 1, id="circle"),
    ],
)
def test_lift_equals_scc_of_the_explicit_graph_on_mirrored_trees(make, depth, steps):
    model = make()
    tree = sink_tree(model, depth, steps)
    half = build_edges(tree, model, tree.epsilon_min() / 1000.0)
    assert half.mirror is not None
    full = graph_from_pairs(
        *edge_rows(half),
        half.vertex_ids,
        tree=tree,
        delta=half.delta,
        epsilon=half.epsilon,
        epsilon_min=half.epsilon_min,
    )
    assert_same_labeling(scc_decompose(half), scc_decompose(full))


def test_lift_that_ignores_parity_is_caught(monkeypatch):
    """Mutant: every component of the quotient lifted as two mirrored
    components, odd closed walks or not.  Both lift tests must fail."""
    labelling = chain_graph._parity_labelling

    def ignoring_parity(*args):
        label, odd = labelling(*args)
        return label, np.zeros_like(odd)

    monkeypatch.setattr(chain_graph, "_parity_labelling", ignoring_parity)
    with pytest.raises(AssertionError):
        test_lift_equals_scc_of_the_explicit_graph_on_random_mirrored_digraphs()
    with pytest.raises(AssertionError):
        test_lift_equals_scc_of_the_explicit_graph_on_mirrored_trees(altper2, 3, 2)


def repeated_columns(mat) -> int:
    """How many entries of a CSR matrix repeat a column of their row."""
    src = np.repeat(np.arange(mat.shape[0], dtype=np.int64), np.diff(mat.indptr))
    return len(src) - len(np.unique(src * mat.shape[1] + mat.indices))


@pytest.mark.parametrize(
    "make,depth,steps",
    [
        pytest.param(altper2, 3, 2, id="altper2"),
        pytest.param(per31, 3, 2, id="per31"),
        pytest.param(quad_c0, 5, 1, id="circle"),
    ],
)
def test_strong_components_never_get_a_repeated_edge(make, depth, steps, monkeypatch):
    """scipy's strong components may not finish on a graph that repeats
    an edge (see ``_strong_components``).  A mirrored graph has rows
    with edges to both j and σj, which repeat [j] in its quotient by σ;
    no matrix that reaches scipy, the mirrored graph's own table among
    them, repeats a column within a row."""
    seen = []

    def checking(mat, *args, **kw):
        seen.append(repeated_columns(mat))
        return connected_components(mat, *args, **kw)

    monkeypatch.setattr(chain_graph, "connected_components", checking)
    model = make()
    tree = sink_tree(model, depth, steps)
    half = build_edges(tree, model, tree.epsilon_min() / 1000.0)
    src, dst = edge_rows(half)
    stored = src < half.mirror[src]
    edges = set(zip(src[stored].tolist(), dst[stored].tolist()))
    assert sum((u, int(half.mirror[v])) in edges for u, v in edges) > 0  # j and σj
    full = graph_from_pairs(
        src,
        dst,
        half.vertex_ids,
        tree=tree,
        delta=half.delta,
        epsilon=half.epsilon,
        epsilon_min=half.epsilon_min,
    )
    assert_same_labeling(scc_decompose(half), scc_decompose(full))
    assert seen == [0, 0]


# The traced bytes each phase may allocate per stored edge (table
# entry), above its inputs; "save" reads Γ's edge blocks and keeps
# none, as save_model does.  With the lookup's chunks and pieces and the
# row blocks made small, what is left grows with the edges: the graph
# itself (4 B per stored edge) and the pieces' edges joined into it
# (4 B) in the build.  The strong components read the graph's own table
# and hold per-vertex arrays: about 1.5 B per table entry on the
# mirrored per31 tree and 2.8 B on the cubic tree, with 10 edges per
# vertex; the images are made one lookup piece at a time.
_TRACED_BYTES_PER_EDGE = {"build": 12, "scc": 3, "restrict": 2, "save": 3}


@pytest.mark.parametrize(
    "grow,mirrored",
    [
        pytest.param(lambda: sink_tree(per31(), 4), True, id="per31-mirrored"),
        pytest.param(lambda: grown_tree(cubicdouble(), 8, prune=0), False, id="cubicdouble"),
    ],
)
def test_graph_phases_allocate_a_few_bytes_per_stored_edge(grow, mirrored, monkeypatch):
    monkeypatch.setattr(boxtree, "_CHUNK_CANDIDATES", 1 << 12)
    monkeypatch.setattr(boxtree, "_LOOKUP_PIECE", 1 << 8)
    monkeypatch.setattr(chain_graph, "_BLOCK_EDGES", 1 << 10, raising=False)
    imaged = []  # rows per widened_images call
    images = chain_graph.widened_images

    def recording(tree, model, delta, rows):
        imaged.append(len(rows))
        return images(tree, model, delta, rows)

    monkeypatch.setattr(chain_graph, "widened_images", recording)
    tree = grow()
    graph, build = traced_peak(build_edges, tree, tree.model, tree.epsilon_min() / 1000.0)
    stored = len(graph.indices)
    assert stored > 500_000 and (graph.mirror is not None) == mirrored
    assert sum(imaged) == len(tree.conjugate_rows()[0]), "every computed row is imaged once"
    assert max(imaged) <= boxtree._LOOKUP_PIECE, max(imaged)
    labeling, scc = traced_peak(scc_decompose, graph)
    gamma, restrict = traced_peak(recurrent_model, graph, labeling)

    def save():
        for _ in gamma.edge_blocks():
            pass

    _, saved = traced_peak(save)
    peaks = {"build": build, "scc": scc, "restrict": restrict, "save": saved}
    per_edge = {phase: peak / stored for phase, peak in peaks.items()}
    assert all(per_edge[p] <= bound for p, bound in _TRACED_BYTES_PER_EDGE.items()), per_edge


# ---------------------------------------------------------------------------
# recurrent_model
# ---------------------------------------------------------------------------


def test_chain_without_return_is_empty():
    g = graph_from_adjacency([[1], [2], []])
    gamma = recurrent_model(g, scc_decompose(g))
    assert gamma.n_vertices == 0 and gamma.n_edges == 0


def test_cycle_with_pendant():
    g = graph_from_adjacency([[1], [0], [0]])
    gamma = recurrent_model(g, scc_decompose(g))
    assert sorted(gamma.vertex_ids.tolist()) == [0, 1]
    assert gamma.n_edges == 2
    assert gamma.n_cross_edges == len(gamma_edges(gamma)[2]) == 0


def test_cross_component_edges_flagged_not_primary():
    # two 2-cycles bridged by an edge: bridge is kept but flagged
    g = graph_from_adjacency([[1], [0, 2], [3], [2]])
    gamma = recurrent_model(g, scc_decompose(g))
    assert gamma.n_vertices == 4
    assert gamma.n_edges == 4  # the two cycles only
    assert gamma.n_cross_edges == 1 and gamma_edges(gamma)[2].shape == (1, 2)


@pytest.mark.parametrize("seed", range(4))
def test_recurrent_model_matches_the_edge_loop_reference(seed):
    """Cycle and cross edges against a loop over the edges, on random
    graphs with several components and unlabeled vertices."""
    rng = random.Random(seed)
    n = 60
    near = [range(max(0, u - 4), min(n, u + 5)) for u in range(n)]
    adj = [sorted(rng.sample(near[u], rng.randint(0, 2))) for u in range(n)]
    g = graph_from_adjacency(adj)
    lab = scc_decompose(g)
    comp = lab.comp.tolist()
    assert len(lab.sizes) > 1 and -1 in comp
    new_row = {u: k for k, u in enumerate(u for u in range(n) if comp[u] >= 0)}
    cycle, cross = [], []
    for u, outs in enumerate(adj):
        for v in outs:
            if comp[u] >= 0 and comp[v] >= 0:
                (cycle if comp[u] == comp[v] else cross).append((new_row[u], new_row[v]))
    assert cycle and cross
    gamma = recurrent_model(g, lab)
    src, dst, got_cross = gamma_edges(gamma)
    assert list(zip(src.tolist(), dst.tolist())) == cycle
    assert [tuple(e) for e in got_cross.tolist()] == cross
    assert (gamma.n_edges, gamma.n_cross_edges) == (len(cycle), len(cross))
    assert gamma.comp.tolist() == [c for c in comp if c >= 0]
    assert gamma.vertex_ids.tolist() == sorted(new_row)


def test_recurrent_model_matches_cycle_oracle_on_map_graph():
    model = quad_c0()
    tree = grown_tree(model, 5)
    g = build_edges(tree, model, tree.epsilon_min() / 1000.0)
    adj = [[] for _ in range(g.n_vertices)]
    for u, v in zip(*(part.tolist() for part in edge_rows(g))):
        adj[u].append(v)
    _, want_member = _closure_partition(adj)
    lab = scc_decompose(g)
    gamma = recurrent_model(g, lab)
    got_rows = {int(g.row_of_leaf(int(v))) for v in gamma.vertex_ids}
    assert got_rows == set(want_member)


@pytest.mark.parametrize("depth", [3, 4, 5])
@pytest.mark.parametrize(
    "model",
    [quad_c0(), MapModel("cubic_poly", c="-0.19,1.1", a="0,0.1", r_prime=2.1)],
    ids=["quad", "cubic"],
)
def test_escape_pruning_only_shrinks_gamma_of_1d_maps(model, depth):
    # the pipeline runs no escape pruning for 1-D maps: on the same boxes
    # and delta, gamma with pruning is a subset of gamma without it,
    # because the pruned graph is the subgraph induced by the kept boxes
    gamma_ids = []
    for prune in (False, True):
        tree = grown_tree(model, depth, prune=0)
        if prune:
            assert tree.prune_escaping(6) > 0
        g = build_edges(tree, model, tree.epsilon_min() / 1000.0)
        gamma_ids.append(set(recurrent_model(g, scc_decompose(g)).vertex_ids.tolist()))
    unpruned, pruned = gamma_ids
    assert pruned <= unpruned


def test_recurrent_model_leaves_tree_unchanged():
    model = quad_c0()
    tree = grown_tree(model, 4)
    g = build_edges(tree, model, tree.epsilon_min() / 1000.0)
    before = tree.address_table(live_ids(tree))
    gamma = recurrent_model(g, scc_decompose(g))
    assert gamma.n_vertices < tree.leaf_count
    np.testing.assert_array_equal(tree.address_table(live_ids(tree)), before)
    np.testing.assert_array_equal(live_ids(tree), g.vertex_ids)


# ---------------------------------------------------------------------------
# classify_components
# ---------------------------------------------------------------------------


def test_classify_single_component_not_separating():
    model = quad_c0()
    tree = grown_tree(model, 2)
    g = build_edges(tree, model, tree.epsilon_min() / 1000.0)
    gamma = recurrent_model(g, scc_decompose(g))
    rep = classify_components(gamma, model)
    assert rep.n_components >= 1
    if rep.n_components == 1:
        assert not rep.separating


def test_classify_one_dim_superattracting_separates_at_depth():
    model = quad_c0()
    tree = grown_tree(model, 5)
    g = build_edges(tree, model, tree.epsilon_min() / 1000.0)
    gamma = recurrent_model(g, scc_decompose(g))
    rep = classify_components(gamma, model)
    # the superattracting fixed point at 0 sits far from the circle
    assert rep.n_components >= 2
    assert rep.separating
    sink_entries = [s for s in rep.sinks if s.period == 1]
    assert sink_entries and sink_entries[0].covered
    assert rep.j_candidate not in sink_entries[0].component_ids


def test_fixed_point_coverage_in_recurrent_model():
    model = per31()
    tree = grown_tree(model, 3)
    g = build_edges(tree, model, tree.epsilon_min() / 1000.0)
    gamma = recurrent_model(g, scc_decompose(g))
    id_set = set(int(v) for v in gamma.vertex_ids)
    for fp in fixed_points(model):
        vals = tree.model.point_axes(fp.location)
        leaves = tree.leaves_containing_point(vals)
        assert any(l in id_set for l in leaves), fp
