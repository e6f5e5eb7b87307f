"""Chain graph tests: edge examples, the all-pairs oracle, SCC vs the
transitive-closure oracle, recurrent-model extraction, classification."""

import math
import random

import numpy as np
import pytest

from boxchain.ia import UsageError
from boxchain.errors import MemoryBudgetError
from boxchain.maps import MapModel, fixed_points
from boxchain import boxtree
from boxchain.boxtree import BoxTree, init_root, sink_basin_selector
from boxchain.chain_graph import (
    ChainGraph,
    build_edges,
    classify_components,
    recurrent_model,
    scc_decompose,
)
from support_graphs import all_pairs_edges
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
    got = {
        (u, int(v))
        for u in range(g.n_vertices)
        for v in g.out_neighbors(u)
    }
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
    for field in ("vertex_ids", "indptr", "indices"):
        a, b = getattr(half, field), getattr(whole, field)
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize(
    "make,depth",
    [pytest.param(per31, 3, id="per31"), pytest.param(quad_c0, 4, id="circle")],
)
def test_edge_set_is_invariant_under_conjugation(make, depth):
    model = make()
    tree = sink_tree(model, depth)
    mirror = mirror_rows(tree)
    rows, got = tree.conjugate_rows()
    np.testing.assert_array_equal(got, mirror)
    # one leaf of each mirrored pair, none its own mirror
    assert (mirror != np.arange(len(mirror))).all()
    assert sorted(np.concatenate([rows, mirror[rows]]).tolist()) == list(range(len(mirror)))
    g = build_edges(tree, model, tree.epsilon_min() / 1000.0)
    src, dst = g.edge_rows()
    edges = set(zip(src.tolist(), dst.tolist()))
    assert {(int(mirror[u]), int(mirror[v])) for u, v in edges} == edges


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


def test_edges_rows_sorted_and_unique():
    model = quad_c0()
    tree = grown_tree(model, 4)
    g = build_edges(tree, model, 1e-4)
    for u in range(g.n_vertices):
        nb = g.out_neighbors(u)
        assert (np.diff(nb) > 0).all()


def test_edge_rows_and_from_pairs_invert_each_other():
    for adj in ([], [[]], [[1], [], [0, 1, 2]]):
        src, dst = graph_from_adjacency(adj).edge_rows()
        assert list(zip(src.tolist(), dst.tolist())) == [
            (u, v) for u, outs in enumerate(adj) for v in sorted(outs)
        ]
    model = quad_c0()
    built = build_edges(grown_tree(model, 4), model, 1e-4)
    again = ChainGraph.from_pairs(
        *built.edge_rows(),
        built.vertex_ids,
        tree=built.tree,
        delta=built.delta,
        epsilon=built.epsilon,
        epsilon_min=built.epsilon_min,
    )
    for field in ("indptr", "indices", "vertex_ids"):
        a, b = getattr(built, field), getattr(again, field)
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
    with pytest.raises(MemoryBudgetError) as ei:
        build_edges(tree, model, 1e-3, mem_budget_mb=0.01)
    assert ei.value.vertices > 0


def test_mixed_depth_lookup_expands_few_candidates_per_edge(monkeypatch):
    """The lookup reaches the deeper leaves through the occupied cells of
    the shallowest depth: at most 3 candidate cells per edge on a
    three-depth tree (a scan of the deeper grids needs about 14)."""
    model = per31()
    tree = grown_tree(model, 4)
    for _ in range(2):
        tree.subdivide(sink_basin_selector(tree))
        tree.prune_escaping(6)
    assert len(tree.depth_counts()) == 3
    counts, pairs = [], []
    cells, lookup = boxtree._cells, BoxTree.lookup

    def counting_cells(*args):
        item, key = cells(*args)
        counts.append(len(key))
        return item, key

    def counting_lookup(self, lo, hi):
        for query, leaf in lookup(self, lo, hi):
            pairs.append(len(query))
            yield query, leaf

    monkeypatch.setattr(boxtree, "_cells", counting_cells)
    monkeypatch.setattr(BoxTree, "lookup", counting_lookup)
    g = build_edges(tree, model, tree.epsilon_min() / 1000.0)
    # the lookup yields the edges of one leaf of each mirrored pair
    assert 2 * sum(pairs) == g.n_edges
    assert sum(counts) <= 3 * sum(pairs), (sum(counts), sum(pairs))


# ---------------------------------------------------------------------------
# scc_decompose
# ---------------------------------------------------------------------------


def test_two_cycle_single_component():
    g = graph_from_adjacency([[1], [0]])
    lab = scc_decompose(g)
    assert lab.n_components == 1 and lab.sizes == (2,)
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
    assert len(gamma.cross_edges) == 0


def test_cross_component_edges_flagged_not_primary():
    # two 2-cycles bridged by an edge: bridge is kept but flagged
    g = graph_from_adjacency([[1], [0, 2], [3], [2]])
    gamma = recurrent_model(g, scc_decompose(g))
    assert gamma.n_vertices == 4
    assert gamma.n_edges == 4  # the two cycles only
    assert gamma.cross_edges.shape == (1, 2)


def test_recurrent_model_matches_cycle_oracle_on_map_graph():
    model = quad_c0()
    tree = grown_tree(model, 5)
    g = build_edges(tree, model, tree.epsilon_min() / 1000.0)
    adj = [list(map(int, g.out_neighbors(u))) for u in range(g.n_vertices)]
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
        vals = tree.point_axis_values(fp.location)
        leaves = tree.leaves_containing_point(vals)
        assert any(l in id_set for l in leaves), fp
