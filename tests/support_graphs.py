"""Shared test helpers: build a ChainGraph from plain adjacency lists,
read a recurrent model's edges, and the all-pairs edge oracle."""

import numpy as np

from boxchain.chain_graph import ChainGraph, widened_images
from boxchain.ia import Interval
from support_trees import live_ids


def graph_from_adjacency(adj):
    pairs = [(u, v) for u, outs in enumerate(adj) for v in sorted(set(outs))]
    src, dst = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return ChainGraph.from_pairs(
        src,
        dst,
        np.arange(len(adj), dtype=np.int64),
        tree=None,
        delta=1e-3,
        epsilon=1.0,
        epsilon_min=1.0,
    )


def gamma_edges(gamma):
    """(cycle src, cycle dst, cross edges [k, 2]) of a recurrent model:
    its ``edge_blocks()`` joined, each in (src, dst) order."""
    none = np.empty(0, dtype=np.int32)
    blocks = [(none, none, none.reshape(0, 2))] + list(gamma.edge_blocks())
    return tuple(np.concatenate(part) for part in zip(*blocks))


def all_pairs_edges(tree, model, delta):
    """Every (k, j) of live-leaf rows whose widened image of leaf k meets
    leaf j, by testing each pair's axes with Interval."""
    ids = live_ids(tree)
    wlo, whi = widened_images(tree, model, delta, np.arange(len(ids)))
    boxes = [tree.leaf_box(int(l)) for l in ids]
    edges = set()
    for k in range(len(ids)):
        w_axes = [Interval(wlo[k, t], whi[k, t]) for t in range(tree.naxes)]
        for j, bx in enumerate(boxes):
            if all(not w.is_disjoint(ax) for w, ax in zip(w_axes, bx.axes())):
                edges.add((k, j))
    return edges
