"""Shared test helper: build a ChainGraph from plain adjacency lists."""

import numpy as np

from boxchain.chain_graph import ChainGraph


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
