"""Self-test of the benchmark's checks: each must reject a broken input.

    PYTHONPATH=src python3 perfbench/selftest.py

Runs on a depth-3 model of z^2 (well under a second).  Prints one line
per check and exits non-zero if a check accepts a broken input or
rejects a correct one.
"""

from __future__ import annotations

import copy
import dataclasses
import sys

import numpy as np

from checks import check_coverage, check_png, check_record, core_digest, edge_oracle


def _without_edge(graph, src: int, dst: int):
    """Copy of ``graph`` with the edge src -> dst removed."""
    lo, hi = graph.indptr[src], graph.indptr[src + 1]
    k = lo + int(np.searchsorted(graph.indices[lo:hi], dst))
    indices = np.delete(graph.indices, k)
    indptr = graph.indptr.copy()
    indptr[src + 1 :] -= 1
    return dataclasses.replace(graph, indptr=indptr, indices=indices)


def run_selftest() -> list:
    from boxchain.boxtree import init_root
    from boxchain.chain_graph import build_edges
    from boxchain.maps import MapModel
    from boxchain.pipeline import RunConfig, parse_schedule, run_pipeline

    fails = []

    def expect(name, problems, should_fail):
        if bool(problems) != should_fail:
            verdict = "accepted a broken input" if should_fail else "rejected a correct input"
            fails.append(f"self-test {name}: check {verdict}")

    model = MapModel("quad_poly", c="0", r_prime=2.0)
    tree = init_root(model)
    for _ in range(3):
        tree.subdivide(lambda lid: True)
        tree.prune_escaping(6)
    delta = tree.epsilon_min() / 1000.0
    graph = build_edges(tree, model, delta)
    leaves = graph.vertex_ids
    expect("edge oracle on the built graph", edge_oracle(graph, tree, model, delta, leaves), False)
    lid = int(leaves[0])
    target = tree.query_intersect(model.image(tree.leaf_box(lid)).widen(delta))[0]
    broken = _without_edge(graph, graph.row_of_leaf(lid), graph.row_of_leaf(target))
    expect("edge oracle with one required edge removed",
           edge_oracle(broken, tree, model, delta, [lid]), True)

    config = RunConfig(kind="quad_poly", c="0", r_prime=2.0, schedule=parse_schedule("uniform*3"))
    result = run_pipeline(config)
    expect("record check on a correct run", check_record(result, config.schedule, False), False)
    changed = copy.deepcopy(result.record)
    changed.steps[-1].gamma_edges += 1
    expect("core digest with one core field changed",
           [] if core_digest(changed) == core_digest(result.record) else ["differs"], True)
    changed.steps[-1].boxes_escaping += 1
    result.record = changed
    expect("record check with one core field changed",
           check_record(result, config.schedule, False), True)

    gamma, tree = result.gamma, result.tree
    expect("coverage of the fixed point 0", check_coverage(tree, gamma, [(0j,)], "fixed point"), False)
    expect("coverage of a point outside gamma", check_coverage(tree, gamma, [(1.9 + 1.9j,)], "point"), True)
    expect("PNG check with a broken signature", check_png(b"\x89PNX" + bytes(40), 1, 1), True)
    return fails


if __name__ == "__main__":
    problems = run_selftest()
    for p in problems:
        print(p)
    print("self-test:", "FAIL" if problems else "ok")
    sys.exit(1 if problems else 0)
