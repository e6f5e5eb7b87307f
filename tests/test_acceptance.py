"""Acceptance criteria, one test per criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see
them as they complete).

1. Separation-constants table reproduction to 6 significant digits.
2. Accuracy-ledger columns for the three Henon fixtures (3% relative).
3. Trapping radius: exact quadratic case and the 1.9 fixture.
4. Desk-scale separation run on the alternate basilica.
5. Non-separation of the 3-1-map at depths <= 7, with the guaranteed
   box-size threshold printed next to the separating flag.
6. Property suites: interval soundness, SCC oracle, edge oracle,
   fixed-point coverage, nesting, parameterization residual.
7. Image determinism + pixel-classification soundness + the unit-circle
   coverage content check.
"""

import io
import math
import random
import time
import numpy as np
import pytest

from boxchain import cli as cli_mod
from boxchain.ia import Interval
from boxchain.maps import MapModel
from boxchain.bounds import delta_prime, epsilon_prime, sink_section_for_map
from boxchain.boxtree import init_root
from boxchain.chain_graph import build_edges, scc_decompose
from boxchain.render import (
    RenderConfig,
    component_palette,
    pick_saddle,
    render_plane,
    render_slice,
    unstable_parameterization,
)
from support_graphs import all_pairs_edges
from support_trees import live_ids


def _report(number, name, note=""):
    suffix = f" ({note})" if note else ""
    print(f"ACCEPTANCE {number} [{name}]: PASS{suffix}")


def rel(x, y):
    return abs(x - y) / abs(y)


# ---------------------------------------------------------------------------
# criterion 1: separation-constants table, 6 significant digits, < 1 s
# ---------------------------------------------------------------------------


def test_criterion_1_table_reproduction():
    t0 = time.perf_counter()
    model = MapModel("henon_complex", c="-1.17", a="0.3", r_prime=2.01)
    sec = sink_section_for_map(model, m_ratio=1000.0, sink_decimals=(3, 3, 2))
    elapsed = time.perf_counter() - t0
    assert sec is not None
    assert sec.location[0] == pytest.approx(-0.612, abs=5e-13)
    assert sec.location[1] == pytest.approx(-0.612, abs=5e-13)
    assert sec.lambda1 == pytest.approx(-0.885, abs=5e-13)
    assert sec.lambda2 == pytest.approx(-0.34, abs=5e-13)
    assert sec.lam == pytest.approx(0.885, abs=5e-13)
    assert rel(sec.tau, 0.029871571) < 1e-6
    assert rel(sec.r_p, 0.0034352307) < 1e-6
    assert rel(sec.kappa, 2.5448759) < 1e-6
    assert rel(sec.eta, 9.876288e-5) < 1e-6
    assert rel(sec.epsilon_star, 3.880793e-5) < 1e-6
    assert elapsed < 1.0
    _report(1, "table of separation constants", f"{elapsed * 1e3:.0f} ms")


# ---------------------------------------------------------------------------
# criterion 2: accuracy-ledger columns for the three Henon fixtures, 3%
# ---------------------------------------------------------------------------


def test_criterion_2_accuracy_ledger_columns():
    t0 = time.perf_counter()
    alt = MapModel("henon_complex", c="-1.1875", a="0.15", r_prime=1.9)
    eps, eps_min = 0.059375, 0.0296875  # depth 6/7 sides for R' ~ 1.9
    delta = eps_min / 1000.0
    assert rel(epsilon_prime(eps, delta, 1.9, 0.15), 0.30) < 0.03
    assert rel(delta_prime(delta, 1.9, 0.15, alt.delta0_prime), 6e-6) < 0.03

    horse = MapModel("henon_complex", c="-2.75", a="-0.74", r_prime=2.84)
    eps = 0.09
    delta = eps / 1000.0
    assert rel(epsilon_prime(eps, delta, 2.84, 0.74), 0.68) < 0.03
    assert rel(delta_prime(delta, 2.84, 0.74, horse.delta0_prime), 1.2e-5) < 0.03

    real = MapModel("henon_real", c="-3", a="-0.25", r_prime=2.57)
    eps = 0.04
    delta = eps / 1000.0
    assert rel(epsilon_prime(eps, delta, 2.57, 0.25), 0.26) < 0.03
    assert rel(delta_prime(delta, 2.57, 0.25, real.delta0_prime), 6.3e-6) < 0.03
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, "accuracy ledger columns", f"{elapsed * 1e3:.0f} ms")


# ---------------------------------------------------------------------------
# criterion 3: trapping radius
# ---------------------------------------------------------------------------


def test_criterion_3_trapping_radius():
    one_dim = MapModel("quad_poly", c="2", r_prime=2.5)
    assert abs(one_dim.R - 2.0) <= math.ulp(2.0)
    alt = MapModel("henon_complex", c="-1.1875", a="0.15", r_prime=1.9)
    assert alt.R < 1.9
    assert round(alt.R, 5) == 1.80712
    _report(3, "trapping radius", f"R(c=2) = {one_dim.R}, R(alt) = {alt.R:.6f}")


# ---------------------------------------------------------------------------
# criterion 4: separating run on the alternate basilica
# ---------------------------------------------------------------------------


def test_criterion_4_separation_run(altper2_run):
    record = altper2_run.result.record
    classification = altper2_run.result.classification
    assert record.separating is True
    final = record.steps[-1]
    assert final.n_components >= 2
    # the sink 2-cycle's boxes sit in a different component from the
    # largest (J-candidate) component
    two_cycle = [s for s in classification.sinks if s.period == 2]
    assert two_cycle, "period-2 sink orbit must be detected"
    entry = two_cycle[0]
    assert entry.covered and entry.component_ids
    assert classification.j_candidate not in entry.component_ids
    # budget: < 30 min, < 4 GB
    assert record.total_wall_s < 1800.0
    assert all(s.rss_mb < 4096.0 for s in record.steps)
    _report(
        4,
        "separation run",
        f"{final.n_components} components, sink 2-cycle in "
        f"{set(entry.component_ids)}, {record.total_wall_s:.0f} s",
    )


# ---------------------------------------------------------------------------
# criterion 5: non-separation of the 3-1-map at depths <= 7
# ---------------------------------------------------------------------------


def test_criterion_5_non_separation(per31_run):
    record = per31_run.result.record
    assert max(max(s.record.depths) for s in per31_run.snapshots) <= 7
    assert record.separating is False
    assert record.sink_section is not None
    assert 3.8e-5 < record.sink_section.epsilon_star < 4.0e-5
    # the printed report carries both facts side by side
    buf = io.StringIO()
    import contextlib

    with contextlib.redirect_stdout(buf):
        cli_mod._print_record(record, as_json=False)
    text = buf.getvalue()
    line = next(l for l in text.splitlines() if "separating: false" in l)
    assert "epsilon*" in line and "3.9" in line
    _report(5, "non-separation at depths <= 7", line.strip())


# ---------------------------------------------------------------------------
# criterion 6: property suites
# ---------------------------------------------------------------------------


def test_criterion_6a_interval_inclusion_soundness():
    rng = random.Random(1405)
    violations = 0
    trials = 100_000
    for _ in range(trials // 5):
        c1 = math.ldexp(rng.uniform(-1, 1), rng.randint(-6, 6))
        c2 = math.ldexp(rng.uniform(-1, 1), rng.randint(-6, 6))
        w1 = abs(math.ldexp(rng.uniform(0, 1), rng.randint(-10, 1)))
        w2 = abs(math.ldexp(rng.uniform(0, 1), rng.randint(-10, 1)))
        a = Interval(c1 - w1, c1 + w1)
        b = Interval(c2 - w2, c2 + w2)
        x = rng.uniform(a.lo, a.hi)
        y = rng.uniform(b.lo, b.hi)
        if not a.add(b).contains(x + y):
            violations += 1
        if not a.sub(b).contains(x - y):
            violations += 1
        if not a.mul(b).contains(x * y):
            violations += 1
        if not a.square().contains(x * x):
            violations += 1
        if not (b.lo <= 0.0 <= b.hi) and not a.div(b).contains(x / y):
            violations += 1
    assert violations == 0
    _report(6, "interval inclusion soundness", f"{trials} trials, 0 violations")


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
    return {
        frozenset(
            v for v in labeled if reach[u] >> v & 1 and reach[v] >> u & 1
        )
        for u in labeled
    }, set(labeled)


def test_criterion_6b_scc_oracle():
    from support_graphs import graph_from_adjacency

    rng = random.Random(2026)
    for _ in range(200):
        n = rng.randint(1, 60)
        adj = [
            [v for v in range(n) if rng.random() < rng.uniform(0.01, 0.12)]
            for _ in range(n)
        ]
        g = graph_from_adjacency(adj)
        lab = scc_decompose(g)
        want_parts, want_labeled = _closure_partition(adj)
        got = {}
        for u in range(n):
            if lab.comp[u] >= 0:
                got.setdefault(int(lab.comp[u]), set()).add(u)
        assert {frozenset(s) for s in got.values()} == want_parts
        assert {u for u in range(n) if lab.comp[u] >= 0} == want_labeled
    _report(6, "SCC vs reachability oracle", "200 digraphs <= 60 vertices")


def test_criterion_6c_edge_oracle_two_maps():
    for kind, kwargs in (
        ("quad_poly", dict(c="0", r_prime=2.0)),
        ("henon_complex", dict(c="-1.17", a="0.3", r_prime=2.01)),
    ):
        model = MapModel(kind, **kwargs)
        tree = init_root(model)
        for _ in range(4):
            tree.subdivide(lambda lid: True)
            tree.prune_escaping(6)
        delta = tree.epsilon_min() / 1000.0
        g = build_edges(tree, model, delta)
        got = {
            (u, int(v)) for u in range(g.n_vertices) for v in g.out_neighbors(u)
        }
        assert got == all_pairs_edges(tree, model, delta)
    _report(6, "edge set vs all-pairs oracle", "depth-4 grids, two maps")


def test_criterion_6d_fixed_point_coverage(
    circle_run, per31_run, altper2_run, realhorse_run, cubic_run
):
    for run in (circle_run, per31_run, altper2_run, realhorse_run, cubic_run):
        for snap in run.snapshots:
            assert snap.fixed_points_covered
            assert snap.exact_sinks_covered
    _report(6, "fixed-point coverage", "every step of every regression run")


def test_criterion_6e_nesting(
    circle_run, per31_run, altper2_run, realhorse_run, cubic_run
):
    for run in (circle_run, per31_run, altper2_run, realhorse_run, cubic_run):
        snaps = run.snapshots
        for prev, cur in zip(snaps, snaps[1:]):
            for depth, idx in cur.gamma_addresses:
                ok = any(
                    (d0, tuple(i >> (depth - d0) for i in idx))
                    in prev.gamma_addresses
                    for d0 in range(depth, -1, -1)
                )
                assert ok
    _report(6, "nesting of box unions", "all regression runs")


def test_criterion_6f_parameterization_residual():
    model = MapModel("henon_complex", c="-1.17", a="0.3", r_prime=2.01)
    sad = pick_saddle(model)
    ev = unstable_parameterization(model, sad, 20)
    rng = np.random.default_rng(12)
    zs = rng.uniform(-1, 1, 1200) + 1j * rng.uniform(-1, 1, 1200)
    zs = zs[np.abs(zs) <= 1.0]
    gx, gy = ev(zs)
    fx = gx * gx + model.c - model.a * gy
    fy = gx
    lx, ly = ev(ev.unstable_eigenvalue * zs)
    res = np.maximum(
        np.maximum(np.abs(fx.real - lx.real), np.abs(fx.imag - lx.imag)),
        np.maximum(np.abs(fy.real - ly.real), np.abs(fy.imag - ly.imag)),
    )
    assert res.max() < 1e-6
    _report(6, "parameterization residual", f"sup {res.max():.2e} < 1e-6")


# ---------------------------------------------------------------------------
# criterion 7: image determinism + soundness + circle coverage
# ---------------------------------------------------------------------------


def test_criterion_7_images(circle_run, per31_run):
    model = circle_run.result.model
    gamma = circle_run.result.gamma
    # content assertion: every sampled unit-circle point is covered
    tree = gamma.tree
    gamma_ids = set(int(v) for v in gamma.vertex_ids)
    for k in range(360):
        th = 2 * math.pi * k / 360
        pt = (complex(math.cos(th), math.sin(th)),)
        leaves = tree.leaves_containing_point(tree.point_axis_values(pt))
        assert any(l in gamma_ids for l in leaves), th
    # pixel grid chosen so four centers land exactly on the circle
    cfg = RenderConfig(
        center=0j, half_width=1.005, resolution=201, kplus_iters=50
    )
    img1 = render_plane(gamma, model, cfg)
    img2 = render_plane(gamma, model, cfg)
    assert img1.ppm_bytes() == img2.ppm_bytes()  # byte-identical re-render
    mid = 100
    for row, col in ((mid, 0), (mid, 200), (0, mid), (200, mid)):
        assert img1.at(row, col) != 255, (row, col)
    # pixel-classification soundness on leaf centers
    palette = component_palette(int(gamma.comp.max()) + 1)
    for lid in list(live_ids(tree))[::37][:8]:
        box = tree.leaf_box(lid)
        cx, cy = box.coords[0].re.mid(), box.coords[0].im.mid()
        assert tree.leaves_containing_point((cx, cy)) == [lid]
        one = render_plane(
            gamma,
            model,
            RenderConfig(
                center=complex(cx, cy),
                half_width=1e-9,
                resolution=1,
                kplus_lighten=False,
            ),
        )
        assert one.at(0, 0) == palette[int(gamma.comp[gamma.row_of_leaf(lid)])]
    # slice rendering also deterministic on the Henon fixture
    hmodel = per31_run.result.model
    hgamma = per31_run.result.gamma
    sad = pick_saddle(hmodel)
    scfg = RenderConfig(resolution=64, half_width=1.0, kplus_iters=40)
    s1 = render_slice(hgamma, hmodel, sad, scfg)
    s2 = render_slice(hgamma, hmodel, sad, scfg)
    assert s1.ppm_bytes() == s2.ppm_bytes()
    _report(7, "image determinism and content", "circle covered, renders stable")
