"""Pipeline and persistence tests: schedule parsing, reproducibility,
model round-trips, CLI surface and exit codes, regression invariants."""

import importlib
import json
import math
import os
import pkgutil
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import boxchain
from boxchain import cli, pipeline
from boxchain.errors import MemoryBudgetError, ParseError
from boxchain.ia import UsageError
from boxchain.maps import MapModel
from boxchain.pipeline import (
    PRESETS,
    RunConfig,
    load_model,
    parse_schedule,
    run_pipeline,
    save_model,
)
from boxchain.render import RenderConfig, render_plane
from support_graphs import gamma_edges, traced_peak

DATA = Path(__file__).parent / "data"


def small_config(**over):
    base = dict(
        kind="quad_poly",
        c="0",
        r_prime=2.0,
        schedule=["uniform"] * 4,
    )
    base.update(over)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_parse_schedule_forms():
    assert parse_schedule("uniform*3") == ["uniform"] * 3
    assert parse_schedule("uniform,sink_basin*2") == [
        "uniform",
        "sink_basin",
        "sink_basin",
    ]
    assert parse_schedule(["uniform"]) == ["uniform"]
    with pytest.raises(ParseError):
        parse_schedule("wobble*2")
    with pytest.raises(ParseError):
        parse_schedule("uniform*0")
    with pytest.raises(ParseError):
        parse_schedule("uniform*x")
    with pytest.raises(ParseError):
        parse_schedule("uniform:2")
    # no box can go deeper than 62 // naxes <= 31 levels
    assert parse_schedule("uniform*60,sink_basin*2") == ["uniform"] * 60 + ["sink_basin"] * 2
    with pytest.raises(ParseError, match="longer than 62"):
        parse_schedule("uniform*60,sink_basin*3")
    with pytest.raises(ParseError, match="longer than 62"):
        parse_schedule("uniform*1000000000")  # refused before the list is built


def test_config_validation():
    with pytest.raises(UsageError):
        small_config(schedule=[]).validate()
    with pytest.raises(UsageError):
        small_config(delta_ratio=1.0).validate()
    with pytest.raises(UsageError):
        RunConfig.from_preset("nope")
    small_config().validate()


def test_presets_complete():
    assert set(PRESETS) == {
        "altper2",
        "per31",
        "complexhorse",
        "realhorse",
        "cubicdouble",
    }
    for name, params in PRESETS.items():
        cfg = RunConfig.from_preset(name, schedule=["uniform"])
        cfg.validate()
        model = cfg.build_model()
        assert model.r_prime > model.R


# ---------------------------------------------------------------------------
# pipeline behavior
# ---------------------------------------------------------------------------


def test_reproducibility_identical_records():
    r1 = run_pipeline(small_config())
    r2 = run_pipeline(small_config())
    c1 = [s.core_fields() for s in r1.record.steps]
    c2 = [s.core_fields() for s in r2.record.steps]
    assert c1 == c2
    assert r1.record.separating == r2.record.separating


def test_circle_run_covers_unit_circle_every_step(circle_run):
    for snap in circle_run.snapshots:
        addrs = snap.gamma_addresses
        # every sampled circle point lies inside some recurrent-model box
        rp = 2.0
        for k in range(180):
            th = 2 * math.pi * k / 180
            x, y = math.cos(th), math.sin(th)
            hit = False
            for depth, idx in addrs:
                cell = math.ldexp(rp, 1 - depth)
                lo0 = -rp + idx[0] * cell
                lo1 = -rp + idx[1] * cell
                if lo0 <= x <= lo0 + cell and lo1 <= y <= lo1 + cell:
                    hit = True
                    break
            assert hit, (snap.record.index, th)


def test_circle_run_components(circle_run):
    # origin component separate from the circle component once boxes shrink
    last = circle_run.snapshots[-1]
    assert last.record.n_components >= 2
    assert last.separating
    assert last.fixed_points_covered and last.exact_sinks_covered


def test_bounds_invariants_every_step(circle_run, per31_run):
    for run in (circle_run, per31_run):
        for snap in run.snapshots:
            s = snap.record
            assert s.epsilon < s.epsilon_prime
            assert s.delta_prime < s.delta
            assert s.boxes_original >= s.upsilon_boxes >= s.gamma_boxes


def test_nesting_across_steps(
    circle_run, per31_run, altper2_run, realhorse_run, cubic_run
):
    for run in (circle_run, per31_run, altper2_run, realhorse_run, cubic_run):
        snaps = run.snapshots
        for prev, cur in zip(snaps, snaps[1:]):
            for depth, idx in cur.gamma_addresses:
                found = False
                for d0 in range(depth, -1, -1):
                    anc = (d0, tuple(i >> (depth - d0) for i in idx))
                    if anc in prev.gamma_addresses:
                        found = True
                        break
                assert found, f"leaf {(depth, idx)} not nested in previous step"


def test_tree_holds_gamma_after_every_step(
    circle_run, per31_run, altper2_run, realhorse_run, cubic_run
):
    for run in (circle_run, per31_run, altper2_run, realhorse_run, cubic_run):
        assert all(snap.tree_is_gamma for snap in run.snapshots)


def test_fixed_point_coverage_all_regression_steps(
    circle_run, per31_run, altper2_run, realhorse_run, cubic_run
):
    for run in (circle_run, per31_run, altper2_run, realhorse_run, cubic_run):
        for snap in run.snapshots:
            assert snap.fixed_points_covered
            assert snap.exact_sinks_covered


def test_separating_flag_monotone(
    circle_run, per31_run, altper2_run, realhorse_run, cubic_run
):
    for run in (circle_run, per31_run, altper2_run, realhorse_run, cubic_run):
        seen_true = False
        for snap in run.snapshots:
            if seen_true:
                assert snap.separating
            seen_true = seen_true or snap.separating


def _parents(depths, idx, before_depths, before_idx):
    """Row of the step-before leaf that holds each leaf (depths, idx), or
    -1: the leaf itself or its ancestor, matched by grid address."""
    naxes = idx.shape[1]
    parent = np.full(len(depths), -1, dtype=np.int64)
    for depth in np.unique(before_depths).tolist():
        shape = (1 << depth,) * naxes
        rows = np.flatnonzero(before_depths == depth)
        keys = np.ravel_multi_index(tuple(before_idx[rows].T), shape)
        order = np.argsort(keys)
        below = np.flatnonzero(depths >= depth)
        ancestor = idx[below] >> (depths[below] - depth)[:, None]
        want = np.ravel_multi_index(tuple(ancestor.T), shape)
        at = np.minimum(np.searchsorted(keys, want, sorter=order), len(rows) - 1)
        hit = keys[order[at]] == want
        parent[below[hit]] = rows[order[at[hit]]]
    return parent


@pytest.mark.parametrize(
    "preset,schedule",
    [
        pytest.param("altper2", "uniform*5,sink_basin*2", id="altper2-mixed-mirrored"),
        pytest.param("per31", "uniform*6", id="per31"),
        pytest.param("cubicdouble", "uniform*8", id="cubicdouble"),
    ],
)
def test_refined_edges_lie_over_edges_of_the_step_before(monkeypatch, preset, schedule):
    """Every edge k -> j of a step's graph lies over the edge P(k) -> P(j)
    of the step before, P(k) being the earlier leaf that holds B_k.

    B_k lies in B_P(k); each array operation of the interval image rounds
    to nearest and then one ulp outward, which is monotone in its
    arguments, so the image is inclusion isotone (Moore); and delta does
    not grow from one step to the next.  So the widened image of B_P(k)
    holds that of B_k, and meets B_P(j) wherever the latter meets B_j.
    This is the refinement step of GAIO (Dellnitz-Froyland-Junge) read as
    an invariant of the edge build; it needs no oracle, and it catches an
    edge that one step lost where the next finds one below it."""
    build = pipeline.build_edges
    before = {}
    checked = []

    def checking(tree, model, delta, **kw):
        graph = build(tree, model, delta, **kw)
        _, depths, idx, _, _ = tree.live_arrays()
        blocks = list(graph.edge_blocks(np.arange(graph.n_vertices)))
        src, dst = (np.concatenate(part).astype(np.int64) for part in zip(*blocks))
        assert len(src) == graph.n_edges
        if before:
            assert delta <= before["delta"]
            parent = _parents(depths, idx, before["depths"], before["idx"])
            assert (parent >= 0).all(), "a leaf lies in no leaf of the step before"
            lifted = parent[src] * before["n"] + parent[dst]
            known = before["edges"]
            at = np.minimum(np.searchsorted(known, lifted), len(known) - 1)
            missing = np.count_nonzero(known[at] != lifted)
            assert not missing, f"{missing} of {len(src)} edges lie over no edge of the step before"
            checked.append(len(src))
        edges = src * graph.n_vertices + dst
        edges.sort()
        before.update(depths=depths.copy(), idx=idx.copy(), n=graph.n_vertices, edges=edges, delta=delta)
        return graph

    monkeypatch.setattr(pipeline, "build_edges", checking)
    config = RunConfig.from_preset(preset, schedule=parse_schedule(schedule))
    run_pipeline(config)
    assert len(checked) == len(config.schedule) - 1 and min(checked) > 0


def test_realhorse_bounds_match_reference_row(realhorse_run):
    last = realhorse_run.snapshots[-1].record
    assert abs(last.epsilon_prime - 0.26) / 0.26 < 0.03
    assert abs(last.delta_prime - 6.3e-6) / 6.3e-6 < 0.03


def test_altper2_separates_already_at_mixed_depth_6_7(altper2_run):
    # the crudest separating model: one sink-basin refinement on top of
    # the depth-6 grid (step 7, boxes at depths 6 and 7)
    step7 = altper2_run.snapshots[6]
    assert step7.record.depths == (6, 7)
    assert step7.separating
    assert step7.record.n_components >= 2


def test_enclosure_defect_diagnostic():
    from boxchain.bounds import enclosure_defect_sample

    model = MapModel("henon_complex", c="-1.17", a="0.3", r_prime=2.01)
    # the Henon outputs are separable sums of univariate quadratics, so
    # the structured grid attains the exact hull: the measured defect is
    # the genuine interval slack (rounding-level for this map)
    d = enclosure_defect_sample(model, 0.05, n_boxes=24, n_samples=64, seed=3)
    assert 0.0 <= d < 1e-9
    # the cubic's Horner form carries a genuine O(epsilon) dependency
    # slack between (z^2 - 3a^2) and z; the diagnostic surfaces it and
    # it shrinks linearly with the box side
    cub = MapModel("cubic_poly", c="-0.19,1.1", a="0,0.1", r_prime=2.1)
    d2 = enclosure_defect_sample(cub, 0.01, n_boxes=16, n_samples=64, seed=5)
    assert 0.0 <= d2 < 0.25
    d3 = enclosure_defect_sample(cub, 0.0025, n_boxes=16, n_samples=64, seed=5)
    assert d3 < d2


def reference_defect_sample(model, epsilon, n_boxes, n_samples, seed):
    """enclosure_defect_sample as a loop of scalar point images."""
    import itertools

    from boxchain.ia import Interval

    rng = random.Random(seed)
    rp = model.r_prime
    per_axis = 5 if model.naxes == 4 else 17
    worst = 0.0
    for _ in range(n_boxes):
        axes = []
        for _ in range(model.naxes):
            lo = rng.uniform(-rp, rp - epsilon)
            axes.append(Interval(lo, lo + epsilon))
        fbox = model.image(model.box_from_axes(axes))
        ticks = []
        for iv in axes:
            t = {iv.lo, iv.hi}
            if iv.lo < 0.0 < iv.hi:
                t.add(0.0)
            for k in range(1, per_axis - 1):
                t.add(iv.lo + (iv.hi - iv.lo) * k / (per_axis - 1))
            ticks.append(sorted(t))
        points = list(itertools.product(*ticks))
        for _ in range(n_samples):
            points.append(tuple(rng.uniform(iv.lo, iv.hi) for iv in axes))
        spans = [[math.inf, -math.inf] for _ in range(model.naxes)]
        for vals in points:
            img = model.point_forward(model.point_from_axes(vals))
            for k, v in enumerate(model.point_axes(img)):
                spans[k][0] = min(spans[k][0], v)
                spans[k][1] = max(spans[k][1], v)
        for k, iv in enumerate(fbox.axes()):
            worst = max(worst, (iv.hi - iv.lo) - (spans[k][1] - spans[k][0]))
    return worst


@pytest.mark.parametrize("preset", sorted(pipeline.PRESETS))
def test_enclosure_defect_sample_matches_scalar_loop(preset):
    # one array image per box samples the same boxes and points as the
    # scalar loop; numpy's complex products may round differently
    from boxchain.bounds import enclosure_defect_sample

    model = MapModel(**pipeline.PRESETS[preset])
    for eps, seed in ((0.05, 3), (0.01, 5)):
        d = enclosure_defect_sample(model, eps, n_boxes=8, n_samples=32, seed=seed)
        assert type(d) is float
        assert d == pytest.approx(
            reference_defect_sample(model, eps, 8, 32, seed), rel=0, abs=1e-12
        )


def test_bounds_text_block():
    from boxchain.bounds import report_for_map

    model = MapModel("henon_complex", c="-1.1875", a="0.15", r_prime=1.9)
    rep = report_for_map(model, 0.059375)
    block = rep.text_block()
    assert "epsilon_prime = " in block and "delta_prime = " in block
    for line in block.splitlines():
        assert " = " in line


def test_selective_step_fraction_roughly_half(altper2_run):
    # the first sink_basin step on the alternate basilica subdivides
    # roughly half of the surviving leaves (qualitative band 25-75%)
    snaps = altper2_run.snapshots
    before = snaps[5].record.gamma_boxes
    after_boxes = snaps[6].record.boxes_original
    children = 16
    selected = (after_boxes - before) / (children - 1)
    frac = selected / before
    assert 0.25 <= frac <= 0.75, frac


def test_complexhorse_prune_fraction_band():
    cfg = RunConfig.from_preset("complexhorse", schedule=["uniform"] * 6)
    said = []
    result = run_pipeline(cfg, progress=said.append)
    assert result.record.config["prune_iters"] == 6
    assert sum("escaping boxes eliminated" in line for line in said) == 6
    last = result.record.steps[-1]
    frac = last.boxes_escaping / last.boxes_original
    assert frac > 0.5
    assert 0.5667 <= frac <= 0.8667  # reference 43k/60k with +-15pp


@pytest.mark.parametrize("preset", ["cubicdouble", None])
def test_1d_runs_skip_escape_pruning(preset):
    # the strongly connected components alone drop the boxes of a 1-D map
    # that never return: no step prunes, and every box enters the graph
    if preset:
        cfg = RunConfig.from_preset(preset, schedule=["uniform"] * 8)
    else:
        cfg = small_config(schedule=["uniform"] * 6)
    said = []
    record = run_pipeline(cfg, progress=said.append).record
    assert record.config["prune_iters"] == 0
    assert not any("escaping" in line for line in said)
    for s in record.steps:
        assert s.boxes_escaping == 0 and s.upsilon_boxes == s.boxes_original
    if preset:
        # gamma per step as when six escape checks ran at every step
        assert [s.gamma_boxes for s in record.steps] == [4, 16, 36, 83, 215, 617, 1994, 6449]


def test_memory_budget_abort_carries_partial_record():
    cfg = small_config(schedule=["uniform"] * 5, mem_budget_mb=0.005)
    with pytest.raises(MemoryBudgetError) as ei:
        run_pipeline(cfg)
    assert ei.value.record.aborted is not None


# Runs ``boxchain run`` once per budget in argv and prints, per run, the
# budget, exit code, peak RSS in MB (the child's ru_maxrss from wait4) and
# stderr.  A child's ru_maxrss also holds the resident size of the process
# that started it, so the runs are started from this small process, not
# from the test process.
_BUDGET_RUNS = """
import json, os, subprocess, sys
runs = []
for budget in sys.argv[1:]:
    proc = subprocess.Popen(
        [sys.executable, "-m", "boxchain.cli", "run", "--preset", "altper2",
         "--schedule", "uniform*6", "--mem-budget-mb", budget, "--quiet"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    err = proc.stderr.read().decode()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    runs.append((float(budget), proc.returncode, usage.ru_maxrss / 1024.0, err))
print(json.dumps(runs))
"""


def test_memory_budget_bounds_peak_rss_of_the_run():
    """A run under --mem-budget-mb either exits 0 having peaked within the
    budget, or aborts with exit code 3 and one ``aborted:`` line."""
    r = subprocess.run(
        [sys.executable, "-c", _BUDGET_RUNS, "50", "100", "200", "400"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
    outcomes = set()
    for budget_mb, code, peak_mb, err in json.loads(r.stdout):
        if code == 0:
            assert peak_mb <= budget_mb, (budget_mb, peak_mb)
            outcomes.add("returned")
        else:
            assert code == 3, err
            assert err.startswith("aborted: ") and err.count("\n") == 1, err
            outcomes.add("aborted")
    assert outcomes == {"returned", "aborted"}


# Holds about 300 MB of touched memory while it runs one ``boxchain run``
# under a 200 MB budget, then passes on the run's stderr and exit code.
_BIG_PARENT_RUN = """
import subprocess, sys
held = b"x" * (300 << 20)
r = subprocess.run(
    [sys.executable, "-m", "boxchain.cli", "run", "--preset", "altper2",
     "--schedule", "uniform*4", "--mem-budget-mb", "200", "--quiet"],
    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
)
sys.stderr.write(r.stderr)
sys.exit(r.returncode)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
def test_memory_budget_does_not_charge_the_run_for_its_parent():
    """The run peaks well below 200 MB; the 300 MB its parent holds at
    ``exec`` is not the run's own peak."""
    r = subprocess.run([sys.executable, "-c", _BIG_PARENT_RUN], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


# ---------------------------------------------------------------------------
# model persistence
# ---------------------------------------------------------------------------


def _run_small_model(tmp_path):
    cfg = small_config(model_out=str(tmp_path / "m.txt"), save_edges=True)
    result = run_pipeline(cfg)
    return cfg.model_out, result


def test_model_roundtrip_byte_identical(tmp_path):
    path, result = _run_small_model(tmp_path)
    first = open(path, "rb").read()
    model, tree, gamma = load_model(path)
    save_model(str(tmp_path / "resaved.txt"), model, gamma, include_edges=True)
    second = open(tmp_path / "resaved.txt", "rb").read()
    assert first == second


@pytest.mark.parametrize(
    "preset,schedule", [("per31", "uniform*5,sink_basin"), ("cubicdouble", "uniform*8")]
)
def test_run_model_saves_the_bytes_of_its_reload(tmp_path, preset, schedule):
    """A model fresh from the run reads its edges from the graph it
    restricts, a loaded one from the graph of its file's edges: both
    save the same bytes, with edges and without."""
    result = run_pipeline(RunConfig.from_preset(preset, schedule=parse_schedule(schedule)))
    assert result.gamma.n_edges > 0
    run, loaded = tmp_path / "run.txt", tmp_path / "loaded.txt"
    for include_edges in (True, False):
        save_model(str(run), result.model, result.gamma, include_edges=include_edges)
        save_model(str(loaded), result.model, load_model(str(run))[2], include_edges=include_edges)
        assert run.read_bytes() == loaded.read_bytes()


def _printf_lines(tag, table):
    return ((tag + " %d" * table.shape[1] + "\n") * len(table) % tuple(table.ravel().tolist())).encode()


@pytest.mark.parametrize("width", [2, 6])
def test_record_lines_match_printf(width):
    # fields at the digit-count boundaries, in random rows
    rng = np.random.default_rng(width)
    edges = [0, 9, 10, 99, 100, 2**31 - 1, 2**32, 2**63 - 1]
    edges += [10**k + d for k in range(3, 19) for d in (-1, 0)]
    for top in edges:
        values = np.array([v for v in edges if v <= top], dtype=np.int64)
        table = rng.choice(values, size=(300, width))
        assert pipeline._record_lines("E", table) == _printf_lines("E", table)
        small = rng.integers(0, top, size=(50, width), endpoint=True, dtype=np.int64)
        assert pipeline._record_lines("B", small) == _printf_lines("B", small)
    for dtype in (np.int32, np.int64):
        empty = np.empty((0, width), dtype=dtype)
        assert pipeline._record_lines("X", empty) == _printf_lines("X", empty) == b""
    with pytest.raises(UsageError, match="non-negative"):
        pipeline._record_lines("E", np.array([[0, -1]]))


def test_model_roundtrip_preserves_everything(tmp_path):
    path, result = _run_small_model(tmp_path)
    gamma0 = result.gamma
    tree0 = result.tree
    model, tree, gamma = load_model(path)
    assert gamma.n_vertices == gamma0.n_vertices
    assert gamma.n_edges == gamma0.n_edges
    assert gamma.delta == gamma0.delta
    assert gamma.epsilon == gamma0.epsilon
    assert gamma.epsilon_min == gamma0.epsilon_min
    assert np.array_equal(gamma.comp, gamma0.comp)
    assert tree.addresses() == tree0.addresses()
    # edges identical under the address correspondence
    for got, want in zip(gamma_edges(gamma), gamma_edges(gamma0)):
        assert np.array_equal(got, want)


def test_loaded_model_renders_identically(tmp_path):
    path, result = _run_small_model(tmp_path)
    model, tree, gamma = load_model(path)
    cfg = RenderConfig(resolution=32, half_width=2.2, kplus_iters=30)
    img_mem = render_plane(result.gamma, result.model, cfg)
    img_load = render_plane(gamma, model, cfg)
    assert img_mem.ppm_bytes() == img_load.ppm_bytes()


def test_truncated_model_rejected(tmp_path):
    path, _ = _run_small_model(tmp_path)
    text = open(path).read().splitlines()
    bad = tmp_path / "trunc.txt"
    bad.write_text("\n".join(text[: len(text) // 2]) + "\n")
    with pytest.raises(ParseError):
        load_model(str(bad))
    garbled = tmp_path / "bad.txt"
    garbled.write_text("not a model\n")
    with pytest.raises(ParseError):
        load_model(str(garbled))
    # a header count that is huge, negative or short of the body's lines
    # is refused once the body is read, with no allocation sized by it
    edges = int(re.search(r" edges=(\d+) ", text[0]).group(1))
    assert edges > 0
    for count in (10**15, -1, edges - 1):
        bad = tmp_path / f"count{count}.txt"
        header = text[0].replace(f" edges={edges} ", f" edges={count} ")
        bad.write_text("\n".join([header] + text[1:]) + "\n")

        def refused():
            with pytest.raises(ParseError, match="truncated model"):
                load_model(str(bad))

        _, peak = traced_peak(refused)
        assert peak < 20 * os.path.getsize(bad) + (1 << 20), (count, peak)
        assert _cli("inspect", "--model-in", str(bad)).returncode == 4


_LOAD_BYTES_PER_EDGE = 45  # traced by load_model, file text included


def test_load_allocates_a_few_bytes_per_edge(tmp_path, altper2_run):
    # the text, the tables of its pieces and one key per edge; joining
    # the pieces' tables, or keeping the text to the end, costs more
    path = str(tmp_path / "altper2.txt")
    save_model(path, altper2_run.result.model, altper2_run.result.gamma, include_edges=True)
    (_, _, gamma), peak = traced_peak(load_model, path)
    edges = gamma.n_edges + gamma.n_cross_edges
    assert edges > 1_000_000
    assert peak / edges < _LOAD_BYTES_PER_EDGE, peak / edges


def _hand_model(tmp_path, lines):
    count = {tag: sum(line.split()[0] == tag for line in lines) for tag in "BEX"}
    header = (
        "boxchain-model 1 kind=quad_poly c=0,0 rprime=2.0 m=2 delta=0.001"
        f" epsilon=1.0 epsilon_min=1.0 boxes={count['B']} comps=1"
        f" edges={count['E']} cross={count['X']}"
    )
    path = tmp_path / "hand.txt"
    path.write_text("\n".join([header] + lines) + "\n", encoding="utf-8")
    return str(path)


def test_hand_written_model_loads(tmp_path):
    _, tree, gamma = load_model(_hand_model(tmp_path, ["B 2 1 1 0", "B 2 3 0 0"]))
    assert tree.leaf_count == gamma.n_vertices == 2
    assert tree.depth_counts() == {2: 2}


def test_duplicate_address_rejected(tmp_path):
    path = _hand_model(tmp_path, ["B 2 1 1 0", "B 2 1 1 0"])
    with pytest.raises(ParseError, match="duplicate"):
        load_model(path)
    assert _cli("inspect", "--model-in", path).returncode == 4


def test_address_index_beyond_grid_rejected(tmp_path):
    with pytest.raises(ParseError, match="outside"):
        load_model(_hand_model(tmp_path, ["B 2 1 4 0"]))


def test_negative_address_index_rejected(tmp_path):
    with pytest.raises(ParseError, match="outside"):
        load_model(_hand_model(tmp_path, ["B 2 -1 0 0"]))


def test_address_deeper_than_packed_limit_rejected(tmp_path):
    # 2 axes: packed addresses allow depth <= 62 // 2 = 31
    path = _hand_model(tmp_path, ["B 32 0 0 0"])
    with pytest.raises(ParseError, match="out of range"):
        load_model(path)
    assert _cli("inspect", "--model-in", path).returncode == 4


@pytest.mark.parametrize("lines", [["B 1 0 0 0", "B 2 0 0 0"], ["B 2 1 1 0", "B 1 0 0 0"]])
def test_nested_addresses_rejected(tmp_path, lines):
    path = _hand_model(tmp_path, lines)
    with pytest.raises(ParseError, match="nested"):
        load_model(path)
    assert _cli("inspect", "--model-in", path).returncode == 4


def test_header_epsilon_checked_against_boxes(tmp_path):
    # header epsilon=1.0 epsilon_min=1.0; depth-1 sides are 2.0, depth-3 sides 0.5
    with pytest.raises(ParseError, match="largest box side"):
        load_model(_hand_model(tmp_path, ["B 1 0 0 0"]))
    with pytest.raises(ParseError, match="smallest box side"):
        load_model(_hand_model(tmp_path, ["B 3 0 0 0"]))


# two boxes of one component, and two boxes of components 0 and 1
_ONE_COMP = ["B 2 1 1 0", "B 2 3 0 0"]
_TWO_COMPS = ["B 2 1 1 0", "B 2 3 0 1"]


@pytest.mark.parametrize("comp", ["-5", "2", "99999999999"])
def test_component_id_outside_box_range_rejected(tmp_path, comp):
    path = _hand_model(tmp_path, ["B 2 1 1 0", f"B 2 3 0 {comp}"])
    with pytest.raises(ParseError, match="component id"):
        load_model(path)
    assert _cli("inspect", "--model-in", path).returncode == 4


@pytest.mark.parametrize(
    "records,message",
    [
        (_ONE_COMP + ["E 0 2"], "outside"),
        (_TWO_COMPS + ["X 0 99"], "outside"),
        (_TWO_COMPS + ["X -1 0"], "outside"),
        (_ONE_COMP + ["E 0 1 7"], "3 integers"),
        (_ONE_COMP + ["E 0"], "1 integers"),
        (_ONE_COMP + ["E 0 x"], "bad integer"),
        (_ONE_COMP + ["B 2 0 0 0 0"], "5 integers, not 4"),
        (_ONE_COMP + ["Q 0 1"], "unknown record tag"),
        (_TWO_COMPS + ["E 0 1"], "between two components"),
        (_ONE_COMP + ["X 0 1"], "within one component"),
        (_ONE_COMP + ["E 0 1", "E 0 1"], "given twice"),
        (_TWO_COMPS + ["X 0 1", "X 0 1"], "given twice"),
        (_ONE_COMP + ["E 0 1.5"], "bad integer"),
    ]
    + [
        (_ONE_COMP + [record], re.escape(f"line 4: {message}"))
        for record, message in [
            ("E 0 1-2", "bad integer '1-2'"),
            ("E 0 --1", "bad integer '--1'"),
            ("E 0 +", "bad integer '+'"),
            ("E 0 +-1", "bad integer '+-1'"),
            ("E 0 1e3", "bad integer '1e3'"),
            ("E 0 0x1", "bad integer '0x1'"),
            ("E 0 1234567890123456789", "bad integer '1234567890123456789'"),
            ("E 0 \x001", "bad integer '\\x001'"),  # the repr of a NUL
            ("E 0 1\u00e9", "bad integer '1\u00e9'"),
            ("E0 1", "unknown record tag 'E0'"),
            ("EE 0 1", "unknown record tag 'EE'"),
            ("- 0 1", "unknown record tag '-'"),
        ]
    ],
)
def test_malformed_or_inconsistent_records_rejected(tmp_path, capsys, records, message):
    path = _hand_model(tmp_path, records)
    with pytest.raises(ParseError, match=message):
        load_model(path)
    assert cli.main(["inspect", "--model-in", path]) == 4
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("piece_bytes", [1, 1 << 20])
def test_edge_checks_keep_their_order_across_pieces(tmp_path, monkeypatch, piece_bytes):
    # an edge outside the boxes is reported before one between the wrong
    # components, and that before a repeated edge, wherever the lines are
    monkeypatch.setattr(pipeline, "_PIECE_BYTES", piece_bytes)
    for records, message in [
        (_TWO_COMPS + ["E 0 0", "E 0 0", "X 0 2"], "X edge [0, 2] outside [0, 2)"),
        (_TWO_COMPS + ["E 0 1", "E 0 2"], "E edge [0, 2] outside [0, 2)"),
        (_TWO_COMPS + ["E 1 1", "E 1 1", "E 0 1"], "E edge [0, 1] lies between two components"),
    ]:
        with pytest.raises(ParseError, match=re.escape(message)):
            load_model(_hand_model(tmp_path, records))


@pytest.mark.parametrize("piece_bytes", [1, 37, 1 << 20])
def test_text_records_match_line_by_line_parse(monkeypatch, piece_bytes):
    # the vectorized reader against int() per field, with the body cut
    # into pieces of about piece_bytes
    monkeypatch.setattr(pipeline, "_PIECE_BYTES", piece_bytes)
    rng = random.Random(piece_bytes)
    widths = {"B": 4, "E": 2, "X": 2}
    want = {tag: [] for tag in widths}
    text = ""
    for _ in range(400):
        tag = rng.choice("BEX")
        values = ["0", "-0", "+7", "007", "-123456", str(10**18 - 1), "-42"]
        fields = [rng.choice(values) for _ in range(widths[tag])]
        want[tag].append([int(f) for f in fields])
        gap = lambda: rng.choice([" ", "\t", "  ", " \t "])
        text += rng.choice(["", " "]) + tag + "".join(gap() + f for f in fields)
        text += rng.choice(["", " "]) + rng.choice(["\n", "\r\n", "\r", "\n\n", "\n \n"])
    tables = pipeline._read_records(text.encode(), 0, widths)
    for tag, width in widths.items():
        expected = np.array(want[tag], dtype=np.int64).reshape(-1, width)
        table = np.concatenate(tables[tag])
        assert table.dtype == np.int64 and np.array_equal(table, expected)


def _graph_tables(tree, gamma):
    return gamma_edges(gamma) + (gamma.comp, tree.address_table(gamma.vertex_ids))


def _assert_same_graph(a, b):
    for x, y in zip(_graph_tables(*a), _graph_tables(*b)):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def test_gamma_edge_counts_match_its_edge_blocks(monkeypatch):
    """A mirrored run stores half of each graph's edges.  The record's
    counts of Gamma's cycle and cross edges are the lengths of its edge
    blocks, which read the mirrored graph."""
    graphs = []
    build = pipeline.build_edges

    def keeping(*args, **kw):
        graphs.append(build(*args, **kw))
        return graphs[-1]

    monkeypatch.setattr(pipeline, "build_edges", keeping)
    config = RunConfig.from_preset("per31", schedule=parse_schedule("uniform*4"))
    result = run_pipeline(config)
    assert len(graphs) == 4
    for graph in graphs:
        assert graph.mirror is not None and 2 * len(graph.indices) == graph.n_edges
    gamma, step = result.gamma, result.record.steps[-1]
    src, _, cross = gamma_edges(gamma)
    assert step.gamma_edges == len(src) == gamma.n_edges
    assert step.cross_edges == len(cross) == gamma.n_cross_edges > 0


def test_record_order_and_layout_do_not_matter(tmp_path):
    path, _ = _run_small_model(tmp_path)
    _, *saved = load_model(path)
    header, *records = open(path).read().splitlines()
    assert sum(r[0] == "X" for r in records) > 1
    # interleave the record kinds and shuffle the E and X lines; B lines
    # number the boxes, so those keep their order
    boxes = iter([r for r in records if r[0] == "B"])
    random.Random(5).shuffle(records)
    records = [next(boxes) if r[0] == "B" else r for r in records]
    # tab and space padding, a blank line, CRLF line ends
    lines = [header] + [f"  {r.replace(' ', chr(9) + ' ')} " for r in records[:40]]
    lines += [""] + records[40:]
    shuffled = tmp_path / "shuffled.txt"
    shuffled.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    model, *loaded = load_model(str(shuffled))
    _assert_same_graph(saved, loaded)
    # the re-save is the canonical file, whatever the order read
    resaved = tmp_path / "resaved.txt"
    save_model(str(resaved), model, loaded[1], include_edges=True)
    assert resaved.read_bytes() == Path(path).read_bytes()


def test_golden_model_files(tmp_path):
    """A file written by an earlier version of the format: this version
    writes the same bytes for the same run, and reads it to the same
    graph."""
    cfg = RunConfig(kind="quad_poly", c="0", r_prime=2.0, schedule=["uniform"] * 3)
    result = run_pipeline(cfg)
    golden = DATA / "quad_uniform3.txt"
    out = tmp_path / "quad_uniform3.txt"
    save_model(str(out), result.model, result.gamma, include_edges=True)
    assert out.read_bytes() == golden.read_bytes()
    assert result.gamma.n_cross_edges > 0 and len(set(result.gamma.comp.tolist())) == 2
    _assert_same_graph(load_model(str(golden))[1:], (result.tree, result.gamma))


def test_json_document_rejected(tmp_path, capsys):
    # the text layout is the only model file format
    doc = dict(format="boxchain-model", version=1, kind="quad_poly", c=["0", "0"], rprime="2.0",
               m=2, delta="0.001", epsilon="1.0", epsilon_min="1.0", boxes=[[2, 1, 1, 0]])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc) + "\n")
    with pytest.raises(ParseError, match="bad magic"):
        load_model(str(path))
    assert cli.main(["inspect", "--model-in", str(path)]) == 4
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "old,new",
    [("rprime=2.0", "rprime=inf"), ("rprime=2.0", "rprime=nan"), ("c=0,0", "c=1e400,0")],
)
def test_text_header_with_a_non_finite_parameter_rejected(tmp_path, capsys, old, new):
    path = _hand_model(tmp_path, ["B 2 1 1 0"])
    Path(path).write_text(Path(path).read_text().replace(old, new))
    with pytest.raises(ParseError, match="bad decimal" if new.startswith("c=") else "finite"):
        load_model(path)
    assert cli.main(["inspect", "--model-in", path]) == 4
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "old,new",
    [
        ("delta=0.001", "delta=nan"),
        ("delta=0.001", "delta=-1"),
        ("delta=0.001", "delta=inf"),
        ("epsilon=1.0", "epsilon=nan"),
        ("epsilon=1.0", "epsilon=inf"),
        ("epsilon_min=1.0", "epsilon_min=nan"),
    ],
)
def test_text_header_scales_must_be_finite_and_positive(tmp_path, capsys, old, new):
    path = _hand_model(tmp_path, ["B 2 1 1 0"])
    Path(path).write_text(Path(path).read_text().replace(old, new))
    with pytest.raises(ParseError, match="finite positive"):
        load_model(path)
    assert cli.main(["inspect", "--model-in", path]) == 4
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("old,new", [("c=0,0", "c=0"), ("c=0,0", "c=0,0,0"), ("c=0,0", "c=0,0 a=0")])
def test_text_header_parameters_must_have_two_parts(tmp_path, capsys, old, new):
    path = _hand_model(tmp_path, ["B 2 1 1 0"])
    Path(path).write_text(Path(path).read_text().replace(old, new))
    with pytest.raises(ParseError, match="two decimal strings"):
        load_model(path)
    assert cli.main(["inspect", "--model-in", path]) == 4
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
def test_non_finite_rprime_is_a_configuration_error(value):
    with pytest.raises(UsageError, match="finite"):
        MapModel("quad_poly", c="0", r_prime=value)


@pytest.mark.parametrize("command", [["bounds"], ["run", "--schedule", "uniform", "--quiet"]])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_cli_non_finite_rprime_exits_2(capsys, command, value):
    assert cli.main([*command, "--preset", "per31", "--rprime", value]) == 2
    assert capsys.readouterr().out == ""


def test_parameter_beyond_the_double_range_is_a_parse_error(capsys):
    with pytest.raises(ParseError, match="bad decimal"):
        MapModel("quad_poly", c="1e400")
    with pytest.raises(ParseError, match="bad decimal"):
        MapModel("henon_complex", c="0", a="0.3,-1e400")
    assert cli.main(["bounds", "--map", "quad_poly", "--c", "1e400"]) == 4
    assert capsys.readouterr().out == ""


def test_tiny_henon_a_is_rejected_before_any_step(capsys):
    # the first escape pruning would divide by |a|^2 = [0, 5e-324]
    argv = ["run", "--map", "henon_complex", "--c", "0", "--a", "1e-170", "--schedule", "uniform"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "a != 0" in err


@pytest.mark.parametrize("budget", [math.nan, -5.0, 0.0])
def test_mem_budget_must_be_positive(capsys, budget):
    with pytest.raises(UsageError, match="mem_budget_mb"):
        small_config(mem_budget_mb=budget).validate()
    argv = ["run", "--map", "quad_poly", "--c", "0", "--rprime", "2", "--schedule", "uniform"]
    assert cli.main([*argv, "--quiet", "--mem-budget-mb", repr(budget)]) == 2
    assert capsys.readouterr().out == ""
    small_config(mem_budget_mb=None).validate()  # None: no budget


@pytest.mark.parametrize(
    "argv",
    [["--delta-ratio", "0.5", "--epsilon", "0.03"], ["--epsilon", "-1"]],
)
def test_cli_bounds_rejects_before_printing(capsys, argv):
    assert cli.main(["bounds", "--preset", "per31", *argv]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "preset,argv",
    [
        # altper2 has no fixed sink, so only the ledger can check M
        ("altper2", ["--delta-ratio", "0.5"]),
        ("altper2", ["--delta-ratio", "nan"]),
        ("per31", ["--epsilon-min", "1"]),
    ],
)
def test_cli_bounds_ledger_checks_m_and_epsilon_min(capsys, preset, argv):
    assert cli.main(["bounds", "--preset", preset, "--epsilon", "0.03", *argv]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("value", ["nan", "inf", "0"])
def test_cli_bounds_epsilon_must_be_positive_and_finite(capsys, value):
    # checked before epsilon_min, the ledger invariants and delta
    assert cli.main(["bounds", "--preset", "per31", "--epsilon", value]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"configuration error: epsilon must be positive and finite, got {float(value)!r}"
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--preset", "altper2", "--schedule", "uniform*2"],
        ["bounds", "--preset", "altper2", "--epsilon", "0.1"],
    ],
)
def test_infinite_delta_ratio_is_rejected_before_any_step(capsys, argv):
    # delta = epsilon_min / inf would be 0; the run must not subdivide first
    with pytest.raises(UsageError, match="delta_ratio"):
        small_config(delta_ratio=math.inf).validate()
    assert cli.main([*argv, "--delta-ratio", "inf"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "configuration error: delta_ratio must be finite and exceed 1 (delta << epsilon)"
    ]


@pytest.mark.parametrize(
    "name", ["boxchain"] + [f"boxchain.{m.name}" for m in pkgutil.iter_modules(boxchain.__path__)]
)
def test_module_exports_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def _cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "boxchain.cli", *argv],
        capture_output=True,
        text=True,
    )


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--preset", "per31", "--epsilon", "0.03"],
        ["run", "--map", "quad_poly", "--c", "0", "--rprime", "2", "--schedule", "uniform*2", "--quiet"],
        ["inspect", "--model-in", str(DATA / "quad_uniform3.txt")],
        ["render", "--model-in", str(DATA / "quad_uniform3.txt"), "--resolution", "8"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_stdout_closed_early_exits_quietly(tmp_path, argv, unbuffered):
    # the reader closes its end before the command writes: exit 0, no
    # traceback and no "Exception ignored" line at interpreter exit
    if argv[0] == "render":
        argv = [*argv, "--image-out", str(tmp_path / "out.ppm")]
    proc = subprocess.Popen(
        [sys.executable, "-m", "boxchain.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == b""


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_cli_aborted_run_keeps_exit_code_on_closed_stdout(unbuffered):
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "boxchain.cli", "run", "--map", "quad_poly", "--c", "0",
            "--rprime", "2", "--schedule", "uniform*5", "--mem-budget-mb", "0.005", "--quiet",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 3
    assert err.startswith("aborted: ") and err.count("\n") == 1, err


def test_cli_run_and_render_roundtrip(tmp_path):
    model_path = str(tmp_path / "model.txt")
    image_path = str(tmp_path / "out.ppm")
    r = _cli(
        "run",
        "--map",
        "quad_poly",
        "--c",
        "0",
        "--rprime",
        "2",
        "--schedule",
        "uniform*4",
        "--model-out",
        model_path,
        "--quiet",
    )
    assert r.returncode == 0, r.stderr
    assert "separating" in r.stdout
    r2 = _cli(
        "render",
        "--model-in",
        model_path,
        "--image-out",
        image_path,
        "--window",
        "0,0,1.5",
        "--resolution",
        "32",
    )
    assert r2.returncode == 0, r2.stderr
    data = open(image_path, "rb").read()
    assert data.startswith(b"P6\n32 32\n255\n")
    r3 = _cli("inspect", "--model-in", model_path)
    assert r3.returncode == 0 and "boxes:" in r3.stdout


def test_cli_json_record(tmp_path):
    r = _cli(
        "run",
        "--map",
        "quad_poly",
        "--c",
        "0",
        "--rprime",
        "2",
        "--schedule",
        "uniform*3",
        "--json",
        "--quiet",
    )
    assert r.returncode == 0
    lines = [json.loads(line) for line in r.stdout.splitlines() if line.strip()]
    assert any("step" in obj for obj in lines)
    assert any("final" in obj for obj in lines)


def test_cli_exit_codes(tmp_path):
    # 2: config error (empty schedule token / bad map kind)
    r = _cli("run", "--map", "wavy", "--c", "0", "--schedule", "uniform")
    assert r.returncode == 2
    # 2: rprime below trapping radius
    r = _cli(
        "run", "--map", "quad_poly", "--c", "2", "--rprime", "1.5",
        "--schedule", "uniform",
    )
    assert r.returncode == 2
    # 4: parse error in schedule
    r = _cli(
        "run", "--map", "quad_poly", "--c", "0", "--rprime", "2",
        "--schedule", "bogus",
    )
    assert r.returncode == 4
    # 4: a schedule longer than any run can go
    r = _cli("run", "--preset", "per31", "--schedule", "uniform*1000000000")
    assert r.returncode == 4 and "longer than 62" in r.stderr
    # 4: parse error on model load
    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense\n")
    r = _cli("render", "--model-in", str(bad), "--image-out", str(tmp_path / "x.ppm"))
    assert r.returncode == 4
    # 3: memory budget abort
    r = _cli(
        "run", "--map", "quad_poly", "--c", "0", "--rprime", "2",
        "--schedule", "uniform*5", "--mem-budget-mb", "0.005", "--quiet",
    )
    assert r.returncode == 3


@pytest.mark.parametrize("kind", ["directory", "missing"])
def test_cli_unreadable_model_is_a_parse_error(kind, tmp_path):
    path = tmp_path if kind == "directory" else tmp_path / "none.txt"
    r = _cli("inspect", "--model-in", str(path))
    assert r.returncode == 4
    assert r.stderr.startswith(f"parse error: {path}: ") and "Traceback" not in r.stderr


@pytest.mark.parametrize("option", ["--model-out", "--image-out"])
def test_cli_output_in_a_missing_directory_is_refused_first(option, tmp_path):
    """An output path in a missing directory is a configuration error,
    found before the run's first step or the model's load."""
    out = str(tmp_path / "missing" / "x.txt")
    if option == "--model-out":
        r = _cli("run", "--preset", "altper2", "--schedule", "uniform*2", "--model-out", out)
    else:
        r = _cli("render", "--model-in", str(tmp_path / "none.txt"), "--image-out", out)
    assert r.returncode == 2
    assert r.stderr == f"configuration error: cannot write {out}: no directory {tmp_path / 'missing'}\n"


def test_model_out_that_is_a_directory_is_refused(tmp_path):
    config = RunConfig.from_preset("per31", schedule=["uniform"], model_out=str(tmp_path))
    with pytest.raises(UsageError, match="it is a directory"):
        run_pipeline(config)


def test_cli_bounds_table_output():
    r = _cli("bounds", "--preset", "per31", "--delta-ratio", "1000")
    assert r.returncode == 0
    out = r.stdout
    assert "tau = 0.029871571" in out
    assert "kappa = 2.5448759" in out
    assert "epsilon_star = 3.8807934e-05" in out
    assert "exact sink data" in out
    # one-dimensional superattracting case
    r2 = _cli("bounds", "--map", "quad_poly", "--c", "0", "--rprime", "2")
    assert "eta = 2.5000000e-01" in r2.stdout
    assert "kappa = 2.001" in r2.stdout
    # horseshoe: section absent
    r3 = _cli("bounds", "--preset", "complexhorse")
    assert "section absent" in r3.stdout
