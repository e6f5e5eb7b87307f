"""One benchmark task in a fresh process.

    python3 perfbench/worker.py '<task spec as JSON>' <result path>

``run.py`` starts one worker per task, so the import cost is paid (and
measured) by every set-up task and ``ru_maxrss`` is the peak of that one
task.  Tasks:

* ``setup``: import boxchain and build the workload's inputs; for
  ``persist_render`` that is the model file the operations read.
* ``op``: one timed operation, outputs checked and digested.
* ``traced``: the same operation with every layer wrapped by
  ``tracer.Tracer`` plus the per-step checks (fixed points in Gamma,
  sampled edge oracle); reports the per-layer numbers.  With
  ``peaks`` set it records tracemalloc peaks instead of usable times.
* ``selftest``: the harness self-test of ``selftest.py``.

boxchain is imported inside the tasks, never at module level, so the
set-up time includes it.  The result is written as JSON to the result
path.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

_now = time.perf_counter

WORKLOADS = {
    # the paper's separation run (criterion 4): C^2, three depths after
    # the sink-basin steps; build_edges dominates
    "altper2": dict(preset="altper2", schedule="uniform*6,sink_basin*2", separating=True),
    # 1-D cubic, forward pruning only: subdivide, prune and SCC weigh
    # more, and candidate sets are 3^2 instead of 3^4 cells per box
    "cubic11": dict(preset="cubicdouble", schedule="uniform*11", separating=False),
    # read-only use of the tree: load, save and a 512^2 render of the
    # altper2 uniform*6 model (built once per set-up, with edges)
    "persist_render": dict(preset="altper2", schedule="uniform*6", persist=True),
}

RESOLUTION = 512
HALF_WIDTH = 1.0
ORACLE_SAMPLES = 48


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _config(spec):
    from boxchain.pipeline import RunConfig, parse_schedule

    w = WORKLOADS[spec["workload"]]
    return RunConfig.from_preset(
        w["preset"],
        schedule=parse_schedule(w["schedule"]),
        save_edges=bool(w.get("persist")),
    )


def task_setup(spec, t_start):
    from boxchain import pipeline
    from checks import check_record, core_digest, digest

    config = _config(spec)
    out = {"fails": []}
    if WORKLOADS[spec["workload"]].get("persist"):
        t0 = _now()
        result = pipeline.run_pipeline(config)
        out["run_s"] = _now() - t0
        path = os.path.join(spec["workdir"], f"model-setup-{spec['index']}.txt")
        pipeline.save_model(path, result.model, result.gamma, include_edges=True)
        out["setup_s"] = _now() - t_start
        out["fails"] += check_record(result, config.schedule, want_separating=False)
        with open(path, "rb") as fh:
            out["model"] = digest(fh.read())
        out["core"] = core_digest(result.record)
    else:
        out["setup_s"] = _now() - t_start
    return out


def _run_op(spec, on_step=None):
    from boxchain import pipeline
    from checks import check_record, core_digest

    w = WORKLOADS[spec["workload"]]
    config = _config(spec)
    t0 = _now()
    result = pipeline.run_pipeline(config, on_step=on_step)
    op_s = _now() - t0
    fails = check_record(result, config.schedule, w["separating"])
    return {"op_s": op_s, "run_s": op_s, "fails": fails, "core": core_digest(result.record)}


def _persist_op(spec):
    from boxchain import pipeline, render
    from checks import check_png, digest

    source = os.path.join(spec["workdir"], "model-setup-0.txt")
    target = os.path.join(spec["workdir"], f"model-op-{os.getpid()}.txt")
    t0 = _now()
    model, tree, gamma = pipeline.load_model(source)
    t1 = _now()
    pipeline.save_model(target, model, gamma, include_edges=True)
    t2 = _now()
    saddle = render.pick_saddle(model)
    cfg = render.RenderConfig(
        center=complex(*spec["center"]), half_width=HALF_WIDTH, resolution=RESOLUTION
    )
    t3 = _now()
    image = render.render_slice(gamma, model, saddle, cfg)
    png = image.png_bytes()
    t4 = _now()
    with open(source, "rb") as fh:
        source_bytes = fh.read()
    with open(target, "rb") as fh:
        saved = fh.read()
    os.remove(target)
    fails = check_png(png, RESOLUTION, RESOLUTION)
    if saved != source_bytes:
        fails.append("save -> load -> save is not byte-identical")
    if all(p == 255 for p in image.pixels):
        fails.append("render shows no model box")
    return {
        "op_s": (t1 - t0) + (t2 - t1) + (t4 - t3),
        "load_s": t1 - t0,
        "save_s": t2 - t1,
        "render_s": t4 - t3,
        "fails": fails,
        "model": digest(saved),
        "png": digest(png),
    }


def task_op(spec, t_start):
    if WORKLOADS[spec["workload"]].get("persist"):
        return _persist_op(spec)
    return _run_op(spec)


def task_traced(spec, t_start):
    import numpy as np
    from boxchain.maps import fixed_points, sink_orbits
    from checks import check_coverage, edge_oracle, sample_leaves
    from tracer import Tracer

    rng = np.random.default_rng(spec["seed"])
    oracle = {"samples": 0, "fails": []}

    def after_build_edges(graph, tree, model, delta):
        leaves = sample_leaves(graph, rng, ORACLE_SAMPLES)
        oracle["samples"] += len(leaves)
        oracle["fails"] += edge_oracle(graph, tree, model, delta, leaves)

    tracer = Tracer(peaks=spec.get("peaks", False)).install(after_build_edges)
    try:
        if WORKLOADS[spec["workload"]].get("persist"):
            out = _persist_op(spec)
        else:
            model = _config(spec).build_model()
            fixed = [fp.location for fp in fixed_points(model)]
            sinks = [p for o in sink_orbits(model) if o.method == "exact" for p in o.points]
            coverage = []

            def on_step(step, tree, gamma, classification):
                with tracer.check("bench.coverage"):
                    coverage.extend(check_coverage(tree, gamma, fixed, "fixed point"))
                    coverage.extend(check_coverage(tree, gamma, sinks, "sink point"))

            out = _run_op(spec, on_step=on_step)
            out["fails"] += coverage
    finally:
        tracer.uninstall()
    out["fails"] += oracle["fails"]
    out["op_s"] -= tracer.check_s
    out["oracle_samples"] = oracle["samples"]
    out["tracer"] = {
        "busy": tracer.busy,
        "self": tracer.self_s,
        "calls": tracer.calls,
        "peak_mb": tracer.peak_mb,
        "counts": tracer.counts,
        "check_s": tracer.check_s,
        "overhead_s": tracer.overhead_s(),
    }
    out["spans"] = tracer.spans
    return out


def task_selftest(spec, t_start):
    from selftest import run_selftest

    return {"fails": run_selftest()}


TASKS = {"setup": task_setup, "op": task_op, "traced": task_traced, "selftest": task_selftest}


def main(argv):
    t_start = _now()
    spec = json.loads(argv[1])
    out = TASKS[spec["task"]](spec, t_start)
    out["rss_mb"] = _rss_mb()
    with open(argv[2], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
