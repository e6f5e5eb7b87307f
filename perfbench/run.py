"""boxchain benchmark: time to a certified model, persistence, rendering.

    python3 perfbench/run.py --workload altper2 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; boxchain is imported from ``src/``.
Closed loop, one client: every task runs in a fresh worker process
(``worker.py``), one after another, with the BLAS/OpenMP thread pools
pinned to at most ``nproc`` threads.

``--trace 0`` runs the set-up a few times, then timed operations until
``--seconds`` have passed (at least one), and reports the end-to-end
metrics of ``BENCHMARK.json``.  ``--trace 1`` runs the harness
self-test, one traced operation for the layer times and counts and one
that records memory peaks, and reports the per-layer metrics.  Every output is checked; a task
counts as failed when it raised or a check failed.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import AGGREGATED  # noqa: E402
from worker import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
TASK_TIMEOUT_S = 170
WINDOW_JITTER = 0.01  # seed-chosen offset of the render window centre
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _child_env(nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in THREAD_VARS:
        try:
            want = int(env.get(var, nproc))
        except ValueError:
            want = nproc
        env[var] = str(max(1, min(want, nproc)))
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "missing"


def environment(seed: int, env: dict, nproc: int) -> dict:
    block = {
        "nproc": nproc,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "commit": _git_commit(),
        "seed": seed,
    }
    block.update({var: env[var] for var in THREAD_VARS})
    return block


class Runner:
    """Starts worker tasks one at a time and collects their results."""

    def __init__(self, spec: dict, env: dict):
        self.spec = spec
        self.env = env
        self.results = []  # (task name, result dict)

    def run(self, task: str, **extra) -> dict:
        index = len(self.results)
        spec = dict(self.spec, task=task, index=index, **extra)
        out_path = os.path.join(self.spec["workdir"], f"result-{index}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec), out_path]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, stdout=sys.stderr, timeout=TASK_TIMEOUT_S
            )
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
        if code == 0 and os.path.exists(out_path):
            with open(out_path) as fh:
                result = json.load(fh)
        else:
            result = {"fails": [f"{task} worker ended with {code}"]}
        self.results.append((task, result))
        return result

    def repeat(self, task: str, seconds: float) -> list:
        """Closed loop: run ``task`` until ``seconds`` passed, at least once."""
        out = []
        t0 = time.perf_counter()
        while not out or time.perf_counter() - t0 < seconds:
            out.append(self.run(task))
        return out

    def compare_digests(self):
        """Outputs must be identical across every task of the run."""
        first = {}
        for task, result in self.results:
            for key in ("core", "model", "png"):
                if key not in result:
                    continue
                first.setdefault(key, result[key])
                if result[key] != first[key]:
                    result["fails"].append(f"{key} digest differs from the first task's")
        return first

    def counts(self):
        failed = sum(1 for _, r in self.results if r["fails"])
        return len(self.results), failed


def summary(values) -> str:
    """Median, the highest percentile with ten samples beyond it, and
    every sample."""
    values = sorted(values)
    n = len(values)
    text = f"median {statistics.median(values):.6g}  "
    if n >= 11:
        k = n - 10
        text += f"p{math.floor(100 * k / n)} {values[k - 1]:.6g}  "
    else:
        text += "no percentile has ten samples beyond it  "
    return text + f"n={n}  samples " + " ".join(f"{v:.4g}" for v in values)


def layer_metrics(names, traced: dict) -> dict:
    """Per-layer values of one traced operation, by metric name."""
    t = traced["tracer"]
    busy, self_s, calls, peak, counts = (
        t["busy"], t["self"], t["calls"], t["peak_mb"], t["counts"],
    )

    def ratio(a, b):
        return counts.get(a, 0) / counts[b] if counts.get(b) else 0.0

    derived = {
        "pipeline.other_s": self_s.get("pipeline.run_pipeline", 0.0),
        "boxtree.prune_yield": ratio("boxtree.escaping", "boxtree.boxes"),
        "chain_graph.edges_per_box": ratio("chain_graph.upsilon_edges", "chain_graph.upsilon_boxes"),
        "chain_graph.gamma_keep_frac": ratio("chain_graph.gamma_boxes", "chain_graph.upsilon_boxes"),
        "trace.op_s": traced["op_s"],
        "trace.overhead_s": t["overhead_s"],
        "trace.checks_s": t["check_s"],
        "trace.oracle_samples": traced["oracle_samples"],
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
            continue
        for suffix, table in (("_self_s", self_s), ("_peak_mb", peak), ("_calls", calls), ("_s", busy)):
            if name.endswith(suffix):
                out[name] = table.get(name[: -len(suffix)], 0 if suffix == "_calls" else 0.0)
                break
        else:
            out[name] = counts.get(name, 0)
    return out


def layer_sum_fails(traced: dict) -> list:
    """Self times of all spans must add up to the traced operation time."""
    t = traced["tracer"]
    total = sum(t["self"].values()) + t["busy"].get(AGGREGATED, 0.0)
    if abs(total - traced["op_s"]) > 0.05 * traced["op_s"]:
        return [f"layer self times sum to {total:.4f} s of {traced['op_s']:.4f} s"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "boxchain", "__init__.py")):
        print("perfbench: src/boxchain not found; run from a boxchain checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    nproc = _nproc()
    env = _child_env(nproc)
    jitter = random.Random(args.seed)
    center = [jitter.uniform(-WINDOW_JITTER, WINDOW_JITTER) for _ in range(2)]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"window centre {center[0]:+.5f}{center[1]:+.5f}i")
    print("environment " + json.dumps(environment(args.seed, env, nproc)))
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    spec = dict(workload=args.workload, seed=args.seed, center=center, workdir=workdir)
    runner = Runner(spec, env)
    try:
        if args.trace:
            metrics = trace_run(runner, bench, args)
        else:
            metrics = timed_run(runner, bench, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for task, result in runner.results:
        for fail in result["fails"]:
            print(f"FAIL [{task}] {fail}")
    attempted, failed = runner.counts()
    print(f"{'fail_frac':12s} {'-':3s} {failed / attempted:.4g}  ({failed} of {attempted} tasks raised or failed a check)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def timed_run(runner: Runner, bench: dict, args) -> dict:
    persist = WORKLOADS[args.workload].get("persist")
    setups = [runner.run("setup") for _ in range(SETUP_REPEATS)]
    ops = runner.repeat("op", args.seconds)
    digests = runner.compare_digests()

    def col(results, key):
        return [r[key] for r in results if key in r]

    samples = {
        "setup_s": col(setups, "setup_s"),
        "op_s": col(ops, "op_s"),
        "peak_rss_mb": col(ops, "rss_mb"),
    }
    shown = dict(samples)
    shown["run_s"] = col(setups if persist else ops, "run_s")
    for key in ("load_s", "save_s", "render_s"):
        shown[key] = col(ops, key)
    for key, values in shown.items():
        if values:
            unit = "MB" if key.endswith("_mb") else "s"
            print(f"{key:12s} {unit:3s} {summary(values)}")
    print("digests " + json.dumps(digests, sort_keys=True))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    return {
        name: {"value": statistics.median(samples[name]) if samples[name] else 0.0, "unit": unit}
        for name, unit in units.items()
    }


def trace_run(runner: Runner, bench: dict, args) -> dict:
    runner.run("setup")
    runner.run("selftest")
    traced = runner.run("traced")
    memory = runner.run("traced", peaks=True)
    runner.compare_digests()
    names = [m["name"] for m in bench["per_layer"]]
    if "tracer" not in traced or "tracer" not in memory:
        return {m["name"]: {"value": 0.0, "unit": m["unit"]} for m in bench["per_layer"]}
    traced["fails"] += layer_sum_fails(traced)
    times = layer_metrics(names, traced)
    peaks = layer_metrics(names, memory)
    for name, value in times.items():
        if isinstance(value, int) and peaks[name] != value:
            memory["fails"].append(f"count {name} differs between traced operations")
    metrics = {}
    for m in bench["per_layer"]:
        name = m["name"]
        value = peaks[name] if name.endswith("_peak_mb") else times[name]
        metrics[name] = {"value": value, "unit": m["unit"]}
        print(f"{name:40s} {value:>14.6g} {m['unit']}")
    spans_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(spans_dir, exist_ok=True)
    spans_path = os.path.join(spans_dir, f"spans-{args.workload}-seed{args.seed}.json")
    with open(spans_path, "w") as fh:
        json.dump(traced["spans"], fh)
    print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
