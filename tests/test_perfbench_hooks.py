"""The benchmark wraps named boxchain functions from outside (see
``perfbench/tracer.py``).  A refactor that drops or moves one of those
names must fail the test suite, not only the benchmark."""

import os
import threading
import time

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_tracer_hooks_and_selftest(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from selftest import run_selftest
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()  # raises if a hooked name is no longer defined on its owner
    tracer.uninstall()
    assert run_selftest() == []


def test_traced_run_keeps_its_spans_nested(monkeypatch):
    """The pooled phases call no wrapped name from a pool thread: in a
    traced altper2 run every span opens on the calling thread, the span
    stack ends empty, every span lies inside its parent's interval, and
    the layer self times add up to the run."""
    monkeypatch.syspath_prepend(PERFBENCH)
    from boxchain import boxtree, pool
    from boxchain.pipeline import RunConfig, parse_schedule, run_pipeline
    from run import layer_sum_fails
    from tracer import Tracer

    monkeypatch.setattr(pool, "worker_count", lambda: 2)
    monkeypatch.setattr(boxtree, "_PRUNE_PIECE", 1024)
    monkeypatch.setattr(boxtree, "_LOOKUP_PIECE", 1024)
    config = RunConfig.from_preset("altper2", schedule=parse_schedule("uniform*5,sink_basin"))
    tracer = Tracer().install()
    threads = set()
    open_span = tracer._open

    def recording_open(name):
        threads.add(threading.get_ident())
        open_span(name)

    monkeypatch.setattr(tracer, "_open", recording_open)
    try:
        t0 = time.perf_counter()
        run_pipeline(config)
        op_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert threads == {threading.get_ident()}  # no span opened on a pool thread
    assert tracer._stack == []
    names = {name for name, *_ in tracer.spans}
    assert {"boxtree.prune_escaping", "chain_graph.build_edges", "maps.batch_forward"} <= names
    for name, start, end, parent in tracer.spans:
        assert start <= end, name
        if parent >= 0:
            _, p_start, p_end, _ = tracer.spans[parent]
            assert p_start <= start and end <= p_end, name
    traced = {"tracer": {"self": tracer.self_s, "busy": tracer.busy}, "op_s": op_s}
    assert layer_sum_fails(traced) == []
