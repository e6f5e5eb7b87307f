"""The benchmark wraps named boxchain functions from outside (see
``perfbench/tracer.py``).  A refactor that drops or moves one of those
names must fail the test suite, not only the benchmark."""

import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_tracer_hooks_and_selftest(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from selftest import run_selftest
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()  # raises if a hooked name is no longer defined on its owner
    tracer.uninstall()
    assert run_selftest() == []
