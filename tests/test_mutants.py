"""Mutants of the rigor guards: each case applies one named mutant of a
guarded function in-process and runs the guard's check, which must fail.

A mutant replaces one snippet of the function's source, compiled in the
function's own module scope; the modules that bound the function by
name (its own and the guard's) get the mutant in its place.  A case
fails when the snippet is gone, so a rewrite of a guarded function must
bring its mutant along."""

import inspect
import sys

import pytest

from boxchain import chain_graph

import test_chain_graph as guards


def lift_on_tree():
    guards.test_lift_equals_scc_of_the_explicit_graph_on_mirrored_trees(guards.altper2, 3, 2)


def lift_on_random_digraphs():
    guards.test_lift_equals_scc_of_the_explicit_graph_on_random_mirrored_digraphs()


# name: (function, snippet, its replacement, the guard that must fail)
MUTANTS = {
    "sigma entries left out of the table": (
        chain_graph.build_edges,
        "else np.flatnonzero(mirror < np.arange(n))",
        "else np.empty(0, dtype=np.int64)",
        lift_on_tree,
    ),
    "search not stopped at component boundaries": (
        chain_graph._parity_labelling,
        "inner = raw[dst] == raw[src]",
        "inner = np.ones(len(dst), dtype=bool)",
        guards.test_lift_of_an_even_cycle_reached_first_from_outside,
    ),
    "broken-edge pass without the sigma parity": (
        chain_graph._parity_labelling,
        "broken ^= sigma[src]\n",
        "\n",
        lift_on_random_digraphs,
    ),
}


def apply_mutant(monkeypatch, fn, old: str, new: str) -> None:
    source = inspect.getsource(fn)
    assert source.count(old) == 1, f"{fn.__name__} does not hold {old!r} once"
    module = sys.modules[fn.__module__]
    scope = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), scope)
    for bound in (module, guards):
        if getattr(bound, fn.__name__, None) is fn:
            monkeypatch.setattr(bound, fn.__name__, scope[fn.__name__])


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_is_caught(name, monkeypatch):
    fn, old, new, guard = MUTANTS[name]
    apply_mutant(monkeypatch, fn, old, new)
    with pytest.raises(AssertionError):
        guard()
