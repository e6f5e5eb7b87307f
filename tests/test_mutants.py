"""Mutants of the rigor guards: each case applies one named mutant of a
guarded function in-process and runs the guard's check, which must fail
with the exception the case names.

A mutant replaces one snippet of the function's source, compiled in the
function's own module scope; the modules that bound the function by
name (its own and the guard's), or the class of a method, get the
mutant in its place.  A case fails when the snippet is gone, so a
rewrite of a guarded function must bring its mutant along.  A guard
takes the case's monkeypatch and tmp_path fixtures."""

import inspect
import sys
import textwrap
import types

import pytest

from boxchain import boxtree, chain_graph, pipeline

import test_boxtree
import test_chain_graph as guards
import test_pipeline


def lift_on_tree(monkeypatch, tmp_path):
    guards.test_lift_equals_scc_of_the_explicit_graph_on_mirrored_trees(guards.altper2, 3, 2)


def lift_on_random_digraphs(monkeypatch, tmp_path):
    guards.test_lift_equals_scc_of_the_explicit_graph_on_random_mirrored_digraphs()


def lift_on_even_cycle(monkeypatch, tmp_path):
    guards.test_lift_of_an_even_cycle_reached_first_from_outside()


def records_in_37_byte_pieces(monkeypatch, tmp_path):
    test_pipeline.test_text_records_match_line_by_line_parse(monkeypatch, 37)


def truncated_models(monkeypatch, tmp_path):
    test_pipeline.test_truncated_model_rejected(tmp_path)


def tiling_in_1_row_pieces(monkeypatch, tmp_path):
    test_boxtree.test_restore_in_pieces_names_the_smallest_clashing_pair(monkeypatch, 1)


def mirrored_build_on_circle(monkeypatch, tmp_path):
    guards.test_mirrored_build_and_prune_equal_the_full_ones(guards.quad_c0, 5, 1, monkeypatch)


def lookup_against_brute_force(monkeypatch, tmp_path):
    test_boxtree.test_lookup_in_runs_matches_brute_force(
        test_boxtree.per31, 3, 0, True, boxtree._CHUNK_CANDIDATES, monkeypatch
    )


def refinement_on_cubicdouble(monkeypatch, tmp_path):
    test_pipeline.test_refined_edges_lie_over_edges_of_the_step_before(monkeypatch, "cubicdouble", "uniform*8")


def depth_cap_on_2_axes(monkeypatch, tmp_path):
    test_boxtree.test_narrow_arrays_at_the_depth_cap(test_boxtree.quad_c0, 31)


def depth_cap_on_4_axes(monkeypatch, tmp_path):
    test_boxtree.test_narrow_arrays_at_the_depth_cap(test_boxtree.per31, 15)


# a mirrored row's edges read as its mirror's stored ones, unflipped
NO_SIGMA_FLIP = (chain_graph.ChainGraph.row_edge_blocks, "stored[start:stop] < src", "stored[start:stop] > src")
DROP_ONE_PAIR_IN_100 = (
    boxtree._matches,
    "return np.repeat(item, count), at",
    "keep = np.arange(len(at)) % 100 != 99\n    return np.repeat(item, count)[keep], at[keep]",
)
# packed keys shifted in int32, which drops the high bits at the cap
PACK_IN_INT32 = (boxtree._pack, "idx[:, 0].astype(np.int64)", "idx[:, 0].copy()")

# name: (function, snippet, its replacement, the guard that must fail, how)
MUTANTS = {
    "sigma entries left out of the table": (
        chain_graph.build_edges,
        "else np.flatnonzero(mirror < np.arange(n))",
        "else np.empty(0, dtype=np.int64)",
        lift_on_tree,
        AssertionError,
    ),
    "search not stopped at component boundaries": (
        chain_graph._parity_labelling,
        "inner = raw[dst] == raw[src]",
        "inner = np.ones(len(dst), dtype=bool)",
        lift_on_even_cycle,
        AssertionError,
    ),
    "broken-edge pass without the sigma parity": (
        chain_graph._parity_labelling,
        "broken ^= sigma[src]\n",
        "\n",
        lift_on_random_digraphs,
        AssertionError,
    ),
    "reader that drops each piece's last line": (
        pipeline._read_piece,
        "lines[name] = rows\n",
        "lines[name] = rows[rows < len(head) - 1]\n",
        records_in_37_byte_pieces,
        AssertionError,
    ),
    # the lines beyond a false header count are written past their tag's
    # share of the keys, and the X lines past the array's end
    "key array with no room for the lines beyond the header's count": (
        pipeline._load,
        "table = table[: max(stop - at, 0)]",
        "table = table",
        truncated_models,
        ValueError,
    ),
    "tiling check that skips the last piece of rows": (
        boxtree._smallest_clash,
        "range(0, n, _LOOKUP_PIECE)",
        "range(0, n - _LOOKUP_PIECE, _LOOKUP_PIECE)",
        tiling_in_1_row_pieces,
        AssertionError,
    ),
    "mirror read without the sigma flip (mirrored build)": (
        *NO_SIGMA_FLIP,
        mirrored_build_on_circle,
        AssertionError,
    ),
    "mirror read without the sigma flip (lift)": (
        *NO_SIGMA_FLIP,
        lift_on_random_digraphs,  # through assert_lift_equals_scc
        AssertionError,
    ),
    "lookup that drops one pair in a hundred (brute force)": (
        *DROP_ONE_PAIR_IN_100,
        lookup_against_brute_force,
        AssertionError,
    ),
    "lookup that drops one pair in a hundred (refinement)": (
        *DROP_ONE_PAIR_IN_100,
        refinement_on_cubicdouble,
        AssertionError,
    ),
    "upper cell bounds from an int32 index + 1": (
        boxtree.BoxTree._box_bounds,
        "(idx + 1.0) * cells",
        "(idx + 1) * cells",
        depth_cap_on_2_axes,
        AssertionError,
    ),
    "keys packed in int32 (2 axes)": (
        *PACK_IN_INT32,
        depth_cap_on_2_axes,
        AssertionError,
    ),
    "keys packed in int32 (4 axes)": (
        *PACK_IN_INT32,
        depth_cap_on_4_axes,
        AssertionError,
    ),
}


def apply_mutant(monkeypatch, fn, old: str, new: str) -> None:
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, f"{fn.__name__} does not hold {old!r} once"
    module = sys.modules[fn.__module__]
    scope = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), scope)
    # the mutant reads the module's globals as they are when it runs, so
    # it sees what a guard patches there
    code = scope[fn.__name__]
    mutant = types.FunctionType(code.__code__, vars(module), fn.__name__, code.__defaults__)
    mutant.__kwdefaults__ = code.__kwdefaults__
    owner = fn.__qualname__.rpartition(".")[0]
    if owner:  # a method
        monkeypatch.setattr(getattr(module, owner), fn.__name__, mutant)
    for bound in (module, guards):
        if getattr(bound, fn.__name__, None) is fn:
            monkeypatch.setattr(bound, fn.__name__, mutant)


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_is_caught(name, monkeypatch, tmp_path):
    fn, old, new, guard, failure = MUTANTS[name]
    apply_mutant(monkeypatch, fn, old, new)
    with pytest.raises(failure):
        guard(monkeypatch, tmp_path)
