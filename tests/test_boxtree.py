"""Box tree tests: exact tiling, subdivision, linear-scan query oracle,
escape pruning, and the sink-basin selector."""

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxchain.ia import BoxRegion, ComplexInterval, Interval, UsageError, box_predicates
from boxchain.errors import ResourceError
from boxchain import boxtree
from boxchain.maps import MapModel, fixed_points, snap_up_dyadic
from boxchain.boxtree import BoxTree, cell_range, init_root, sink_basin_selector
from boxchain.pipeline import preset_params
from support_trees import has_leaf, leaf_address, live_ids


def quad_c0(rp=2.0):
    return MapModel("quad_poly", c="0", r_prime=rp)


def per31():
    return MapModel("henon_complex", c="-1.17", a="0.3", r_prime=2.01)


def altper2():
    return MapModel("henon_complex", c="-1.1875", a="0.15", r_prime=1.9)


def realhorse():
    return MapModel(**preset_params("realhorse"))


def henon_a15():
    """An area-expanding complex Henon map, |a| = 1.5 > 1."""
    return MapModel("henon_complex", c="-3", a="1.5")


def real_a13():
    """An area-expanding real Henon map, |a| = 1.3 > 1."""
    return MapModel("henon_real", c="-4", a="1.3")


def subdivide_all(tree, times=1):
    for _ in range(times):
        tree.subdivide(lambda lid: True)


# ---------------------------------------------------------------------------
# init_root / subdivision
# ---------------------------------------------------------------------------


def test_root_box_henon():
    m = altper2()
    tree = init_root(m)
    assert tree.leaf_count == 1
    rp = snap_up_dyadic(1.9)
    (lid,) = live_ids(tree)
    box = tree.leaf_box(lid)
    for ax in box.axes():
        assert ax == Interval(-rp, rp)
    assert tree.epsilon() == 2 * rp
    depth, idx = leaf_address(tree, lid)
    assert depth == 0 and idx == (0, 0, 0, 0)


def test_root_box_one_dim():
    tree = init_root(quad_c0())
    (lid,) = live_ids(tree)
    box = tree.leaf_box(lid)
    assert [tuple((a.lo, a.hi)) for a in box.axes()] == [(-2.0, 2.0), (-2.0, 2.0)]


def test_uniform_subdivision_counts():
    tree = init_root(per31())
    subdivide_all(tree)
    assert tree.leaf_count == 16
    subdivide_all(tree)
    assert tree.leaf_count == 256
    rp = tree.r_prime
    assert tree.epsilon() == 2 * rp / 4
    assert tree.epsilon() == tree.epsilon_min()


def test_exact_tiling_at_depth():
    m = quad_c0()
    tree = init_root(m)
    subdivide_all(tree, 3)
    rp = tree.r_prime
    cell = tree.cell_size(3)
    # cells tile [-R', R'] exactly per axis
    seen = sorted(leaf_address(tree, l)[1] for l in live_ids(tree))
    assert seen == sorted(itertools.product(range(8), repeat=2))
    for lid in live_ids(tree):
        box = tree.leaf_box(lid)
        for k, ax in enumerate(box.axes()):
            i = leaf_address(tree, lid)[1][k]
            assert ax.lo == -rp + i * cell
            assert ax.hi == -rp + (i + 1) * cell
            assert -rp <= ax.lo < ax.hi <= rp
    # exact reconstruction of the full extent
    bounds = sorted({tree.leaf_box(l).axes()[0].lo for l in live_ids(tree)})
    assert bounds[0] == -rp and len(bounds) == 8


def test_selective_subdivision_keeps_others():
    m = quad_c0()
    tree = init_root(m)
    subdivide_all(tree, 4)
    start = tree.addresses()
    probe = BoxRegion([ComplexInterval(Interval(-0.01, 0.01), Interval(-0.01, 0.01))])
    hits = set(tree.query_intersect(probe))
    assert hits
    report = tree.subdivide(lambda lid: lid in hits)
    assert report.selected == len(hits)
    assert report.created == 4 * len(hits)
    # unselected leaves unchanged
    after = tree.addresses()
    untouched = {a for a in start if a in after}
    assert len(untouched) == len(start) - len(hits)
    assert tree.epsilon() == tree.cell_size(4)
    assert tree.epsilon_min() == tree.cell_size(5)


def test_nesting_under_subdivision():
    tree = init_root(per31())
    subdivide_all(tree, 2)
    before = tree.addresses()
    tree.subdivide(lambda lid: lid % 3 == 0)
    for depth, idx in tree.addresses():
        # every live leaf descends from a leaf of the previous state
        found = False
        for d0, i0 in before:
            if depth >= d0 and tuple(i >> (depth - d0) for i in idx) == i0:
                found = True
                break
        assert found


def test_depth_limit():
    # packed addresses cap the depth at 62 // naxes
    for model, cap in ((quad_c0(), 31), (per31(), 15)):
        tree = BoxTree.restore(model, [[cap] + [0] * model.naxes])
        assert tree.max_depth == cap
        with pytest.raises(ResourceError, match="62"):
            tree.subdivide(lambda lid: True)


def _cells_at_the_cap(model, cap):
    """Distinct, non-nested cells (depth, indices) closed under the map's
    conjugation, with the extreme indices 0 and 2^cap - 1 at the cap and
    cells at three shallower depths; each candidate is kept with its
    mirror when neither nests a cell kept before it."""
    naxes, axes = model.naxes, model.conjugation_axes
    top = (1 << cap) - 1
    half = (1 << (cap - 1)) - 1

    def mirror(depth, idx):
        return depth, tuple((1 << depth) - 1 - i if k in axes else i for k, i in enumerate(idx))

    def nests(a, b):
        (da, ia), (db, ib) = sorted((a, b))
        return all(j >> (db - da) == i for i, j in zip(ia, ib))

    candidates = [
        (cap, (0,) * naxes),
        (cap, (top,) * naxes),
        (cap, tuple(top * (k % 2) for k in range(naxes))),
        (cap - 1, (half - 1,) * naxes),
        (2, (1,) * naxes),
        (1, (0,) * naxes),
        (1, (1,) * naxes),
    ]
    kept = []
    for cell in candidates:
        pair = {cell, mirror(*cell)}
        if not any(nests(a, b) for a in pair for b in kept):
            kept.extend(sorted(pair))
    return kept


@pytest.mark.parametrize("make,cap", [(quad_c0, 31), (per31, 15)], ids=["2-axes", "4-axes"])
def test_narrow_arrays_at_the_depth_cap(make, cap):
    """Depths are int8 and grid indices int32 (an index is below 2^31
    as the cap is 62 // naxes <= 31); each step that shifts, packs or
    adds widens first.  At the cap, the bounds, the packed keys, the
    mirror table and a subdivision below the cap equal an int64
    reference, and the dtypes survive subdivision, escape pruning,
    ``remove_leaves`` and ``restore``."""
    model = make()
    cells = _cells_at_the_cap(model, cap)
    table = np.array([[d, *i] for d, i in cells], dtype=np.int64)
    assert len({d for d, _ in cells}) >= 3 and table[:, 1:].max() == (1 << cap) - 1
    tree = BoxTree.restore(model, table)

    def check_dtypes():
        _, depths, idx, _, _ = tree.live_arrays()
        assert (depths.dtype, idx.dtype) == (np.int8, np.int32)
        assert tree.address_table(tree.leaf_ids).dtype == np.int64

    check_dtypes()
    np.testing.assert_array_equal(tree.address_table(tree.leaf_ids), table)
    depths, idx = table[:, 0], table[:, 1:]
    cells_size = np.ldexp(model.r_prime, 1 - depths)[:, None]
    lo, hi = tree.leaf_bounds(np.arange(len(table)))
    np.testing.assert_array_equal(lo, -model.r_prime + idx * cells_size)
    np.testing.assert_array_equal(hi, -model.r_prime + (idx + 1) * cells_size)
    # packed keys: axis 0 in the high bits, depth bits per axis
    for depth in np.unique(depths).tolist():
        rows = np.flatnonzero(depths == depth)
        want = [functools.reduce(lambda key, i: key << depth | i, row, 0) for row in idx[rows].tolist()]
        assert boxtree._pack(tree.live_arrays()[2][rows], depth).tolist() == want
    # the mirror of each leaf, found through the address index
    _, mirror = tree.conjugate_rows()
    flipped = [(d, tuple((1 << d) - 1 - i if k in model.conjugation_axes else i for k, i in enumerate(row)))
               for d, row in zip(depths.tolist(), idx.tolist())]
    assert [cells[r] for r in mirror.tolist()] == flipped

    tree.subdivide(lambda lid: leaf_address(tree, lid)[0] < cap)
    check_dtypes()
    offsets = list(itertools.product((0, 1), repeat=model.naxes))
    want = {(d, i) for d, i in cells if d == cap}
    want |= {(d + 1, tuple(2 * a + b for a, b in zip(i, o))) for d, i in cells if d < cap for o in offsets}
    assert {leaf_address(tree, lid) for lid in live_ids(tree)} == want
    tree.prune_escaping(2)
    check_dtypes()
    assert 0 < tree.leaf_count < len(want)
    tree.remove_leaves(tree.leaf_ids[::3])
    check_dtypes()
    again = BoxTree.restore(model, tree.address_table(tree.leaf_ids))
    for a, b in zip(again.live_arrays()[1:], tree.live_arrays()[1:]):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_restore_names_the_smallest_clashing_pair():
    # rows 0 and 3 nest, and so do rows 2 and 1; the message names (0, 3)
    # whichever pair the lookup yields first
    with pytest.raises(UsageError, match=r"^nested addresses 1 \(0, 0\) and 3 \(0, 0\)$"):
        BoxTree.restore(quad_c0(), [[1, 0, 0], [3, 7, 7], [1, 1, 1], [3, 0, 0]])


# ---------------------------------------------------------------------------
# query_intersect
# ---------------------------------------------------------------------------


def test_query_all_and_empty():
    m = per31()
    tree = init_root(m)
    subdivide_all(tree, 2)
    v0 = m.v0_box()
    assert tree.query_intersect(v0) == live_ids(tree)
    rp = tree.r_prime
    far = Interval(rp + 1.0, rp + 2.0)
    probe = BoxRegion(
        [ComplexInterval(far, far), ComplexInterval(far, far)]
    )
    assert tree.query_intersect(probe) == []


def _random_probe(rng, rp, ncoords, real, point=False):
    """Random closed box in and around V0, or with ``point`` a degenerate
    one; about half the endpoints lie on grid lines of depths 0-6."""

    def endpoint():
        if rng.random() < 0.5:
            depth = rng.randint(0, 6)
            return -rp + rng.randint(-1, (1 << depth) + 1) * math.ldexp(rp, 1 - depth)
        return rng.uniform(-1.5 * rp, 1.5 * rp)

    axes = []
    n_real = ncoords * (1 if real else 2)
    for _ in range(n_real):
        a = endpoint()
        axes.append(Interval(*sorted((a, a if point else endpoint()))))
    zero = Interval(0.0, 0.0)
    if real:
        coords = [ComplexInterval(ax, zero) for ax in axes]
    else:
        coords = [
            ComplexInterval(axes[2 * k], axes[2 * k + 1]) for k in range(ncoords)
        ]
    return BoxRegion(coords, real=real)


def _check_against_linear_scan(tree, ncoords, probes, seed):
    """query_intersect, and leaves_containing_point for the degenerate
    probes (every fourth), equal a linear scan over the leaves; one bulk
    lookup of all the probes yields each meeting pair exactly once."""
    rng = random.Random(seed)
    boxes = {lid: tree.leaf_box(lid) for lid in live_ids(tree)}
    want_pairs, axes = [], []
    for k in range(probes):
        point = k % 4 == 0
        probe = _random_probe(rng, tree.r_prime, ncoords, False, point)
        want = sorted(
            lid for lid, b in boxes.items() if box_predicates(b, probe).intersects
        )
        assert tree.query_intersect(probe) == want
        if point:
            values = tuple(iv.lo for iv in probe.axes())
            assert tree.leaves_containing_point(values) == want, values
        want_pairs += [(k, lid) for lid in want]
        axes.append(probe.axes())
    lo = np.array([[iv.lo for iv in row] for row in axes])
    hi = np.array([[iv.hi for iv in row] for row in axes])
    query, lid = tree.meeting(lo, hi)
    got = list(zip(query.tolist(), lid.tolist()))
    assert len(got) == len(set(got)), "a pair was yielded twice"
    assert sorted(got) == want_pairs


def test_query_matches_linear_scan_oracle():
    m = quad_c0()
    tree = init_root(m)
    subdivide_all(tree, 4)
    tree.subdivide(lambda lid: lid % 5 == 0)  # mixed depths
    _check_against_linear_scan(tree, 1, 400, seed=12)


def test_query_matches_linear_scan_henon():
    m = per31()
    tree = init_root(m)
    subdivide_all(tree, 2)
    tree.subdivide(lambda lid: lid % 2 == 0)
    _check_against_linear_scan(tree, 2, 200, seed=13)


@pytest.mark.parametrize("make,ncoords,depth,every", [(quad_c0, 1, 4, 4), (per31, 2, 2, 16)])
def test_query_matches_linear_scan_three_depths(make, ncoords, depth, every):
    # a small subset subdivided twice, as two sink-basin steps do: three
    # live depths, the deepest one sparse in its grid
    tree = init_root(make())
    subdivide_all(tree, depth)
    old = max(live_ids(tree))
    tree.subdivide(lambda lid: lid % 8 == 0)
    tree.subdivide(lambda lid: lid > old and (lid - old) % every == 1)
    assert len(tree.depth_counts()) == 3
    _check_against_linear_scan(tree, ncoords, 150, seed=14)


def _pairs_reference(tree, lo, hi) -> set:
    """Every (query, leaf row) pair whose closed boxes meet, by comparing
    each query with every leaf's exact bounds, axis by axis: a NaN end
    meets nothing, and an inverted range meets the cells both ends reach."""
    _, _, _, leaf_lo, leaf_hi = tree.live_arrays()
    meets = np.ones((len(lo), tree.leaf_count), dtype=bool)
    for k in range(tree.naxes):
        meets &= leaf_lo[None, :, k] <= hi[:, None, k]
        meets &= leaf_hi[None, :, k] >= lo[:, None, k]
    return set(zip(*(a.tolist() for a in np.nonzero(meets))))


def _run_edge_queries(tree, rng, count):
    """(lo, hi) of ``count`` random queries plus the edge cases of a lookup
    in runs along the last axis: ranges in cells at every depth from the
    root to one below the deepest, their ends on grid lines or one ulp
    off them, last-axis ranges clipped at both grid ends, single points
    on grid corners, empty, inverted and NaN ranges."""
    rp, naxes = tree.r_prime, tree.naxes
    deepest = max(tree.live_depths())
    rows_lo, rows_hi = [], []
    for q in range(count):
        depth = int(rng.integers(0, deepest + 2))
        cell = tree.cell_size(depth)
        i0 = rng.integers(-2, (1 << depth) + 2, naxes)
        i1 = i0 + rng.integers(0, 4, naxes)
        lo, hi = -rp + i0 * cell, -rp + (i1 + 1) * cell
        for end, way in ((lo, -math.inf), (hi, math.inf)):
            for k in np.flatnonzero(rng.random(naxes) < 0.3):
                end[k] = math.nextafter(end[k], way if rng.random() < 0.5 else -way)
        kind = q % 8
        if kind == 1:  # the whole last axis, and past it
            lo[-1], hi[-1] = (-rp, rp) if rng.random() < 0.5 else (-2 * rp, math.inf)
        elif kind == 2:  # a point on a corner of the deepest grid
            lo = hi = -rp + rng.integers(0, (1 << deepest) + 1, naxes) * tree.cell_size(deepest)
        elif kind == 3:  # empty: outside V0, or inverted across a grid line
            k = rng.integers(naxes)
            if rng.random() < 0.5:
                lo[k] = hi[k] = rp * 1.5
            else:
                lo[k], hi[k] = hi[k], lo[k]
        elif kind == 4:
            (lo if rng.random() < 0.5 else hi)[rng.integers(naxes)] = math.nan
        rows_lo.append(lo)
        rows_hi.append(hi)
    return np.array(rows_lo), np.array(rows_hi)


def _run_tree(make, depth, steps, mirrored, seed):
    """A tree uniform to ``depth``, then ``steps`` subdivisions of a
    random third of the leaves (closed under conjugation if
    ``mirrored``), and the leaves in the top eighth of axis 0 dropped, so
    some runs start past the last key of their depth."""
    rng = np.random.default_rng(seed)
    tree = init_root(make())
    subdivide_all(tree, depth)
    for _ in range(steps):
        chosen = rng.random(tree.leaf_count) < 0.3
        if mirrored:
            chosen |= chosen[tree.conjugate_rows()[1]]
        picked = set(tree.leaf_ids[chosen].tolist())
        tree.subdivide(lambda lid: lid in picked)
    ids, depths, idx, _, _ = tree.live_arrays()
    tree.remove_leaves(ids[(idx[:, 0] >> (depths - 3)) == 7])
    assert (tree.conjugate_rows()[1] is not None) == mirrored
    assert len(tree.depth_counts()) == 1 + steps
    return tree


@pytest.mark.parametrize(
    "make,depth,steps,mirrored,chunk",
    [
        pytest.param(quad_c0, 6, 0, True, boxtree._CHUNK_CANDIDATES, id="2-axes"),
        pytest.param(quad_c0, 4, 2, False, boxtree._CHUNK_CANDIDATES, id="2-axes-mixed"),
        pytest.param(per31, 3, 0, True, boxtree._CHUNK_CANDIDATES, id="4-axes"),
        pytest.param(per31, 2, 2, True, boxtree._CHUNK_CANDIDATES, id="4-axes-mixed-mirrored"),
        pytest.param(per31, 2, 2, True, 1, id="4-axes-mixed-mirrored-one-item-chunks"),
    ],
)
def test_lookup_in_runs_matches_brute_force(make, depth, steps, mirrored, chunk, monkeypatch):
    """The lookup searches runs of cells along the last axis: each run's
    matches are a slice of the sorted keys that starts at one binary
    search.  Every pair a brute-force comparison with every leaf finds
    comes out once, and no other; the queries reach runs that start past
    the last key and runs longer than 3 cells.  With ``chunk`` 1, each
    chunk of runs holds one item."""
    monkeypatch.setattr(boxtree, "_CHUNK_CANDIDATES", chunk)
    tree = _run_tree(make, depth, steps, mirrored, seed=depth + steps)
    seen = {"past the last key": False, "longer than 3": False}
    matches = boxtree._matches

    def recording(keys, runs):
        _, key, n = runs
        if len(key):
            seen["past the last key"] |= bool((np.searchsorted(keys, key) == len(keys) - 1).any())
            seen["longer than 3"] |= int(n.max()) > 3
        return matches(keys, runs)

    monkeypatch.setattr(boxtree, "_matches", recording)
    lo, hi = _run_edge_queries(tree, np.random.default_rng(depth), 600)
    got = [list(zip(q.tolist(), r.tolist())) for q, r in tree.lookup(lo, hi)]
    got = [pair for part in got for pair in part]
    assert len(got) == len(set(got)), "a pair was yielded twice"
    want = _pairs_reference(tree, lo, hi)
    assert set(got) == want, (len(want - set(got)), len(set(got) - want))
    assert all(seen.values()), seen


@st.composite
def _grid_case(draw):
    """(R', depth, [(lo, hi), ...]) with endpoints on grid lines, one ulp
    either side, anywhere in and around V0, far outside it, infinite and
    NaN."""
    rp = snap_up_dyadic(draw(st.floats(min_value=0.3, max_value=5.0)))
    depth = draw(st.integers(0, 9))
    cell = math.ldexp(rp, 1 - depth)
    on_grid = st.integers(-3, (1 << depth) + 3).map(lambda i: -rp + i * cell)
    nudged = st.tuples(on_grid, st.sampled_from([-math.inf, None, math.inf])).map(
        lambda t: t[0] if t[1] is None else math.nextafter(t[0], t[1])
    )
    endpoint = st.one_of(
        on_grid,
        nudged,
        st.floats(min_value=-2.5 * rp, max_value=2.5 * rp),
        st.sampled_from([-1e300, -4.0 * rp, 4.0 * rp, 1e300, -math.inf, math.inf, math.nan]),
    )
    ivs = draw(st.lists(st.tuples(endpoint, endpoint).map(sorted), min_size=1, max_size=8))
    if draw(st.booleans()):
        ivs.append((ivs[0][0], ivs[0][0]))  # degenerate interval
    return rp, depth, ivs


@given(_grid_case())
@settings(derandomize=True, database=None, deadline=None, max_examples=400)
def test_cell_range_matches_brute_force(case):
    rp, depth, ivs = case
    lo = np.array([a for a, _ in ivs])
    hi = np.array([b for _, b in ivs])
    i0, i1 = cell_range(lo, hi, rp, depth)
    cell = Fraction(rp) * 2 / (1 << depth)
    for k, (a, b) in enumerate(ivs):
        want = [
            i
            for i in range(1 << depth)
            # exact comparisons of Fractions with the float ends (NaN: never true)
            if -Fraction(rp) + i * cell <= b and -Fraction(rp) + (i + 1) * cell >= a
        ]
        assert list(range(int(i0[k]), int(i1[k]) + 1)) == want, (a, b)


def test_query_rejects_wrong_space():
    tree = init_root(per31())
    with pytest.raises(UsageError):
        tree.query_intersect(BoxRegion([ComplexInterval(Interval(0, 1), Interval(0, 1))]))


def test_leaves_containing_point_boundary():
    tree = init_root(quad_c0())
    subdivide_all(tree, 4)
    # 0.0 is a grid boundary at every depth: the point belongs to cells
    # on both sides per axis -> 4 leaves
    hits = tree.leaves_containing_point((0.0, 0.0))
    assert len(hits) == 4
    hits_in = tree.leaves_containing_point((0.1, 0.1))
    assert len(hits_in) == 1
    assert tree.leaves_containing_point((3.0, 0.0)) == []
    # a non-finite value meets no leaf, like a point outside V0
    assert tree.leaves_containing_point((math.nan, 0.0)) == []
    assert tree.leaves_containing_point((0.0, math.inf)) == []


# ---------------------------------------------------------------------------
# prune_escaping
# ---------------------------------------------------------------------------


def test_prune_keeps_fixed_point_leaves():
    m = quad_c0()
    tree = init_root(m)
    subdivide_all(tree, 5)
    tree.prune_escaping(6)
    for z in (0.0, 1.0):  # superattracting and repelling fixed points
        assert tree.leaves_containing_point((z, 0.0)), f"fixed point {z} lost"


def test_prune_removes_escaping_leaf_within_four_iterates():
    m = quad_c0()
    tree = init_root(m)
    subdivide_all(tree, 6)
    target = tree.leaves_containing_point((1.9, 0.0))
    assert target
    tree.prune_escaping(4)
    for lid in target:
        assert not has_leaf(tree, lid)


def test_prune_henon_keeps_sink_and_saddle():
    m = per31()
    tree = init_root(m)
    subdivide_all(tree, 3)
    pruned = tree.prune_escaping(6)
    assert pruned > 0
    for fp in fixed_points(m):
        vals = tree.model.point_axes(fp.location)
        assert tree.leaves_containing_point(vals)


def test_prune_soundness_bounded_orbits_never_pruned():
    # 1-D pruning is forward-only, so every point with a bounded forward
    # orbit (here: the closed unit disk for c = 0) must survive.
    m = quad_c0()
    tree = init_root(m)
    subdivide_all(tree, 5)
    before = {lid: tree.leaf_box(lid) for lid in live_ids(tree)}
    tree.prune_escaping(6)
    gone = [before[lid] for lid in before if not has_leaf(tree, lid)]
    rng = random.Random(55)
    rp = tree.r_prime
    kept_probes = 0
    checked = 0
    while kept_probes < 1000 and checked < 20000:
        checked += 1
        pt = (complex(rng.uniform(-rp, rp), rng.uniform(-rp, rp)),)
        # long non-rigorous orbit as a falsification probe
        w = pt
        bounded = True
        for _ in range(200):
            w = m.point_forward(w)
            if max(abs(z.real) for z in w) > rp or max(abs(z.imag) for z in w) > rp:
                bounded = False
                break
        if not bounded:
            continue
        kept_probes += 1
        for b in gone:
            assert not b.contains_point(pt)
    assert kept_probes >= 1000


def test_prune_henon_backward_pass_removes_forward_basin():
    # for invertible maps the backward check may prune sink-basin points
    # (they are not chain recurrent); the sink cycle itself must survive
    from boxchain.maps import period2_sink_cycle

    m = altper2()
    tree = init_root(m)
    subdivide_all(tree, 3)
    tree.prune_escaping(6)
    cyc = period2_sink_cycle(m)
    for point in cyc.points:
        vals = tree.model.point_axes(point)
        assert tree.leaves_containing_point(vals)


def reference_prune(tree, max_iter):
    """The full-array mask loop escape pruning ran before it iterated
    compact rows: (kept mask over the live rows, rows that blew up)."""
    from boxchain.boxtree import _BLOWUP_FACTOR
    from boxchain.maps import batch_backward, batch_forward

    ids, _, _, lo, hi = tree.live_arrays()
    pruned = np.zeros(len(ids), dtype=bool)
    blown_rows = np.zeros(len(ids), dtype=bool)
    rp = tree.r_prime
    for step in [batch_forward, batch_backward][: 2 if tree.model.is_henon else 1]:
        cur_lo, cur_hi = lo.copy(), hi.copy()
        active = ~pruned
        for _ in range(max_iter):
            if not active.any():
                break
            with np.errstate(over="ignore", invalid="ignore"):
                nlo, nhi = step(tree.model, cur_lo[active], cur_hi[active])
            cur_lo[active], cur_hi[active] = nlo, nhi
            bad = ~np.isfinite(nlo).all(axis=1) | ~np.isfinite(nhi).all(axis=1)
            blown = bad | ((nhi - nlo).max(axis=1) > _BLOWUP_FACTOR * rp)
            escaped = ((nlo > rp) | (nhi < -rp)).any(axis=1) & ~bad
            rows = np.flatnonzero(active)
            pruned[rows[escaped]] = True
            blown_rows[rows[blown]] = True
            active[rows[escaped | blown]] = False
    return ~pruned, int(blown_rows.sum())


def three_depth_tree(make, depth):
    tree = init_root(make())
    subdivide_all(tree, depth)
    tree.subdivide(lambda lid: lid % 3 == 0)
    tree.subdivide(lambda lid: lid % 5 == 0)
    assert len(tree.depth_counts()) == 3
    return tree


@pytest.mark.parametrize(
    "make,depth,max_iter",
    [
        (per31, 2, 6),
        (realhorse, 4, 6),
        (henon_a15, 2, 6),
        (real_a13, 4, 6),
        (lambda: MapModel("cubic_poly", c="-0.19,1.1", a="0,0.1", r_prime=2.1), 3, 8),
        (lambda: quad_c0(), 4, 30),
    ],
)
def test_prune_matches_the_mask_loop_reference(monkeypatch, make, depth, max_iter):
    """The pruned set is the forward-first reference's, though a Henon
    tree is iterated backward first."""
    tree = three_depth_tree(make, depth)
    kept, n_blown = reference_prune(tree, max_iter)
    want = np.array(live_ids(tree))[kept].tolist()
    assert 0 < len(want) < len(kept)
    assert n_blown > 0  # some rows stop iterating because their enclosure blew up
    calls = []

    def recording(step):
        def call(model, lo, hi):
            calls.append(step.__name__)
            return step(model, lo, hi)

        return call

    for name in ("batch_backward", "batch_forward"):
        monkeypatch.setattr(boxtree, name, recording(getattr(boxtree, name)))
    assert tree.prune_escaping(max_iter) == int((~kept).sum())
    assert live_ids(tree) == want
    assert calls[0] == ("batch_backward" if tree.model.is_henon else "batch_forward")


# ---------------------------------------------------------------------------
# sink_basin_selector
# ---------------------------------------------------------------------------


def test_selector_marks_sink_leaf_and_not_escaping_leaf():
    m = per31()
    tree = init_root(m)
    subdivide_all(tree, 4)
    tree.prune_escaping(6)
    sel = sink_basin_selector(tree)
    sink = [f for f in fixed_points(m) if f.classification == "sink"][0]
    sink_leaves = tree.leaves_containing_point(tree.model.point_axes(sink.location))
    assert sink_leaves
    assert any(sel(lid) for lid in sink_leaves)
    # a leaf whose center escapes is never selected: saddle-adjacent corner
    corner = max(live_ids(tree), key=lambda l: tree.leaf_box(l).axes()[0].hi)
    assert not sel(corner)


def test_selector_one_dim_superattracting():
    m = quad_c0()
    tree = init_root(m)
    subdivide_all(tree, 5)
    tree.prune_escaping(6)
    sel = sink_basin_selector(tree)
    zero_leaves = tree.leaves_containing_point((0.05, 0.05))
    assert zero_leaves and all(sel(lid) for lid in zero_leaves)
    # a surviving leaf whose center sits outside the closed unit disk is
    # expanding along its orbit and must not be selected
    outside = [
        lid
        for lid in live_ids(tree)
        if 1.001
        < abs(
            complex(
                tree.leaf_box(lid).coords[0].re.mid(),
                tree.leaf_box(lid).coords[0].im.mid(),
            )
        )
        < 1.1
    ]
    assert outside and not any(sel(lid) for lid in outside)


@pytest.mark.parametrize("naxes", [2, 4])
def test_any_per_row_is_any_over_axis_1(naxes):
    rng = np.random.default_rng(naxes)
    mask = rng.random((1000, 2 * naxes)) < 0.2
    for m in (mask[:, :naxes], mask[:, ::2], mask[:0, :naxes]):  # strided and empty views
        np.testing.assert_array_equal(boxtree._any_per_row(m), m.any(axis=1))
