"""maps.forward_orbits, the one point-iteration path, against full-array
references: every row iterated for every step, escapes recorded with
``ok &= ...``.  The references are the loops the sink-basin selector and
the K+ render lightening ran before they shared the routine, and the
scalar per-seed loop of the heuristic sink-cycle search."""

import itertools

import numpy as np
import pytest

from boxchain.boxtree import init_root, sink_basin_selector
from boxchain.maps import (
    MapModel,
    SinkOrbit,
    _quadratic_roots,
    forward_orbits,
    heuristic_sink_cycles,
    sink_orbits,
    sup_bounded,
)
from boxchain.pipeline import PRESETS
from support_trees import live_ids

MAPS = {
    "per31": lambda: MapModel("henon_complex", c="-1.17", a="0.3", r_prime=2.01),
    "realhorse": lambda: MapModel("henon_real", c="-3", a="-0.25", r_prime=2.57),
    "z2": lambda: MapModel("quad_poly", c="0", r_prime=2.0),
    "cubicdouble": lambda: MapModel("cubic_poly", c="-0.19,1.1", a="0,0.1", r_prime=2.1),
}
DEPTH = {"per31": 4, "realhorse": 7, "z2": 7, "cubicdouble": 7}
# no grid point of the horseshoe stays bounded for long
KPLUS_ITERS = {"per31": 100, "realhorse": 5, "z2": 100, "cubicdouble": 100}


def reference_selector(model, pt, iterates, radius):
    """(ok, multiplier) over all rows: the selector's inline recurrence."""
    n = len(pt[0])
    ok = np.ones(n, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        if model.is_henon:
            m00 = np.ones(n, dtype=complex)
            m01 = np.zeros(n, dtype=complex)
            m10 = np.zeros(n, dtype=complex)
            m11 = np.ones(n, dtype=complex)
            a = model.a
            for _ in range(iterates):
                j00 = 2.0 * pt[0]
                n00 = j00 * m00 - a * m10
                n01 = j00 * m01 - a * m11
                m00, m01, m10, m11 = n00, n01, m00, m01
                pt = model.point_forward(pt)
                ok &= sup_bounded(pt, radius)
            tr = m00 + m11
            det = m00 * m11 - m01 * m10
            disc = np.sqrt(tr * tr - 4.0 * det)
            lmax = np.maximum(np.abs((tr + disc) / 2.0), np.abs((tr - disc) / 2.0))
            return ok, lmax
        prod = np.ones(n, dtype=complex)
        for _ in range(iterates):
            prod = prod * model.point_derivative(pt)
            pt = model.point_forward(pt)
            ok &= sup_bounded(pt, radius)
        return ok, np.abs(prod)


def reference_kplus(model, pt, iters, escape_radius):
    ok = np.ones(len(pt[0]), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(iters):
            pt = model.point_forward(pt)
            ok &= sup_bounded(pt, escape_radius)
            if not ok.any():
                break
    return ok


def leaf_centers(model, depth):
    tree = init_root(model)
    for _ in range(depth):
        tree.subdivide(lambda lid: True)
    tree.prune_escaping(6)
    ids, _, _, lo, hi = tree.live_arrays()
    return tree, ids, model.point_from_axes(list((0.5 * (lo + hi)).T))


def pixel_points(model, res=96):
    """A res x res grid over [-R', R']^2; for 4 axes, a plane through V0."""
    ticks = np.linspace(-model.r_prime, model.r_prime, res)
    u, v = (w.ravel() for w in np.meshgrid(ticks, ticks))
    axes = (u, v) if model.naxes == 2 else (u, v, 0.3 * u, v - 0.2)
    return model.point_from_axes(axes)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_selector_rows_and_leaves_match_reference(name):
    model = MAPS[name]()
    tree, ids, pt = leaf_centers(model, DEPTH[name])
    for iterates in (1, 12, 24):
        ok, lmax = reference_selector(model, pt, iterates, model.r_prime)
        rows, end, mult = forward_orbits(model, pt, iterates, model.r_prime)
        np.testing.assert_array_equal(rows, np.flatnonzero(ok))
        np.testing.assert_array_equal(mult, lmax[ok])
        want = pt
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(iterates):
                want = model.point_forward(want)
        for z, w in zip(end, want):
            np.testing.assert_array_equal(z, w[ok])
        if iterates == 12:  # the selector's orbit length
            sel = sink_basin_selector(tree)
            chosen = [lid for lid in live_ids(tree) if sel(lid)]
            assert chosen == sorted(ids[ok & (lmax < 1.0)].tolist())
    if name in ("per31", "z2", "cubicdouble"):
        assert chosen  # each has a sink, so the comparison is not vacuous


@pytest.mark.parametrize("name", sorted(MAPS))
def test_kplus_rows_match_reference(name):
    model = MAPS[name]()
    pt = pixel_points(model)
    radius = 2.0 * model.r_prime
    iters = KPLUS_ITERS[name]
    ok = reference_kplus(model, pt, iters, radius)
    rows, _, _ = forward_orbits(model, pt, iters, radius)
    np.testing.assert_array_equal(rows, np.flatnonzero(ok))
    assert 0 < len(rows) < len(ok)
    # one scalar point at a time gives the same answer
    for i in np.linspace(0, len(ok) - 1, 40).astype(int).tolist() + rows[:10].tolist():
        point = tuple(complex(z[i]) for z in pt)
        assert bool(forward_orbits(model, point, iters, radius)[0].size) == bool(ok[i])


def test_row_that_leaves_and_returns_stays_dropped():
    # z^2 from 0.7+0.7i in the sup ball of radius 0.9: f(z) = 0.98i is
    # outside, f^4(z) ~ 0.85 is back inside
    model = MAPS["z2"]()
    pt = (np.array([0.7 + 0.7j, 0.1 + 0.2j]),)
    ahead = pt
    path = []
    for _ in range(4):
        ahead = model.point_forward(ahead)
        path.append(bool(sup_bounded(ahead, 0.9)[0]))
    assert path == [False, False, False, True]
    ok, _ = reference_selector(model, pt, 4, 0.9)
    rows, end, mult = forward_orbits(model, pt, 4, 0.9)
    assert ok.tolist() == [False, True]
    assert rows.tolist() == [1]
    assert end[0].tolist() == [ahead[0][1]]
    assert mult.shape == (1,)
    # a row that leaves is not iterated further: every row gone ends early
    rows, end, mult = forward_orbits(model, pt, 50, 0.01)
    assert rows.size == end[0].size == mult.size == 0


def test_multiplier_is_the_cycle_multiplier():
    # per31's sink cycles: the multiplier over one period from a cycle
    # point is the cycle's multiplier_max, and the points come back
    model = MAPS["per31"]()
    orbits = sink_orbits(model)
    assert [o.period for o in orbits] == [1, 3]
    for orb in orbits:
        rows, end, mult = forward_orbits(model, orb.points[0], orb.period, np.inf)
        assert rows.tolist() == [0]
        assert mult[0] == pytest.approx(orb.multiplier_max, rel=1e-9)
        assert max(abs(z[0] - w) for z, w in zip(end, orb.points[0])) < 1e-9


def reference_cycle_multiplier(model, points):
    """Spectral radius of the Jacobian product around a cycle, in Python
    complex arithmetic."""
    if not model.is_henon:
        prod = 1.0 + 0j
        for pt in points:
            prod *= model.point_derivative(pt)
        return abs(prod)
    m = ((1.0 + 0j, 0j), (0j, 1.0 + 0j))
    for pt in points:
        j = model.point_derivative(pt)
        m = tuple(
            tuple(j[i][0] * m[0][k] + j[i][1] * m[1][k] for k in (0, 1)) for i in (0, 1)
        )
    l1, l2, _ = _quadratic_roots(-(m[0][0] + m[1][1]), m[0][0] * m[1][1] - m[0][1] * m[1][0])
    return max(abs(l1), abs(l2))


def reference_sink_cycles(model, max_period=8, transient=400):
    """The per-seed scalar search, escaping by coordinate modulus."""
    escape = 4.0 * model.r_prime
    per_axis = 5 if model.kind == "henon_complex" else 15
    rp = model.r_prime
    ticks = [(-rp + (2.0 * rp) * (k + 0.5) / per_axis) for k in range(per_axis)]
    found = {}
    for vals in itertools.product(ticks, repeat=model.naxes):
        pt = model.point_from_axes(vals)
        for _ in range(transient):
            pt = model.point_forward(pt)
            if any(abs(z) > escape for z in pt):
                break
        else:
            orbit = [pt]
            for _ in range(max_period):
                orbit.append(model.point_forward(orbit[-1]))
            periods = [
                p
                for p in range(1, max_period + 1)
                if max(abs(u - v) for u, v in zip(orbit[p], orbit[0])) < 1e-7
            ]
            if not periods:
                continue
            pts = tuple(orbit[: periods[0]])
            mult = reference_cycle_multiplier(model, pts)
            if mult >= 0.999999:
                continue
            key = (
                len(pts),
                min(
                    tuple(
                        (round(w.real, 6), round(w.imag, 6))
                        for point in pts[k:] + pts[:k]
                        for w in point
                    )
                    for k in range(len(pts))
                ),
            )
            found.setdefault(key, SinkOrbit(pts, len(pts), mult, "heuristic"))
    return sorted(found.values(), key=lambda o: (o.period, repr(o.points)))


SINK_MAPS = {
    **{name: lambda p=p: MapModel(**p) for name, p in PRESETS.items()},
    "basilica": lambda: MapModel("quad_poly", c="-1", r_prime=2.0),
    "rabbit": lambda: MapModel("quad_poly", c="-0.122561,0.744862", r_prime=2.0),
    "airplane4": lambda: MapModel("quad_poly", c="-1.3107", r_prime=2.0),
    "cubic": lambda: MapModel("cubic_poly", c="0.2,0.1", a="0,0.3"),
    "realsink": lambda: MapModel("henon_real", c="-1.17", a="0.3"),
}


@pytest.mark.parametrize("name", sorted(SINK_MAPS))
def test_sink_cycles_match_scalar_search(name):
    # the same cycles in the same order; numpy's complex products may
    # round differently from Python's, hence the tolerances
    model = SINK_MAPS[name]()
    got = heuristic_sink_cycles(model)
    want = reference_sink_cycles(model)
    assert [o.period for o in got] == [o.period for o in want]
    for g, w in zip(got, want):
        assert g.method == "heuristic"
        assert type(g.multiplier_max) is float
        assert all(type(z) is complex for pt in g.points for z in pt)
        assert g.multiplier_max == pytest.approx(w.multiplier_max, rel=1e-12, abs=0)
        for p, q in zip(g.points, w.points):
            assert max(abs(u - v) for u, v in zip(p, q)) <= 1e-12
    if name in ("per31", "cubicdouble", "rabbit", "airplane4", "realsink"):
        assert any(o.period > 2 for o in got)
