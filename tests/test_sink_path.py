"""The sink path (fixed points, the closed-form 2-cycle, sink orbits)
against the per-kind references it replaced: ``reference_fixed_points``
is the three-branch body with one polish/eigenvalue/classify block per
map kind, ``reference_period2`` the two-branch 2-cycle with the
quadratic map written apart from the Henon one.  Results must be equal
to the last bit, signed zeros included (their reprs are compared), on the
presets, the suite's test maps and seeded random maps of every kind."""

import math

import numpy as np
import pytest

from boxchain.maps import (
    KINDS,
    FixedPointInfo,
    MapModel,
    SinkOrbit,
    _classify,
    _newton_polish,
    _quadratic_roots,
    fixed_points,
    forward_orbits,
    heuristic_sink_cycles,
    period2_sink_cycle,
    sink_orbits,
)
from boxchain.pipeline import PRESETS


def reference_fixed_points(model):
    out = []
    if model.is_henon:
        a, c = model.a, model.c
        g = lambda z: z * z - (1.0 + a) * z + c
        dg = lambda z: 2.0 * z - (1.0 + a)
        r1, r2, rep = _quadratic_roots(-(1.0 + a), c)
        for z in [r1] if rep else [r1, r2]:
            z = _newton_polish(z, g, dg)
            l1, l2, _ = _quadratic_roots(-2.0 * z, a)
            if abs(l2) > abs(l1):
                l1, l2 = l2, l1
            out.append(FixedPointInfo((z, z), (l1, l2), _classify((abs(l1), abs(l2)))))
        return out
    if model.kind == "quad_poly":
        c = model.c
        g = lambda z: z * z + c - z
        dg = lambda z: 2.0 * z - 1.0
        r1, r2, rep = _quadratic_roots(-1.0, c)
        for z in [r1] if rep else [r1, r2]:
            z = _newton_polish(z, g, dg)
            lam = model.point_derivative((z,))
            out.append(FixedPointInfo((z,), (lam,), _classify((abs(lam),))))
        return out
    a, c = model.a, model.c
    roots = np.roots([1.0, 0.0, -(3.0 * a * a + 1.0), c])
    g = lambda z: z * z * z - (3.0 * a * a + 1.0) * z + c
    dg = lambda z: 3.0 * z * z - (3.0 * a * a + 1.0)
    seen = []
    for z in sorted(roots, key=lambda w: (w.real, w.imag)):
        z = _newton_polish(complex(z), g, dg)
        if any(abs(z - w) < 1e-9 for w in seen):
            continue
        seen.append(z)
        lam = model.point_derivative((z,))
        out.append(FixedPointInfo((z,), (lam,), _classify((abs(lam),))))
    return out


def reference_period2(model):
    if model.is_henon:
        a, c = model.a, model.c
        b = 1.0 + a
        x1, x2, rep = _quadratic_roots(b, c + b * b)
        if rep:
            return None
        g = lambda x: x * x + b * x + c + b * b
        dg = lambda x: 2.0 * x + b
        x1 = _newton_polish(x1, g, dg)
        x2 = _newton_polish(x2, g, dg)
        pts = ((x1, x2), (x2, x1))
    elif model.kind == "quad_poly":
        x1, x2, rep = _quadratic_roots(1.0 + 0j, model.c + 1.0)
        if rep:
            return None
        pts = ((x1,), (x2,))
    else:
        return None
    if abs(pts[0][0] - pts[1][0]) < 1e-12:
        return None
    rows, _, mult = forward_orbits(model, pts[0], 2, math.inf)
    if not rows.size or mult[0] >= 1.0:
        return None
    res = max(
        max(abs(u - v) for u, v in zip(model.point_forward(pts[0]), pts[1])),
        max(abs(u - v) for u, v in zip(model.point_forward(pts[1]), pts[0])),
    )
    if res > 1e-9:
        return None
    return SinkOrbit(points=pts, period=2, multiplier_max=float(mult[0]), method="exact")


def reference_sink_orbits(model):
    out = [
        SinkOrbit((fp.location,), 1, max(abs(l) for l in fp.eigenvalues), "exact")
        for fp in reference_fixed_points(model)
        if fp.classification == "sink"
    ]
    two = reference_period2(model)
    if two is not None:
        out.append(two)
    known = [p for orb in out for p in orb.points]
    for orb in heuristic_sink_cycles(model):
        if not any(
            max(abs(u - v) for u, v in zip(pt, kp)) < 1e-5 for pt in orb.points for kp in known
        ):
            out.append(orb)
    return out


# the suite's hand-picked maps, with repeated-root and degenerate cases
SUITE_MAPS = [
    ("henon_complex", "-1.17", "0.3"),
    ("henon_complex", "-1.1875", "0.15"),
    ("henon_complex", "-2.75", "-0.74"),
    ("henon_complex", "1", "1"),  # repeated fixed point z = 1
    ("henon_complex", "-0.75", "0.5"),
    ("henon_real", "-3", "-0.25"),
    ("henon_real", "-1.17", "0.3"),
    ("henon_real", "-1.3125", "-0.5"),
    ("quad_poly", "0", None),
    ("quad_poly", "2", None),
    ("quad_poly", "0.25", None),  # repeated fixed point z = 1/2
    ("quad_poly", "-0.75", None),  # repeated 2-cycle point
    ("quad_poly", "-1", None),
    ("quad_poly", "-1.3107", None),
    ("quad_poly", "-0.122561,0.744862", None),
    ("quad_poly", "-0.12,0.74", None),
    ("cubic_poly", "-0.19,1.1", "0,0.1"),
    ("cubic_poly", "0.2,0.1", "0,0.3"),
    ("cubic_poly", "0", "0"),  # triple root of z^3 - z at 0 and +-1
]


def random_maps(kind, n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        c_re, c_im = rng.uniform(-1.4, 0.4), rng.uniform(-0.3, 0.3)
        a_mod, a_arg = rng.uniform(0.01, 0.5), rng.uniform(-math.pi, math.pi)
        if kind == "henon_real":
            a = f"{a_mod * math.copysign(1.0, a_arg):.6f}"
            yield MapModel(kind, c=f"{c_re:.6f}", a=a)
        elif kind == "quad_poly":
            yield MapModel(kind, c=f"{c_re:.6f},{c_im:.6f}")
        else:
            a = f"{a_mod * math.cos(a_arg):.6f},{a_mod * math.sin(a_arg):.6f}"
            yield MapModel(kind, c=f"{c_re:.6f},{c_im:.6f}", a=a)


def all_maps():
    for name, params in sorted(PRESETS.items()):
        yield name, MapModel(**params)
    for kind, c, a in SUITE_MAPS:
        yield f"{kind} c={c} a={a}", MapModel(kind, c=c, a=a)
    for seed, kind in enumerate(KINDS):
        for k, model in enumerate(random_maps(kind, 320, seed)):
            yield f"{kind} #{k}", model


@pytest.fixture(scope="module")
def maps():
    return list(all_maps())


def test_fixed_points_match_the_per_kind_reference(maps):
    for name, model in maps:
        assert repr(fixed_points(model)) == repr(reference_fixed_points(model)), name
    kinds = {model.kind for _, model in maps}
    assert kinds == set(KINDS)


def test_period2_cycle_matches_the_two_branch_reference(maps):
    found = {kind: 0 for kind in KINDS}
    for name, model in maps:
        got = period2_sink_cycle(model)
        assert repr(got) == repr(reference_period2(model)), name
        found[model.kind] += got is not None
    # the random maps reach the attracting 2-cycle branch of every
    # kind that has one
    assert found["cubic_poly"] == 0
    assert min(found[k] for k in ("henon_complex", "henon_real", "quad_poly")) >= 20


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_sink_orbits_match_the_reference_for_the_presets(name):
    model = MapModel(**PRESETS[name])
    assert repr(sink_orbits(model)) == repr(reference_sink_orbits(model))

