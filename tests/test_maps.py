"""Map-layer tests: interval image/preimage examples, trapping data,
fixed points, sink orbits, escape certificate, and soundness sweeps."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from boxchain.ia import BoxRegion, ComplexInterval, Interval, UsageError
from boxchain.maps import (
    MapModel,
    batch_backward,
    batch_forward,
    fixed_points,
    period2_sink_cycle,
    sink_orbits,
    snap_up_dyadic,
    trapping_box,
    trapping_radius,
)


def henon(a, c, rp=None):
    return MapModel("henon_complex", c=c, a=a, r_prime=rp)


PER31 = lambda: henon("0.3", "-1.17", 2.01)
ALTPER2 = lambda: henon("0.15", "-1.1875", 1.9)
HORSE = lambda: henon("-0.74", "-2.75", 2.84)


def point_box(model, *pts):
    coords = [ComplexInterval.point(complex(p)) for p in pts]
    return BoxRegion(coords, real=model.real_mode)


def box_from_axes(model, axes):
    # axes: flat list of Interval, one per real axis
    if model.kind == "henon_complex":
        coords = [
            ComplexInterval(axes[0], axes[1]),
            ComplexInterval(axes[2], axes[3]),
        ]
    elif model.kind == "henon_real":
        z = Interval(0.0, 0.0)
        coords = [ComplexInterval(axes[0], z), ComplexInterval(axes[1], z)]
    else:
        coords = [ComplexInterval(axes[0], axes[1])]
    return BoxRegion(coords, real=model.real_mode)


# ---------------------------------------------------------------------------
# MapModel.image
# ---------------------------------------------------------------------------


def test_image_of_origin_point_box():
    m = PER31()
    out = m.image(point_box(m, 0j, 0j))
    xr = out.coords[0].re
    assert Fraction(xr.lo) <= Fraction("-1.17") <= Fraction(xr.hi)
    assert xr.width() <= 2 * math.ulp(1.17)
    assert out.coords[0].im.width() <= 2 * math.ulp(1.17)
    assert out.coords[1] == ComplexInterval.point(0j)


def test_image_matches_hand_interval_evaluation():
    # square([-1,1]) = [0,1]; +c -> [-1.17,-0.17]; -a[-1,1] -> [-1.47, 0.13]
    m = PER31()
    u = Interval(-1.0, 1.0)
    z = Interval(0.0, 0.0)
    b = box_from_axes(m, [u, z, u, z])
    out = m.image(b)
    xr = out.coords[0].re
    eps = 1e-12
    assert xr.lo <= -1.47 + eps and xr.lo >= -1.47 - eps
    assert xr.hi >= 0.13 - eps and xr.hi <= 0.13 + eps
    assert out.coords[1].re == u and out.coords[1].im == z


def _rand_box(model, rng, max_half=0.3):
    rp = model.r_prime
    axes = []
    for _ in range(model.naxes):
        c = rng.uniform(-rp, rp)
        h = rng.uniform(1e-6, max_half)
        axes.append(Interval(max(c - h, -rp), min(c + h, rp)))
    return axes


def _rand_point_in(axes, rng):
    return [rng.uniform(0.999 * iv.lo + 0.001 * iv.hi, 0.001 * iv.lo + 0.999 * iv.hi)
            for iv in axes]


def _pack_point(model, vals):
    if model.kind == "henon_complex":
        return (complex(vals[0], vals[1]), complex(vals[2], vals[3]))
    if model.kind == "henon_real":
        return (complex(vals[0], 0.0), complex(vals[1], 0.0))
    return (complex(vals[0], vals[1]),)


ALL_MODELS = [
    PER31,
    lambda: MapModel("henon_real", c="-3", a="-0.25", r_prime=2.57),
    lambda: MapModel("quad_poly", c="-1.0", r_prime=2.0),
    lambda: MapModel("cubic_poly", c="-0.19,1.1", a="0,0.1", r_prime=2.1),
]


@pytest.mark.parametrize("make", ALL_MODELS)
def test_enclosure_soundness_sweep(make):
    model = make()
    rng = random.Random(hash(model.kind) & 0xFFFF)
    for _ in range(2000):
        axes = _rand_box(model, rng)
        box = box_from_axes(model, axes)
        fbox = model.image(box)
        for _ in range(12):
            vals = _rand_point_in(axes, rng)
            pt = _pack_point(model, vals)
            assert fbox.contains_point(model.point_forward(pt))


@pytest.mark.parametrize("make", ALL_MODELS)
def test_batch_forward_contains_scalar_image(make):
    model = make()
    rng = random.Random(4096)
    boxes = [_rand_box(model, rng) for _ in range(400)]
    lo = np.array([[iv.lo for iv in axes] for axes in boxes])
    hi = np.array([[iv.hi for iv in axes] for axes in boxes])
    blo, bhi = batch_forward(model, lo, hi)
    for i, axes in enumerate(boxes):
        sc = model.image(box_from_axes(model, axes))
        for k, iv in enumerate(sc.axes()):
            assert blo[i, k] <= iv.lo and bhi[i, k] >= iv.hi


def test_batch_backward_contains_scalar_preimage():
    for make in (PER31, ALL_MODELS[1]):
        model = make()
        rng = random.Random(11)
        boxes = [_rand_box(model, rng) for _ in range(300)]
        lo = np.array([[iv.lo for iv in axes] for axes in boxes])
        hi = np.array([[iv.hi for iv in axes] for axes in boxes])
        blo, bhi = batch_backward(model, lo, hi)
        for i, axes in enumerate(boxes):
            sc = model.preimage(box_from_axes(model, axes))
            for k, iv in enumerate(sc.axes()):
                assert blo[i, k] <= iv.lo and bhi[i, k] >= iv.hi


# ---------------------------------------------------------------------------
# MapModel.preimage
# ---------------------------------------------------------------------------


def test_preimage_of_origin_image():
    m = PER31()
    b = BoxRegion(
        [
            ComplexInterval(Interval.hull("-1.17"), Interval(0.0, 0.0)),
            ComplexInterval.point(0j),
        ]
    )
    back = m.preimage(b)
    assert back.contains_point((0j, 0j))


def test_preimage_roundtrip_contains_point():
    m = PER31()
    rng = random.Random(99)
    for _ in range(1000):
        pt = (
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
        )
        fwd = m.image(point_box(m, *pt))
        back = m.preimage(fwd)
        assert back.contains_point(pt)


def test_preimage_fixed_point_invariance():
    m = PER31()
    for fp in fixed_points(m):
        back = m.preimage(point_box(m, *fp.location))
        assert back.contains_point(fp.location)


def test_preimage_rejected_for_one_dim():
    m = MapModel("quad_poly", c="0", r_prime=2.0)
    with pytest.raises(UsageError):
        m.preimage(point_box(m, 0j))


# ---------------------------------------------------------------------------
# trapping radius / trapping box
# ---------------------------------------------------------------------------


def test_trapping_radius_quadratic_c2_exact():
    m = MapModel("quad_poly", c="2", r_prime=2.5)
    assert abs(trapping_radius(m) - 2.0) <= math.ulp(2.0)


def test_trapping_radius_c0():
    m = MapModel("quad_poly", c="0", r_prime=2.0)
    assert trapping_radius(m) == 1.0


def test_trapping_radius_altper2():
    m = ALTPER2()
    # high-precision oracle: R = (1.15 + sqrt(1.15^2 + 4*1.1875)) / 2
    import mpmath

    mpmath.mp.dps = 50
    r_hp = (mpmath.mpf("1.15") + mpmath.sqrt(mpmath.mpf("1.15") ** 2 + 4 * mpmath.mpf("1.1875"))) / 2
    assert m.R >= float(r_hp) - 1e-15  # upper enclosure
    assert abs(m.R - float(r_hp)) < 1e-12
    assert round(m.R, 5) == 1.80712
    assert m.R < 1.9


def test_trapping_radius_cubic_bisection():
    m = MapModel("cubic_poly", c="-0.19,1.1", a="0,0.1", r_prime=2.1)
    r = m.R
    # q(r) = r^3 - 3|a|^2 r - |c| - r changes sign across the returned value
    amod2 = 0.01
    cmod = abs(complex(-0.19, 1.1))
    q = lambda t: t ** 3 - 3 * amod2 * t - cmod - t
    assert q(r) >= 0.0 and q(r - 1e-9) < 0.0
    assert r >= 1.0


def test_trapping_box_altper2():
    m = ALTPER2()
    box, rp, d0 = trapping_box(m, 1.9)
    assert rp == snap_up_dyadic(1.9) and rp >= 1.9
    # direct formula evaluation at the snapped radius
    assert d0 == pytest.approx((rp * rp - 1.15 * rp - 1.1875) / 2.0, rel=1e-15)
    assert d0 == pytest.approx(0.11875, abs=3e-4)
    for ax in box.axes():
        assert ax == Interval(-rp, rp)


def test_trapping_box_per31():
    m = PER31()
    _, rp, d0 = trapping_box(m, 2.01)
    assert d0 == pytest.approx(0.12855, abs=5e-5)


def test_trapping_box_rejects_radius_at_or_below_R():
    m = ALTPER2()
    with pytest.raises(UsageError):
        trapping_box(m, m.R * 0.999)


def test_snap_up_dyadic():
    assert snap_up_dyadic(1.9) == 7783 / 4096
    assert snap_up_dyadic(snap_up_dyadic(1.9)) == snap_up_dyadic(1.9)
    assert snap_up_dyadic(2.0) == 2.0


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------


def test_per31_sink_fixed_point():
    fps = fixed_points(PER31())
    sinks = [f for f in fps if f.classification == "sink"]
    assert len(sinks) == 1
    (z, z2) = sinks[0].location
    assert z == z2
    assert abs(z - (-0.612)) < 1e-3
    l1, l2 = sinks[0].eigenvalues
    assert abs(l1 - (-0.885)) < 1e-3
    assert abs(l2 - (-0.34)) < 1e-3


def test_per31_saddle_matches_quadratic_formula_oracle():
    fps = fixed_points(PER31())
    saddles = [f for f in fps if f.classification == "saddle"]
    assert len(saddles) == 1
    z = saddles[0].location[0]
    z_oracle = (1.3 + cmath.sqrt(1.3 ** 2 + 4 * 1.17)) / 2
    assert abs(z - z_oracle) < 1e-12
    assert abs(z - 1.911945) < 1e-4
    lu = max(saddles[0].eigenvalues, key=abs)
    assert abs(lu - 3.7438) < 1e-4


def test_a_half_c0_sink_at_origin():
    m = henon("0.5", "0", 1.6)
    fps = fixed_points(m)
    origin = [f for f in fps if abs(f.location[0]) < 1e-14]
    assert len(origin) == 1
    f = origin[0]
    assert f.classification == "sink"
    ls = sorted(f.eigenvalues, key=lambda l: l.imag)
    assert abs(ls[0] - complex(0, -math.sqrt(0.5))) < 1e-12
    assert abs(ls[1] - complex(0, math.sqrt(0.5))) < 1e-12


@pytest.mark.parametrize("make", ALL_MODELS)
def test_fixed_point_residuals(make):
    model = make()
    for fp in fixed_points(model):
        img = model.point_forward(fp.location)
        res = max(
            max(abs(u.real - v.real), abs(u.imag - v.imag))
            for u, v in zip(img, fp.location)
        )
        assert res < 1e-12


def test_henon_eigenvalues_satisfy_characteristic_equation():
    for make in (PER31, ALTPER2, HORSE):
        m = make()
        for fp in fixed_points(m):
            z = fp.location[0]
            for lam in fp.eigenvalues:
                assert abs(lam * lam - 2 * z * lam + m.a) < 1e-9


# ---------------------------------------------------------------------------
# sink orbits
# ---------------------------------------------------------------------------


def test_altper2_period2_sink_cycle_exact():
    orb = period2_sink_cycle(ALTPER2())
    assert orb is not None and orb.period == 2 and orb.method == "exact"
    assert orb.multiplier_max == pytest.approx(0.15, abs=1e-9)
    (p1, p2) = orb.points
    # x-coordinates solve x^2 + 1.15 x + 0.135 = 0
    for p in (p1, p2):
        x = p[0]
        assert abs(x * x + 1.15 * x + 0.135) < 1e-12
    assert ALTPER2().point_forward(p1) == pytest.approx(p2)


def test_per31_sink_orbits_include_fixed_and_three_cycle():
    orbits = sink_orbits(PER31())
    periods = sorted(o.period for o in orbits)
    assert 1 in periods, "fixed sink must be detected"
    assert 3 in periods, "attracting 3-cycle must be detected"
    three = [o for o in orbits if o.period == 3][0]
    assert three.multiplier_max < 1.0
    # cycle closes up
    pt = three.points[0]
    for _ in range(3):
        pt = PER31().point_forward(pt)
    assert max(abs(u - v) for u, v in zip(pt, three.points[0])) < 1e-6


def test_horseshoe_has_no_sinks():
    assert sink_orbits(HORSE()) == []


def test_cubicdouble_has_four_cycle():
    m = MapModel("cubic_poly", c="-0.19,1.1", a="0,0.1", r_prime=2.1)
    orbits = sink_orbits(m)
    assert any(o.period == 4 for o in orbits)


# ---------------------------------------------------------------------------
# escape certificate (exact rational arithmetic, complex moduli)
# ---------------------------------------------------------------------------


def _frac_complex(rng, lo, hi):
    return (
        Fraction(rng.uniform(lo, hi)).limit_denominator(1 << 30),
        Fraction(rng.uniform(lo, hi)).limit_denominator(1 << 30),
    )


def test_escape_certificate_exact_arithmetic():
    # for |x| >= R', |x| >= |y| (complex moduli): max(|f_x|, |f_y|) >= |x| + 2*delta0'
    m = ALTPER2()
    a = Fraction("0.15")
    c = Fraction("-1.1875")
    rp = Fraction(m.r_prime)  # dyadic, exact
    d0 = (rp * rp - (1 + a) * rp - abs(c)) / 2
    assert d0 > 0
    rng = random.Random(321)
    checked = 0
    while checked < 1000:
        xr, xi = _frac_complex(rng, -6, 6)
        yr, yi = _frac_complex(rng, -6, 6)
        x_sq = xr * xr + xi * xi
        y_sq = yr * yr + yi * yi
        if x_sq < rp * rp or x_sq < y_sq:
            continue
        checked += 1
        # f_x = x^2 + c - a y  (a, c real here)
        fx_re = xr * xr - xi * xi + c - a * yr
        fx_im = 2 * xr * xi - a * yi
        fx_sq = fx_re * fx_re + fx_im * fx_im
        # want sqrt(fx_sq) >= sqrt(x_sq) + 2 d0, i.e.
        # fx_sq - x_sq - 4 d0^2 >= 0 and (fx_sq - x_sq - 4 d0^2)^2 >= 16 d0^2 x_sq
        lhs = fx_sq - x_sq - 4 * d0 * d0
        assert lhs >= 0
        assert lhs * lhs >= 16 * d0 * d0 * x_sq


def test_escape_certificate_one_dim():
    m = MapModel("quad_poly", c="2", r_prime=2.5)
    c = Fraction(2)
    rp = Fraction(m.r_prime)
    d0 = (rp * rp - rp - abs(c)) / 2
    assert d0 > 0
    rng = random.Random(17)
    checked = 0
    while checked < 1000:
        xr, xi = _frac_complex(rng, -8, 8)
        x_sq = xr * xr + xi * xi
        if x_sq < rp * rp:
            continue
        checked += 1
        fx_re = xr * xr - xi * xi + c
        fx_im = 2 * xr * xi
        fx_sq = fx_re * fx_re + fx_im * fx_im
        lhs = fx_sq - x_sq - 4 * d0 * d0
        assert lhs >= 0 and lhs * lhs >= 16 * d0 * d0 * x_sq


# ---------------------------------------------------------------------------
# parameter handling
# ---------------------------------------------------------------------------


def test_non_dyadic_parameters_are_hulled():
    m = PER31()
    assert m.c_iv.re.lo < Fraction("-1.17") < m.c_iv.re.hi
    assert m.a_iv.re.lo < Fraction("0.3") < m.a_iv.re.hi
    assert m.c == pytest.approx(-1.17)


def test_model_validation():
    with pytest.raises(UsageError):
        MapModel("henon_complex", c="0", a="0")
    with pytest.raises(UsageError):
        MapModel("quad_poly", c="0", a="0.5")
    with pytest.raises(UsageError):
        MapModel("henon_real", c="0,1", a="0.5")
    with pytest.raises(UsageError):
        MapModel("nope", c="0")


@pytest.mark.parametrize("kind", ["henon_complex", "henon_real"])
def test_henon_a_whose_modulus_underflows_is_rejected(kind):
    # |1e-170|^2 encloses as [0, 5e-324]: F^-1 could not divide by it
    with pytest.raises(UsageError, match="a != 0"):
        MapModel(kind, c="0", a="1e-170")
    assert MapModel(kind, c="0", a="1e-150").a_iv.abs_sq().lo > 0.0


@pytest.mark.parametrize(
    "model",
    [
        MapModel("quad_poly", c="0", r_prime=2.0),
        MapModel("henon_real", c="-3", a="-0.25", r_prime=2.57),
        MapModel("henon_complex", c="-1.1875", a="0.15", r_prime=1.9),
    ],
    ids=lambda m: m.kind,
)
def test_point_from_axes_is_exactly_complex_of_the_parts(model):
    special = [0.0, -0.0, 1.5, -2.25, math.inf, -math.inf, math.nan, 5e-324, -5e-324]
    rng = np.random.default_rng(3)
    axes = [rng.choice(special, 300) for _ in range(model.naxes)]
    pts = model.point_from_axes(axes)
    assert all(z.dtype == complex and z.shape == (300,) for z in pts)

    def parts(z):  # bit patterns, so signed zeros and NaNs compare exactly
        return np.array([z.real, z.imag]).view(np.int64).tolist()

    for i in range(300):
        vals = [float(a[i]) for a in axes]
        if model.real_mode:
            want = [complex(v, 0.0) for v in vals]
        else:
            want = [complex(re, im) for re, im in zip(vals[0::2], vals[1::2])]
        got = model.point_from_axes(vals)
        assert all(type(z) is complex for z in got)
        assert [parts(z) for z in got] == [parts(z[i]) for z in pts] == [parts(w) for w in want]
