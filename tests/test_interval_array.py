"""Property tests: the numpy interval-array path (batch_forward /
batch_backward, ComplexIntervals of IntervalArrays) encloses the tight
scalar ia path (MapModel.image / preimage, ComplexIntervals of
Intervals) on adversarial endpoints -- signed zeros, subnormals, +/-max
and boxes of huge width -- for every map family, in both directions.

Rows whose array enclosure blows up to inf or NaN are exempt: the
pipeline masks them (prune_escaping keeps such leaves, build_edges
refuses to run on them)."""

import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from boxchain.ia import _down_arr, _hull4, _up_arr, ComplexInterval, Interval, IntervalArray
from boxchain.maps import MapModel, batch_backward, batch_forward

MAX = sys.float_info.max
MIN_NORMAL = sys.float_info.min
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, MIN_NORMAL, -MIN_NORMAL, MAX, -MAX, 1e-300, -1e-300]

MODELS = {
    "henon_complex": MapModel("henon_complex", c="-1.17", a="0.3", r_prime=2.01),
    "henon_real": MapModel("henon_real", c="-3", a="-0.25", r_prime=2.57),
    "quad_poly": MapModel("quad_poly", c="-0.12,0.74", r_prime=2.0),
    "cubic_poly": MapModel("cubic_poly", c="-0.19,1.1", a="0,0.1", r_prime=2.1),
}
CASES = [(kind, "forward") for kind in MODELS] + [
    ("henon_complex", "backward"),
    ("henon_real", "backward"),
]

endpoint = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-4.0, max_value=4.0),
)
axis = st.tuples(endpoint, endpoint).map(sorted)
PROPERTY = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize("kind,direction", CASES)
@given(data=st.data())
@PROPERTY
def test_array_path_encloses_scalar_path(kind, direction, data):
    model = MODELS[kind]
    rows = data.draw(
        st.lists(st.lists(axis, min_size=model.naxes, max_size=model.naxes), min_size=1, max_size=6)
    )
    lo = np.array([[a for a, _ in row] for row in rows])
    hi = np.array([[b for _, b in row] for row in rows])
    batch, scalar = (
        (batch_forward, model.image) if direction == "forward" else (batch_backward, model.preimage)
    )
    with np.errstate(all="ignore"):
        blo, bhi = batch(model, lo, hi)
    for i, row in enumerate(rows):
        if not (np.isfinite(blo[i]).all() and np.isfinite(bhi[i]).all()):
            continue
        want = scalar(model.box_from_axes([Interval(a, b) for a, b in row])).axes()
        for k, iv in enumerate(want):
            assert blo[i, k] <= iv.lo and iv.hi <= bhi[i, k], (row, k, iv)


@given(a=axis, b=axis)
@PROPERTY
def test_interval_array_ops_enclose_scalar_ops(a, b):
    x, y = Interval(*a), Interval(*b)
    xa = IntervalArray(np.array([a[0]]), np.array([a[1]]))
    with np.errstate(all="ignore"):
        pairs = [
            (xa.add(y), x.add(y)),
            (xa.sub(y), x.sub(y)),
            (xa.mul(y), x.mul(y)),
            (xa.square(), x.square()),
        ]
        if not y.lo <= 0.0 <= y.hi:
            pairs.append((xa.div(y), x.div(y)))
    for got, want in pairs:
        if np.isfinite(got.lo[0]) and np.isfinite(got.hi[0]):
            assert got.lo[0] <= want.lo and want.hi <= got.hi[0], (a, b)


# every value class: signed zeros, subnormals, +/-max, infinities, NaN
# (quiet, signalling, either sign), normals of every exponent, and any
# bit pattern at all
quiet_nan, signalling_nan = (
    np.array([0x7FF8000000000000, 0x7FF0000000000001], dtype=np.int64).view(np.float64)
)
any_double = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, MIN_NORMAL, -MIN_NORMAL, MAX, -MAX, math.inf, -math.inf]
        + [quiet_nan, -quiet_nan, signalling_nan, -signalling_nan]
    ),
    st.builds(
        lambda sign, m, e: sign * math.ldexp(m, e),
        st.sampled_from([1.0, -1.0]),
        st.floats(min_value=0.5, max_value=1.0, exclude_max=True),
        st.integers(-1021, 1024),
    ),
    st.integers(-(2**63), 2**63 - 1).map(lambda b: np.int64(b).view(np.float64)),
)


@given(values=st.lists(any_double, min_size=1, max_size=40))
@PROPERTY
def test_ulp_steps_equal_nextafter_bit_for_bit(values):
    x = np.array(values, dtype=np.float64)
    column = np.stack([x, x[::-1]], axis=1)[:, 0]  # a strided view, as batch rows give
    with np.errstate(all="ignore"):
        for arr in (x, column):
            for ours, toward in ((_down_arr, -np.inf), (_up_arr, np.inf)):
                want = np.nextafter(arr, toward).view(np.int64)
                assert np.array_equal(ours(arr).view(np.int64), want), arr


ENDS = SPECIAL + [-math.inf, math.inf, math.nan, -1.5, 0.3, 3.0, 2.0**-1074 * 3]
SCALARS = [
    (0.0, 0.0), (-0.0, 0.0), (0.0, 2.0), (-0.0, 3.0), (-3.0, 0.0), (-2.0, -0.0),
    (5e-324, 5e-324), (1e-300, 0.3), (0.15, 0.15), (-0.25, -0.25), (-MAX, -1.0),
    (1.0, MAX), (MIN_NORMAL, MAX), (0.0225, 0.0225),
]


@pytest.mark.parametrize(
    "op,bl,bh",
    [("mul", bl, bh) for bl, bh in SCALARS]
    + [("div", bl, bh) for bl, bh in SCALARS if not bl <= 0.0 <= bh],
)
def test_scalar_factor_of_one_sign_matches_the_four_products(op, bl, bh):
    """IntervalArray.mul/div by a scalar Interval of one sign takes the
    two products of one end of the array per bound; the bounds equal
    _hull4 of all four, bit for bit, on every row, NaN rows (an infinite
    end times a zero end) included."""
    pairs = [(x, y) for x in ENDS for y in ENDS if x <= y or math.isnan(x) or math.isnan(y)]
    al = np.array([x for x, _ in pairs])
    ah = np.array([y for _, y in pairs])
    fn = np.multiply if op == "mul" else np.divide
    with np.errstate(all="ignore"):
        got = getattr(IntervalArray(al, ah), op)(Interval(bl, bh))
        want = _hull4(fn(al, bl), fn(al, bh), fn(ah, bl), fn(ah, bh))
    assert np.isnan(want.lo).any()  # the NaN rows are covered
    for ours, ref in ((got.lo, want.lo), (got.hi, want.hi)):
        assert np.array_equal(ours.view(np.int64), ref.view(np.int64))


def test_real_mode_array_stores_no_imaginary_part():
    x = ComplexInterval(IntervalArray(np.array([1.0]), np.array([2.0])), None)
    a = ComplexInterval(Interval(-0.25, -0.25), Interval(0.0, 0.0))
    out = x.square().add(a).sub(x).mul(a).div(a)
    assert out.im is None
    assert out.re.lo[0] <= -1.25 and 2.75 <= out.re.hi[0]


def test_square_doubles_re_im_by_part_type():
    # the scalar oracle rounds the doubling outward: a lower end
    # saturates at MAX where exact doubling would make it +inf
    big = ComplexInterval(Interval(1e300, 1e300), Interval(1e300, 1e300))
    assert big.square().im == Interval(MAX, math.inf)
    # the array path doubles Re*Im exactly, with no rounding step
    re = IntervalArray(np.array([0.1, -3.0, -0.0]), np.array([0.7, 2.5, 5e-324]))
    im = IntervalArray(np.array([-0.3, 1e-3, -1e-300]), np.array([0.9, 4.0, 1e-300]))
    p = re.mul(im)
    sq = ComplexInterval(re, im).square()
    assert np.array_equal(sq.im.lo, 2.0 * p.lo) and np.array_equal(sq.im.hi, 2.0 * p.hi)
