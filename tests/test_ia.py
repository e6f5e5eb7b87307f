"""Interval layer tests: directed-rounding tightness, containment
soundness sweeps, and the rational-arithmetic oracles."""

import math
import operator
import random
import sys
from fractions import Fraction

import pytest

from boxchain import cli
from boxchain.ia import (
    BoxRegion,
    ComplexInterval,
    DomainError,
    Interval,
    UsageError,
    add_down,
    add_up,
    box_predicates,
    div_down,
    div_up,
    hull_complex,
    mul_down,
    mul_up,
    sqrt_down,
    sqrt_up,
    sub_down,
    sub_up,
)
from boxchain.maps import MapModel

ULP = math.ulp


def iv(lo, hi):
    return Interval(lo, hi)


def rect(rlo, rhi, ilo, ihi):
    return ComplexInterval(Interval(rlo, rhi), Interval(ilo, ihi))


def box2(xr, xi, yr, yi, real=False):
    if real:
        xi = yi = None
    return BoxRegion([ComplexInterval(xr, xi), ComplexInterval(yr, yi)])


# ---------------------------------------------------------------------------
# iv_arith examples
# ---------------------------------------------------------------------------


def test_add_exact_dyadic_endpoints():
    r = iv(1, 2).add(iv(3, 4))
    assert r.lo <= 4.0 <= 6.0 <= r.hi
    assert abs(r.lo - 4.0) <= ULP(4.0) and abs(r.hi - 6.0) <= ULP(6.0)
    # exactness-aware rounding keeps representable results exact
    assert r == iv(4.0, 6.0)


def test_square_is_dedicated_not_mul():
    a = iv(-1.0, 1.0)
    assert a.square() == iv(0.0, 1.0)
    assert a.mul(a) == iv(-1.0, 1.0)


def test_hull_non_dyadic_is_one_ulp():
    h = Interval.hull("0.1")
    assert h.lo < Fraction("0.1") < h.hi
    assert h.hi == math.nextafter(h.lo, math.inf)


@pytest.mark.parametrize(
    "value",
    [10**400, -(10**400), "1e400", Fraction(10**400, 3)],
    ids=["int", "-int", "str", "fraction"],
)
def test_hull_beyond_the_double_range_is_a_domain_error(value):
    with pytest.raises(DomainError, match="beyond the largest double") as ei:
        Interval.hull(value)
    assert repr(value) in str(ei.value)


def test_div_by_zero_interval_is_domain_error():
    with pytest.raises(DomainError):
        iv(1, 2).div(iv(-1, 1))
    with pytest.raises(DomainError):
        iv(1, 2).div(iv(0, 1))


def test_overflow_saturates():
    big = sys.float_info.max
    r = iv(big, big).add(iv(big, big))
    assert r.hi == math.inf and r.lo == big  # lo stays a finite lower bound
    r2 = iv(big, big).mul(iv(2, 2))
    assert r2.hi == math.inf


def test_arith_dispatch():
    # the operators are the methods; there is no power operator
    assert iv(0, 1) + iv(1, 2) == iv(0, 1).add(iv(1, 2)) == iv(1, 3)
    assert iv(0, 1) - iv(1, 2) == iv(0, 1).sub(iv(1, 2)) == iv(-2, 0)
    assert iv(-2, 1) * iv(-2, 1) == iv(-2, 1).mul(iv(-2, 1)) == iv(-2, 4)
    assert iv(1, 2) / iv(2, 4) == iv(1, 2).div(iv(2, 4)) == iv(0.25, 1)
    assert -iv(0, 1) == iv(0, 1).neg() == iv(-1, 0)
    assert iv(-2, 1).square() == iv(0, 4)
    with pytest.raises(TypeError):
        iv(0, 1) ** iv(0, 1)


# ---------------------------------------------------------------------------
# directed rounding: endpoints are the tightest representable values
# ---------------------------------------------------------------------------


def _assert_tight_down(got, exact):
    assert Fraction(got) <= exact, "lower endpoint not a lower bound"
    assert Fraction(math.nextafter(got, math.inf)) > exact, "lower endpoint slack"


def _assert_tight_up(got, exact):
    assert Fraction(got) >= exact
    assert Fraction(math.nextafter(got, -math.inf)) < exact


def test_directed_endpoints_are_tightest():
    rng = random.Random(20113)
    for _ in range(4000):
        a = math.ldexp(rng.uniform(-1, 1), rng.randint(-40, 40))
        b = math.ldexp(rng.uniform(-1, 1), rng.randint(-40, 40))
        fa, fb = Fraction(a), Fraction(b)
        _assert_tight_down(add_down(a, b), fa + fb)
        _assert_tight_up(add_up(a, b), fa + fb)
        _assert_tight_down(mul_down(a, b), fa * fb)
        _assert_tight_up(mul_up(a, b), fa * fb)
        if b != 0.0:
            _assert_tight_down(div_down(a, b), fa / fb)
            _assert_tight_up(div_up(a, b), fa / fb)
        x = abs(a)
        sd, su = sqrt_down(x), sqrt_up(x)
        assert Fraction(sd) ** 2 <= Fraction(x) <= Fraction(su) ** 2
        assert su <= math.nextafter(sd, math.inf)


MAX = sys.float_info.max


def _assert_bound_down(got, exact, slack=0):
    # got <= exact, and at most `slack` doubles strictly between them;
    # -inf counts as the double just below -MAX
    assert got == -math.inf or Fraction(got) <= exact
    nxt = got
    for _ in range(slack + 1):
        nxt = math.nextafter(nxt, math.inf)
    assert nxt == math.inf or Fraction(nxt) > exact


def test_directed_ops_outward_over_full_exponent_range():
    # every finite bound is tight, exact products of a tiny or a huge
    # factor included
    assert mul_down(3e-300, 2.0) == 6e-300
    assert mul_down(2.0**1000, 1.5) == 1.5 * 2.0**1000
    rng = random.Random(6011)
    for _ in range(6000):
        a = math.ldexp(rng.uniform(-1, 1), rng.randint(-1074, 1024))
        b = math.ldexp(rng.uniform(-1, 1), rng.randint(-1074, 1024))
        fa, fb = Fraction(a), Fraction(b)
        for op_down, op_up, exact in (
            (add_down, add_up, fa + fb),
            (mul_down, mul_up, fa * fb),
            (div_down, div_up, fa / fb if b != 0.0 else None),
        ):
            if exact is not None:
                _assert_bound_down(op_down(a, b), exact)
                _assert_bound_down(-op_up(a, b), -exact)
        x = abs(a)
        sd, su = sqrt_down(x), sqrt_up(x)
        assert Fraction(sd) ** 2 <= Fraction(x) <= Fraction(su) ** 2
    for a, b in ((math.inf, 3.0), (3.0, math.inf), (-math.inf, 2.0), (2.0, -math.inf)):
        assert div_down(a, b) <= a / b <= div_up(a, b)


def test_mul_tight_where_products_underflow_or_factors_are_huge():
    # products below 1e-290 (~2**-963) and factors above 2**996, where a
    # two-product error term is not exact, round to the tightest double
    rng = random.Random(3003)
    for _ in range(4000):
        if rng.random() < 0.5:
            ea, t = rng.randint(-1074, 1024), rng.randint(-1130, -963)
        else:
            ea, t = rng.randint(997, 1024), rng.randint(-1130, 1100)
        a = math.ldexp(rng.uniform(-1, 1), ea)
        b = math.ldexp(rng.uniform(-1, 1), max(-1074, min(1024, t - ea)))
        exact = Fraction(a) * Fraction(b)
        _assert_bound_down(mul_down(a, b), exact)
        _assert_bound_down(-mul_up(a, b), -exact)
    # a one-signed square that rounds to 0 has the lower end 0, not below
    assert iv(1e-200, 1e-200).square() == iv(0.0, 5e-324)
    assert iv(-1e-170, -1e-200).square().lo == 0.0


def test_mul_by_one_keeps_the_largest_double():
    assert mul_up(MAX, 1.0) == MAX
    assert mul_down(-MAX, 1.0) == -MAX
    assert mul_down(MAX, 1.0) == MAX and mul_up(-MAX, 1.0) == -MAX
    assert iv(MAX, MAX).mul(iv(1.0, 1.0)) == iv(MAX, MAX)


SPECIAL_GRID = [
    0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, -sys.float_info.min,
    1.0, -1.0, MAX, -MAX, math.inf, -math.inf,
]  # fmt: skip


@pytest.mark.parametrize("a", SPECIAL_GRID, ids=repr)
def test_directed_pairs_on_special_values(a):
    for b in SPECIAL_GRID:
        ops = [
            (add_down, add_up, operator.add),
            (sub_down, sub_up, operator.sub),
            (mul_down, mul_up, operator.mul),
        ]
        if b != 0.0:
            ops.append((div_down, div_up, operator.truediv))
        for down, up, op in ops:
            lo, hi = down(a, b), up(a, b)
            if math.isinf(a) or math.isinf(b):
                r = op(a, b)
                if r != r:  # inf - inf, 0 * inf, inf / inf: everything
                    assert (lo, hi) == (-math.inf, math.inf), (down, a, b)
                elif r == math.inf:
                    assert (lo, hi) == (MAX, math.inf), (down, a, b)
                elif r == -math.inf:
                    assert (lo, hi) == (-math.inf, -MAX), (down, a, b)
                else:  # a finite quotient by an infinity rounds blindly
                    _assert_bound_down(lo, Fraction(r), 1)
                    _assert_bound_down(-hi, -Fraction(r), 1)
                continue
            # tight wherever the result is finite; an infinite end only
            # where the exact value overflows
            exact = op(Fraction(a), Fraction(b))
            _assert_bound_down(lo, exact)
            _assert_bound_down(-hi, -exact)


def test_directed_saturation_rules():
    assert add_up(MAX, MAX) == math.inf
    assert add_down(MAX, MAX) == MAX
    assert mul_up(-MAX, 2.0) == -MAX
    assert mul_down(MAX, 2.0) == MAX
    assert (add_down(math.inf, -math.inf), add_up(math.inf, -math.inf)) == (-math.inf, math.inf)
    assert iv(math.inf, math.inf).add(iv(-math.inf, -math.inf)) == iv(-math.inf, math.inf)


# ---------------------------------------------------------------------------
# containment soundness sweep (1e5 point pairs across all ops)
# ---------------------------------------------------------------------------


def _rand_interval(rng):
    c = math.ldexp(rng.uniform(-1, 1), rng.randint(-8, 8))
    w = abs(math.ldexp(rng.uniform(0, 1), rng.randint(-12, 2)))
    return Interval(c - w, c + w)


def test_containment_soundness_sweep():
    rng = random.Random(977)
    per_op = 20000
    for _ in range(per_op):
        a = _rand_interval(rng)
        b = _rand_interval(rng)
        x = rng.uniform(a.lo, a.hi)
        y = rng.uniform(b.lo, b.hi)
        assert a.add(b).contains(x + y)
        assert a.sub(b).contains(x - y)
        assert a.mul(b).contains(x * y)
        assert a.square().contains(x * x)
        if not (b.lo <= 0.0 <= b.hi):
            assert a.div(b).contains(x / y)


def test_inclusion_monotonicity():
    rng = random.Random(1311)
    for _ in range(2000):
        a = _rand_interval(rng)
        b = _rand_interval(rng)
        # shrink to random subintervals
        asub = Interval(rng.uniform(a.lo, a.mid()), rng.uniform(a.mid(), a.hi))
        bsub = Interval(rng.uniform(b.lo, b.mid()), rng.uniform(b.mid(), b.hi))
        assert a.add(b).encloses(asub.add(bsub))
        assert a.sub(b).encloses(asub.sub(bsub))
        assert a.mul(b).encloses(asub.mul(bsub))
        assert a.square().encloses(asub.square())
        if not (b.lo <= 0.0 <= b.hi):
            assert a.div(b).encloses(asub.div(bsub))


def test_square_inside_self_product_and_nonnegative():
    rng = random.Random(4242)
    tiny = [Interval(1e-300, 2e-300), Interval(-2e-300, -1e-300), Interval(5e-324, 5e-324),
            Interval(-1e-170, -1e-200), Interval(1e-162, 1e-150), Interval(-1e-300, 1e-300)]
    for a in tiny + [_rand_interval(rng) for _ in range(2000)]:
        sq = a.square()
        assert sq.lo >= 0.0
        assert a.mul(a).encloses(sq)


def test_tiny_parameters_square_without_dipping_below_zero():
    # |c|^2 and |a|^2 of parameters near 1e-300 square to 0.0 in double
    # precision; their enclosures must stay at or above zero for the sqrt.
    model = MapModel("cubic_poly", c="1e-300,-1e-300", a="1e-300,-1e-300")
    assert model.r_prime > 0.0
    assert cli.main(["bounds", "--map", "quad_poly", "--c", "1e-300", "--rprime", "2"]) == 0


# ---------------------------------------------------------------------------
# complex multiplication examples
# ---------------------------------------------------------------------------


def test_complex_mul_exact_integers():
    a = ComplexInterval.point(1 + 2j)
    b = ComplexInterval.point(3 + 4j)
    r = a.mul(b)
    assert r.contains(-5 + 10j)
    assert r == ComplexInterval.point(-5 + 10j)  # exact integer arithmetic


def test_complex_mul_unit_identity():
    a = rect(-0.25, 0.5, 0.125, 0.75)
    one = ComplexInterval.point(1 + 0j)
    assert a.mul(one) == a


def test_complex_square_dense_sampling_containment():
    # all sampled squares of the unit rectangle lie inside the enclosure
    sq = rect(0, 1, 0, 1).square()
    rng = random.Random(5)
    for _ in range(10000):
        z = complex(rng.random(), rng.random())
        assert sq.contains(z * z)


def test_complex_div_roundtrip_and_zero_rejection():
    a = rect(1.0, 1.5, -0.5, 0.25)
    b = ComplexInterval.point(0.3 - 0.7j)
    q = a.div(b)
    rng = random.Random(6)
    for _ in range(2000):
        z = complex(rng.uniform(1.0, 1.5), rng.uniform(-0.5, 0.25))
        assert q.contains(z / (0.3 - 0.7j))
    with pytest.raises(DomainError):
        a.div(rect(-1, 1, -1, 1))


# ---------------------------------------------------------------------------
# BoxRegion.widen
# ---------------------------------------------------------------------------


def _unit_box():
    u = Interval(0.0, 1.0)
    return box2(u, u, u, u)


def test_widen_half_per_axis():
    w = _unit_box().widen(0.5)
    for ax in w.axes():
        assert ax.lo <= -0.5 and ax.hi >= 1.5
        assert abs(ax.lo + 0.5) <= ULP(0.5) and abs(ax.hi - 1.5) <= ULP(1.5)


def test_widen_zero_is_identity():
    b = _unit_box()
    assert b.widen(0.0) == b


def test_widen_contains_near_points():
    rng = random.Random(31)
    for _ in range(300):
        lox = sorted(rng.uniform(-2, 2) for _ in range(2))
        loy = sorted(rng.uniform(-2, 2) for _ in range(2))
        b = box2(
            Interval(*lox), Interval(-0.5, 0.5), Interval(*loy), Interval(-1, 1)
        )
        r = rng.uniform(0, 1)
        w = b.widen(r)
        for _ in range(30):
            # sample a point at sup-distance < r from b
            base = [
                rng.uniform(ax.lo, ax.hi) for ax in b.axes()
            ]
            off = [rng.uniform(-r, r) * 0.999 for _ in base]
            pt = [p + o for p, o in zip(base, off)]
            z = [complex(pt[0], pt[1]), complex(pt[2], pt[3])]
            assert w.contains_point(z)


def test_widen_monotone_in_radius():
    b = _unit_box()
    r1, r2 = 0.125, 0.5
    assert b.widen(r2).encloses(b.widen(r1))


def test_real_mode_pins_imaginary():
    b = box2(Interval(0, 1), Interval(0, 0), Interval(0, 1), Interval(0, 0), real=True)
    w = b.widen(0.5)
    for c in w.coords:
        assert c.im is None
    assert max(iv.width() for iv in w.axes()) >= 2.0 - 1e-15


# ---------------------------------------------------------------------------
# box_predicates
# ---------------------------------------------------------------------------


def test_touching_boxes_intersect():
    u1 = Interval(0.0, 1.0)
    u2 = Interval(1.0, 2.0)
    a = box2(u1, u1, u1, u1)
    b = box2(u2, u2, u2, u2)
    p = box_predicates(a, b)
    assert p.intersects and not p.contains and p.sup_distance == 0.0


def test_disjoint_boxes_distance():
    u1 = Interval(0.0, 1.0)
    u2 = Interval(2.0, 3.0)
    p = box_predicates(box2(u1, u1, u1, u1), box2(u2, u2, u2, u2))
    assert not p.intersects
    assert 0.0 < p.sup_distance <= 1.0


def test_dimension_mismatch_rejected():
    one = BoxRegion([rect(0, 1, 0, 1)])
    two = _unit_box()
    with pytest.raises(UsageError):
        box_predicates(one, two)


def test_intersect_verdicts_match_rational_oracle():
    rng = random.Random(90210)
    for _ in range(10000):
        vals = [rng.uniform(-4, 4) for _ in range(8)]
        a_axes = [sorted((vals[0], vals[1])), sorted((vals[2], vals[3]))]
        b_axes = [sorted((vals[4], vals[5])), sorted((vals[6], vals[7]))]
        a = BoxRegion([rect(*a_axes[0], *a_axes[1])])
        b = BoxRegion([rect(*b_axes[0], *b_axes[1])])
        got = box_predicates(a, b).intersects
        want = all(
            Fraction(x[0]) <= Fraction(y[1]) and Fraction(y[0]) <= Fraction(x[1])
            for x, y in zip(a_axes, b_axes)
        )
        assert got == want


def test_sup_distance_is_lower_bound():
    rng = random.Random(777)
    for _ in range(2000):
        a_lo, a_hi = sorted((rng.uniform(-4, 4), rng.uniform(-4, 4)))
        b_lo, b_hi = sorted((rng.uniform(-4, 4), rng.uniform(-4, 4)))
        a = BoxRegion([rect(a_lo, a_hi, -1, 1)])
        b = BoxRegion([rect(b_lo, b_hi, -1, 1)])
        d = a.sup_distance(b)
        exact = max(
            Fraction(b_lo) - Fraction(a_hi), Fraction(a_lo) - Fraction(b_hi), 0
        )
        assert Fraction(d) <= exact


# ---------------------------------------------------------------------------
# hull parsing
# ---------------------------------------------------------------------------


def test_hull_exact_decimal_and_complex():
    assert Interval.hull("-1.1875") == Interval(-1.1875, -1.1875)  # dyadic, exact
    c = hull_complex("-1.17")
    assert c.re.lo < Fraction("-1.17") < c.re.hi
    assert c.im == Interval(0.0, 0.0)


def test_interval_validation():
    with pytest.raises(DomainError):
        Interval(2.0, 1.0)
    with pytest.raises(DomainError):
        Interval(math.nan, 1.0)
