"""Interval arithmetic with outward (directed) rounding.

Every operation returns an enclosure of the exact set result: for all
x in [a], y in [b], x o y lies in [a] o [b].  Endpoints are IEEE-754
doubles; +/-inf endpoints encode saturation, never NaN.

Rounding strategy (scalar path): results are computed in the default
round-to-nearest mode and then adjusted outward *only when inexact*.
Exactness is decided by one exact comparison over the integers: the
rounded result's ratio (float.as_integer_ratio) against the exact
rational sum, product or quotient of the operands' ratios (sqrt
compares squares the same way).  Endpoints are therefore the tightest
representable directed-rounded values: an exactly representable result
is returned unchanged (e.g. square([-1,1]) == [0,1]), and an inexact
one is off by at most one ulp from the unrepresentable exact endpoint.
The one loose case is a quotient of a nonzero finite number by an
infinite endpoint: it rounds to 0 and is moved one ulp outward.
Each upward bound is a negated downward one (rounding is odd), so the
rounding is written once per operation.  Hardware rounding-mode
switching is deliberately not used; everything here is pure and
thread-safe.

Four layers of data live here:

* ``Interval``        -- a closed real interval [lo, hi];
* ``IntervalArray``   -- its numpy counterpart, element-wise intervals
  over float64 arrays, for evaluating one formula on many boxes at once;
* ``ComplexInterval`` -- a rectangle re + i*im whose parts are both
  Intervals or both IntervalArrays (im None in real mode), with one
  add/sub/mul/square/div for either;
* ``BoxRegion``       -- a vector of scalar ComplexIntervals (length 2
  for maps of C^2, length 1 for maps of C), optionally flagged
  real-mode, in which case imaginary parts are pinned to [0, 0].

``IntervalArray`` rounds blindly: each endpoint is computed in
round-to-nearest and then moved one ulp outward (np.nextafter's result,
taken as an integer step on the bits), exact or not, so array results
are never tighter than the scalar operation on the same operands,
except in one exact step: a complex square doubles Re*Im without
rounding.  Arrays do not validate: rows that overflow hold inf or NaN,
and the caller masks them.

Box geometry (widen / intersects / sup_distance) is taken in the
sup norm over all real coordinates: ||x|| = max(|Re x_k|, |Im x_k|).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

import numpy as np

__all__ = [
    "DomainError",
    "UsageError",
    "Interval",
    "ComplexInterval",
    "BoxRegion",
    "IntervalArray",
    "BoxPredicates",
    "box_predicates",
    "hull_complex",
]


class DomainError(ValueError):
    """A mathematical precondition was violated (e.g. division by an
    interval containing zero)."""


class UsageError(ValueError):
    """The operation was called with structurally invalid arguments
    (wrong dimensionality, wrong map kind, bad configuration)."""


_INF = math.inf
_MAX = sys.float_info.max

_nextafter = math.nextafter


def _down(r: float, a, b, exact) -> float:
    """Largest double <= the exact result of an operation on a and b.

    r is that result rounded to nearest; a and b are finite doubles (or
    ints).  ``exact`` maps their integer ratios an/ad and bn/bd to the
    result's ratio num/den with den > 0, and one integer comparison
    then steps r one ulp down only when it lies above num/den.  A
    non-finite r saturates: +inf to MAX, -inf to -inf, and NaN
    (inf - inf or 0 * inf from saturated endpoints) to -inf.
    """
    if not math.isfinite(r):
        return _MAX if r == _INF else -_INF
    an, ad = a.as_integer_ratio()
    bn, bd = b.as_integer_ratio()
    num, den = exact(an, ad, bn, bd)
    rn, rd = r.as_integer_ratio()
    return _nextafter(r, -_INF) if rn * den > num * rd else r


def _sum(an, ad, bn, bd):
    return an * bd + bn * ad, ad * bd


def _prod(an, ad, bn, bd):
    return an * bn, ad * bd


def _quot(an, ad, bn, bd):
    return (an * bd, ad * bn) if bn > 0 else (-an * bd, -ad * bn)


# Rounding is odd, so up(a, b) = -down(-a, b) (-down(-a, -b) for add);
# lower bounds saturate +inf to MAX, hence upper ones -inf to -MAX, and
# "0.0 -" turns a -0.0 into +0.0, as "+ 0.0" does for a zero product
# or quotient.


def add_down(a: float, b: float) -> float:
    """Largest double <= the exact a + b."""
    return _down(a + b, a, b, _sum)


def add_up(a: float, b: float) -> float:
    """Smallest double >= the exact a + b."""
    return 0.0 - add_down(-a, -b)


def sub_down(a: float, b: float) -> float:
    return add_down(a, -b)


def sub_up(a: float, b: float) -> float:
    return 0.0 - add_down(-a, b)


def mul_down(a: float, b: float) -> float:
    """Largest double <= the exact a * b."""
    return _down(a * b + 0.0, a, b, _prod)


def mul_up(a: float, b: float) -> float:
    """Smallest double >= the exact a * b."""
    return 0.0 - mul_down(-a, b)


def div_down(a: float, b: float) -> float:
    """Largest double <= the exact a / b (b != 0)."""
    q = a / b + 0.0
    if math.isinf(b) and math.isfinite(a):  # q is 0.0: one ulp loose unless a is 0
        return _nextafter(q, -_INF) if a else q
    return _down(q, a, b, _quot)


def div_up(a: float, b: float) -> float:
    """Smallest double >= the exact a / b (b != 0)."""
    return 0.0 - div_down(-a, b)


def _sqrt_toward(x: float, toward: float) -> float:
    # sqrt(x) (x >= 0) rounded to the nearest double toward +-inf.
    if x == 0.0:
        return 0.0
    if x == _INF:
        return _INF if toward > 0.0 else _MAX
    s = math.sqrt(x)
    sn, sd = s.as_integer_ratio()
    xn, xd = x.as_integer_ratio()
    over = sn * sn * xd - xn * sd * sd  # sign of s^2 - x
    return s if over == 0 or (over > 0) == (toward > 0.0) else _nextafter(s, toward)


def sqrt_down(x: float) -> float:
    """Largest double <= the exact sqrt(x) (x >= 0)."""
    return _sqrt_toward(x, -_INF)


def sqrt_up(x: float) -> float:
    """Smallest double >= the exact sqrt(x) (x >= 0)."""
    return _sqrt_toward(x, _INF)


class Interval:
    """Closed interval [lo, hi] of doubles, lo <= hi.  Immutable."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        lo = float(lo)
        hi = float(hi)
        if not (lo <= hi):  # also rejects NaN endpoints
            raise DomainError(f"invalid interval endpoints [{lo!r}, {hi!r}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("Interval is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x)

    @staticmethod
    def hull(value: Union[float, int, str, Fraction]) -> "Interval":
        """Smallest double interval containing the exact value.

        Strings are parsed as exact decimals, so non-dyadic parameters
        like "-1.17" come out as genuine 1-ulp enclosures.  A value
        beyond the double range is a DomainError.
        """
        if isinstance(value, float):
            return Interval(value, value)
        if not isinstance(value, (int, str, Fraction)):
            raise UsageError(f"cannot hull {type(value).__name__}")
        fr = Fraction(value)
        n, d = fr.numerator, fr.denominator
        try:
            f = n / d  # correctly rounded
        except OverflowError:
            raise DomainError(f"{value!r} lies beyond the largest double") from None
        return Interval(_down(f, n, d, _quot), -_down(-f, -n, d, _quot))

    # -- basic queries ---------------------------------------------------

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __eq__(self, other):
        return (
            isinstance(other, Interval)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self):
        return hash((self.lo, self.hi))

    def width(self) -> float:
        """Upper bound on hi - lo."""
        return sub_up(self.hi, self.lo)

    def mid(self) -> float:
        m = 0.5 * (self.lo + self.hi)
        if not math.isfinite(m):
            m = 0.5 * self.lo + 0.5 * self.hi
        return m

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def encloses(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def is_disjoint(self, other: "Interval") -> bool:
        return self.hi < other.lo or other.hi < self.lo

    # -- arithmetic --------------------------------------------------------

    def add(self, other: "Interval") -> "Interval":
        return Interval(add_down(self.lo, other.lo), add_up(self.hi, other.hi))

    def sub(self, other: "Interval") -> "Interval":
        return Interval(sub_down(self.lo, other.hi), sub_up(self.hi, other.lo))

    def neg(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def mul(self, other: "Interval") -> "Interval":
        al, ah, bl, bh = self.lo, self.hi, other.lo, other.hi
        lo = min(
            mul_down(al, bl), mul_down(al, bh), mul_down(ah, bl), mul_down(ah, bh)
        )
        hi = max(mul_up(al, bl), mul_up(al, bh), mul_up(ah, bl), mul_up(ah, bh))
        return Interval(lo, hi)

    def square(self) -> "Interval":
        """Enclosure of {x^2 : x in self}; never extends below zero."""
        lo, hi = self.lo, self.hi
        if lo >= 0.0:
            return Interval(mul_down(lo, lo), mul_up(hi, hi))
        if hi <= 0.0:
            return Interval(mul_down(hi, hi), mul_up(lo, lo))
        m = max(-lo, hi)
        return Interval(0.0, mul_up(m, m))

    def div(self, other: "Interval") -> "Interval":
        if other.lo <= 0.0 <= other.hi:
            raise DomainError("division by an interval containing zero")
        al, ah, bl, bh = self.lo, self.hi, other.lo, other.hi
        lo = min(
            div_down(al, bl), div_down(al, bh), div_down(ah, bl), div_down(ah, bh)
        )
        hi = max(div_up(al, bl), div_up(al, bh), div_up(ah, bl), div_up(ah, bh))
        return Interval(lo, hi)

    def sqrt(self) -> "Interval":
        if self.lo < 0.0:
            raise DomainError("sqrt of an interval extending below zero")
        return Interval(sqrt_down(self.lo), sqrt_up(self.hi))

    def widen(self, r: float) -> "Interval":
        """Enclosure of the closed r-neighborhood (r >= 0)."""
        if r < 0.0:
            raise UsageError("widen radius must be nonnegative")
        return Interval(sub_down(self.lo, r), add_up(self.hi, r))

    def scale(self, s: float) -> "Interval":
        return self.mul(Interval.point(s))

    def twice(self) -> "Interval":
        """2 * self, outward rounded: a lower end saturates at MAX."""
        return self.scale(2.0)

    __add__ = add
    __sub__ = sub
    __mul__ = mul
    __truediv__ = div
    __neg__ = neg


_ZERO = Interval(0.0, 0.0)


class ComplexInterval:
    """Rectangle {x + iy : x in re, y in im}.  Immutable.

    The parts are both ``Interval``s (one rectangle) or both
    ``IntervalArray``s (one rectangle per row).  ``im=None`` is real
    mode: the imaginary part is exactly zero and is not stored, and the
    other operand of an operation must then be real (zero imaginary
    part) as well, since its imaginary part is ignored.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value):
        raise AttributeError("ComplexInterval is immutable")

    @staticmethod
    def point(z: complex) -> "ComplexInterval":
        z = complex(z)
        return ComplexInterval(Interval.point(z.real), Interval.point(z.imag))

    def __repr__(self):
        return f"ComplexInterval({self.re!r}, {self.im!r})"

    def __eq__(self, other):
        return (
            isinstance(other, ComplexInterval)
            and self.re == other.re
            and self.im == other.im
        )

    def __hash__(self):
        return hash((self.re, self.im))

    def contains(self, z: complex) -> bool:
        return self.re.contains(z.real) and self.im.contains(z.imag)

    def encloses(self, other: "ComplexInterval") -> bool:
        return self.re.encloses(other.re) and self.im.encloses(other.im)

    def add(self, other: "ComplexInterval") -> "ComplexInterval":
        im = None if self.im is None else self.im.add(other.im)
        return ComplexInterval(self.re.add(other.re), im)

    def sub(self, other: "ComplexInterval") -> "ComplexInterval":
        im = None if self.im is None else self.im.sub(other.im)
        return ComplexInterval(self.re.sub(other.re), im)

    def neg(self) -> "ComplexInterval":
        return ComplexInterval(self.re.neg(), self.im.neg())

    def mul(self, other: "ComplexInterval") -> "ComplexInterval":
        # (a+bi)(c+di): re = ac - bd, im = ad + bc, each outward rounded.
        a, b, c, d = self.re, self.im, other.re, other.im
        if b is None:
            return ComplexInterval(a.mul(c), None)
        return ComplexInterval(a.mul(c).sub(b.mul(d)), a.mul(d).add(b.mul(c)))

    def square(self) -> "ComplexInterval":
        # re^2 - im^2 via dedicated squares (tighter than self*self).
        if self.im is None:
            return ComplexInterval(self.re.square(), None)
        p = self.re.mul(self.im)
        return ComplexInterval(self.re.square().sub(self.im.square()), p.twice())

    def abs_sq(self) -> Interval:
        """Enclosure of |z|^2."""
        return self.re.square().add(self.im.square())

    def modulus(self) -> Interval:
        """Enclosure of |z|."""
        return self.abs_sq().sqrt()

    def div(self, other: "ComplexInterval") -> "ComplexInterval":
        """Quotient by a scalar rectangle: u * conj(v) / |v|^2, with the
        tight scalar enclosure of |v|^2; requires 0 not in it."""
        den = other.abs_sq()
        if den.lo <= 0.0:
            raise DomainError("complex division by a rectangle meeting zero")
        num = self.mul(ComplexInterval(other.re, other.im.neg()))
        im = None if num.im is None else num.im.div(den)
        return ComplexInterval(num.re.div(den), im)

    __add__ = add
    __sub__ = sub
    __mul__ = mul
    __truediv__ = div
    __neg__ = neg


def hull_complex(re, im="0") -> ComplexInterval:
    return ComplexInterval(Interval.hull(re), Interval.hull(im))


class BoxPredicates(NamedTuple):
    intersects: bool
    contains: bool
    sup_distance: float


class BoxRegion:
    """A box in C^n (n = 1 or 2) as a vector of ComplexIntervals.

    With ``real=True`` the box lives in R^n: imaginary parts are pinned
    to [0, 0] and do not count as axes for widening or distances.
    """

    __slots__ = ("coords", "real")

    def __init__(self, coords: Sequence[ComplexInterval], real: bool = False):
        coords = tuple(coords)
        if not coords:
            raise UsageError("BoxRegion needs at least one coordinate")
        if real:
            coords = tuple(ComplexInterval(c.re, _ZERO) for c in coords)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "real", real)

    def __setattr__(self, name, value):
        raise AttributeError("BoxRegion is immutable")

    def __repr__(self):
        return f"BoxRegion({list(self.coords)!r}, real={self.real})"

    def __eq__(self, other):
        return (
            isinstance(other, BoxRegion)
            and self.real == other.real
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.coords, self.real))

    # -- axis view ---------------------------------------------------------

    def axes(self) -> list[Interval]:
        """The real-interval components (Re/Im pairs, Re only in real mode)."""
        out = []
        for c in self.coords:
            out.append(c.re)
            if not self.real:
                out.append(c.im)
        return out

    def _compatible(self, other: "BoxRegion") -> None:
        if len(self.coords) != len(other.coords) or self.real != other.real:
            raise UsageError("box dimensionality mismatch")

    def contains_point(self, point: Sequence[complex]) -> bool:
        if len(point) != len(self.coords):
            raise UsageError("box dimensionality mismatch")
        return all(c.contains(complex(z)) for c, z in zip(self.coords, point))

    def widen(self, r: float) -> "BoxRegion":
        if r < 0.0:
            raise UsageError("widen radius must be nonnegative")
        if self.real:
            coords = [ComplexInterval(c.re.widen(r), _ZERO) for c in self.coords]
        else:
            coords = [
                ComplexInterval(c.re.widen(r), c.im.widen(r)) for c in self.coords
            ]
        return BoxRegion(coords, real=self.real)

    def intersects(self, other: "BoxRegion") -> bool:
        self._compatible(other)
        return all(
            not a.is_disjoint(b) for a, b in zip(self.axes(), other.axes())
        )

    def encloses(self, other: "BoxRegion") -> bool:
        self._compatible(other)
        return all(a.encloses(b) for a, b in zip(self.axes(), other.axes()))

    def sup_distance(self, other: "BoxRegion") -> float:
        """Rigorous lower bound on the sup-norm distance (0 if they meet)."""
        self._compatible(other)
        d = 0.0
        for a, b in zip(self.axes(), other.axes()):
            gap = max(sub_down(b.lo, a.hi), sub_down(a.lo, b.hi), 0.0)
            if gap > d:
                d = gap
        return d


def box_predicates(a: BoxRegion, b: BoxRegion) -> BoxPredicates:
    """Closed-box intersection, containment (a encloses b) and a rigorous
    lower bound on their sup-norm distance."""
    inter = a.intersects(b)
    return BoxPredicates(
        intersects=inter,
        contains=a.encloses(b),
        sup_distance=0.0 if inter else a.sup_distance(b),
    )


# ---------------------------------------------------------------------------
# interval arrays (numpy, blind outward rounding)
# ---------------------------------------------------------------------------


def _down_arr(x):
    """np.nextafter(x, -inf) of a float64 array, bit for bit."""
    return _ulp_arr(x, -np.inf)


def _up_arr(x):
    """np.nextafter(x, inf) of a float64 array, bit for bit."""
    return _ulp_arr(x, np.inf)


def _ulp_arr(x, toward):
    """One-ulp step of every element of ``x`` toward ``toward`` (+-inf).

    The doubles of one sign are ordered like their int64 bit patterns, so
    the neighbour of a finite nonzero x is one integer step away: +1 on
    the pattern raises |x|, -1 lowers it.  Zeros, infinities and NaN,
    where that step is wrong, get np.nextafter itself; they are rare, and
    the integer step costs a fraction of np.nextafter on every element.
    """
    bits = x.view(np.int64)
    sign = bits >> 63
    sign |= 1  # 1 for a clear sign bit, -1 for a set one
    step = np.add if toward > 0 else np.subtract
    out = step(bits, sign, out=sign).view(np.float64)
    plain = np.isfinite(x)
    plain &= x != 0.0
    if not plain.all():
        odd = np.flatnonzero(~plain)
        out.flat[odd] = np.nextafter(x.flat[odd], toward)
    return out


def _hull4(p1, p2, p3, p4) -> "IntervalArray":
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    return IntervalArray(_down_arr(lo), _up_arr(hi))


def _product(a: "IntervalArray", b, op) -> "IntervalArray":
    """a op b, op np.multiply or np.divide (b excludes 0), rounded as
    ``_hull4`` of the four end products, bit for bit.

    When b is a scalar Interval of one sign with finite ends (the map
    constants a and |a|^2), x op e is monotone in x for either end e of
    b, so the lower bound is the smaller product of one end of a with
    b's two ends, and the upper bound the larger of the other end's:
    two products and one min or max per bound, in place of the four
    products and three min and max each of ``_hull4``.  Rounding to
    nearest is monotone, so the rounded products keep that order.  (A
    tie of -0 and +0 is no difference: the one-ulp step takes both to
    the same double.)  Rows with an infinite or NaN end, where a product
    can be NaN and the hull follows NaN, get ``_hull4`` itself; they are
    rare.
    """
    al, ah, bl, bh = a.lo, a.hi, b.lo, b.hi

    def hull(lo, hi):
        return _hull4(op(lo, bl), op(lo, bh), op(hi, bl), op(hi, bh))

    if not (
        isinstance(b, Interval)
        and (bl >= 0.0 or bh <= 0.0)
        and math.isfinite(bl)
        and math.isfinite(bh)
    ):
        return hull(al, ah)
    # increasing in x for b >= 0, decreasing for b < 0
    x, y = (ah, al) if bl < 0.0 else (al, ah)
    out = IntervalArray(
        _down_arr(np.minimum(op(x, bl), op(x, bh))),
        _up_arr(np.maximum(op(y, bl), op(y, bh))),
    )
    odd = ~np.isfinite(al)
    odd |= ~np.isfinite(ah)
    if odd.any():
        rows = np.flatnonzero(odd)
        ref = hull(al[rows], ah[rows])
        out.lo[rows], out.hi[rows] = ref.lo, ref.hi
    return out


class IntervalArray:
    """Element-wise intervals [lo, hi] over float64 arrays.

    The other operand of a binary operation is an IntervalArray or a
    scalar Interval, which broadcasts over the rows.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi

    def add(self, other) -> "IntervalArray":
        return IntervalArray(_down_arr(self.lo + other.lo), _up_arr(self.hi + other.hi))

    def sub(self, other) -> "IntervalArray":
        return IntervalArray(_down_arr(self.lo - other.hi), _up_arr(self.hi - other.lo))

    def mul(self, other) -> "IntervalArray":
        return _product(self, other, np.multiply)

    def square(self) -> "IntervalArray":
        lo, hi = self.lo, self.hi
        m = np.maximum(-lo, hi)
        # the end nearest zero, or zero itself when the interval holds it;
        # the maximum turns its square's rounded-down zero into +0.0
        near = np.where(lo >= 0.0, lo, np.where(hi <= 0.0, hi, 0.0))
        return IntervalArray(np.maximum(_down_arr(near * near), 0.0), _up_arr(m * m))

    def div(self, other) -> "IntervalArray":
        if np.any((other.lo <= 0.0) & (0.0 <= other.hi)):
            raise DomainError("division by an interval containing zero")
        return _product(self, other, np.divide)

    def twice(self) -> "IntervalArray":
        """2 * self; doubling is exact, so there is no rounding step."""
        return IntervalArray(2.0 * self.lo, 2.0 * self.hi)
