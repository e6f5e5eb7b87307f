"""Dynamical system definitions and their interval extensions.

Supported families:

* ``henon_complex`` -- f(x, y) = (x^2 + c - a*y, x) on C^2, a != 0;
* ``henon_real``    -- the same map restricted to R^2 (a, c real);
* ``quad_poly``     -- P(z) = z^2 + c on C;
* ``cubic_poly``    -- P(z) = z^3 - 3 a^2 z + c on C.

A ``MapModel`` bundles the parameters with the trapping data: the
radius R beyond which orbits provably escape, the chosen box radius
R' > R (snapped up to a 12-fractional-bit dyadic so grid endpoints are
exact doubles), and delta0' = q(R')/2 > 0, where q is the escape
polynomial of the family.  The trapping box V0 = {|x| <= R', |y| <= R'}
(Re/Im componentwise) then contains the delta0'-chain recurrent set.

Parameters arrive as decimal strings, parsed once to exact Fractions
(``c_exact``, ``a_exact``).  Their outward hulls serve all interval
evaluation; plain nearest-double values are kept alongside for point
arithmetic (``point_forward``, ``point_derivative``).

``forward_orbits`` is the one non-rigorous point-iteration path: it
iterates arrays of points, drops each row at its first iterate outside
a sup-norm ball, and composes ``point_derivative`` along the orbit.
The sink-basin refinement selector, the heuristic sink-cycle search,
the cycle multipliers of ``sink_orbits`` and the bounded-orbit (K+)
lightening of renders all run through it; none of them enters a rigor
claim.

Each family's interval extension F (and F^-1 for Henon kinds) is
written once, in ``MapModel.interval_forward``/``interval_backward``,
as a formula over coordinate objects with the add/sub/mul/square/div
API of ``ia``.  Two arithmetics run it, both with the imaginary part
None in real mode:

* ``image``/``preimage`` pass the ComplexIntervals of a ``BoxRegion``:
  the tightest directed rounding, the independent oracle;
* ``batch_forward``/``batch_backward`` pass ComplexIntervals of
  IntervalArrays built from [N, naxes] endpoint arrays: blind one-ulp
  outward rounding, used by every bulk pipeline phase (escape pruning
  calls both, the edge build the first) on pieces of rows, one after
  another.  Both enclose the exact image, and on every row whose result
  is finite the array enclosure contains the scalar one
  (tests/test_interval_array.py checks this on adversarial endpoints),
  so an edge or escape decision made from it is as sound.

``coords_from_axes``/``axes_from_coords`` hold the phase-space layout:
which real axes make up a point or box of each kind.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import ParseError
from .ia import (
    BoxRegion,
    ComplexInterval,
    Interval,
    IntervalArray,
    UsageError,
    _ZERO,
    hull_complex,
)

__all__ = [
    "KINDS",
    "MapModel",
    "FixedPointInfo",
    "SinkOrbit",
    "trapping_radius",
    "trapping_box",
    "fixed_points",
    "sink_orbits",
    "snap_up_dyadic",
    "sup_bounded",
    "forward_orbits",
]

KINDS = ("henon_complex", "henon_real", "quad_poly", "cubic_poly")

_GRID_BITS = 12  # fractional bits of the dyadic grid radius
_MAX_PERIOD = 8  # longest cycle heuristic_sink_cycles looks for
_TRANSIENT = 400  # seed orbit steps before the cycle search


def snap_up_dyadic(x: float, bits: int = _GRID_BITS) -> float:
    """Smallest dyadic rational with `bits` fractional bits that is >= x."""
    n = math.ceil(Fraction(float(x)) * (1 << bits))
    return n / (1 << bits)


def _parse_decimal(s) -> Fraction:
    """The exact value of a decimal string that rounds to a finite double."""
    try:
        value = Fraction(str(s).strip())
        float(value)  # OverflowError beyond the double range
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ParseError(f"bad decimal parameter {s!r}") from exc
    return value


def parse_complex_param(value) -> tuple:
    """A parameter as ((re, im) decimal strings, their exact Fraction
    values, the nearest complex double, the outward ComplexInterval
    hull); each string is parsed once.

    Accepts "re", "re,im", numbers, or complex; float/complex inputs
    use repr so the decimal string round-trips the double exactly.
    """
    if isinstance(value, str):
        strs = tuple(part.strip() for part in value.split(","))
        if len(strs) == 1:
            strs += ("0",)
        elif len(strs) != 2:
            raise ParseError(f"bad complex parameter {value!r}")
    elif isinstance(value, complex):
        strs = repr(value.real), repr(value.imag)
    elif isinstance(value, (int, float, Fraction)):
        strs = repr(float(value)) if isinstance(value, float) else str(value), "0"
    else:
        raise ParseError(f"bad complex parameter {value!r}")
    exact = tuple(_parse_decimal(part) for part in strs)
    return strs, exact, complex(*map(float, exact)), hull_complex(*exact)


class MapModel:
    """A map of the supported families with its trapping data.

    Immutable after construction; all operations are pure.
    """

    def __init__(self, kind: str, c, a=None, r_prime: Optional[float] = None):
        if kind not in KINDS:
            raise UsageError(f"unknown map kind {kind!r}")
        self.kind = kind
        self.c_str, self.c_exact, self.c, self.c_iv = parse_complex_param(c)

        if kind == "quad_poly":
            if a is not None:
                raise UsageError("quad_poly takes no 'a' parameter")
            self.a_str = self.a_exact = self.a = self.a_iv = None
        else:
            if a is None:
                raise UsageError(f"{kind} requires an 'a' parameter")
            self.a_str, self.a_exact, self.a, self.a_iv = parse_complex_param(a)
            # F^-1 divides by a, through an enclosure of |a|^2 that must exclude 0
            if self.is_henon and not self.a_iv.abs_sq().lo > 0.0:
                raise UsageError(
                    "Henon maps need a != 0 for invertibility, with |a|^2 above 0 "
                    f"in double precision; got a={self.a_str[0]},{self.a_str[1]}"
                )

        if kind == "henon_real":
            if self.a.imag != 0 or self.c.imag != 0:
                raise UsageError("henon_real requires real parameters")

        self.R = trapping_radius(self)
        if r_prime is None:
            r_prime = 1.05 * self.R
        self.r_prime, self.delta0_prime = trapping_box(self, float(r_prime))

    # -- structure ---------------------------------------------------------

    @property
    def is_henon(self) -> bool:
        return self.kind in ("henon_complex", "henon_real")

    @property
    def is_one_dim(self) -> bool:
        return self.kind in ("quad_poly", "cubic_poly")

    @property
    def real_mode(self) -> bool:
        return self.kind == "henon_real"

    @property
    def conjugation_axes(self) -> tuple:
        """The real axes complex conjugation negates (Im x and Im y on
        C^2, Im z on C) when F commutes with it, else ().

        F commutes with conjugation when its formula has real
        coefficients: every parameter's imaginary hull is exactly
        [0, 0].  The interval extensions then commute with it exactly:
        negating the imaginary axes of a box negates those of its
        enclosure, bit for bit, because every upward rounding is a
        negated downward one.  In real mode there is nothing to negate.
        """
        params = [iv for iv in (self.c_iv, self.a_iv) if iv is not None]
        if self.real_mode or any(iv.im.lo != 0.0 or iv.im.hi != 0.0 for iv in params):
            return ()
        return tuple(range(1, self.naxes, 2))

    @property
    def ncoords(self) -> int:
        return 2 if self.is_henon else 1

    @property
    def naxes(self) -> int:
        """Number of real axes of the phase-space boxes."""
        return self.ncoords if self.real_mode else 2 * self.ncoords

    @property
    def a_mod(self) -> float:
        return abs(self.a) if self.a is not None else 0.0

    @property
    def c_mod(self) -> float:
        return abs(self.c)

    def param_text(self) -> str:
        parts = [f"kind={self.kind}"]
        if self.a_str is not None:
            parts.append(f"a={self.a_str[0]},{self.a_str[1]}")
        parts.append(f"c={self.c_str[0]},{self.c_str[1]}")
        return " ".join(parts)

    def __repr__(self):
        return f"MapModel({self.param_text()}, rprime={self.r_prime!r})"

    def check_box(self, box: BoxRegion) -> None:
        if len(box.coords) != self.ncoords or box.real != self.real_mode:
            raise UsageError("box does not match the map's phase space")

    # -- phase-space layout --------------------------------------------------

    def coords_from_axes(self, axes, pair) -> tuple:
        """Group the real axes (Re x, Im x, Re y, Im y), (x, y) in real
        mode, or (Re z, Im z) into coordinates pair(re, im); im is None
        in real mode."""
        if self.real_mode:
            return tuple(pair(v, None) for v in axes)
        return tuple(pair(re, im) for re, im in zip(axes[0::2], axes[1::2]))

    def axes_from_coords(self, coords, parts=lambda c: (c.re, c.im)) -> tuple:
        """The real axes of a box or point; parts(c) is (re, im) of one
        coordinate."""
        if len(coords) != self.ncoords:
            raise UsageError("coordinates do not match the map's phase space")
        keep = 1 if self.real_mode else 2
        return tuple(v for c in coords for v in parts(c)[:keep])

    def point_from_axes(self, vals) -> tuple:
        """One complex per coordinate from real axis values, or one
        complex array per coordinate from axis arrays.  The parts are set
        directly, so each value is exactly complex(re, im), signed zeros
        included."""

        def point(re, im):
            z = np.empty(np.shape(re), dtype=complex)
            z.real = re
            z.imag = 0.0 if im is None else im
            return z if z.ndim else complex(z)

        return self.coords_from_axes(vals, point)

    def point_axes(self, pt) -> tuple:
        """The real axis values of a point (one complex per coordinate),
        or axis arrays of points (one complex array per coordinate)."""
        return self.axes_from_coords(pt, lambda z: (z.real, z.imag))

    def box_from_axes(self, axes) -> BoxRegion:
        return BoxRegion(self.coords_from_axes(axes, ComplexInterval))

    # -- interval extension F (one formula, scalar or array coordinates) -----

    @functools.cached_property
    def _three_a_sq(self) -> ComplexInterval:
        """3a^2 of the cubic, evaluated once per model."""
        asq = self.a_iv.square()
        three = Interval(3.0, 3.0)
        return ComplexInterval(asq.re.mul(three), asq.im.mul(three))

    def interval_forward(self, coords) -> tuple:
        """F on ComplexIntervals whose parts are Intervals or
        IntervalArrays.  A box variable is always the receiver (y.mul(a),
        not a.mul(y)): the scalar constants take no array operand."""
        if self.is_henon:
            x, y = coords
            return (x.square().add(self.c_iv).sub(y.mul(self.a_iv)), x)
        (z,) = coords
        if self.kind == "quad_poly":
            return (z.square().add(self.c_iv),)
        # cubic, Horner form (z^2 - 3a^2) z + c
        return (z.square().sub(self._three_a_sq).mul(z).add(self.c_iv),)

    def interval_backward(self, coords) -> tuple:
        if not self.is_henon:
            raise UsageError("inverse is defined for Henon kinds only")
        x, y = coords
        return (y, y.square().add(self.c_iv).sub(x).div(self.a_iv))

    def image(self, box: BoxRegion) -> BoxRegion:
        self.check_box(box)
        return BoxRegion(self.interval_forward(box.coords))

    def preimage(self, box: BoxRegion) -> BoxRegion:
        if not self.is_henon:
            raise UsageError("preimage is defined for Henon kinds only")
        self.check_box(box)
        return BoxRegion(self.interval_backward(box.coords))

    # -- point arithmetic (non-rigorous helpers) -----------------------------

    def point_forward(self, pt: Sequence[complex]) -> tuple:
        if self.is_henon:
            x, y = pt
            return (x * x + self.c - self.a * y, x)
        z = pt[0]
        if self.kind == "quad_poly":
            return (z * z + self.c,)
        return (z * z * z - 3.0 * self.a * self.a * z + self.c,)

    def point_derivative(self, pt: Sequence[complex]):
        """Jacobian at a point: 2x2 complex matrix (Henon) or scalar (1-D)."""
        if self.is_henon:
            x, _ = pt
            return ((2.0 * x, -self.a), (1.0 + 0j, 0.0 + 0j))
        z = pt[0]
        if self.kind == "quad_poly":
            return 2.0 * z
        return 3.0 * z * z - 3.0 * self.a * self.a


# ---------------------------------------------------------------------------
# trapping data
# ---------------------------------------------------------------------------


def _abs_interval(model: MapModel, which: str) -> Interval:
    civ = model.c_iv if which == "c" else model.a_iv
    if civ is None:
        return _ZERO
    return civ.modulus()


def trapping_radius(model: MapModel) -> float:
    """Upper enclosure of the escape radius R >= 1.

    Quadratic kinds use the closed form
    R = (1 + |a| + sqrt((1+|a|)^2 + 4|c|)) / 2 evaluated in interval
    arithmetic (exact when the inputs are exact, e.g. R = 2 for the
    1-D map with c = 2).  The cubic family has no closed form; its
    escape polynomial q(r) = r^3 - 3|a|^2 r - r - |c| is bisected
    outward to width 2^-40 and the upper endpoint returned.
    """
    one = Interval(1.0, 1.0)
    c_mod = _abs_interval(model, "c")
    if model.kind != "cubic_poly":
        a_mod = _abs_interval(model, "a")
        s = one.add(a_mod)
        disc = s.square().add(c_mod.scale(4.0))
        r = s.add(disc.sqrt()).scale(0.5)
        return max(r.hi, 1.0)

    a_sq3 = model.a_iv.abs_sq().scale(3.0)

    def q(r: float) -> Interval:
        rr = Interval.point(r)
        return rr.square().mul(rr).sub(a_sq3.mul(rr)).sub(c_mod).sub(rr)

    lo = 1.0
    hi = 1.0 + a_sq3.hi + c_mod.hi + 2.0
    while not q(hi).lo > 0.0:
        hi *= 2.0
    target = 2.0 ** -40
    while hi - lo > target:
        mid = 0.5 * (lo + hi)
        qm = q(mid)
        if qm.lo > 0.0:
            hi = mid
        elif qm.hi < 0.0:
            lo = mid
        else:
            break  # sign undecidable at this width; hi stays an upper bound
    return max(hi, 1.0)


def trapping_box(model: MapModel, r_prime: float) -> tuple[float, float]:
    """Trapping box V0 = [-R', R']^naxes for a chosen radius R' > R.

    Returns (R'_snapped, delta0') where R' is snapped up to the dyadic
    grid (12 fractional bits) and 2*delta0' = q(R') > 0.  The
    delta0'-chain recurrent set is contained in V0.
    """
    if not math.isfinite(r_prime):
        raise UsageError(f"r_prime={r_prime} is not a finite number")
    rp = snap_up_dyadic(float(r_prime))
    if not rp > model.R:
        raise UsageError(
            f"r_prime={r_prime} must exceed the trapping radius R={model.R}"
        )
    if model.kind == "cubic_poly":
        q = rp ** 3 - 3.0 * model.a_mod ** 2 * rp - model.c_mod - rp
    else:
        q = rp * rp - (1.0 + model.a_mod) * rp - model.c_mod
    d0 = 0.5 * q
    if not d0 > 0.0:
        raise UsageError("degenerate trapping box: q(R') <= 0")
    return rp, d0


# ---------------------------------------------------------------------------
# fixed points, eigenvalues, sink orbits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedPointInfo:
    location: tuple  # (z, z) for Henon, (z,) for 1-D
    eigenvalues: tuple  # (l1, l2) with |l1| >= |l2|, or (multiplier,)
    classification: str  # sink | saddle | repelling | neutral


def _classify(moduli: Sequence[float]) -> str:
    hi = max(moduli)
    lo = min(moduli)
    if hi < 1.0:
        return "sink"
    if lo > 1.0:
        return "repelling"
    if hi > 1.0 > lo:
        return "saddle"
    return "neutral"


def _newton_polish(z: complex, f, df, steps: int = 3) -> complex:
    for _ in range(steps):
        d = df(z)
        if d == 0:
            break
        z = z - f(z) / d
    return z


def _quadratic_roots(b: complex, c: complex) -> tuple[complex, complex, bool]:
    """Roots of z^2 + b z + c, numerically stable; flag repeated root."""
    disc = b * b - 4.0 * c
    s = cmath.sqrt(disc)
    if (b.conjugate() * s).real > 0.0:
        s = -s
    q = -0.5 * (b - s)  # the larger-magnitude root of the pair
    if q == 0:
        return 0.0 + 0j, 0.0 + 0j, True
    r1 = q
    r2 = c / q
    return r1, r2, disc == 0


def fixed_points(model: MapModel) -> list[FixedPointInfo]:
    """All fixed points with eigenvalue data and classification.

    Point (non-interval) arithmetic with Newton polishing; residuals
    ||f(p) - p|| are at the 1e-14 level for the studied parameters.
    Each kind supplies its fixed-point polynomial g, g' and starting
    roots; a polished root within 1e-9 of a kept one is dropped.
    """
    a, c = model.a, model.c
    if model.is_henon:
        g = lambda z: z * z - (1.0 + a) * z + c
        dg = lambda z: 2.0 * z - (1.0 + a)
        starts = _quadratic_roots(-(1.0 + a), c)[:2]
    elif model.kind == "quad_poly":
        g = lambda z: z * z + c - z
        dg = lambda z: 2.0 * z - 1.0
        starts = _quadratic_roots(-1.0, c)[:2]
    else:  # cubic: roots of z^3 - (3a^2 + 1) z + c
        g = lambda z: z * z * z - (3.0 * a * a + 1.0) * z + c
        dg = lambda z: 3.0 * z * z - (3.0 * a * a + 1.0)
        roots = np.roots([1.0, 0.0, -(3.0 * a * a + 1.0), c])
        starts = sorted(roots, key=lambda w: (w.real, w.imag))
    out = []
    for z in starts:
        z = _newton_polish(complex(z), g, dg)
        if any(abs(z - fp.location[0]) < 1e-9 for fp in out):
            continue
        if model.is_henon:
            # eigenvalues of [[2z, -a], [1, 0]]: l^2 - 2z l + a = 0, larger modulus first
            loc = (z, z)
            eig = tuple(sorted(_quadratic_roots(-2.0 * z, a)[:2], key=abs, reverse=True))
        else:
            loc, eig = (z,), (model.point_derivative((z,)),)
        out.append(FixedPointInfo(loc, eig, _classify([abs(l) for l in eig])))
    return out


@dataclass(frozen=True)
class SinkOrbit:
    """An attracting periodic orbit used to label graph components.

    ``method`` is "exact" for closed-form fixed points / 2-cycles
    (Newton-polished) and "heuristic" for orbits found by the
    non-rigorous forward-orbit sampler.
    """

    points: tuple  # tuple of phase-space points, one per period step
    period: int
    multiplier_max: float  # max eigenvalue modulus of the composed derivative
    method: str


def sup_bounded(pt, radius: float):
    """Mask of the points (tuples of complex arrays) whose sup norm over
    all Re/Im parts is finite and at most ``radius``."""
    sup = functools.reduce(np.maximum, [np.abs(v) for z in pt for v in (z.real, z.imag)])
    return np.isfinite(sup) & (sup <= radius)


def forward_orbits(model: MapModel, pt, steps: int, radius: float, multiplier: bool = True):
    """Iterate points in point arithmetic while they stay in a ball.

    ``pt`` holds one complex array (or one complex) per coordinate.
    Returns ``(rows, points, multiplier)``: the indices of the rows whose
    iterates f^1 ... f^steps all lie in the closed sup-norm ball of
    ``radius`` (``sup_bounded``), their f^steps points, and the spectral
    radius of D(f^steps) at those rows, the product of
    ``point_derivative`` along the orbit (2x2 for Henon kinds, scalar
    for 1-D); None with ``multiplier=False``, which skips the products.
    A row is dropped at its first iterate outside the ball and never
    iterated again.  Non-rigorous.
    """
    pt = tuple(np.atleast_1d(np.asarray(z, dtype=complex)) for z in pt)
    rows = np.arange(len(pt[0]))
    # D(f^0) = I as a broadcast view: no per-row copy before the first
    # product, which runs on the rows still inside only
    eye = np.eye(2, dtype=complex)[:, :, None] if model.is_henon else np.ones(1, dtype=complex)
    jac = np.broadcast_to(eye, eye.shape[:-1] + rows.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            if not len(rows):
                break
            prev, pt = pt, model.point_forward(pt)
            inside = sup_bounded(pt, radius)
            whole = inside.all()
            if not whole:
                rows, pt = rows[inside], tuple(z[inside] for z in pt)
            if not multiplier:
                continue
            if not whole:
                jac, prev = jac[..., inside], tuple(z[inside] for z in prev)
            d = model.point_derivative(prev)
            if model.is_henon:  # D(f) . jac
                jac = np.array(
                    [[d[i][0] * jac[0][k] + d[i][1] * jac[1][k] for k in (0, 1)] for i in (0, 1)]
                )
            else:
                jac = jac * d
        if not multiplier:
            mult = None
        elif model.is_henon:
            tr = jac[0][0] + jac[1][1]
            det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
            disc = np.sqrt(tr * tr - 4.0 * det)
            mult = np.maximum(np.abs((tr + disc) / 2.0), np.abs((tr - disc) / 2.0))
        else:
            mult = np.abs(jac)
    return rows, pt, mult


def period2_sink_cycle(model: MapModel) -> Optional[SinkOrbit]:
    """Closed-form period-2 cycle for Henon / quadratic kinds, if it is
    attracting; None otherwise."""
    if model.kind == "cubic_poly":
        return None
    # genuine 2-cycles satisfy x + y = -b and x^2 + b x + c + b^2 = 0 with
    # b = 1 + a (a = 0 for quad_poly, where b stays complex: the root order
    # must not hang on Python's mixed float/complex rules, changed in 3.14)
    b, c = (1.0 + model.a if model.is_henon else 1.0 + 0j), model.c
    x1, x2, rep = _quadratic_roots(b, c + b * b)
    if rep:
        return None
    if model.is_henon:
        g = lambda x: x * x + b * x + c + b * b
        dg = lambda x: 2.0 * x + b
        x1, x2 = _newton_polish(x1, g, dg), _newton_polish(x2, g, dg)
    pts = tuple(p[: model.ncoords] for p in ((x1, x2), (x2, x1)))
    # reject the degenerate case where the "cycle" is a fixed point pair
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


def heuristic_sink_cycles(model: MapModel) -> list[SinkOrbit]:
    """Attracting cycles of period at most _MAX_PERIOD found by forward
    orbits of a deterministic seed grid, after _TRANSIENT steps; a seed
    is dropped once its orbit leaves the sup-norm ball of radius 4 R'.
    Non-rigorous: used only to label components and pick refinement
    targets, never in any rigor claim."""
    per_axis = 5 if model.kind == "henon_complex" else 15
    rp = model.r_prime
    ticks = -rp + (2.0 * rp) * (np.arange(per_axis) + 0.5) / per_axis
    grid = np.meshgrid(*[ticks] * model.naxes, indexing="ij")
    seeds = model.point_from_axes([g.ravel() for g in grid])
    _, pt, _ = forward_orbits(model, seeds, _TRANSIENT, 4.0 * rp)
    orbit = [pt]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_MAX_PERIOD):
            orbit.append(model.point_forward(orbit[-1]))
    # smallest p with f^p within 1e-7 of the point, 0 where there is none
    period = np.zeros(len(pt[0]), dtype=int)
    for p in range(_MAX_PERIOD, 0, -1):
        gap = functools.reduce(np.maximum, [np.abs(u - v) for u, v in zip(orbit[p], pt)])
        period[gap < 1e-7] = p
    mult = np.full(len(period), np.inf)
    for p in np.unique(period[period > 0]):
        on = np.flatnonzero(period == p)
        rows, _, mult_p = forward_orbits(model, [z[on] for z in pt], p, math.inf)
        mult[on[rows]] = mult_p
    found = {}
    for i in np.flatnonzero(mult < 0.999999).tolist():
        p = int(period[i])
        pts = tuple(tuple(complex(z[i]) for z in point) for point in orbit[:p])
        key = (
            p,
            min(
                tuple(
                    (round(w.real, 6), round(w.imag, 6))
                    for point in pts[k:] + pts[:k]
                    for w in point
                )
                for k in range(p)
            ),
        )
        if key not in found:
            found[key] = SinkOrbit(
                points=pts, period=p, multiplier_max=float(mult[i]), method="heuristic"
            )
    return sorted(found.values(), key=lambda o: (o.period, repr(o.points)))


def sink_orbits(model: MapModel) -> list[SinkOrbit]:
    """Fixed sinks and attracting cycles: exact where closed forms exist
    (fixed points, period 2), heuristic sampling beyond."""
    out = []
    for fp in fixed_points(model):
        if fp.classification == "sink":
            out.append(
                SinkOrbit(
                    points=(fp.location,),
                    period=1,
                    multiplier_max=max(abs(l) for l in fp.eigenvalues),
                    method="exact",
                )
            )
    two = period2_sink_cycle(model)
    if two is not None:
        out.append(two)
    known = [p for orb in out for p in orb.points]

    def is_known(orbit):
        return any(
            any(
                max(abs(u - v) for u, v in zip(pt, kp)) < 1e-5
                for kp in known
            )
            for pt in orbit.points
        )

    for orb in heuristic_sink_cycles(model):
        if not is_known(orb):
            out.append(orb)
    return out


# ---------------------------------------------------------------------------
# batch interval evaluation (numpy, blind outward rounding)
# ---------------------------------------------------------------------------


def batch_forward(model: MapModel, lo, hi, backward: bool = False):
    """One interval image step for N boxes at once (with ``backward``,
    one preimage step: Henon kinds only).

    lo/hi are float64 arrays of shape [N, naxes] in the axis order of
    ``MapModel.coords_from_axes``.  Rows that blow up may contain inf or
    NaN and must be masked by the caller.
    """
    formula = model.interval_backward if backward else model.interval_forward
    axes = [IntervalArray(lo[:, k], hi[:, k]) for k in range(model.naxes)]
    out = model.axes_from_coords(formula(model.coords_from_axes(axes, ComplexInterval)))
    return np.column_stack([v.lo for v in out]), np.column_stack([v.hi for v in out])


def batch_backward(model: MapModel, lo, hi):
    """One interval preimage step for N boxes (Henon kinds only)."""
    return batch_forward(model, lo, hi, backward=True)
