"""Closed-form accuracy and separation estimates.

Two families of bounds live here.

Containment ledger: a box chain recurrent model built from boxes of
side at most epsilon, with edge fattening delta, sandwiches the chain
recurrent set between R(delta') and R(epsilon') where

    epsilon' = delta + epsilon * (1 + r_coeff)
    delta'   = min(eta(delta), delta0')

with r_coeff the image-growth coefficient of the family (for the
quadratic Henon map r = epsilon + 2R' + |a|) and eta the admissible
edge error, the smallest positive root of t^2 + t(2R' + |a| + 1) -
delta for quadratic kinds.

Sink separation: near an attracting fixed point p with distinct
eigenvalues l1 != l2 the map contracts in the eigenbasis-adapted norm
||u||_sigma = ||A^-1 u|| (A = [v1 v2], v_j = (l_j, 1)).  The norm
equivalence constants

    C = |l1 - l2| / sqrt(2 + |l1| + |l2|),   D = sqrt(2 + |a| + l^2)

(l = max |l_j|) give tau = C^2/D^2, a guaranteed euclidean basin disk
of radius tau(1-l), an annulus of non-recurrent points blocking
eta-chains for eta < tau(1-l)^2/4, and finally the box-size threshold
epsilon* below which any model with delta < epsilon/M is guaranteed to
separate the sink from every other component:

    kappa    = 1 + 1/M + max(1, (1-l) sqrt(tau) + 2||p|| + |a|)
    epsilon* = (-kappa + sqrt(kappa^2 + tau (1-l)^2)) / 2.

All bound formulas are evaluated in round-to-nearest double arithmetic
(they are reporting/guarantee thresholds, not enclosures).  One-
dimensional maps specialize to tau = C = D = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .ia import DomainError, UsageError
from .maps import MapModel, fixed_points

__all__ = [
    "BoundsReport",
    "SinkSection",
    "epsilon_prime",
    "delta_prime",
    "r_coefficient",
    "sigma_constants",
    "sink_basin_radius",
    "separation_eta",
    "separation_epsilon_bound",
    "one_dim_bounds",
    "report_for_map",
    "sink_section_for_map",
    "enclosure_defect_sample",
]


# ---------------------------------------------------------------------------
# containment ledger
# ---------------------------------------------------------------------------


def _growth(kind: str, r_prime: float, a_mod: float) -> float:
    """The family's linear growth term L: max(1, 3R'^2 + 3|a|^2) for the
    cubic, max(1, 2R' + |a|) for the quadratic kinds.  It enters both
    the growth coefficient r and the edge-error coefficient 1 + L."""
    if kind == "cubic_poly":
        return max(1.0, 3.0 * r_prime * r_prime + 3.0 * a_mod * a_mod)
    return max(1.0, 2.0 * r_prime + a_mod)


def r_coefficient(model_kind: str, epsilon: float, r_prime: float, a_mod: float) -> float:
    """Image-growth coefficient r: Hull(f(B)) has side <= r * side(B).

    ``a_mod`` is the map's own |a|: the linear term for Henon kinds
    (use 0 for quad_poly) and the polynomial coefficient for the cubic.

    quadratic Henon / quadratic polynomial: r = eps + max(1, 2R' + |a|)
    cubic polynomial: r = max(1, 3R'^2 + 3|a|^2) + 3R' eps + eps^2

    Only single maps are supported here.  For a composition
    g_m o ... o g_1 the coefficient would compose multiplicatively
    (r = r_1 * ... * r_m, each factor evaluated at the grown box size)
    and the admissible edge error would be the minimum over factors;
    compositions are out of scope for this package.
    """
    growth = _growth(model_kind, r_prime, a_mod)
    if model_kind == "cubic_poly":
        return growth + 3.0 * r_prime * epsilon + epsilon * epsilon
    return epsilon + growth


def epsilon_prime(
    epsilon: float, delta: float, r_prime: float, a_mod: float, kind: str = "quad"
) -> float:
    """Outer accuracy: the model boxes are epsilon'-chain recurrent for

        epsilon' = delta + epsilon (1 + r)

    with r = r_coefficient(kind, epsilon, r_prime, a_mod); for the
    quadratic kinds that is delta + epsilon (1 + |a| + 2R') + epsilon^2
    (quad_poly passes a_mod = 0).
    """
    if min(epsilon, delta, r_prime) < 0.0 or a_mod < 0.0:
        raise UsageError("epsilon_prime inputs must be nonnegative")
    r = r_coefficient(kind, epsilon, r_prime, a_mod)
    return delta + epsilon * (r + 1.0)


def _eta_quadratic(delta: float, coeff: float) -> float:
    # smallest positive root of t^2 + t*coeff - delta, stable form
    return 2.0 * delta / (coeff + math.sqrt(coeff * coeff + 4.0 * delta))


def delta_prime(
    delta: float, r_prime: float, a_mod: float, delta0_prime: float, kind: str = "quad"
) -> float:
    """Inner accuracy: the model traps all delta'-pseudo-periodic orbits,

        delta' = min(eta, delta0'),

    eta the smallest positive root of t^2 + t(1 + L) - delta for the
    quadratic kinds, of t^3 + 3R' t^2 + t(1 + L) - delta for the cubic,
    with L the family's linear growth term (``r_coefficient``).
    """
    if not delta > 0.0:
        raise UsageError("delta must be positive")
    if not delta0_prime > 0.0:
        raise UsageError("delta0_prime must be positive")
    coeff = 1.0 + _growth(kind, r_prime, a_mod)
    if kind == "cubic_poly":
        eta = _eta_cubic(delta, r_prime, coeff)
    else:
        eta = _eta_quadratic(delta, coeff)
    return min(eta, delta0_prime)


def _eta_cubic(delta: float, r_prime: float, coeff: float) -> float:
    # smallest positive root of t^3 + 3R' t^2 + t coeff - delta, bisected
    # downward so the result stays admissible
    q = lambda t: t ** 3 + 3.0 * r_prime * t * t + t * coeff - delta
    hi = _eta_quadratic(delta, coeff)  # q(hi) >= 0 (extra positive terms)
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if q(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# sigma-norm machinery
# ---------------------------------------------------------------------------


def sigma_constants(lambda1: complex, lambda2: complex, a_mod: float):
    """Norm equivalence constants (C, D, tau) for the sink eigenbasis:
    C ||u||_sigma <= ||u|| <= D ||u||_sigma and tau = C^2 / D^2."""
    l1, l2 = complex(lambda1), complex(lambda2)
    if l1 == l2:
        raise DomainError("sigma norm undefined for equal eigenvalues")
    lam = max(abs(l1), abs(l2))
    c = abs(l1 - l2) / math.sqrt(2.0 + abs(l1) + abs(l2))
    d = math.sqrt(2.0 + a_mod + lam * lam)
    return c, d, (c / d) * (c / d)


def sink_basin_radius(lam: float, tau: float) -> float:
    """Radius tau(1 - lambda) of a euclidean disk inside the immediate
    sink basin."""
    return tau * (1.0 - lam)


def separation_eta(lam: float, tau: float) -> float:
    """Supremal eta = tau (1-lambda)^2 / 4 for which the eta-chain
    recurrent set separates the sink from everything else."""
    return tau * (1.0 - lam) ** 2 / 4.0


def separation_epsilon_bound(
    lam: float, tau: float, p_norm: float, a_mod: float, m_ratio: float
):
    """(kappa, epsilon*): any model with box side < epsilon* and
    delta < epsilon/M is guaranteed to separate the fixed sink."""
    if not m_ratio > 1.0:
        raise UsageError("M must exceed 1")
    kappa = 1.0 + 1.0 / m_ratio + max(
        1.0, (1.0 - lam) * math.sqrt(tau) + 2.0 * p_norm + a_mod
    )
    eta4 = tau * (1.0 - lam) ** 2
    eps_star = 0.5 * (-kappa + math.sqrt(kappa * kappa + eta4))
    return kappa, eps_star


class OneDimBounds(NamedTuple):
    kappa: float
    eta: float
    epsilon_star: float
    basin_radius: float


def one_dim_bounds(lam: float, p_mod: float, m_ratio: float) -> OneDimBounds:
    """The tau = C = D = 1 specialization for polynomial maps of C:
    kappa = 1 + 1/M + (1-lambda) + 2|p|, eta = (1-lambda)^2/4."""
    if not m_ratio > 1.0:
        raise UsageError("M must exceed 1")
    kappa = 1.0 + 1.0 / m_ratio + (1.0 - lam) + 2.0 * p_mod
    eta = (1.0 - lam) ** 2 / 4.0
    eps_star = 0.5 * (-kappa + math.sqrt(kappa * kappa + 4.0 * eta))
    return OneDimBounds(kappa, eta, eps_star, 1.0 - lam)


# ---------------------------------------------------------------------------
# assembled reports
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    if isinstance(x, complex):
        if x.imag == 0:
            return f"{x.real:.8g}"
        return f"{x.real:.8g}{x.imag:+.8g}i"
    return str(x)


@dataclass(frozen=True)
class SinkSection:
    """Separation constants at an attracting fixed point."""

    location: tuple
    lambda1: complex
    lambda2: complex
    lam: float
    tau: float
    r_p: float  # euclidean basin disk radius tau(1-lambda)
    kappa: float
    eta: float  # separating chain bound tau(1-lambda)^2/4
    epsilon_star: float
    m_ratio: float
    quantized: bool  # inputs rounded to published precision

    def text_block(self) -> str:
        """The section as ``boxchain bounds`` prints it, header first."""
        label = "quantized" if self.quantized else "exact"
        p = ", ".join(_fmt(z) for z in self.location)
        lines = [
            f"-- separation constants ({label} sink data, M = {self.m_ratio:g}) --",
            f"p = ({p})" if len(self.location) == 2 else f"p = {p}",
            f"lambda1 = {_fmt(self.lambda1)}",
            f"lambda2 = {_fmt(self.lambda2)}",
            f"lambda = {_fmt(self.lam)}",
            f"tau = {self.tau:.8g}",
            f"tau(1-lambda) = {self.r_p:.8g}",
            f"kappa = {self.kappa:.8g}",
            f"eta = {self.eta:.7e}",
            f"epsilon_star = {self.epsilon_star:.7e}",
        ]
        return "\n".join(lines)


@dataclass(frozen=True)
class BoundsReport:
    """The accuracy ledger of one pipeline step."""

    epsilon: float
    delta: float
    r_prime: float
    r_coeff: float
    epsilon_prime: float
    delta_prime: float
    epsilon_min: float = 0.0

    def validate(self) -> None:
        if not self.epsilon < self.epsilon_prime:
            raise DomainError("bounds invariant violated: epsilon' <= epsilon")
        if not self.delta_prime < self.delta:
            raise DomainError("bounds invariant violated: delta' >= delta")

    def text_block(self) -> str:
        """Flat key-value rendering of the containment ledger."""
        lines = [
            f"epsilon = {self.epsilon!r}",
            f"epsilon_min = {self.epsilon_min!r}",
            f"delta = {self.delta!r}",
            f"r_prime = {self.r_prime!r}",
            f"r_coeff = {self.r_coeff!r}",
            f"epsilon_prime = {self.epsilon_prime!r}",
            f"delta_prime = {self.delta_prime!r}",
        ]
        return "\n".join(lines)


def _round_complex(z: complex, decimals: int) -> complex:
    return complex(round(z.real, decimals), round(z.imag, decimals))


def sink_section_for_map(
    model: MapModel,
    m_ratio: float = 1000.0,
    sink_decimals: Optional[tuple[int, int, int]] = None,
) -> Optional[SinkSection]:
    """Separation constants for the map's attracting fixed point, or None.

    ``sink_decimals = (p, l1, l2)`` quantizes the fixed point and the
    eigenvalues to that many decimal places before deriving constants,
    mirroring the precision of published reference rows ((3, 3, 2)
    reproduces them); None uses the full-precision values.
    """
    sinks = [f for f in fixed_points(model) if f.classification == "sink"]
    if not sinks:
        return None
    fp = sinks[0]
    p = fp.location[0]
    l1, l2 = fp.eigenvalues[0], fp.eigenvalues[-1]  # a 1-D sink has one
    if sink_decimals is not None:
        p = _round_complex(p, sink_decimals[0])
        l1 = _round_complex(l1, sink_decimals[1])
        l2 = _round_complex(l2, sink_decimals[1 if model.is_one_dim else 2])

    if model.is_one_dim:
        lam = abs(l1)
        tau = 1.0
        kappa, eta, eps_star, r_p = one_dim_bounds(lam, abs(p), m_ratio)
    else:
        if l1 == l2:
            return None  # sigma machinery undefined at a degenerate sink
        _, _, tau = sigma_constants(l1, l2, model.a_mod)
        lam = max(abs(l1), abs(l2))
        # sup norm of the fixed point (Re/Im componentwise over both coords)
        p_norm = max(abs(p.real), abs(p.imag))
        kappa, eps_star = separation_epsilon_bound(lam, tau, p_norm, model.a_mod, m_ratio)
        eta = separation_eta(lam, tau)
        r_p = sink_basin_radius(lam, tau)
    return SinkSection(
        location=(p,) * model.ncoords,
        lambda1=l1,
        lambda2=l2,
        lam=lam,
        tau=tau,
        r_p=r_p,
        kappa=kappa,
        eta=eta,
        epsilon_star=eps_star,
        m_ratio=m_ratio,
        quantized=sink_decimals is not None,
    )


def enclosure_defect_sample(
    model: MapModel,
    epsilon: float,
    n_boxes: int = 64,
    n_samples: int = 256,
    seed: int = 0,
) -> float:
    """Sampled diagnostic for the interval-extension over-enclosure.

    The exact defect (side of F(B) minus side of Hull(f(B)), sup over
    model boxes) is not computable; this measures it on random boxes of
    side `epsilon` inside V0 against dense point-image hulls.  Reported
    as a diagnostic only; never used in any containment claim.
    """
    import itertools as _it
    import random as _random

    from .ia import Interval

    rng = _random.Random(seed)
    rp = model.r_prime
    per_axis = 5 if model.naxes == 4 else 17
    worst = 0.0
    for _ in range(n_boxes):
        axes = []
        for _ in range(model.naxes):
            lo = rng.uniform(-rp, rp - epsilon)
            axes.append(Interval(lo, lo + epsilon))
        box = model.box_from_axes(axes)
        fbox = model.image(box)
        # structured grid (endpoints, zero crossings, interior ticks)
        # hits the per-axis extremes of the quadratic outputs exactly;
        # random points guard the non-separable cubic terms
        ticks = []
        for iv in axes:
            t = {iv.lo, iv.hi}
            if iv.lo < 0.0 < iv.hi:
                t.add(0.0)
            for k in range(1, per_axis - 1):
                t.add(iv.lo + (iv.hi - iv.lo) * k / (per_axis - 1))
            ticks.append(sorted(t))
        points = list(_it.product(*ticks))
        for _ in range(n_samples):
            points.append(tuple(rng.uniform(iv.lo, iv.hi) for iv in axes))
        img = model.point_forward(model.point_from_axes(list(np.array(points).T)))
        for iv, v in zip(fbox.axes(), model.point_axes(img)):
            defect = (iv.hi - iv.lo) - float(v.max() - v.min())
            worst = max(worst, defect)
    return worst


def report_for_map(
    model: MapModel,
    epsilon: float,
    epsilon_min: Optional[float] = None,
    delta: Optional[float] = None,
    delta_ratio: float = 1000.0,
) -> BoundsReport:
    """Assemble the full ledger for one model state of a map.

    delta defaults to epsilon_min / delta_ratio (0 < epsilon < inf;
    epsilon_min defaults to epsilon and may not exceed it;
    1 < delta_ratio < inf).
    ``model.a_mod`` is the map's own |a| (0 for quad_poly); the cubic
    uses its own growth / edge-error polynomials.
    """
    if not 0.0 < epsilon < math.inf:
        raise UsageError(f"epsilon must be positive and finite, got {epsilon!r}")
    if not 1.0 < delta_ratio < math.inf:
        raise UsageError("delta_ratio must be finite and exceed 1 (delta << epsilon)")
    if epsilon_min is None:
        epsilon_min = epsilon
    if not epsilon_min <= epsilon:
        raise UsageError(f"epsilon_min={epsilon_min} must not exceed epsilon={epsilon}")
    if delta is None:
        delta = epsilon_min / delta_ratio
    rp, a_mod = model.r_prime, model.a_mod
    rep = BoundsReport(
        epsilon=epsilon,
        delta=delta,
        r_prime=rp,
        r_coeff=r_coefficient(model.kind, epsilon, rp, a_mod),
        epsilon_prime=epsilon_prime(epsilon, delta, rp, a_mod, model.kind),
        delta_prime=delta_prime(delta, rp, a_mod, model.delta0_prime, model.kind),
        epsilon_min=epsilon_min,
    )
    rep.validate()
    return rep
