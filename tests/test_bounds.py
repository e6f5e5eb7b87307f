"""Bounds tests: reference-table reproduction, formula identities, the
sigma-norm pointwise properties, and the containment-ledger invariants."""

import cmath
import math
import random

import numpy as np
import pytest

from boxchain.ia import DomainError
from boxchain.maps import MapModel, fixed_points
from boxchain.pipeline import PRESETS
from boxchain.bounds import (
    annulus_radii,
    delta_prime,
    epsilon_prime,
    one_dim_bounds,
    report_for_map,
    separation_epsilon_bound,
    separation_eta,
    sigma_constants,
    sigma_contraction_bound,
    sink_basin_radius,
    sink_section_for_map,
)


def rel(x, y):
    return abs(x - y) / abs(y)


PER31 = lambda: MapModel("henon_complex", c="-1.17", a="0.3", r_prime=2.01)


# ---------------------------------------------------------------------------
# epsilon' (outer accuracy)
# ---------------------------------------------------------------------------


def test_epsilon_prime_complex_horseshoe_row():
    eps = 0.09
    got = epsilon_prime(eps, eps / 1000.0, 2.84, 0.74)
    assert rel(got, 0.68) < 0.01 or abs(got - 0.68) < 0.01
    assert abs(got - 0.676) < 5e-4


def test_epsilon_prime_alternate_basilica_row():
    eps = 0.059375
    got = epsilon_prime(eps, eps / 1000.0, 1.9, 0.15)
    assert abs(got - 0.30) < 0.01


def test_epsilon_prime_zero():
    assert epsilon_prime(0.0, 0.0, 1.9, 0.15) == 0.0


def test_epsilon_prime_exceeds_epsilon():
    rng = random.Random(3)
    for _ in range(500):
        eps = rng.uniform(1e-6, 1.0)
        delta = rng.uniform(0.0, eps)
        rp = rng.uniform(1.0, 3.0)
        am = rng.uniform(0.0, 1.0)
        assert epsilon_prime(eps, delta, rp, am) > eps


# ---------------------------------------------------------------------------
# delta' (inner accuracy)
# ---------------------------------------------------------------------------


def test_delta_prime_real_horseshoe_row():
    got = delta_prime(4.016e-5, 2.57, 0.25, 1.0)
    assert rel(got, 6.3e-6) < 0.02


def test_delta_prime_alternate_basilica_row():
    got = delta_prime(3e-5, 1.9, 0.15, 1.0)
    assert rel(got, 6e-6) < 0.02


def test_delta_prime_vanishes_with_delta():
    prev = math.inf
    for k in range(4, 16):
        d = 10.0 ** -k
        eta = delta_prime(d, 1.9, 0.15, 1.0)
        assert 0.0 < eta < prev
        prev = eta
    assert eta < 1e-14


def test_delta_prime_below_delta_and_monotone():
    rng = random.Random(8)
    for _ in range(500):
        d = 10 ** rng.uniform(-9, -1)
        rp = rng.uniform(1.0, 3.0)
        am = rng.uniform(0.0, 1.0)
        dp = delta_prime(d, rp, am, 0.2)
        assert dp < d
        assert delta_prime(2 * d, rp, am, 0.2) >= dp


def test_delta_prime_capped_by_delta0():
    assert delta_prime(0.5, 1.9, 0.15, 1e-9) == 1e-9


# ---------------------------------------------------------------------------
# sigma constants / Table-1-style values
# ---------------------------------------------------------------------------


def test_sigma_constants_table_row():
    c, d, tau = sigma_constants(-0.885, -0.34, 0.3)
    assert rel(tau, 0.029871571) < 1e-6


def test_sigma_constants_symmetric_eigenvalues():
    c, d, tau = sigma_constants(1j, -1j, 1.0)
    assert c == pytest.approx(1.0)
    assert d == pytest.approx(2.0)
    assert tau == pytest.approx(0.25)


def test_sigma_constants_identity_sweep():
    rng = random.Random(41)
    for _ in range(1000):
        l1 = cmath.rect(rng.uniform(0.05, 0.95), rng.uniform(0, 2 * math.pi))
        l2 = cmath.rect(rng.uniform(0.05, 0.95), rng.uniform(0, 2 * math.pi))
        if l1 == l2:
            continue
        a_mod = abs(l1 * l2)
        c, d, tau = sigma_constants(l1, l2, a_mod)
        assert tau == pytest.approx((c / d) ** 2, rel=1e-14)


def test_sigma_constants_equal_eigenvalues_rejected():
    with pytest.raises(DomainError):
        sigma_constants(0.5, 0.5, 0.25)


def test_sink_basin_radius():
    tau = 0.029871571
    assert rel(sink_basin_radius(0.885, tau), 0.0034352307) < 1e-6
    assert sink_basin_radius(0.0, tau) == tau
    assert sink_basin_radius(1.0, tau) == 0.0


def test_sigma_contraction_bound():
    c, d, tau = sigma_constants(-0.885, -0.34, 0.3)
    lam = 0.885
    assert sigma_contraction_bound(0.0, lam, c, d) == 0.0
    s_p = (1 - lam) * c / (d * d)
    # contraction exactly below s_p
    r = s_p / 2
    bound = sigma_contraction_bound(r, lam, c, d)
    assert bound / r == pytest.approx(lam + (1 - lam) / 2, rel=1e-12)
    assert bound < r
    r2 = s_p * 1.01
    assert sigma_contraction_bound(r2, lam, c, d) > r2


def test_annulus_radii_limits_and_residuals():
    c, d, tau = sigma_constants(-0.885, -0.34, 0.3)
    lam = 0.885
    bound = (1 - lam) ** 2 * c / (4 * d * d)
    with pytest.raises(DomainError):
        annulus_radii(bound, lam, c, d)
    rm, rp = annulus_radii(bound * (1 - 1e-12), lam, c, d)
    assert rp - rm < 1e-5  # near-double root
    mid = c * (1 - lam) / (2 * d * d)
    assert rm == pytest.approx(mid, rel=1e-5)
    # residual check over random valid inputs
    rng = random.Random(5)
    for _ in range(500):
        l1 = cmath.rect(rng.uniform(0.05, 0.9), rng.uniform(0, 2 * math.pi))
        l2 = cmath.rect(rng.uniform(0.05, 0.9), rng.uniform(0, 2 * math.pi))
        if abs(l1 - l2) < 1e-3:
            continue
        cc, dd, _ = sigma_constants(l1, l2, abs(l1 * l2))
        lam2 = max(abs(l1), abs(l2))
        b2 = (1 - lam2) ** 2 * cc / (4 * dd * dd)
        xi = rng.uniform(0.05, 0.95) * b2
        r_lo, r_hi = annulus_radii(xi, lam2, cc, dd)
        q = lambda r: (dd * dd / cc) * r * r - (1 - lam2) * r + xi
        assert abs(q(r_lo)) < 1e-12 and abs(q(r_hi)) < 1e-12
        # annulus width claim
        assert r_hi - r_lo <= (1 - lam2) * cc / (dd * dd) + 1e-15


def test_separation_eta_values():
    tau = 0.029871571
    assert rel(separation_eta(0.885, tau), 9.876288e-5) < 1e-6
    assert separation_eta(0.0, 1.0) == 0.25
    # eta = (1-lam)^2 * r_p / (4 (1-lam)) identity
    lam = 0.885
    assert separation_eta(lam, tau) == pytest.approx(
        (1 - lam) ** 2 * sink_basin_radius(lam, tau) / (4 * (1 - lam)), rel=1e-12
    )


def test_separation_epsilon_bound_table_row():
    kappa, eps_star = separation_epsilon_bound(
        0.885, 0.029871571, 0.612, 0.3, 1000.0
    )
    assert rel(kappa, 2.5448759) < 1e-6
    assert rel(eps_star, 3.880793e-5) < 1e-6


def test_separation_epsilon_bound_limits():
    for tau in (1e-4, 1e-8, 1e-12):
        _, eps_star = separation_epsilon_bound(0.5, tau, 0.5, 0.3, 1000.0)
        assert eps_star > 0
    _, tiny = separation_epsilon_bound(0.5, 1e-300, 0.5, 0.3, 1000.0)
    assert tiny < 1e-100  # eps* -> 0 as tau -> 0


def test_kappa_radical_identity():
    # kappa^2 + 4*eta under the radical equals kappa^2 + tau(1-lam)^2
    lam, tau = 0.885, 0.029871571
    eta = separation_eta(lam, tau)
    assert 4 * eta == pytest.approx(tau * (1 - lam) ** 2, rel=1e-15)


# ---------------------------------------------------------------------------
# one-dimensional specialization
# ---------------------------------------------------------------------------


def test_one_dim_superattracting_limit():
    k, eta, eps_star, basin = one_dim_bounds(0.0, 0.0, math.inf)
    assert k == 2.0 and eta == 0.25 and basin == 1.0
    assert eps_star == pytest.approx((-2 + math.sqrt(5)) / 2, rel=1e-12)
    assert eps_star == pytest.approx(0.118034, abs=1e-6)


def test_one_dim_matches_two_dim_formula():
    lam, p, m = 0.5, 0.5, 1000.0
    k1, eta1, eps1, _ = one_dim_bounds(lam, p, m)
    assert k1 == pytest.approx(2.501, rel=1e-12)
    # two-dimensional formula with tau = 1, a = 0 and the 1-D kappa term
    k2, eps2 = separation_epsilon_bound(lam, 1.0, p, 0.0, m)
    assert k1 == pytest.approx(k2, rel=1e-12)
    assert eps1 == pytest.approx(eps2, rel=1e-12)


def test_one_dim_eta_is_tau_one_specialization():
    for lam in (0.0, 0.3, 0.97):
        _, eta, _, _ = one_dim_bounds(lam, 0.2, 100.0)
        assert eta == separation_eta(lam, 1.0)


# ---------------------------------------------------------------------------
# assembled reports
# ---------------------------------------------------------------------------


def test_report_for_map_sandwich_and_sequence():
    m = MapModel("henon_complex", c="-1.1875", a="0.15", r_prime=1.9)
    eps = 2.0 * m.r_prime
    prev_epsp = math.inf
    prev_dp = math.inf
    for _ in range(10):
        rep = report_for_map(m, eps)
        rep.validate()
        assert rep.epsilon < rep.epsilon_prime
        assert rep.delta_prime < rep.delta
        assert rep.epsilon_prime < prev_epsp
        assert rep.delta_prime <= prev_dp
        prev_epsp = rep.epsilon_prime
        prev_dp = rep.delta_prime
        eps /= 2.0


def test_report_table_rows_quantized():
    m = PER31()
    sec = sink_section_for_map(m, m_ratio=1000.0, sink_decimals=(3, 3, 2))
    assert sec is not None and sec.quantized
    assert sec.location[0] == pytest.approx(-0.612, abs=1e-12)
    assert sec.lambda1 == pytest.approx(-0.885, abs=1e-12)
    assert sec.lambda2 == pytest.approx(-0.34, abs=1e-12)
    assert sec.lam == pytest.approx(0.885, abs=1e-12)
    assert rel(sec.tau, 0.029871571) < 1e-6
    assert rel(sec.r_p, 0.0034352307) < 1e-6
    assert rel(sec.kappa, 2.5448759) < 1e-6
    assert rel(sec.eta, 9.876288e-5) < 1e-6
    assert rel(sec.epsilon_star, 3.880793e-5) < 1e-6


def test_sink_section_text_block():
    quantized = sink_section_for_map(PER31(), m_ratio=1000.0, sink_decimals=(3, 3, 2))
    assert quantized.text_block() == "\n".join(
        [
            "-- separation constants (quantized sink data, M = 1000) --",
            "p = (-0.612, -0.612)",
            "lambda1 = -0.885",
            "lambda2 = -0.34",
            "lambda = 0.885",
            "tau = 0.029871571",
            "tau(1-lambda) = 0.0034352307",
            "kappa = 2.5448759",
            "eta = 9.8762882e-05",
            "epsilon_star = 3.8807934e-05",
        ]
    )
    one_dim = sink_section_for_map(MapModel("quad_poly", c="-0.1,0.2", r_prime=2.0), m_ratio=250.0)
    assert one_dim.text_block() == "\n".join(
        [
            "-- separation constants (exact sink data, M = 250) --",
            "p = -0.11364195+0.16296148i",
            "lambda1 = -0.2272839+0.32592296i",
            "lambda2 = -0.2272839+0.32592296i",
            "lambda = 0.397346",
            "tau = 1",
            "tau(1-lambda) = 0.60265412",
            "kappa = 2.004",
            "eta = 9.0797998e-02",
            "epsilon_star = 4.4327863e-02",
        ]
    )


def test_report_exact_mode_differs_slightly():
    sec = sink_section_for_map(PER31(), m_ratio=1000.0)
    assert not sec.quantized
    assert rel(sec.tau, 0.029973) < 1e-3  # exact-eigenvalue value
    assert 3.8e-5 < sec.epsilon_star < 4.0e-5


def test_report_no_sink_section_for_horseshoe():
    m = MapModel("henon_complex", c="-2.75", a="-0.74", r_prime=2.84)
    assert sink_section_for_map(m) is None


def test_one_dim_report_superattracting():
    m = MapModel("quad_poly", c="0", r_prime=2.0)
    sec = sink_section_for_map(m, m_ratio=1000.0)
    assert sec.kappa == pytest.approx(2.001, rel=1e-12)
    assert sec.eta == 0.25
    assert sec.tau == 1.0


def test_cubic_report_uses_cubic_growth():
    m = MapModel("cubic_poly", c="-0.19,1.1", a="0,0.1", r_prime=2.1)
    eps = 0.002
    rep = report_for_map(m, eps)
    t1 = 3 * m.r_prime ** 2 + 3 * 0.01
    assert rep.r_coeff == pytest.approx(t1 + 3 * m.r_prime * eps + eps * eps)
    assert rep.epsilon_prime == pytest.approx(rep.delta + eps * (rep.r_coeff + 1))
    # cubic edge-error root is admissible for the full polynomial
    eta = rep.delta_prime
    q = eta ** 3 + 3 * m.r_prime * eta ** 2 + eta * (t1 + 1) - rep.delta
    assert q <= 0.0
    assert eta < rep.delta


@pytest.mark.parametrize(
    "name, eps_p, d_p",
    [
        ("altper2", 0.1494187890625, 2.0200816360562364e-06),
        ("complexhorse", 0.22351527343750002, 1.3476767233784928e-06),
        ("cubicdouble", 0.43354417859268185, 7.012015480781878e-07),
        ("per31", 0.1605105859375, 1.8796916830885323e-06),
        ("realhorse", 0.1926141015625, 1.564911361240573e-06),
    ],
)
def test_report_a_mod_is_the_maps_own(name, eps_p, d_p):
    m = MapModel(**PRESETS[name])
    rep = report_for_map(m, 0.03, epsilon_min=0.01)
    # epsilon' and delta' keep their recorded values, bit for bit
    assert (rep.epsilon_prime, rep.delta_prime) == (eps_p, d_p)


# ---------------------------------------------------------------------------
# sigma-norm pointwise properties (explicit matrix inversion oracle)
# ---------------------------------------------------------------------------


def _sigma_norm(l1, l2, u):
    a = np.array([[l1, l2], [1.0, 1.0]], dtype=complex)
    return np.linalg.norm(np.linalg.solve(a, u))


def test_norm_equivalence_pointwise():
    rng = random.Random(2024)
    for _ in range(40):
        l1 = cmath.rect(rng.uniform(0.05, 0.95), rng.uniform(0, 2 * math.pi))
        l2 = cmath.rect(rng.uniform(0.05, 0.95), rng.uniform(0, 2 * math.pi))
        if abs(l1 - l2) < 1e-2:
            continue
        c, d, _ = sigma_constants(l1, l2, abs(l1 * l2))
        for _ in range(25):
            u = np.array(
                [
                    complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                    complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                ]
            )
            e = np.linalg.norm(u)
            s = _sigma_norm(l1, l2, u)
            assert c * s <= e * (1 + 1e-9) + 1e-12
            assert e <= d * s * (1 + 1e-9) + 1e-12


def test_contraction_bound_pointwise_on_table_map():
    m = PER31()
    sink = [f for f in fixed_points(m) if f.classification == "sink"][0]
    l1, l2 = sink.eigenvalues
    z = sink.location[0]
    c, d, _ = sigma_constants(l1, l2, m.a_mod)
    lam = max(abs(l1), abs(l2))
    s_p = (1 - lam) * c / (d * d)
    a_mat = np.array([[l1, l2], [1.0, 1.0]], dtype=complex)
    rng = random.Random(77)
    for _ in range(1000):
        r = rng.uniform(0.0, s_p * 0.999)
        v = np.array(
            [
                complex(rng.gauss(0, 1), rng.gauss(0, 1)),
                complex(rng.gauss(0, 1), rng.gauss(0, 1)),
            ]
        )
        n = np.linalg.norm(v)
        if n == 0:
            continue
        w = a_mat @ (v / n * r)  # sigma-distance exactly r from the sink
        x, y = z + w[0], z + w[1]
        fx, fy = m.point_forward((x, y))
        img = np.array([fx - z, fy - z])
        lhs = _sigma_norm(l1, l2, img)
        bound = sigma_contraction_bound(r, lam, c, d)
        assert lhs <= bound * (1 + 1e-9) + 1e-12
