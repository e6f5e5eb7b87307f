"""Map parameters and the containment ledger against the earlier code.

The references below are the earlier implementations, kept verbatim:
each decimal string parsed again for its double and for its hull, the
edge-error coefficient written as ``max(2, x + 1)`` beside a growth
term ``max(1, x)``, and the cubic delta' assembled inline.  Today's
code parses each string once and derives both coefficients from one
growth term; it must give the same doubles, compared by ``repr`` so
that signed zeros count.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from boxchain.bounds import delta_prime, epsilon_prime, report_for_map
from boxchain.ia import ComplexInterval, Interval
from boxchain.maps import MapModel, _parse_decimal
from boxchain.pipeline import PRESETS

# ---------------------------------------------------------------------------
# references: the earlier parameter parsing and ledger arithmetic
# ---------------------------------------------------------------------------


def ref_strings(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) == 1:
        return parts[0].strip(), "0"
    return parts[0].strip(), parts[1].strip()


def ref_hull_param(re_s: str, im_s: str) -> ComplexInterval:
    return ComplexInterval(Interval.hull(re_s), Interval.hull(im_s))


def ref_point_param(re_s: str, im_s: str) -> complex:
    re = _parse_decimal(re_s)
    im = _parse_decimal(im_s)
    return complex(re.numerator / re.denominator, im.numerator / im.denominator)


def ref_r_coefficient(model_kind, epsilon, r_prime, a_mod):
    if model_kind == "cubic_poly":
        t1 = 3.0 * r_prime * r_prime + 3.0 * a_mod * a_mod
        return max(1.0, t1) + 3.0 * r_prime * epsilon + epsilon * epsilon
    return epsilon + max(1.0, 2.0 * r_prime + a_mod)


def ref_eta_quadratic(delta, coeff):
    return 2.0 * delta / (coeff + math.sqrt(coeff * coeff + 4.0 * delta))


def ref_delta_prime(delta, r_prime, a_mod, delta0_prime):
    coeff = max(2.0, 2.0 * r_prime + a_mod + 1.0)
    return min(ref_eta_quadratic(delta, coeff), delta0_prime)


def ref_eta_cubic(delta, r_prime, a_mod):
    t1 = 3.0 * r_prime * r_prime + 3.0 * a_mod * a_mod
    coeff = max(2.0, t1 + 1.0)
    q = lambda t: t ** 3 + 3.0 * r_prime * t * t + t * coeff - delta
    hi = ref_eta_quadratic(delta, coeff)
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if q(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def ref_ledger(model, epsilon, delta):
    """(r_coeff, epsilon', delta') as the earlier report_for_map built them."""
    rp, a_mod = model.r_prime, model.a_mod
    r = ref_r_coefficient(model.kind, epsilon, rp, a_mod)
    eps_p = delta + epsilon * (r + 1.0)
    if model.kind == "cubic_poly":
        d_p = min(ref_eta_cubic(delta, rp, a_mod), model.delta0_prime)
    else:
        d_p = ref_delta_prime(delta, rp, a_mod, model.delta0_prime)
    return r, eps_p, d_p


# ---------------------------------------------------------------------------


def hull_repr(civ: ComplexInterval) -> str:
    return repr((civ.re.lo, civ.re.hi, civ.im.lo, civ.im.hi))


def assert_params_match(model: MapModel, texts: dict) -> None:
    for name, text in texts.items():
        strs = ref_strings(text)
        assert getattr(model, f"{name}_str") == strs
        assert repr(getattr(model, name)) == repr(ref_point_param(*strs))
        assert hull_repr(getattr(model, f"{name}_iv")) == hull_repr(ref_hull_param(*strs))
        assert getattr(model, f"{name}_exact") == tuple(Fraction(s) for s in strs)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_parameters_match_reference(name):
    params = PRESETS[name]
    model = MapModel(**params)
    assert_params_match(model, {"a": params["a"], "c": params["c"]})


def random_decimal(rng: random.Random) -> str:
    whole = "".join(rng.choice("0123456789") for _ in range(rng.randint(0, 3)))
    frac = "".join(rng.choice("0123456789") for _ in range(rng.randint(0, 18)))
    text = (whole or "0") + ("." + frac if frac or rng.random() < 0.2 else "")
    if rng.random() < 0.3:
        text += f"e{rng.randint(-25, 1)}"
    return rng.choice(["", "-", "+", " "]) + text


def test_random_decimal_parameters_match_reference():
    rng = random.Random(20261018)
    seen = 0
    for _ in range(600):
        texts = {}
        for name in ("a", "c"):
            re_s = random_decimal(rng)
            texts[name] = re_s if rng.random() < 0.3 else f"{re_s},{random_decimal(rng)}"
        model = MapModel("cubic_poly", c=texts["c"], a=texts["a"])
        assert_params_match(model, texts)
        seen += 2
    assert seen >= 1000


def test_signed_zero_and_exact_parameters_match_reference():
    for text in ("-0", "-0.0,-0", "0,-0.0", "+0e-5", "1e-30,-1e-30", "-0.1,0.1"):
        model = MapModel("cubic_poly", c=text, a=text)
        assert_params_match(model, {"a": text, "c": text})


# ---------------------------------------------------------------------------
# containment ledger
# ---------------------------------------------------------------------------

LEDGER_MAPS = {
    **{name: params for name, params in PRESETS.items()},
    "z2": dict(kind="quad_poly", c="0", r_prime=2.0),
    "basilica": dict(kind="quad_poly", c="-1", r_prime=2.2),
    "cubic_real": dict(kind="cubic_poly", a="0.4", c="0.3"),
}


@pytest.mark.parametrize("name", sorted(LEDGER_MAPS))
@pytest.mark.parametrize("epsilon", [0.5, 0.03, 1e-4])
@pytest.mark.parametrize("m_ratio", [1000.0, 250.0])
def test_report_matches_reference_ledger(name, epsilon, m_ratio):
    model = MapModel(**LEDGER_MAPS[name])
    rep = report_for_map(model, epsilon, delta_ratio=m_ratio)
    got = (rep.r_coeff, rep.epsilon_prime, rep.delta_prime)
    assert repr(got) == repr(ref_ledger(model, epsilon, epsilon / m_ratio))
    eps_p = epsilon_prime(epsilon, rep.delta, model.r_prime, model.a_mod, model.kind)
    d_p = delta_prime(rep.delta, model.r_prime, model.a_mod, model.delta0_prime, model.kind)
    assert repr((eps_p, d_p)) == repr(got[1:])


def test_delta_prime_matches_reference_on_random_inputs():
    rng = np.random.default_rng(7)
    one = [math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0)]
    # 2R' + |a| at 1 and one ulp either side, where max(1, .) switches
    cases = [(x / 2.0, 0.0, 1e-3) for x in one]
    for rp, a_mod, delta in zip(
        rng.uniform(0.0, 4.0, 3000), rng.uniform(0.0, 2.0, 3000), 10.0 ** rng.uniform(-9, 0, 3000)
    ):
        cases.append((float(rp), float(a_mod), float(delta)))
    for rp, a_mod, delta in cases:
        got = delta_prime(delta, rp, a_mod, 0.5)
        assert repr(got) == repr(ref_delta_prime(delta, rp, a_mod, 0.5))
        got = delta_prime(delta, rp, a_mod, 0.5, "cubic_poly")
        assert repr(got) == repr(min(ref_eta_cubic(delta, rp, a_mod), 0.5))
