"""Exact equatorial variational equation: poles, exponents, residues."""

import json
import math
from fractions import Fraction

import pytest

from harmgeo import nve
from harmgeo.algebra import Poly, QuadExt, RatFunc, rational_sqrt
from harmgeo.nve import (
    appendix_delta1,
    equatorial_exponents,
    equatorial_nve,
    nve_poles,
    nve_to_json,
    standard_form,
)


def test_input_validation():
    with pytest.raises(ValueError):
        equatorial_nve(0, Fraction(1, 10))
    with pytest.raises(ValueError):
        equatorial_nve(3, 0)  # the round sphere is excluded
    with pytest.raises(ValueError):
        equatorial_nve(3, Fraction(3, 2))


def test_poles_n1():
    eps = Fraction(1, 3)
    assert nve_poles(1, eps) == [-1, eps, -eps, Fraction(-5, 9)]


def test_poles_higher_order():
    n, eps = 3, Fraction(1, 4)
    m = n * n - 1
    disc = 1 + eps * eps * m
    poles = nve_poles(n, eps)
    assert poles[:3] == [-1, eps, -eps]
    rp, rm = poles[3], poles[4]
    # both satisfy (n^2 - 1) z^2 - 2 z - (1 + n^2 eps^2) = 0
    quad = lambda z: m * z * z - 2 * z - (1 + n * n * eps * eps)
    assert quad(rp) == 0 and quad(rm) == 0
    assert rp != rm
    # numeric check against the closed form (1 +- n sqrt(disc)) / (n^2 - 1)
    num = (1 + n * math.sqrt(float(disc))) / m
    assert math.isclose(float(rp), num, rel_tol=1e-14)


def test_poles_collapse_for_square_discriminant():
    # n = 7, eps = 1/4: 1 + eps^2 (n^2 - 1) = 4 is a perfect square, so the
    # conjugate pair degenerates to two rational poles
    poles = nve_poles(7, Fraction(1, 4))
    assert all(
        not isinstance(a, QuadExt) or a.is_rational for a in poles
    )
    vals = [a.to_fraction() if isinstance(a, QuadExt) else Fraction(a) for a in poles]
    assert vals == [-1, Fraction(1, 4), -Fraction(1, 4), Fraction(5, 16), Fraction(-13, 48)]


@pytest.mark.parametrize(
    "n,eps",
    [(1, Fraction(1, 3)), (2, Fraction(1, 10)), (3, Fraction(1, 4)), (7, Fraction(1, 4))],
)
def test_local_exponent_data(n, eps):
    data = equatorial_nve(n, eps)

    def rat(x):
        return x.to_fraction() if isinstance(x, QuadExt) else Fraction(x)

    # double-pole coefficients: 0 at z = -1, -3/16 at z = +-eps, 5/16 at the
    # remaining pole(s); at infinity (n+1)/n^2, except 45/16 for n = 1
    betas = [rat(b) for b in data.betas]
    assert betas[0] == 0
    assert betas[1] == betas[2] == Fraction(-3, 16)
    assert all(b == Fraction(5, 16) for b in betas[3:])
    if n == 1:
        assert rat(data.beta_inf) == Fraction(45, 16)
    else:
        assert rat(data.beta_inf) == Fraction(n + 1, n * n)

    # residues sum to zero (infinity is a regular point of the reduced form)
    total = sum(data.deltas, Fraction(0))
    assert not total

    # simple residue at z = -1 has the closed form 2/(n (eps^2 - 1))
    assert rat(data.deltas[0]) == appendix_delta1(n, eps)


@pytest.mark.parametrize("n", range(1, 13))
def test_closed_form_exponents_match_derivation(n):
    """The census's closed-form exponents against the exact derivation; at
    eps = 1/5 the poles of n = 5 are rational."""
    betas, beta_inf = equatorial_exponents(n)
    for eps in map(Fraction, ("1/10", "1/5", "1/3", "1/2", "9/10")):
        data = equatorial_nve(n, eps)
        assert data.betas == betas and data.beta_inf == beta_inf, eps
        assert data.deltas[0] == appendix_delta1(n, eps) != 0, eps


def test_derivation_checks_closed_form_exponents(monkeypatch):
    betas, beta_inf = equatorial_exponents(3)
    monkeypatch.setattr(nve, "equatorial_exponents", lambda n: (betas, beta_inf + 1))
    with pytest.raises(RuntimeError, match="closed form"):
        equatorial_nve(3, Fraction(1, 10))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_all_exponent_square_roots_rational(n):
    """sqrt(1 + 4 beta) is rational at every singular point, for every n, so
    the case-1 exponents are rational even over the quadratic extension."""
    data = equatorial_nve(n, Fraction(1, 10))

    def rat(x):
        return x.to_fraction() if isinstance(x, QuadExt) else Fraction(x)

    for b in list(data.betas) + [data.beta_inf]:
        assert rational_sqrt(1 + 4 * rat(b)) is not None


def test_standard_form_identity():
    # p = 1/z, q = 0: r = 1/(4z^2) - 1/(2z^2) = -1/(4 z^2)
    p = RatFunc(Poly([1]), Poly([0, 1]))
    q = RatFunc.zero()
    assert standard_form(p, q) == RatFunc(
        Poly([Fraction(-1, 4)]), Poly([0, 0, 1])
    )


def test_standard_form_matches_numeric_reduction():
    """xi = exp(-int p/2) * chi maps xi'' + p xi' + q xi = 0 to chi'' = r chi;
    check the coefficient identity r = -q + p^2/4 + p'/2 at sample points."""
    data = equatorial_nve(2, Fraction(1, 5))
    for z in (0.03, -0.07, 0.11):
        p, dp = _eval(data.p, z), _eval(data.p.derivative(), z)
        q, r = _eval(data.q, z), _eval(data.r, z)
        assert math.isclose(r, -q + p * p / 4 + dp / 2, rel_tol=1e-12)


def _eval(f: RatFunc, z: float) -> float:
    num = sum(float(c) * z**k for k, c in enumerate(f.num.coeffs))
    den = sum(float(c) * z**k for k, c in enumerate(f.den.coeffs))
    return num / den


def test_gpp_equator_polynomial():
    n, eps = 3, Fraction(1, 5)
    data = equatorial_nve(n, eps)
    # g~_pp(z) = (1+z)^2 + n^2 (eps^2 - z^2)
    for z in (Fraction(1, 7), Fraction(-1, 9)):
        expected = (1 + z) ** 2 + n * n * (eps * eps - z * z)
        assert data.gpp_equator(z) == expected


def test_json_serialization_round_trip():
    data = equatorial_nve(2, Fraction(1, 10))
    blob = json.loads(nve_to_json(data))
    assert blob["n"] == 2 and blob["eps"] == "1/10"
    assert len(blob["poles"]) == 5
    assert blob["beta"][1] == {"a": "-3/16", "b": "0", "D": None}
    # integer-cleared coefficient lists reproduce r exactly
    num = [Fraction(c, blob["r"]["num_scale"]) for c in blob["r"]["num"]]
    den = [Fraction(c, blob["r"]["den_scale"]) for c in blob["r"]["den"]]
    assert RatFunc(Poly(num), Poly(den)) == data.r
