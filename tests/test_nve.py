"""Exact equatorial variational equation: poles, exponents, residues."""

import hashlib
import json
import math
from fractions import Fraction

import pytest

from harmgeo import kernels, nve
from harmgeo.algebra import Poly, QuadExt, RatFunc, rational_sqrt
from harmgeo.nve import (
    appendix_delta1,
    equatorial_exponents,
    equatorial_nve,
    nve_poles,
    nve_to_json,
    standard_form,
)
from harmgeo.surface import PolarSurface


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


# leading 16 hex digits of the sha256 of nve_to_json at eps = 1/10, 1/5, 1/3,
# 1/2, 9/10, as written by the earlier derivation through the six
# Christoffel symbols in the trigonometric ring
NVE_JSON_SHA256 = {
    1: "821e7e68cce90ea2 4a9126783b683954 da2d429b995d539a 88c5bbe38719a53b 7776cb477e94ae02",
    2: "296aaabcc6995230 ac46f8913b28634a 9d98f26652f28175 14db9c2ac4db0055 c940d90823c16a62",
    3: "a3b832f8e3994447 6c4a26c8abf41d3a 80a05b49b174e28c 116ab8c407342a5e 188885ec2d5868a6",
    4: "5cbca5c5ff12ed94 43207a8c4736eb83 1cbced3b24999814 47a5acc9b8c9f276 a6e83372aefc3dce",
    5: "dbc66af6b182e147 d0730c3b6a9f90a3 0b3d2bac0df25460 8b501680d8d7c24a 472be7e589933454",
    6: "6872cfe5630c2c73 d6c29d983b691743 826aa3bb4bf5476b 6a27c7f35d674510 fda5752385408c47",
    7: "e66b011f07cdf5a3 9a9b48b18c0c08cc dcb7bfce7467d99e d64ab51671f46542 2df56898398ec4cc",
    8: "b3d0b8de63d3298e 671cfbe8d0421636 02d63896d5c1f91d 3d69e8b41952698b 958da3de1e53fc81",
    9: "bac5f96ef0e697b9 eabbf4fca32f7ffc 96d1646f534012dc 18fcb3e2239a0e0c 04ae7fb89d6ddeb3",
    10: "2c63561544b3de61 70f9ec99d6df1a3b 11839875ced787b0 be2c5531aa7e70e8 b8e8c56d3567b8fb",
    11: "35d90cddda31ace6 74c257d6d6091af9 e743182bad5a6ee8 8b2396e12b2e4b29 bf4fc8336949fc7b",
    12: "48076fc67fa5a5bc 8b303fcd5e483709 c6a6c3aa01e32132 0fd55da9ecc7c9c9 ce9553b93bbb3f08",
}


@pytest.mark.parametrize("n", range(1, 13))
def test_closed_form_exponents_match_derivation(n):
    """The census's closed-form exponents against the exact derivation; at
    eps = 1/5 the poles of n = 5 are rational.  The JSON of every derivation
    is pinned to the digest the earlier derivation gave."""
    betas, beta_inf = equatorial_exponents(n)
    epss = map(Fraction, ("1/10", "1/5", "1/3", "1/2", "9/10"))
    for eps, digest in zip(epss, NVE_JSON_SHA256[n].split(), strict=True):
        data = equatorial_nve(n, eps)
        assert data.betas == betas and data.beta_inf == beta_inf, eps
        assert data.deltas[0] == appendix_delta1(n, eps) != 0, eps
        assert hashlib.sha256(nve_to_json(data).encode()).hexdigest()[:16] == digest, eps


def _equator_curvature(n, eps):
    """Exact Gaussian curvature K(z) on the equator.  There r_theta =
    r_thetaphi = 0, so K = (r_thth - r)(r r_phph - r^2 - 2 r_ph^2)/(r G^2)."""
    r, rp2, rpp, rtt, g = nve._equator_partials(n, Fraction(eps))
    return RatFunc((rtt - r) * (r * rpp - r * r - 2 * rp2), r * g * g)


@pytest.mark.parametrize("n", range(1, 13))
def test_equator_curvature_matches_kernel(n):
    """The exact K(z) behind the NVE against the numeric kernel's curvature
    on the equator, from turning point to turning point (z = eps .. -eps)."""
    for eps in map(Fraction, ("1/10", "1/3", "1/2")):
        k_exact = _equator_curvature(n, eps)
        surf = PolarSurface.sectoral(n, float(eps))
        for j in range(7):
            phi = j * math.pi / (6 * n)
            z = Fraction(float(eps) * math.cos(n * phi))
            exact = float(k_exact(z))
            numeric = kernels.curvature(math.pi / 2, *surf.partials(math.pi / 2, phi))
            assert abs(exact - numeric) <= 1e-13 * max(1.0, abs(exact)), (eps, j)


def _generic_pqr(n, eps):
    """p, q and r by rational-function arithmetic, each step reduced, and r
    by standard_form: the derivation's earlier path."""
    rad, rp2, _, _, gpp = nve._equator_partials(n, eps)
    zdot2 = RatFunc(rp2, gpp)
    p_w = zdot2.derivative() / (2 * zdot2)
    q_w = _equator_curvature(n, eps) / zdot2
    p = p_w + RatFunc(2, rad)
    q = q_w + p_w / rad
    return p, q, standard_form(p, q)


@pytest.mark.parametrize("n", range(1, 13))
def test_derivation_matches_generic_path(n):
    """p and q over their one known denominator, and r over its square, give
    the coefficient tuples of the generic path, which reduces every step; at
    (5, 1/5) the conjugate pole pair is rational."""
    for eps in map(Fraction, ("1/10", "1/5", "1/3", "1/2", "9/10")):
        data = equatorial_nve(n, eps)
        for got, want in zip((data.p, data.q, data.r), _generic_pqr(n, eps), strict=True):
            assert got.num.coeffs == want.num.coeffs, eps
            assert got.den.coeffs == want.den.coeffs, eps
            assert all(type(c) is Fraction for c in got.num.coeffs + got.den.coeffs), eps
    if n == 5:
        assert all(
            not isinstance(a, QuadExt) or a.is_rational for a in nve_poles(5, Fraction(1, 5))
        )


def test_poles_for_many_digit_eps():
    """1 + eps^2 (n^2 - 1) with a 16-digit numerator and denominator: its
    square-free part comes from bounded trial division, which took seconds
    when it ran up to the square root."""
    rho_p, rho_m = nve_poles(2, Fraction(1, 10**8))[3:]
    assert rho_p.D == rho_m.D == 10**16 + 3
    assert math.isclose(float(rho_p), (1 + 2 * math.sqrt(1 + 3e-16)) / 3, rel_tol=1e-15)


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
