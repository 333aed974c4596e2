"""Normal variational equation of the equatorial geodesic, in exact arithmetic.

For a sectoral surface r = 1 + eps*sin^n(theta)*cos(n*phi) the equator
theta = pi/2 carries a closed geodesic.  Linearizing the geodesic flow around
it in the normal (theta) direction and changing the independent variable to
z = eps*cos(n*phi(s)) produces a second-order ODE

    xi'' + p(z) xi' + q(z) xi = 0

with rational-function coefficients over Q (eps rational), which is then put
in the standard form xi'' = r(z) xi with r = -q + p^2/4 + p'/2.  All finite
singular points are regular (double poles at most) and infinity is regular as
well, so the result feeds straight into the Kovacic machinery.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    Poly,
    QuadExt,
    RatFunc,
    partial_fractions,
    PartialFractions,
)
from .trigring import TrigPoly, TrigFrac, equator_even_ratio, sectoral_christoffels


@dataclass(frozen=True)
class NVEData:
    """Equatorial normal variational equation in the z-domain."""

    n: int
    eps: Fraction
    p: RatFunc
    q: RatFunc
    r: RatFunc
    poles: tuple
    betas: tuple
    deltas: tuple
    beta_inf: object
    gpp_equator: Poly  # metric coefficient g~_phiphi as a polynomial in z


def _subs_c_to_z(poly_c: Poly, eps: Fraction) -> Poly:
    """Substitute c = z/eps into a polynomial in c."""
    return Poly([co / eps**k for k, co in enumerate(poly_c.coeffs)])


def nve_poles(n: int, eps: Fraction) -> list:
    """Exact singular points of the standard-form equation."""
    eps = Fraction(eps)
    if n == 1:
        return [Fraction(-1), eps, -eps, -Fraction(1 + eps * eps, 2)]
    m = n * n - 1
    disc = 1 + eps * eps * m
    rho_p = QuadExt(Fraction(1, m), Fraction(n, m), disc)
    rho_m = QuadExt(Fraction(1, m), Fraction(-n, m), disc)
    return [Fraction(-1), eps, -eps, rho_p, rho_m]


def equatorial_exponents(n: int) -> tuple[tuple, Fraction]:
    """Double-pole coefficients of the standard-form equation, which depend
    on n alone: (betas in :func:`nve_poles` order, beta_inf).

    beta is 0 at z = -1, -3/16 at z = +-eps and 5/16 at the remaining
    pole(s); beta_inf is (n+1)/n^2, and 45/16 for n = 1.  The only pole with
    beta = 0, z = -1, has the simple residue :func:`appendix_delta1`
    = 2/(n(eps^2 - 1)), which is nonzero for every 0 < eps < 1.
    :func:`equatorial_nve` checks all three against every derivation.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    outer = (Fraction(0), Fraction(-3, 16), Fraction(-3, 16))
    if n == 1:
        return outer + (Fraction(5, 16),), Fraction(45, 16)
    return outer + (Fraction(5, 16),) * 2, Fraction(n + 1, n * n)


def equatorial_nve(n: int, eps) -> NVEData:
    """Derive the z-domain NVE exactly for rational 0 < eps < 1.

    The sphere (eps = 0) is excluded: there the poles collide and the normal
    variation reduces to the constant-coefficient oscillator xi'' + xi = 0 in
    arc length.
    """
    eps = Fraction(eps)
    if n < 1:
        raise ValueError("n >= 1 required")
    if eps == 0:
        raise ValueError("eps = 0 is the sphere; the NVE is xi'' + xi = 0")
    if not 0 < eps < 1:
        raise ValueError("0 < eps < 1 required")

    ch = sectoral_christoffels(n, eps)
    s = TrigPoly.gen("s")

    # E1 = d/dtheta Gamma^theta_phiphi on the equator, even in sin(n*phi)
    e1_num, e1_den = equator_even_ratio(ch["tpp"].diff_theta())
    # E2 = sin(n*phi) * Gamma^theta_thetaphi on the equator
    e2_num, e2_den = equator_even_ratio(TrigFrac(s) * ch["ttp"])
    # E3 = sin(n*phi) * Gamma^phi_phiphi on the equator
    e3_num, e3_den = equator_even_ratio(TrigFrac(s) * ch["ppp"])

    E1 = RatFunc(e1_num, e1_den)
    E2 = RatFunc(e2_num, e2_den)
    E3 = RatFunc(e3_num, e3_den)

    one_m_c2 = Poly([1, 0, -1])
    nf = Fraction(n)

    # q(c) = E1 / (n^2 eps^2 (1-c^2)); p(c) = -(n c - E3 + 2 E2)/(eps n (1-c^2))
    q_c = E1 / RatFunc(Poly([nf * nf * eps * eps]) * one_m_c2)
    p_c = -(RatFunc(Poly([0, nf])) - E3 + 2 * E2) / RatFunc(
        Poly([eps * nf]) * one_m_c2
    )

    p = RatFunc(_subs_c_to_z(p_c.num, eps), _subs_c_to_z(p_c.den, eps))
    q = RatFunc(_subs_c_to_z(q_c.num, eps), _subs_c_to_z(q_c.den, eps))
    r = standard_form(p, q)

    poles = nve_poles(n, eps)
    pf = extract_fuchsian(r, n, eps)
    betas, beta_inf = equatorial_exponents(n)
    if (pf.betas, pf.beta_inf, pf.deltas[0]) != (betas, beta_inf, appendix_delta1(n, eps)):
        raise RuntimeError(
            f"exponents derived for n = {n}, eps = {eps} differ from the closed form"
        )

    # metric coefficient on the equator, g~pp = (1+z)^2 + n^2(eps^2 - z^2)
    gpp = Poly([1, 2, 1]) + Poly([nf * nf * eps * eps, 0, -nf * nf])

    return NVEData(
        n=n,
        eps=eps,
        p=p,
        q=q,
        r=r,
        poles=tuple(poles),
        betas=pf.betas,
        deltas=pf.deltas,
        beta_inf=pf.beta_inf,
        gpp_equator=gpp,
    )


def standard_form(p: RatFunc, q: RatFunc) -> RatFunc:
    """Eliminate the first-derivative term: r = -q + p^2/4 + p'/2.

    The reduced unknown is xi*exp(int p / 2), which has the same differential
    Galois identity component as xi.
    """
    return -q + p * p * Fraction(1, 4) + p.derivative() * Fraction(1, 2)


def extract_fuchsian(r: RatFunc, n: int, eps) -> PartialFractions:
    """Partial-fraction data of the standard-form coefficient r(z).

    Coefficients are coerced into Q(sqrt(1 + eps^2 (n^2-1))) so that the
    conjugate pole pair can be handled exactly.
    """
    eps = Fraction(eps)
    poles = nve_poles(n, eps)
    if any(isinstance(a, QuadExt) and a.D is not None for a in poles):
        r = RatFunc(r.num.map_coeffs(_lift), r.den.map_coeffs(_lift))
    return partial_fractions(r, poles)


def _lift(co):
    if isinstance(co, QuadExt):
        return co
    return QuadExt(co, 0, None)


def appendix_delta1(n: int, eps) -> Fraction:
    """Closed-form simple residue at the pole z = -1: 2/(n(eps^2 - 1))."""
    eps = Fraction(eps)
    return Fraction(2) / (n * (eps * eps - 1))


def nve_to_json(data: NVEData) -> str:
    """Serialize poles (as a + b*sqrt(D)), beta/delta data and the p, q, r
    coefficients (integer-cleared numerator/denominator lists)."""

    def field(x):
        if isinstance(x, QuadExt):
            return {"a": str(x.a), "b": str(x.b), "D": x.D}
        return {"a": str(Fraction(x)), "b": "0", "D": None}

    def int_coeffs(poly: Poly):
        dens = [Fraction(c).denominator for c in poly.coeffs] or [1]
        scale = 1
        for d in dens:
            scale = scale * d // _gcd(scale, d)
        return [int(Fraction(c) * scale) for c in poly.coeffs], scale

    def ratfunc(f: RatFunc):
        ncs, nscale = int_coeffs(f.num)
        dcs, dscale = int_coeffs(f.den)
        return {
            "num": ncs,
            "den": dcs,
            "num_scale": nscale,
            "den_scale": dscale,
        }

    out = {
        "n": data.n,
        "eps": str(data.eps),
        "poles": [field(a) for a in data.poles],
        "beta": [field(b) for b in data.betas],
        "delta": [field(d) for d in data.deltas],
        "beta_inf": field(data.beta_inf),
        "p": ratfunc(data.p),
        "q": ratfunc(data.q),
        "r": ratfunc(data.r),
    }
    return json.dumps(out, indent=2)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a
