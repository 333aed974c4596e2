"""Normal variational equation of the equatorial geodesic, in exact arithmetic.

For a sectoral surface r = 1 + eps*sin^n(theta)*cos(n*phi) the equator
theta = pi/2 carries a closed geodesic.  Along any geodesic the normal part w
of a Jacobi field obeys w'' + K*w = 0 in arc length, K the Gaussian curvature.
On the equator K and z_dot^2 are rational in z = eps*cos(n*phi(s)), so the
change of variable s -> z gives

    w_zz + (1/2)(log z_dot^2)' w_z + (K/z_dot^2) w = 0,

and the paper's variable xi = delta theta = -w/r satisfies a second-order ODE

    xi'' + p(z) xi' + q(z) xi = 0

with rational-function coefficients over Q (eps rational), which is then put
in the standard form xi'' = r(z) xi with r = -q + p^2/4 + p'/2.  All finite
singular points are regular (double poles at most) and infinity is regular as
well, so the result feeds straight into the Kovacic machinery.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .algebra import Poly, QuadExt, RatFunc, _FrozenRecord, partial_fractions


class NVEData(_FrozenRecord):
    """Equatorial normal variational equation in the z-domain.

    p and q share the denominator ``den``; each is reduced to lowest terms
    on its first read, since only the JSON writer and the dual residual
    read them.  ``gpp_equator`` is the metric coefficient g~_phiphi as a
    polynomial in z."""

    _fields = ("n", "eps", "p_num", "q_num", "den", "r", "poles", "betas", "deltas",
               "beta_inf", "gpp_equator")

    def __init__(self, n: int, eps: Fraction, p_num: Poly, q_num: Poly, den: Poly, r: RatFunc,
                 poles: tuple, betas: tuple, deltas: tuple, beta_inf, gpp_equator: Poly):
        self.__dict__.update(n=n, eps=eps, p_num=p_num, q_num=q_num, den=den, r=r, poles=poles,
                             betas=betas, deltas=deltas, beta_inf=beta_inf,
                             gpp_equator=gpp_equator)

    @cached_property
    def p(self) -> RatFunc:
        return RatFunc(self.p_num, self.den)

    @cached_property
    def q(self) -> RatFunc:
        return RatFunc(self.q_num, self.den)


def _equator_partials(n: int, eps: Fraction) -> tuple[Poly, Poly, Poly, Poly, Poly]:
    """r, r_phi^2, r_phiphi, r_thetatheta and G = g_phiphi = r^2 + r_phi^2 on
    the equator, as polynomials in z = eps*cos(n*phi)."""
    nn = Fraction(n * n)
    r = Poly([1, 1])
    rp2 = Poly([nn * eps * eps, 0, -nn])
    return r, rp2, Poly([0, -nn]), Poly([0, -n]), r * r + rp2


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

    rad, rp2, rpp, rtt, gpp = _equator_partials(n, eps)
    # The Jacobi equation in z: phi_dot^2 = 1/G on the equator, so
    # z_dot^2 = r_phi^2/G and z_ddot = (z_dot^2)'/2; with w = -r xi, r = 1 + z,
    # p and q share the denominator den = 2 r r_phi^2 G.  Each output is
    # reduced once, by its own RatFunc, p and q on their first read.
    den = 2 * rad * rp2 * gpp
    dlog = rp2.derivative() * gpp - rp2 * gpp.derivative()  # 2 rp2 G * p_w
    p_num = rad * dlog + 4 * rp2 * gpp
    # 2 r G^2 K + dlog: on the equator r_theta = r_thetaphi = 0, so the
    # curvature is K = (r_thth - r)(r r_phph - r^2 - 2 r_ph^2)/(r G^2)
    q_num = 2 * (rtt - rad) * (rad * rpp - rad * rad - 2 * rp2) + dlog
    # r = -q + p^2/4 + p'/2 over 4 den^2
    r_num = (
        p_num * p_num
        + 2 * (p_num.derivative() * den - p_num * den.derivative())
        - 4 * q_num * den
    )
    r = RatFunc(r_num, 4 * den * den)

    # r's rational coefficients meet Q(sqrt(1 + eps^2 (n^2 - 1))) only at the
    # conjugate pole pair
    poles = nve_poles(n, eps)
    pf = partial_fractions(r, poles)
    betas, beta_inf = equatorial_exponents(n)
    if (pf.betas, pf.beta_inf, pf.deltas[0]) != (betas, beta_inf, appendix_delta1(n, eps)):
        raise RuntimeError(
            f"exponents derived for n = {n}, eps = {eps} differ from the closed form"
        )

    return NVEData(
        n=n,
        eps=eps,
        p_num=p_num,
        q_num=q_num,
        den=den,
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


def appendix_delta1(n: int, eps) -> Fraction:
    """Closed-form simple residue at the pole z = -1: 2/(n(eps^2 - 1))."""
    eps = Fraction(eps)
    return Fraction(2) / (n * (eps * eps - 1))


def nve_to_json(data: NVEData) -> str:
    """Serialize poles (as a + b*sqrt(D)), beta/delta data and the p, q, r
    coefficients (integer-cleared numerator/denominator lists)."""
    import json  # only this writer needs it, so the import of the module skips it

    def field(x):
        if isinstance(x, QuadExt):
            return {"a": str(x.a), "b": str(x.b), "D": x.D}
        return {"a": str(Fraction(x)), "b": "0", "D": None}

    def int_coeffs(poly: Poly):
        scale = math.lcm(*(Fraction(c).denominator for c in poly.coeffs))
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
