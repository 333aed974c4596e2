"""Polar surfaces r = r(theta, phi) over the unit sphere and their metric data.

A surface is described by its radial function together with all partial
derivatives up to second order; everything downstream (metric, Christoffel
symbols, geodesic equations) is generated from those six numbers per point.

Families:

* ``sectoral``   r = 1 + eps * sin^n(theta) * cos(n*phi)
* ``zonal``      r = 1 + eps * P_l(cos(theta))          (surface of revolution)
* ``tesseral``   r = 1 + eps * P_l^m(cos(theta)) * cos(m*phi)
* ``rotated``    a sectoral surface expressed in a rotated coordinate chart
* ``custom``     user-supplied callable returning the six partials

Associated Legendre functions here carry no Condon-Shortley phase.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

from numpy.polynomial import Legendre, Polynomial

from . import kernels

POLE_TOL = 1e-8

IDENTITY_ROT = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


class PoleError(ValueError):
    """The polar coordinate chart degenerates at sin(theta) ~ 0."""


# ---------------------------------------------------------------------------
# associated Legendre functions (no Condon-Shortley phase)
# ---------------------------------------------------------------------------


def assoc_legendre(l: int, m: int, x: float) -> float:
    """P_l^m(x) with P_m^m = (2m-1)!! (1-x^2)^(m/2) and upward recurrence."""
    if m < 0 or l < m:
        raise ValueError("need 0 <= m <= l")
    pmm = 1.0
    if m > 0:
        s = math.sqrt(max(0.0, 1.0 - x * x))
        fac = 1.0
        for _ in range(m):
            pmm *= fac * s
            fac += 2.0
    if l == m:
        return pmm
    pm1 = x * (2 * m + 1) * pmm
    if l == m + 1:
        return pm1
    for ll in range(m + 2, l + 1):
        pmm, pm1 = pm1, (x * (2 * ll - 1) * pm1 - (ll + m - 1) * pmm) / (ll - m)
    return pm1


def assoc_legendre_d(l: int, m: int, x: float) -> float:
    """dP_l^m/dx for |x| < 1, via (1-x^2) P' = (l+m) P_{l-1}^m - l x P_l^m."""
    omx2 = 1.0 - x * x
    if omx2 <= 0.0:
        raise ValueError("derivative formula requires |x| < 1")
    p = assoc_legendre(l, m, x)
    pm1 = assoc_legendre(l - 1, m, x) if l - 1 >= m else 0.0
    return ((l + m) * pm1 - l * x * p) / omx2


def assoc_legendre_d2(l: int, m: int, x: float) -> float:
    """d^2 P_l^m/dx^2 from the associated Legendre differential equation."""
    omx2 = 1.0 - x * x
    if omx2 <= 0.0:
        raise ValueError("second derivative requires |x| < 1")
    p = assoc_legendre(l, m, x)
    dp = assoc_legendre_d(l, m, x)
    return (2.0 * x * dp - (l * (l + 1) - m * m / omx2) * p) / omx2


def assoc_legendre_max(l: int, m: int) -> float:
    """max |P_l^m| over [-1, 1], for 1 <= m <= l.

    With Q = d^m P_l/dx^m, (P_l^m)^2 = (1-x^2)^m Q^2 vanishes at x = +-1, and
    its other critical points are the zeros of Q and of
    -m x Q + (1-x^2) Q'; the maximum sits at a real zero of the latter.
    """
    q = Legendre.basis(l).deriv(m).convert(kind=Polynomial)
    x = Polynomial([0.0, 1.0])
    crit = (-m * x * q + (1 - x * x) * q.deriv()).roots()
    return max(abs(assoc_legendre(l, m, min(max(c.real, -1.0), 1.0))) for c in crit)


def _check_deformation(eps: float, h_max: float) -> None:
    """r = 1 + eps*h stays positive everywhere only when |eps|*max|h| < 1."""
    if abs(eps) * h_max >= 1.0:
        raise ValueError(
            f"|eps| * max|h| = {abs(eps) * h_max:.4g} >= 1: the radius reaches zero"
        )


# ---------------------------------------------------------------------------
# metric container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Metric2:
    """First fundamental form in (theta, phi) coordinates."""

    g_tt: float
    g_tp: float
    g_pp: float

    @property
    def det(self) -> float:
        return self.g_tt * self.g_pp - self.g_tp * self.g_tp


# ---------------------------------------------------------------------------
# surfaces
# ---------------------------------------------------------------------------


class PolarSurface:
    """A star-shaped surface given by r(theta, phi) and its partials.

    ``partials(theta, phi)`` returns (r, r_t, r_p, r_tt, r_tp, r_pp).
    """

    def __init__(
        self,
        family: str,
        partials: Callable[[float, float], tuple],
        params: Optional[dict] = None,
    ):
        self.family = family
        self._partials = partials
        self.params = dict(params or {})

    # -- constructors --------------------------------------------------------
    @classmethod
    def sectoral(cls, n: int, eps: float) -> "PolarSurface":
        if n < 1:
            raise ValueError("n >= 1 required")
        _check_deformation(eps, 1.0)

        def part(theta, phi, n=n, eps=float(eps)):
            return kernels.sectoral_partials(n, eps, theta, phi)

        return cls("sectoral", part, {"n": n, "eps": float(eps)})

    @classmethod
    def rotated_sectoral(cls, n: int, eps: float, rot=IDENTITY_ROT) -> "PolarSurface":
        rot = tuple(float(x) for x in rot)
        if len(rot) != 9:
            raise ValueError("rot must be a row-major 3x3 matrix (9 numbers)")
        _check_deformation(eps, 1.0)

        def part(theta, phi, n=n, eps=float(eps), rot=rot[:6]):
            return kernels.chart_sectoral_partials(n, eps, rot, theta, phi)

        return cls("rotated", part, {"n": n, "eps": float(eps), "rot": rot})

    @classmethod
    def zonal(cls, l: int, eps: float) -> "PolarSurface":
        if l < 1:
            raise ValueError("l >= 1 required")
        _check_deformation(eps, 1.0)

        def part(theta, phi, l=l, eps=float(eps)):
            x = math.cos(theta)
            st = math.sin(theta)
            p = assoc_legendre(l, 0, x)
            dp = assoc_legendre_d(l, 0, x)
            d2p = assoc_legendre_d2(l, 0, x)
            r = 1.0 + eps * p
            r_t = -eps * st * dp
            r_tt = eps * (st * st * d2p - x * dp)
            return r, r_t, 0.0, r_tt, 0.0, 0.0

        return cls("zonal", part, {"l": l, "eps": float(eps)})

    @classmethod
    def tesseral(cls, l: int, m: int, eps: float) -> "PolarSurface":
        if not 1 <= m <= l:
            raise ValueError("need 1 <= m <= l")
        _check_deformation(eps, assoc_legendre_max(l, m))

        def part(theta, phi, l=l, m=m, eps=float(eps)):
            x = math.cos(theta)
            st = math.sin(theta)
            cm = math.cos(m * phi)
            sm = math.sin(m * phi)
            p = assoc_legendre(l, m, x)
            dp = assoc_legendre_d(l, m, x)
            d2p = assoc_legendre_d2(l, m, x)
            r = 1.0 + eps * p * cm
            r_t = -eps * st * dp * cm
            r_p = -eps * m * p * sm
            r_tt = eps * (st * st * d2p - x * dp) * cm
            r_tp = eps * m * st * dp * sm
            r_pp = -eps * m * m * p * cm
            return r, r_t, r_p, r_tt, r_tp, r_pp

        return cls("tesseral", part, {"l": l, "m": m, "eps": float(eps)})

    @classmethod
    def custom(cls, partials: Callable[[float, float], tuple]) -> "PolarSurface":
        return cls("custom", partials)

    @classmethod
    def from_spec(cls, spec) -> "PolarSurface":
        """Build from a dict or JSON string, e.g.
        {"family": "sectoral", "n": 3, "eps": 0.2}."""
        if isinstance(spec, str):
            spec = json.loads(spec)
        fam = spec.get("family")
        if fam == "sectoral":
            return cls.sectoral(int(spec["n"]), float(spec["eps"]))
        if fam == "rotated":
            return cls.rotated_sectoral(
                int(spec["n"]), float(spec["eps"]), spec.get("rot", IDENTITY_ROT)
            )
        if fam == "zonal":
            return cls.zonal(int(spec["l"]), float(spec["eps"]))
        if fam == "tesseral":
            return cls.tesseral(int(spec["l"]), int(spec["m"]), float(spec["eps"]))
        raise ValueError(f"unknown surface family {fam!r}")

    # -- geometry -------------------------------------------------------------
    def partials(self, theta: float, phi: float) -> tuple:
        return self._partials(theta, phi)

    def radius(self, theta: float, phi: float) -> float:
        return self._partials(theta, phi)[0]

    def metric_at(self, theta: float, phi: float) -> Metric2:
        if abs(math.sin(theta)) <= POLE_TOL:
            raise PoleError(f"polar chart degenerate at theta = {theta}")
        r, r_t, r_p, *_ = self._partials(theta, phi)
        st2 = math.sin(theta) ** 2
        return Metric2(
            g_tt=r_t * r_t + r * r,
            g_tp=r_t * r_p,
            g_pp=r_p * r_p + r * r * st2,
        )

    def christoffels_at(self, theta: float, phi: float) -> dict:
        """Symbols keyed 'ttt', 'ttp', 'tpp', 'ptt', 'ptp', 'ppp' (upper index
        first)."""
        if abs(math.sin(theta)) <= POLE_TOL:
            raise PoleError(f"polar chart degenerate at theta = {theta}")
        out = kernels.christoffel(theta, *self._partials(theta, phi))
        keys = ("g_tt", "g_tp", "g_pp", "det", "ttt", "ttp", "tpp", "ptt", "ptp", "ppp")
        return {k: v for k, v in zip(keys[4:], out[4:])}

    def gamma_theta_phiphi(self, theta: float, phi: float) -> float:
        """Gamma^theta_phiphi, the restoring term of normal variations."""
        return self.christoffels_at(theta, phi)["tpp"]

    def gamma_theta_phiphi_dtheta(
        self, theta: float, phi: float, h: float = 1e-6
    ) -> float:
        """Central-difference theta-derivative of Gamma^theta_phiphi."""
        return (
            self.gamma_theta_phiphi(theta + h, phi)
            - self.gamma_theta_phiphi(theta - h, phi)
        ) / (2.0 * h)

    def equator_nve_coeffs(self, phi: float) -> tuple:
        """(phi_dot, a, b) of the normal variation xi'' = a xi + b xi' at phi
        on the equator theta = pi/2, travelled at unit speed, with
        a = -d_theta Gamma^theta_phiphi * phi_dot^2 and
        b = -2 Gamma^theta_thetaphi * phi_dot."""
        g = self.metric_at(math.pi / 2, phi)
        pd = 1.0 / math.sqrt(g.g_pp)
        ch = self.christoffels_at(math.pi / 2, phi)
        dG = self.gamma_theta_phiphi_dtheta(math.pi / 2, phi)
        return pd, -dG * pd * pd, -2.0 * ch["ttp"] * pd

    def hamiltonian2(self, theta, phi, theta_dot, phi_dot) -> float:
        """2H = g_tt td^2 + 2 g_tp td pd + g_pp pd^2 (arc length when == 1)."""
        g = self.metric_at(theta, phi)
        return (
            g.g_tt * theta_dot * theta_dot
            + 2.0 * g.g_tp * theta_dot * phi_dot
            + g.g_pp * phi_dot * phi_dot
        )

    def rhs(self, s, y):
        """Geodesic right-hand side for (theta, phi, theta_dot, phi_dot)."""
        theta, phi, td, pd = y
        return kernels.rhs_from_partials(theta, td, pd, self._partials(theta, phi))

    def __repr__(self):
        return f"PolarSurface({self.family}, {self.params})"
