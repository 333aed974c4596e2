"""Polar surfaces r = r(theta, phi) over the unit sphere and their metric data.

A surface is described by its radial function together with all partial
derivatives up to second order; everything downstream (metric, Christoffel
symbols, Gaussian curvature, geodesic and Jacobi equations) is generated from
those six numbers per point.

Every family is one Cartesian form on the unit sphere,

    r = 1 + eps * Re((x + i*y)^m) * Q(z),

which equals 1 + eps * P_l^m(cos(theta)) * cos(m*phi) for Q = d^m P_l/dx^m.
The families are (m, Q) pairs:

* ``sectoral``   m = n, Q = 1        r = 1 + eps * sin^n(theta) * cos(n*phi)
* ``zonal``      m = 0, Q = P_l      (surface of revolution)
* ``tesseral``   m, Q = P_l^(m)      r = 1 + eps * P_l^m(cos(theta)) * cos(m*phi)

Any surface can be expressed in a rotated coordinate chart
(:meth:`PolarSurface.in_chart`); ``rotated`` names a sectoral surface built in
one.  Associated Legendre functions here carry no Condon-Shortley phase.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.polynomial import Polynomial

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


def legendre_q(l: int, m: int) -> tuple:
    """Coefficients of Q = d^m P_l/dx^m, lowest degree first, so that
    P_l^m(x) = (1-x^2)^(m/2) Q(x).

    From P_l = 2^-l sum_k (-1)^k C(l, k) C(2l-2k, l) x^(l-2k) in integers,
    each coefficient rounded once.
    """
    if m < 0 or l < m:
        raise ValueError("need 0 <= m <= l")
    c = [0] * (l + 1)
    for k in range(l // 2 + 1):
        c[l - 2 * k] = (-1) ** k * math.comb(l, k) * math.comb(2 * l - 2 * k, l)
    return tuple(c[j + m] * math.perm(j + m, m) / 2**l for j in range(l - m + 1))


def assoc_legendre_max(l: int, m: int) -> float:
    """max |P_l^m| over [-1, 1], for 1 <= m <= l.

    (P_l^m)^2 = (1-x^2)^m Q^2 vanishes at x = +-1, and its other critical
    points are the zeros of Q and of -m x Q + (1-x^2) Q'; the maximum sits at
    a real zero of the latter.
    """
    q = Polynomial(legendre_q(l, m))
    x = Polynomial([0.0, 1.0])
    crit = (-m * x * q + (1 - x * x) * q.deriv()).roots()
    return max(abs(assoc_legendre(l, m, min(max(c.real, -1.0), 1.0))) for c in crit)


def _rot9(rot) -> tuple:
    """A chart matrix as nine floats; it must be a rotation, since a scaled
    chart is another surface and a reflected one flips the orientation the
    Jacobi flow's normal parts are measured in."""
    rot = tuple(float(x) for x in np.ravel(rot))
    if len(rot) != 9:
        raise ValueError("rot must be a row-major 3x3 matrix (9 numbers)")
    mat = np.reshape(rot, (3, 3))
    if not (np.max(np.abs(mat @ mat.T - np.eye(3))) <= 1e-12 and np.linalg.det(mat) > 0):
        raise ValueError("rot must be a rotation: orthonormal with determinant +1")
    return rot


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
    """A star-shaped surface r = 1 + eps*Re((x+iy)^m)*Q(z) and its partials.

    ``q`` holds the coefficients of Q, lowest degree first.  ``rot`` is the
    row-major chart->body matrix of the coordinate chart, None for the body
    chart.  ``partials(theta, phi)`` returns (r, r_t, r_p, r_tt, r_tp, r_pp).
    """

    def __init__(self, family: str, params: dict, m: int, q: tuple, rot=None):
        self.family = family
        self.params = dict(params)
        self.m = m
        self.q = q
        self.rot = rot
        eps = self.params["eps"]
        if rot is None and len(q) == 1:  # sin^m(theta)*cos(m*phi) times q[0]
            self._partials = partial(kernels.sectoral_partials, m, eps * q[0])
        else:
            coefs = kernels.chart_coefficients(rot or IDENTITY_ROT)
            self._partials = partial(kernels.harmonic_partials, m, q, eps, coefs)

    # -- constructors --------------------------------------------------------
    @classmethod
    def sectoral(cls, n: int, eps: float) -> "PolarSurface":
        if n < 1:
            raise ValueError("n >= 1 required")
        _check_deformation(eps, 1.0)
        return cls("sectoral", {"n": n, "eps": float(eps)}, n, (1.0,))

    @classmethod
    def rotated_sectoral(cls, n: int, eps: float, rot=IDENTITY_ROT) -> "PolarSurface":
        surf = cls.sectoral(n, eps).in_chart(rot)
        surf.family = "rotated"
        return surf

    @classmethod
    def zonal(cls, l: int, eps: float) -> "PolarSurface":
        if l < 1:
            raise ValueError("l >= 1 required")
        _check_deformation(eps, 1.0)
        return cls("zonal", {"l": l, "eps": float(eps)}, 0, legendre_q(l, 0))

    @classmethod
    def tesseral(cls, l: int, m: int, eps: float) -> "PolarSurface":
        if not 1 <= m <= l:
            raise ValueError("need 1 <= m <= l")
        _check_deformation(eps, assoc_legendre_max(l, m))
        return cls("tesseral", {"l": l, "m": m, "eps": float(eps)}, m, legendre_q(l, m))

    def in_chart(self, rot) -> "PolarSurface":
        """The same surface in the chart with row-major chart->body matrix
        ``rot``."""
        rot = _rot9(rot)
        return type(self)(self.family, {**self.params, "rot": rot}, self.m, self.q, rot)

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

    def jacobi_rhs(self, s, y):
        """:meth:`rhs` for the state y[:4] followed by the Jacobi equation
        w'' = -K*2H*w of j normal parts w = y[4:4+j] with derivatives
        w' = y[4+j:]."""
        theta, phi, td, pd, *w = y
        parts = self._partials(theta, phi)
        r, rt, rp = parts[:3]
        h2 = (rt * td + rp * pd) ** 2 + r * r * (td * td + (math.sin(theta) * pd) ** 2)
        k = -kernels.curvature(theta, *parts) * h2
        j = len(w) // 2
        return [*kernels.rhs_from_partials(theta, td, pd, parts), *w[j:], *(k * x for x in w[:j])]

    def __repr__(self):
        return f"PolarSurface({self.family}, {self.params})"
