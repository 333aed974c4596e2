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

import functools
import math
from collections import namedtuple

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


def _legendre_q_exact(l: int, m: int) -> list:
    """The coefficients of Q = d^m P_l/dx^m as Fractions, lowest degree
    first, from P_l = 2^-l sum_k (-1)^k C(l, k) C(2l-2k, l) x^(l-2k)."""
    from fractions import Fraction

    if m < 0 or l < m:
        raise ValueError("need 0 <= m <= l")
    c = [0] * (l + 1)
    for k in range(l // 2 + 1):
        c[l - 2 * k] = (-1) ** k * math.comb(l, k) * math.comb(2 * l - 2 * k, l)
    return [Fraction(c[j + m] * math.perm(j + m, m), 2**l) for j in range(l - m + 1)]


def legendre_q(l: int, m: int) -> tuple:
    """Coefficients of Q = d^m P_l/dx^m, lowest degree first, so that
    P_l^m(x) = (1-x^2)^(m/2) Q(x): the exact coefficients, each rounded
    once."""
    return tuple(float(c) for c in _legendre_q_exact(l, m))


def assoc_legendre_max(l: int, m: int) -> float:
    """max |P_l^m| over [-1, 1], for 1 <= m <= l.

    (P_l^m)^2 = (1-x^2)^m Q^2 vanishes at x = +-1, so the maximum sits at an
    interior zero of its derivative's factor -m x Q + (1-x^2) Q'.  Each real
    zero in (-1, 1] of that exact polynomial is isolated in a rational
    interval by a Sturm sequence (:meth:`Poly.real_roots`), then narrowed by
    bisection on floats to about their spacing.  The sign of its square-free
    part at each float is read from a float Horner value where a rigorous
    rounding bound settles it, and decided exactly where the bound
    straddles zero, so every sign is the exact one.
    """
    from .algebra import Poly

    q = Poly(_legendre_q_exact(l, m))
    x = Poly([0, 1])
    crit = (-m * x * q + (1 - x * x) * q.derivative()).squarefree()
    coeffs = [float(c) for c in reversed(crit.coeffs)]
    # the same coefficients times their common denominator, as integers
    den = math.lcm(*(c.denominator for c in crit.coeffs))
    ints = [c.numerator * (den // c.denominator) for c in reversed(crit.coeffs)]
    # Horner on the rounded coefficients at a float |x| <= 1 is within
    # (gamma_2d + u/(1-u)) sum |c_k| |x|^k of the exact value, u = 2^-53
    # and d the degree (Higham, *Accuracy and Stability of Numerical
    # Algorithms*, 2nd ed., sec. 5.1, with the coefficients' own rounding);
    # the sum's Horner value s is within gamma_2d of it.  4 (d + 1) u s is
    # more than twice that, which covers the bound's own rounding, and
    # (d + 1) 2^-1074 covers the products that underflow.
    scale = 4.0 * len(coeffs) * 2.0**-53
    tiny = len(coeffs) * 2.0**-1074

    def positive(t: float) -> bool:
        v = s = 0.0
        for c in coeffs:
            v = v * t + c
            s = s * abs(t) + abs(c)
        bound = scale * s + tiny
        if abs(v) > bound:
            return v > 0.0
        # exactly: t = p/q, and q^d crit(t) = sum c_k p^k q^(d-k) times 1/den
        p, q = t.as_integer_ratio()
        h, w = 0, 1
        for c in ints:
            h = h * p + c * w
            w *= q
        return h > 0

    top = 0.0
    for lo, hi in crit.real_roots(-1, 1):
        at_hi = crit(hi)  # zero when hi is the root itself
        a, b = float(hi if at_hi == 0 else lo), float(hi)
        while b - a > 2**-52:  # the floats a < root <= b, signs decided exactly
            mid = 0.5 * (a + b)
            if positive(mid) == (at_hi > 0):
                b = mid
            else:
                a = mid
        top = max(top, abs(assoc_legendre(l, m, b)))
    return top


def flat_floats(values) -> list:
    """A vector, or a matrix given by its rows, as a flat row-major list of
    floats."""
    out = []
    for x in values:
        try:
            out.extend(float(v) for v in x)
        except TypeError:  # a number, not a row
            out.append(float(x))
    return out


def check_rotation(rot, name="rot") -> tuple:
    """A 3x3 matrix as nine row-major floats; it must be a rotation.  A
    scaled chart is another surface and a reflected one flips the
    orientation the Jacobi flow's normal parts are measured in; a scaled
    section frame scales the reported phi_dot and a reflected one reports
    other crossings."""
    rot = tuple(flat_floats(rot))
    if len(rot) != 9:
        raise ValueError(f"{name} must be a row-major 3x3 matrix (9 numbers)")
    a, b, c, d, e, f, g, h, i = rot
    # the upper triangle of rot @ rot.T - I, which is symmetric
    gram = (
        a * a + b * b + c * c - 1.0, a * d + b * e + c * f, a * g + b * h + c * i,
        d * d + e * e + f * f - 1.0, d * g + e * h + f * i, g * g + h * h + i * i - 1.0,
    )
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    # all(), not max(): a NaN entry fails every comparison
    if not (all(abs(x) <= 1e-12 for x in gram) and det > 0):
        raise ValueError(f"{name} must be a rotation: orthonormal with determinant +1")
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


class Metric2(namedtuple("Metric2", "g_tt g_tp g_pp")):
    """First fundamental form in (theta, phi) coordinates."""

    __slots__ = ()

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
        self._partials, self._rhs, self._jacobi = kernels.chart_kernel(
            m, q, self.params["eps"], rot
        )

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
        rot = check_rotation(rot)
        return type(self)(self.family, {**self.params, "rot": rot}, self.m, self.q, rot)

    @classmethod
    def from_spec(cls, spec) -> "PolarSurface":
        """Build from a dict or JSON string, e.g.
        {"family": "sectoral", "n": 3, "eps": 0.2}."""
        if isinstance(spec, str):
            import json

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
        return self._rhs(s, y)

    def jacobi_rhs(self, s, y):
        """:meth:`rhs` for the state y[:4] followed by the Jacobi equation
        w'' = -K*2H*w of j normal parts w = y[4:4+j] with derivatives
        w' = y[4+j:]."""
        return self._jacobi[len(y)](s, y)

    @functools.cached_property
    def equator_jacobi_rhs(self):
        """The Jacobi equation along the chart's equator theta = pi/2, which
        must be a geodesic, in the chart's phi: a function of (phi, y) giving,
        for y = (w0, u0, w1, u1, l), (sigma*u0, -sigma*K*w0, sigma*u1,
        -sigma*K*w1, sigma) with the speed sigma = ds/dphi =
        sqrt(r^2 + r_phi^2) and u = dw/ds.  Bound on first use."""
        return kernels.equator_kernel(self._jacobi)

    def __reduce__(self):
        """Pickle as the constructor's arguments: the bound kernels are
        closures, which do not pickle."""
        return type(self), (self.family, self.params, self.m, self.q, self.rot)

    def __repr__(self):
        return f"PolarSurface({self.family}, {self.params})"
