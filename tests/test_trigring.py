"""Exact trigonometric-polynomial ring and sectoral surface symbols."""

import math
from fractions import Fraction

import pytest

from harmgeo import kernels
from harmgeo.surface import PolarSurface
from harmgeo.trigring import (
    TrigPoly,
    sectoral_christoffels,
    sectoral_metric,
)


def _gens():
    return (TrigPoly.gen(x) for x in "uvcs")


def _numeric(theta, phi, n):
    """Numeric values of (u, v, c, s) at a point."""
    return (
        math.sin(theta),
        math.cos(theta),
        math.cos(n * phi),
        math.sin(n * phi),
    )


def test_pythagorean_relations_are_modded_out():
    u, v, c, s = _gens()
    assert u * u + v * v == TrigPoly.const(1)
    assert s * s == TrigPoly.const(1) - c * c
    # higher powers reduce consistently: v^3 = v(1-u^2)
    assert v**3 == v - v * u * u
    # the ring has no inverses
    with pytest.raises(ValueError, match="nonnegative"):
        u**-1


def test_diff_theta_chain_rule():
    u, v, c, s = _gens()
    # d/dtheta sin^2 = 2 sin cos
    assert (u * u).diff_theta() == 2 * u * v
    # d/dtheta cos = -sin
    assert v.diff_theta() == -u
    # product rule on u*v
    assert (u * v).diff_theta() == v * v - u * u


def test_diff_phi_scales_with_order():
    u, v, c, s = _gens()
    n = 3
    assert c.diff_phi(n) == -Fraction(n) * s
    assert s.diff_phi(n) == Fraction(n) * c
    assert (c * s).diff_phi(n) == Fraction(n) * (c * c - s * s)


def test_eval_matches_symbolic_derivative():
    """Symbolic theta-derivative agrees with finite differences numerically."""
    u, v, c, s = _gens()
    expr = u**3 * c + v * s * u
    n, theta, phi, h = 2, 0.9, 0.4, 1e-6
    exact = float(expr.diff_theta().eval(*_numeric(theta, phi, n)))
    fd = (
        float(expr.eval(*_numeric(theta + h, phi, n)))
        - float(expr.eval(*_numeric(theta - h, phi, n)))
    ) / (2 * h)
    assert abs(exact - fd) < 1e-8


def test_sectoral_metric_matches_kernels():
    n, eps = 3, Fraction(1, 5)
    g, det, r = sectoral_metric(n, eps)
    theta, phi = 1.1, 0.7
    pt = _numeric(theta, phi, n)
    rv, r_t, r_p, *_ = PolarSurface.sectoral(n, float(eps)).partials(theta, phi)
    st2 = math.sin(theta) ** 2
    assert math.isclose(float(g[0][0].eval(*pt)), r_t * r_t + rv * rv, rel_tol=1e-12)
    assert math.isclose(float(g[0][1].eval(*pt)), r_t * r_p, rel_tol=1e-12)
    assert math.isclose(
        float(g[1][1].eval(*pt)), r_p * r_p + rv * rv * st2, rel_tol=1e-12
    )
    assert math.isclose(float(r.eval(*pt)), rv, rel_tol=1e-14)


@pytest.mark.parametrize("key", ["ttt", "ttp", "tpp", "ptt", "ptp", "ppp"])
def test_sectoral_christoffels_match_kernels(key):
    n, eps = 2, Fraction(3, 10)
    ch = sectoral_christoffels(n, eps)
    theta, phi = 0.8, 1.3
    pt = _numeric(theta, phi, n)
    out = kernels.christoffel(
        theta, *PolarSurface.sectoral(n, float(eps)).partials(theta, phi)
    )
    numeric = dict(zip(("ttt", "ttp", "tpp", "ptt", "ptp", "ppp"), out[4:]))
    frac = ch[key]
    val = float(frac.num.eval(*pt)) / float(frac.den.eval(*pt))
    assert math.isclose(val, numeric[key], rel_tol=1e-10, abs_tol=1e-12)
