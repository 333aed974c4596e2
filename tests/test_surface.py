"""Surface families: Legendre functions, metric data, Christoffel symbols."""

import math

import numpy as np
import pytest
from scipy.special import lpmv

from harmgeo import kernels
from harmgeo.surface import (
    PoleError,
    PolarSurface,
    assoc_legendre,
    assoc_legendre_d,
    assoc_legendre_d2,
    assoc_legendre_max,
)


# -- associated Legendre functions ----------------------------------------------


@pytest.mark.parametrize("l,m", [(1, 0), (2, 0), (2, 1), (2, 2), (5, 3), (8, 8)])
def test_assoc_legendre_against_scipy(l, m):
    # scipy's lpmv includes the Condon-Shortley phase (-1)^m; ours does not
    for x in np.linspace(-0.95, 0.95, 13):
        ours = assoc_legendre(l, m, x)
        ref = (-1) ** m * lpmv(m, l, x)
        assert math.isclose(ours, ref, rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("l,m", [(2, 0), (3, 1), (5, 2)])
def test_assoc_legendre_derivatives_by_finite_differences(l, m):
    h = 1e-6
    for x in (-0.6, 0.1, 0.7):
        fd1 = (assoc_legendre(l, m, x + h) - assoc_legendre(l, m, x - h)) / (2 * h)
        assert math.isclose(assoc_legendre_d(l, m, x), fd1, rel_tol=1e-8, abs_tol=1e-8)
        fd2 = (
            assoc_legendre_d(l, m, x + h) - assoc_legendre_d(l, m, x - h)
        ) / (2 * h)
        assert math.isclose(
            assoc_legendre_d2(l, m, x), fd2, rel_tol=1e-7, abs_tol=1e-7
        )


def test_assoc_legendre_rejects_bad_arguments():
    with pytest.raises(ValueError):
        assoc_legendre(1, 2, 0.5)
    with pytest.raises(ValueError):
        assoc_legendre_d(2, 0, 1.0)


# -- radial partials --------------------------------------------------------------


def _check_partials(surface, theta, phi, h=1e-4, tol=1e-5):
    """All six reported partial derivatives agree with finite differences."""
    r, r_t, r_p, r_tt, r_tp, r_pp = surface.partials(theta, phi)
    f = lambda t, p: surface.partials(t, p)[0]
    assert math.isclose(
        r_t, (f(theta + h, phi) - f(theta - h, phi)) / (2 * h), abs_tol=tol
    )
    assert math.isclose(
        r_p, (f(theta, phi + h) - f(theta, phi - h)) / (2 * h), abs_tol=tol
    )
    assert math.isclose(
        r_tt, (f(theta + h, phi) - 2 * r + f(theta - h, phi)) / h**2, abs_tol=tol
    )
    assert math.isclose(
        r_pp, (f(theta, phi + h) - 2 * r + f(theta, phi - h)) / h**2, abs_tol=tol
    )
    mixed = (
        f(theta + h, phi + h)
        - f(theta + h, phi - h)
        - f(theta - h, phi + h)
        + f(theta - h, phi - h)
    ) / (4 * h * h)
    assert math.isclose(r_tp, mixed, abs_tol=tol)


@pytest.mark.parametrize(
    "surface",
    [
        PolarSurface.sectoral(3, 0.2),
        PolarSurface.zonal(2, 0.3),
        PolarSurface.tesseral(3, 2, 0.15),
        PolarSurface.rotated_sectoral(
            2, 0.25, (1, 0, 0, 0, 0, -1, 0, 1, 0)
        ),
    ],
    ids=["sectoral", "zonal", "tesseral", "rotated"],
)
def test_partials_match_finite_differences(surface):
    for theta, phi in [(0.7, 0.3), (1.4, 2.1), (2.2, 4.0)]:
        _check_partials(surface, theta, phi)


def test_sectoral_radius_formula():
    n, eps = 4, 0.2
    surf = PolarSurface.sectoral(n, eps)
    theta, phi = 1.0, 0.5
    expected = 1.0 + eps * math.sin(theta) ** n * math.cos(n * phi)
    assert math.isclose(surf.radius(theta, phi), expected, rel_tol=1e-15)


def test_rotated_chart_agrees_with_body_chart():
    """A rotated-chart surface evaluated at the mapped point gives the same
    radius as the body chart at the original point."""
    n, eps = 3, 0.2
    rot = np.array([[1.0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]])
    body = PolarSurface.sectoral(n, eps)
    chart = PolarSurface.rotated_sectoral(n, eps, tuple(rot.reshape(9)))
    theta_c, phi_c = 1.1, 0.8
    p_chart = np.array(
        [
            math.sin(theta_c) * math.cos(phi_c),
            math.sin(theta_c) * math.sin(phi_c),
            math.cos(theta_c),
        ]
    )
    p_body = rot @ p_chart
    theta_b = math.atan2(math.hypot(p_body[0], p_body[1]), p_body[2])
    phi_b = math.atan2(p_body[1], p_body[0])
    assert math.isclose(
        chart.radius(theta_c, phi_c), body.radius(theta_b, phi_b), rel_tol=1e-14
    )


# -- metric and symbols -------------------------------------------------------------


def test_metric_at_pole_raises():
    surf = PolarSurface.sectoral(2, 0.1)
    with pytest.raises(PoleError):
        surf.metric_at(0.0, 0.3)
    with pytest.raises(PoleError):
        surf.christoffels_at(math.pi, 0.3)


def test_sphere_metric_and_symbols():
    sphere = PolarSurface.sectoral(2, 0.0)
    theta = 1.0
    g = sphere.metric_at(theta, 0.4)
    assert math.isclose(g.g_tt, 1.0, rel_tol=1e-15)
    assert math.isclose(g.g_pp, math.sin(theta) ** 2, rel_tol=1e-15)
    assert g.g_tp == 0.0
    ch = sphere.christoffels_at(theta, 0.4)
    assert math.isclose(ch["tpp"], -math.sin(theta) * math.cos(theta), rel_tol=1e-12)
    assert math.isclose(ch["ptp"], math.cos(theta) / math.sin(theta), rel_tol=1e-12)
    for key in ("ttt", "ttp", "ptt", "ppp"):
        assert abs(ch[key]) < 1e-15


def test_hamiltonian2_is_quadratic_form():
    surf = PolarSurface.tesseral(3, 1, 0.1)
    theta, phi = 1.2, 0.9
    g = surf.metric_at(theta, phi)
    td, pd = 0.3, -0.5
    expected = g.g_tt * td * td + 2 * g.g_tp * td * pd + g.g_pp * pd * pd
    assert math.isclose(surf.hamiltonian2(theta, phi, td, pd), expected, rel_tol=1e-15)


def test_restoring_symbol_derivative_matches_exact_value():
    """On the equator the theta-derivative of Gamma^theta_phiphi drives the
    normal variation; the finite-difference helper must agree with a direct
    difference quotient."""
    surf = PolarSurface.sectoral(2, 0.3)
    theta, phi = math.pi / 2, 0.7
    h = 1e-6
    direct = (
        surf.gamma_theta_phiphi(theta + h, phi)
        - surf.gamma_theta_phiphi(theta - h, phi)
    ) / (2 * h)
    assert math.isclose(
        surf.gamma_theta_phiphi_dtheta(theta, phi), direct, rel_tol=1e-12
    )


# -- construction -------------------------------------------------------------------


def test_from_spec_dict_and_json():
    s1 = PolarSurface.from_spec({"family": "sectoral", "n": 3, "eps": 0.2})
    assert s1.family == "sectoral" and s1.params == {"n": 3, "eps": 0.2}
    s2 = PolarSurface.from_spec('{"family": "zonal", "l": 2, "eps": 0.3}')
    assert s2.family == "zonal"
    with pytest.raises(ValueError):
        PolarSurface.from_spec({"family": "nope"})


def test_constructor_validation():
    with pytest.raises(ValueError):
        PolarSurface.sectoral(0, 0.1)
    with pytest.raises(ValueError):
        PolarSurface.tesseral(2, 3, 0.1)
    with pytest.raises(ValueError):
        PolarSurface.rotated_sectoral(2, 0.1, (1, 0, 0))


def test_deformation_keeps_radius_positive():
    # max |P_4^3| is about 34.1, so eps = 0.15 would reach r = -4.1
    for build in (
        lambda: PolarSurface.tesseral(4, 3, 0.15),
        lambda: PolarSurface.sectoral(3, 1.0),
        lambda: PolarSurface.rotated_sectoral(2, -1.0),
        lambda: PolarSurface.zonal(2, 1.5),
    ):
        with pytest.raises(ValueError):
            build()
    PolarSurface.tesseral(2, 1, 0.2)
    PolarSurface.tesseral(3, 2, 0.15)  # 0.15 * 10/sqrt(3) = 0.866


@pytest.mark.parametrize("l,m", [(1, 1), (2, 1), (3, 2), (4, 3), (4, 4), (7, 2)])
def test_assoc_legendre_max(l, m):
    grid = max(abs(assoc_legendre(l, m, x)) for x in np.linspace(-1.0, 1.0, 20001))
    top = assoc_legendre_max(l, m)
    assert grid <= top * (1 + 1e-12)
    assert math.isclose(top, grid, rel_tol=1e-6)
    if m == l:  # P_l^l = (2l-1)!! (1-x^2)^(l/2), largest on the equator
        assert math.isclose(top, math.prod(range(1, 2 * l, 2)), rel_tol=1e-12)


def test_kernel_names_read_by_benchmark():
    """The benchmark reports ``kernels.BACKEND`` and times
    ``kernels.sectoral_rhs`` on its own; it must stay the surface RHS."""
    assert kernels.BACKEND == "python"
    for n, eps in [(2, 0.1), (3, 0.2), (5, 0.3)]:
        surf = PolarSurface.sectoral(n, eps)
        for y in [(1.2, 0.4, 0.3, 0.6), (0.3, 5.1, -0.7, 0.2), (2.9, 2.0, 0.1, -1.1)]:
            assert kernels.sectoral_rhs(n, eps, *y) == surf.rhs(0.0, y)


def test_custom_surface():
    surf = PolarSurface.custom(lambda t, p: (1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    g = surf.metric_at(1.0, 0.0)
    assert math.isclose(g.det, math.sin(1.0) ** 2, rel_tol=1e-15)
