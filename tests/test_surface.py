"""Surface families: Legendre functions, metric data, Christoffel symbols."""

import math

import numpy as np
import pytest
from scipy.special import lpmv

from harmgeo import kernels
from harmgeo.geodesic import POLE_GUARD, R_SWAP, chart_to_body
from harmgeo.surface import (
    PoleError,
    PolarSurface,
    assoc_legendre,
    assoc_legendre_max,
    legendre_q,
)

# chart -> body matrices: the quarter turn integrate swaps in, and a generic one
R_QUARTER = (1.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0)
_a, _b = 0.7, 1.9
R_GENERIC = tuple(
    (
        np.array([[math.cos(_a), -math.sin(_a), 0], [math.sin(_a), math.cos(_a), 0], [0, 0, 1]])
        @ np.array([[1, 0, 0], [0, math.cos(_b), -math.sin(_b)], [0, math.sin(_b), math.cos(_b)]])
    ).reshape(9)
)


# -- associated Legendre functions ----------------------------------------------


@pytest.mark.parametrize("l,m", [(1, 0), (2, 0), (2, 1), (2, 2), (5, 3), (8, 8)])
def test_assoc_legendre_against_scipy(l, m):
    # scipy's lpmv includes the Condon-Shortley phase (-1)^m; ours does not
    for x in np.linspace(-0.95, 0.95, 13):
        ours = assoc_legendre(l, m, x)
        ref = (-1) ** m * lpmv(m, l, x)
        assert math.isclose(ours, ref, rel_tol=1e-12, abs_tol=1e-12)


def test_assoc_legendre_rejects_bad_arguments():
    with pytest.raises(ValueError):
        assoc_legendre(1, 2, 0.5)
    with pytest.raises(ValueError):
        legendre_q(1, 2)


@pytest.mark.parametrize("l,m", [(1, 0), (4, 0), (2, 1), (3, 2), (5, 3), (6, 6)])
def test_cartesian_form_is_assoc_legendre(l, m):
    """(1-x^2)^(m/2) Q(x) = P_l^m(x), so r = 1 + eps*Re((x+iy)^m)*Q(z) is
    1 + eps*P_l^m(cos(theta))*cos(m*phi), the poles included."""
    q = legendre_q(l, m)
    for x in np.linspace(-1.0, 1.0, 21):
        ours = (1.0 - x * x) ** (m / 2) * sum(c * x**k for k, c in enumerate(q))
        assert math.isclose(ours, assoc_legendre(l, m, x), rel_tol=1e-12, abs_tol=1e-12)
    eps = 0.5 / assoc_legendre_max(l, m) if m else 0.5
    surf = PolarSurface.tesseral(l, m, eps) if m else PolarSurface.zonal(l, eps)
    for theta, phi in [(0.0, 0.3), (0.4, 1.0), (1.9, 5.5), (math.pi, 2.0)]:
        expected = 1.0 + eps * assoc_legendre(l, m, math.cos(theta)) * math.cos(m * phi)
        assert math.isclose(surf.radius(theta, phi), expected, rel_tol=1e-14)


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
        PolarSurface.zonal(3, 0.3).in_chart(R_QUARTER),
        PolarSurface.tesseral(2, 1, 0.2).in_chart(R_GENERIC),
        PolarSurface.tesseral(4, 2, 0.05).in_chart(R_QUARTER),
    ],
    ids=["sectoral", "zonal", "tesseral", "rotated", "zonal-chart",
         "tesseral-chart", "tesseral42-chart"],
)
def test_partials_match_finite_differences(surface):
    # the last four points sit within 1e-3 of the chart poles
    for theta, phi in [(0.7, 0.3), (1.4, 2.1), (2.2, 4.0),
                       (1e-3, 0.8), (5e-4, 3.9), (math.pi - 1e-3, 2.5),
                       (math.pi - 2e-4, 5.2)]:
        _check_partials(surface, theta, phi)


CURVATURE_POINTS = [(0.7, 0.3), (1.4, 2.1), (2.2, 4.0), (1e-3, 0.8), (math.pi - 5e-4, 5.2)]
CURVATURE_BODIES = [
    PolarSurface.sectoral(3, 0.2),
    PolarSurface.sectoral(1, 0.3),
    PolarSurface.zonal(2, 0.3),
    PolarSurface.tesseral(3, 2, 0.15),
    PolarSurface.tesseral(2, 1, 0.2),
]
CURVATURE_IDS = ["sectoral3", "sectoral1", "zonal", "tesseral32", "tesseral21"]


@pytest.mark.parametrize("body", CURVATURE_BODIES, ids=CURVATURE_IDS)
@pytest.mark.parametrize(
    "rot", [None, R_QUARTER, R_GENERIC], ids=["body", "quarter", "generic"]
)
def test_curvature_matches_differenced_riemann_tensor(body, rot):
    """K g_phiphi is R^theta_phi theta phi, built from the Christoffel symbols
    and their central differences, also within 1e-3 of the chart poles
    (where g_phiphi ~ 1e-6, so K itself is compared across charts below)."""
    surf = body if rot is None else body.in_chart(rot)
    h = 1e-5

    def gamma(theta, phi):
        return np.array(kernels.christoffel(theta, *surf.partials(theta, phi))[4:])

    for theta, phi in CURVATURE_POINTS:
        ttt, ttp, tpp, _, ptp, ppp = gamma(theta, phi)
        d_t = (gamma(theta + h, phi) - gamma(theta - h, phi)) / (2 * h)
        d_p = (gamma(theta, phi + h) - gamma(theta, phi - h)) / (2 * h)
        riemann = d_t[2] - d_p[1] + ttt * tpp + ttp * ppp - ttp * ttp - tpp * ptp
        g_pp = kernels.christoffel(theta, *surf.partials(theta, phi))[2]
        k = kernels.curvature(theta, *surf.partials(theta, phi))
        assert math.isclose(k * g_pp, riemann, rel_tol=1e-6, abs_tol=1e-9)


@pytest.mark.parametrize("body", CURVATURE_BODIES, ids=CURVATURE_IDS)
@pytest.mark.parametrize("rot", [R_QUARTER, R_GENERIC], ids=["quarter", "generic"])
def test_curvature_is_the_same_in_every_chart(body, rot):
    """K is a scalar: a chart point and its body point give the same K, the
    points next to the chart poles included."""
    surf = body.in_chart(rot)
    for theta, phi in CURVATURE_POINTS:
        y_b = chart_to_body([theta, phi, 0.0, 0.0], np.reshape(rot, (3, 3)))
        k_chart = kernels.curvature(theta, *surf.partials(theta, phi))
        k_body = kernels.curvature(y_b[0], *body.partials(y_b[0], y_b[1]))
        assert math.isclose(k_chart, k_body, rel_tol=1e-12, abs_tol=1e-12)


def test_sphere_curvature_is_one():
    sphere = PolarSurface.sectoral(2, 0.0)
    for rot in (None, R_QUARTER, R_GENERIC):
        surf = sphere if rot is None else sphere.in_chart(rot)
        for theta, phi in CURVATURE_POINTS:
            assert abs(kernels.curvature(theta, *surf.partials(theta, phi)) - 1.0) <= 1e-14


def test_chart_matrix_must_be_a_rotation():
    """A scaled chart matrix would build another surface (its radius reaches
    -0.6 here), a singular or NaN one no chart at all, and a reflection
    flips the orientation; the charts in use all build."""
    for rot in (
        [2, 0, 0, 0, 2, 0, 0, 0, 2],
        [1, 0, 0, 0, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, -1, 0, 0, 0, 1],
        [math.nan] * 9,
    ):
        with pytest.raises(ValueError, match="rotation"):
            PolarSurface.from_spec({"family": "rotated", "n": 3, "eps": 0.2, "rot": rot})
        with pytest.raises(ValueError, match="rotation"):
            PolarSurface.zonal(2, 0.3).in_chart(rot)
    swap = np.asarray(R_SWAP)
    for rot in (
        np.eye(3), swap, swap @ swap, swap @ swap @ swap, swap.T,
        np.reshape(R_GENERIC, (3, 3)) @ swap, R_QUARTER, R_GENERIC,
    ):
        surf = PolarSurface.tesseral(3, 2, 0.15).in_chart(rot)
        assert surf.rot == tuple(np.ravel(rot).astype(float))


def test_sectoral_radius_formula():
    n, eps = 4, 0.2
    surf = PolarSurface.sectoral(n, eps)
    theta, phi = 1.0, 0.5
    expected = 1.0 + eps * math.sin(theta) ** n * math.cos(n * phi)
    assert math.isclose(surf.radius(theta, phi), expected, rel_tol=1e-15)


def test_rotated_chart_agrees_with_body_chart():
    """Every family in a rotated chart, evaluated at a chart state, gives the
    radius and the speed 2H of the body chart at the same state."""
    bodies = [
        PolarSurface.sectoral(3, 0.2),
        PolarSurface.zonal(2, 0.3),
        PolarSurface.tesseral(3, 2, 0.15),
    ]
    for body in bodies:
        for rot in (R_QUARTER, R_GENERIC):
            chart = body.in_chart(rot)
            assert chart.family == body.family and chart.rot == rot
            for y_c in [(1.1, 0.8, 0.3, -0.6), (0.2, 4.0, -0.9, 1.7), (2.7, 2.2, 0.5, 0.4)]:
                y_b = chart_to_body(y_c, np.reshape(rot, (3, 3)))
                assert math.isclose(
                    chart.radius(*y_c[:2]), body.radius(*y_b[:2]), rel_tol=1e-14
                )
                assert math.isclose(
                    chart.hamiltonian2(*y_c), body.hamiltonian2(*y_b), rel_tol=1e-12
                )
    # rotated_sectoral is the sectoral surface in a chart
    rotated = PolarSurface.rotated_sectoral(3, 0.2, R_GENERIC)
    assert rotated.partials(1.1, 0.8) == bodies[0].in_chart(R_GENERIC).partials(1.1, 0.8)


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


# the RHS and chart cases: sectoral in the body chart and in the chart a pole
# swap moves to, zonal and tesseral ones, and points where sin(theta) is
# within 10% of sin(POLE_GUARD), where integrate swaps charts
R_SWAP9 = tuple(x for row in R_SWAP for x in row)
RHS_SURFACES = [
    PolarSurface.sectoral(3, 0.3),
    PolarSurface.sectoral(1, 0.3),
    PolarSurface.sectoral(3, 0.3).in_chart(R_SWAP9),
    PolarSurface.zonal(3, 0.3),
    PolarSurface.zonal(2, 0.3).in_chart(R_SWAP9),
    PolarSurface.tesseral(4, 2, 0.05),
    PolarSurface.tesseral(3, 1, 0.1).in_chart(R_GENERIC),
]
RHS_IDS = ["sectoral3", "sectoral1", "sectoral3-swap", "zonal3", "zonal2-swap",
           "tesseral42", "tesseral31-generic"]


def _rhs_states(seed, count=400):
    rng = np.random.default_rng(seed)
    guard = [POLE_GUARD * 0.9, POLE_GUARD, POLE_GUARD * 1.1]
    thetas = [0.4, 1.2, math.pi / 2, 2.6] + guard + [math.pi - t for t in guard]
    for k in range(count):
        theta = thetas[k % len(thetas)]
        phi, td, pd = rng.uniform(-4.0, 4.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        yield theta, phi, td, pd / math.sin(theta)


@pytest.mark.parametrize("surf", RHS_SURFACES, ids=RHS_IDS)
def test_rhs_is_minus_christoffel_contraction(surf):
    """The first-kind contraction gives the second derivatives -Gamma(v, v)
    of the six symbols of :func:`kernels.christoffel`, to 1e-13 of the
    larger one."""
    for theta, phi, td, pd in _rhs_states(7):
        a0, a1, a2, b0, b1, b2 = kernels.christoffel(theta, *surf.partials(theta, phi))[4:]
        tdd = -(a0 * td * td + 2.0 * a1 * td * pd + a2 * pd * pd)
        pdd = -(b0 * td * td + 2.0 * b1 * td * pd + b2 * pd * pd)
        out = surf.rhs(0.0, (theta, phi, td, pd))
        assert out[:2] == (td, pd)
        scale = max(abs(tdd), abs(pdd))
        assert abs(out[2] - tdd) <= 1e-13 * scale and abs(out[3] - pdd) <= 1e-13 * scale


def _partials_from_rot(m, q, eps, rot, theta, phi):
    """Reference: the chart form with the chart constants built from the
    row-major matrix ``rot`` on every call, the arithmetic kept as it was."""
    st = math.sin(theta)
    ct = math.cos(theta)
    cp = math.cos(phi)
    sp = math.sin(phi)
    a = st * cp
    b = st * sp
    c = ct * cp
    d = ct * sp
    if m:
        wx = complex(rot[0], rot[3])
        wy = complex(rot[1], rot[4])
        wz = complex(rot[2], rot[5])
        w = wx * a + wy * b + wz * ct
        w_t = wx * c + wy * d - wz * st
        w_p = -wx * b + wy * a
        w_tp = -wx * d + wy * c
        w_pp = -wx * a - wy * b
        wm2 = w ** (m - 2) if m >= 2 else 0.0
        wm1 = wm2 * w if m >= 2 else 1.0
        W = (wm1 * w).real
        W_t = (m * wm1 * w_t).real
        W_p = (m * wm1 * w_p).real
        W_tt = (m * (m - 1) * wm2 * w_t * w_t - m * wm1 * w).real
        W_tp = (m * (m - 1) * wm2 * w_t * w_p + m * wm1 * w_tp).real
        W_pp = (m * (m - 1) * wm2 * w_p * w_p + m * wm1 * w_pp).real
    else:
        W, W_t, W_p, W_tt, W_tp, W_pp = 1.0, 0.0, 0.0, 0.0, 0.0, 0.0
    if len(q) == 1:
        e = eps * q[0]
        return 1.0 + e * W, e * W_t, e * W_p, e * W_tt, e * W_tp, e * W_pp
    z = rot[6] * a + rot[7] * b + rot[8] * ct
    z_t = rot[6] * c + rot[7] * d - rot[8] * st
    z_p = -rot[6] * b + rot[7] * a
    z_tp = -rot[6] * d + rot[7] * c
    z_pp = -rot[6] * a - rot[7] * b
    Q = Q1 = Q2 = 0.0
    for coef in reversed(q):
        Q2 = Q2 * z + Q1
        Q1 = Q1 * z + Q
        Q = Q * z + coef
    Q2 *= 2.0
    r = 1.0 + eps * (W * Q)
    rt = eps * (W_t * Q + W * Q1 * z_t)
    rp = eps * (W_p * Q + W * Q1 * z_p)
    rtt = eps * (W_tt * Q + 2.0 * W_t * Q1 * z_t + W * (Q2 * z_t * z_t - Q1 * z))
    rtp = eps * (
        W_tp * Q + W_t * Q1 * z_p + W_p * Q1 * z_t + W * (Q2 * z_t * z_p + Q1 * z_tp)
    )
    rpp = eps * (W_pp * Q + 2.0 * W_p * Q1 * z_p + W * (Q2 * z_p * z_p + Q1 * z_pp))
    return r, rt, rp, rtt, rtp, rpp


@pytest.mark.parametrize("surf", RHS_SURFACES, ids=RHS_IDS)
@pytest.mark.parametrize("rot", [R_SWAP9, R_QUARTER, R_GENERIC], ids=["swap", "quarter", "generic"])
def test_chart_constants_built_once_change_no_bit(surf, rot):
    """Chart coefficients built once per chart give the partials of the
    matrix form bit for bit."""
    chart = surf.in_chart(rot)
    eps = surf.params["eps"]
    for theta, phi, _, _ in _rhs_states(3, count=60):
        assert chart.partials(theta, phi) == _partials_from_rot(
            surf.m, surf.q, eps, chart.rot, theta, phi
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
