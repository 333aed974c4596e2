"""Surface families: Legendre functions, metric data, Christoffel symbols."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs
from scipy.special import lpmv

from harmgeo import kernels
from harmgeo.geodesic import POLE_GUARD, R_SWAP, chart_to_body, integrate
from harmgeo.surface import (
    IDENTITY_ROT,
    PoleError,
    PolarSurface,
    assoc_legendre,
    assoc_legendre_max,
    check_rotation,
    legendre_q,
)

# chart -> body matrices: the axis charts with poles -y and x that integrate
# swaps in, and a generic one
R_QUARTER = (1.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0)
R_AXIS_X = (0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0)
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


class _HyperDual:
    """a + b*e1 + c*e2 + d*e1*e2 with e1^2 = e2^2 = 0: seeding e1 and e2
    along two directions, f's e1*e2 part is the second derivative of f
    along them, exact up to rounding (Griewank & Walther, Evaluating
    Derivatives, 2nd ed., SIAM 2008, ch. 3)."""

    def __init__(self, a, b=0.0, c=0.0, d=0.0):
        self.a, self.b, self.c, self.d = a, b, c, d

    @staticmethod
    def lift(x):
        return x if isinstance(x, _HyperDual) else _HyperDual(float(x))

    def apply(self, f, f1, f2):
        """f of self, f1 and f2 the first and second derivatives of f at a."""
        return _HyperDual(f, f1 * self.b, f1 * self.c, f1 * self.d + f2 * self.b * self.c)

    def __add__(self, other):
        o = self.lift(other)
        return _HyperDual(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    __radd__ = __add__

    def __neg__(self):
        return _HyperDual(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other):
        return self + -self.lift(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self.lift(other)
        return _HyperDual(
            self.a * o.a,
            self.a * o.b + self.b * o.a,
            self.a * o.c + self.c * o.a,
            self.a * o.d + self.b * o.c + self.c * o.b + self.d * o.a,
        )

    __rmul__ = __mul__

    def __pow__(self, k):
        assert isinstance(k, int) and k >= 1
        a = self.a
        return self.apply(a**k, k * a ** (k - 1), k * (k - 1) * a ** (k - 2) if k > 1 else 0.0)


def _hd_sin(x):
    return x.apply(math.sin(x.a), math.cos(x.a), -math.sin(x.a))


def _hd_cos(x):
    return x.apply(math.cos(x.a), -math.sin(x.a), -math.cos(x.a))


def _hyperdual_partials(surface):
    """The surface's partials kernel, its structure's ``make`` source
    re-executed with sin and cos taking hyper-dual numbers and bound to the
    surface's numbers as ``kernels.chart_kernel`` binds them.  The source
    comes from the generated module's loader, as linecache reads it."""
    module = surface._partials.__globals__
    filename = surface._partials.__code__.co_filename
    source = module["__loader__"].get_source(module["__name__"])
    namespace = {"sin": _hd_sin, "cos": _hd_cos}
    exec(compile(source, filename, "exec"), namespace)
    eps, q = surface.params["eps"], surface.q
    if surface.rot is None and len(q) == 1:
        return namespace["make"](eps * q[0])[0]
    return namespace["make"](eps, q, surface.rot or kernels._BODY_CHART)[0]


DUAL_SURFACES = [
    PolarSurface.sectoral(3, 0.2),
    PolarSurface.sectoral(7, 0.1),
    PolarSurface.tesseral(3, 1, 0.15),
    PolarSurface.tesseral(4, 2, 0.05),
    PolarSurface.zonal(3, 0.3),
]
DUAL_IDS = ["sectoral3", "sectoral7", "tesseral31", "tesseral42", "zonal3"]


@pytest.mark.parametrize("body", DUAL_SURFACES, ids=DUAL_IDS)
@pytest.mark.parametrize("rot", [None, R_SWAP], ids=["body", "swap"])
def test_partials_are_derivatives_to_rounding(body, rot):
    """r_t .. r_pp are the derivatives of the kernel's own r, to a relative
    1e-13, taken by hyper-dual numbers through the kernel text: theta seeded
    in both directions gives r_t and r_tt, phi in both r_p and r_pp, and
    theta in one and phi in the other r_tp.  A partial near a zero of its
    own is held to 1e-13 of the largest of the five."""
    surf = body if rot is None else body.in_chart(rot)
    partials = _hyperdual_partials(surf)
    for theta, phi in [(0.7, 0.3), (1.4, 2.1), (2.2, 4.0), (math.pi / 2, 0.0),
                       (1e-3, 0.8), (math.pi - 2e-4, 5.2)]:
        t, p = _HyperDual(theta, 1.0, 1.0), _HyperDual(phi)
        r_t = partials(t, p)[0]
        t, p = _HyperDual(theta), _HyperDual(phi, 1.0, 1.0)
        r_p = partials(t, p)[0]
        t, p = _HyperDual(theta, 1.0), _HyperDual(phi, 0.0, 1.0)
        r_tp = partials(t, p)[0]
        dual = (r_t.b, r_p.b, r_t.d, r_tp.d, r_p.d)
        got = surf.partials(theta, phi)
        assert r_t.a == r_p.a == r_tp.a == got[0]
        floor = 1e-13 * max(map(abs, got[1:]))
        for k, (x, y) in enumerate(zip(got[1:], dual)):
            assert math.isclose(x, y, rel_tol=1e-13, abs_tol=floor), (k, theta, phi, x, y)


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


def _numpy_rotation_verdict(rot) -> bool:
    """The rotation check as NumPy computes it: max |M M^T - I| <= 1e-12
    and det M > 0."""
    mat = np.reshape(np.asarray(rot, dtype=float), (3, 3))
    return bool(np.max(np.abs(mat @ mat.T - np.eye(3))) <= 1e-12 and np.linalg.det(mat) > 0)


def test_rotation_check_agrees_with_numpy():
    """check_rotation runs on floats; on the charts in use, on rotations
    scaled past the tolerance (and one within it) and on reflections it
    gives NumPy's verdict, and it returns the matrix's nine floats."""
    swap = np.asarray(R_SWAP)
    generic = np.reshape(R_GENERIC, (3, 3))
    reflect = np.diag([1.0, 1.0, -1.0])
    cases = [np.eye(3), swap, swap @ swap, swap @ swap @ swap, swap.T, generic, generic @ swap]
    cases += [m * scale for m in (np.eye(3), generic) for scale in (1 + 1e-13, 1 + 1e-11, 1 + 1e-9)]
    cases += [reflect, generic @ reflect, -np.eye(3)]
    verdicts = []
    for mat in cases:
        accepted = _numpy_rotation_verdict(mat)
        verdicts.append(accepted)
        if accepted:
            assert check_rotation(mat) == tuple(np.ravel(mat).tolist())
        else:
            with pytest.raises(ValueError, match="rotation"):
                check_rotation(mat)
    assert verdicts.count(True) == 9 and verdicts.count(False) == 7


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


def _christoffels_at(surf, theta, phi):
    """The kernel's symbols keyed 'ttt', 'ttp', 'tpp', 'ptt', 'ptp', 'ppp'
    (upper index first)."""
    out = kernels.christoffel(theta, *surf.partials(theta, phi))
    return dict(zip(("ttt", "ttp", "tpp", "ptt", "ptp", "ppp"), out[4:]))


def test_metric_at_pole_raises():
    surf = PolarSurface.sectoral(2, 0.1)
    with pytest.raises(PoleError):
        surf.metric_at(0.0, 0.3)
    with pytest.raises(PoleError):
        surf.hamiltonian2(math.pi, 0.3, 1.0, 0.0)


def test_sphere_metric_and_symbols():
    sphere = PolarSurface.sectoral(2, 0.0)
    theta = 1.0
    g = sphere.metric_at(theta, 0.4)
    assert math.isclose(g.g_tt, 1.0, rel_tol=1e-15)
    assert math.isclose(g.g_pp, math.sin(theta) ** 2, rel_tol=1e-15)
    assert g.g_tp == 0.0
    ch = _christoffels_at(sphere, theta, 0.4)
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


# the RHS and chart cases: sectoral in the body chart and in the axis charts
# a pole swap moves to, zonal and tesseral ones, and points within 10% of
# POLE_GUARD, where integrate swaps charts, and of 0.05, which reach closer
# to the poles
R_SWAP9 = tuple(x for row in R_SWAP for x in row)
RHS_SURFACES = [
    PolarSurface.sectoral(3, 0.3),
    PolarSurface.sectoral(1, 0.3),
    PolarSurface.sectoral(3, 0.3).in_chart(R_SWAP9),
    PolarSurface.sectoral(3, 0.3).in_chart(R_AXIS_X),
    PolarSurface.zonal(3, 0.3),
    PolarSurface.zonal(2, 0.3).in_chart(R_SWAP9),
    PolarSurface.tesseral(4, 2, 0.05),
    PolarSurface.tesseral(3, 1, 0.1).in_chart(R_GENERIC),
]
RHS_IDS = ["sectoral3", "sectoral1", "sectoral3-swap", "sectoral3-x", "zonal3", "zonal2-swap",
           "tesseral42", "tesseral31-generic"]


def _rhs_states(seed, count=400):
    rng = np.random.default_rng(seed)
    guard = [POLE_GUARD * 0.9, POLE_GUARD, POLE_GUARD * 1.1, 0.045, 0.05, 0.055]
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
    for theta, phi, _, _ in [*_rhs_states(3, count=60), *_SPECIAL_STATES]:
        assert chart.partials(theta, phi) == _partials_from_rot(
            surf.m, surf.q, eps, chart.rot, theta, phi
        )


# -- generated kernels against their formulas, term by term -------------------------


def _sectoral_partials_ref(n, eps, theta, phi):
    """Reference: the body-chart sectoral partials, each term as written."""
    st = math.sin(theta)
    ct = math.cos(theta)
    cn = math.cos(n * phi)
    sn = math.sin(n * phi)
    sn1 = st ** (n - 1)
    snn = sn1 * st
    r = 1.0 + eps * snn * cn
    rt = eps * n * sn1 * ct * cn
    rp = -eps * n * snn * sn
    rtt = eps * n * cn * ((n - 1) * (st ** (n - 2) if n >= 2 else 0.0) * ct * ct - sn1 * st)
    rtp = -eps * n * n * sn1 * ct * sn
    rpp = -eps * n * n * snn * cn
    return r, rt, rp, rtt, rtp, rpp


def _rhs_from_partials_ref(theta, td, pd, parts):
    """Reference: the first-kind contraction and 2x2 solve, as written."""
    r, rt, rp, rtt, rtp, rpp = parts
    st = math.sin(theta)
    ct = math.cos(theta)
    rs = r * st
    tt = td * td
    tp = 2.0 * td * pd
    pp = pd * pd
    a_n = (rtt - r) * tt + rtp * tp + (rpp - rs * st) * pp
    a_t = 2.0 * rt * tt + rp * tp - rs * ct * pp
    a_p = (rt * st + r * ct) * tp + 2.0 * rp * st * pp
    b_t = rt * a_n + r * a_t
    b_p = rp * a_n + rs * a_p
    g11 = rt * rt + r * r
    g12 = rt * rp
    g22 = rp * rp + rs * rs
    det = g11 * g22 - g12 * g12
    return td, pd, (g12 * b_p - g22 * b_t) / det, (g12 * b_t - g11 * b_p) / det


def _curvature_ref(theta, r, rt, rp, rtt, rtp, rpp):
    st = math.sin(theta)
    ct = math.cos(theta)
    st2 = st * st
    L = st * (r * rtt - r * r - 2.0 * rt * rt)
    M = st * (r * rtp - 2.0 * rt * rp) - ct * r * rp
    N = st * (r * rpp - r * r * st2 + r * rt * st * ct - 2.0 * rp * rp)
    D = r * r * (r * r * st2 + rt * rt * st2 + rp * rp)
    return r * r * (L * N - M * M) / (D * D)


def _jacobi_rhs_ref(partials, y):
    """Reference: the geodesic followed by w'' = -K*2H*w of j normal parts."""
    theta, phi, td, pd, *w = y
    parts = partials(theta, phi)
    r, rt, rp = parts[:3]
    h2 = (rt * td + rp * pd) ** 2 + r * r * (td * td + (math.sin(theta) * pd) ** 2)
    k = -_curvature_ref(theta, *parts) * h2
    j = len(w) // 2
    return [*_rhs_from_partials_ref(theta, td, pd, parts), *w[j:], *(k * x for x in w[:j])]


def _hexes(f, *args):
    """f's result as its type and the float.hex of each component, or the
    name of the arithmetic error it raised."""
    try:
        out = f(*args)
    except ArithmeticError as exc:
        return type(exc).__name__
    return type(out).__name__, [float(x).hex() for x in out]


# m = 1 and m >= 2, constant and polynomial Q, and m = 0 (zonal)
KERNEL_SPECS = (
    [("sectoral", n, 0.3) for n in range(1, 13)]
    + [("zonal", l, 0.3) for l in range(1, 7)]
    + [("tesseral", (l, m), 0.5 / assoc_legendre_max(l, m)) for l, m in [(2, 1), (3, 1), (4, 2), (3, 3)]]
)
KERNEL_IDS = [f"{f}{a}" if f != "tesseral" else f"{f}{a[0]}-{a[1]}" for f, a, _ in KERNEL_SPECS]
_near_pole = hs.floats(-1e-3, 1e-3) | hs.floats(math.pi - 1e-3, math.pi + 1e-3)


def _swap_power(k):
    """R_SWAP^k as numpy composes it, one factor at a time: the charts that
    repeated quarter turns reach, their zeros signed as numpy signs them."""
    mat = None
    for _ in range(k):
        mat = (np.eye(3) if mat is None else mat) @ np.asarray(R_SWAP)
    return tuple(np.ravel(mat).tolist())


# the half turn about x with its zeros signed both ways: a chart pattern
# tells +0.0 from -0.0
R_SIGNED_ZEROS = (1.0, -0.0, 0.0, 0.0, -1.0, -0.0, -0.0, 0.0, -1.0)
KERNEL_CHARTS = [None, R_SWAP9, R_AXIS_X, _swap_power(2), _swap_power(3), _swap_power(4),
                 R_SIGNED_ZEROS, R_GENERIC]
KERNEL_CHART_IDS = ["body", "swap", "x-axis", "swap2", "swap3", "swap4", "signed-zeros",
                    "generic"]
_ZERO_STATES = [(t, p, a, b) for t in (0.0, -0.0) for p in (0.0, -0.0)
                for a in (0.0, -0.0) for b in (0.0, -0.0)]
# theta at the poles and at the double nearest pi/2, where cos(theta) is
# 6.1e-17 and not 0.0, and phi at signed zeros and the least subnormal
_SPECIAL_STATES = [(t, p, 0.3, -0.7) for t in (0.0, -0.0, math.pi, math.pi / 2)
                   for p in (0.0, -0.0, 5e-324)]


# pi to 64 significant digits: with it, (k + 1/2) pi for k < 2^61 lies
# strictly between two known doubles
_PI_64 = 3141592653589793238462643383279502884197169399375105820974944592
_PI_SCALE = 10**63


def _doubles_around_odd_half_pi(k):
    """The doubles just below and just above (k + 1/2) pi, found exactly:
    int / int division rounds correctly."""
    num, den = (2 * k + 1) * _PI_64, 2 * _PI_SCALE
    x = num / den
    a, b = x.as_integer_ratio()
    if a * den > num * b:
        return math.nextafter(x, 0.0), x
    return x, math.nextafter(x, math.inf)


def test_cos_of_a_double_is_never_zero():
    """cos vanishes only at (k + 1/2) pi, which no double equals, so cos of a
    finite double is never +-0.0: the chart form's text declares ct and cp
    nonzero and drops the exact zeros added to them.  Checked on both
    neighbours of (k + 1/2) pi for k up to 1e5 and for k = 2^j, j <= 60."""
    for k in [*range(10**5 + 1), *(2**j for j in range(61))]:
        for x in _doubles_around_odd_half_pi(k):
            assert math.cos(x) != 0.0 and math.cos(-x) != 0.0, (k, x)


def _zero_examples(test):
    """Hypothesis examples at every exact zero state, signs of zero mixed,
    and at the special angles above."""
    for theta, phi, td, pd in _ZERO_STATES + _SPECIAL_STATES:
        test = example(theta=theta, phi=phi, td=td, pd=pd, w=[1.0, -0.0, 0.0, -1.0])(test)
    return test


@pytest.mark.parametrize("rot", KERNEL_CHARTS, ids=KERNEL_CHART_IDS)
@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=KERNEL_IDS)
@settings(max_examples=25, deadline=None)
@given(
    theta=hs.floats(-4.0, 7.0) | _near_pole,
    phi=hs.floats(-7.0, 7.0),
    td=hs.floats(-10.0, 10.0),
    pd=hs.floats(-10.0, 10.0),
    w=hs.lists(hs.floats(-2.0, 2.0), min_size=4, max_size=4),
)
@_zero_examples
def test_generated_kernels_are_the_formulas_bit_for_bit(spec, rot, theta, phi, td, pd, w):
    """Every generated kernel (a chart's partials, rhs and jacobi_rhs for
    j = 1 and 2 normal parts, ``sectoral_rhs`` and ``curvature``) equals its
    formulas evaluated term by term, bit for bit, at the chart poles and at
    signed zeros too: the chart form's real arithmetic is CPython's complex
    arithmetic, in every chart pattern integrate reaches.  A constant Q in
    the body chart takes the sectoral form; its chart form is checked in the
    identity chart."""
    family, arg, eps = spec
    if family == "tesseral":
        surf = PolarSurface.tesseral(*arg, eps)
    else:
        surf = getattr(PolarSurface, family)(arg, eps)
    m, q, eps = surf.m, surf.q, surf.params["eps"]
    if rot is not None:
        surf = surf.in_chart(rot)
    if rot is None and len(q) == 1:
        def partials(th, ph):
            return _sectoral_partials_ref(m, eps * q[0], th, ph)

        assert _hexes(kernels.sectoral_rhs, m, eps, theta, phi, td, pd) == _hexes(
            _rhs_from_partials_ref, theta, td, pd, _sectoral_partials_ref(m, eps, theta, phi)
        )
        assert _hexes(surf.in_chart(IDENTITY_ROT).partials, theta, phi) == _hexes(
            _partials_from_rot, m, q, eps, IDENTITY_ROT, theta, phi
        )
    else:
        def partials(th, ph):
            return _partials_from_rot(m, q, eps, surf.rot or IDENTITY_ROT, th, ph)

    parts = partials(theta, phi)
    assert _hexes(surf.partials, theta, phi) == _hexes(partials, theta, phi)
    assert _hexes(lambda: [kernels.curvature(theta, *parts)]) == _hexes(
        lambda: [_curvature_ref(theta, *parts)]
    )
    y = [theta, phi, td, pd]
    assert _hexes(surf.rhs, 0.0, y) == _hexes(_rhs_from_partials_ref, theta, td, pd, parts)
    for j in (1, 2):
        yj = [*y, *w[:j], *w[2:2 + j]]
        assert _hexes(surf.jacobi_rhs, 0.0, yj) == _hexes(_jacobi_rhs_ref, partials, yj)


def _reference_rhs(surf, s, y):
    """PolarSurface.rhs from the test's references: the sectoral form in the
    body chart, else the complex chart form."""
    theta, phi, td, pd = y
    eps = surf.params["eps"]
    if surf.rot is None and len(surf.q) == 1:
        parts = _sectoral_partials_ref(surf.m, eps * surf.q[0], theta, phi)
    else:
        parts = _partials_from_rot(surf.m, surf.q, eps, surf.rot or IDENTITY_ROT, theta, phi)
    return _rhs_from_partials_ref(theta, td, pd, parts)


@pytest.mark.parametrize(
    "surf, y0, swaps",
    [
        (PolarSurface.zonal(2, 0.3), [1.1, 0.0, 0.25, 0.7], 0),
        (PolarSurface.tesseral(2, 1, 0.2), [1.1, 0.3, 0.25, 0.7], 0),
        (PolarSurface.sectoral(3, 0.2), [math.pi / 2, 0.0, -1.0, 0.0], 1),
    ],
    ids=["zonal2", "tesseral21", "sectoral3-meridian"],
)
def test_trajectories_are_the_complex_reference_bit_for_bit(surf, y0, swaps, monkeypatch):
    """Integrated with its kernels or with the complex reference formulas, a
    geodesic gives the same samples, 2H and crossings bit for bit, the
    meridian through its chart swap included."""
    def run():
        return integrate(surf, y0, 30.0, n_samples=61)

    ours = run()
    calls = []

    def reference(self, s, y):
        calls.append(s)
        return _reference_rhs(self, s, y)

    monkeypatch.setattr(PolarSurface, "rhs", reference)
    ref = run()
    assert len(calls) == ref.nfev == ours.nfev
    assert len(ours.crossings) >= 3
    assert ours.chart_swaps == ref.chart_swaps == swaps
    for field in ("states", "h2", "crossings"):
        got, want = getattr(ours, field), getattr(ref, field)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), field


def test_surfaces_pickle():
    """A surface pickles as its constructor's arguments; the copy rebuilds
    its chart kernels."""
    surf = PolarSurface.rotated_sectoral(3, 0.2, R_GENERIC)
    copy = pickle.loads(pickle.dumps(surf))
    assert (copy.family, copy.params, copy.rot) == (surf.family, surf.params, surf.rot)
    y = [1.2, 0.4, 0.3, 0.6]
    assert copy.rhs(0.0, y) == surf.rhs(0.0, y)


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


@pytest.mark.parametrize(
    "l,m", [(1, 1), (2, 1), (3, 2), (4, 3), (4, 4), (7, 2), (10, 3), (15, 1), (20, 7)]
)
def test_assoc_legendre_max(l, m):
    xs = np.linspace(-1.0, 1.0, 20001)
    values = [abs(assoc_legendre(l, m, x)) for x in xs]
    # then a grid 100 times finer about the best point, where a large l
    # varies too fast for the first
    x0 = xs[int(np.argmax(values))]
    fine = np.clip(np.linspace(x0 - 1e-4, x0 + 1e-4, 2001), -1.0, 1.0)
    grid = max(max(values), *(abs(assoc_legendre(l, m, x)) for x in fine))
    top = assoc_legendre_max(l, m)
    assert grid <= top * (1 + 1e-12)
    assert math.isclose(top, grid, rel_tol=1e-6)
    if m == l:  # P_l^l = (2l-1)!! (1-x^2)^(l/2), largest on the equator
        assert math.isclose(top, math.prod(range(1, 2 * l, 2)), rel_tol=1e-12)


def _assoc_legendre_max_exact(l, m):
    """assoc_legendre_max with every bisection sign decided exactly, by
    evaluating the square-free critical polynomial at the Fraction of each
    float: the reference for the float-Horner signs."""
    from fractions import Fraction

    from harmgeo.algebra import Poly
    from harmgeo.surface import _legendre_q_exact

    q = Poly(_legendre_q_exact(l, m))
    x = Poly([0, 1])
    crit = (-m * x * q + (1 - x * x) * q.derivative()).squarefree()
    top = 0.0
    for lo, hi in crit.real_roots(-1, 1):
        at_hi = crit(hi)
        a, b = float(hi if at_hi == 0 else lo), float(hi)
        while b - a > 2**-52:
            mid = 0.5 * (a + b)
            if (crit(Fraction(mid)) > 0) == (at_hi > 0):
                b = mid
            else:
                a = mid
        top = max(top, abs(assoc_legendre(l, m, b)))
    return top


@pytest.mark.parametrize(
    "l, m",
    [(l, m) for l in range(1, 13) for m in range(1, l + 1)] + [(30, 1), (30, 15), (30, 30)],
)
def test_assoc_legendre_max_float_signs_are_exact(l, m):
    """Signs read from float Horner under its rounding bound, exact only
    where the bound straddles zero, are the exact signs: the same float."""
    assert assoc_legendre_max(l, m) == _assoc_legendre_max_exact(l, m)


def test_kernel_names_read_by_benchmark():
    """The benchmark reports ``kernels.BACKEND`` and times
    ``kernels.sectoral_rhs`` on its own; it must stay the surface RHS."""
    assert kernels.BACKEND == "python"
    for n, eps in [(1, 0.2), (2, 0.1), (3, 0.2), (3, -0.3), (5, 0.3)]:
        surf = PolarSurface.sectoral(n, eps)
        for y in [(1.2, 0.4, 0.3, 0.6), (0.3, 5.1, -0.7, 0.2), (2.9, 2.0, 0.1, -1.1)]:
            assert kernels.sectoral_rhs(n, eps, *y) == surf.rhs(0.0, y)
