"""Geodesic integration, chart handling, and the exact positivity certificate."""

import math
from fractions import Fraction

import numpy as np
import pytest

from harmgeo import kernels
from harmgeo.geodesic import (
    R_SWAP,
    Trajectory,
    _chart_to_chart,
    _embed,
    chart_to_body,
    clairaut_values,
    integrate,
    lemma1_critical_eps,
    lemma1_equator_cubic,
    lemma1_poly,
    lemma1_value,
    normalize_speed,
    nve_dual_residual,
    sphere_closure_error,
)
from harmgeo.surface import PolarSurface


# -- integrator quality ------------------------------------------------------------


def test_sphere_great_circle_closes():
    assert sphere_closure_error() < 1e-10


def test_energy_is_conserved():
    surf = PolarSurface.sectoral(3, 0.2)
    traj = integrate(surf, [1.2, 0.3, 0.4, 0.5], 200.0, n_samples=200)
    assert np.max(np.abs(traj.h2 - 1.0)) < 1e-9
    assert traj.status == "completed"


def test_clairaut_invariant_on_zonal_surface():
    surf = PolarSurface.zonal(2, 0.3)
    y0 = normalize_speed(surf, [1.0, 0.0, 0.2, 0.8])
    traj = integrate(surf, y0, 100.0, n_samples=200)
    vals = clairaut_values(surf, traj)
    assert np.max(np.abs(vals - vals[0])) < 1e-10


@pytest.mark.parametrize(
    "y0", [[1.2, 0.4, 0.3, 0.6], [math.pi / 2, 0.0, -1.0, 0.0]], ids=["plain", "meridian"]
)
def test_each_sample_emitted_once(y0):
    # 201 samples over 100 units put one on the 50-unit chunk boundary, which
    # the plain geodesic reaches; the meridian swaps charts mid-chunk instead
    surf = PolarSurface.sectoral(3, 0.2)
    traj = integrate(surf, y0, 100.0, n_samples=201, rtol=1e-10, atol=1e-10)
    assert len(traj.s) == len(traj.states) == len(traj.h2) == 201
    assert np.all(np.diff(traj.s) > 0)
    assert traj.s[0] == 0.0 and traj.s[-1] == 100.0


def test_normalize_speed():
    surf = PolarSurface.sectoral(2, 0.1)
    y = normalize_speed(surf, [1.0, 0.5, 3.0, -2.0])
    assert math.isclose(surf.hamiltonian2(*y), 1.0, rel_tol=1e-14)
    with pytest.raises(ValueError):
        normalize_speed(surf, [1.0, 0.5, 0.0, 0.0])


# -- chart swaps at coordinate poles --------------------------------------------------


def test_chart_to_chart_round_trip():
    y = np.array([0.9, 2.0, 0.3, -0.7])
    there = _chart_to_chart(y, np.asarray(R_SWAP))
    back = _chart_to_chart(there, np.asarray(R_SWAP).T)
    assert np.allclose(back, y, atol=1e-13)
    assert np.allclose(chart_to_body(y, None), y)
    assert np.allclose(chart_to_body(there, np.asarray(R_SWAP)), y, atol=1e-13)


def test_meridian_passes_through_pole():
    """A meridian geodesic on a sectoral surface heads straight through the
    coordinate pole; integration must swap charts and keep going."""
    n, eps = 2, 0.1
    surf = PolarSurface.sectoral(n, eps)
    # start on the equator moving due north along a symmetry meridian
    y0 = normalize_speed(surf, [math.pi / 2, 0.0, -1.0, 0.0])
    traj = integrate(surf, y0, 10.0, n_samples=50)
    assert traj.chart_swaps >= 1
    assert traj.status == "completed"
    assert np.max(np.abs(traj.h2 - 1.0)) < 1e-9


def test_zonal_meridian_passes_through_pole():
    """Every family swaps charts at a pole: a zonal meridian stays in its
    plane through the pole, phi = 0 or pi in the body chart."""
    surf = PolarSurface.zonal(2, 0.1)
    y0 = normalize_speed(surf, [math.pi / 2, 0.0, -1.0, 0.0])
    traj = integrate(surf, y0, 30.0, n_samples=301)
    assert traj.status == "completed" and traj.chart_swaps >= 1
    assert np.max(np.abs(traj.h2 - 1.0)) <= 1e-9
    phi = traj.states[:, 1]
    assert np.max(np.abs(np.mod(phi + math.pi / 2, math.pi) - math.pi / 2)) <= 1e-9


@pytest.mark.parametrize("theta0, theta_dot", [(0.03, -1.0), (math.pi - 0.03, 1.0)])
def test_start_inside_pole_guard_swaps_first(theta0, theta_dot):
    """A start within POLE_GUARD of a pole, heading into it, is moved to a
    rotated chart before the first step and stays on the sphere."""
    surf = PolarSurface.zonal(2, 0.2)
    traj = integrate(surf, [theta0, 0.0, theta_dot, 0.0], 20.0, n_samples=201)
    assert traj.chart_swaps >= 1
    assert np.max(np.abs(traj.h2 - 1.0)) <= 1e-9
    theta = traj.states[:, 0]
    assert theta.min() >= 0.0 and theta.max() <= math.pi
    phi = traj.states[:, 1]
    assert np.max(np.abs(np.mod(phi + math.pi / 2, math.pi) - math.pi / 2)) <= 1e-9


def test_clairaut_invariant_across_chart_swaps():
    surf = PolarSurface.zonal(3, 0.3)
    y0 = normalize_speed(surf, [math.pi / 2, 0.3, -1.0, 0.01])
    traj = integrate(surf, y0, 30.0, n_samples=301)
    assert traj.chart_swaps >= 1
    vals = clairaut_values(surf, traj)
    assert np.max(np.abs(vals - vals[0])) <= 1e-9


def test_surface_in_rotated_chart_starts_there():
    """A surface built in a rotated chart takes its initial state in that
    chart and reports body-chart states, the same geodesic as in the body
    chart."""
    rot = np.asarray(R_SWAP)
    body = PolarSurface.tesseral(3, 1, 0.1)
    y0 = normalize_speed(body.in_chart(rot), [1.3, 0.4, 0.5, -0.3])
    in_chart = integrate(body.in_chart(rot), y0, 5.0, n_samples=6, renormalize=False)
    in_body = integrate(body, chart_to_body(y0, rot), 5.0, n_samples=6, renormalize=False)
    for yc, yb in zip(in_chart.states, in_body.states):
        assert np.allclose(_embed(yc)[0], _embed(yb)[0], atol=1e-9)


def test_meaningless_budgets_rejected():
    surf = PolarSurface.sectoral(3, 0.1)
    y0 = [math.pi / 2, 0.2, 0.5, 0.5]
    for kwargs in ({"n_crossings": 0}, {"n_crossings": -2}):
        with pytest.raises(ValueError, match="n_crossings"):
            integrate(surf, y0, 100.0, **kwargs)
    for s_max in (0.0, -5.0):
        with pytest.raises(ValueError, match="s_max"):
            integrate(surf, y0, s_max, n_samples=10)


# -- section events ---------------------------------------------------------------


def test_crossings_recorded_and_limited():
    surf = PolarSurface.sectoral(3, 0.1)
    y0 = normalize_speed(surf, [math.pi / 2, 0.2, 0.5, 0.5])
    traj = integrate(surf, y0, 500.0, n_crossings=5)
    assert len(traj.crossings) == 5
    assert traj.status == "crossings"
    # arc lengths strictly increase and start after the initial point
    s = traj.crossings[:, 0]
    assert s[0] > 1e-9 and np.all(np.diff(s) > 0)


def test_crossing_states_lie_on_energy_shell():
    n, eps = 3, 0.15
    surf = PolarSurface.sectoral(n, eps)
    y0 = normalize_speed(surf, [math.pi / 2, 0.2, 0.5, 0.5])
    traj = integrate(surf, y0, 300.0, n_crossings=8)
    for _, phi, phi_dot in traj.crossings:
        g = surf.metric_at(math.pi / 2, phi)
        # |phi_dot| on the section never exceeds the g_pp energy bound
        assert g.g_pp * phi_dot * phi_dot <= 1.0 + 1e-9


def test_trajectory_csv(tmp_path):
    surf = PolarSurface.sectoral(2, 0.1)
    traj = integrate(surf, [1.2, 0.0, 0.3, 0.6], 5.0, n_samples=10)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "s,theta,phi,theta_dot,phi_dot,h2"
    assert len(lines) == 11


# -- exact positivity certificate -------------------------------------------------


def test_lemma1_exponent_support():
    n = 4
    poly = lemma1_poly(n, Fraction(1, 5))
    assert set(poly) <= {0, n, 2 * n - 2, 2 * n, 3 * n - 2, 3 * n}
    assert poly[0](Fraction(1, 2)) == 1  # the round-sphere term is exactly 1


@pytest.mark.parametrize("n", [2, 3, 5])
def test_lemma1_value_matches_numeric_kernel(n):
    """f(u, c) = -Gamma^theta_phiphi * det / (r cos(theta) sin^3(theta))."""
    eps = Fraction(1, 4)
    u0, c0 = Fraction(3, 5), Fraction(1, 3)
    theta = math.asin(float(u0))
    phi = math.acos(float(c0)) / n
    out = kernels.christoffel(
        theta, *kernels.sectoral_partials(n, float(eps), theta, phi)
    )
    g_tt, g_tp, g_pp, det = out[:4]
    gamma_tpp = out[6]
    r = kernels.sectoral_partials(n, float(eps), theta, phi)[0]
    numeric = -gamma_tpp * det / (r * math.cos(theta) * math.sin(theta) ** 3)
    assert math.isclose(float(lemma1_value(n, eps, u0, c0)), numeric, rel_tol=1e-10)


def test_lemma1_equator_cubic_consistency():
    n, eps = 3, Fraction(2, 5)
    cubic = lemma1_equator_cubic(n, eps)
    assert cubic.degree <= 3
    for c0 in (Fraction(-1, 2), Fraction(0), Fraction(2, 3)):
        assert cubic(c0) == lemma1_value(n, eps, 1, c0)


def test_lemma1_positive_below_critical_negative_above():
    n = 2
    crit = lemma1_critical_eps(n, tol=1e-4)
    below = lemma1_equator_cubic(n, Fraction(int((crit - 0.02) * 1000), 1000))
    above = lemma1_equator_cubic(n, Fraction(int((crit + 0.02) * 1000), 1000))
    from harmgeo.geodesic import _min_on_interval

    assert _min_on_interval(below) > 0
    assert _min_on_interval(above) < 0


# -- exact-versus-numeric cross-validation --------------------------------------------


def test_dual_variational_flow_agrees():
    """The exact z-domain variational equation reproduces a direct numeric
    linearization of the flow around the equator."""
    assert nve_dual_residual(2, Fraction(1, 5), n_checks=16) < 1e-6
