"""Geodesic integration, chart handling, and the exact positivity certificate."""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from harmgeo import geodesic, kernels
from harmgeo.geodesic import (
    R_SWAP,
    Trajectory,
    _embed,
    chart_to_body,
    clairaut_values,
    integrate,
    lemma1_critical_eps,
    lemma1_equator_cubic,
    lemma1_poly,
    normalize_speed,
    nve_dual_residual,
    sphere_closure_error,
)
from harmgeo.poincare import equator_state
from harmgeo.surface import PolarSurface, PoleError


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
    # 201 samples over 100 units, one every half unit.  The plain geodesic
    # is one stepper run; the meridian swaps charts at the pole, so its
    # second run must take exactly the samples the first did not reach
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
    """A state taken into the chart rotated by R_SWAP, as a chart swap does,
    comes back with R_SWAP."""
    y = np.array([0.9, 2.0, 0.3, -0.7])
    there = chart_to_body(y, np.asarray(R_SWAP).T)
    assert not np.allclose(there, y)
    assert np.allclose(chart_to_body(there, np.asarray(R_SWAP)), y, atol=1e-13)
    assert np.allclose(chart_to_body(y, None), y)


def _numpy_chart_to_body(y, mm):
    """chart_to_body as NumPy computed it: the embedding built from arrays
    and the products mm @ n and mm @ v by NumPy, then projected."""
    th, ph, td, pd = y
    st, ct = math.sin(th), math.cos(th)
    cp, sp = math.cos(ph), math.sin(ph)
    n = np.array([st * cp, st * sp, ct])
    v = td * np.array([ct * cp, ct * sp, -st]) + pd * np.array([-st * sp, st * cp, 0.0])
    return geodesic._project(mm @ n, mm @ v)


def _bits(values):
    return [float(x).hex() for x in values]


def test_chart_to_body_matches_numpy_bit_for_bit():
    """The float products with every power of R_SWAP and with R_SWAP.T give
    NumPy's states bit for bit, signed zeros included: atan2(+-0.0, x)
    differs, and zeros meet phi = +-0.0 and phi_dot = +-0.0 states."""
    swap = np.asarray(R_SWAP)
    mats = [np.eye(3), swap, swap @ swap, swap @ swap @ swap, swap.T]
    rng = np.random.default_rng(20)
    states = [
        [rng.uniform(0.1, 3.0), rng.uniform(-7.0, 7.0), rng.normal(), rng.normal()]
        for _ in range(200)
    ]
    states += [
        [th, ph, td, pd]
        for th in (math.pi / 2, 1.0, 2.5)
        for ph in (0.0, -0.0, math.pi, -math.pi / 2)
        for td in (0.0, -0.0, 0.4)
        for pd in (0.0, -0.0, -0.7)
    ]
    for mm in mats:
        for y in states:
            assert _bits(chart_to_body(y, mm)) == _bits(_numpy_chart_to_body(y, mm)), (mm, y)
            assert _bits(chart_to_body(y, mm.ravel())) == _bits(chart_to_body(y, mm))


def test_sample_grid_is_linspace_bit_for_bit():
    """integrate's sample arc lengths are np.linspace(0, s_max, n) exactly:
    the benchmark compares the two, and a step that underflows to zero
    takes linspace's other branch."""
    for s_max in (1.0, 0.1, 7.3, 2 * math.pi, 100.0, 300.0, 500.0, 1e300, 1e-300, 5e-324):
        for n in (0, 1, 2, 3, 10, 201, 1000, 1001):
            grid = geodesic._sample_grid(s_max, n)
            assert _bits(grid) == _bits(np.linspace(0.0, s_max, n)), (s_max, n)
    traj = integrate(PolarSurface.sectoral(3, 0.2), [1.2, 0.4, 0.3, 0.6], 7.3, n_samples=37)
    assert _bits(traj.s) == _bits(np.linspace(0.0, 7.3, 37))
    with pytest.raises(ValueError, match="n_samples"):
        integrate(PolarSurface.sectoral(3, 0.2), [1.2, 0.4, 0.3, 0.6], 7.3, n_samples=-1)


def test_trajectory_arrays_keep_their_shapes():
    """Each array field is float64 with a fixed row shape, however many
    rows it has: none, when no crossing happens, and one final state
    without samples."""
    surf = PolarSurface.sectoral(3, 0.2)
    y0 = [1.2, 0.4, 0.3, 0.6]

    def shapes(traj):
        fields = (traj.s, traj.states, traj.h2, traj.crossings)
        assert all(f.dtype == np.float64 for f in fields)
        return [f.shape for f in fields]

    sampled = integrate(surf, y0, 20.0, n_samples=11)
    k = len(sampled.crossings)
    assert k >= 1 and shapes(sampled) == [(11,), (11, 4), (11,), (k, 3)]
    assert sampled.crossing_jacobians is None
    short = integrate(surf, y0, 0.1)  # heads away from the equator
    assert shapes(short) == [(1,), (1, 4), (1,), (0, 3)]
    tangents = np.eye(4)[:, :3]
    for s_max, k in ((0.1, 0), (20.0, 2)):
        run = integrate(surf, y0, s_max, n_crossings=2, renormalize=False, tangents=tangents)
        assert shapes(run) == [(1,), (1, 4), (1,), (k, 3)]
        assert run.crossing_jacobians.shape == (k, 2, 3)
        assert run.crossing_jacobians.dtype == np.float64


def test_samples_are_kept_in_flat_buffers(tmp_path):
    """integrate keeps s, states and h2 flat in array('d') buffers; the
    states array is a view of its buffer, and to_csv writes the same bytes
    before and after the arrays are built."""
    from array import array

    traj = integrate(PolarSurface.sectoral(3, 0.2), [1.2, 0.4, 0.3, 0.6], 20.0, n_samples=11)
    assert all(isinstance(f, array) and f.typecode == "d" for f in (traj._s, traj._states, traj._h2))
    assert len(traj._states) == 4 * len(traj._s) == 4 * len(traj._h2) == 44
    traj.to_csv(tmp_path / "before.csv")
    assert traj.states.tolist() == [list(traj._states[i:i + 4]) for i in range(0, 44, 4)]
    assert np.shares_memory(traj.states, traj._states)
    traj.to_csv(tmp_path / "after.csv")
    assert (tmp_path / "before.csv").read_bytes() == (tmp_path / "after.csv").read_bytes()


def test_trajectories_compare_by_their_floats():
    """Two identical runs compare equal without building an array, also
    after one side has built its arrays; a change of one float, or of the
    tangent flow's Jacobians, makes them differ."""
    surf = PolarSurface.sectoral(3, 0.2)
    y0, tangents = [1.2, 0.4, 0.3, 0.6], [[1.0], [0.0], [0.0], [0.0]]

    def run():
        return integrate(surf, y0, 30.0, n_samples=11, renormalize=False, tangents=tangents)

    a, b = run(), run()
    assert a == b and not a != b
    assert not [k for k in (*vars(a), *vars(b)) if k.endswith("_array")]
    assert a.crossings.shape == (len(a._crossings), 3) and a.crossing_jacobians.shape[1:] == (2, 1)
    assert a == b and b == a
    b._states[5] = math.nextafter(b._states[5], 1.0)
    assert a != b
    c = run()
    c._crossing_jacobians[0][1][0] += 1.0
    assert a != c
    assert a != integrate(surf, y0, 30.0, n_samples=11, renormalize=False)


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


# the axis charts' chart -> body matrices, by the body axis of their pole
AXIS_X = (0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0)
AXIS_Y = tuple(x for row in R_SWAP for x in row)
# acos(sqrt(2/3)), rounded up: the least distance of a chosen pole
AXIS_BOUND = 0.6155


def _chosen_theta(y_body):
    """theta of a body state in the axis chart integrate chooses for it."""
    rot = geodesic._axis_chart(*_embed(y_body))
    return chart_to_body(y_body, None if rot is None else np.reshape(rot, (3, 3)).T)[0]


@pytest.mark.parametrize("rot", [AXIS_X, AXIS_Y, None], ids=["x", "y", "z"])
def test_axis_chart_leaves_the_pole(rot):
    """At 10^4 random states inside the pole guard of either pole of an axis
    chart, the axis chart chosen for the state puts it at theta in
    [0.6155, pi - 0.6155]; at random states anywhere, the choice keeps it
    at least acos(sqrt(2/3)) from the chosen pole."""
    assert geodesic._AXIS_CHARTS == (AXIS_X, AXIS_Y, None)
    rng = np.random.default_rng(36)
    to_body = None if rot is None else np.reshape(rot, (3, 3))
    for k in range(10**4):
        theta = rng.uniform(1e-3, geodesic.POLE_GUARD)
        if k % 2:
            theta = math.pi - theta
        y = [theta, rng.uniform(-math.pi, math.pi), rng.normal(), rng.normal() / math.sin(theta)]
        assert AXIS_BOUND <= _chosen_theta(chart_to_body(y, to_body)) <= math.pi - AXIS_BOUND, y
    bound = math.acos(math.sqrt(2.0 / 3.0)) - 1e-12
    for _ in range(10**3):
        y = [math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(-math.pi, math.pi), *rng.normal(size=2)]
        assert bound <= _chosen_theta(chart_to_body(y, to_body)) <= math.pi - bound, y


def _recording_charts(monkeypatch):
    """Patch the stepper to list the chart each of its runs steps in."""
    charts, stepper = [], geodesic.solve_ivp

    def recording(fun, *args, **kwargs):
        charts.append(fun.__self__)
        return stepper(fun, *args, **kwargs)

    monkeypatch.setattr(geodesic, "solve_ivp", recording)
    return charts


def test_near_polar_geodesic_runs_in_axis_charts(monkeypatch):
    """A sectoral(3, 0.3) geodesic that starts inside the pole guard and
    meets it again steps only in the three axis charts, the z chart being
    the surface itself with its body-form kernel; 2H stays within 1e-10,
    and its stepper work and swaps are these counts."""
    surf = PolarSurface.sectoral(3, 0.3)
    charts = _recording_charts(monkeypatch)
    traj = integrate(surf, [0.2, 0.0, -1.0, 1.0], 50.0, n_samples=101)
    assert [chart.rot for chart in charts] == [AXIS_Y, AXIS_X, None, AXIS_X]
    assert charts[2] is surf and "sectoral" in surf._rhs.__code__.co_filename
    assert np.max(np.abs(traj.h2 - 1.0)) <= 1e-10
    assert (traj.nfev, traj.chart_swaps) == (13340, 4)


def test_rotated_surface_runs_its_z_choice_in_the_body_chart(monkeypatch):
    """A surface built in a rotated chart, started near its chart pole,
    moves to axis charts, its z choice the body chart (rot None, the
    body-form kernel), and traces the geodesic of the body surface."""
    body = PolarSurface.sectoral(3, 0.3)
    chart = body.in_chart(R_SWAP)
    y0 = normalize_speed(chart, [0.5, 0.0, -1.0, 1.0])
    charts = _recording_charts(monkeypatch)
    in_chart = integrate(chart, y0, 20.0, n_samples=21, renormalize=False)
    assert [c.rot for c in charts] == [AXIS_Y, None, AXIS_Y] and charts[0] is chart
    assert "sectoral" in charts[1]._rhs.__code__.co_filename
    in_body = integrate(body, chart_to_body(y0, R_SWAP), 20.0, n_samples=21, renormalize=False)
    assert np.allclose(in_chart.states, in_body.states, rtol=0, atol=1e-8)


def test_jacobi_parts_rebuild_the_full_variation():
    """Split, Jacobi flow and rebuild give the whole variation (dx, dv) at a
    fixed arc length, its part along the geodesic (b + a*s) included, which
    no crossing Jacobian sees: the crossing-time shift removes it."""
    surf = PolarSurface.sectoral(3, 0.2)
    y0, s_end, h = np.array([1.2, 0.4, 0.3, 0.6]), 5.0, 1e-6
    b, a, w, dw = geodesic._jacobi_split(surf, y0, np.eye(4))
    assert np.max(np.abs(a)) > 0.1  # the unit variations change the energy
    sol = geodesic.solve_ivp(
        surf.jacobi_rhs, (0.0, s_end), [*y0, *w, *dw], rtol=1e-12, atol=1e-12
    )
    tan = geodesic._jacobi_rebuild(surf, sol.y[:4], s_end, b, a, sol.y[4:8], sol.y[8:])

    def end(y):
        traj = integrate(surf, y, s_end, renormalize=False)
        assert traj.chart_swaps == 0
        return traj.states[-1]

    differenced = np.column_stack(
        [(end(y0 + h * e) - end(y0 - h * e)) / (2 * h) for e in np.eye(4)]
    )
    assert np.allclose(tan, differenced, rtol=0, atol=1e-6)


TANGENT_CASES = {
    # starts inside the pole guard, so the variations are split before the
    # first chart swap
    "pole-start": (PolarSurface.zonal(2, 0.2), [0.03, 0.0, 1.0, 8.0], None),
    "rotated-chart": (
        PolarSurface.tesseral(3, 1, 0.1).in_chart(R_SWAP), [1.3, 0.4, 0.5, -0.3], None
    ),
    "section-frame": (
        PolarSurface.sectoral(3, 0.2), [1.2, 0.4, 0.3, 0.6], np.asarray(R_SWAP).T
    ),
}


@pytest.mark.parametrize("case", sorted(TANGENT_CASES))
def test_tangents_match_differenced_crossings(case):
    """Crossing Jacobians of the four unit variations, which change the
    energy, agree with central differences of the crossings themselves."""
    surf, y0, frame, k = *TANGENT_CASES[case], 2

    def run(y, **kw):
        return integrate(
            surf, y, 60.0, n_crossings=k, renormalize=False, section_frame=frame, **kw
        )

    jac = run(y0, tangents=np.eye(4)).crossing_jacobians
    assert jac.shape == (k, 2, 4)
    h = 1e-6
    differenced = np.zeros((2, 4))
    for j in range(4):
        dy = h * np.eye(4)[j]
        _, ph_p, pd_p = run(y0 + dy).crossings[k - 1]
        _, ph_m, pd_m = run(y0 - dy).crossings[k - 1]
        differenced[:, j] = [
            ((ph_p - ph_m + math.pi) % (2 * math.pi) - math.pi) / (2 * h),
            (pd_p - pd_m) / (2 * h),
        ]
    assert np.allclose(jac[k - 1], differenced, rtol=0, atol=1e-6)


def test_meaningless_budgets_rejected():
    surf = PolarSurface.sectoral(3, 0.1)
    y0 = [math.pi / 2, 0.2, 0.5, 0.5]
    for kwargs in ({"n_crossings": 0}, {"n_crossings": -2}):
        with pytest.raises(ValueError, match="n_crossings"):
            integrate(surf, y0, 100.0, **kwargs)
    for s_max in (0.0, -5.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="s_max"):
            integrate(surf, y0, s_max, n_samples=10)
    with pytest.raises(ValueError, match="s_max"):
        integrate(surf, y0, math.inf)


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


def test_crossing_stop_reports_state_at_last_crossing():
    surf = PolarSurface.sectoral(3, 0.3)
    traj = integrate(
        surf, equator_state(3, 0.3, 0.4, 0.2), 200.0, n_crossings=3, renormalize=False
    )
    s, phi, phi_dot = traj.crossings[-1]
    assert traj.s.tolist() == [s]
    theta, phi_end, _, phi_dot_end = traj.states[0]
    assert abs(theta - math.pi / 2) <= 1e-12
    assert (phi_end, phi_dot_end) == (phi, phi_dot)
    assert abs(traj.h2[0] - 1.0) <= 1e-10


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("start", ["on-section", "off-section", "tangent"])
def test_crossing_limited_run_stops_at_last_crossing(monkeypatch, k, start):
    """Stopping at the k-th crossing leaves the crossings bit-identical to a
    longer run, and the last solver segment ends there.  The tangent case
    is the closed-orbit search's one run for all periods: on sectoral(2,
    0.3) from the section point (0.5, 0.1) the runs asked for 1, 2 or 3
    crossings are prefixes of the run asked for 4, in crossings and
    crossing Jacobians, though it swaps charts before crossing 1, between
    crossings 1 and 2 and between 2 and 4, and its start on the section
    fires the event once more than it counts."""
    from harmgeo.poincare import _equator_state_tangents

    s_max, kwargs = 50.0, {}
    if start == "tangent":
        surf = PolarSurface.sectoral(2, 0.3)
        y0 = equator_state(2, 0.3, 0.5, 0.1)
        s_max = 220.0
        kwargs = {"renormalize": False, "tangents": _equator_state_tangents(2, 0.3, y0)}
        full = integrate(surf, y0, s_max, n_crossings=4, **kwargs)
        assert full.chart_swaps == 3
    else:
        surf = PolarSurface.sectoral(3, 0.3)
        if start == "on-section":
            y0 = equator_state(3, 0.3, 0.4, 0.2)
        else:
            y0 = normalize_speed(surf, [1.2, 0.4, 0.3, 0.5])
        full = integrate(surf, y0, s_max)
    ends = []
    stepper = geodesic.solve_ivp

    def recording_solve_ivp(*args, **kwargs):
        sol = stepper(*args, **kwargs)
        ends.append(sol.t[-1])
        return sol

    monkeypatch.setattr(geodesic, "solve_ivp", recording_solve_ivp)
    limited = integrate(surf, y0, s_max, n_crossings=k, **kwargs)
    assert len(full.crossings) > k
    assert np.array_equal(limited.crossings, full.crossings[:k])
    if start == "tangent":
        assert np.array_equal(limited.crossing_jacobians, full.crossing_jacobians[:k])
        assert limited.chart_swaps == min(k, 2)
    assert ends[-1] == limited.crossings[-1, 0]


def test_stepper_counters_repeat_and_bound_the_work(monkeypatch):
    """nfev, steps and rejected_steps repeat exactly, count every RHS call
    and every accepted step, and a run without samples costs at most 12 RHS
    calls per attempted step, 3 per event step and 2 per stepper start."""
    surf = PolarSurface.sectoral(3, 0.2)
    y0 = normalize_speed(surf, [math.pi / 2, 0.0, -1.0, 0.05])
    first = integrate(surf, y0, 40.0)
    rhs_calls, runs = [], []
    rhs, stepper = PolarSurface.rhs, geodesic.solve_ivp

    def counting_rhs(self, s, y):
        rhs_calls.append(s)
        return rhs(self, s, y)

    def recording_solve_ivp(*args, **kwargs):
        runs.append(stepper(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(PolarSurface, "rhs", counting_rhs)
    monkeypatch.setattr(geodesic, "solve_ivp", recording_solve_ivp)
    again = integrate(surf, y0, 40.0)
    counters = (first.nfev, first.steps, first.rejected_steps)
    assert counters == (again.nfev, again.steps, again.rejected_steps)
    assert first.chart_swaps >= 1 and len(first.crossings) >= 1
    assert first.nfev == len(rhs_calls)
    assert first.steps == sum(len(sol.t) - 1 for sol in runs) > 0
    assert first.rejected_steps == sum(sol.rejected for sol in runs)
    starts = len(runs)
    assert starts <= first.chart_swaps + 1
    # event steps: crossings, pole events (one per swap) and a start on the section
    event_steps = len(first.crossings) + first.chart_swaps + 1
    attempted = first.steps + first.rejected_steps
    assert first.nfev <= 12 * attempted + 3 * event_steps + 2 * starts


def _count_class_rhs(monkeypatch):
    """Patch PolarSurface.rhs and PolarSurface.jacobi_rhs at class level, as
    the benchmark's tracer does, with counters of their calls."""
    calls = {"rhs": 0, "jacobi_rhs": 0}
    for name in calls:
        original = getattr(PolarSurface, name)

        def counting(self, s, y, name=name, original=original):
            calls[name] += 1
            return original(self, s, y)

        monkeypatch.setattr(PolarSurface, name, counting)
    return calls


def test_class_rhs_counts_every_evaluation(monkeypatch):
    """Every right-hand-side call of a run, in every chart, goes through
    PolarSurface.rhs or PolarSurface.jacobi_rhs, whose class attributes the
    benchmark's tracer patches to count surface.rhs_calls: a counter there
    reads Trajectory.nfev.  A tangent run steps on jacobi_rhs and calls rhs
    once per crossing, where its section Jacobian is rebuilt."""
    surf = PolarSurface.sectoral(3, 0.3)
    calls = _count_class_rhs(monkeypatch)
    y0 = normalize_speed(surf, [math.pi / 2, 0.0, -1.0, 0.05])
    traj = integrate(surf, y0, 40.0, n_crossings=6)
    assert traj.chart_swaps >= 1 and len(traj.crossings) == 6
    assert calls == {"rhs": traj.nfev, "jacobi_rhs": 0}

    calls.update(rhs=0, jacobi_rhs=0)
    tangents = [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
    traj = integrate(surf, y0, 40.0, renormalize=False, tangents=tangents)
    assert traj.chart_swaps >= 1 and len(traj.crossings) >= 1
    assert calls == {"rhs": len(traj.crossings), "jacobi_rhs": traj.nfev}


def test_kernels_compile_once_per_structure(monkeypatch):
    """A run compiles one kernel per surface structure (form, m, len(q) and,
    for the chart form, the chart pattern: which matrix entries are exactly
    +-0.0 or +-1.0) and one per structure and number of normal parts.  Chart
    swaps and in_chart into a pattern met before, and a second run, compile
    nothing."""
    compiled = []
    compile_source = kernels._compile

    def recording(source, filename):
        compiled.append(filename)
        return compile_source(source, filename)

    monkeypatch.setattr(kernels, "_compile", recording)
    kernels._compiled.cache_clear()
    surf = PolarSurface.sectoral(3, 0.3)
    y0 = normalize_speed(surf, [math.pi / 2, 0.0, -1.0, 0.05])
    tangents = [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]

    def runs():
        plain = integrate(surf, y0, 40.0, section_frame=np.asarray(R_SWAP).T)
        tangent = integrate(surf, y0, 40.0, renormalize=False, tangents=tangents)
        return plain.chart_swaps + tangent.chart_swaps

    assert runs() >= 2
    # the swapped chart R_SWAP, and the identity chart the tangent run
    # rebuilds its crossings in
    assert sorted(compiled) == [
        "geodesic kernel chart, m=3, len(q)=1, rot=[1 0 0 0 0 -1 0 1 0]",
        "geodesic kernel chart, m=3, len(q)=1, rot=[1 0 0 0 0 -1 0 1 0], j=2",
        "geodesic kernel chart, m=3, len(q)=1, rot=[1 0 0 0 1 0 0 0 1]",
        "geodesic kernel sectoral, m=3, len(q)=1",
        "geodesic kernel sectoral, m=3, len(q)=1, j=2",
    ]
    compiled.clear()
    runs()
    surf.in_chart(R_SWAP).rhs(0.0, [1.2, 0.4, 0.3, 0.6])
    PolarSurface.sectoral(3, 0.1).in_chart(np.eye(3)).rhs(0.0, [1.2, 0.4, 0.3, 0.6])
    PolarSurface.sectoral(3, 0.1).jacobi_rhs(0.0, [1.2, 0.4, 0.3, 0.6, 1.0, 0.0, 0.0, 1.0])
    assert compiled == []
    # a chart with other exact entries is another structure
    surf.in_chart(np.asarray(R_SWAP).T).rhs(0.0, [1.2, 0.4, 0.3, 0.6])
    assert compiled == ["geodesic kernel chart, m=3, len(q)=1, rot=[1 0 0 0 0 1 0 -1 0]"]


def test_section_frame_must_be_a_rotation():
    """A scaled section frame would scale every reported phi_dot and a
    reflected one report other crossings; both are refused, and the
    rotation integrate is given for a frame runs."""
    surf = PolarSurface.sectoral(3, 0.3)
    y0 = [1.2, 0.4, 0.3, 0.6]
    for frame in (2.0 * np.asarray(R_SWAP).T, np.diag([1.0, 1.0, -1.0])):
        with pytest.raises(ValueError, match="section_frame must be a rotation"):
            integrate(surf, y0, 10.0, section_frame=frame)
    traj = integrate(surf, y0, 10.0, section_frame=np.asarray(R_SWAP).T)
    assert len(traj.crossings) >= 1


def test_tangents_refuse_renormalization():
    surf = PolarSurface.sectoral(3, 0.1)
    with pytest.raises(ValueError, match="renormalize"):
        integrate(surf, [1.2, 0.3, 0.4, 0.5], 5.0, tangents=np.eye(4))


def test_tangents_at_a_chart_pole_raise():
    """At theta = 0 the chart gives no delta phi a meaning."""
    surf = PolarSurface.zonal(2, 0.2)
    with pytest.raises(PoleError):
        integrate(surf, [0.0, 0.0, 1.0, 0.0], 5.0, renormalize=False, tangents=np.eye(4))


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


# leading 16 hex digits of the sha256 of lemma1_poly's terms, serialized as
# `harmgeo lemma1` writes them, at eps = 1/10, 1/3, 1/2, 7/10, as the earlier
# derivation through the trigonometric ring gave them
LEMMA1_SHA256 = {
    1: "4e7772201e2f8e5b 0372c5a9fa1a1be0 3db02ff982a15b33 e037e0950b2e3406",
    2: "eb7b2277ec6c7294 3d7f7ea91b898221 fb3c656818cfc8e4 c0bea990f1239fe5",
    3: "4ae5cc985a9a4982 2a04e7e40eb49ede 93fa3103c81d036c 59ff3ec19ac74ab3",
    4: "1a7a2dc5016ec4b3 dca110d355feb1ea d65f33adf271bcdf 9a77d28b77c4b66f",
    5: "c6b3b3b4a44c18e8 688088c1f0676ccf 600ea76b4d32014c 2e4a171a5a404e8f",
    6: "c67a66eb8661bcf8 1cfbe7307b024970 2cb21f792fa3d465 6570460f3df03199",
    7: "95059bab5567d6b2 bfd41dbbb1300ad1 9475e0e21914d414 dab6dbc8ea1c7be2",
    8: "7259e598f6893cce 774ca2dc09895804 d37dddd17ce95a24 480d49abe7ab5f32",
    9: "f4a4b61db3a92837 d221164f1369efae f7c6ab806f3bc4a8 cf65b918644fed82",
    10: "ea8e604b77142cd3 9149d9ac7260c58e de28b5fdbcf1c26e 0f404c97b887af1d",
    11: "b60b961d946daefa 6f218c5895a89926 266ad2d5d36f3109 5d2f4981f76429ae",
    12: "6fa28615f45642d9 99fc88ae6480fda8 a5df478b325991bb 2caf6a8af0be34a3",
}


@pytest.mark.parametrize("n", range(1, 13))
def test_lemma1_poly_is_pinned(n):
    epss = map(Fraction, ("1/10", "1/3", "1/2", "7/10"))
    for eps, digest in zip(epss, LEMMA1_SHA256[n].split(), strict=True):
        poly = sorted(lemma1_poly(n, eps).items())
        terms = {str(k): [str(c) for c in pc.coeffs] for k, pc in poly}
        assert hashlib.sha256(json.dumps(terms).encode()).hexdigest()[:16] == digest, eps


def lemma1_value(n, eps, u0, c0):
    """Exact f(u0, c0) of :func:`lemma1_poly` for rational arguments."""
    eps, u0, c0 = Fraction(eps), Fraction(u0), Fraction(c0)
    return sum((pc(c0) * u0**e for e, pc in lemma1_poly(n, eps).items()), Fraction(0))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 12])
def test_lemma1_value_matches_numeric_kernel(n):
    """f(u, c) = -Gamma^theta_phiphi * det / (r cos(theta) sin^3(theta)); at
    n = 1 and 2 some of the closed form's exponents coincide."""
    eps = Fraction(1, 4)
    points = [(Fraction(3, 5), Fraction(1, 3)), (Fraction(4, 5), Fraction(-1, 2)),
              (Fraction(9, 10), Fraction(7, 8))]
    for u0, c0 in points:
        theta = math.asin(float(u0))
        phi = math.acos(float(c0)) / n
        parts = PolarSurface.sectoral(n, float(eps)).partials(theta, phi)
        out = kernels.christoffel(theta, *parts)
        det, gamma_tpp = out[3], out[6]
        numeric = -gamma_tpp * det / (parts[0] * math.cos(theta) * math.sin(theta) ** 3)
        assert math.isclose(
            float(lemma1_value(n, eps, u0, c0)), numeric, rel_tol=1e-10
        ), (u0, c0)


def test_lemma1_rejects_surfaces_that_do_not_exist():
    """n < 1 has no sectoral surface, and for |eps| >= 1 the radius reaches
    zero; every Lemma-1 entry point says so rather than certifying."""
    for fn, args in ((lemma1_poly, ()), (lemma1_value, (1, 0)), (lemma1_equator_cubic, ())):
        for n, eps in ((0, Fraction(1, 2)), (-1, Fraction(1, 3))):
            with pytest.raises(ValueError, match="n = .* must be at least 1"):
                fn(n, eps, *args)
        for eps in (Fraction(1), Fraction(3, 2), Fraction(-1)):
            with pytest.raises(ValueError, match="must be below 1"):
                fn(2, eps, *args)


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
    from harmgeo.geodesic import _positive_on_equator

    assert _positive_on_equator(below)
    assert not _positive_on_equator(above)


@pytest.mark.parametrize(
    "cubic, positive",
    [
        ([2, 1], True),
        ([Fraction(1, 100), 0, 1], True),
        ([1], True),
        ([1, 1], False),
        ([1, -1], False),
        ([Fraction(1, 4), -1, 1], False),
        ([0, 1, 0, 1], False),
        ([-1], False),
    ],
    ids=["2+c", "c^2+1/100", "1", "zero-at-minus-1", "zero-at-1", "double-root-inside",
         "sign-change", "negative"],
)
def test_positive_on_equator_is_exact_at_both_ends(cubic, positive):
    """Positivity on the closed interval [-1, 1]: a zero at either end, or
    a double root inside, is not positive."""
    from harmgeo.algebra import Poly
    from harmgeo.geodesic import _positive_on_equator

    assert _positive_on_equator(Poly(cubic)) is positive


def test_lemma1_bisection_ends_below_an_ulp():
    """A tol finer than the spacing of floats near the threshold ends the
    bisection once lo and hi are adjacent, instead of looping forever."""
    coarse = lemma1_critical_eps(3, tol=1e-6)
    assert abs(lemma1_critical_eps(3, tol=1e-300) - coarse) <= 1e-6


# -- exact-versus-numeric cross-validation --------------------------------------------


@pytest.mark.parametrize(
    "n, eps",
    [(2, Fraction(1, 5)), (5, Fraction(1, 4)), (7, Fraction(1, 5)), (7, Fraction(1, 2))],
    ids=["n2-eps1over5", "n5-eps1over4", "n7-eps1over5", "n7-eps1over2"],
)
def test_dual_variational_flow_agrees(n, eps):
    """The exact z-domain variational equation reproduces the tangent flow
    around the equator, through the turning points z = +-eps."""
    assert nve_dual_residual(n, eps, n_checks=16) < 1e-6


@pytest.mark.parametrize("n_checks", [-1, 0, 1])
def test_dual_residual_needs_two_checks(n_checks):
    """One check is s = 0, where both copies start equal."""
    with pytest.raises(ValueError, match="n_checks"):
        nve_dual_residual(2, Fraction(1, 5), n_checks=n_checks)
