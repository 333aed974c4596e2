"""Poincare sections, return maps, closed geodesics and their stability."""

import json
import math
import os
import warnings

import numpy as np
import pytest

from harmgeo import poincare
from harmgeo.poincare import (
    SectionData,
    equator_monodromy,
    equator_state,
    find_closed_geodesics,
    generate_section,
    max_trajectory_occupancy,
    monodromy_matrix,
    occupancy,
    phi_dot_max,
    return_map,
    section_to_csv,
    section_to_json,
    section_to_svg,
)

TWO_PI = 2.0 * math.pi


# -- section geometry ---------------------------------------------------------


def test_phi_dot_max_is_true_maximum():
    """1/phi_dot_max^2 equals the maximum of g_pp over the equator, for a
    negative eps too."""
    signed = [(n, s * e) for n in (1, 2, 3) for e in (0.2, 0.3) for s in (1, -1)]
    for n, eps in [(3, 0.05), (3, 0.3), (2, 0.5), (1, 0.4), *signed]:
        cs = np.linspace(-1.0, 1.0, 20001)
        g_pp = (1 + eps * cs) ** 2 + eps**2 * n**2 * (1 - cs**2)
        assert math.isclose(
            phi_dot_max(n, eps), 1.0 / math.sqrt(g_pp.max()), rel_tol=1e-7
        )


def test_negative_eps_section_stays_on_the_energy_shell(tmp_path):
    """A section at eps < 0 starts every trajectory on the energy shell and
    plots every crossing inside the phi_dot axis 1/(1-|eps|)."""
    sec = generate_section(3, -0.3, n_traj=20, n_crossings=3)
    assert sec.failures == []
    assert len(sec.all_points()) == 60
    assert 1.0 / 1.3 < np.abs(sec.all_points()[:, 2]).max() < 1.0 / 0.7
    section_to_svg(sec, tmp_path / "s.svg")
    assert (tmp_path / "s.svg").read_text().count("<circle") == 60


def test_phi_dot_max_continuous_at_regime_change():
    n = 3
    e0 = 1.0 / (n * n - 1)
    assert math.isclose(
        phi_dot_max(n, e0 - 1e-9), phi_dot_max(n, e0 + 1e-9), rel_tol=1e-6
    )


def test_equator_state_on_energy_shell():
    from harmgeo.surface import PolarSurface

    n, eps = 3, 0.2
    surf = PolarSurface.sectoral(n, eps)
    y = equator_state(n, eps, 0.7, 0.5)
    assert math.isclose(surf.hamiltonian2(*y), 1.0, rel_tol=1e-12)
    assert y[2] >= 0.0
    with pytest.raises(ValueError):
        equator_state(n, eps, 0.0, 2.0)


# -- return map ----------------------------------------------------------------


def test_return_map_inverse_by_time_reversal():
    """Reflecting through the equatorial plane and reversing time inverts the
    section map, so P(phi', -pd') must recover (phi, -pd)."""
    n, eps = 3, 0.1
    phi0, pd0 = 0.9, 0.3
    phi1, pd1, _ = return_map(n, eps, phi0, pd0)
    phi2, pd2, _ = return_map(n, eps, phi1 % TWO_PI, -pd1)
    assert abs((phi2 - phi0 + math.pi) % TWO_PI - math.pi) < 1e-6
    assert abs(pd2 + pd0) < 1e-6


def test_planar_geodesic_is_fixed_point():
    """The geodesic in the symmetry plane phi = pi/n is closed, so it returns
    to the section at the same point."""
    n, eps = 3, 0.1
    phi0 = math.pi / n
    phi1, pd1, length = return_map(n, eps, phi0, 0.0)
    assert abs((phi1 - phi0 + math.pi) % TWO_PI - math.pi) < 1e-8
    assert abs(pd1) < 1e-8
    assert 2 * math.pi * 0.8 < length < 2 * math.pi * 1.2


def test_return_map_higher_iterates_compose():
    n, eps = 2, 0.15
    p1, d1, s1 = return_map(n, eps, 0.4, 0.2)
    p2a, d2a, s2a = return_map(n, eps, p1 % TWO_PI, d1)
    p2b, d2b, s2b = return_map(n, eps, 0.4, 0.2, k=2)
    assert abs((p2b - p2a - p1 + (p1 % TWO_PI) + math.pi) % TWO_PI - math.pi) < 1e-7
    assert abs(d2b - d2a) < 1e-8
    assert abs(s2b - (s1 + s2a)) < 1e-7


# -- seeded sections ---------------------------------------------------------------


def test_sections_are_deterministic():
    a = generate_section(2, 0.1, n_traj=3, n_crossings=15, seed=11, rtol=1e-9, atol=1e-9)
    b = generate_section(2, 0.1, n_traj=3, n_crossings=15, seed=11, rtol=1e-9, atol=1e-9)
    for ta, tb in zip(a.trajectories, b.trajectories):
        assert np.array_equal(ta, tb)
    assert a.initials == b.initials


def test_sections_compare_by_their_rows():
    """Two identical seeded sections compare equal without building an
    array, also after one side has built its arrays; one changed float
    makes them differ."""
    kw = dict(n_traj=2, n_crossings=3, seed=1)
    a, b = generate_section(2, 0.1, **kw), generate_section(2, 0.1, **kw)
    assert a == b and not a != b
    assert "_trajectories_array" not in vars(a)
    assert len(b.trajectories) == 2
    assert a == b and b == a
    s, ph, pd = a._trajectories[1][2]
    a._trajectories[1][2] = (s, ph, math.nextafter(pd, 1.0))
    assert a != b
    assert generate_section(2, 0.1, **kw) != generate_section(2, 0.1, **{**kw, "seed": 2})


def test_section_streams_independent_of_trajectory_count():
    """Philox streams are keyed per trajectory, so asking for more
    trajectories must not perturb the earlier ones."""
    a = generate_section(2, 0.1, n_traj=1, n_crossings=10, seed=3, rtol=1e-9, atol=1e-9)
    b = generate_section(2, 0.1, n_traj=2, n_crossings=10, seed=3, rtol=1e-9, atol=1e-9)
    assert np.array_equal(a.trajectories[0], b.trajectories[0])


def test_parallel_section_matches_serial():
    a = generate_section(2, 0.2, n_traj=4, n_crossings=10, seed=5, rtol=1e-8, atol=1e-8)
    b = generate_section(
        2, 0.2, n_traj=4, n_crossings=10, seed=5, rtol=1e-8, atol=1e-8, workers=2
    )
    for ta, tb in zip(a.trajectories, b.trajectories):
        assert np.array_equal(ta, tb)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of each process pool generate_section opens; the
    pool runs its jobs in-process and starts no process."""
    import concurrent.futures

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return sizes


def test_pool_no_larger_than_trajectory_count(monkeypatch, pool_sizes):
    monkeypatch.setattr(poincare, "_usable_cpus", lambda: 64)
    kw = dict(n_crossings=5, seed=5, rtol=1e-8, atol=1e-8)
    serial = generate_section(2, 0.2, n_traj=2, workers=1, **kw)
    pooled = generate_section(2, 0.2, n_traj=2, workers=8, **kw)
    assert pool_sizes == [2]
    for ta, tb in zip(serial.trajectories, pooled.trajectories):
        assert np.array_equal(ta, tb)
    assert serial.initials == pooled.initials
    generate_section(2, 0.2, n_traj=1, workers=8, **kw)
    assert pool_sizes == [2]  # one trajectory runs in-process


def test_pool_no_larger_than_usable_cpus(monkeypatch, pool_sizes):
    """As many workers as trajectories would fork one process per
    trajectory; the pool stops at the CPUs the process may use."""
    kw = dict(n_traj=4, n_crossings=3, seed=5, rtol=1e-8, atol=1e-8)
    serial = generate_section(2, 0.2, workers=1, **kw)
    for cpus, expected in ((3, [3]), (1, [3])):  # one CPU opens no pool
        monkeypatch.setattr(poincare, "_usable_cpus", lambda: cpus)
        pooled = generate_section(2, 0.2, workers=4, **kw)
        assert pool_sizes == expected
        for ta, tb in zip(serial.trajectories, pooled.trajectories):
            assert np.array_equal(ta, tb)
    assert 1 <= poincare._usable_cpus() <= (os.cpu_count() or 1)


@pytest.mark.parametrize("rtol, atol", [(0.0, 1e-10), (-1e-10, 1e-10), (1e-10, math.nan),
                                        (math.inf, 1e-10)])
def test_section_checks_tolerances_first(rtol, atol):
    """A bad tolerance would fail every trajectory on its own; it is refused
    before any runs."""
    with pytest.raises(ValueError, match="must be finite and positive"):
        generate_section(2, 0.2, n_traj=2, n_crossings=3, rtol=rtol, atol=atol)


@pytest.mark.parametrize("s_max", [math.inf, -1.0, 0.0, math.nan])
def test_section_checks_s_max_first(monkeypatch, s_max):
    """A bad s_max used to fail every trajectory on its own and return no
    points; it is refused before any trajectory runs."""
    monkeypatch.setattr(poincare, "_run_trajectory", lambda job: pytest.fail("trajectory ran"))
    with pytest.raises(ValueError, match="must be finite and positive"):
        generate_section(2, 0.2, n_traj=2, n_crossings=3, s_max=s_max)


# the bounds _run_trajectory draws from: phi0, phi_dot0 (plain) and the
# heading alpha (rotated)
_DRAW_BOUNDS = (
    (0.0, TWO_PI),
    (-phi_dot_max(3, 0.3), phi_dot_max(3, 0.3)),
    (0.05, math.pi - 0.05),
)


@pytest.mark.parametrize("seed", [0, 1, 2**53 + 1, 2**63 - 1, -1, -(2**63)])
def test_philox_is_numpy_philox_bit_for_bit(seed):
    """Twelve draws per stream cross two refills of the four-word block."""
    for k in (0, 1, 2, 19, 1000):
        reference = np.random.Generator(np.random.Philox(key=[seed, k]))
        words = poincare._philox(seed, k)
        for i in range(12):
            lo, hi = _DRAW_BOUNDS[i % 3]
            assert poincare._uniform(words, lo, hi) == reference.uniform(lo, hi), (seed, k, i)


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("seed", [0, -1, 2**63 - 1])
def test_section_initials_are_numpy_philox_draws(seed, rotated):
    sec = generate_section(3, 0.3, n_traj=3, n_crossings=1, seed=seed, rotated=rotated)
    for k, initial in enumerate(sec.initials):
        rng = np.random.Generator(np.random.Philox(key=[seed, k]))
        phi0 = rng.uniform(0.0, TWO_PI)
        if rotated:
            expected = (phi0, math.cos(rng.uniform(0.05, math.pi - 0.05)))
        else:
            expected = (phi0, rng.uniform(*_DRAW_BOUNDS[1]))
        assert initial == expected


@pytest.mark.parametrize("seed", [2**63, 2**63 + 1000, 2**64 - 1, 2**64, -(2**63) - 1])
def test_section_refuses_seeds_outside_int64(monkeypatch, seed):
    """NumPy cast such keys through float64: 2**64 - 1 gave seed 0's section
    and 2**63 and 2**63 + 1000 gave one section.  They are refused before
    any trajectory runs."""
    monkeypatch.setattr(poincare, "_run_trajectory", lambda job: pytest.fail("trajectory ran"))
    with pytest.raises(ValueError, match=r"must lie in \[-2\*\*63, 2\*\*63\)"):
        generate_section(2, 0.2, n_traj=2, n_crossings=3, seed=seed)


def test_float_mod_is_np_mod_bit_for_bit():
    rng = np.random.default_rng(4)
    values = np.concatenate([
        rng.uniform(-50.0, 50.0, 20000),
        rng.standard_normal(2000) * 1e-12,
        np.arange(-5, 6) * TWO_PI,
        np.arange(-5, 6) * TWO_PI + 1e-15,
        [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, math.pi, -math.pi, 1e300, -1e300],
    ])
    expected = np.mod(values, TWO_PI)
    for x, m in zip(values.tolist(), expected.tolist()):
        got = x % TWO_PI
        assert got == m and math.copysign(1.0, got) == math.copysign(1.0, m), x


def test_section_arrays_are_built_on_first_read():
    """A section keeps each trajectory's crossings as rows of floats; the
    writers read those, and ``trajectories`` builds float64 arrays once."""
    sec = generate_section(3, 0.3, n_traj=2, n_crossings=4, seed=2)
    assert "_trajectories_array" not in vars(sec)
    rows = sec._trajectories
    assert [len(r) for r in rows] == [4, 4]
    assert all(type(v) is float for r in rows for row in r for v in row)
    arrays = sec.trajectories
    assert sec.trajectories is arrays
    for pts, r in zip(arrays, rows):
        assert pts.shape == (4, 3) and pts.dtype == np.float64
        assert pts.tolist() == [list(row) for row in r]
    assert np.array_equal(sec.all_points(), np.vstack(arrays))


def test_short_and_failed_trajectories_keep_three_columns(monkeypatch):
    short = generate_section(3, 0.3, n_traj=2, n_crossings=40, seed=2, s_max=6.0)
    assert len(short.failures) == 2
    for pts in short.trajectories:
        assert pts.dtype == np.float64 and pts.shape[1] == 3 and pts.shape[0] < 40

    def fail(*args, **kwargs):
        raise RuntimeError("stepper gave up")

    monkeypatch.setattr(poincare, "integrate", fail)
    failed = generate_section(3, 0.3, n_traj=2, n_crossings=4, seed=2)
    assert failed.failures == ["trajectory 0: stepper gave up", "trajectory 1: stepper gave up"]
    assert [pts.shape for pts in failed.trajectories] == [(0, 3), (0, 3)]
    assert failed.all_points().shape == (0, 3)
    assert len(failed.initials) == 2


@pytest.mark.parametrize("rotated", [False, True])
def test_section_trajectories_are_float64_arrays(rotated):
    sec = generate_section(3, 0.3, n_traj=2, n_crossings=4, seed=2, rotated=rotated)
    for pts in sec.trajectories:
        assert pts.shape == (4, 3) and pts.dtype == np.float64


def test_rotated_section_contains_equator_orbit():
    sec = generate_section(
        3, 0.1, n_traj=2, n_crossings=10, seed=1, rotated=True, rtol=1e-9, atol=1e-9
    )
    pts = sec.all_points()
    assert len(pts) == 20
    assert np.all(np.abs(pts[:, 2]) <= 1.0 / (1.0 - 0.1) + 1e-9)


# -- occupancy ------------------------------------------------------------------


def _fake_section(trajectories, eps=0.2):
    return SectionData(3, eps, 0, 10, trajectories, [(0.0, 0.0)] * len(trajectories))


def test_occupancy_counts_cells():
    lim = 1.0 / (1.0 - 0.2)
    # two points in the same cell, one in another
    pts = np.array([[0.0, 0.01, 0.0], [0.0, 0.011, 0.0], [0.0, 3.0, 0.5]])
    sec = _fake_section([pts])
    assert occupancy(sec, grid=100) == 2 / 10000.0
    assert max_trajectory_occupancy(sec, grid=100) == 2 / 10000.0


def test_max_trajectory_occupancy_takes_maximum():
    a = np.array([[0.0, 0.1, 0.0]])
    b = np.array([[0.0, 1.0, 0.0], [0.0, 2.0, 0.1], [0.0, 3.0, -0.2]])
    sec = _fake_section([a, b])
    assert max_trajectory_occupancy(sec, grid=50) == 3 / 2500.0
    assert occupancy(sec, grid=50) == 4 / 2500.0


def _cells_numpy(pts, lim, grid):
    """The cell count as NumPy computes it, the reference."""
    if not len(pts):
        return 0
    ix = np.floor(pts[:, 1] / (2 * math.pi) * grid).astype(int) % grid
    iy = np.floor((pts[:, 2] + lim) / (2 * lim) * grid).astype(int)
    keep = (iy >= 0) & (iy < grid)
    return len(set(zip(ix[keep], iy[keep])))


@pytest.mark.parametrize("n, eps, seed", [(3, 0.3, 0), (2, 0.2, 7), (4, 0.15, 21)])
def test_occupancy_counts_cells_as_numpy_does(n, eps, seed):
    sec = generate_section(n, eps, n_traj=4, n_crossings=40, seed=seed, rtol=1e-8, atol=1e-8)
    lim = 1.0 / (1.0 - abs(eps))
    for grid in (7, 50, 100):
        assert occupancy(sec, grid) == _cells_numpy(sec.all_points(), lim, grid) / grid**2
        assert max_trajectory_occupancy(sec, grid) == max(
            _cells_numpy(t, lim, grid) for t in sec.trajectories
        ) / grid**2


def test_occupancy_empty_section():
    sec = _fake_section([])
    assert occupancy(sec) == 0.0
    assert max_trajectory_occupancy(sec) == 0.0


# -- closed geodesics ----------------------------------------------------------------


def test_closed_geodesics_order_two_planar_elliptic():
    found = find_closed_geodesics(2, 0.1, families=("planar",), max_period=1)
    assert found
    for g in found:
        assert g.classification == "elliptic"
        assert abs(g.det - 1.0) < 1e-4  # the return map is area-preserving
        assert abs(g.trace) < 2.0


def test_closed_geodesics_keep_their_monodromy_floats():
    """trace, det and == read the kept floats: the monodromy array is built
    only when read, det is a*d - b*c to rounding of np.linalg.det, and one
    changed float makes two results differ."""
    found = find_closed_geodesics(3, 0.2)
    again = find_closed_geodesics(3, 0.2)
    assert found == again
    for g in found:
        assert "_monodromy_array" not in vars(g)
        assert g.classification in ("elliptic", "hyperbolic")
        mono = g.monodromy
        assert mono.shape == (2, 2) and mono.dtype == np.float64
        assert g.trace == mono[0, 0] + mono[1, 1]
        assert abs(g.det - np.linalg.det(mono)) <= 4.5e-16
    assert found == again
    again[-1]._monodromy[1][0] = math.nextafter(again[-1]._monodromy[1][0], 0.0)
    assert found != again


def _differenced_return_jacobian(n, eps, phi, phi_dot, k, h=1e-6):
    jac = np.zeros((2, 2))
    for j, dx in enumerate(((h, 0.0), (0.0, h))):
        pp, dp, _ = return_map(n, eps, phi + dx[0], phi_dot + dx[1], k)
        pm, dm, _ = return_map(n, eps, phi - dx[0], phi_dot - dx[1], k)
        jac[:, j] = [((pp - pm + math.pi) % TWO_PI - math.pi) / (2 * h), (dp - dm) / (2 * h)]
    return jac


@pytest.mark.parametrize(
    "n, eps, phi, phi_dot, k",
    [(2, 0.15, 0.4, 0.2, 1), (2, 0.15, 0.4, 0.2, 2), (3, 0.1, 0.0, 0.0, 1)],
    ids=["k1", "k2", "meridian"],
)
def test_tangent_flow_jacobian_matches_differences(n, eps, phi, phi_dot, k):
    """The return-map Jacobian from the tangent flow agrees with central
    differences of return_map; the phi = 0 meridian swaps charts at the
    south pole and returns in the rotated chart."""
    exact = monodromy_matrix(n, eps, phi, phi_dot, k)
    differenced = _differenced_return_jacobian(n, eps, phi, phi_dot, k)
    assert np.allclose(exact, differenced, atol=1e-6)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n, eps", [(2, 0.15), (3, 0.1)])
def test_return_map_commutes_with_dihedral_symmetry(n, eps, k):
    """The rotation (phi, phi_dot) -> (phi + 2 pi/n, phi_dot) and the
    reflection (phi, phi_dot) -> (-phi, -phi_dot) commute with the return
    map; both have derivative +-I, so the Jacobian is unchanged."""
    phi, phi_dot = 0.37, 0.21
    ph, pd, s = return_map(n, eps, phi, phi_dot, k)
    jac = monodromy_matrix(n, eps, phi, phi_dot, k)
    for sign, shift in ((1, TWO_PI / n), (-1, 0.0)):
        ph_g, pd_g, s_g = return_map(n, eps, sign * phi + shift, sign * phi_dot, k)
        assert abs((ph_g - (sign * ph + shift) + math.pi) % TWO_PI - math.pi) <= 1e-10
        assert abs(pd_g - sign * pd) <= 1e-10
        assert abs(s_g - s) <= 1e-10
        jac_g = monodromy_matrix(n, eps, sign * phi + shift, sign * phi_dot, k)
        assert np.allclose(jac_g, jac, rtol=0, atol=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_closed_search_refines_one_seed_per_dihedral_class(monkeypatch, n):
    """Planar seeds k*pi/n form two D_n classes (k even, k odd) and the
    perpendicular seeds one, so Newton starts from three points."""
    from harmgeo import poincare

    starts = []

    def no_convergence(n_, eps, x0, k, **kw):
        starts.append(tuple(x0))
        return None

    monkeypatch.setattr(poincare, "_newton_fixed_point", no_convergence)
    with pytest.warns(RuntimeWarning, match="planar class"):
        assert find_closed_geodesics(n, 0.1) == []
    assert len(set(starts)) == 3


def test_closed_search_maps_class_result_to_each_seed(monkeypatch):
    """Each seed gets its class result moved by the seed's group element:
    a rotation for every planar seed and for perpendicular seeds with k
    even, a reflection then a rotation for perpendicular seeds with k odd."""
    from harmgeo import poincare

    n, offset = 3, np.array([0.01, 0.02])

    def fake_fixed_point(n_, eps, x0, k, **kw):
        return np.asarray(x0) + offset, 0.0, np.eye(2), 6.0

    monkeypatch.setattr(poincare, "_newton_fixed_point", fake_fixed_point)
    found = find_closed_geodesics(n, 0.1)
    expected = [("planar", k * math.pi / n, 1) for k in range(2 * n)] + [
        ("perpendicular", (k + 0.5) * math.pi / n, (-1) ** k) for k in range(2 * n)
    ]
    assert len(found) == len(expected)
    for g, (family, phi0, sign) in zip(found, expected):
        assert g.family == family and g.crossings == 1
        assert g.phi == pytest.approx(phi0 + sign * offset[0], abs=1e-14)
        assert g.phi_dot == pytest.approx(sign * offset[1], abs=1e-14)


@pytest.mark.parametrize(
    "args, kwargs",
    [((0, 0.1), {}), ((-2, 0.1), {}), ((2, 0.1), {"families": ("planr",)})],
    ids=["n0", "n-2", "family"],
)
def test_closed_search_rejects_invalid_arguments(args, kwargs):
    with pytest.raises(ValueError, match="must be"):
        find_closed_geodesics(*args, **kwargs)


def _parallel_curvature(eps, alpha):
    """Gaussian curvature of r = 1 + eps*cos(alpha), a surface of
    revolution about the x axis, on its parallel at polar angle alpha from
    that axis: the profile rho = r sin(alpha) from the axis and X = r
    cos(alpha) along it give K = X'(rho' X'' - rho'' X') / (rho (rho'^2 +
    X'^2)^2)."""
    c, s = math.cos(alpha), math.sin(alpha)
    r, r1, r2 = 1.0 + eps * c, -eps * s, -eps * c
    rho, rho1, rho2 = r * s, r1 * s + r * c, r2 * s + 2 * r1 * c - r * s
    x1, x2 = r1 * c - r * s, r2 * c - 2 * r1 * s - r * c
    return x1 * (rho1 * x2 - rho2 * x1) / (rho * (rho1 * rho1 + x1 * x1) ** 2)


@pytest.mark.parametrize("eps", [0.1, 0.2, 0.3])
def test_n1_closed_orbits_have_closed_forms(eps):
    """Sectoral n = 1 is r = 1 + eps*x, a surface of revolution about the x
    axis.  Its perpendicular orbit is the parallel where the distance rho
    = r sin(alpha) from the axis is stationary, 2 eps c^2 + c - eps = 0 for
    c = cos(alpha); it crosses the section at phi = alpha and 2 pi - alpha,
    has length 2 pi rho, and its Jacobi equation w'' + K w = 0 has constant
    K, so tr M = 2 cos(sqrt(K) L).  The planar orbits are meridians, whose
    neighbours close too: tr M = 2."""
    found = find_closed_geodesics(1, eps)
    assert [(g.family, g.crossings) for g in found] == [
        ("planar", 1), ("planar", 1), ("perpendicular", 1), ("perpendicular", 1)
    ]
    c = (math.sqrt(1.0 + 8.0 * eps * eps) - 1.0) / (4.0 * eps)
    alpha = math.acos(c)
    length = TWO_PI * (1.0 + eps * c) * math.sin(alpha)
    trace = 2.0 * math.cos(math.sqrt(_parallel_curvature(eps, alpha)) * length)
    for g, phi in zip(found[2:], (alpha, TWO_PI - alpha)):
        assert abs(g.phi - phi) <= 1e-9
        assert abs(g.length - length) <= 1e-9
        assert abs(g.trace - trace) <= 1e-9
    for g in found[:2]:
        assert abs(g.trace - 2.0) <= 1e-9


@pytest.mark.parametrize("eps, bound", [(0.1, 2e-8), (0.3, 6e-9)])
def test_n1_section_keeps_the_clairaut_integral(eps, bound):
    """Sectoral n = 1 is a surface of revolution about the x axis, so each
    trajectory keeps L_x, which on the equator is -r^2 theta_dot sin(phi)
    with r = 1 + eps cos(phi).  Over 5 trajectories of 50 crossings at seed
    3 and rtol 1e-10 its spread along a trajectory, the start included,
    measured 1.2e-8 at eps 0.1 and 3.0e-9 at eps 0.3."""
    sec = generate_section(1, eps, n_traj=5, n_crossings=50, seed=3, rtol=1e-10, atol=1e-10)
    assert not sec.failures
    for start, rows in zip(sec.initials, sec._trajectories):
        assert len(rows) == 50
        values = []
        for phi, phi_dot in [start, *((ph, pd) for _, ph, pd in rows)]:
            theta_dot = equator_state(1, eps, phi, phi_dot)[2]
            values.append(-((1.0 + eps * math.cos(phi)) ** 2) * theta_dot * math.sin(phi))
        assert max(values) - min(values) <= bound


@pytest.fixture(scope="module")
def closed_orbits():
    return {n: find_closed_geodesics(n, 0.1) for n in (2, 3)}


def test_closed_orbit_monodromy_is_area_preserving(closed_orbits):
    for found in closed_orbits.values():
        assert found
        for g in found:
            assert abs(g.det - 1.0) <= 1e-9


def test_symmetric_copies_share_their_trace(closed_orbits):
    """The six planar n = 3 orbits are copies under the dihedral symmetry,
    so their monodromies share one trace."""
    traces = [g.trace for g in closed_orbits[3] if g.family == "planar"]
    assert len(traces) == 6
    assert max(traces) - min(traces) <= 1e-9


# find_closed_geodesics(3, 0.1) with every seed refined by its own Newton
# search: (family, phi, phi_dot, period, length, trace, classification)
CLOSED_N3 = [
    ("planar", 0.0, 0.0, 1, 6.300870979816756,
     2.0180624850994455, "hyperbolic"),
    ("planar", 1.0471975511965976, 0.0, 1, 6.30087097981694,
     2.018062485095119, "hyperbolic"),
    ("planar", 2.0943951023931953, 0.0, 1, 6.30087097981663,
     2.0180624850988393, "hyperbolic"),
    ("planar", 3.141592653589793, 0.0, 1, 6.300870979817288,
     2.018062485096792, "hyperbolic"),
    ("planar", 4.1887902047863905, 0.0, 1, 6.300870979816631,
     2.0180624850987923, "hyperbolic"),
    ("planar", 5.235987755982989, 0.0, 1, 6.300870979816938,
     2.018062485095481, "hyperbolic"),
    ("perpendicular", 0.4329097941434438, 9.355102438338759e-13, 1, 6.339121529667256,
     1.879561914306492, "elliptic"),
    ("perpendicular", 1.661485308249757, -9.130156655628483e-13, 1, 6.3391215296672385,
     1.8795619143064592, "elliptic"),
    ("perpendicular", 2.52730489653664, 9.205590675008861e-13, 1, 6.339121529667245,
     1.8795619143065108, "elliptic"),
    ("perpendicular", 3.7558804106429498, -9.038692121526942e-13, 1, 6.339121529667244,
     1.8795619143064433, "elliptic"),
    ("perpendicular", 4.6216999989298335, 9.44200126722409e-13, 1, 6.3391215296672385,
     1.8795619143064624, "elliptic"),
    ("perpendicular", 5.850275513036149, -9.648680915621291e-13, 1, 6.3391215296672465,
     1.8795619143064608, "elliptic"),
]


def test_closed_orbits_match_per_seed_search(closed_orbits):
    """Copies built by the dihedral symmetry agree with the orbits each seed
    found by its own Newton search."""
    found = closed_orbits[3]
    assert len(found) == len(CLOSED_N3)
    for g, (family, phi, phi_dot, period, length, trace, kind) in zip(found, CLOSED_N3):
        assert (g.family, g.crossings, g.classification) == (family, period, kind)
        assert abs(g.phi - phi) <= 1e-11
        assert abs(g.phi_dot - phi_dot) <= 1e-11
        assert abs(g.length - length) <= 1e-11
        assert abs(g.trace - trace) <= 1e-9


# find_closed_geodesics(2, 0.3): the perpendicular orbits of period 3
# (family, phi, phi_dot, period, length, trace, classification)
CLOSED_N2_PERIOD3 = [
    ("perpendicular", 0.7692601202622555, -1.328273453157182e-11, 3, 17.0077404156827,
     2.49232919907755, "hyperbolic"),
    ("perpendicular", 2.372332533327538, 1.328273453157182e-11, 3, 17.0077404156827,
     2.49232919907755, "hyperbolic"),
    ("perpendicular", 3.9108527738520484, -1.328273453157182e-11, 3, 17.0077404156827,
     2.49232919907755, "hyperbolic"),
    ("perpendicular", 5.513925186917331, 1.328273453157182e-11, 3, 17.0077404156827,
     2.49232919907755, "hyperbolic"),
]


def test_period_three_perpendicular_orbits():
    found = [g for g in find_closed_geodesics(2, 0.3) if g.crossings > 1]
    assert len(found) == len(CLOSED_N2_PERIOD3)
    for g, (family, phi, phi_dot, period, length, trace, kind) in zip(
        found, CLOSED_N2_PERIOD3
    ):
        assert (g.family, g.crossings, g.classification) == (family, period, kind)
        assert abs(g.phi - phi) <= 1e-11
        assert abs(g.phi_dot - phi_dot) <= 1e-11
        assert abs(g.length - length) <= 1e-11
        assert abs(g.trace - trace) <= 1e-9


def _refine_seed_per_period(n, eps, phi0, max_period):
    """The seed refinement with one first pass of its own per period and
    every pass at 1e-12, whatever the class: the all-fine reference."""
    for k in range(1, max_period + 1):
        res = poincare._newton_fixed_point(n, eps, (phi0, 0.0), k)
        if res is not None:
            return (k, *res)
    return None


def _orbit_fields(found):
    return [
        (g.family, g.phi, g.phi_dot, g.crossings, g.length, g.residual,
         g.monodromy.tobytes())
        for g in found
    ]


@pytest.fixture
def runs(monkeypatch):
    """(how, n_crossings, rtol, stepper calls it made) of every integrate
    call the search makes."""
    made = []
    integrate = poincare.integrate

    def integrated(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        made.append(("integrate", kwargs["n_crossings"], kwargs["rtol"], traj.nfev))
        return traj

    monkeypatch.setattr(poincare, "integrate", integrated)
    return made


@pytest.mark.parametrize(
    "n, eps",
    [(1, 0.2), (2, 0.1), (2, 0.3), (3, 0.1), (2, 0.2), (3, 0.3), (4, 0.1), (5, 0.2), (6, 0.1)],
)
def test_shared_first_pass_matches_per_period_search(monkeypatch, n, eps):
    """The planar classes' one fine pass, and the shared screening run
    with its screened Newtons, give the orbits of a search with one first
    pass per period and every pass at 1e-12, for the planar classes too:
    planar orbits of period 1 bit for bit, perpendicular ones of period 1,
    which come through the hand-over, within 1e-10, and later ones within
    1e-8.  The period-3 orbits at (2, 0.3) and the period-4 pair at
    (2, 0.2), where tr M = 1.994, come through the hand-over too; at
    (4, 0.1) a period-4 Newton wanders and fails on both sides."""
    shared = find_closed_geodesics(n, eps)
    with monkeypatch.context() as m:
        m.setattr(poincare, "_refine_seed", _refine_seed_per_period)
        m.setattr(poincare, "_planar_class",
                  lambda n_, eps_, rep: _refine_seed_per_period(n_, eps_, rep, 4))
        alone = find_closed_geodesics(n, eps)
    assert [(g.family, g.crossings, g.classification) for g in shared] == [
        (g.family, g.crossings, g.classification) for g in alone
    ]
    for g, h in zip(shared, alone):
        if g.crossings == 1 and g.family == "planar":
            assert _orbit_fields([g]) == _orbit_fields([h])
        else:
            bound = 1e-10 if g.crossings == 1 else 1e-8
            assert abs(poincare._wrap(g.phi - h.phi)) <= bound
            assert abs(g.phi_dot - h.phi_dot) <= bound
            assert abs(g.length - h.length) <= bound


@pytest.mark.parametrize("n, eps, periods", [(2, 0.2, {1, 4}), (2, 0.3, {1, 3}), (3, 0.1, {1})])
def test_reported_orbits_come_from_fine_passes(monkeypatch, n, eps, periods):
    """Every class result's residual, monodromy and length are those of a
    fresh 1e-12 tangent run from its point, bit for bit, whatever period
    it closed at, the planar classes' one-pass results included; each
    reported orbit carries its class result's."""
    refined = []

    def spy(name):
        refine = getattr(poincare, name)

        def spied(*args):
            res = refine(*args)
            refined.append(res)
            return res

        monkeypatch.setattr(poincare, name, spied)

    spy("_planar_class")
    spy("_refine_seed")
    found = find_closed_geodesics(n, eps)
    results = [res for res in refined if res is not None]
    assert {k for k, *_ in results} == periods
    for k, (phi, phi_dot), residual, mono, length in results:
        ph, pd, s, jac = poincare._kth_return(n, eps, phi, phi_dot, k, tangent=True)
        assert residual == max(abs(poincare._wrap(ph - phi)), abs(pd - phi_dot))
        assert residual < 1e-10
        assert (s, jac) == (length, mono)
    for g in found:
        assert (g.crossings, g.residual, g.length, g._monodromy) in [
            (k, residual, length, mono) for k, _, residual, mono, length in results
        ]


def test_shared_first_pass_saves_integrations(monkeypatch, runs):
    """On sectoral(2, 0.1) the two planar classes close on their first
    pass, and the perpendicular class fails at periods 1-4 on its first
    pass.  One fine run per planar class gives its first return, as it
    does in a search with one first pass per period for every class; the
    perpendicular class makes one screening run through returns 1-4 at
    rtol 1e-6, where the all-fine shared run took one fine run through
    returns 1-4 and one run per period made six.  The stepper's calls:
    11,076 per period, 5,340 all-fine shared, 3,889 screened at 1e-8 from
    period 2, 2,988 screened at 1e-8 from period 1 and 2,268 screened at
    1e-6 from period 1."""
    with monkeypatch.context() as m:
        m.setattr(poincare, "_refine_seed", _refine_seed_per_period)
        find_closed_geodesics(2, 0.1)
    assert [(how, k, tol) for how, k, tol, _ in runs] == [
        ("integrate", k, 1e-12) for k in (1, 1, 1, 2, 3, 4)
    ]
    alone = [nfev for *_, nfev in runs]
    assert sum(alone) == 11076
    assert alone[0] + alone[1] + alone[5] == 5340 and alone[2] == 901
    runs.clear()
    find_closed_geodesics(2, 0.1)
    assert [(how, k, tol) for how, k, tol, _ in runs] == [
        ("integrate", 1, 1e-12), ("integrate", 1, 1e-12), ("integrate", 4, 1e-6),
    ]
    shared = [nfev for *_, nfev in runs]
    assert shared[:2] == alone[:2]
    # the perpendicular class: the screening run takes 1,030 calls through
    # returns 1-4, where the 1e-8 one took 1,750, a fine first return 901
    # and the all-fine shared run through returns 1-4 4,102
    assert alone[5] == 4102 and shared[2] == 1030
    assert sum(shared) == alone[0] + alone[1] + 1030 == 2268


def test_screened_search_rhs_calls(runs):
    """find_closed_geodesics(4, 0.1): the two planar classes close at
    period 1 and the perpendicular class fails every period, its period-4
    Newton wandering for 8 passes, all screened; the all-fine shared
    search made 51,572 stepper calls, the one screening periods >= 2 at
    1e-8 21,801 and the one screening from period 1 at 1e-8 20,516."""
    found = find_closed_geodesics(4, 0.1)
    assert [g.crossings for g in found] == [1] * 8
    assert sum(nfev for *_, nfev in runs) == 13239


# (n, eps) -> the planar class, k*pi/n for k odd (1) or even (0), whose one
# fine pass fails both convergence tests: |tr M| from 3.4e10 to 5.1e19
PLANAR_EDGE_FAILURES = {
    (4, 0.9): 1, (6, 0.9): 1, (8, 0.8): 1, (8, 0.9): 1, (10, 0.7): 1, (10, 0.8): 1,
    (10, 0.9): 1, (10, -0.9): 0, (11, 0.9): 1, (12, 0.6): 1, (12, 0.7): 1, (12, 0.8): 1,
    (12, 0.9): 1, (12, -0.9): 0,
}


@pytest.mark.parametrize(
    "n, eps",
    [(n, eps) for n in range(1, 7) for eps in (-0.2, 0.0, 0.1, 0.3)]
    + [(4, 0.9), (11, 0.9), (12, 0.6)],
)
def test_planar_classes_close_on_their_first_fine_pass(monkeypatch, runs, n, eps):
    """A planar seed lies on a mirror plane phi = k*pi/n, and the fixed
    set of an isometry is totally geodesic, so the seed's meridian geodesic
    closes at once: each planar class makes one fine run to its first
    return and no Newton step, and returns the seed itself, (k*pi/n, 0.0)
    exactly, at period 1.  At (4, 0.9), (11, 0.9) and (12, 0.6) the class
    phi = pi/n fails both convergence tests on that run and warns; it makes
    no other run, where a Newton search from the seed through periods 1-4
    made 32 to 34 more."""
    refined = []
    planar = poincare._planar_class

    def spied(*args):
        res = planar(*args)
        refined.append(res)
        return res

    monkeypatch.setattr(poincare, "_planar_class", spied)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        find_closed_geodesics(n, eps, families=("planar",))
    assert [(how, k, tol) for how, k, tol, _ in runs] == [("integrate", 1, 1e-12)] * 2
    failed = PLANAR_EDGE_FAILURES.get((n, eps))
    assert [res and res[:2] for res in refined] == [
        None if failed == parity else (1, (parity * math.pi / n, 0.0)) for parity in (0, 1)
    ]
    assert [(w.category, str(w.message).split(" did")[0]) for w in caught] == (
        [] if failed is None else [(RuntimeWarning, f"planar class phi = {math.pi / n!r}")]
    )


EDGE_GRID = [(n, eps) for n in range(1, 13) for eps in (0.5, 0.6, 0.7, 0.8, 0.9, -0.5, -0.7, -0.9)]


@pytest.mark.parametrize("n, eps", EDGE_GRID)
def test_planar_edge_census(n, eps):
    """Every planar class closes at period 1 at (k*pi/n, 0) exactly, so the
    search lists 2n planar orbits, save in the 14 cases of
    PLANAR_EDGE_FAILURES, where one class's fine pass fails both tests: there
    it lists the other class's n orbits and warns with the failed class's
    phi, the pass's residual and tr M, instead of dropping the class
    silently."""
    failed = PLANAR_EDGE_FAILURES.get((n, eps))
    if failed is None:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found = find_closed_geodesics(n, eps, families=("planar",))
    else:
        match = rf"planar class phi = {failed * math.pi / n!r} .*residual .*tr M"
        with pytest.warns(RuntimeWarning, match=match) as caught:
            found = find_closed_geodesics(n, eps, families=("planar",))
        assert len(caught) == 1
    assert [(g.family, g.crossings, g.phi, g.phi_dot) for g in found] == [
        ("planar", 1, k * math.pi / n, 0.0) for k in range(2 * n) if k % 2 != failed
    ]


@pytest.mark.parametrize("n, eps", [(8, 0.5), (9, 0.9)])
def test_strongly_hyperbolic_planar_orbits_are_kept(n, eps):
    """A planar orbit with |tr M| in the millions carries integration error
    along its unstable direction, which holds its residual above 1e-10
    while Newton's step from it is far below (1.3e-14 at (8, 0.5), where
    the residual is 1.1e-8): the fine pass is accepted
    on its step, and all 2n planar orbits of period 1 are kept, each at
    (k*pi/n, 0) exactly.  At (8, 0.5) the 8 with tr M about 7.0e6 were
    dropped by the residual test alone, at (9, 0.9) all 18."""
    found = find_closed_geodesics(n, eps, families=("planar",))
    assert [(g.crossings, g.phi, g.phi_dot) for g in found] == [
        (1, k * math.pi / n, 0.0) for k in range(2 * n)
    ]
    hyperbolic = [g for g in found if g.classification == "hyperbolic"]
    assert len(hyperbolic) == (n if n == 8 else 2 * n)
    assert min(abs(g.trace) for g in hyperbolic) > 6e6
    assert max(g.residual for g in hyperbolic) > 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_round_sphere_keeps_its_perpendicular_orbits(n):
    """On the round sphere every geodesic closes, M = I and M - I is
    singular, so Newton cannot step: the perpendicular class, screened from
    period 1, closes only because its residual at the screening tolerance
    is below the hand-over, 100 times that tolerance.  All 4n seeds give
    parabolic orbits of period 1."""
    found = find_closed_geodesics(n, 0.0)
    assert [(g.family, g.crossings, g.classification) for g in found] == [
        (family, 1, "parabolic") for family in ("planar", "perpendicular") for _ in range(2 * n)
    ]
    assert max(g.residual for g in found) < 1e-10


def test_newton_step_off_the_energy_shell_gives_up():
    """A Newton step to a point whose |phi_dot| exceeds the energy shell,
    where no section state exists, gives up at either tolerance, as a step
    above 0.5 does, instead of raising from equator_state."""
    n, eps, x0 = 2, 0.1, (0.0, 0.5)
    # with a zero Jacobian the step is the residual: (0, 0.45), within the
    # 0.5 cut, to phi_dot 0.95 above phi_dot_max(2, 0.1) = 1/1.1
    first = (0.0, 0.95, 6.3, [[0.0, 0.0], [0.0, 0.0]])
    assert 0.95 > phi_dot_max(n, eps)
    for rtol in (1e-12, poincare._SCREEN_TOL):
        assert poincare._newton_fixed_point(n, eps, x0, 1, first=first, rtol=rtol) is None


def test_off_shell_step_keeps_the_other_classes_orbits(monkeypatch):
    """At (7, -0.3) a 1e-8 screen with its 1e-6 hand-over steps the
    perpendicular class's period-3 Newton off the energy shell; that
    period gives up, and the search keeps the 14 planar orbits of period 1
    that (7, 0.3) finds too."""
    monkeypatch.setattr(poincare, "_SCREEN_TOL", 1e-8)
    for eps in (-0.3, 0.3):
        found = find_closed_geodesics(7, eps)
        assert [(g.family, g.crossings) for g in found] == [("planar", 1)] * 14


def _symmetry_key(g, shift):
    phi = (g.phi + shift) % TWO_PI
    return (g.family, g.crossings, g.classification, round(phi, 6) % round(TWO_PI, 6),
            round(g.phi_dot, 6)), phi, g


@pytest.mark.parametrize("n, eps", [(2, 0.2), (4, 0.1), (7, 0.3)])
def test_closed_orbits_at_minus_eps_are_shifted_by_pi_over_n(n, eps):
    """g_pp(phi; -eps) = g_pp(phi + pi/n; eps), so the orbits at -eps are
    those at eps with phi moved by pi/n: compared sorted by family, period,
    classification, phi mod 2pi and phi_dot to 6 decimals, they agree to
    within 1e-10 at period 1 and 1e-8 at period 4 (measured 6.3e-13 and
    1.8e-9)."""
    plus = sorted((_symmetry_key(g, 0.0) for g in find_closed_geodesics(n, eps)),
                  key=lambda t: t[0])
    minus = sorted((_symmetry_key(g, math.pi / n) for g in find_closed_geodesics(n, -eps)),
                   key=lambda t: t[0])
    assert plus and [a for a, _, _ in plus] == [b for b, _, _ in minus]
    for (_, phi, g), (_, psi, h) in zip(plus, minus):
        bound = 1e-10 if g.crossings == 1 else 1e-8
        assert abs(poincare._wrap(phi - psi)) <= bound
        assert abs(g.phi_dot - h.phi_dot) <= bound
        assert abs(g.length - h.length) <= bound


def _periods_tried(monkeypatch):
    """Each (period, first pass) Newton is started with, and its outcome."""
    tried = []
    newton = poincare._newton_fixed_point

    def spied(n, eps, x0, k, **kw):
        res = newton(n, eps, x0, k, **kw)
        tried.append((k, kw.get("first"), res is not None))
        return res

    monkeypatch.setattr(poincare, "_newton_fixed_point", spied)
    return tried


@pytest.mark.parametrize("case", ["run ends", "beyond budget"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_shared_run_without_kth_return(monkeypatch, tmp_path, capsys, case, k):
    """A k-th return that the perpendicular class's screening run lacks,
    or that lies beyond the budget 40k + 60 of k returns, raises the
    RuntimeError of a run of its own, and only once period k is tried;
    periods below k are unchanged.  The class screens from period 1, so
    each first pass, that of period 1 included, is that of a run of its own
    at the screening tolerance."""
    from harmgeo.cli import main
    from harmgeo.geodesic import Trajectory

    n, eps = 2, 0.1
    rep = 0.5 * math.pi / n  # the perpendicular class
    integrate = poincare.integrate

    def clipped(traj):
        crossings, jacs = traj.crossings.copy(), traj.crossing_jacobians
        if case == "run ends":
            crossings, jacs = crossings[:k - 1], jacs[:k - 1]
        else:
            crossings[k - 1, 0] = 40.0 * k + 60.0 + 1e-9
        return Trajectory(
            traj.s, traj.states, traj.h2, crossings, traj.chart_swaps, traj.status, jacs,
            traj.nfev, traj.steps, traj.rejected_steps,
        )

    def integrated(surf, y0, *args, **kwargs):
        traj = integrate(surf, y0, *args, **kwargs)
        # only the screening run, which is asked for all max_period returns
        return clipped(traj) if y0[1] == rep and kwargs["n_crossings"] == 4 else traj

    monkeypatch.setattr(poincare, "integrate", integrated)
    tried = _periods_tried(monkeypatch)
    with pytest.raises(RuntimeError, match=f"no {k}-th return within the arc-length budget"):
        find_closed_geodesics(n, eps)
    perpendicular = tried[2:]  # after the two planar classes, closed at period 1
    assert [(p, ok) for p, _, ok in tried[:2]] == [(1, True), (1, True)]
    assert [(p, ok) for p, _, ok in perpendicular] == [(p, False) for p in range(1, k)]
    for p, first, _ in perpendicular:
        tol = poincare._SCREEN_TOL
        alone = poincare._kth_return(n, eps, rep, 0.0, p, tangent=True, rtol=tol, atol=tol)
        assert first[:3] == alone[:3] and np.array_equal(first[3], alone[3])
    assert main(["--out-dir", str(tmp_path), "closed", "--n", str(n), "--eps", "1/10"]) == 2
    assert f"no {k}-th return" in capsys.readouterr().err


def test_failed_shared_run_falls_back_to_runs_per_period(monkeypatch):
    """A screening run that fails leaves every period to a first pass of
    its own, which gives the same orbits."""
    integrate = poincare.integrate
    failed = []

    def failing(*args, **kwargs):
        # the screening run: the first screened run, asked for all returns
        if kwargs["rtol"] == poincare._SCREEN_TOL and not failed:
            assert kwargs["n_crossings"] == 3
            failed.append(True)
            raise RuntimeError("chart rotation failed to leave the pole")
        return integrate(*args, **kwargs)

    monkeypatch.setattr(poincare, "integrate", failing)
    tried = _periods_tried(monkeypatch)
    found = find_closed_geodesics(2, 0.3, max_period=3)
    monkeypatch.undo()
    assert failed == [True]
    # the perpendicular class closes at period 3, each period from a first
    # pass of its own
    assert [(p, first is None, ok) for p, first, ok in tried[2:]] == [
        (1, True, False), (2, True, False), (3, True, True)
    ]
    assert _orbit_fields(found) == _orbit_fields(find_closed_geodesics(2, 0.3, max_period=3))


# (xi, xi') monodromies of the equator at eps 0.1 from a direct integration
# of the normal variational equation; traces 2.384045041074, 1.739700983031,
# 1.083750628209 and -1.271901220033
EQUATOR_MONODROMY = {
    2: [[1.1920225205398256, -0.6061035160784861],
        [-0.6944650184294032, 1.1920225205345578]],
    3: [[0.8698504915161986, 0.7321585019120956],
        [-0.3323872109279996, 0.869850491515211]],
    4: [[0.5418753141034265, 1.0483395082698168],
        [-0.6737999840624048, 0.5418753141051603]],
    7: [[-0.6359506100149557, -0.6880199294276707],
        [0.8656243753230826, -0.63595061001835]],
}


@pytest.mark.parametrize("n", sorted(EQUATOR_MONODROMY))
def test_equator_monodromy_shape(n):
    mat = equator_monodromy(n, 0.1)
    assert mat.shape == (2, 2)
    assert np.allclose(mat, EQUATOR_MONODROMY[n], rtol=0, atol=1e-9)
    assert abs(np.linalg.det(mat) - 1.0) <= 1e-9


def _full_revolution_monodromy(n, eps, rtol=1e-11, atol=1e-11):
    """The equator's monodromy integrated over the whole revolution, through
    the meridian section phi = 0."""
    from harmgeo.geodesic import R_SWAP, integrate
    from harmgeo.surface import PolarSurface

    traj = integrate(
        PolarSurface.sectoral(n, eps), [math.pi / 2, 0.0, 0.0, 1.0 / (1.0 + eps)],
        TWO_PI * (1.0 + abs(eps) * (n + 1)) + 1.0, n_crossings=1, rtol=rtol, atol=atol,
        renormalize=False, section_frame=np.asarray(R_SWAP).T,
        tangents=[[1, 0], [0, 0], [0, 1], [0, 0]],
    )
    return -traj.crossing_jacobians[0]


@pytest.mark.parametrize("eps", [0.1, 0.3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_equator_monodromy_is_power_of_one_period(n, eps):
    """The n-th power of the map over one period 2 pi/n of the curvature is
    the monodromy of the whole revolution, to integration error; n = 1
    integrates the revolution itself."""
    mat = equator_monodromy(n, eps)
    full = _full_revolution_monodromy(n, eps)
    if n == 1:
        assert mat.tobytes() == full.tobytes()
    else:
        assert np.allclose(mat, full, rtol=0, atol=1e-10)


# -- writers ------------------------------------------------------------------------


def test_section_writers(tmp_path):
    sec = generate_section(2, 0.1, n_traj=2, n_crossings=5, seed=0, rtol=1e-8, atol=1e-8)

    csv_path = tmp_path / "s.csv"
    section_to_csv(sec, csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("traj_id,crossing_index,s,")
    assert len(lines) == 1 + 10

    json_path = tmp_path / "s.json"
    section_to_json(sec, json_path)
    blob = json.loads(json_path.read_text())
    assert blob["n"] == 2 and len(blob["trajectories"]) == 2

    svg_path = tmp_path / "s.svg"
    section_to_svg(sec, svg_path)
    body = svg_path.read_text()
    assert body.startswith("<svg") or "<svg" in body
    assert body.count("circle") >= 10
