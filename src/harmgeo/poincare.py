"""Poincare sections, return maps, and closed-geodesic hunting on sectoral
surfaces.

The section is the equator theta = pi/2 crossed with theta increasing; a
section point is (phi mod 2*pi, phi_dot).  On the section the energy 2H = 1
determines theta_dot up to the sign fixed by the crossing direction, so the
return map is an area-preserving map of the (phi, phi_dot) cylinder.
"""

from __future__ import annotations

import math
import operator
import os
from typing import TYPE_CHECKING, Optional

from .dop853 import check_tolerances, solve_ivp
from .geodesic import (
    R_SWAP, _as_array, _flat, _Floats, _KeptFloatsEq, chart_to_body, integrate, normalize_speed,
)
from .surface import PolarSurface

if TYPE_CHECKING:
    import numpy as np

TWO_PI = 2.0 * math.pi
# body -> rotated section frame: the quarter turn about x that puts the
# equator geodesic on the section
_ROTATED_FRAME = tuple(zip(*R_SWAP))


def phi_dot_max(n: int, eps: float) -> float:
    """Largest |phi_dot| of a unit-speed equator-tangent state.

    The bound is 1/sqrt(max_c g_pp) with g_pp = (1+eps*c)^2 +
    eps^2 n^2 (1-c^2); the maximum sits at c = 1 for small eps and moves to
    the interior point c = 1/(eps*(n^2-1)) once eps >= 1/(n^2-1).  It
    depends on |eps| only: g_pp(phi; -eps) = g_pp(phi + pi/n; eps).
    """
    eps = abs(float(eps))
    m = n * n - 1
    if m == 0 or eps < 1.0 / m:
        return 1.0 / (1.0 + eps)
    return math.sqrt(m / (n * n * (1.0 + eps * eps * m)))


def _shell_theta_dot(n: int, eps: float, phi: float, phi_dot: float):
    """theta_dot >= 0 of the unit-speed state at a section point, or None
    when |phi_dot| exceeds the energy shell there."""
    c = math.cos(n * phi)
    r = 1.0 + eps * c
    g_pp = r * r + (eps * n * math.sin(n * phi)) ** 2
    rest = 1.0 - g_pp * phi_dot * phi_dot
    if rest < -1e-12:
        return None
    return math.sqrt(max(rest, 0.0)) / r


def equator_state(n: int, eps: float, phi: float, phi_dot: float) -> list:
    """Unit-speed state on the section (theta_dot >= 0 branch), as a list of
    four floats."""
    theta_dot = _shell_theta_dot(n, eps, phi, phi_dot)
    if theta_dot is None:
        raise ValueError(f"|phi_dot| = {abs(phi_dot)} exceeds the energy shell")
    return [math.pi / 2, float(phi), theta_dot, float(phi_dot)]


def _equator_state_tangents(n: int, eps: float, y) -> list:
    """4x2 derivative of :func:`equator_state` by (phi, phi_dot) at its
    output y: theta_dot follows the energy shell 2H = 1."""
    _, phi, td, pd = y
    c = math.cos(n * phi)
    r = 1.0 + eps * c
    r_p = -eps * n * math.sin(n * phi)
    r_pp = -eps * n * n * c
    g_pp = r * r + r_p * r_p
    td_phi = -r_p * (r * td * td + (r + r_pp) * pd * pd) / (r * r * td)
    td_pd = -g_pp * pd / (r * r * td)
    return [[0.0, 0.0], [1.0, 0.0], [td_phi, td_pd], [0.0, 1.0]]


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------


class SectionData(_KeptFloatsEq):
    """A seeded section run.  Each trajectory's crossings are kept as rows
    of floats, and ``trajectories`` builds its arrays from them on its
    first read, so a caller that reads none of them never imports NumPy.
    The writers, the occupancies and ``==`` read the rows."""

    n: int
    eps: float
    seed: int
    n_crossings: int
    # list of (k, 3) arrays: s, phi mod 2pi, phi_dot
    trajectories: list = _Floats((3,), each=True)
    initials: list  # list of (phi0, phi_dot0)
    failures: list

    def __init__(self, n, eps, seed, n_crossings, trajectories, initials, failures=None):
        self.n, self.eps, self.seed, self.n_crossings = n, eps, seed, n_crossings
        self.trajectories, self.initials = trajectories, initials
        self.failures = [] if failures is None else failures

    def all_points(self) -> np.ndarray:
        return _as_array([row for rows in self._trajectories for row in rows], (3,))


_M64 = 2**64 - 1


def _philox(seed: int, k: int):
    """The 64-bit words of Philox4x64-10 keyed by (seed mod 2**64, k), as
    NumPy's ``Philox(key=[seed, k])`` gives them (Salmon, Moraes, Dror &
    Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC'11).  The
    256-bit counter starts at 0 and steps before each block of four."""
    counter = 0
    while True:
        counter += 1
        c0, c1, c2, c3 = ((counter >> shift) & _M64 for shift in (0, 64, 128, 192))
        k0, k1 = seed & _M64, k
        for _ in range(10):
            p0 = 0xD2E7470EE14C6C93 * c0
            p1 = 0xCA5A826395121157 * c2
            c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _M64, (p0 >> 64) ^ c3 ^ k1, p0 & _M64
            k0 = (k0 + 0x9E3779B97F4A7C15) & _M64
            k1 = (k1 + 0xBB67AE8584CAA73B) & _M64
        yield from (c0, c1, c2, c3)


def _uniform(words, lo: float, hi: float) -> float:
    """The next draw in [lo, hi) from a word stream, as NumPy's
    ``Generator.uniform`` makes it: the top 53 bits as a fraction."""
    return lo + (hi - lo) * ((next(words) >> 11) * 2.0**-53)


def _run_trajectory(args):
    """One seeded trajectory of a section run (top level for pickling): its
    crossings as rows of floats (s, phi mod 2pi, phi_dot)."""
    (n, eps, seed, k, n_crossings, s_max, rtol, atol, rotated) = args
    words = _philox(seed, k)
    surf = PolarSurface.sectoral(n, eps)
    frame = None
    if rotated:
        frame = _ROTATED_FRAME
        phi0 = _uniform(words, 0.0, TWO_PI)
        alpha = _uniform(words, 0.05, math.pi - 0.05)
        # state written in the section frame, then mapped to the body chart
        y_frame = [math.pi / 2, phi0, math.sin(alpha), math.cos(alpha)]
        y0 = chart_to_body(y_frame, R_SWAP)
        y0 = normalize_speed(surf, y0)
        initial = (phi0, y_frame[3])
    else:
        pdm = phi_dot_max(n, eps)
        phi0 = _uniform(words, 0.0, TWO_PI)
        pd0 = _uniform(words, -pdm, pdm)
        y0 = equator_state(n, eps, phi0, pd0)
        initial = (phi0, pd0)
    try:
        traj = integrate(
            surf,
            y0,
            s_max,
            n_crossings=n_crossings,
            rtol=rtol,
            atol=atol,
            section_frame=frame,
        )
    except Exception as exc:  # report, keep going
        return k, [], f"trajectory {k}: {exc}", initial
    # Python's float % is np.mod's, bit for bit
    rows = [(s, ph % TWO_PI, pd) for s, ph, pd in traj._crossings]
    failure = None
    if len(rows) < n_crossings:
        failure = (
            f"trajectory {k}: only {len(rows)}/{n_crossings} crossings "
            f"within s = {s_max}"
        )
    return k, rows, failure, initial


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the system has
    one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def generate_section(
    n: int,
    eps: float,
    n_traj: int = 20,
    n_crossings: int = 200,
    seed: int = 0,
    s_max: Optional[float] = None,
    rtol: float = 1e-10,
    atol: float = 1e-10,
    rotated: bool = False,
    workers: int = 1,
) -> SectionData:
    """Seeded random initial conditions on the section, iterated forward.

    Each trajectory gets an independent counter-based stream, Philox4x64-10
    keyed by (seed mod 2**64, trajectory index), so results are reproducible
    and insensitive to the number of trajectories requested or the worker
    count.  The stream is computed in pure Python and equals NumPy's
    ``Generator(Philox(key=[seed, k]))`` draw for draw.  ``seed`` is an
    integer in [-2**63, 2**63); a negative seed gives the stream of
    seed + 2**64, as in NumPy.  With ``rotated`` the section plane is
    rotated a quarter turn about the x axis, which puts the equator geodesic
    itself onto the section.
    """
    # checked here: a failing integrate only fails its own trajectory
    key = operator.index(seed)
    if not -(2**63) <= key < 2**63:
        raise ValueError(f"seed = {seed} must lie in [-2**63, 2**63)")
    if n_traj < 1:
        raise ValueError(f"n_traj = {n_traj} must be at least 1")
    if n_crossings < 1:
        raise ValueError(f"n_crossings = {n_crossings} must be at least 1")
    check_tolerances(rtol, atol)
    if s_max is None:
        s_max = 8.0 * n_crossings + 100.0
    elif not 0.0 < s_max < math.inf:
        raise ValueError(f"arc length s_max = {s_max} must be finite and positive")
    jobs = [
        (n, float(eps), key, k, n_crossings, s_max, rtol, atol, rotated)
        for k in range(n_traj)
    ]
    # a fork-started pool launches all max_workers processes at once, and
    # more than the CPUs this process may use only contend for them
    workers = min(workers, n_traj, _usable_cpus())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_trajectory, jobs))
    else:
        results = [_run_trajectory(j) for j in jobs]

    results.sort(key=lambda r: r[0])
    return SectionData(
        n, float(eps), seed, n_crossings,
        trajectories=[rows for _, rows, _, _ in results],
        initials=[initial for _, _, _, initial in results],
        failures=[failure for _, _, failure, _ in results if failure],
    )


def _phi_dot_lim(eps: float) -> float:
    """1/(1-|eps|), a bound on |phi_dot| of every crossing: on the equator
    g_pp >= r^2 >= (1-|eps|)^2."""
    return 1.0 / (1.0 - abs(eps))


def _cells(rows, lim: float, grid: int) -> int:
    """The number of grid cells that rows (s, phi, phi_dot) visit, phi_dot
    cut to [-lim, lim)."""
    cells = set()
    for _, ph, pd in rows:
        iy = math.floor((pd + lim) / (2 * lim) * grid)
        if 0 <= iy < grid:
            cells.add((math.floor(ph / TWO_PI * grid) % grid, iy))
    return len(cells)


def occupancy(section: SectionData, grid: int = 100) -> float:
    """Fraction of (phi, phi_dot) grid cells visited by all section points.

    The phi_dot axis spans [-1/(1-|eps|), 1/(1-|eps|)], a bound valid for
    every crossing at the given eps, so occupancies at different eps compare
    fairly.
    """
    lim = _phi_dot_lim(section.eps)
    rows = (row for rows in section._trajectories for row in rows)
    return _cells(rows, lim, grid) / float(grid * grid)


def max_trajectory_occupancy(section: SectionData, grid: int = 100) -> float:
    """Largest single-trajectory cell-occupancy fraction.

    A trajectory on an invariant curve occupies a one-dimensional set of
    cells; a chaotic one fills a two-dimensional region, so this number
    separates the regular and irregular regimes cheaply and deterministically.
    """
    lim = _phi_dot_lim(section.eps)
    if not section._trajectories:
        return 0.0
    return max(_cells(rows, lim, grid) for rows in section._trajectories) / float(
        grid * grid
    )


# ---------------------------------------------------------------------------
# return map and closed geodesics
# ---------------------------------------------------------------------------


def return_map(
    n: int,
    eps: float,
    phi: float,
    phi_dot: float,
    k: int = 1,
    rtol: float = 1e-12,
    atol: float = 1e-12,
) -> tuple[float, float, float]:
    """k-th return of a section point; returns (phi, phi_dot, arc length)."""
    return _kth_return(n, eps, phi, phi_dot, k, rtol=rtol, atol=atol)[:3]


def _budget(k: int) -> float:
    """Arc-length budget for k returns."""
    return 40.0 * k + 60.0


def _section_run(n, eps, phi, phi_dot, k, tangent=False, rtol=1e-12, atol=1e-12):
    """Integration from a section point with the arc-length budget of k
    returns, stopped at its k-th return; the tangent flow rides along when
    ``tangent`` is set."""
    surf = PolarSurface.sectoral(n, eps)
    y0 = equator_state(n, eps, phi, phi_dot)
    return integrate(
        surf, y0, _budget(k), n_crossings=k, rtol=rtol, atol=atol,
        renormalize=False,
        tangents=_equator_state_tangents(n, eps, y0) if tangent else None,
    )


def _return_of(traj, k):
    """(phi, phi_dot, arc length, 2x2 Jacobian rows or None) of the k-th
    return of a run, which must lie within k returns' budget.  It reads the
    run's floats, not its arrays."""
    crossings, jacobians = traj._crossings, traj._crossing_jacobians
    if len(crossings) < k or crossings[k - 1][0] > _budget(k):
        raise RuntimeError(f"no {k}-th return within the arc-length budget")
    s, ph, pd = crossings[k - 1]
    jac = None if jacobians is None else jacobians[k - 1]
    return float(ph), float(pd), float(s), jac


def _kth_return(n, eps, phi, phi_dot, k, tangent=False, rtol=1e-12, atol=1e-12):
    """(phi, phi_dot, arc length, 2x2 Jacobian or None) of the k-th return,
    the Jacobian from the tangent flow when ``tangent`` is set."""
    return _return_of(_section_run(n, eps, phi, phi_dot, k, tangent, rtol, atol), k)


def _wrap(dphi: float) -> float:
    return (dphi + math.pi) % TWO_PI - math.pi


class ClosedGeodesic(_KeptFloatsEq):
    """A closed orbit of the return map.  The monodromy is kept as its
    floats, and ``trace``, ``det`` and ``classification`` read them: only
    reading ``monodromy`` builds an array."""

    family: str
    phi: float
    phi_dot: float
    crossings: int  # period measured in section returns
    length: float  # period measured in arc length
    monodromy: np.ndarray = _Floats((2,))  # shape (2, 2)
    residual: float

    def __init__(self, family, phi, phi_dot, crossings, length, monodromy, residual):
        self.family, self.phi, self.phi_dot = family, phi, phi_dot
        self.crossings, self.length = crossings, length
        self.monodromy, self.residual = monodromy, residual

    @property
    def trace(self) -> float:
        a, _, _, d = _flat(self._monodromy)
        return float(a + d)

    @property
    def det(self) -> float:
        a, b, c, d = _flat(self._monodromy)
        return float(a * d - b * c)

    @property
    def margin(self) -> float:
        """Stability margin |tr M| - 2: negative for elliptic orbits,
        positive for hyperbolic ones."""
        return abs(self.trace) - 2.0

    @property
    def classification(self) -> str:
        if abs(self.margin) < 1e-6:
            return "parabolic"
        return "elliptic" if self.margin < 0.0 else "hyperbolic"


def _solve2(a, b):
    """x with a @ x = b for a 2x2 matrix a given by its rows, by Gaussian
    elimination with partial pivoting as LAPACK's gesv does; None when a
    is singular."""
    (a00, a01), (a10, a11) = a
    b0, b1 = b
    if abs(a10) > abs(a00):
        a00, a01, a10, a11, b0, b1 = a10, a11, a00, a01, b1, b0
    if a00 == 0.0:
        return None
    lower = a10 / a00
    u11 = a11 - lower * a01
    if u11 == 0.0:
        return None
    x1 = (b1 - lower * b0) / u11
    return (b0 - a01 * x1) / a00, x1


def _mat2_mul(a, b):
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in (0, 1)] for i in (0, 1)]


def _mat2_power(a, n):
    """a^n for n >= 1 by repeated squaring."""
    result = None
    while True:
        n, bit = divmod(n, 2)
        if bit:
            result = a if result is None else _mat2_mul(result, a)
        if not n:
            return result
        a = _mat2_mul(a, a)


# Screening tolerance (rtol = atol) of the Newton passes of the
# perpendicular class.
# A pass far from a fixed point only decides a step, a rejection or the
# hand-over, so it need only be as accurate as the residual is large
# (inexact Newton), and DOP853 takes about rtol**(-1/8) steps, so a 1e-6
# pass costs about 5.6x fewer than a 1e-12 one.  A screened Newton hands
# over to 1e-12 passes once both residual components fall below
# 100 * _SCREEN_TOL, so the coarse residual that triggers it is not
# integration noise.
_SCREEN_TOL = 1e-6


def _newton_fixed_point(n, eps, x0, k, tol=1e-10, first=None, rtol=1e-12):
    """Newton iteration for a period-k point of the return map.

    Each step is one integration with the tangent flow at rtol = atol =
    ``rtol``, giving the residual and the exact Jacobian together;
    ``first``, the k-th return of x0 as :func:`_kth_return` gives it at that
    tolerance, replaces the first integration.  Passes coarser than 1e-12
    (those of the perpendicular class, at _SCREEN_TOL) screen: they only
    step or reject, and once both residual components fall below
    100 * _SCREEN_TOL the same point is evaluated again at 1e-12 and Newton
    goes on at that tolerance.  So only a 1e-12 pass can converge, and
    every result comes from one.  A 1e-12 pass converges when both residual
    components are below ``tol``, or when both components of the Newton
    step from it are: integration error can hold the residual above
    ``tol`` while the step is below it (1.04e-10 and 2.7e-11 for the
    period-3 perpendicular orbit at n = 4, eps = 0.15, the one such orbit
    in 180 cases: n = 1..7 at |eps| <= 0.4 and n = 1..12 at |eps| >= 0.5).
    Either way the point of that pass is returned, with its residual,
    monodromy and length.  A step above 0.5, a step to a point whose
    |phi_dot| exceeds the energy shell (no section point lies there, see
    :func:`equator_state`) or a singular Jacobian gives up at any
    tolerance, and so does the 30th pass if it has not converged: on the
    round sphere, where M = I, a seed closes only if its first residual
    passes the convergence test, or the hand-over when screened.  Returns
    (x, residual, monodromy, length) from the converged pass, or None; x
    is a pair of floats and the monodromy a 2x2 list of rows.
    """
    phi, phi_dot = (float(v) for v in x0)
    for _ in range(30):
        if first is None:
            ph, pd, length, jac = _kth_return(
                n, eps, phi, phi_dot, k, tangent=True, rtol=rtol, atol=rtol
            )
        else:
            (ph, pd, length, jac), first = first, None
        f0, f1 = _wrap(ph - phi), pd - phi_dot
        # each compared alone: a NaN residual is never converged
        if rtol == 1e-12:
            if abs(f0) < tol and abs(f1) < tol:
                return (phi, phi_dot), max(abs(f0), abs(f1)), jac, length
        elif abs(f0) < 100 * _SCREEN_TOL and abs(f1) < 100 * _SCREEN_TOL:
            rtol = 1e-12
            continue
        (j00, j01), (j10, j11) = jac
        step = _solve2(((j00 - 1.0, j01), (j10, j11 - 1.0)), (-f0, -f1))
        if step is None:
            return None
        if rtol == 1e-12 and abs(step[0]) < tol and abs(step[1]) < tol:
            return (phi, phi_dot), max(abs(f0), abs(f1)), jac, length
        if abs(step[0]) > 0.5 or abs(step[1]) > 0.5:  # diverging away from the seed
            return None
        phi, phi_dot = phi + step[0], phi_dot + step[1]
        if _shell_theta_dot(n, eps, phi, phi_dot) is None:  # no section point there
            return None
    return None


def monodromy_matrix(n, eps, phi, phi_dot, k) -> np.ndarray:
    """Jacobian of the k-th return map at a section point, from the tangent
    flow (at a fixed point: the monodromy)."""
    return _as_array(_kth_return(n, eps, phi, phi_dot, k, tangent=True)[3], (2,))


def _half_map(surf, span, rtol=1e-12, atol=1e-12):
    """(H, l): the map H of (w, w') by the Jacobi equation along the chart's
    equator of ``surf`` from phi = 0 to ``span``, as rows, and its arc
    length l (:meth:`PolarSurface.equator_jacobi_rhs`)."""
    sol = solve_ivp(surf.equator_jacobi_rhs, (0.0, span), [1.0, 0.0, 0.0, 1.0, 0.0],
                    rtol=rtol, atol=atol)
    w0, u0, w1, u1, length = sol.y
    return ((w0, w1), (u0, u1)), length


def _period_map(h):
    """M = (S H^-1 S) H with S = diag(1, -1): the map over a whole period
    of a Hill equation whose coefficient is even about both ends of H's
    half period, where (w, w')(t) -> (w, -w')(-t) makes S H^-1 S the map
    over the other half.  H^-1 = adj H as det H = 1, and M[0][0] and
    M[1][1] are the same float."""
    (h00, h01), (h10, h11) = h
    a = h00 * h11 + h01 * h10
    return [[a, 2.0 * h01 * h11], [2.0 * h00 * h10, a]]


def _planar_class(n, eps, rep):
    """(1, (rep, 0.0), 0.0, monodromy, length) of the planar class on the
    mirror plane phi = ``rep``, which is the chart's equator in the chart
    with chart->body rows (cos rep, 0, sin rep), (sin rep, 0, -cos rep),
    (0, 1, 0) (R_SWAP at rep = 0); it starts on the section at phi = 0, and
    phi = pi is the half period."""
    c, s = math.cos(rep), math.sin(rep)
    surf = PolarSurface.sectoral(n, eps).in_chart(((c, 0.0, s), (s, 0.0, -c), (0.0, 1.0, 0.0)))
    h, length = _half_map(surf, math.pi)
    return 1, (rep, 0.0), 0.0, _period_map(h), 2.0 * length


def _refine_seed(n, eps, phi0, max_period):
    """(period, x, residual, monodromy, length) of the perpendicular class
    at the first period in 1..max_period for which Newton from (phi0, 0)
    converges, or None.

    One tangent run from the seed at _SCREEN_TOL = 1e-6, with the budget of
    max_period returns, gives period k's screened Newton (see
    :func:`_newton_fixed_point`) return k as its first pass.  Up to its k-th
    return the run takes the steps of a run that stops there, save for a
    step that the shorter budget would have clipped.  A k-th return that
    the run lacks, or that lies beyond the budget of k returns, raises as a
    run of its own would, and only when period k is tried.  A run that fails
    leaves every period to a first pass of its own.  A period whose Newton
    steps off the energy shell fails like one that steps too far.
    """
    tol = _SCREEN_TOL
    try:
        run = _section_run(n, eps, phi0, 0.0, max_period, tangent=True, rtol=tol, atol=tol)
    except RuntimeError:
        run = None
    for k in range(1, max_period + 1):
        first = None if run is None else _return_of(run, k)
        res = _newton_fixed_point(n, eps, (phi0, 0.0), k, first=first, rtol=tol)
        if res is not None:
            return (k, *res)
    return None


def find_closed_geodesics(
    n: int, eps: float, families=("planar", "perpendicular"), max_period: int = 4
) -> list[ClosedGeodesic]:
    """Fixed points of the return map from symmetry seeds.

    Planar seeds sit on the meridian symmetry planes phi = k*pi/n; the
    perpendicular family starts midway between them.  The dihedral group
    D_n acts on section points by the rotation (phi, phi_dot) ->
    (phi + 2*pi/n, phi_dot) and the reflection (phi, phi_dot) -> (-phi,
    -phi_dot), and the return map commutes with both.  Both have derivative
    +-I, so Newton started from g*x0 is g applied to Newton started from x0,
    with the same period, length, residual and monodromy.  The 4n seeds form
    three classes: planar k even, planar k odd, and every perpendicular seed
    (the reflection sends k to -k-1).  One seed per class is refined, and
    every other seed's result is the class result mapped by its group
    element.  Seeds keep their order, and a result equal to an earlier one
    to 6 decimals is dropped.

    A planar seed lies on a mirror plane, whose fixed set is totally
    geodesic, so it is itself the period-1 fixed point, reported with
    residual 0.0.  Its Jacobi equation w'' + K*w = 0 is a Hill equation
    whose coefficient is even about the seed and about the plane's other
    equator crossing, so one integration over that half period at rtol
    1e-12 gives the length and the monodromy (:func:`_planar_class`), and
    no class is lost however unstable.  The perpendicular class tries
    periods 1..max_period, with first passes from one screening run at rtol
    1e-6, and hands over below residual 1e-4 to 1e-12 passes (see
    :func:`_refine_seed`); its orbits agree with an all-fine search to
    within 1e-10 at period 1 and 1e-8 at periods >= 2.  Their residual,
    monodromy and length come from a 1e-12 pass, and a strongly hyperbolic
    orbit accepted on its step can report a residual above 1e-10.  A Newton
    step off the energy shell, where no section point lies, ends that
    period's search for the class instead of the whole search.
    """
    if n < 1:
        raise ValueError(f"n = {n} must be at least 1")
    if max_period < 1:
        raise ValueError(f"max_period = {max_period} must be at least 1")
    for family in families:
        if family not in ("planar", "perpendicular"):
            raise ValueError(f"family {family!r} must be 'planar' or 'perpendicular'")
    # (family, seed phi, class representative's phi, sign): the seed is the
    # representative reflected when the sign is -1, then rotated
    seeds = []
    if "planar" in families:
        seeds += [
            ("planar", k * math.pi / n, (k % 2) * math.pi / n, 1) for k in range(2 * n)
        ]
    if "perpendicular" in families:
        seeds += [
            ("perpendicular", (k + 0.5) * math.pi / n, 0.5 * math.pi / n, (-1) ** k)
            for k in range(2 * n)
        ]
    refined = {}
    out: list[ClosedGeodesic] = []
    seen = set()
    for family, phi0, rep, sign in seeds:
        if (family, rep) not in refined:
            refined[family, rep] = (_planar_class(n, eps, rep) if family == "planar"
                                    else _refine_seed(n, eps, rep, max_period))
        if refined[family, rep] is None:
            continue
        k, x, resid, mono, length = refined[family, rep]
        phi = sign * x[0] + (phi0 - sign * rep)
        phi_dot = sign * x[1]
        key = (round(phi % TWO_PI, 6), round(phi_dot, 6), k)
        if key in seen:
            continue
        seen.add(key)
        out.append(
            ClosedGeodesic(
                family=family,
                phi=float(phi % TWO_PI),
                phi_dot=float(phi_dot),
                crossings=k,
                length=length,
                monodromy=mono,
                residual=resid,
            )
        )
    return out


def equator_monodromy(
    n: int, eps: float, rtol: float = 1e-12, atol: float = 1e-12
) -> np.ndarray:
    """Monodromy of the equator itself over one full revolution, acting on
    the normal variation (xi, xi') = (delta theta, delta theta_dot).

    Along the equator the Jacobi equation xi'' + K*xi = 0 has K of period
    2*pi/n in phi, even about phi = 0 and phi = pi/n, the traces of mirror
    planes: a Hill equation, so the map P over one period is
    :func:`_period_map` of the map over phi in [0, pi/n], and the monodromy
    over the revolution is P^n (Floquet; Magnus & Winkler, *Hill's
    Equation*, 1966).  At phi = 0, where r_phi = 0, (w, w') = r*(xi, xi'),
    so P acts on (xi, xi') as on (w, w').  The half map's |det - 1| is the
    error figure: det(P^n), formed from entries as large as tr P^n, is
    rounding noise once they are large.  At the default rtol 1e-12 the
    entries lie within 2.5e-11 of a 2.3e-14 integration of the whole
    revolution for n = 1..7 and eps = 0.1, 0.3 (2.0e-10 at rtol 1e-11).
    """
    h, _ = _half_map(PolarSurface.sectoral(n, eps), math.pi / n, rtol, atol)
    return _as_array(_mat2_power(_period_map(h), n), (2,))


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------


def section_to_csv(section: SectionData, path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["traj_id", "crossing_index", "s", "phi", "phi_dot"])
        for k, rows in enumerate(section._trajectories):
            for i, (s, ph, pd) in enumerate(rows):
                w.writerow([k, i, f"{s:.12g}", f"{ph:.12g}", f"{pd:.12g}"])


def section_to_json(section: SectionData, path) -> None:
    import json

    data = {
        "n": section.n,
        "eps": section.eps,
        "seed": section.seed,
        "n_crossings": section.n_crossings,
        "initials": [[float(a), float(b)] for a, b in section.initials],
        "failures": section.failures,
        "trajectories": [
            [[float(v) for v in row] for row in rows] for rows in section._trajectories
        ],
    }
    with open(path, "w") as fh:
        json.dump(data, fh)


_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
)


def section_to_svg(section: SectionData, path, size: int = 800) -> None:
    """Deterministic scatter plot of the section, one color per trajectory."""
    lim = _phi_dot_lim(section.eps)
    margin = 40
    span = size - 2 * margin
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{span}" height="{span}" '
        'fill="none" stroke="black"/>',
    ]
    for k, rows in enumerate(section._trajectories):
        color = _PALETTE[k % len(_PALETTE)]
        for _, ph, pd in rows:
            x = margin + span * (ph / TWO_PI)
            y = margin + span * (1.0 - (pd + lim) / (2 * lim))
            if margin <= y <= size - margin:
                lines.append(
                    f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1" fill="{color}"/>'
                )
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
