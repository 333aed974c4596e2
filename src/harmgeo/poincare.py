"""Poincare sections, return maps, and closed-geodesic hunting on sectoral
surfaces.

The section is the equator theta = pi/2 crossed with theta increasing; a
section point is (phi mod 2*pi, phi_dot).  On the section the energy 2H = 1
determines theta_dot up to the sign fixed by the crossing direction, so the
return map is an area-preserving map of the (phi, phi_dot) cylinder.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geodesic import integrate, normalize_speed
from .surface import PolarSurface

TWO_PI = 2.0 * math.pi


def phi_dot_max(n: int, eps: float) -> float:
    """Largest |phi_dot| of a unit-speed equator-tangent state.

    The bound is 1/sqrt(max_c g_pp) with g_pp = (1+eps*c)^2 +
    eps^2 n^2 (1-c^2); the maximum sits at c = 1 for small eps and moves to
    the interior point c = 1/(eps*(n^2-1)) once eps >= 1/(n^2-1).
    """
    eps = float(eps)
    m = n * n - 1
    if m == 0 or eps < 1.0 / m:
        return 1.0 / (1.0 + eps)
    return math.sqrt(m / (n * n * (1.0 + eps * eps * m)))


def equator_state(n: int, eps: float, phi: float, phi_dot: float) -> np.ndarray:
    """Unit-speed state on the section (theta_dot >= 0 branch)."""
    c = math.cos(n * phi)
    r = 1.0 + eps * c
    g_pp = r * r + (eps * n * math.sin(n * phi)) ** 2
    rest = 1.0 - g_pp * phi_dot * phi_dot
    if rest < -1e-12:
        raise ValueError(f"|phi_dot| = {abs(phi_dot)} exceeds the energy shell")
    theta_dot = math.sqrt(max(rest, 0.0)) / r
    return np.array([math.pi / 2, phi, theta_dot, phi_dot])


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------


@dataclass
class SectionData:
    n: int
    eps: float
    seed: int
    n_crossings: int
    trajectories: list  # list of (k, 3) arrays: s, phi mod 2pi, phi_dot
    initials: list  # list of (phi0, phi_dot0)
    failures: list = field(default_factory=list)

    def all_points(self) -> np.ndarray:
        if not self.trajectories:
            return np.zeros((0, 3))
        return np.vstack(self.trajectories)


def _run_trajectory(args):
    """One seeded trajectory of a section run (top level for pickling)."""
    (n, eps, seed, k, n_crossings, s_max, rtol, atol, rotated) = args
    rng = np.random.Generator(np.random.Philox(key=[seed, k]))
    surf = PolarSurface.sectoral(n, eps)
    from .geodesic import R_SWAP, chart_to_body, normalize_speed

    frame = None
    if rotated:
        frame = np.asarray(R_SWAP).T  # body -> rotated section frame
        phi0 = rng.uniform(0.0, TWO_PI)
        alpha = rng.uniform(0.05, math.pi - 0.05)
        # state written in the section frame, then mapped to the body chart
        y_frame = [math.pi / 2, phi0, math.sin(alpha), math.cos(alpha)]
        y0 = chart_to_body(y_frame, np.asarray(R_SWAP))
        y0 = normalize_speed(surf, y0)
        initial = (phi0, y_frame[3])
    else:
        pdm = phi_dot_max(n, eps)
        phi0 = rng.uniform(0.0, TWO_PI)
        pd0 = rng.uniform(-pdm, pdm)
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
        return k, np.zeros((0, 3)), f"trajectory {k}: {exc}", initial
    pts = traj.crossings.copy()
    failure = None
    if len(pts) < n_crossings:
        failure = (
            f"trajectory {k}: only {len(pts)}/{n_crossings} crossings "
            f"within s = {s_max}"
        )
    if len(pts):
        pts[:, 1] = np.mod(pts[:, 1], TWO_PI)
    return k, pts, failure, initial


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

    Each trajectory gets an independent counter-based stream (Philox keyed by
    (seed, trajectory index)), so results are reproducible and insensitive to
    the number of trajectories requested or the worker count.  With
    ``rotated`` the section plane is rotated a quarter turn about the x axis,
    which puts the equator geodesic itself onto the section.
    """
    # checked here: a failing integrate only fails its own trajectory
    if n_crossings < 1:
        raise ValueError(f"n_crossings = {n_crossings} must be at least 1")
    if s_max is None:
        s_max = 8.0 * n_crossings + 100.0
    jobs = [
        (n, float(eps), seed, k, n_crossings, s_max, rtol, atol, rotated)
        for k in range(n_traj)
    ]
    workers = min(workers, n_traj)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # a fork-started pool launches all max_workers processes at once
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_trajectory, jobs))
    else:
        results = [_run_trajectory(j) for j in jobs]

    out = SectionData(n, float(eps), seed, n_crossings, [], [])
    for _, pts, failure, initial in sorted(results, key=lambda r: r[0]):
        out.trajectories.append(pts)
        out.initials.append(initial)
        if failure:
            out.failures.append(failure)
    return out


def _cells(pts: np.ndarray, lim: float, grid: int) -> int:
    if not len(pts):
        return 0
    ix = np.floor(pts[:, 1] / TWO_PI * grid).astype(int) % grid
    iy = np.floor((pts[:, 2] + lim) / (2 * lim) * grid).astype(int)
    keep = (iy >= 0) & (iy < grid)
    return len(set(zip(ix[keep], iy[keep])))


def occupancy(section: SectionData, grid: int = 100) -> float:
    """Fraction of (phi, phi_dot) grid cells visited by all section points.

    The phi_dot axis spans [-1/(1-eps), 1/(1-eps)], a bound valid for every
    crossing at the given eps, so occupancies at different eps compare fairly.
    """
    lim = 1.0 / (1.0 - section.eps)
    return _cells(section.all_points(), lim, grid) / float(grid * grid)


def max_trajectory_occupancy(section: SectionData, grid: int = 100) -> float:
    """Largest single-trajectory cell-occupancy fraction.

    A trajectory on an invariant curve occupies a one-dimensional set of
    cells; a chaotic one fills a two-dimensional region, so this number
    separates the regular and irregular regimes cheaply and deterministically.
    """
    lim = 1.0 / (1.0 - section.eps)
    if not section.trajectories:
        return 0.0
    return max(_cells(p, lim, grid) for p in section.trajectories) / float(
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
    surf = PolarSurface.sectoral(n, eps)
    y0 = equator_state(n, eps, phi, phi_dot)
    traj = integrate(
        surf, y0, 40.0 * k + 60.0, n_crossings=k, rtol=rtol, atol=atol,
        renormalize=False,
    )
    if len(traj.crossings) < k:
        raise RuntimeError(f"no {k}-th return within the arc-length budget")
    s, ph, pd = traj.crossings[k - 1]
    return float(ph), float(pd), float(s)


def _wrap(dphi: float) -> float:
    return (dphi + math.pi) % TWO_PI - math.pi


@dataclass
class ClosedGeodesic:
    family: str
    phi: float
    phi_dot: float
    crossings: int  # period measured in section returns
    length: float  # period measured in arc length
    monodromy: np.ndarray
    residual: float

    @property
    def trace(self) -> float:
        return float(self.monodromy[0, 0] + self.monodromy[1, 1])

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.monodromy))

    @property
    def classification(self) -> str:
        t = abs(self.trace)
        if abs(t - 2.0) < 1e-6:
            return "parabolic"
        return "elliptic" if t < 2.0 else "hyperbolic"


def _newton_fixed_point(n, eps, x0, k, tol=1e-10, max_iter=30):
    """Newton iteration for a period-k point of the return map."""
    x = np.array(x0, dtype=float)

    def fval(x):
        ph, pd, _ = return_map(n, eps, x[0], x[1], k)
        return np.array([_wrap(ph - x[0]), pd - x[1]])

    for _ in range(max_iter):
        f = fval(x)
        if np.max(np.abs(f)) < tol:
            return x, float(np.max(np.abs(f)))
        h = 1e-7
        jac = np.zeros((2, 2))
        for j in range(2):
            dx = np.zeros(2)
            dx[j] = h
            jac[:, j] = (fval(x + dx) - fval(x - dx)) / (2 * h)
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            return None
        if np.max(np.abs(step)) > 0.5:  # diverging away from the seed
            return None
        x = x + step
    return None


def monodromy_matrix(n, eps, phi, phi_dot, k, h=1e-6) -> np.ndarray:
    """Central-difference Jacobian of the k-th return map at a fixed point."""
    jac = np.zeros((2, 2))
    for j, dx in enumerate(((h, 0.0), (0.0, h))):
        pp, pdp, _ = return_map(n, eps, phi + dx[0], phi_dot + dx[1], k)
        pm, pdm, _ = return_map(n, eps, phi - dx[0], phi_dot - dx[1], k)
        jac[0, j] = _wrap(pp - pm) / (2 * h)
        jac[1, j] = (pdp - pdm) / (2 * h)
    return jac


def find_closed_geodesics(
    n: int, eps: float, families=("planar", "perpendicular"), max_period: int = 4
) -> list[ClosedGeodesic]:
    """Newton-refined fixed points of the return map from symmetry seeds.

    Planar seeds sit on the meridian symmetry planes phi = k*pi/n; the
    perpendicular family starts midway between them.  Each seed is tried with
    increasing period until Newton converges.
    """
    out: list[ClosedGeodesic] = []
    seen = set()
    seeds = []
    if "planar" in families:
        seeds += [("planar", k * math.pi / n) for k in range(2 * n)]
    if "perpendicular" in families:
        seeds += [("perpendicular", (k + 0.5) * math.pi / n) for k in range(2 * n)]
    for family, phi0 in seeds:
        for k in range(1, max_period + 1):
            res = _newton_fixed_point(n, eps, (phi0, 0.0), k)
            if res is None:
                continue
            x, resid = res
            key = (round(x[0] % TWO_PI, 6), round(x[1], 6), k)
            if key in seen:
                break
            seen.add(key)
            mono = monodromy_matrix(n, eps, x[0], x[1], k)
            _, _, length = return_map(n, eps, x[0], x[1], k)
            out.append(
                ClosedGeodesic(
                    family=family,
                    phi=float(x[0] % TWO_PI),
                    phi_dot=float(x[1]),
                    crossings=k,
                    length=length,
                    monodromy=mono,
                    residual=resid,
                )
            )
            break
    return out


def equator_monodromy(
    n: int, eps: float, rtol: float = 1e-11, atol: float = 1e-11
) -> np.ndarray:
    """Monodromy of the equator itself over one full revolution.

    The equator never crosses the standard section, so its stability is read
    from the normal variational flow: with xi the normal displacement,
    xi'' = A(s) xi + B(s) xi' where A = -d_theta Gamma^theta_phiphi * phi_dot^2
    and B = -2 Gamma^theta_thetaphi * phi_dot along theta = pi/2.
    """
    from scipy.integrate import solve_ivp

    surf = PolarSurface.sectoral(n, eps)

    def rhs(s, y):
        pd, a, b = surf.equator_nve_coeffs(y[0])
        return [pd, y[2], a * y[1] + b * y[2], y[4], a * y[3] + b * y[4]]

    def lap(s, y):
        return y[0] - TWO_PI

    lap.terminal = True
    lap.direction = 1.0

    y0 = [0.0, 1.0, 0.0, 0.0, 1.0]
    sol = solve_ivp(
        rhs, (0.0, 1e4), y0, method="DOP853", rtol=rtol, atol=atol, events=[lap]
    )
    if not sol.t_events[0].size:
        raise RuntimeError("equator revolution not completed")
    yf = sol.y_events[0][0]
    return np.array([[yf[1], yf[3]], [yf[2], yf[4]]])


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------


def section_to_csv(section: SectionData, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["traj_id", "crossing_index", "s", "phi", "phi_dot"])
        for k, pts in enumerate(section.trajectories):
            for i, (s, ph, pd) in enumerate(pts):
                w.writerow([k, i, f"{s:.12g}", f"{ph:.12g}", f"{pd:.12g}"])


def section_to_json(section: SectionData, path) -> None:
    data = {
        "n": section.n,
        "eps": section.eps,
        "seed": section.seed,
        "n_crossings": section.n_crossings,
        "initials": [[float(a), float(b)] for a, b in section.initials],
        "failures": section.failures,
        "trajectories": [
            [[float(v) for v in row] for row in pts] for pts in section.trajectories
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
    lim = 1.0 / (1.0 - section.eps)
    margin = 40
    span = size - 2 * margin
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{span}" height="{span}" '
        'fill="none" stroke="black"/>',
    ]
    for k, pts in enumerate(section.trajectories):
        color = _PALETTE[k % len(_PALETTE)]
        for _, ph, pd in pts:
            x = margin + span * (ph / TWO_PI)
            y = margin + span * (1.0 - (pd + lim) / (2 * lim))
            if margin <= y <= size - margin:
                lines.append(
                    f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1" fill="{color}"/>'
                )
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
