"""Geodesic flow on polar surfaces: high-accuracy integration with automatic
chart rotation near the coordinate poles, plus the exact positivity
certificate for the normal restoring force on sectoral surfaces.

States are (theta, phi, theta_dot, phi_dot); the independent variable is arc
length once the initial velocity is normalized to 2H = 1.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .algebra import Poly
from .surface import PolarSurface
from .trigring import sectoral_christoffels

POLE_GUARD = 0.05
DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-12
SOLVER = "DOP853"  # solve_ivp method
CHUNK = 50.0  # arc length integrated per solve_ivp call

# chart-to-chart rotation used to step away from a coordinate pole:
# p_old = R_SWAP @ p_new moves the old pole to the new equator
R_SWAP = ((1.0, 0.0, 0.0), (0.0, 0.0, -1.0), (0.0, 1.0, 0.0))


@dataclass
class Trajectory:
    """Sampled geodesic in the body chart, plus equator-crossing events."""

    s: np.ndarray
    states: np.ndarray  # shape (m, 4): theta, phi, theta_dot, phi_dot (body)
    h2: np.ndarray  # 2H sampled in the integration chart
    crossings: np.ndarray  # shape (k, 3): s, phi, phi_dot at theta = pi/2
    chart_swaps: int
    status: str  # "completed", or "crossings" when n_crossings stopped it

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["s", "theta", "phi", "theta_dot", "phi_dot", "h2"])
            for k in range(len(self.s)):
                w.writerow(
                    [f"{self.s[k]:.12g}"]
                    + [f"{x:.12g}" for x in self.states[k]]
                    + [f"{self.h2[k]:.12g}"]
                )


# ---------------------------------------------------------------------------
# chart transfer helpers
# ---------------------------------------------------------------------------


def _embed(y):
    """(theta, phi, td, pd) -> unit sphere position and velocity."""
    th, ph, td, pd = y
    st, ct = math.sin(th), math.cos(th)
    cp, sp = math.cos(ph), math.sin(ph)
    n = np.array([st * cp, st * sp, ct])
    e_t = np.array([ct * cp, ct * sp, -st])
    e_p = np.array([-st * sp, st * cp, 0.0])
    return n, td * e_t + pd * e_p


def _project(n, v):
    """Unit sphere position/velocity -> (theta, phi, td, pd)."""
    rho = math.hypot(n[0], n[1])
    th = math.atan2(rho, n[2])
    ph = math.atan2(n[1], n[0])
    st, ct = math.sin(th), math.cos(th)
    cp, sp = math.cos(ph), math.sin(ph)
    td = v[0] * ct * cp + v[1] * ct * sp - v[2] * st
    pd = (-v[0] * sp + v[1] * cp) / st
    return np.array([th, ph, td, pd])


def _chart_to_chart(y, rot):
    """Transfer a state across a chart rotation with p_old = rot @ p_new."""
    n, v = _embed(y)
    rt = np.asarray(rot).T
    return _project(rt @ n, rt @ v)


def chart_to_body(y, m):
    """State in a chart with chart->body matrix m, expressed in the body
    chart."""
    if m is None:
        return np.asarray(y, dtype=float)
    n, v = _embed(y)
    mm = np.asarray(m)
    return _project(mm @ n, mm @ v)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def normalize_speed(surface: PolarSurface, y):
    """Scale the velocity so 2H = 1 (arc-length parametrization)."""
    y = np.asarray(y, dtype=float).copy()
    h2 = surface.hamiltonian2(*y)
    if h2 <= 0:
        raise ValueError("zero velocity cannot be normalized")
    y[2:] /= math.sqrt(h2)
    return y


def integrate(
    surface: PolarSurface,
    y0,
    s_max: float,
    *,
    n_crossings: Optional[int] = None,
    n_samples: int = 0,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    renormalize: bool = True,
    section_frame=None,
) -> Trajectory:
    """Integrate a geodesic up to arc length ``s_max``.

    When the trajectory approaches a coordinate pole (theta within
    POLE_GUARD), the surface is re-expressed in a rotated chart and
    integration continues seamlessly; a start that is already that close to
    a pole begins in the rotated chart.  A surface built in a rotated chart
    starts in that chart; states are always reported in the body chart.

    Equator crossings (body z decreasing through zero, i.e. theta increasing
    through pi/2) are always recorded; when ``n_crossings`` is given the run
    stops after that many.  ``section_frame`` (a 3x3 body-to-frame rotation)
    moves the section plane: crossings are then detected on, and reported in,
    that frame's equator instead of the body equator.
    """
    if s_max <= 0:
        raise ValueError(f"arc length s_max = {s_max} must be positive")
    if n_crossings is not None and n_crossings < 1:
        raise ValueError(f"n_crossings = {n_crossings} must be at least 1")
    y = np.asarray(y0, dtype=float)

    # chart -> body rotation (None = identity/body chart)
    m = None if surface.rot is None else np.asarray(surface.rot).reshape(3, 3)
    chart = surface
    swaps = 0

    def swap_chart(y, m):
        y = _chart_to_chart(y, R_SWAP)
        m = (np.eye(3) if m is None else m) @ np.asarray(R_SWAP)
        if not POLE_GUARD * 2 < y[0] < math.pi - POLE_GUARD * 2:
            raise RuntimeError("chart rotation failed to leave the pole")
        return y, m, surface.in_chart(m)

    # the pole events fire on entering the guard band, so a start inside it
    # moves to the rotated chart before the first step
    if not POLE_GUARD < y[0] < math.pi - POLE_GUARD:
        y, m, chart = swap_chart(y, m)
        swaps += 1
    if renormalize:
        y = normalize_speed(chart, y)
    sframe = None if section_frame is None else np.asarray(section_frame, dtype=float)

    sample_s = np.linspace(0.0, s_max, n_samples) if n_samples else np.array([])
    samples = []
    h2s = []
    crossings = []
    s_now = 0.0
    status = "completed"

    def pole_n(s, yy):
        return yy[0] - POLE_GUARD

    pole_n.terminal = True
    pole_n.direction = -1.0

    def pole_s(s, yy):
        return yy[0] - (math.pi - POLE_GUARD)

    pole_s.terminal = True
    pole_s.direction = 1.0

    while s_now < s_max - 1e-12:
        mm = np.asarray(m) if m is not None else np.eye(3)
        row_z = mm[2] if sframe is None else sframe[2] @ mm

        def section(s, yy, row_z=row_z):
            st = math.sin(yy[0])
            n = (
                row_z[0] * st * math.cos(yy[1])
                + row_z[1] * st * math.sin(yy[1])
                + row_z[2] * math.cos(yy[0])
            )
            return n

        section.terminal = False
        section.direction = -1.0

        s_end = min(s_max, s_now + CHUNK)
        sol = solve_ivp(
            chart.rhs,
            (s_now, s_end),
            y,
            method=SOLVER,
            rtol=rtol,
            atol=atol,
            dense_output=True,
            events=[pole_n, pole_s, section],
        )
        if not sol.success:
            raise RuntimeError(f"integration failed: {sol.message}")

        seg_end = sol.t[-1]

        # record crossings (converted to body coordinates)
        done = False
        for s_ev, y_ev in zip(sol.t_events[2], sol.y_events[2]):
            if s_ev < 1e-9:  # initial condition sitting on the section
                continue
            if sframe is None:
                yb = chart_to_body(y_ev, m)
            else:
                n_c, v_c = _embed(y_ev)
                yb = _project(sframe @ (mm @ n_c), sframe @ (mm @ v_c))
            crossings.append((s_ev, yb[1], yb[3]))
            if n_crossings is not None and len(crossings) >= n_crossings:
                seg_end = s_ev
                done = True
                status = "crossings"
                break

        # record samples inside this segment: the windows [s_now, seg_end)
        # tile the run, and only the last one is closed
        if n_samples:
            if done or seg_end >= s_max - 1e-12:
                upper = sample_s <= seg_end + 1e-12
            else:
                upper = sample_s < seg_end
            for sv in sample_s[(sample_s >= s_now) & upper]:
                yy = sol.sol(min(max(sv, sol.t[0]), sol.t[-1]))
                samples.append((sv, chart_to_body(yy, m)))
                h2s.append(chart.hamiltonian2(*yy))

        if done:
            s_now = seg_end
            break

        hit_pole = len(sol.t_events[0]) > 0 or len(sol.t_events[1]) > 0
        s_now = sol.t[-1]
        y = sol.y[:, -1]

        if hit_pole:
            y, m, chart = swap_chart(y, m)
            swaps += 1

    if n_samples:
        s_arr = np.array([s for s, _ in samples])
        st_arr = np.array([st for _, st in samples])
        h2_arr = np.array(h2s)
    else:
        s_arr = np.array([s_now])
        st_arr = chart_to_body(y, m)[None, :]
        h2_arr = np.array([chart.hamiltonian2(*y)])

    return Trajectory(
        s=s_arr,
        states=st_arr,
        h2=h2_arr,
        crossings=np.array(crossings).reshape(-1, 3),
        chart_swaps=swaps,
        status=status,
    )


def sphere_closure_error(theta0=1.1, phi0=0.3, alpha=0.7, s=None) -> float:
    """Distance between start and end of a great circle after one full turn
    (an integrator self-test: the exact answer is zero at s = 2*pi)."""
    sphere = PolarSurface.sectoral(2, 0.0)
    y0 = [theta0, phi0, math.cos(alpha), math.sin(alpha) / math.sin(theta0)]
    y0 = normalize_speed(sphere, y0)
    traj = integrate(sphere, y0, s if s is not None else 2 * math.pi, n_samples=2)
    n0, _ = _embed(y0)
    n1, _ = _embed(traj.states[-1])
    return float(np.linalg.norm(n1 - n0))


def clairaut_values(surface: PolarSurface, traj: Trajectory) -> np.ndarray:
    """g_phiphi * phi_dot along a trajectory (conserved on zonal surfaces)."""
    out = []
    for st in traj.states:
        g = surface.metric_at(st[0], st[1])
        out.append(g.g_pp * st[3])
    return np.array(out)


# ---------------------------------------------------------------------------
# exact positivity certificate for the normal restoring force
# ---------------------------------------------------------------------------
#
# On a sectoral surface the combination
#
#   f(u, c) = -Gamma^theta_phiphi * det(g) / (r * cos(theta) * sin^3(theta))
#
# with u = sin(theta), c = cos(n*phi) turns out to be a polynomial in u and c.
# Positivity of f on the whole surface forces normal perturbations of
# phi-monotone geodesics back toward the equator; the critical deformation
# eps*(n) is where min_c f(1, c) first touches zero.


def _lemma1_numerator(n: int, eps: Fraction):
    """-(Gamma^theta_phiphi * det) as a TrigPoly; it is odd in cos(theta)."""
    ch = sectoral_christoffels(n, eps)
    return -(ch["tpp"].num)


def lemma1_poly(n: int, eps) -> dict[int, Poly]:
    """Exact expansion f(u, c) = sum_k u^k * (poly in c).

    The exponent support is {0} (the round-sphere term, identically 1)
    together with {n, 2n-2, 2n, 3n-2, 3n} (collapsed when n = 2).
    """
    eps = Fraction(eps)
    g = _lemma1_numerator(n, eps)

    # g = A + B*v with A = 0; extract B from the v = +1 / v = -1 values
    gv1 = _subs_v(g, 1)
    gv2 = _subs_v(g, -1)
    a_part = _scale(gv1 + gv2, Fraction(1, 2))
    b_part = _scale(gv1 - gv2, Fraction(1, 2))
    if a_part:
        raise AssertionError("numerator is not odd in cos(theta)")

    # organize B as c-degree -> coefficient polynomial in u (s must be absent)
    by_c: dict[int, dict[int, Fraction]] = {}
    for (iu, jv, kc, ls), co in b_part.terms.items():
        if jv or ls:
            raise AssertionError("unexpected v or s content")
        by_c.setdefault(kc, {})[iu] = by_c.setdefault(kc, {}).get(iu, Fraction(0)) + co
    max_c = max(by_c) if by_c else 0
    b_cols = []
    for k in range(max_c + 1):
        d = by_c.get(k, {})
        mx = max(d) if d else 0
        b_cols.append(Poly([d.get(i, Fraction(0)) for i in range(mx + 1)]))

    # divide by r = 1 + (eps u^n) c  (linear in c, exact)
    a_u = Poly.monomial(n, eps)
    quot = [Poly.zero()] * max(len(b_cols) - 1, 1)
    rem = list(b_cols)
    for k in range(len(rem) - 1, 0, -1):
        qk = rem[k].exact_div(a_u)
        quot[k - 1] = qk
        rem[k - 1] = rem[k - 1] - qk  # subtract qk * 1 (the constant term of r)
        rem[k] = Poly.zero()
    if not rem[0].is_zero():
        raise AssertionError("radius does not divide the numerator")

    # divide by u^3 and collect exponents
    out: dict[int, Poly] = {}
    for k, q in enumerate(quot):
        for i, co in enumerate(q.coeffs):
            if not co:
                continue
            if i < 3:
                raise AssertionError("u^3 does not divide the numerator")
            e = i - 3
            cur = out.get(e, Poly.zero())
            cs = list(cur.coeffs) + [Fraction(0)] * max(0, k + 1 - len(cur.coeffs))
            cs[k] = cs[k] + co
            out[e] = Poly(cs)

    allowed = {0, n, 2 * n - 2, 2 * n, 3 * n - 2, 3 * n}
    if set(out) - allowed:
        raise AssertionError(f"unexpected exponents {set(out) - allowed}")
    return out


def _subs_v(g, v_val):
    """Substitute a value for v = cos(theta), keeping u symbolic."""
    from .trigring import TrigPoly

    out = TrigPoly()
    for (iu, jv, kc, ls), co in g.terms.items():
        out._accumulate((iu, 0, kc, ls), co * Fraction(v_val) ** jv)
    return out


def _scale(g, fac):
    from .trigring import TrigPoly

    out = TrigPoly()
    for k, co in g.terms.items():
        out._accumulate(k, co * fac)
    return out


def lemma1_value(n: int, eps, u0, c0) -> Fraction:
    """Exact f(u0, c0) for rational arguments."""
    eps, u0, c0 = Fraction(eps), Fraction(u0), Fraction(c0)
    poly = lemma1_poly(n, eps)
    return sum((pc(c0) * u0**e for e, pc in poly.items()), Fraction(0))


def lemma1_equator_cubic(n: int, eps) -> Poly:
    """f(1, c) as an exact cubic polynomial in c."""
    poly = lemma1_poly(n, Fraction(eps))
    total = Poly.zero()
    for _, pc in poly.items():
        total = total + pc
    return total


def _min_on_interval(p: Poly) -> float:
    """Numeric minimum of a low-degree polynomial on [-1, 1]."""
    cs = [float(c) for c in p.coeffs]
    cands = [-1.0, 1.0]
    dcs = [k * c for k, c in enumerate(cs)][1:]
    roots = np.roots(dcs[::-1]) if len(dcs) > 1 else []
    for rt in np.atleast_1d(roots):
        if abs(rt.imag) < 1e-12 and -1.0 <= rt.real <= 1.0:
            cands.append(float(rt.real))
    val = lambda x: sum(c * x**k for k, c in enumerate(cs))
    return min(val(x) for x in cands)


def nve_dual_residual(n: int, eps, n_checks: int = 64) -> float:
    """Cross-validate the exact z-domain variational equation against a
    direct numeric linearization in arc length.

    Two copies of the normal variational flow along the equator are
    integrated side by side over one full circuit:

    * the reference copy uses Christoffel symbols from the numeric kernels
      (the theta-derivative by central differences), knowing nothing of the
      symbolic pipeline;
    * the second copy evaluates the exact rational coefficients p(z), q(z)
      transported through z = eps*cos(n*phi(s)), with the transport data
      (phi_dot, z_dot, z_ddot) taken from the exact equatorial metric
      polynomial.

    Returns the maximum relative disagreement of (xi, xi') sampled along the
    circuit.  Both solutions start from (xi, xi') = (1, 0) at phi = pi/(2n),
    away from the coefficient poles z = +-eps.
    """
    from scipy.integrate import solve_ivp

    eps_f = Fraction(eps)
    e = float(eps_f)
    from .nve import equatorial_nve

    data = equatorial_nve(n, eps_f)
    surf = PolarSurface.sectoral(n, e)
    gpp = data.gpp_equator  # exact g_phiphi as a polynomial in z
    dgpp = gpp.derivative()
    p_rf, q_rf = data.p, data.q

    def rhs(s, y):
        phi = y[0]
        c = math.cos(n * phi)
        sn = math.sin(n * phi)
        z = e * c

        # reference: kernel Christoffels
        pd, a_ref, b_ref = surf.equator_nve_coeffs(phi)

        # exact pipeline transported to arc length
        G = gpp(z)
        pd2 = 1.0 / math.sqrt(G)
        dG_ds = dgpp(z) * (-e * n * sn * pd2)
        pdd = -0.5 * dG_ds / (G * math.sqrt(G))
        zdot = -e * n * sn * pd2
        zdd = -e * n * (n * c * pd2 * pd2 + sn * pdd)
        q_s = q_rf(z) * zdot * zdot
        if abs(zdot) > 1e-12:
            p_s = (zdd - p_rf(z) * zdot * zdot) / zdot
        else:  # turning point: the xi' coefficient vanishes with z_dot
            p_s = 0.0

        return [
            pd,
            y[2],
            a_ref * y[1] + b_ref * y[2],
            y[4],
            -q_s * y[3] + p_s * y[4],
        ]

    phi0 = math.pi / (2 * n)
    g0 = surf.metric_at(math.pi / 2, phi0)
    period_guess = 2.0 * math.pi * math.sqrt(g0.g_pp) * 1.5

    def lap(s, y):
        return y[0] - (phi0 + 2.0 * math.pi)

    lap.terminal = True
    lap.direction = 1.0

    sol = solve_ivp(
        rhs,
        (0.0, 10.0 * period_guess),
        [phi0, 1.0, 0.0, 1.0, 0.0],
        method="DOP853",
        rtol=1e-11,
        atol=1e-11,
        events=[lap],
        dense_output=True,
    )
    if not sol.t_events[0].size:
        raise RuntimeError("equatorial circuit not completed")
    s_end = sol.t_events[0][0]
    worst = 0.0
    for s in np.linspace(0.0, s_end, n_checks):
        y = sol.sol(s)
        scale = max(abs(y[1]), abs(y[2]), abs(y[3]), abs(y[4]), 1.0)
        worst = max(worst, abs(y[1] - y[3]) / scale, abs(y[2] - y[4]) / scale)
    return worst


def lemma1_critical_eps(n: int, tol: float = 1e-6) -> float:
    """Largest eps for which f(1, c) stays nonnegative on c in [-1, 1].

    Found by bisection on min_c f(1, c); below the threshold the restoring
    force points toward the equator everywhere on the equator itself.
    """

    def margin(e: float) -> float:
        cubic = lemma1_equator_cubic(n, Fraction(e).limit_denominator(10**12))
        return _min_on_interval(cubic)

    lo, hi = 1e-6, 1.0 - 1e-9
    if margin(lo) <= 0:
        raise RuntimeError("restoring force not positive even for tiny eps")
    if margin(hi) > 0:
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if margin(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
