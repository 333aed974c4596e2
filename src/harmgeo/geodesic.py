"""Geodesic flow on polar surfaces: high-accuracy integration with automatic
chart rotation near the coordinate poles, plus the exact positivity
certificate for the normal restoring force on sectoral surfaces.

States are (theta, phi, theta_dot, phi_dot); the independent variable is arc
length once the initial velocity is normalized to 2H = 1.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import MISSING, dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from . import kernels
from .dop853 import solve_ivp
from .surface import IDENTITY_ROT, POLE_TOL, PolarSurface, PoleError, check_rotation, flat_floats

POLE_GUARD = 0.05
DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-12

# chart-to-chart rotation used to step away from a coordinate pole:
# p_old = R_SWAP @ p_new moves the old pole to the new equator
R_SWAP = ((1.0, 0.0, 0.0), (0.0, 0.0, -1.0), (0.0, 1.0, 0.0))

if TYPE_CHECKING:
    import numpy as np


class _Floats:
    """A dataclass field kept as the floats it is given and read as float64
    arrays, built on the first read: only then is NumPy imported.  ``row``
    is the shape of one row, which an empty field keeps; a crossing
    Jacobian's row (2, j) takes j from the trajectory.  With ``each`` the
    field is a list of such fields, read as a list of arrays.

    Floats kept flat in an ``array('d')`` are read through a view that
    shares their buffer; any other floats are replaced by the arrays, and
    freed."""

    def __init__(self, row, default=MISSING, each=False):
        self.row, self.default, self.each = row, default, each

    def __set_name__(self, owner, name):
        self.raw, self.built = f"_{name}", f"_{name}_array"

    def __get__(self, obj, owner=None):
        if obj is None:  # a dataclass reads its default here
            if self.default is MISSING:
                raise AttributeError(self.raw[1:])
            return self.default
        raw, built = obj.__dict__[self.raw], obj.__dict__.get(self.built)
        if built is None and raw is not None:
            import numpy as np

            row = self.row
            if row is None:
                row = (2, len(raw[0][0]) if len(raw) else obj._n_tangents)
            if self.each:
                built = [np.asarray(x, dtype=float).reshape(-1, *row) for x in raw]
            else:
                built = np.asarray(raw, dtype=float).reshape(-1, *row)
            if not isinstance(raw, array):
                obj.__dict__[self.raw] = built
            obj.__dict__[self.built] = built
        return built

    def __set__(self, obj, value):
        obj.__dict__[self.raw] = value
        obj.__dict__.pop(self.built, None)


def _rows(flat, width):
    """Consecutive rows of ``width`` floats of a flat buffer, as tuples."""
    return zip(*[iter(flat)] * width)


@dataclass
class Trajectory:
    """Sampled geodesic in the body chart, plus equator-crossing events.

    :func:`integrate` hands over its floats, and each array field below is
    built from them on its first read, so a caller that reads none of them
    never imports NumPy.  The samples ``s``, ``states`` and ``h2`` are kept
    flat in ``array('d')`` buffers, eight bytes a float.  The package's own
    readers (:meth:`to_csv`, the return map and ``harmgeo trace``) read the
    floats themselves, or the array once it is built.
    """

    s: np.ndarray = _Floats(())  # shape (m,)
    states: np.ndarray = _Floats((4,))  # shape (m, 4): theta, phi, theta_dot, phi_dot (body)
    h2: np.ndarray = _Floats(())  # 2H sampled in the integration chart
    crossings: np.ndarray = _Floats((3,))  # shape (k, 3): s, phi, phi_dot at theta = pi/2
    chart_swaps: int
    status: str  # "completed", or "crossings" when n_crossings stopped it
    # shape (k, 2, j) with ``tangents``: d(phi, phi_dot) of each crossing
    crossing_jacobians: Optional[np.ndarray] = _Floats(None, default=None)
    # stepper work: right-hand-side calls, accepted and rejected steps
    nfev: int = 0
    steps: int = 0
    rejected_steps: int = 0
    # j, the number of variations a tangent run carried
    _n_tangents: int = field(default=0, init=False, repr=False, compare=False)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["s", "theta", "phi", "theta_dot", "phi_dot", "h2"])
            for s, state, h2 in zip(self._s, _rows(self._states, 4), self._h2):
                w.writerow([f"{s:.12g}"] + [f"{x:.12g}" for x in state] + [f"{h2:.12g}"])


# ---------------------------------------------------------------------------
# chart transfer helpers
# ---------------------------------------------------------------------------
#
# 3x3 matrices are nine row-major floats, as PolarSurface.rot holds them.
# Each product sum starts from +0.0, as NumPy's and BLAS's do: a product
# with a signed permutation matrix, such as a power of R_SWAP, is then
# NumPy's bit for bit, signed zeros included.

_SWAP = flat_floats(R_SWAP)


def _transpose(m):
    return (m[0], m[3], m[6], m[1], m[4], m[7], m[2], m[5], m[8])


_SWAP_T = _transpose(_SWAP)


def _mat_vec(m, x):
    x0, x1, x2 = x
    return (
        0.0 + m[0] * x0 + m[1] * x1 + m[2] * x2,
        0.0 + m[3] * x0 + m[4] * x1 + m[5] * x2,
        0.0 + m[6] * x0 + m[7] * x1 + m[8] * x2,
    )


def _mat_mul(a, b):
    return tuple(
        0.0 + a[i] * b[j] + a[i + 1] * b[j + 3] + a[i + 2] * b[j + 6]
        for i in (0, 3, 6)
        for j in range(3)
    )


def _embed(y):
    """(theta, phi, td, pd) -> unit sphere position and velocity."""
    th, ph, td, pd = y
    st, ct = math.sin(th), math.cos(th)
    cp, sp = math.cos(ph), math.sin(ph)
    n = (st * cp, st * sp, ct)
    # td * e_theta + pd * e_phi, e_theta = (ct cp, ct sp, -st) and
    # e_phi = (-st sp, st cp, 0)
    v = (td * (ct * cp) + pd * (-st * sp), td * (ct * sp) + pd * (st * cp), td * -st + pd * 0.0)
    return n, v


def _project(n, v):
    """Unit sphere position/velocity -> [theta, phi, td, pd]."""
    rho = math.hypot(n[0], n[1])
    th = math.atan2(rho, n[2])
    ph = math.atan2(n[1], n[0])
    st, ct = math.sin(th), math.cos(th)
    cp, sp = math.cos(ph), math.sin(ph)
    td = v[0] * ct * cp + v[1] * ct * sp - v[2] * st
    pd = (-v[0] * sp + v[1] * cp) / st
    return [th, ph, td, pd]


def _to_body(y, rot):
    """:func:`chart_to_body` for nine row-major floats or None."""
    if rot is None:
        return [float(x) for x in y]
    n, v = _embed(y)
    return _project(_mat_vec(rot, n), _mat_vec(rot, v))


def chart_to_body(y, m):
    """State in a chart with chart->body matrix m (3x3, or nine row-major
    numbers as in ``PolarSurface.rot``), expressed in the body chart as a
    list of four floats."""
    return _to_body(y, None if m is None else flat_floats(m))


def _sample_grid(s_max, n):
    """``np.linspace(0.0, s_max, n)`` as a list, bit for bit: k * step with
    step = s_max/(n - 1), or (k/(n - 1)) * s_max when that step underflows
    to zero, and the last point s_max itself."""
    if n < 0:
        raise ValueError(f"n_samples = {n} must be non-negative")
    if n < 2:
        return [0.0] * n
    div = n - 1
    step = s_max / div
    grid = [k * step for k in range(n)] if step else [k / div * s_max for k in range(n)]
    grid[-1] = float(s_max)
    return grid


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def normalize_speed(surface: PolarSurface, y) -> list:
    """Scale the velocity so 2H = 1 (arc-length parametrization); the state
    comes back as a list of four floats."""
    th, ph, td, pd = (float(x) for x in y)
    h2 = surface.hamiltonian2(th, ph, td, pd)
    if h2 <= 0:
        raise ValueError("zero velocity cannot be normalized")
    sq = math.sqrt(h2)
    return [th, ph, td / sq, pd / sq]


# ---------------------------------------------------------------------------
# tangent flow: Jacobi fields split into chart-free parts
# ---------------------------------------------------------------------------
#
# A variation (dx, dv) of a geodesic state is a Jacobi field J = dx with
# covariant derivative DJ = dv + Gamma(v, dx).  Its tangential part g(J, v)
# is b + a*s, and its normal part w = omega(v, J) (omega the area form) obeys
# w'' = -K*2H*w.  The four numbers (b, a, w, w') are the same in every chart
# reached by a rotation, so chart swaps leave them alone.  Variations are
# 4 x j lists of rows; the parts are lists of j floats.


def _velocity_frame(chart, y):
    """At state y with velocity v: the 2x2 rows of dx -> Gamma(v, dx), the
    lowered velocity g(v, .), the row omega(v, .) and the normal nu with
    g(nu, v) = 0 and omega(v, nu) = 2H."""
    th, ph, td, pd = y
    if abs(math.sin(th)) <= POLE_TOL:
        raise PoleError(f"variations are not defined at the chart pole theta = {th}")
    g11, g12, g22, det, a0, a1, a2, b0, b1, b2 = kernels.christoffel(
        th, *chart.partials(th, ph)
    )
    gam_v = ((a0 * td + a1 * pd, a1 * td + a2 * pd), (b0 * td + b1 * pd, b1 * td + b2 * pd))
    v0, v1 = g11 * td + g12 * pd, g12 * td + g22 * pd
    sq = math.sqrt(det)
    return gam_v, (v0, v1), (sq * -pd, sq * td), (-v1 / sq, v0 / sq)


def _dot2(row, x0, x1):
    """row @ [x0; x1] for a 2-vector row and two rows of j floats."""
    return [row[0] * p + row[1] * q for p, q in zip(x0, x1)]


def _jacobi_split(chart, y, tangents):
    """(b, a, w, w') of each column of the 4 x j variations at state y."""
    gam_v, v_low, omega_v, _ = _velocity_frame(chart, y)
    dx0, dx1, dv0, dv1 = tangents
    dj0 = [v + g for v, g in zip(dv0, _dot2(gam_v[0], dx0, dx1))]
    dj1 = [v + g for v, g in zip(dv1, _dot2(gam_v[1], dx0, dx1))]
    return (
        _dot2(v_low, dx0, dx1), _dot2(v_low, dj0, dj1),
        _dot2(omega_v, dx0, dx1), _dot2(omega_v, dj0, dj1),
    )


def _jacobi_rebuild(chart, y, s, b, a, w, dw):
    """4 x j variations (dx, dv) at state y, arc length s after the split,
    from the parts :func:`_jacobi_split` gave and the integrated (w, w')."""
    gam_v, v_low, _, nu = _velocity_frame(chart, y)
    v = (float(y[2]), float(y[3]))
    h2 = v_low[0] * v[0] + v_low[1] * v[1]
    jac = [
        [(vi * (bc + ac * s) + ni * wc) / h2 for bc, ac, wc in zip(b, a, w)]
        for vi, ni in zip(v, nu)
    ]
    dj = [[(vi * ac + ni * dwc) / h2 for ac, dwc in zip(a, dw)] for vi, ni in zip(v, nu)]
    return jac + [
        [d - g for d, g in zip(dj_i, _dot2(gam_i, *jac))] for dj_i, gam_i in zip(dj, gam_v)
    ]


def _variations(tangents):
    """4 x j variations as four rows of j floats, from any nesting of 4*j
    numbers in row-major order."""
    flat = flat_floats(tangents)
    j, rest = divmod(len(flat), 4)
    if rest:
        raise ValueError(f"tangents hold {len(flat)} numbers: need 4 rows of j variations")
    return [flat[i * j:(i + 1) * j] for i in range(4)]


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
    tangents=None,
) -> Trajectory:
    """Integrate a geodesic up to arc length ``s_max``.

    When the trajectory approaches a coordinate pole (theta within
    POLE_GUARD), the surface is re-expressed in a rotated chart and
    integration continues seamlessly; a start that is already that close to
    a pole begins in the rotated chart.  A surface built in a rotated chart
    starts in that chart; states are always reported in the body chart.

    Equator crossings (body z decreasing through zero, i.e. theta increasing
    through pi/2) are always recorded; when ``n_crossings`` is given the run
    stops at the last one asked for and reports the state there.
    ``section_frame`` (a 3x3 body-to-frame rotation, checked as chart
    matrices are) moves the section plane: crossings are then detected on,
    and reported in, that frame's equator instead of the body equator.

    ``tangents``, a 4 x j array of variations of ``y0`` (which then must not
    be renormalized), is split once into the chart-free parts of its Jacobi
    fields, whose normal parts are integrated alongside the geodesic by the
    Jacobi equation.  Each crossing then also reports the 2 x j derivative
    of its (phi, phi_dot), the change of crossing time included, in
    ``Trajectory.crossing_jacobians``.
    """
    if not 0.0 < s_max < math.inf:
        raise ValueError(f"arc length s_max = {s_max} must be finite and positive")
    if n_crossings is not None and n_crossings < 1:
        raise ValueError(f"n_crossings = {n_crossings} must be at least 1")
    y = [float(x) for x in y0]
    # checked before the pole guard, which would read a NaN theta as a pole
    for name, x in zip(("theta", "phi", "theta_dot", "phi_dot"), y):
        if not math.isfinite(x):
            raise ValueError(f"initial {name} = {x} must be finite")
    sframe = None
    if section_frame is not None:
        sframe = check_rotation(section_frame, "section_frame")
    normal = None  # the integrated normal parts (w, w'), flattened
    if tangents is not None:
        if renormalize:
            raise ValueError(
                "tangents need renormalize=False: speed normalization is not differentiated"
            )
        b, a, w, dw = _jacobi_split(surface, y, _variations(tangents))
        normal = [*w, *dw]
        j = len(b)
        # crossings are rebuilt in the chart whose equator is the section
        frame_chart = surface.in_chart(IDENTITY_ROT if sframe is None else _transpose(sframe))

    # the chart integrated in; its rot is the chart -> body rotation (None
    # for the body chart)
    chart = surface
    swaps = 0

    def swap_chart(y):
        y_new = _to_body(y, _SWAP_T)  # into the chart rotated by R_SWAP
        if not POLE_GUARD * 2 < y_new[0] < math.pi - POLE_GUARD * 2:
            raise RuntimeError("chart rotation failed to leave the pole")
        return y_new, surface.in_chart(_mat_mul(chart.rot or IDENTITY_ROT, _SWAP))

    # the pole events fire on entering the guard band, so a start inside it
    # moves to the rotated chart before the first step
    if not POLE_GUARD < y[0] < math.pi - POLE_GUARD:
        y, chart = swap_chart(y)
        swaps += 1
    if renormalize:
        y = normalize_speed(chart, y)

    sample_s = _sample_grid(s_max, n_samples)
    # body-chart states, four floats a row, and 2H at the first len(h2s)
    # sample_s
    samples = array("d")
    h2s = array("d")
    crossings = []
    jacobians = []
    status = "completed"
    s_now = 0.0
    nfev = steps = rejected = 0

    def pole_n(s, yy):
        return yy[0] - POLE_GUARD

    pole_n.terminal = True
    pole_n.direction = -1.0

    def pole_s(s, yy):
        return yy[0] - (math.pi - POLE_GUARD)

    pole_s.terminal = True
    pole_s.direction = 1.0

    # one stepper run per chart: to the first pole event, then from each
    # chart swap to the next, until s_max or the last crossing asked for
    while True:
        mm = chart.rot or IDENTITY_ROT
        # the section's normal in the chart: row 2 of sframe @ mm
        rz0, rz1, rz2 = mm[6:] if sframe is None else _mat_vec(_transpose(mm), sframe[6:])

        def section(s, yy):
            st = math.sin(yy[0])
            return rz0 * st * math.cos(yy[1]) + rz1 * st * math.sin(yy[1]) + rz2 * math.cos(yy[0])

        section.direction = -1.0
        # stop at the last crossing asked for.  A start on the section that
        # heads down through it fires at s ~ 0, an event the s_ev filter
        # below drops, so the first run counts one more then
        section.terminal = 0
        if n_crossings is not None:
            section.terminal = n_crossings - len(crossings)
            if s_now == 0.0:
                v = _embed(y)[1]
                v_z = rz0 * v[0] + rz1 * v[1] + rz2 * v[2]
                section.terminal += 0.0 <= section(0.0, y) <= -1e-6 * v_z

        if normal is None:
            rhs, y_start = chart.rhs, y
        else:
            rhs, y_start = chart.jacobi_rhs, [*y, *normal]
        sol = solve_ivp(
            rhs,
            (s_now, s_max),
            y_start,
            rtol=rtol,
            atol=atol,
            events=[pole_n, pole_s, section],
            samples=sample_s[len(h2s):],
        )
        nfev += sol.nfev
        steps += len(sol.t) - 1
        rejected += sol.rejected
        for yy in sol.samples:
            samples.extend(_to_body(yy[:4], chart.rot))
            h2s.append(chart.hamiltonian2(*yy[:4]))

        # record crossings (converted to body coordinates)
        for s_ev, y_ev in zip(sol.t_events[2], sol.y_events[2]):
            if s_ev < 1e-9:  # initial condition sitting on the section
                continue
            y_c = y_ev[:4]
            if sframe is None:
                yb = _to_body(y_c, chart.rot)
            else:
                n_c, v_c = _embed(y_c)
                yb = _project(_mat_vec(sframe, _mat_vec(mm, n_c)), _mat_vec(sframe, _mat_vec(mm, v_c)))
            crossings.append((s_ev, yb[1], yb[3]))
            if normal is not None:
                # there the section is theta = pi/2, so the shift of the
                # crossing time subtracts f * d_theta / theta_dot
                d = _jacobi_rebuild(frame_chart, yb, s_ev, b, a, y_ev[4:4 + j], y_ev[4 + j:])
                f = frame_chart.rhs(s_ev, yb)
                shift = [x / f[0] for x in d[0]]
                jacobians.append([[x - f[i] * c for x, c in zip(d[i], shift)] for i in (1, 3)])

        s_now = sol.t[-1]
        y = sol.y[:4]
        if normal is not None:
            normal = sol.y[4:]
        if n_crossings is not None and len(crossings) >= n_crossings:
            status = "crossings"
            break
        if not (sol.t_events[0] or sol.t_events[1]) or s_now >= s_max:
            break
        y, chart = swap_chart(y)
        swaps += 1

    if not n_samples:
        sample_s = [s_now]
        samples.extend(_to_body(y, chart.rot))
        h2s.append(chart.hamiltonian2(*y))
    traj = Trajectory(
        s=array("d", sample_s[: len(h2s)]),
        states=samples,
        h2=h2s,
        crossings=crossings,
        chart_swaps=swaps,
        status=status,
        crossing_jacobians=None if normal is None else jacobians,
        nfev=nfev,
        steps=steps,
        rejected_steps=rejected,
    )
    if normal is not None:
        traj._n_tangents = j
    return traj


def sphere_closure_error(theta0=1.1, phi0=0.3, alpha=0.7, s=None) -> float:
    """Distance between start and end of a great circle after one full turn
    (an integrator self-test: the exact answer is zero at s = 2*pi)."""
    sphere = PolarSurface.sectoral(2, 0.0)
    y0 = [theta0, phi0, math.cos(alpha), math.sin(alpha) / math.sin(theta0)]
    y0 = normalize_speed(sphere, y0)
    traj = integrate(sphere, y0, s if s is not None else 2 * math.pi, n_samples=2)
    n0, _ = _embed(y0)
    n1, _ = _embed(traj._states[-4:])
    return math.dist(n1, n0)


def clairaut_values(surface: PolarSurface, traj: Trajectory) -> np.ndarray:
    """g_phiphi * phi_dot along a trajectory (conserved on zonal surfaces)."""
    import numpy as np

    return np.array(
        [surface.metric_at(st[0], st[1]).g_pp * st[3] for st in _rows(traj._states, 4)]
    )


# ---------------------------------------------------------------------------
# exact positivity certificate for the normal restoring force
# ---------------------------------------------------------------------------
#
# On a sectoral surface the combination
#
#   f(u, c) = -Gamma^theta_phiphi * det(g) / (r * cos(theta) * sin^3(theta))
#
# with u = sin(theta), c = cos(n*phi) is the polynomial
#
#   f = 1 + (n+3) eps c u^n + n^2 eps^2 (1 + (n-1) c^2) u^(2n-2)
#       + (2n+3) eps^2 c^2 u^(2n) + n^2 eps^3 ((2n+1) c - (n+1) c^3) u^(3n-2)
#       + (n+1) eps^3 c^3 u^(3n),
#
# so its u-exponents lie in {0, n, 2n-2, 2n, 3n-2, 3n}; for n = 1 and 2 some
# coincide.  Positivity of f on the whole surface forces normal
# perturbations of phi-monotone geodesics back toward the equator; the
# critical deformation eps*(n) is where min_c f(1, c) first touches zero.


def lemma1_poly(n: int, eps) -> dict[int, Poly]:
    """Exact expansion f(u, c) = sum_k u^k * (poly in c): coinciding
    exponents summed, zero terms dropped.  The u^0 term is the round
    sphere's 1, and 1 + eps^2 when n = 1."""
    from .algebra import Poly

    eps = Fraction(eps)
    if n < 1:
        raise ValueError(f"n = {n} must be at least 1")
    if abs(eps) >= 1:
        raise ValueError(f"eps = {eps}: |eps| must be below 1, or the radius reaches zero")
    e2, e3, nn = eps * eps, eps**3, n * n
    terms = (
        (0, [1]),
        (n, [0, (n + 3) * eps]),
        (2 * n - 2, [nn * e2, 0, nn * (n - 1) * e2]),
        (2 * n, [0, 0, (2 * n + 3) * e2]),
        (3 * n - 2, [0, nn * (2 * n + 1) * e3, 0, -nn * (n + 1) * e3]),
        (3 * n, [0, 0, 0, (n + 1) * e3]),
    )
    out: dict[int, Poly] = {}
    for k, cs in terms:
        out[k] = out.get(k, Poly.zero()) + Poly(cs)
    return {k: pc for k, pc in out.items() if pc}


def lemma1_value(n: int, eps, u0, c0) -> Fraction:
    """Exact f(u0, c0) for rational arguments."""
    eps, u0, c0 = Fraction(eps), Fraction(u0), Fraction(c0)
    poly = lemma1_poly(n, eps)
    return sum((pc(c0) * u0**e for e, pc in poly.items()), Fraction(0))


def lemma1_equator_cubic(n: int, eps) -> Poly:
    """f(1, c) as an exact cubic polynomial in c."""
    from .algebra import Poly

    poly = lemma1_poly(n, Fraction(eps))
    total = Poly.zero()
    for _, pc in poly.items():
        total = total + pc
    return total


def _min_on_interval(p: Poly) -> float:
    """Numeric minimum of a low-degree polynomial on [-1, 1]."""
    import numpy as np

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
    """Cross-validate the exact z-domain variational equation against the
    numeric tangent flow of the equator geodesic.

    One integration over a full circuit of the equator carries two copies
    of its normal variation:

    * the reference copy is :meth:`PolarSurface.jacobi_rhs` on the geodesic
      state and the normal part (w, w') of the Jacobi field of the
      variation (delta theta, delta theta_dot), the flow every monodromy
      uses, knowing nothing of the symbolic pipeline;
    * the exact copy is xi'' + p(z) xi' + q(z) xi = 0 transported to arc
      length through z = eps*cos(n*phi), with phi and phi_dot read from the
      geodesic state.  With w = eps^2 - z^2 and G = g_phiphi on the equator,
      z_dot^2 = n^2 phi_dot^2 w and z_ddot follows from phi_dot^2 = 1/G, so

          xi'' = -z_dot S(z) xi' - n^2 phi_dot^2 T(z) xi,
          S = G'/(2G) + (z + w p)/w,   T = w q,

      where S and T are regular at the turning points z = +-eps.

    Returns the maximum relative disagreement of (xi, xi') with
    (delta theta, delta theta_dot) rebuilt from (w, w') at ``n_checks``
    equally spaced arc lengths of one circuit, both ends included.  Both
    start from (1, 0) at phi = pi/(2n).
    """
    from .algebra import Poly, RatFunc
    from .nve import equatorial_nve

    if n_checks < 2:
        raise ValueError(f"n_checks = {n_checks} must be at least 2: s = 0 compares nothing")
    eps_f = Fraction(eps)
    e = float(eps_f)
    data = equatorial_nve(n, eps_f)
    gpp = data.gpp_equator  # exact g_phiphi as a polynomial in z
    w = Poly([eps_f * eps_f, 0, -1])
    s_rf = RatFunc(gpp.derivative(), 2 * gpp) + (Poly([0, 1]) + w * data.p) / w
    t_rf = w * data.q
    for f in (s_rf, t_rf):
        if not (f.den(eps_f) and f.den(-eps_f)):
            raise RuntimeError("transported NVE coefficient has a pole at z = +-eps")
    surf = PolarSurface.sectoral(n, e)

    def rhs(s, y):
        _, phi, _, pd, _, _, xi, dxi = y
        z = e * math.cos(n * phi)
        zdot = -e * n * math.sin(n * phi) * pd
        return surf.jacobi_rhs(s, y[:6]) + [
            dxi, -zdot * s_rf(z) * dxi - n * n * pd * pd * t_rf(z) * xi
        ]

    phi0 = math.pi / (2 * n)
    g0 = surf.metric_at(math.pi / 2, phi0)

    # the circuit's arc length, the integral of sqrt(G) over phi: the
    # trapezoid rule converges geometrically on this periodic integrand, so
    # the nodes double until it settles
    def circuit(k):
        return 2 * math.pi / k * math.fsum(
            math.sqrt(surf.metric_at(math.pi / 2, 2 * math.pi * j / k).g_pp) for j in range(k)
        )

    k = 8 * n
    s_end, s_prev = circuit(k), 0.0
    while abs(s_end - s_prev) > 1e-13 * s_end:
        k *= 2
        s_end, s_prev = circuit(k), s_end

    y0 = [math.pi / 2, phi0, 0.0, 1.0 / math.sqrt(g0.g_pp)]
    b, a, w, dw = _jacobi_split(surf, y0, [[1.0], [0.0], [0.0], [0.0]])
    checks = _sample_grid(s_end, n_checks)
    sol = solve_ivp(
        rhs, (0.0, s_end), [*y0, w[0], dw[0], 1.0, 0.0], rtol=1e-11, atol=1e-11, samples=checks
    )
    if abs(sol.y[1] - (phi0 + 2.0 * math.pi)) > 1e-8:
        raise RuntimeError("equatorial circuit not closed")
    worst = 0.0
    for s, yy in zip(checks, sol.samples):
        (d_th,), _, (d_td,), _ = _jacobi_rebuild(surf, yy[:4], s, b, a, yy[4:5], yy[5:6])
        xi, dxi = yy[6:]
        scale = max(abs(d_th), abs(d_td), abs(xi), abs(dxi), 1.0)
        worst = max(worst, abs(d_th - xi) / scale, abs(d_td - dxi) / scale)
    return worst


def lemma1_critical_eps(n: int, tol: float = 1e-6) -> float:
    """Largest eps for which f(1, c) stays nonnegative on c in [-1, 1].

    Found by bisection on min_c f(1, c); below the threshold the restoring
    force points toward the equator everywhere on the equator itself.
    """
    if n < 1:
        raise ValueError(f"n = {n} must be at least 1")
    if not 0.0 < tol < math.inf:  # an infinite tol would skip the bisection
        raise ValueError(f"tol = {tol} must be finite and positive")

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
        if mid in (lo, hi):  # lo and hi are adjacent floats: tol is below an ulp
            break
        if margin(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
