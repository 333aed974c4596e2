"""Geodesic kernels: the geodesic right-hand side, the Gaussian curvature
and the Christoffel symbols from r and its partials, plus the partials of
harmonic surfaces.

Every surface is r = 1 + eps*Re((x+iy)^m)*Q(z) in body Cartesian coordinates;
:func:`harmonic_partials` evaluates it in any rotated chart from the chart's
:func:`chart_coefficients`, which a surface builds once per chart.  In the
body chart, surfaces with a constant Q (sectoral ones, and tesseral ones
with m = l) take the cheaper :func:`sectoral_partials`, the hot path of
every Poincare-section run.
:meth:`harmgeo.surface.PolarSurface.rhs` is :func:`rhs_from_partials` applied
to one of the two, for every surface family: it contracts the second
partials of the position with the velocity once (the Christoffel symbols of
the first kind) and solves one 2x2 system with the metric, so no symbol is
built.  :func:`christoffel` builds all six symbols, for the tangent flow's
chart frame and as the tests' reference for the right-hand side.

The tangent (variational) flow needs no more than these six partials: the
normal part of a variation obeys the Jacobi equation w'' = -K*2H*w, with the
Gaussian curvature K from :func:`curvature`.
"""

import math

BACKEND = "python"  # the only kernel implementation; reported in run metadata


def christoffel(theta, r, rt, rp, rtt, rtp, rpp):
    """Six Christoffel symbols of a polar surface from r and its partials.

    Returns (g_tt, g_tp, g_pp, det, Gttt, Gttp, Gtpp, Gptt, Gptp, Gppp).
    """
    st = math.sin(theta)
    ct = math.cos(theta)
    st2 = st * st

    g11 = rt * rt + r * r
    g12 = rt * rp
    g22 = rp * rp + r * r * st2

    g11_t = 2.0 * rt * rtt + 2.0 * r * rt
    g11_p = 2.0 * rt * rtp + 2.0 * r * rp
    g12_t = rtt * rp + rt * rtp
    g12_p = rtp * rp + rt * rpp
    g22_t = 2.0 * rp * rtp + 2.0 * r * rt * st2 + 2.0 * r * r * st * ct
    g22_p = 2.0 * rp * rpp + 2.0 * r * rp * st2

    det = g11 * g22 - g12 * g12

    # Gamma^a_bc = (adj[a][d]/det) * (g_bd,c + g_cd,b - g_bc,d) / 2
    c_ttt = g22 * g11_t - g12 * (2.0 * g12_t - g11_p)
    c_ttp = g22 * g11_p - g12 * g22_t
    c_tpp = g22 * (2.0 * g12_p - g22_t) - g12 * g22_p
    c_ptt = g11 * (2.0 * g12_t - g11_p) - g12 * g11_t
    c_ptp = g11 * g22_t - g12 * g11_p
    c_ppp = g11 * g22_p - g12 * (2.0 * g12_p - g22_t)

    h = 0.5 / det
    return (
        g11,
        g12,
        g22,
        det,
        c_ttt * h,
        c_ttp * h,
        c_tpp * h,
        c_ptt * h,
        c_ptp * h,
        c_ppp * h,
    )


def sectoral_partials(n, eps, theta, phi):
    """r = 1 + eps*sin^n(theta)*cos(n*phi) and all partials to second order."""
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


def chart_coefficients(rot) -> tuple:
    """(wx, wy, wz, zx, zy, zz) of the row-major chart->body matrix ``rot``:
    body x + iy = wx*x' + wy*y' + wz*z' and body z = zx*x' + zy*y' + zz*z'
    at the chart point (x', y', z')."""
    return (
        complex(rot[0], rot[3]),
        complex(rot[1], rot[4]),
        complex(rot[2], rot[5]),
        rot[6],
        rot[7],
        rot[8],
    )


def harmonic_partials(m, q, eps, coefs, theta, phi):
    """r = 1 + eps*Re((x+iy)^m)*Q(z) in a rotated chart, with all partials.

    (x, y, z) is the body Cartesian point of the unit sphere, ``q`` holds the
    coefficients of the polynomial Q, lowest degree first, and ``coefs`` is
    the chart's :func:`chart_coefficients`, built once per chart.
    Nothing is divided by sin(theta), so the chart poles are safe.
    """
    wx, wy, wz, zx, zy, zz = coefs
    st = math.sin(theta)
    ct = math.cos(theta)
    cp = math.cos(phi)
    sp = math.sin(phi)
    # the chart point is (a, b, ct); its second theta-derivative is minus itself
    a = st * cp
    b = st * sp
    c = ct * cp
    d = ct * sp

    # W = Re(w^m) with w = x + iy, and its partials; W = 1 when m = 0
    if m:
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
        # constant Q (sectoral): a Poincare-section trajectory that has
        # swapped charts at a pole spends most of its RHS calls here
        e = eps * q[0]
        return 1.0 + e * W, e * W_t, e * W_p, e * W_tt, e * W_tp, e * W_pp

    # z and its partials, then Q, Q' and Q''/2 at z by Horner
    z = zx * a + zy * b + zz * ct
    z_t = zx * c + zy * d - zz * st
    z_p = -zx * b + zy * a
    z_tp = -zx * d + zy * c
    z_pp = -zx * a - zy * b
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


def curvature(theta, r, rt, rp, rtt, rtp, rpp):
    """Gaussian curvature K of a polar surface from r and its partials.

    K = r^2 (L N - M^2) / D^2 with D = det g: L, M, N pair the second
    partials of the position X = r*(unit sphere point) with the normal
    X_theta x X_phi / r, whose length sqrt(D)/r is left unnormalized so no
    square root is taken.
    """
    st = math.sin(theta)
    ct = math.cos(theta)
    st2 = st * st
    L = st * (r * rtt - r * r - 2.0 * rt * rt)
    M = st * (r * rtp - 2.0 * rt * rp) - ct * r * rp
    N = st * (r * rpp - r * r * st2 + r * rt * st * ct - 2.0 * rp * rp)
    D = r * r * (r * r * st2 + rt * rt * st2 + rp * rp)
    return r * r * (L * N - M * M) / (D * D)


def rhs_from_partials(theta, td, pd, parts):
    """Geodesic right-hand side (td, pd, tdd, pdd) from the six partials
    (r, r_t, r_p, r_tt, r_tp, r_pp) at (theta, phi).

    g (tdd, pdd) = -(X_theta . A, X_phi . A) with the position X = r*n and
    A = X_tt td^2 + 2 X_tp td pd + X_pp pd^2, whose components in the frame
    (n, e_theta, e_phi) come from n_t = e_theta and n_p = sin(theta) e_phi.
    """
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


def sectoral_rhs(n, eps, theta, phi, td, pd):
    """Geodesic right-hand side of r = 1 + eps*sin^n(theta)*cos(n*phi)."""
    return rhs_from_partials(theta, td, pd, sectoral_partials(n, eps, theta, phi))
