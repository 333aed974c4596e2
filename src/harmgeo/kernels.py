"""Geodesic kernels: Christoffel symbols and the geodesic right-hand side
from r and its partials, plus the partials of harmonic surfaces.

Every surface is r = 1 + eps*Re((x+iy)^m)*Q(z) in body Cartesian coordinates;
:func:`harmonic_partials` evaluates it in any rotated chart.  In the body
chart, surfaces with a constant Q (sectoral ones, and tesseral ones with
m = l) take the cheaper :func:`sectoral_partials`, the hot path of every
Poincare-section run.
:meth:`harmgeo.surface.PolarSurface.rhs` is :func:`rhs_from_partials` applied
to one of the two, for every surface family.

The tangent (variational) flow needs r to third order: :func:`harmonic_jet`
gives it for every surface and chart, :func:`christoffel_jet` turns it into
the Christoffel symbols and their partials, and :func:`variational_rhs`
extends the geodesic right-hand side by its linearization.
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


def harmonic_partials(m, q, eps, rot, theta, phi):
    """r = 1 + eps*Re((x+iy)^m)*Q(z) in a rotated chart, with all partials.

    (x, y, z) is the body Cartesian point of the unit sphere, ``q`` holds the
    coefficients of the polynomial Q, lowest degree first, and ``rot`` is the
    row-major 3x3 matrix taking chart Cartesian coordinates to body ones.
    Nothing is divided by sin(theta), so the chart poles are safe.
    """
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
        # constant Q (sectoral): a Poincare-section trajectory that has
        # swapped charts at a pole spends most of its RHS calls here
        e = eps * q[0]
        return 1.0 + e * W, e * W_t, e * W_p, e * W_tt, e * W_tp, e * W_pp

    # z and its partials, then Q, Q' and Q''/2 at z by Horner
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


# ---------------------------------------------------------------------------
# third-order jets for the variational (tangent) flow
# ---------------------------------------------------------------------------
#
# A jet holds a function and its partials in the order
# (f, f_t, f_p, f_tt, f_tp, f_pp, f_ttt, f_ttp, f_tpp, f_ppp).


def _linear_jet(al, be, ga, a, b, c, d, st, ct):
    """Jet of al*x + be*y + ga*z on the unit sphere at the chart point
    (x, y, z) = (a, b, ct), with c = ct*cp and d = ct*sp."""
    v = al * a + be * b + ga * ct
    v_t = al * c + be * d - ga * st
    v_p = be * a - al * b
    # the chart point is minus its own second theta-derivative
    return (v, v_t, v_p, -v, be * c - al * d, -al * a - be * b,
            -v_t, -v_p, -(al * c + be * d), -v_p)


def _compose(f0, f1, f2, f3, u):
    """Jet of f(u) from f and its first three derivatives at u and u's jet."""
    _, t, p, tt, tp, pp, ttt, ttp, tpp, ppp = u
    return (
        f0,
        f1 * t,
        f1 * p,
        f2 * t * t + f1 * tt,
        f2 * t * p + f1 * tp,
        f2 * p * p + f1 * pp,
        f3 * t * t * t + 3.0 * f2 * tt * t + f1 * ttt,
        f3 * t * t * p + f2 * (tt * p + 2.0 * tp * t) + f1 * ttp,
        f3 * t * p * p + f2 * (2.0 * tp * p + pp * t) + f1 * tpp,
        f3 * p * p * p + 3.0 * f2 * pp * p + f1 * ppp,
    )


def _product(u, v):
    """Jet of u*v (Leibniz rule)."""
    a, a_t, a_p, a_tt, a_tp, a_pp, a_ttt, a_ttp, a_tpp, a_ppp = u
    b, b_t, b_p, b_tt, b_tp, b_pp, b_ttt, b_ttp, b_tpp, b_ppp = v
    return (
        a * b,
        a_t * b + a * b_t,
        a_p * b + a * b_p,
        a_tt * b + 2.0 * a_t * b_t + a * b_tt,
        a_tp * b + a_t * b_p + a_p * b_t + a * b_tp,
        a_pp * b + 2.0 * a_p * b_p + a * b_pp,
        a_ttt * b + 3.0 * (a_tt * b_t + a_t * b_tt) + a * b_ttt,
        a_ttp * b + a_tt * b_p + 2.0 * (a_tp * b_t + a_t * b_tp) + a_p * b_tt + a * b_ttp,
        a_tpp * b + a_pp * b_t + 2.0 * (a_tp * b_p + a_p * b_tp) + a_t * b_pp + a * b_tpp,
        a_ppp * b + 3.0 * (a_pp * b_p + a_p * b_pp) + a * b_ppp,
    )


def harmonic_jet(m, q, eps, rot, theta, phi):
    """r = 1 + eps*Re((x+iy)^m)*Q(z) in a rotated chart, with its partials to
    third order: (r, r_t, r_p, r_tt, r_tp, r_pp, r_ttt, r_ttp, r_tpp, r_ppp).

    Arguments as for :func:`harmonic_partials`; every family and chart,
    the body chart being ``rot`` = identity.
    """
    st = math.sin(theta)
    ct = math.cos(theta)
    cp = math.cos(phi)
    sp = math.sin(phi)
    pt = (st * cp, st * sp, ct * cp, ct * sp, st, ct)
    # e * Re(w^m) with w = x + iy, as a jet; constant when m = 0
    e = eps * q[0] if len(q) == 1 else eps
    if m:
        w = _linear_jet(complex(rot[0], rot[3]), complex(rot[1], rot[4]),
                        complex(rot[2], rot[5]), *pt)
        # e * d^k(w^m)/dw^k, zero for k > m
        f = [0.0] * 4
        for k in range(min(m, 3) + 1):
            f[k] = e * math.perm(m, k) * w[0] ** (m - k)
        jet = [x.real for x in _compose(*f, w)]
    else:
        jet = [e] + [0.0] * 9
    if len(q) > 1:
        z = _linear_jet(rot[6], rot[7], rot[8], *pt)
        # Q, Q', Q''/2 and Q'''/6 at z by Horner
        zz = z[0]
        q0 = q1 = q2 = q3 = 0.0
        for coef in reversed(q):
            q3 = q3 * zz + q2
            q2 = q2 * zz + q1
            q1 = q1 * zz + q0
            q0 = q0 * zz + coef
        jet = list(_product(jet, _compose(q0, q1, 2.0 * q2, 6.0 * q3, z)))
    jet[0] += 1.0
    return tuple(jet)


def _christoffel_numerators(g11, g12, g22, a_t, a_p, b_t, b_p, c_t, c_p):
    """c with Gamma = c / (2 det), from the metric (g11, g12, g22) and its
    first partials (a = g11, b = g12, c = g22).  Bilinear in the two, so a
    derivative of c is the sum of two calls."""
    u = 2.0 * b_t - a_p
    v = 2.0 * b_p - c_t
    return (
        g22 * a_t - g12 * u,
        g22 * a_p - g12 * c_t,
        g22 * v - g12 * c_p,
        g11 * u - g12 * a_t,
        g11 * c_t - g12 * a_p,
        g11 * c_p - g12 * v,
    )


def christoffel_jet(theta, jet):
    """Christoffel symbols and their theta- and phi-derivatives from the
    third-order jet of r (:func:`harmonic_jet`).

    Returns three lists of six, each ordered (ttt, ttp, tpp, ptt, ptp, ppp)
    like :func:`christoffel`: Gamma, d_theta Gamma and d_phi Gamma.
    """
    r, rt, rp, rtt, rtp, rpp, rttt, rttp, rtpp, rppp = jet
    st = math.sin(theta)
    ct = math.cos(theta)
    s2 = st * st
    sc = st * ct

    # the metric (g11, g12, g22), its first partials ordered (g11_t, g11_p,
    # g12_t, g12_p, g22_t, g22_p), and their theta- and phi-derivatives
    g = (rt * rt + r * r, rt * rp, rp * rp + r * r * s2)
    dg = (
        2.0 * (rt * rtt + r * rt),
        2.0 * (rt * rtp + r * rp),
        rtt * rp + rt * rtp,
        rtp * rp + rt * rpp,
        2.0 * (rp * rtp + r * rt * s2 + r * r * sc),
        2.0 * (rp * rpp + r * rp * s2),
    )
    g11_tp = 2.0 * (rtp * rtt + rt * rttp + rp * rt + r * rtp)
    g12_tp = rttp * rp + rtt * rpp + rtp * rtp + rt * rtpp
    g22_tp = 2.0 * (rpp * rtp + rp * rtpp + (rp * rt + r * rtp) * s2 + 2.0 * r * rp * sc)
    dg_t = (
        2.0 * (rtt * rtt + rt * rttt + rt * rt + r * rtt),
        g11_tp,
        rttt * rp + 2.0 * rtt * rtp + rt * rttp,
        g12_tp,
        2.0 * (rtp * rtp + rp * rttp + (rt * rt + r * rtt) * s2
               + 4.0 * r * rt * sc + r * r * (ct * ct - s2)),
        g22_tp,
    )
    dg_p = (
        g11_tp,
        2.0 * (rtp * rtp + rt * rtpp + rp * rp + r * rpp),
        g12_tp,
        rtpp * rp + 2.0 * rtp * rpp + rt * rppp,
        g22_tp,
        2.0 * (rpp * rpp + rp * rppp + (rp * rp + r * rpp) * s2),
    )

    g11, g12, g22 = g
    det = g11 * g22 - g12 * g12
    h = 0.5 / det
    gam = [x * h for x in _christoffel_numerators(*g, *dg)]
    out = [gam]
    for i, dd in ((0, dg_t), (1, dg_p)):
        gi = (dg[i], dg[2 + i], dg[4 + i])  # d(g11, g12, g22)
        k = 2.0 * (gi[0] * g22 + g11 * gi[2] - 2.0 * g12 * gi[1])  # 2 d(det)
        out.append([
            h * (x + y - k * gm)
            for x, y, gm in zip(
                _christoffel_numerators(*gi, *dg), _christoffel_numerators(*g, *dd), gam
            )
        ])
    return out


def variational_rhs(theta, td, pd, jet, tangents):
    """Geodesic right-hand side extended by its linearization.

    ``tangents`` is a flat row-major 4 x j block of variations of
    (theta, phi, theta_dot, phi_dot); returns the 4 + 4j derivatives, state
    first, from the third-order jet of r at (theta, phi).
    """
    gam, gam_t, gam_p = christoffel_jet(theta, jet)
    a0, a1, a2, b0, b1, b2 = gam
    at0, at1, at2, bt0, bt1, bt2 = gam_t
    ap0, ap1, ap2, bp0, bp1, bp2 = gam_p
    tt, tp, pp = td * td, 2.0 * td * pd, pd * pd
    # partials of the two accelerations by theta, phi, theta_dot, phi_dot
    rows = (
        (-(at0 * tt + at1 * tp + at2 * pp), -(ap0 * tt + ap1 * tp + ap2 * pp),
         -2.0 * (a0 * td + a1 * pd), -2.0 * (a1 * td + a2 * pd)),
        (-(bt0 * tt + bt1 * tp + bt2 * pp), -(bp0 * tt + bp1 * tp + bp2 * pp),
         -2.0 * (b0 * td + b1 * pd), -2.0 * (b1 * td + b2 * pd)),
    )
    j = len(tangents) // 4
    d_th = tangents[:j]
    d_ph = tangents[j:2 * j]
    d_td = tangents[2 * j:3 * j]
    d_pd = tangents[3 * j:]
    out = [td, pd, -(a0 * tt + a1 * tp + a2 * pp), -(b0 * tt + b1 * tp + b2 * pp)]
    out += d_td
    out += d_pd
    for c_t, c_p, c_td, c_pd in rows:
        out += [c_t * x0 + c_p * x1 + c_td * x2 + c_pd * x3
                for x0, x1, x2, x3 in zip(d_th, d_ph, d_td, d_pd)]
    return out


def rhs_from_partials(theta, td, pd, parts):
    """Geodesic right-hand side (td, pd, tdd, pdd) from the six partials
    (r, r_t, r_p, r_tt, r_tp, r_pp) at (theta, phi)."""
    r, rt, rp, rtt, rtp, rpp = parts
    (_, _, _, _, gttt, gttp, gtpp, gptt, gptp, gppp) = christoffel(
        theta, r, rt, rp, rtt, rtp, rpp
    )
    tdd = -(gttt * td * td + 2.0 * gttp * td * pd + gtpp * pd * pd)
    pdd = -(gptt * td * td + 2.0 * gptp * td * pd + gppp * pd * pd)
    return td, pd, tdd, pdd


def sectoral_rhs(n, eps, theta, phi, td, pd):
    """Geodesic right-hand side of r = 1 + eps*sin^n(theta)*cos(n*phi)."""
    return rhs_from_partials(theta, td, pd, sectoral_partials(n, eps, theta, phi))
