"""Geodesic kernels: Christoffel symbols and the geodesic right-hand side
from r and its partials, plus the partials of sectoral surfaces.

The hot path of every Poincare-section run is :func:`rhs_from_partials`
applied to :func:`sectoral_partials` (or :func:`chart_sectoral_partials` in a
rotated chart); :meth:`harmgeo.surface.PolarSurface.rhs` is that composition
for every surface family.
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


def chart_sectoral_partials(n, eps, rot, theta, phi):
    """Sectoral surface expressed in a rotated chart.

    ``rot`` is the row-major 3x3 matrix taking chart Cartesian coordinates to
    body Cartesian coordinates; the surface is 1 + eps*Re((x+iy)^n) in body
    coordinates with (x, y, z) on the unit sphere.
    """
    wx = complex(rot[0], rot[3])
    wy = complex(rot[1], rot[4])
    wz = complex(rot[2], rot[5])
    st = math.sin(theta)
    ct = math.cos(theta)
    cp = math.cos(phi)
    sp = math.sin(phi)

    w = wx * (st * cp) + wy * (st * sp) + wz * ct
    w_t = wx * (ct * cp) + wy * (ct * sp) - wz * st
    w_p = -wx * (st * sp) + wy * (st * cp)
    w_tp = -wx * (ct * sp) + wy * (ct * cp)
    w_pp = -wx * (st * cp) - wy * (st * sp)

    wn2 = w ** (n - 2) if n >= 2 else 0.0
    wn1 = wn2 * w if n >= 2 else 1.0
    wn = wn1 * w

    r = 1.0 + eps * wn.real
    rt = eps * (n * wn1 * w_t).real
    rp = eps * (n * wn1 * w_p).real
    rtt = eps * (n * (n - 1) * wn2 * w_t * w_t - n * wn1 * w).real
    rtp = eps * (n * (n - 1) * wn2 * w_t * w_p + n * wn1 * w_tp).real
    rpp = eps * (n * (n - 1) * wn2 * w_p * w_p + n * wn1 * w_pp).real
    return r, rt, rp, rtt, rtp, rpp


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
