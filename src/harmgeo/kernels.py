"""Geodesic kernels, generated per surface structure from one text per formula.

Every surface is r = 1 + eps*Re((x+iy)^m)*Q(z) in body Cartesian coordinates.
Each formula of the kernel is written once below:

* the partials (r, r_t, r_p, r_tt, r_tp, r_pp) of a sectoral surface in the
  body chart, the hot path of every Poincare-section run, as Python source;
* the partials of the Cartesian form in any chart, as Python over the
  symbolic reals of :mod:`harmgeo.floatfold` (:func:`_chart_partials`),
  specialised on m = 0, 1 and >= 2 and on a constant or a polynomial Q,
  whose Horner rule is unrolled.  Nothing is divided by sin(theta), so the
  chart poles are safe;
* the geodesic acceleration: the velocity contracted once with the second
  partials of the position (the Christoffel symbols of the first kind), then
  one 2x2 solve with the metric, so no symbol is built;
* the Gaussian curvature K.  The tangent flow needs no more than the six
  partials: the normal part w of a variation obeys the Jacobi equation
  w'' = -K*2H*w.

The chart form runs on floats alone: its complex quantities (w = x + iy and
its powers) are pairs of real expressions that repeat CPython's complex
arithmetic, and only the parts that are read are kept.  The chart's matrix
entries that are exactly +0.0, -0.0, +1.0 or -1.0 (its
:func:`chart_pattern`) are folded by identities that hold for every finite
operand, the possible signs of each zero tracked so that no zero changes
sign; the other entries stay bound numbers.  cos(theta) and cos(phi) are
never zero (cos vanishes only at (k + 1/2)*pi, which no double equals), so
the exact zeros added to them fold too.  The sectoral form multiplies by
floats only (an int times a float takes CPython's slower generic path);
its powers of sin(theta) stay pows by an integer.

For each surface structure (the body-chart sectoral form, or the chart form
and its chart pattern; m; the number of coefficients of Q) the formulas are
joined into the source of ``partials(theta, phi)``, ``rhs(s, y)`` and, per
number j of normal parts, ``jacobi_rhs(s, y)`` unrolled over them.  Each is
compiled once per process, as a module of its own (:func:`_compile`), and
takes sin and cos of theta once.
:func:`chart_kernel` binds a surface's numbers (eps*n; or eps, the
coefficients of Q and the chart matrix) as folded constants, so a chart whose
pattern was met before compiles nothing.  Only left-associated constant
prefixes are folded and every pow but sin^1 stays a pow, so each kernel is
bit-equal, at finite angles, to evaluating its formulas term by term,
complex arithmetic included.  :meth:`harmgeo.surface.PolarSurface.rhs` and
``jacobi_rhs`` each call the bound kernel of their chart.  :func:`equator_kernel` binds, on first
use, one more per structure: ``equator_jacobi(phi, y)``, the Jacobi equation
for two normal parts and the arc length along the chart's equator theta =
pi/2 (sin and cos exactly 1 and 0), a mirror plane's trace.

The structure's ``make(<numbers>)`` is the only way into these kernels:
:func:`sectoral_rhs` binds the body-chart sectoral kernel on each call.
:func:`curvature` runs the curvature text on its own, as the exact equator
K's reference.  :func:`christoffel` builds all six Christoffel symbols, for
the tangent flow's chart frame and as the tests' reference for the
right-hand side.
"""

import functools
import math
import re

BACKEND = "python"  # the only kernel implementation; reported in run metadata

_BODY_CHART = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


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


_EXACT = {"0": 0.0, "-0": -0.0, "1": 1.0, "-1": -1.0}
_EXACT_NAMES = {repr(v): k for k, v in _EXACT.items()}


def chart_pattern(rot) -> str:
    """Which of the nine entries of the row-major chart->body matrix ``rot``
    are +0.0, -0.0, +1.0 or -1.0 ("0", "-0", "1", "-1"), the others "x"."""
    return " ".join(_EXACT_NAMES.get(repr(float(x)), "x") for x in rot)


# -- formula texts ------------------------------------------------------------
# Each text reads st = sin(theta), ct = cos(theta), phi and its chart's
# constants by name and leaves its results in local names; the {fields} are
# filled per structure.

# r = 1 + eps*sin^n(theta)*cos(n*phi) in the body chart, with sn1 =
# sin^(n-1)(theta), en = eps*n, nen = -eps*n and nenn = -eps*n*n
_SECTORAL = """\
cn = cos({n:.1f} * phi)
sn = sin({n:.1f} * phi)
sn1 = {sn1}
snn = {snn}
r = 1.0 + eps * snn * cn
rt = en * {sn1_}ct * cn
rp = nen * snn * sn
rtt = en * cn * ({dsn1_}ct * ct - {sn1_}st)
rtp = nenn * {sn1_}ct * sn
rpp = nenn * snn * cn
"""

# g (tdd, pdd) = -(X_theta . A, X_phi . A) with the position X = r*n and
# A = X_tt td^2 + 2 X_tp td pd + X_pp pd^2, whose components in the frame
# (n, e_theta, e_phi) come from n_t = e_theta and n_p = sin(theta) e_phi
_ACCELERATION = """\
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
tdd = (g12 * b_p - g22 * b_t) / det
pdd = (g12 * b_t - g11 * b_p) / det
"""

# K = r^2 (L N - M^2) / D^2 with D = det g: L, M, N pair the second partials
# of the position X = r*(unit sphere point) with the normal X_theta x X_phi / r,
# whose length sqrt(D)/r is left unnormalized so no square root is taken
_CURVATURE = """\
st2 = st * st
L = st * (r * rtt - r * r - 2.0 * rt * rt)
M = st * (r * rtp - 2.0 * rt * rp) - ct * r * rp
N = st * (r * rpp - r * r * st2 + r * rt * st * ct - 2.0 * rp * rp)
D = r * r * (r * r * st2 + rt * rt * st2 + rp * rp)
K = r * r * (L * N - M * M) / (D * D)
"""

# the Jacobi equation's factor -K*2H
_JACOBI = """\
h2 = (rt * td + rp * pd) ** 2 + r * r * (td * td + (st * pd) ** 2)
""" + _CURVATURE + """\
k = -K * h2
"""

_SIN_COS = "st = sin(theta)\nct = cos(theta)\n"
_PARTIALS = "r, rt, rp, rtt, rtp, rpp"


# -- the chart form ---------------------------------------------------------------


def _chart_partials(m, nq, pattern):
    """The partials of r = 1 + eps*Re(w^m)*Q(z) at the chart point (theta,
    phi), with w = x + iy and z of the body point, as :func:`floatfold.source`
    writes them: (bound, text).  They read st, ct, cp = cos(phi), sp =
    sin(phi) and the bound eps, q0..q{nq-1} and the entries rot0..rot8 of
    the chart->body matrix where ``pattern`` has no exact entry."""
    # imported on the first chart-form compile: an interpreter that runs
    # only the sectoral form does not compile it
    from . import floatfold as ff

    g = ff.Graph()
    # cos of a finite double is never +-0.0: cos vanishes only at
    # (k + 1/2) pi, which no double equals
    st, sp = g.name("st"), g.name("sp")
    ct, cp = g.name("ct", ff.POS | ff.NEG), g.name("cp", ff.POS | ff.NEG)
    eps = g.name("eps", bound=True)
    rot = [
        g.const(_EXACT[k]) if k in _EXACT else g.name(f"rot{i}", ff.POS | ff.NEG, bound=True)
        for i, k in enumerate(pattern.split())
    ]
    # the chart point (a, b, ct) of the unit sphere and its theta-derivative
    # (c, d, -st); its second theta-derivative is minus itself
    a, b, c, d = st * cp, st * sp, ct * cp, ct * sp
    if m == 0:  # W = Re(w^0) = 1
        W, W_t, W_p, W_tt, W_tp, W_pp = map(g.const, (1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    else:
        # body x + iy = w and its partials
        wx, wy, wz = (ff.Complex(rot[k], rot[k + 3]) for k in range(3))
        nwx = -wx
        w = wx * a + wy * b + wz * ct
        w_t = wx * c + wy * d - wz * st
        w_p = nwx * b + wy * a
        w_tp = nwx * d + wy * c
        w_pp = nwx * a - wy * b
        # W = Re(w^m) and its partials, from w^(m-1), m*w^(m-1) and
        # m*(m-1)*w^(m-2): for m = 1 these are 1.0, 1*1.0 and 1*0*0.0
        if m == 1:
            wm1, mw1, mmw2 = 1.0, 1.0, 0.0
        else:
            wm2 = w ** (m - 2)
            wm1 = wm2 * w
            mw1 = m * wm1
            mmw2 = m * (m - 1) * wm2
        mmw2t = mmw2 * w_t
        W = (wm1 * w).real
        W_t = (mw1 * w_t).real
        W_p = (mw1 * w_p).real
        W_tt = (mmw2t * w_t - mw1 * w).real
        W_tp = (mmw2t * w_p + mw1 * w_tp).real
        W_pp = (mmw2 * w_p * w_p + mw1 * w_pp).real
    # Q's leading coefficient is never -0.0, so 0.0*z + q[-1] is q[-1]
    q = [g.name(f"q{k}", ff.ANY if k < nq - 1 else ff.ANY & ~ff.NZ, bound=True) for k in range(nq)]
    if nq == 1:
        e = eps * q[0]
        parts = (1.0 + e * W, e * W_t, e * W_p, e * W_tt, e * W_tp, e * W_pp)
        return ff.source(list(zip(_PARTIALS.split(", "), parts)))
    # body z and its partials
    zx, zy, zz = rot[6:]
    nzx = -zx
    z = zx * a + zy * b + zz * ct
    z_t = zx * c + zy * d - zz * st
    z_p = nzx * b + zy * a
    z_tp = nzx * d + zy * c
    z_pp = nzx * a - zy * b
    # Q, Q' and Q''/2 at z by Horner's rule from 0.0, then Q'' = 2 (Q''/2)
    Q = Q1 = Q2 = g.const(0.0)
    for coef in reversed(q):
        Q2 = Q2 * z + Q1
        Q1 = Q1 * z + Q
        Q = Q * z + coef
    Q2 = Q2 * 2.0
    parts = (
        1.0 + eps * (W * Q),
        eps * (W_t * Q + W * Q1 * z_t),
        eps * (W_p * Q + W * Q1 * z_p),
        eps * (W_tt * Q + 2.0 * W_t * Q1 * z_t + W * (Q2 * z_t * z_t - Q1 * z)),
        eps * (W_tp * Q + W_t * Q1 * z_p + W_p * Q1 * z_t + W * (Q2 * z_t * z_p + Q1 * z_tp)),
        eps * (W_pp * Q + 2.0 * W_p * Q1 * z_p + W * (Q2 * z_p * z_p + Q1 * z_pp)),
    )
    return ff.source(list(zip(_PARTIALS.split(", "), parts)))


# -- generation -----------------------------------------------------------------


def _sin_power(k):
    """sin^k(theta) for k >= 1: pow(st, 1) is st exactly, as a pow within
    1 ulp of a double must be, and every other power stays a pow."""
    return "st" if k == 1 else f"st ** {k}"


@functools.cache
def _texts(key):
    """(constants, partials): the text ``make`` runs once per surface and the
    partials formula of one structure."""
    form, m, nq, pattern = key
    if form == "sectoral":
        n = m
        if n == 1:  # sin^0 = 1.0 and (n-1)*sin^(n-2) = 0*0.0
            fields = dict(sn1="1.0", snn="st", sn1_="", dsn1_="0.0 * ")
        else:  # (n-1)*sin^(n-2) = 1*1.0 for n = 2
            dsn1_ = f"{n - 1:.1f} * {_sin_power(n - 2)} * " if n > 2 else ""
            fields = dict(sn1=_sin_power(n - 1), snn="sn1 * st", sn1_="sn1 * ", dsn1_=dsn1_)
        consts = f"en = eps * {n}\nnen = -eps * {n}\nnenn = nen * {n}\n"
        return consts, _SECTORAL.format(n=n, **fields)
    bound, text = _chart_partials(m, nq, pattern)
    read = set(re.findall(r"\w+", bound + text))
    rot = [f"rot{i}" if f"rot{i}" in read else "_" for i in range(9)]
    consts = ", ".join(rot) + " = rot\n" if rot.count("_") < 9 else ""
    consts += "".join(f"q{k}, " for k in range(nq)) + "= q\n" + bound
    point = "".join(f"{x} = {f}(phi)\n" for x, f in (("cp", "cos"), ("sp", "sin")) if x in read)
    return consts, point + text


# each form's numbers, as its factory takes them
_PARAMETERS = {"sectoral": "eps", "chart": "eps, q, rot"}


def _function(header, *texts, ret):
    body = ("".join(texts) + f"return {ret}\n").splitlines(True)
    return header + "\n" + "".join("    " + line if line.strip() else line for line in body)


class _Sources(dict):
    """The source of each generated module, by its name.  As the module's
    ``__loader__`` it lets linecache read the source on demand (its lazy
    lookup calls ``get_source(__name__)``), so tracebacks show generated
    lines and no module imports linecache."""

    get_source = dict.get


_SOURCES = _Sources()


def _compile(source, name):
    """Exec ``source`` as the module ``name`` in a namespace of its own,
    which holds sin, cos and sqrt, and return that namespace.  Each name is
    plain (linecache skips names in angle brackets) and its own file name."""
    _SOURCES[name] = source
    namespace = {"__name__": name, "__loader__": _SOURCES,
                 "sin": math.sin, "cos": math.cos, "sqrt": math.sqrt}
    exec(compile(source, name, "exec"), namespace)
    return namespace


@functools.cache
def _compiled(key, j=None):
    """The compiled kernels of one structure ``key`` = (form, m, len(q),
    chart pattern), the pattern None for the sectoral form.

    Without ``j``: ``make(<numbers>)`` binds (partials, rhs) to one
    surface's numbers.  With ``j``: ``make(<numbers>)`` binds the
    jacobi_rhs of states with j normal parts.
    """
    form, m, nq, pattern = key
    params = _PARAMETERS[form]
    consts, parts = _texts(key)
    name = f"geodesic kernel {form}, m={m}, len(q)={nq}"
    if pattern is not None:
        name += f", rot=[{pattern}]"
    if j is None:
        partials = _function("def partials(theta, phi):", _SIN_COS, parts, ret=_PARTIALS)
        rhs = _function(
            "def rhs(s, y):", "theta, phi, td, pd = y\n", _SIN_COS, parts, _ACCELERATION,
            ret="td, pd, tdd, pdd",
        )
        source = _function(f"def make({params}):", consts, partials, rhs, ret="partials, rhs")
        return _compile(source, name)
    w = [f"w{i}" for i in range(j)]
    dw = [f"dw{i}" for i in range(j)]
    jacobi = _function(
        "def jacobi_rhs(s, y):",
        "".join(f"{x}, " for x in ["theta", "phi", "td", "pd", *w, *dw]) + "= y\n",
        _SIN_COS, parts, _JACOBI, _ACCELERATION,
        ret="[" + ", ".join(["td", "pd", "tdd", "pdd", *dw, *(f"k * {x}" for x in w)]) + "]",
    )
    source = _function(f"def make({params}):", consts, jacobi, ret="jacobi_rhs")
    return _compile(source, name + f", j={j}")


@functools.cache
def _compiled_equator(key):
    """``make(<numbers>)`` of structure ``key`` binds its equator_jacobi."""
    consts, parts = _texts(key)
    equator = _function(  # in the chart's phi, with sigma = ds/dphi and u = dw/ds
        "def equator_jacobi(phi, y):", "w0, u0, w1, u1, _ = y\nst = 1.0\nct = 0.0\n", parts,
        _CURVATURE, "sigma = sqrt(r * r + rp * rp)\nsk = -sigma * K\n",
        ret="[sigma * u0, sk * w0, sigma * u1, sk * w1, sigma]",
    )
    source = _function(f"def make({_PARAMETERS[key[0]]}):", consts, equator, ret="equator_jacobi")
    return _compile(source, f"geodesic equator kernel {key}")


class _JacobiKernels(dict):
    """One chart's jacobi_rhs per state length 4 + 2j, bound on first use."""

    def __init__(self, key, numbers):
        super().__init__()
        self._key = key
        self._numbers = numbers

    def __missing__(self, size):
        j, odd = divmod(size - 4, 2)
        if odd or j < 0:
            raise ValueError(f"a Jacobi state has 4 + 2j components, not {size}")
        kernel = self[size] = _compiled(self._key, j)["make"](*self._numbers)
        return kernel


def chart_kernel(m, q, eps, rot=None):
    """The kernels of r = 1 + eps*Re((x+iy)^m)*Q(z) in the chart with
    row-major chart->body matrix ``rot`` (None: the body chart), ``q`` the
    coefficients of Q, lowest degree first.

    Returns (partials, rhs, jacobi): ``partials(theta, phi)`` gives
    (r, r_t, r_p, r_tt, r_tp, r_pp), ``rhs(s, y)`` the geodesic right-hand
    side (td, pd, tdd, pdd) of y = (theta, phi, td, pd), and ``jacobi[len(y)]``
    the right-hand side of y followed by j normal parts w and their
    derivatives w', as [td, pd, tdd, pdd, *w', *(-K*2H*w)].  A sectoral
    surface (constant Q) in the body chart takes the sectoral formula, any
    other the chart form compiled for the chart's :func:`chart_pattern`.
    """
    if rot is None and len(q) == 1:  # sin^m(theta)*cos(m*phi) times q[0]
        key, numbers = ("sectoral", m, 1, None), (eps * q[0],)
    else:
        rot = rot or _BODY_CHART
        key, numbers = ("chart", m, len(q), chart_pattern(rot)), (eps, q, rot)
    partials, rhs = _compiled(key)["make"](*numbers)
    return partials, rhs, _JacobiKernels(key, numbers)


def equator_kernel(jacobi):
    """``equator_jacobi(phi, y)`` bound to the structure and numbers of
    ``jacobi``, the third item that :func:`chart_kernel` returns."""
    return _compiled_equator(jacobi._key)["make"](*jacobi._numbers)


# -- the curvature alone, and one sectoral RHS call -------------------------------

_FORMULAS = _compile(
    _function("def curvature(theta, r, rt, rp, rtt, rtp, rpp):", _SIN_COS, _CURVATURE, ret="K"),
    "geodesic kernel formulas",
)


def curvature(theta, r, rt, rp, rtt, rtp, rpp):
    """Gaussian curvature K of a polar surface from r and its partials."""
    return _FORMULAS["curvature"](theta, r, rt, rp, rtt, rtp, rpp)


def sectoral_rhs(n, eps, theta, phi, td, pd):
    """Geodesic right-hand side of r = 1 + eps*sin^n(theta)*cos(n*phi): the
    kernel of ``PolarSurface.sectoral(n, eps).rhs``, bound on each call."""
    return _compiled(("sectoral", n, 1, None))["make"](eps)[1](0.0, (theta, phi, td, pd))
