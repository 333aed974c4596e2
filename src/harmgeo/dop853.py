"""Dormand-Prince 8(5,3) on lists of Python floats.

The explicit Runge-Kutta pair of Hairer, Norsett & Wanner, *Solving ODEs I*,
Sec. II.5, as scipy's ``solve_ivp(method="DOP853")`` runs it: the same
tableau, initial-step rule, step-size controller, combined err5/err3 error
norm, 7th-order interpolant and event location.  The tableau is written out
below as float constants, each equal to scipy's (a test checks every one),
and event roots come from :func:`brentq`, a port of scipy's ``brentq.c``
(Brent, *Algorithms for Minimization without Derivatives*, 1973, ch. 4), so
every step, root and sample is bit-equal to scipy's and the package needs no
scipy at run time.  The geodesic systems here have 4 to 20 components, where
numpy's per-call overhead dominates, so the 12 stages are unrolled over the
nonzero entries of A with one list comprehension per stage, and the
interpolant (3 more right-hand-side calls) is built only on a step that
holds an event root or a sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

EPS = 2.0**-52
SAFETY = 0.9
MIN_FACTOR = 0.2  # bounds on the step-size change after one step
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 8.0  # the error estimator has order 7
ROOT_TOL = 4 * EPS  # brentq's xtol and rtol for event roots
MAX_ITER = 100  # brentq's iteration cap, scipy's default

# the tableau over its nonzero entries: stages 1-4 read stages {0}, {0, 1},
# {0, 2} and {0, 2, 3}, stage s >= 5 reads 0 and 3..s-1; B, E5 and E3 read
# stages 0 and 5..11.  Each constant is the shortest repr of the double in
# scipy's dop853_coefficients, which tests/test_dop853.py checks.
C1, C2, C3, C4, C5, C6, C7, C8, C9, C10 = (
    0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
)
A1_0 = 0.05260015195876773
A2_0, A2_1 = 0.0197250569845379, 0.0591751709536137
A3_0, A3_2 = 0.02958758547680685, 0.08876275643042054
A4_0, A4_2, A4_3 = 0.2413651341592667, -0.8845494793282861, 0.924834003261792
A5_0, A5_3, A5_4 = 0.037037037037037035, 0.17082860872947386, 0.12546768756682242
A6_0, A6_3, A6_4, A6_5 = 0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125
A7_0, A7_3, A7_4, A7_5, A7_6 = (
    0.03709200011850479, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
    0.008273789163814023,
)
A8_0, A8_3, A8_4, A8_5, A8_6, A8_7 = (
    0.6241109587160757, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996,
)
A9_0, A9_3, A9_4, A9_5, A9_6, A9_7, A9_8 = (
    0.47766253643826434, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
    15.279233632882423, -33.28821096898486, -0.020331201708508627,
)
A10_0, A10_3, A10_4, A10_5, A10_6, A10_7, A10_8, A10_9 = (
    -0.9371424300859873, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
    -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196,
)
A11_0, A11_3, A11_4, A11_5, A11_6, A11_7, A11_8, A11_9, A11_10 = (
    2.273310147516538, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
    27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
    0.6433927460157636,
)
B0, B5, B6, B7, B8, B9, B10, B11 = (
    0.054293734116568765, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259,
)
E5_0, E5_5, E5_6, E5_7, E5_8, E5_9, E5_10, E5_11 = (
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294,
)
E3_0, E3_5, E3_6, E3_7, E3_8, E3_9, E3_10, E3_11 = (
    -0.18980075407240762, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    -0.4226823213237919, -0.1521609496625161, 0.20136540080403034, 0.02265179219836082,
)

# the interpolant's three extra stages (c, dense row of A) and its
# coefficients D, dense; used only on steps that hold an event root or a
# sample
_EXTRA = [
    (0.1, [
        0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025,
        -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
        -0.008298,
    ]),
    (0.2, [
        0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
        -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
        -0.00034046500868740456, 0.1413124436746325,
    ]),
    (0.7777777777777778, [
        -0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
        4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
        2.9475147891527724, -9.15095847217987,
    ]),
]
_D = [
    [
        -8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
        2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
        0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
        -4.436036387594894,
    ],
    [
        10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
        -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
        -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
        35.81684148639408,
    ],
    [
        19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
        527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
        0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
        11.99229113618279,
    ],
    [
        -25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
        357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
        29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
        -149.72683625798564,
    ],
]


@dataclass
class OdeResult:
    """What one :func:`solve_ivp` run did.

    ``t`` holds the start and the end of every accepted step; a run stopped
    by a terminal event ends at that event's root.  ``y`` is the state at
    ``t[-1]``.  ``t_events[i]`` and ``y_events[i]`` list the roots of event
    i and the states there; ``samples`` the states at the requested sample
    times the run reached.  ``nfev`` counts right-hand-side calls and
    ``rejected`` the steps the controller refused.
    """

    t: list
    y: list
    t_events: list
    y_events: list
    samples: list
    nfev: int
    rejected: int
    status: str  # "finished" at the end of the span, "terminated" by an event


def _rms(xs) -> float:
    return math.sqrt(sum(x * x for x in xs) / len(xs))


def _initial_step(fun, t0, y0, f0, t_bound, rtol, atol) -> float:
    """Hairer, Norsett & Wanner's starting step, as scipy selects it; one
    right-hand-side call."""
    interval = t_bound - t0
    scale = [atol + abs(x) * rtol for x in y0]
    d0 = _rms([x / sc for x, sc in zip(y0, scale)])
    d1 = _rms([f / sc for f, sc in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, [x + h0 * f for x, f in zip(y0, f0)])
    d2 = _rms([(b - a) / sc for a, b, sc in zip(f0, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100 * h0, h1, interval)


def _step(fun, t, y, k0, h):
    """One DOP853 step of size h from (t, y) with k0 = fun(t, y): the stages
    k0..k11, the new state and its derivative (12 right-hand-side calls)."""
    k1 = fun(t + C1 * h, [x + h * (A1_0 * a) for x, a in zip(y, k0)])
    k2 = fun(t + C2 * h, [x + h * (A2_0 * a + A2_1 * b) for x, a, b in zip(y, k0, k1)])
    k3 = fun(t + C3 * h, [x + h * (A3_0 * a + A3_2 * c) for x, a, c in zip(y, k0, k2)])
    k4 = fun(t + C4 * h, [
        x + h * (A4_0 * a + A4_2 * c + A4_3 * d) for x, a, c, d in zip(y, k0, k2, k3)
    ])
    k5 = fun(t + C5 * h, [
        x + h * (A5_0 * a + A5_3 * d + A5_4 * e) for x, a, d, e in zip(y, k0, k3, k4)
    ])
    k6 = fun(t + C6 * h, [
        x + h * (A6_0 * a + A6_3 * d + A6_4 * e + A6_5 * f)
        for x, a, d, e, f in zip(y, k0, k3, k4, k5)
    ])
    k7 = fun(t + C7 * h, [
        x + h * (A7_0 * a + A7_3 * d + A7_4 * e + A7_5 * f + A7_6 * g)
        for x, a, d, e, f, g in zip(y, k0, k3, k4, k5, k6)
    ])
    k8 = fun(t + C8 * h, [
        x + h * (A8_0 * a + A8_3 * d + A8_4 * e + A8_5 * f + A8_6 * g + A8_7 * p)
        for x, a, d, e, f, g, p in zip(y, k0, k3, k4, k5, k6, k7)
    ])
    k9 = fun(t + C9 * h, [
        x + h * (A9_0 * a + A9_3 * d + A9_4 * e + A9_5 * f + A9_6 * g + A9_7 * p
                 + A9_8 * q)
        for x, a, d, e, f, g, p, q in zip(y, k0, k3, k4, k5, k6, k7, k8)
    ])
    k10 = fun(t + C10 * h, [
        x + h * (A10_0 * a + A10_3 * d + A10_4 * e + A10_5 * f + A10_6 * g + A10_7 * p
                 + A10_8 * q + A10_9 * r)
        for x, a, d, e, f, g, p, q, r in zip(y, k0, k3, k4, k5, k6, k7, k8, k9)
    ])
    k11 = fun(t + h, [
        x + h * (A11_0 * a + A11_3 * d + A11_4 * e + A11_5 * f + A11_6 * g + A11_7 * p
                 + A11_8 * q + A11_9 * r + A11_10 * s)
        for x, a, d, e, f, g, p, q, r, s in zip(y, k0, k3, k4, k5, k6, k7, k8, k9, k10)
    ])
    y_new = [
        x + h * (B0 * a + B5 * f + B6 * g + B7 * p + B8 * q + B9 * r + B10 * s + B11 * u)
        for x, a, f, g, p, q, r, s, u in zip(y, k0, k5, k6, k7, k8, k9, k10, k11)
    ]
    return (k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11), y_new, fun(t + h, y_new)


def _error_norm(ks, h, y, y_new, rtol, atol) -> float:
    """scipy's combined DOP853 error norm, |h| e5^2 / sqrt((e5^2 +
    e3^2 / 100) n) with e5, e3 the weighted 2-norms of the two estimates."""
    k0, _, _, _, _, k5, k6, k7, k8, k9, k10, k11 = ks
    e5 = e3 = 0.0
    for x, xn, a, f, g, p, q, r, s, u in zip(y, y_new, k0, k5, k6, k7, k8, k9, k10, k11):
        sc = atol + max(abs(x), abs(xn)) * rtol
        d5 = (E5_0 * a + E5_5 * f + E5_6 * g + E5_7 * p + E5_8 * q + E5_9 * r
              + E5_10 * s + E5_11 * u) / sc
        d3 = (E3_0 * a + E3_5 * f + E3_6 * g + E3_7 * p + E3_8 * q + E3_9 * r
              + E3_10 * s + E3_11 * u) / sc
        e5 += d5 * d5
        e3 += d3 * d3
    if e5 == 0.0 and e3 == 0.0:
        return 0.0
    return abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * len(y))


def _interpolant(fun, t, y, h, ks, y_new, f_new):
    """The 7th-order continuous extension over the step [t, t + h] (3 more
    right-hand-side calls), as a function of the time."""
    k = [*ks, f_new]
    for c, a in _EXTRA:
        k.append(fun(t + c * h, [x + h * sum(map(mul, a, ki)) for x, ki in zip(y, zip(*k))]))
    rows = []
    for x, xn, f0, f1, ki in zip(y, y_new, ks[0], f_new, zip(*k)):
        dy = xn - x
        rows.append(
            (x, dy, h * f0 - dy, 2.0 * dy - h * (f1 + f0), *[h * sum(map(mul, d, ki)) for d in _D])
        )

    def sol(s):
        v = (s - t) / h
        w = 1.0 - v
        return [
            x + v * (f0 + w * (f1 + v * (f2 + w * (f3 + v * (f4 + w * (f5 + v * f6))))))
            for x, f0, f1, f2, f3, f4, f5, f6 in rows
        ]

    return sol


def brentq(f, a, b) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign, to within
    ROOT_TOL (1 + |root|): a line-for-line port of scipy's ``brentq.c`` at
    ``xtol = rtol = ROOT_TOL``, so each root and each point f is called at
    are scipy's.  f(a) = 0 returns a.

    Raises ValueError when f(a) and f(b) have the same sign or f returns
    NaN, and RuntimeError when MAX_ITER iterations do not converge.
    """

    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x!r} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(MAX_ITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (ROOT_TOL + ROOT_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C gets inf or NaN here, which bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"brentq failed to converge after {MAX_ITER} iterations, value is {xcur!r}")


def check_tolerances(rtol, atol) -> None:
    """Raise ValueError unless both tolerances are finite and positive: zero
    ones divide by zero in the error norm, and with negative ones no step
    is ever accepted."""
    for name, tol in (("rtol", rtol), ("atol", atol)):
        if not 0.0 < tol < math.inf:
            raise ValueError(f"{name} = {tol} must be finite and positive")


def solve_ivp(fun, t_span, y0, *, rtol, atol, events=(), samples=()) -> OdeResult:
    """Integrate y' = fun(t, y) forward over ``t_span`` = (t0, t_bound).

    ``fun`` takes and returns sequences of floats.  Each event is a function
    ``event(t, y)`` with scipy's optional attributes: ``direction`` (> 0
    fires on increase only, < 0 on decrease only, 0 on both) and
    ``terminal`` (a count: the run stops at that occurrence's root; 0 or
    False never stops).  Roots are found on the interpolant with :func:`brentq` at
    ``xtol = rtol = 4 EPS``.  ``samples`` is an ascending sequence of times
    in [t0, t_bound] at which the state is reported.

    Raises RuntimeError when the step size falls below ten units in the
    last place of t, and ValueError for a tolerance that is not finite and
    positive.
    """
    check_tolerances(rtol, atol)
    t, t_bound = float(t_span[0]), float(t_span[1])
    if not t_bound > t:
        raise ValueError(f"empty span ({t}, {t_bound}): integration runs forward")
    y = [float(x) for x in y0]
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound, rtol, atol)
    nfev = 2
    rejected = 0

    directions = [getattr(ev, "direction", 0) for ev in events]
    max_count = [getattr(ev, "terminal", None) or math.inf for ev in events]
    count = [0] * len(events)
    g = [ev(t, y) for ev in events]
    t_events = [[] for _ in events]
    y_events = [[] for _ in events]
    out = []
    n_samples = len(samples)

    ts = [t]
    status = None
    while status is None:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        refused = False
        while True:
            if h_abs < min_step:
                raise RuntimeError(f"step size underflow at t = {t!r}")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = h
            ks, y_new, f_new = _step(fun, t, y, f, h)
            nfev += 12
            err = _error_norm(ks, h, y, y_new, rtol, atol)
            if err < 1.0:
                factor = MAX_FACTOR if err == 0.0 else min(MAX_FACTOR, SAFETY * err**ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if refused else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err**ERROR_EXPONENT)
            refused = True
            rejected += 1
        if t_new == t_bound:
            status = "finished"

        sol = None
        if events:
            g_new = [ev(t_new, y_new) for ev in events]
            active = [
                i
                for i, (a, b, d) in enumerate(zip(g, g_new, directions))
                if (a <= 0.0 <= b and d >= 0) or (a >= 0.0 >= b and d <= 0)
            ]
            g = g_new
            if active:
                sol = _interpolant(fun, t, y, h, ks, y_new, f_new)
                nfev += 3
                for i in active:
                    count[i] += 1
                roots = [
                    brentq(lambda s, ev=events[i]: ev(s, sol(s)), t, t_new)
                    for i in active
                ]
                if any(count[i] >= max_count[i] for i in active):
                    # stop at the earliest root whose event reached its count
                    order = sorted(range(len(active)), key=roots.__getitem__)
                    active = [active[j] for j in order]
                    roots = [roots[j] for j in order]
                    last = next(j for j, i in enumerate(active) if count[i] >= max_count[i])
                    del active[last + 1:], roots[last + 1:]
                    status = "terminated"
                for i, root in zip(active, roots):
                    t_events[i].append(root)
                    y_events[i].append(sol(root))
                if status == "terminated":
                    t_new = roots[-1]
                    y_new = sol(t_new)

        while len(out) < n_samples and samples[len(out)] <= t_new:
            if sol is None:
                sol = _interpolant(fun, t, y, h, ks, y_new, f_new)
                nfev += 3
            out.append(sol(samples[len(out)]))

        t, y, f = t_new, y_new, f_new
        ts.append(t)

    return OdeResult(ts, y, t_events, y_events, out, nfev, rejected, status)
