"""Dormand-Prince 8(5,3) on lists of Python floats.

The explicit Runge-Kutta pair of Hairer, Norsett & Wanner, *Solving ODEs I*,
Sec. II.5, as scipy's ``solve_ivp(method="DOP853")`` runs it: the same
tableau, initial-step rule, step-size controller, combined err5/err3 error
norm, 7th-order interpolant and event location.  The tableau is written out
below as float constants, each equal to scipy's (a test checks every one),
and event roots come from :func:`brentq`, a port of scipy's ``brentq.c``
(Brent, *Algorithms for Minimization without Derivatives*, 1973, ch. 4), so
every step, root and sample is bit-equal to scipy's and the package needs no
scipy at run time.  The geodesic systems here have 4 to 12 components, where
numpy's per-call overhead dominates, so the step is plain Python unrolled
twice: over the nonzero entries of A, B, E5 and E3, and over the state's
components.  Its source is generated from the tableau, each entry written
in as its float literal, the first time a state dimension is met and
compiled once per dimension (a few ms); each component is the expression a
loop over the components evaluates, so the results are bit-equal to such a
loop's.  The interpolant (3 more
right-hand-side calls) is generated the same way and built only on a step
that holds an event root or a sample.  No float sum goes through sum(),
whose rounding changed in Python 3.12, so every Python gives the same bits.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections import namedtuple

from .kernels import _compile

EPS = 2.0**-52
SAFETY = 0.9
MIN_FACTOR = 0.2  # bounds on the step-size change after one step
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 8.0  # the error estimator has order 7
ROOT_TOL = 4 * EPS  # brentq's xtol and rtol for event roots
MIN_RTOL = 100 * EPS  # scipy's floor on rtol
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


class OdeResult(
    namedtuple("OdeResult", "t y t_events y_events samples nfev rejected status")
):
    """What one :func:`solve_ivp` run did.

    ``t`` holds the start and the end of every accepted step; a run stopped
    by a terminal event ends at that event's root.  ``y`` is the state at
    ``t[-1]``.  ``t_events[i]`` and ``y_events[i]`` list the roots of event
    i and the states there; ``samples`` the states at the requested sample
    times the run reached.  ``nfev`` counts right-hand-side calls and
    ``rejected`` the steps the controller refused.  ``status`` is
    "finished" at the end of the span, "terminated" by an event.
    """

    __slots__ = ()


def _rms(xs) -> float:
    # a left-to-right loop: sum() of floats rounds otherwise from Python 3.12
    total = 0.0
    for x in xs:
        total += x * x
    return math.sqrt(total / len(xs))


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


# the stages that stages 1-11 read, and those that B, E5 and E3 read, as the
# constants above name them
_STAGE_INPUTS = [(0,), (0, 1), (0, 2), (0, 2, 3), *[(0, *range(3, s)) for s in range(5, 12)]]
_SOLUTION_INPUTS = (0, *range(5, 12))


@functools.cache
def _stepper(d: int):
    """The DOP853 step for states of d components, generated from the
    tableau and compiled once per d.

    ``step(fun, t, y, k0, h, rtol, atol)`` with k0 = fun(t, y) and h > 0
    returns the stages (k0..k11, each the object ``fun`` returned), the new
    state y_new, its derivative fun(t + h, y_new) and scipy's combined error
    norm |h| e5^2 / sqrt((e5^2 + e3^2 / 100) d), e5 and e3 the weighted
    2-norms of the two error estimates: 12 right-hand-side calls.  y and
    every stage are unpacked into scalars, so a ``fun`` that returns other
    than d components raises ValueError.  Each component is the expression a
    loop over the components would evaluate, in the same order, with each
    tableau entry written as its literal and the error scale's max(|y|,
    |y_new|) as comparisons, so the results are bit-equal to it.
    """
    comps = range(d)
    tableau = globals()

    def combo(prefix, inputs, i):
        return " + ".join(f"{tableau[f'{prefix}{j}']!r} * k{j}_{i}" for j in inputs)

    def unpack(name, parts):
        return f"    {', '.join(parts)}, = {name}"

    lines = ["def step(fun, t, y, k0, h, rtol, atol):",
             unpack("y", [f"y{i}" for i in comps]),
             unpack("k0", [f"k0_{i}" for i in comps])]
    for s, inputs in enumerate(_STAGE_INPUTS, 1):
        ts = "t + h" if s == 11 else f"t + {tableau[f'C{s}']!r} * h"
        args = ", ".join(f"y{i} + h * ({combo(f'A{s}_', inputs, i)})" for i in comps)
        lines += [f"    k{s} = fun({ts}, [{args}])", unpack(f"k{s}", [f"k{s}_{i}" for i in comps])]
    lines += [f"    n{i} = y{i} + h * ({combo('B', _SOLUTION_INPUTS, i)})" for i in comps]
    lines.append(f"    y_new = [{', '.join(f'n{i}' for i in comps)}]")
    # atol > 0 absorbs the sign of a zero |y|, and a NaN picks as max() does
    for i in comps:
        lines += [f"    a = -y{i} if y{i} < 0.0 else y{i}",
                  f"    b = -n{i} if n{i} < 0.0 else n{i}",
                  "    sc = atol + (b if b > a else a) * rtol",
                  f"    d5_{i} = ({combo('E5_', _SOLUTION_INPUTS, i)}) / sc",
                  f"    d3_{i} = ({combo('E3_', _SOLUTION_INPUTS, i)}) / sc"]
    # a loop would start these sums at 0.0, and 0.0 + x is x for a square x
    for e in ("e5", "e3"):
        lines.append(f"    {e} = " + " + ".join(f"d{e[1]}_{i} * d{e[1]}_{i}" for i in comps))
    lines += [
        "    if e5 == 0.0 and e3 == 0.0:",
        "        err = 0.0",
        "    else:",
        f"        err = h * e5 / sqrt((e5 + 0.01 * e3) * {d})",
        "    ks = ({})".format(", ".join(f"k{s}" for s in range(12))),
        "    return ks, y_new, fun(t + h, y_new), err",
    ]
    return _compile("\n".join(lines) + "\n", f"dop853 step, d={d}")["step"]


@functools.cache
def _dense(d: int):
    """The interpolant's coefficients for states of d components, generated
    from _EXTRA and _D and compiled once per d.

    ``rows(fun, t, y, h, ks, y_new, f_new)`` makes the 3 extra stages'
    right-hand-side calls and returns, per component, the 7 coefficients
    x, dy, h f0 - dy, 2 dy - h (f1 + f0) and h (D_r . k), r = 0..3, of the
    interpolant.  Each dot product with a row of _EXTRA or _D is written out
    over the row's nonzero entries in order, starting from 0.0.  That is
    bit-equal to a loop over the whole row from 0.0: such a partial sum is
    never -0.0, so adding a zero product leaves it as it is.  No sum() is
    called, whose rounding changed in Python 3.12.
    """
    comps = range(d)

    def combo(row, i):
        return " + ".join(["0.0", *(f"{a!r} * k{j}_{i}" for j, a in enumerate(row) if a)])

    def unpack(name, parts):
        return f"    {', '.join(parts)}, = {name}"

    lines = ["def rows(fun, t, y, h, ks, y_new, f_new):",
             unpack("y", [f"y{i}" for i in comps]),
             unpack("y_new", [f"n{i}" for i in comps])]
    lines += [unpack(f"ks[{s}]", [f"k{s}_{i}" for i in comps]) for s in range(12)]
    lines.append(unpack("f_new", [f"k12_{i}" for i in comps]))
    for s, (c, row) in enumerate(_EXTRA, 13):
        args = ", ".join(f"y{i} + h * ({combo(row, i)})" for i in comps)
        lines += [f"    k{s} = fun(t + {c!r} * h, [{args}])",
                  unpack(f"k{s}", [f"k{s}_{i}" for i in comps])]
    lines += [f"    dy{i} = n{i} - y{i}" for i in comps]
    rows = [
        f"(y{i}, dy{i}, h * k0_{i} - dy{i}, 2.0 * dy{i} - h * (k12_{i} + k0_{i}), "
        + ", ".join(f"h * ({combo(row, i)})" for row in _D)
        + ")"
        for i in comps
    ]
    lines.append(f"    return [{', '.join(rows)}]")
    return _compile("\n".join(lines) + "\n", f"dop853 interpolant, d={d}")["rows"]


def _interpolant(fun, t, y, h, ks, y_new, f_new):
    """The 7th-order continuous extension over the step [t, t + h] (3 more
    right-hand-side calls), as a function of the time."""
    rows = _dense(len(y))(fun, t, y, h, ks, y_new, f_new)

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


def _check_finite(name, xs) -> None:
    for i, x in enumerate(xs):
        if not math.isfinite(x):
            raise ValueError(f"{name}[{i}] = {x} must be finite")


def solve_ivp(fun, t_span, y0, *, rtol, atol, events=(), samples=()) -> OdeResult:
    """Integrate y' = fun(t, y) forward over ``t_span`` = (t0, t_bound).

    ``fun`` takes a list of floats and returns a sequence of as many.  Each
    event is a function ``event(t, y)`` with scipy's optional attributes:
    ``direction`` (> 0 fires on increase only, < 0 on decrease only, 0 on
    both) and ``terminal`` (a count: the run stops at that occurrence's
    root; 0 or False never stops).  Roots are found on the interpolant with :func:`brentq` at
    ``xtol = rtol = 4 EPS``.  ``samples`` is an ascending sequence of times
    in [t0, t_bound] at which the state is reported.

    An rtol below 100 EPS is raised to 100 EPS with a warning, as scipy's
    ``solve_ivp`` does: far below it the error estimate is rounding noise,
    and the steps shrink until the run crawls.

    Raises RuntimeError when the step size falls below ten units in the
    last place of t, and ValueError for a tolerance that is not finite and
    positive, for an empty y0, for a t_span, y0 or fun(t0, y0) that is not
    finite (a NaN step size never underflows, so the run would never end)
    and for a ``fun`` that returns other than len(y0) components.
    """
    check_tolerances(rtol, atol)
    if rtol < MIN_RTOL:
        warnings.warn(f"rtol = {rtol} is too small; setting rtol = {MIN_RTOL}", stacklevel=2)
        rtol = MIN_RTOL
    t, t_bound = float(t_span[0]), float(t_span[1])
    _check_finite("t_span", [t, t_bound])
    if not t_bound > t:
        raise ValueError(f"empty span ({t}, {t_bound}): integration runs forward")
    y = [float(x) for x in y0]
    if not y:
        raise ValueError("y0 must have at least one component")
    _check_finite("y0", y)
    f = fun(t, y)
    # checked before the initial-step probe, which zips f with y
    if len(f) != len(y):
        raise ValueError(f"fun(t0, y0) has {len(f)} components where y0 has {len(y)}")
    _check_finite("fun(t0, y0)", f)
    step = _stepper(len(y))
    h_abs = _initial_step(fun, t, y, f, t_bound, rtol, atol)
    nfev = 2  # fun(t0, y0) and the initial-step probe
    rejected = 0

    directions = [getattr(ev, "direction", 0) for ev in events]
    max_count = [getattr(ev, "terminal", None) or math.inf for ev in events]
    count = [0] * len(events)
    g = [ev(t, y) for ev in events]
    t_events = [[] for _ in events]
    y_events = [[] for _ in events]
    out = []
    n_samples = len(samples)
    next_sample = samples[0] if n_samples else math.inf

    # no per-step call that the arithmetic does not need: max() and min()
    # written as the comparisons they make, NaNs included (t_new > t, so the
    # step takes h for |h|), and the events and samples tested in plain loops
    ts = [t]
    while True:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if min_step > h_abs:
            h_abs = min_step
        refused = False
        while True:
            if h_abs < min_step:
                raise RuntimeError(f"step size underflow at t = {t!r}")
            t_new = t + h_abs
            if t_bound < t_new:
                t_new = t_bound
            h = t_new - t
            h_abs = h
            ks, y_new, f_new, err = step(fun, t, y, f, h, rtol, atol)
            nfev += 12
            if err < 1.0:
                # after a refused step the step does not grow
                cap = 1.0 if refused else MAX_FACTOR
                factor = cap if err == 0.0 else SAFETY * err**ERROR_EXPONENT
                h_abs *= factor if factor < cap else cap
                break
            factor = SAFETY * err**ERROR_EXPONENT
            h_abs *= factor if factor > MIN_FACTOR else MIN_FACTOR
            refused = True
            rejected += 1

        sol = None
        t_end, stopped = t_new, False
        if events:
            active = []
            for i, ev in enumerate(events):
                a, b, d = g[i], ev(t_new, y_new), directions[i]
                g[i] = b
                if (a <= 0.0 <= b and d >= 0) or (a >= 0.0 >= b and d <= 0):
                    active.append(i)
            if active:
                sol = _interpolant(fun, t, y, h, ks, y_new, f_new)
                nfev += 3
                # the roots by time, ties in the order of the events, up to
                # the first whose event reaches its count
                roots = sorted(
                    (brentq(lambda s, ev=events[i]: ev(s, sol(s)), t, t_new), i)
                    for i in active
                )
                for root, i in roots:
                    count[i] += 1
                    t_events[i].append(root)
                    y_events[i].append(sol(root))
                    if count[i] >= max_count[i]:
                        t_end, stopped = root, True
                        break

        while next_sample <= t_end:
            if sol is None:
                sol = _interpolant(fun, t, y, h, ks, y_new, f_new)
                nfev += 3
            out.append(sol(next_sample))
            next_sample = samples[len(out)] if len(out) < n_samples else math.inf

        ts.append(t_end)
        if stopped:
            return OdeResult(ts, sol(t_end), t_events, y_events, out, nfev, rejected, "terminated")
        t, y, f = t_new, y_new, f_new
        if t == t_bound:
            return OdeResult(ts, y, t_events, y_events, out, nfev, rejected, "finished")
