"""The in-repo DOP853 stepper, with scipy's ``solve_ivp`` as the oracle."""

import math
import re
import traceback

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.optimize import brentq as scipy_brentq

from harmgeo import dop853
from harmgeo.dop853 import (
    A1_0, A2_0, A2_1, A3_0, A3_2, A4_0, A4_2, A4_3, A5_0, A5_3, A5_4, A6_0, A6_3, A6_4, A6_5,
    A7_0, A7_3, A7_4, A7_5, A7_6, A8_0, A8_3, A8_4, A8_5, A8_6, A8_7, A9_0, A9_3, A9_4, A9_5,
    A9_6, A9_7, A9_8, A10_0, A10_3, A10_4, A10_5, A10_6, A10_7, A10_8, A10_9, A11_0, A11_3,
    A11_4, A11_5, A11_6, A11_7, A11_8, A11_9, A11_10, B0, B5, B6, B7, B8, B9, B10, B11, C1, C2,
    C3, C4, C5, C6, C7, C8, C9, C10, E3_0, E3_5, E3_6, E3_7, E3_8, E3_9, E3_10, E3_11, E5_0,
    E5_5, E5_6, E5_7, E5_8, E5_9, E5_10, E5_11, solve_ivp,
)
from harmgeo.geodesic import integrate, normalize_speed
from harmgeo.surface import PolarSurface


# the stages each unrolled stage of the generated step reads
STAGE_INPUTS = {1: {0}, 2: {0, 1}, 3: {0, 2}, 4: {0, 2, 3},
                **{s: {0, *range(3, s)} for s in range(5, 12)}}


def _bits(x):
    return float(x).hex()


def test_unrolled_stages_cover_the_tableau():
    """Every in-repo constant is bit-equal to scipy's tableau entry, and
    every entry of A, B, E5 and E3 the unrolled step skips is zero."""
    a, c = dop853_coefficients.A, dop853_coefficients.C
    assert c[0] == 0.0 and c[11] == c[12] == 1.0  # stage 0 at t, 11 and 12 at t + h
    assert [_bits(getattr(dop853, f"C{i}")) for i in range(1, 11)] == [_bits(x) for x in c[1:11]]
    names = {n for n in vars(dop853) if re.fullmatch(r"A\d+_\d+", n)}
    assert names == {f"A{s}_{j}" for s, inputs in STAGE_INPUTS.items() for j in inputs}
    for s, inputs in STAGE_INPUTS.items():
        for j in range(s):
            if j in inputs:
                assert _bits(getattr(dop853, f"A{s}_{j}")) == _bits(a[s, j]), (s, j)
            else:
                assert a[s, j] == 0, (s, j)
        assert not a[s, s:].any(), s
    inputs = {0, *range(5, 12)}
    for prefix, row in (("B", dop853_coefficients.B), ("E5_", dop853_coefficients.E5),
                        ("E3_", dop853_coefficients.E3)):
        for j, x in enumerate(row):
            if j in inputs:
                assert _bits(getattr(dop853, f"{prefix}{j}")) == _bits(x), (prefix, j)
            else:
                assert x == 0, (prefix, j)
    # the interpolant's extra stages and D are kept dense, zeros included
    assert len(dop853._EXTRA) == 3
    for s, (cs, row) in zip(range(13, 16), dop853._EXTRA):
        assert _bits(cs) == _bits(c[s])
        assert [_bits(x) for x in row] == [_bits(x) for x in a[s, :s]]
        assert not a[s, s:].any()
    assert [[_bits(x) for x in row] for row in dop853._D] == [
        [_bits(x) for x in row] for row in dop853_coefficients.D
    ]


def test_matches_scipy_on_a_geodesic():
    """Same steps as scipy's DOP853: equal RHS-call count and final states
    equal to truncation level."""
    surf = PolarSurface.sectoral(3, 0.3)
    y0 = normalize_speed(surf, [1.2, 0.4, 0.3, 0.5])
    ref = scipy_solve_ivp(surf.rhs, (0.0, 50.0), y0, method="DOP853", rtol=1e-10, atol=1e-10)
    sol = solve_ivp(surf.rhs, (0.0, 50.0), y0, rtol=1e-10, atol=1e-10)
    assert sol.status == "finished" and sol.t[-1] == 50.0
    assert sol.nfev == ref.nfev
    assert len(sol.t) == len(ref.t)
    assert np.max(np.abs(np.array(sol.y) - ref.y[:, -1])) <= 1e-10



def test_rtol_below_scipys_floor_is_raised_to_it():
    """scipy's solve_ivp raises an rtol below 100 EPS to 100 EPS, with a
    warning: far below it the error estimate is rounding noise, and the
    steps shrink until the run crawls.  The same floor gives scipy's steps
    (without it this run takes 4202 RHS calls, not 2426)."""
    surf = PolarSurface.sectoral(3, 0.3)
    y0 = normalize_speed(surf, [1.2, 0.4, 0.3, 0.5])
    with pytest.warns(UserWarning, match="rtol"):
        ref = scipy_solve_ivp(surf.rhs, (0.0, 5.0), y0, method="DOP853", rtol=1e-16, atol=1e-16)
    with pytest.warns(UserWarning, match=r"rtol = 1e-16 is too small; setting rtol = 2\.22"):
        sol = solve_ivp(surf.rhs, (0.0, 5.0), y0, rtol=1e-16, atol=1e-16)
    assert sol.status == "finished" and sol.nfev == ref.nfev
    assert len(sol.t) == len(ref.t)
    # the step sizes follow error estimates near rounding level, so the
    # step times agree only loosely; the states agree to rounding
    assert np.max(np.abs(np.array(sol.t) - ref.t)) <= 1e-4
    assert np.max(np.abs(np.array(sol.y) - ref.y[:, -1])) <= 1e-12


def _oscillator(t, y):
    return [y[1], -y[0]]


def test_events_and_samples_on_the_oscillator():
    """y'' = -y from (1, 0): y = cos t falls through zero at pi/2 + 2 pi k
    and rises at 3 pi/2 + 2 pi k.  A terminal count of 3 on the falling
    event stops the run at its third root; samples past it are not
    reported."""

    def falling(t, y):
        return y[0]

    falling.direction = -1.0
    falling.terminal = 3

    def rising(t, y):
        return y[0]

    rising.direction = 1.0

    grid = np.linspace(0.0, 20.0, 41).tolist()
    sol = solve_ivp(
        _oscillator, (0.0, 50.0), [1.0, 0.0], rtol=1e-12, atol=1e-12,
        events=[falling, rising], samples=grid,
    )
    stop = math.pi / 2 + 4 * math.pi
    assert sol.status == "terminated"
    assert np.allclose(sol.t_events[0], [math.pi / 2 + 2 * math.pi * k for k in range(3)],
                       rtol=0, atol=1e-10)
    assert np.allclose(sol.t_events[1], [3 * math.pi / 2 + 2 * math.pi * k for k in range(2)],
                       rtol=0, atol=1e-10)
    assert sol.t[-1] == sol.t_events[0][-1]
    assert abs(sol.y[0]) <= 1e-10 and abs(sol.y[1] + 1.0) <= 1e-10
    reached = [s for s in grid if s <= stop]
    assert len(sol.samples) == len(reached)
    for s, (c, ms) in zip(reached, sol.samples):
        assert abs(c - math.cos(s)) <= 1e-10 and abs(ms + math.sin(s)) <= 1e-10
    for s, (c, _) in zip(sol.t_events[0], sol.y_events[0]):
        assert abs(c) <= 1e-10


def _zero_on(lo, hi, zero, sign):
    """An event ``sign * t`` shifted to return ``zero`` on all of [lo, hi]:
    it rises (sign 1) or falls (sign -1) through that interval.  Its calls
    that return a zero are logged by t."""
    def event(t, y):
        if lo <= t <= hi:
            event.zeros.append(t)
            return zero
        return sign * (t - lo if t < lo else t - hi)

    event.zeros = []
    event.direction = sign
    return event


def test_events_ignore_the_sign_of_a_zero_value():
    """An event that returns +0.0 or -0.0 gives the same roots and states,
    whether the zero comes at a step end or at a brentq probe; integrate's
    section event sums only the nonzero terms of its normal and relies on
    this, as its value can differ only in the sign of a zero."""
    plain = solve_ivp(_oscillator, (0.0, 10.0), [1.0, 0.0], rtol=1e-10, atol=1e-10)
    ends = plain.t[1:-1]
    mid = (ends[4] + ends[5]) / 2
    width = (ends[5] - ends[4]) / 50

    def run(zero):
        events = [
            _zero_on(ends[2], ends[2], zero, 1.0),  # zero at a step end alone
            _zero_on(ends[7] - 1e-9, ends[7] + 1e-9, zero, -1.0),
            _zero_on(mid - width, mid + width, zero, 1.0),  # inside one step
        ]
        sol = solve_ivp(_oscillator, (0.0, 10.0), [1.0, 0.0], rtol=1e-10, atol=1e-10,
                        events=events)
        return sol, events

    (pos, pos_events), (neg, neg_events) = run(0.0), run(-0.0)
    assert [e.zeros for e in pos_events] == [e.zeros for e in neg_events]
    zeros = [t for e in pos_events for t in e.zeros]
    assert {ends[2], ends[7]} <= set(zeros)
    assert any(t not in plain.t for t in zeros)  # a brentq probe
    assert all(pos.t_events) and pos.t == plain.t
    for field in ("t", "y", "t_events", "y_events", "nfev"):
        assert repr(getattr(pos, field)) == repr(getattr(neg, field)), field


def test_step_size_underflow_raises():
    # y' = y^2 from y(0) = 1 blows up at t = 1
    with pytest.raises(RuntimeError, match="step size"):
        solve_ivp(lambda t, y: [y[0] * y[0]], (0.0, 2.0), [1.0], rtol=1e-10, atol=1e-10)


def test_empty_span_rejected():
    with pytest.raises(ValueError, match="span"):
        solve_ivp(_oscillator, (1.0, 1.0), [1.0, 0.0], rtol=1e-8, atol=1e-8)


@pytest.mark.parametrize("rtol, atol", [(0.0, 1e-8), (-1.0, 1e-8), (1e-8, 0.0),
                                        (1e-8, math.nan), (math.inf, 1e-8)])
def test_tolerances_must_be_finite_and_positive(rtol, atol):
    """Zero tolerances divided by zero in the error norm and negative ones
    rejected every step, so the run never ended."""
    with pytest.raises(ValueError, match="must be finite and positive"):
        solve_ivp(_oscillator, (0.0, 1.0), [1.0, 0.0], rtol=rtol, atol=atol)


def test_counters_count_every_call():
    """nfev is every right-hand-side call: 2 to start, 12 per attempted step
    and 3 per step that holds an event root or a sample (three roots of
    cos t and the sample at 2.5 here, each in a step of its own)."""
    calls = []

    def fun(t, y):
        calls.append(t)
        return _oscillator(t, y)

    def zero(t, y):
        return y[0]

    sol = solve_ivp(fun, (0.0, 10.0), [1.0, 0.0], rtol=1e-10, atol=1e-10,
                    events=[zero], samples=[2.5])
    assert len(sol.t_events[0]) == 3 and len(sol.samples) == 1
    assert sol.nfev == len(calls)
    assert sol.nfev == 2 + 12 * (len(sol.t) - 1 + sol.rejected) + 3 * 4


@pytest.mark.parametrize("t_span, y0, fun, match", [
    ((0.0, 1.0), [], _oscillator, "at least one component"),
    ((0.0, 1.0), [1.0, math.nan], _oscillator, r"y0\[1\] = nan must be finite"),
    ((0.0, 1.0), [1.0, 0.0], lambda t, y: [math.inf, 0.0], r"fun\(t0, y0\)\[0\] = inf"),
    ((0.0, math.inf), [1.0, 0.0], _oscillator, r"t_span\[1\] = inf must be finite"),
    ((math.nan, 1.0), [1.0, 0.0], _oscillator, r"t_span\[0\] = nan must be finite"),
], ids=["empty-y0", "nan-y0", "inf-f0", "inf-t_bound", "nan-t0"])
def test_non_finite_or_empty_start_rejected(t_span, y0, fun, match):
    """An empty y0 divided by zero, and a NaN first step never underflowed,
    so a non-finite start ran forever."""
    with pytest.raises(ValueError, match=match):
        solve_ivp(fun, t_span, y0, rtol=1e-8, atol=1e-8)


@pytest.mark.parametrize("extra", [1, -1])
def test_wrong_number_of_components_rejected(extra):
    """A ``fun`` that returns more or fewer components than the state has is
    refused.  At the start a length check refuses it before the initial-step
    probe zips f0 with y0, which handed ``fun`` a shortened state (an
    IndexError from inside ``fun``).  Later it is refused where its stage is
    unpacked (a zip over the components would drop the extra ones or shrink
    the state), and the traceback shows the generated line."""
    def at_start(t, y):
        return [y[1], -y[0], 0.0][:2 + extra]

    with pytest.raises(ValueError, match=r"fun\(t0, y0\) has \d components where y0 has 2"):
        solve_ivp(at_start, (0.0, 1.0), [1.0, 0.0], rtol=1e-8, atol=1e-8)

    def later(t, y):
        return [0.5, -0.25, 0.125][:2 + extra] if t > 0.0 else [0.5, -0.25]

    with pytest.raises(ValueError, match="values to unpack") as info:
        solve_ivp(later, (0.0, 1.0), [1.0, 0.0], rtol=1e-8, atol=1e-8)
    frame = traceback.extract_tb(info.tb)[-1]
    assert frame.filename == "dop853 step, d=2"
    assert frame.line == "k1_0, k1_1, = k1"


# -- the generated step against a loop over the components --------------------------


def _reference_step(fun, t, y, k0, h):
    """One DOP853 step as one list comprehension over the zipped components
    per stage: the reference the generated step must equal bit for bit."""
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


def _reference_error_norm(ks, h, y, y_new, rtol, atol):
    """The combined err5/err3 norm as a loop over the components."""
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


def _nonlinear(t, y):
    d = len(y)
    return [math.sin(y[(i + 1) % d]) * y[i] - 0.3 * y[i - 1] ** 2 + math.cos(t + i)
            for i in range(d)]


def _logging(fun):
    calls = []

    def logged(t, y):
        calls.append((_bits(t), [_bits(x) for x in y]))
        return fun(t, y)

    return logged, calls


@pytest.mark.parametrize("d", [1, 2, 4, 8, 12])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generated_step_is_the_reference_bit_for_bit(d, data):
    """Every stage input, stage, y_new, f_new and error norm of the
    generated step equals the loop reference's, as ``float.hex``, on a
    nonlinear right-hand side."""
    finite = st.floats(-3.0, 3.0, allow_nan=False)
    y = data.draw(st.lists(finite, min_size=d, max_size=d))
    t = data.draw(finite)
    h = data.draw(st.floats(1e-8, 0.5))
    rtol = data.draw(st.floats(1e-13, 1e-3))
    atol = data.draw(st.floats(1e-13, 1e-3))
    k0 = _nonlinear(t, y)

    fun, calls = _logging(_nonlinear)
    ks, y_new, f_new, err = dop853._stepper(d)(fun, t, y, k0, h, rtol, atol)
    ref_fun, ref_calls = _logging(_nonlinear)
    ref_ks, ref_y_new, ref_f_new = _reference_step(ref_fun, t, y, k0, h)
    ref_err = _reference_error_norm(ref_ks, h, y, ref_y_new, rtol, atol)

    assert calls == ref_calls
    assert [[_bits(x) for x in k] for k in ks] == [[_bits(x) for x in k] for k in ref_ks]
    assert [_bits(x) for x in y_new] == [_bits(x) for x in ref_y_new]
    assert [_bits(x) for x in f_new] == [_bits(x) for x in ref_f_new]
    assert _bits(err) == _bits(ref_err)


# -- the generated interpolant and the RMS norm against plain loops ------------------


def _loop_dot(row, ks, i):
    """sum of row[j] * ks[j][i] over the whole row, zeros included, as a loop
    from 0.0."""
    total = 0.0
    for j, a in enumerate(row):
        total += a * ks[j][i]
    return total


def _reference_dense(fun, t, y, h, ks, y_new, f_new):
    """The interpolant's three extra stages and its coefficients as plain
    loops over the dense rows of _EXTRA and _D."""
    k = [*ks, f_new]
    for c, row in dop853._EXTRA:
        k.append(fun(t + c * h, [x + h * _loop_dot(row, k, i) for i, x in enumerate(y)]))
    rows = []
    for i, x in enumerate(y):
        dy = y_new[i] - x
        f0, f1 = ks[0][i], f_new[i]
        rows.append((x, dy, h * f0 - dy, 2.0 * dy - h * (f1 + f0),
                     *[h * _loop_dot(row, k, i) for row in dop853._D]))
    return rows


def _loop_rms(xs):
    total = 0.0
    for x in xs:
        total += x * x
    return math.sqrt(total / len(xs))


@pytest.mark.parametrize("d", [1, 2, 4, 8, 12])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generated_interpolant_is_the_reference_bit_for_bit(d, data):
    """Every extra-stage input and every coefficient of the generated
    interpolant equals the loop reference's, as ``float.hex``, on a
    nonlinear right-hand side.  sum() of floats would round otherwise from
    Python 3.12 on."""
    finite = st.floats(-3.0, 3.0, allow_nan=False)
    y = data.draw(st.lists(finite, min_size=d, max_size=d))
    t = data.draw(finite)
    h = data.draw(st.floats(1e-8, 0.5))
    ks, y_new, f_new, _ = dop853._stepper(d)(_nonlinear, t, y, _nonlinear(t, y), h, 1e-6, 1e-6)

    fun, calls = _logging(_nonlinear)
    rows = dop853._dense(d)(fun, t, y, h, ks, y_new, f_new)
    ref_fun, ref_calls = _logging(_nonlinear)
    ref_rows = _reference_dense(ref_fun, t, y, h, ks, y_new, f_new)

    assert calls == ref_calls
    assert [[_bits(x) for x in r] for r in rows] == [[_bits(x) for x in r] for r in ref_rows]


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=12))
@example(xs=[1.0, 0.63 * 2**-26, 0.63 * 2**-26])
def test_rms_is_a_left_to_right_loop(xs):
    """_rms equals a loop from 0.0, as ``float.hex``.  In the example each
    small square alone rounds away against 1.0 but the two together would
    not: from Python 3.12 on, sum() gives 1 + 2^-52 under the root there."""
    assert _bits(dop853._rms(xs)) == _bits(_loop_rms(xs))


# -- brentq, with scipy's as the oracle -----------------------------------------


def _scipy_root(f, a, b):
    return scipy_brentq(f, a, b, xtol=dop853.ROOT_TOL, rtol=dop853.ROOT_TOL)


def _logged(f):
    """f, and the list of points it is called at."""
    xs = []

    def g(x):
        xs.append(x)
        return f(x)

    return g, xs


def _brent_cases():
    """About 200 seeded (label, f, a, b) brackets: clustered polynomial roots,
    roots exactly at an end, flat and steep functions, smooth ones."""
    rng = np.random.default_rng(20261018)
    cases = []
    for k in range(50):
        c = rng.uniform(-3.0, 3.0)
        gap = 10.0 ** rng.uniform(-7.0, -1.0)
        roots = [c + gap * j for j in range(-1, 2)]  # three roots: one sign change
        cases.append((f"cluster{k}", lambda x, r=roots: math.prod(x - ri for ri in r),
                      c - rng.uniform(0.1, 2.0), c + rng.uniform(0.1, 2.0)))
    for k in range(25):
        a, b = sorted(rng.uniform(-5.0, 5.0, 2))
        cases.append((f"root-at-a{k}", lambda x, r=a: x - r, a, b))
        cases.append((f"root-at-b{k}", lambda x, r=b: (x - r) * (x + 10.0), a, b))
    for k in range(25):
        r = rng.uniform(-1.0, 1.0)
        scale = 10.0 ** rng.uniform(-300.0, -20.0)  # the flattest divide by an underflowed 0
        cases.append((f"flat{k}", lambda x, r=r, sc=scale: sc * (x - r) * (1.0 + (x - r) ** 2),
                      r - rng.uniform(0.1, 1.0), r + rng.uniform(0.1, 1.0)))
        w = 10.0 ** rng.uniform(-12.0, -3.0)
        cases.append((f"steep{k}", lambda x, r=r, w=w: math.tanh((x - r) / w),
                      r - rng.uniform(0.1, 1.0), r + rng.uniform(0.1, 1.0)))
        cases.append((f"step{k}", lambda x, r=r, w=w: math.atan((x - r) / w) + 1e-3 * w,
                      r - rng.uniform(0.1, 1.0), r + rng.uniform(0.1, 1.0)))
    for k in range(5):
        # a triple root, so flat that neither solver converges in 100 iterations
        r = rng.uniform(-1.0, 1.0)
        cases.append((f"triple{k}", lambda x, r=r: 1e-30 * (x - r) ** 3,
                      r - rng.uniform(0.1, 1.0), r + rng.uniform(0.1, 1.0)))
    for k in range(25):
        s = rng.uniform(0.5, 3.0)
        cases.append((f"cos{k}", lambda x, s=s: math.cos(s * x) - x, -1.0, 2.0))
    return cases


BRENT_CASES = _brent_cases()


@pytest.mark.parametrize("label, f, a, b", BRENT_CASES, ids=[c[0] for c in BRENT_CASES])
def test_brentq_is_scipys(label, f, a, b):
    """Same root, bit for bit, and the same points evaluated as
    ``scipy.optimize.brentq`` at the stepper's tolerances."""
    def outcome(solver, g):
        try:
            return _bits(solver(g, a, b))
        except RuntimeError:
            return "no convergence"

    ours, xs = _logged(f)
    ref, ref_xs = _logged(f)
    got = outcome(dop853.brentq, ours)
    assert got == outcome(_scipy_root, ref)
    assert [_bits(x) for x in xs] == [_bits(x) for x in ref_xs]
    assert (got == "no convergence") == label.startswith("triple")
    if label.startswith("root-at-a"):
        assert got == _bits(a) and len(xs) == 2


def test_brentq_on_the_section_event_of_real_steps(monkeypatch):
    """Every root the stepper takes on a geodesic's section and pole events,
    found on the interpolant of a real step, is scipy's root."""
    port = dop853.brentq
    roots = []

    def both(f, a, b):
        root = port(f, a, b)
        assert _bits(root) == _bits(_scipy_root(f, a, b))
        roots.append(root)
        return root

    monkeypatch.setattr(dop853, "brentq", both)
    surf = PolarSurface.sectoral(3, 0.3)
    traj = integrate(surf, [1.2, 0.4, 0.3, 0.5], 400.0, n_crossings=40)
    assert len(traj.crossings) == 40 and len(roots) >= 40


def test_brentq_raises_where_scipy_does():
    """Same-sign ends and NaN values raise ValueError; 100 iterations without
    convergence (a flat triple root here) raise RuntimeError."""
    for solver in (dop853.brentq, _scipy_root):
        with pytest.raises(ValueError, match="signs"):
            solver(lambda x: x * x + 1.0, -1.0, 1.0)
        with pytest.raises(ValueError, match="NaN"):
            solver(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0)
        with pytest.raises(RuntimeError, match="converge"):
            solver(lambda x: 1e-30 * (x - 0.3) ** 3, -0.2, 1.0)
