"""The in-repo DOP853 stepper, with scipy's ``solve_ivp`` as the oracle."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients

from harmgeo.dop853 import solve_ivp
from harmgeo.geodesic import normalize_speed
from harmgeo.surface import PolarSurface


# the stages each unrolled stage of ``dop853._step`` reads
STAGE_INPUTS = {1: {0}, 2: {0, 1}, 3: {0, 2}, 4: {0, 2, 3},
                **{s: {0, *range(3, s)} for s in range(5, 12)}}


def test_unrolled_stages_cover_the_tableau():
    """Every entry of A, B, E5 and E3 the unrolled step skips is zero."""
    a = dop853_coefficients.A
    for s, inputs in STAGE_INPUTS.items():
        assert all(a[s, j] == 0 for j in range(s) if j not in inputs), s
    inputs = {0, *range(5, 12)}
    for row in (dop853_coefficients.B, dop853_coefficients.E5, dop853_coefficients.E3):
        assert all(row[j] == 0 for j in range(len(row)) if j not in inputs)


def test_matches_scipy_on_a_geodesic():
    """Same steps as scipy's DOP853: equal RHS-call count and final states
    equal to truncation level."""
    surf = PolarSurface.sectoral(3, 0.3)
    y0 = normalize_speed(surf, [1.2, 0.4, 0.3, 0.5]).tolist()
    ref = scipy_solve_ivp(surf.rhs, (0.0, 50.0), y0, method="DOP853", rtol=1e-10, atol=1e-10)
    sol = solve_ivp(surf.rhs, (0.0, 50.0), y0, rtol=1e-10, atol=1e-10)
    assert sol.status == "finished" and sol.t[-1] == 50.0
    assert sol.nfev == ref.nfev
    assert len(sol.t) == len(ref.t)
    assert np.max(np.abs(np.array(sol.y) - ref.y[:, -1])) <= 1e-10


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


def test_step_size_underflow_raises():
    # y' = y^2 from y(0) = 1 blows up at t = 1
    with pytest.raises(RuntimeError, match="step size"):
        solve_ivp(lambda t, y: [y[0] * y[0]], (0.0, 2.0), [1.0], rtol=1e-10, atol=1e-10)


def test_empty_span_rejected():
    with pytest.raises(ValueError, match="span"):
        solve_ivp(_oscillator, (1.0, 1.0), [1.0, 0.0], rtol=1e-8, atol=1e-8)


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
