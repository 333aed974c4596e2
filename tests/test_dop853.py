"""The in-repo DOP853 stepper, with scipy's ``solve_ivp`` as the oracle."""

import math
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.optimize import brentq as scipy_brentq

from harmgeo import dop853
from harmgeo.dop853 import solve_ivp
from harmgeo.geodesic import integrate, normalize_speed
from harmgeo.surface import PolarSurface


# the stages each unrolled stage of ``dop853._step`` reads
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
