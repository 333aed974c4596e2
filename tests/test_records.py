"""Result records: construction, defaults, ``==``, ``repr`` and immutability.

``Trajectory``, ``SectionData`` and ``ClosedGeodesic`` are plain classes
whose array fields keep their floats; ``Metric2`` and ``OdeResult`` are named
tuples.  The ``repr`` texts below are those the records printed when they
were dataclasses.
"""

import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import harmgeo
from harmgeo.dop853 import OdeResult
from harmgeo.geodesic import Trajectory
from harmgeo.poincare import ClosedGeodesic, SectionData
from harmgeo.surface import Metric2

SRC = str(Path(harmgeo.__file__).resolve().parent.parent)


def _trajectory(**changes):
    fields = dict(
        s=array("d", [0.0, 0.5]), states=array("d", [1.5, 0.0, 0.25, 0.5] * 2),
        h2=array("d", [1.0, 1.0]), crossings=[(0.5, 3.0, -0.25)], chart_swaps=1,
        status="crossings", nfev=26, steps=2,
    )
    return Trajectory(**{**fields, **changes})


def test_trajectory_construction_and_defaults():
    s, states, h2 = array("d", [0.0]), array("d", [1.5, 0.0, 0.25, 0.5]), array("d", [1.0])
    traj = Trajectory(s, states, h2, [], 0, "completed")
    assert (traj.crossing_jacobians, traj.nfev, traj.steps, traj.rejected_steps) == (
        None, 0, 0, 0
    )
    assert traj._n_tangents == 0
    assert traj.status == "completed" and traj.chart_swaps == 0
    assert traj._s is s and traj._states is states and traj._h2 is h2
    full = Trajectory(s, states, h2, [], 0, "completed", [], 5, 2, 1)
    assert (full._crossing_jacobians, full.nfev, full.steps, full.rejected_steps) == ([], 5, 2, 1)
    assert full == Trajectory(
        s=s, states=states, h2=h2, crossings=[], chart_swaps=0, status="completed",
        crossing_jacobians=[], nfev=5, steps=2, rejected_steps=1,
    )
    with pytest.raises(TypeError):
        Trajectory(s, states, h2, [], 0)  # status has no default


def test_section_data_construction_and_fresh_failures():
    rows = [[(1.0, 2.0, 0.5)]]
    sec = SectionData(2, 0.1, 7, 1, rows, [(2.0, 0.5)])
    other = SectionData(n=2, eps=0.1, seed=7, n_crossings=1, trajectories=rows,
                        initials=[(2.0, 0.5)])
    assert sec.failures == [] and other.failures == []
    assert sec.failures is not other.failures
    sec.failures.append("trajectory 0: only 0/1 crossings within s = 108.0")
    assert other.failures == [] and SectionData(2, 0.1, 7, 1, rows, [(2.0, 0.5)]).failures == []
    assert SectionData(2, 0.1, 7, 1, rows, [], ["x"]).failures == ["x"]
    assert (sec.n, sec.eps, sec.seed, sec.n_crossings, sec.initials) == (2, 0.1, 7, 1, [(2.0, 0.5)])
    with pytest.raises(TypeError):
        SectionData(2, 0.1, 7, 1, rows)  # initials has no default


def test_closed_geodesic_construction():
    args = ("planar", 0.0, 0.5, 1, 6.25, [[1.0, 0.0], [0.0, 1.0]], 1e-12)
    g = ClosedGeodesic(*args)
    assert g == ClosedGeodesic(family="planar", phi=0.0, phi_dot=0.5, crossings=1, length=6.25,
                               monodromy=[[1.0, 0.0], [0.0, 1.0]], residual=1e-12)
    assert (g.family, g.phi, g.phi_dot, g.crossings, g.length, g.residual) == (
        "planar", 0.0, 0.5, 1, 6.25, 1e-12
    )
    assert (g.trace, g.det, g.classification) == (2.0, 1.0, "parabolic")
    with pytest.raises(TypeError):
        ClosedGeodesic(*args[:-1])


def test_equality_compares_kept_floats():
    """``==`` compares every field, the array fields by their floats, in
    whatever container they were given; a record of another type is not
    equal, and no array is built."""
    traj = _trajectory()
    assert traj == _trajectory(s=[0.0, 0.5], crossings=array("d", [0.5, 3.0, -0.25]))
    for change in ({"s": [0.0, 0.25]}, {"crossings": []}, {"nfev": 27}, {"status": "completed"},
                   {"crossing_jacobians": []}):
        assert traj != _trajectory(**change), change
    assert not [k for k in traj.__dict__ if k.endswith("_array")]
    sec = SectionData(2, 0.1, 7, 1, [[(1.0, 2.0, 0.5)]], [(2.0, 0.5)])
    assert sec == SectionData(2, 0.1, 7, 1, [[[1.0, 2.0, 0.5]]], [(2.0, 0.5)])
    assert sec != SectionData(2, 0.1, 7, 1, [[(1.0, 2.0, 0.5)]], [(2.0, 0.5)], ["x"])
    assert sec != SectionData(2, 0.1, 7, 1, [[(1.0, 2.0, 0.75)]], [(2.0, 0.5)])
    assert sec != traj and traj != sec


def test_equality_imports_no_numpy():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "sys.modules['numpy'] = None\n"
        "from harmgeo.geodesic import Trajectory\n"
        "from harmgeo.poincare import ClosedGeodesic, SectionData\n"
        "t = [Trajectory([0.0], [1.5, 0.0, 0.25, 0.5], [1.0], [(0.5, 3.0, x)], 1, 'crossings')\n"
        "     for x in (-0.25, -0.25, 0.25)]\n"
        "s = [SectionData(2, 0.1, 7, 1, [[(1.0, 2.0, x)]], [(2.0, 0.5)])\n"
        "     for x in (0.5, 0.5, 1.0)]\n"
        "g = [ClosedGeodesic('planar', 0.0, 0.5, 1, 6.25, [[x, 0.0], [0.0, 1.0]], 1e-12)\n"
        "     for x in (1.0, 1.0, 2.0)]\n"
        "for a, b, c in (t, s, g):\n"
        "    assert a == b and a != c and not (a != b)\n"
        "assert g[2].trace == 3.0\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'numpy' and sys.modules[m]]\n"
    )
    proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_repr_is_the_dataclass_text():
    assert repr(_trajectory()) == (
        "Trajectory(s=array([0. , 0.5]), states=array([[1.5 , 0.  , 0.25, 0.5 ],\n"
        "       [1.5 , 0.  , 0.25, 0.5 ]]), h2=array([1., 1.]), "
        "crossings=array([[ 0.5 ,  3.  , -0.25]]), chart_swaps=1, status='crossings', "
        "crossing_jacobians=None, nfev=26, steps=2, rejected_steps=0)"
    )
    tangent = Trajectory(array("d", [0.0]), array("d", [1.5, 0.0, 0.25, 0.5]), array("d", [1.0]),
                         [], 0, "completed", [])
    tangent._n_tangents = 2
    assert repr(tangent) == (
        "Trajectory(s=array([0.]), states=array([[1.5 , 0.  , 0.25, 0.5 ]]), h2=array([1.]), "
        "crossings=array([], shape=(0, 3), dtype=float64), chart_swaps=0, status='completed', "
        "crossing_jacobians=array([], shape=(0, 2, 2), dtype=float64), nfev=0, steps=0, "
        "rejected_steps=0)"
    )
    sec = SectionData(2, 0.1, 7, 1, [[(1.0, 2.0, 0.5)], []], [(2.0, 0.5), (1.0, -0.5)])
    assert repr(sec) == (
        "SectionData(n=2, eps=0.1, seed=7, n_crossings=1, trajectories=[array([[1. , 2. , 0.5]]), "
        "array([], shape=(0, 3), dtype=float64)], initials=[(2.0, 0.5), (1.0, -0.5)], "
        "failures=[])"
    )
    g = ClosedGeodesic("planar", 0.0, 0.5, 1, 6.25, [[1.0, 0.0], [0.0, 1.0]], 1e-12)
    assert repr(g) == (
        "ClosedGeodesic(family='planar', phi=0.0, phi_dot=0.5, crossings=1, length=6.25, "
        "monodromy=array([[1., 0.],\n       [0., 1.]]), residual=1e-12)"
    )
    assert repr(Metric2(1.0, 0.0, 0.25)) == "Metric2(g_tt=1.0, g_tp=0.0, g_pp=0.25)"
    assert repr(OdeResult([0.0, 1.0], [1.0], [[]], [[]], [], 12, 0, "finished")) == (
        "OdeResult(t=[0.0, 1.0], y=[1.0], t_events=[[]], y_events=[[]], samples=[], nfev=12, "
        "rejected=0, status='finished')"
    )


def test_named_tuple_records():
    g = Metric2(g_tt=1.0, g_tp=0.5, g_pp=2.0)
    assert Metric2._fields == ("g_tt", "g_tp", "g_pp")
    assert g == Metric2(1.0, 0.5, 2.0) == (1.0, 0.5, 2.0)
    assert (g.g_tt, g.g_tp, g.g_pp, g.det) == (1.0, 0.5, 2.0, 1.75)
    res = OdeResult([0.0, 1.0], [1.0], [[]], [[]], [], 12, 0, "finished")
    assert OdeResult._fields == (
        "t", "y", "t_events", "y_events", "samples", "nfev", "rejected", "status"
    )
    assert (res.t, res.y, res.nfev, res.rejected, res.status) == (
        [0.0, 1.0], [1.0], 12, 0, "finished"
    )
    for record, name in ((g, "g_tt"), (res, "nfev")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            record.extra = 0  # no instance dict
