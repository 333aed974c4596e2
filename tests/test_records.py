"""Result records: construction, defaults, ``==``, ``repr`` and immutability.

The numeric half's ``Trajectory``, ``SectionData`` and ``ClosedGeodesic``
are plain classes whose array fields keep their floats; ``Metric2`` and
``OdeResult`` are named tuples.  The exact half's records are
``PartialFractions``, ``NVEData`` and Kovacic's ``FuchsianODE``,
``LocalExponents``, ``Candidate``, ``Solution``, ``LedgerEntry`` and
``KovacicResult``.  The ``repr`` texts below are those the records printed
when they were dataclasses.
"""

import subprocess
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

import harmgeo
from harmgeo.algebra import PartialFractions, Poly, QuadExt, RatFunc
from harmgeo.dop853 import OdeResult
from harmgeo.geodesic import Trajectory
from harmgeo.kovacic import (
    Candidate,
    FuchsianODE,
    KovacicResult,
    LedgerEntry,
    LocalExponents,
    Solution,
)
from harmgeo.nve import NVEData, equatorial_nve
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


# ---------------------------------------------------------------------------
# the exact half's records
# ---------------------------------------------------------------------------

_R = RatFunc(Poly([2, 0, 1]), Poly([0, 0, 1]))
_RT = "RatFunc(Poly((2) + (1)*z^2), Poly((1)*z^2))"


def _exact_records():
    """One record of each exact type as (record, its positional fields)."""
    f = Fraction
    fields = {
        PartialFractions: ((f(0), QuadExt(1, 2, 5)), (f(1), f(0)), (f(0), f(0)), f(1)),
        NVEData: (2, f(1, 10), Poly([1]), Poly([1, 2]), Poly([0, 1]), _R, (f(-1),), (f(0),),
                  (f(1),), f(3, 4), Poly([1, 0, 1])),
        FuchsianODE: (_R, (f(0),), (f(2),), (f(0),), f(2)),
        LocalExponents: ((f(0), f(-3, 16)), (f(1), f(0)), f(3, 4)),
        Candidate: (2, 1, (2, 3), 6, (2, 3, 6), (0, 1, 2)),
        Solution: (2, 1, _R, Poly([0, 1]), None, _R, _R, (_R, _R)),
        LedgerEntry: (4, 2, (3, 3, 6), 2, True, False),
        KovacicResult: (False, None, [LedgerEntry(4, 2, (3, 3, 6), 2, True, False)]),
    }
    return [(cls(*args), args) for cls, args in fields.items()]


_NAMES = {
    PartialFractions: ("poles", "betas", "deltas", "beta_inf"),
    NVEData: ("n", "eps", "p_num", "q_num", "den", "r", "poles", "betas", "deltas", "beta_inf",
              "gpp_equator"),
    FuchsianODE: ("r", "poles", "betas", "deltas", "beta_inf"),
    LocalExponents: ("betas", "deltas", "beta_inf"),
    Candidate: ("N", "d", "exps", "exp_inf", "labels", "group"),
    Solution: ("N", "d", "theta", "P", "omega", "phi", "psi", "minpoly"),
    LedgerEntry: ("N", "d", "labels", "multiplicity", "searched", "success"),
    KovacicResult: ("solvable", "solution", "ledger"),
}


def test_exact_records_construction():
    """Positional and keyword construction, in the same field order."""
    for record, args in _exact_records():
        cls = type(record)
        names = _NAMES[cls]
        assert tuple(getattr(record, name) for name in names) == args, cls
        assert cls(**dict(zip(names, args))) == record, cls
        with pytest.raises(TypeError):
            cls(*args, None)  # one argument too many


def test_exact_records_defaults():
    cand = Candidate(2, 1, (2, 3), 6, (2, 3, 6))
    assert cand.group == ()
    sol = Solution(1, 0, _R, Poly([1]))
    assert (sol.omega, sol.phi, sol.psi, sol.minpoly) == (None, None, None, None)
    a, b = KovacicResult(True, sol), KovacicResult(solvable=False, solution=None)
    assert a.ledger == [] and b.ledger == [] and a.ledger is not b.ledger
    a.ledger.append(LedgerEntry(1, 0, ("+",), 1, True, True))
    assert b.ledger == [] and KovacicResult(True, sol).ledger == []
    assert (a.verdict, b.verdict) == ("Solvable", "Unsolvable")
    for cls, required in ((Candidate, 5), (Solution, 4), (KovacicResult, 2)):
        with pytest.raises(TypeError):
            cls(*range(required - 1))


def test_exact_records_equality():
    """``==`` compares every field but ``Candidate.group``; a record of
    another type is not equal."""
    records = _exact_records()
    for (record, args), (other, _) in zip(records, records[1:] + records[:1]):
        cls = type(record)
        assert record == cls(*args) and not record != cls(*args), cls
        assert record != other, cls
        changed = list(args)
        changed[0] = "changed"
        assert record != cls(*changed), cls
    cand = Candidate(2, 1, (2, 3), 6, (2, 3, 6), (0, 1, 2))
    assert cand == Candidate(2, 1, (2, 3), 6, (2, 3, 6), (9,)) == Candidate(2, 1, (2, 3), 6,
                                                                           (2, 3, 6))
    assert cand != Candidate(2, 1, (2, 3), 6, (2, 3, 7), (0, 1, 2))
    data = equatorial_nve(2, Fraction(1, 10))
    assert data == equatorial_nve(2, Fraction(1, 10)) != equatorial_nve(2, Fraction(1, 5))
    ode = FuchsianODE.from_nve(data)
    assert ode == FuchsianODE.from_nve(equatorial_nve(2, Fraction(1, 10)))


def test_exact_records_repr_is_the_dataclass_text():
    reprs = [repr(record) for record, _ in _exact_records()]
    assert reprs == [
        "PartialFractions(poles=(Fraction(0, 1), QuadExt(1, 2, D=5)), "
        "betas=(Fraction(1, 1), Fraction(0, 1)), deltas=(Fraction(0, 1), Fraction(0, 1)), "
        "beta_inf=Fraction(1, 1))",
        "NVEData(n=2, eps=Fraction(1, 10), p_num=Poly((1)), q_num=Poly((1) + (2)*z^1), "
        f"den=Poly((1)*z^1), r={_RT}, poles=(Fraction(-1, 1),), betas=(Fraction(0, 1),), "
        "deltas=(Fraction(1, 1),), beta_inf=Fraction(3, 4), gpp_equator=Poly((1) + (1)*z^2))",
        f"FuchsianODE(r={_RT}, poles=(Fraction(0, 1),), betas=(Fraction(2, 1),), "
        "deltas=(Fraction(0, 1),), beta_inf=Fraction(2, 1))",
        "LocalExponents(betas=(Fraction(0, 1), Fraction(-3, 16)), "
        "deltas=(Fraction(1, 1), Fraction(0, 1)), beta_inf=Fraction(3, 4))",
        "Candidate(N=2, d=1, exps=(2, 3), exp_inf=6, labels=(2, 3, 6))",
        f"Solution(N=2, d=1, theta={_RT}, P=Poly((1)*z^1), omega=None, phi={_RT}, psi={_RT}, "
        f"minpoly=({_RT}, {_RT}))",
        "LedgerEntry(N=4, d=2, labels=(3, 3, 6), multiplicity=2, searched=True, success=False)",
        "KovacicResult(solvable=False, solution=None, ledger=[LedgerEntry(N=4, d=2, "
        "labels=(3, 3, 6), multiplicity=2, searched=True, success=False)])",
    ]
    assert repr(Solution(1, 0, _R, Poly([1]))) == (
        f"Solution(N=1, d=0, theta={_RT}, P=Poly((1)), omega=None, phi=None, psi=None, "
        "minpoly=None)"
    )
    # the cached parts are no fields
    data = equatorial_nve(2, Fraction(1, 10))
    text = repr(data)
    data.p, data.q
    assert repr(data) == text and "p=" not in text.replace("p_num=", "")
    ode = FuchsianODE(*_exact_records()[2][1])
    ode._descent_parts
    assert repr(ode) == reprs[2]


def test_exact_records_mutability():
    """The formerly frozen records refuse every assignment and deletion and
    hash by the fields ``==`` compares; ``Solution`` and ``KovacicResult``
    take assignments and do not hash."""
    for record, args in _exact_records():
        cls = type(record)
        name = _NAMES[cls][0]
        if cls in (Solution, KovacicResult):
            setattr(record, name, 0)
            assert getattr(record, name) == 0
            with pytest.raises(TypeError):
                hash(record)
            continue
        for attempt in (lambda: setattr(record, name, 0), lambda: delattr(record, name),
                        lambda: setattr(record, "extra", 0)):
            with pytest.raises(AttributeError):
                attempt()
        assert getattr(record, name) == args[0], cls
        compared = args[:-1] if cls is Candidate else args
        assert hash(record) == hash(compared), cls


def test_exact_cached_parts_are_computed_once():
    data = equatorial_nve(3, Fraction(1, 4))
    assert data.p is data.p and data.q is data.q
    assert data.p == RatFunc(data.p_num, data.den) and data.q == RatFunc(data.q_num, data.den)
    ode = FuchsianODE.from_nve(data)
    parts = ode._descent_parts
    assert ode._descent_parts is parts and len(parts) == 4
    with pytest.raises(AttributeError):
        data.p = None


def test_exact_named_tuple_records():
    """``PartialFractions``, ``LocalExponents`` and ``LedgerEntry`` are named
    tuples: they unpack as tuples and equal a plain tuple of their fields."""
    for record, args in _exact_records():
        if isinstance(record, tuple):
            assert record._fields == _NAMES[type(record)]
            assert record == args and tuple(record) == args
