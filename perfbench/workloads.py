"""The four benchmark workloads, each a fixed pass of calls into harmgeo's
public functions plus the checks on that pass's outputs.

A workload's inputs come from the seed alone, and every pass in a run repeats
the same calls, so passes are comparable and their outputs must be
bit-identical.  ``run_pass`` makes only library calls; ``check`` validates
outside the timed region.  Library functions are looked up on their modules
at call time so that the tracer's patches apply.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np

from harmgeo import geodesic, kovacic, nve, poincare
from harmgeo.algebra import Poly, RatFunc
from harmgeo.surface import PolarSurface


class Ops:
    """Checked operations: ``attempted`` and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def radius_range(surf: PolarSurface, n_theta: int = 64, n_phi: int = 128):
    """min and max of r on an interior (theta, phi) grid."""
    thetas = np.linspace(0.0, math.pi, n_theta + 2)[1:-1]
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    radii = [surf.radius(t, p) for t in thetas for p in phis]
    return min(radii), max(radii)


class Workload:
    # run in a fresh interpreter after ``import harmgeo`` to time set-up
    first_call = ""
    work_name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def surfaces(self) -> dict[str, PolarSurface]:
        return {}

    def warm_up(self) -> None:
        exec(self.first_call, {})

    def run_pass(self):
        """Returns (output, work units, seconds spent producing them)."""
        raise NotImplementedError

    def check(self, output, ops: Ops) -> dict[str, float]:
        """Validate one pass; returns its error figures."""
        raise NotImplementedError

    def fingerprint(self, output):
        """A value equal across passes exactly when outputs are identical."""
        raise NotImplementedError

    def repeat_check(self, output, ops: Ops) -> None:
        """Extra determinism check for runs with a single pass."""


# ---------------------------------------------------------------------------


class Section(Workload):
    """Plain and rotated sections of sectoral(3, 0.3), in the chaotic regime.

    Per-trajectory cost varies by about 20% between seeds, so a pass spreads
    its crossings over many trajectories to keep the run-to-run spread of
    the average small."""

    work_name = "crossings_per_s"
    N, EPS, N_TRAJ, CROSSINGS, RTOL = 3, 0.3, 12, 12, 1e-10
    first_call = (
        "from harmgeo.poincare import generate_section\n"
        "generate_section(3, 0.3, n_traj=1, n_crossings=1, rtol=1e-10, atol=1e-10)\n"
    )

    def surfaces(self):
        return {f"sectoral({self.N}, {self.EPS})": PolarSurface.sectoral(self.N, self.EPS)}

    def _section(self, n_traj, rotated):
        return poincare.generate_section(
            self.N, self.EPS, n_traj=n_traj, n_crossings=self.CROSSINGS,
            seed=self.seed, rtol=self.RTOL, atol=self.RTOL, rotated=rotated, workers=1,
        )

    def run_pass(self):
        t0 = time.perf_counter()
        out = [self._section(self.N_TRAJ, rotated) for rotated in (False, True)]
        dt = time.perf_counter() - t0
        return out, sum(len(sec.all_points()) for sec in out), dt

    def check(self, output, ops):
        for sec, kind in zip(output, ("plain", "rotated")):
            ops.check(not sec.failures, f"{kind} section failures: {sec.failures}")
            for k, pts in enumerate(sec.trajectories):
                ops.check(
                    pts.shape == (self.CROSSINGS, 3)
                    and np.isfinite(pts).all()
                    and ((pts[:, 1] >= 0.0) & (pts[:, 1] < 2.0 * math.pi)).all(),
                    f"{kind} trajectory {k}: bad crossings {pts.shape}",
                )
        return {}

    def fingerprint(self, output):
        return [pts.tobytes() for sec in output for pts in sec.trajectories]

    def repeat_check(self, output, ops):
        # Philox streams are keyed by (seed, trajectory index), so a second
        # run asking for fewer trajectories must repeat the first ones exactly
        for sec, rotated in zip(output, (False, True)):
            again = self._section(2, rotated)
            ops.check(
                all(np.array_equal(a, b) for a, b in zip(again.trajectories, sec.trajectories)),
                f"section rotated={rotated}: repeated seed gave different points",
            )


class Trace(Workload):
    """Dense-sampled single geodesics, one trajectory at a time.

    tesseral(2, 1, 0.2) is used because its r spans [0.70, 1.30]; the
    unnormalised ``assoc_legendre`` makes larger (l, m) give negative radii
    at modest eps, e.g. tesseral(4, 3, 0.15) reaches r = -4.1."""

    work_name = "arclength_per_s"
    LENGTH, SAMPLES, RTOL = 300.0, 1000, 1e-12
    DRIFT_MAX = 1e-9
    # the 500-unit, rtol-1e-10 integration of benchmarks/bench_kernels.py;
    # its drift at that tolerance is about 1.1e-9
    LEGACY = (500.0, 100, 1e-10, 1e-8)
    first_call = (
        "from harmgeo.geodesic import integrate\n"
        "from harmgeo.surface import PolarSurface\n"
        "integrate(PolarSurface.sectoral(3, 0.2), [1.2, 0.4, 0.3, 0.6], 1.0, n_samples=2)\n"
    )

    def __init__(self, seed):
        super().__init__(seed)
        self._surf = {
            "sectoral(3, 0.2)": PolarSurface.sectoral(3, 0.2),
            "zonal(2, 0.3)": PolarSurface.zonal(2, 0.3),
            "tesseral(2, 1, 0.2)": PolarSurface.tesseral(2, 1, 0.2),
        }
        self.traces = [
            ("sectoral", "sectoral(3, 0.2)", [1.2, 0.4, 0.3, 0.6]),
            ("meridian", "sectoral(3, 0.2)", [math.pi / 2, 0.0, -1.0, 0.0]),
            ("zonal", "zonal(2, 0.3)", [1.1, 0.0, 0.25, 0.7]),
            ("tesseral", "tesseral(2, 1, 0.2)", [1.1, 0.3, 0.25, 0.7]),
        ]

    def surfaces(self):
        return dict(self._surf)

    def run_pass(self):
        t0 = time.perf_counter()
        out = [
            geodesic.integrate(
                self._surf[s], y0, self.LENGTH, n_samples=self.SAMPLES,
                rtol=self.RTOL, atol=self.RTOL,
            )
            for _, s, y0 in self.traces
        ]
        length, samples, rtol, _ = self.LEGACY
        out.append(
            geodesic.integrate(
                self._surf["sectoral(3, 0.2)"], [1.2, 0.4, 0.3, 0.6], length,
                n_samples=samples, rtol=rtol, atol=rtol,
            )
        )
        dt = time.perf_counter() - t0
        return out, len(self.traces) * self.LENGTH + length, dt

    def check(self, output, ops):
        drift = 0.0
        grid = np.linspace(0.0, self.LENGTH, self.SAMPLES)
        for (label, _, _), traj in zip(self.traces, output):
            d = float(np.max(np.abs(traj.h2 - 1.0)))
            drift = max(drift, d)
            # integrate repeats a sample that falls exactly on a chunk
            # boundary (s = 100, 200 here), so compare the distinct points
            ops.check(
                traj.status == "completed"
                and np.array_equal(np.unique(traj.s), grid)
                and np.isfinite(traj.states).all()
                and d <= self.DRIFT_MAX,
                f"trace {label}: status {traj.status}, {len(traj.s)} samples, drift {d:.3g}",
            )
        merid = output[1]
        ops.check(merid.chart_swaps >= 1, "meridian trace never swapped charts")
        legacy = output[-1]
        d = float(np.max(np.abs(legacy.h2 - 1.0)))
        ops.check(
            legacy.status == "completed" and d <= self.LEGACY[3],
            f"500-unit trace: status {legacy.status}, drift {d:.3g}",
        )
        return {"energy_drift_max": drift}

    def fingerprint(self, output):
        return [t.states.tobytes() + t.h2.tobytes() + t.crossings.tobytes() for t in output]


class Orbits(Workload):
    """Closed-geodesic search on sectoral(2, 0.1) plus equator monodromy.

    Planar seeds converge to 4 elliptic orbits; perpendicular seeds never
    converge at periods 1-4, so their return maps are wasted work.  The
    equator is hyperbolic for n = 2 (it runs through the longest and the
    shortest axis) and elliptic for n = 3, 4."""

    work_name = "orbits_per_s"
    N, EPS = 2, 0.1
    EQUATOR = {2: "hyperbolic", 3: "elliptic", 4: "elliptic"}
    DET_MAX = 1e-4
    first_call = (
        "from harmgeo.poincare import return_map\n"
        "return_map(2, 0.1, 0.0, 0.0)\n"
    )

    def surfaces(self):
        return {f"sectoral({n}, {self.EPS})": PolarSurface.sectoral(n, self.EPS) for n in self.EQUATOR}

    def run_pass(self):
        t0 = time.perf_counter()
        found = poincare.find_closed_geodesics(self.N, self.EPS)
        mono = {n: poincare.equator_monodromy(n, self.EPS) for n in self.EQUATOR}
        dt = time.perf_counter() - t0
        return (found, mono), len(found), dt

    def check(self, output, ops):
        found, mono = output
        ops.check(len(found) == 4, f"expected 4 closed orbits, found {len(found)}")
        det_err = 0.0
        for g in found:
            err = abs(g.det - 1.0)
            det_err = max(det_err, err)
            ops.check(
                g.family == "planar" and g.classification == "elliptic" and err < self.DET_MAX,
                f"orbit {g.family} phi={g.phi:.6f}: {g.classification}, |det-1|={err:.3g}",
            )
        for n, m in mono.items():
            err = abs(float(np.linalg.det(m)) - 1.0)
            det_err = max(det_err, err)
            kind = "elliptic" if abs(np.trace(m)) < 2.0 else "hyperbolic"
            ops.check(
                kind == self.EQUATOR[n] and err < self.DET_MAX,
                f"equator n={n}: {kind}, |det-1|={err:.3g}",
            )
        return {"det_err_max": det_err}

    def fingerprint(self, output):
        found, mono = output
        return [
            (g.family, g.phi, g.phi_dot, g.crossings, g.length, g.monodromy.tobytes())
            for g in found
        ] + [m.tobytes() for m in mono.values()]


class Kovacic(Workload):
    """Census table, then exact Kovacic runs chosen for their candidate mix
    and number field: a solvable witness, a run touching every case and N,
    a rational-square discriminant, an irrational one with the same
    candidates, an empty candidate set, and the largest order."""

    work_name = "candidates_per_s"
    INPUTS = (
        (1, Fraction(1, 3)),
        (4, Fraction(1, 10)),
        (5, Fraction(1, 5)),  # D = (7/5)^2: QuadExt poles collapse to Q
        (5, Fraction(1, 10)),
        (7, Fraction(1, 10)),  # no candidates at all
        (12, Fraction(1, 2)),
    )
    first_call = (
        "from fractions import Fraction\n"
        "from harmgeo.kovacic import FuchsianODE\n"
        "from harmgeo.nve import equatorial_nve\n"
        "FuchsianODE.from_nve(equatorial_nve(2, Fraction(1, 10)))\n"
    )

    def __init__(self, seed, golden: bytes):
        super().__init__(seed)
        self.golden = golden

    def run_pass(self):
        table = kovacic.census_table_text(range(2, 13))
        results, searched, search_s = [], 0, 0.0
        for n, eps in self.INPUTS:
            ode = kovacic.FuchsianODE.from_nve(nve.equatorial_nve(n, eps))
            t0 = time.perf_counter()
            res = kovacic.run_kovacic(ode)
            search_s += time.perf_counter() - t0
            searched += sum(1 for e in res.ledger if e.searched)
            results.append((ode, res))
        return (table, results), searched, search_s

    def check(self, output, ops):
        table, results = output
        ops.check(table.encode() == self.golden, "census table differs from data/table1.txt")
        for (n, eps), (ode, res) in zip(self.INPUTS, results):
            if n == 1:
                ops.check(
                    res.verdict == "Solvable" and self._witness_ok(ode, res.solution, eps),
                    f"n=1 eps={eps}: {res.verdict} without the expected witness",
                )
                continue
            ledger_ok = all(e.searched and not e.success for e in res.ledger)
            ops.check(
                res.verdict == "Unsolvable" and ledger_ok and (not res.ledger) == (n == 7),
                f"n={n} eps={eps}: {res.verdict}, ledger of {len(res.ledger)}",
            )
        return {}

    @staticmethod
    def _witness_ok(ode, sol, eps) -> bool:
        """The case-1 witness: the logarithmic derivative of
        (z+1) (z^2-eps^2)^(3/4) (z-rho)^(-1/4) with rho = -(1+eps^2)/2."""
        if sol is None or sol.N != 1 or sol.d != 0:
            return False
        rho = -(1 + eps * eps) / 2

        def pole(c, a):
            return RatFunc(Poly([Fraction(c)]), Poly([-a, Fraction(1)]))

        witness = pole(1, Fraction(-1)) + pole(Fraction(3, 4), eps) + pole(Fraction(3, 4), -eps)
        witness = witness + pole(Fraction(-1, 4), rho)
        residual = sol.omega.derivative() + sol.omega * sol.omega - ode.r
        return residual.is_zero() and sol.omega == witness

    def fingerprint(self, output):
        table, results = output
        return [table] + [(res.verdict, tuple(res.ledger)) for _, res in results]


def make(name: str, seed: int, golden: bytes) -> Workload:
    if name == "kovacic":
        return Kovacic(seed, golden)
    return {"section": Section, "trace": Trace, "orbits": Orbits}[name](seed)

