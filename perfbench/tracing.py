"""In-memory spans and counters around calls into harmgeo's modules.

The benchmark patches module and class attributes from here; harmgeo's own
source is never touched.  ``Tracer.install`` swaps the wrappers in and
``Tracer.remove`` puts the originals back, so untraced passes run the
unmodified program.

Three kinds of boundary are recorded:

* spans (name, start, end, parent) around calls made at most a few thousand
  times per pass: ``integrate``, ``return_map``, one Kovacic search ...;
* leaves (call count and busy time, no span) around calls made hundreds of
  thousands of times per pass, i.e. the geodesic right-hand side.  Their
  time is charged to the innermost open span, so a span's self time
  excludes it;
* counters (call count only) around constructors, where even two clock
  reads per call would dominate.
"""

from __future__ import annotations

import sys
import types
from time import perf_counter

PACKAGE = "harmgeo"
KOVACIC_N = (1, 2, 4, 6, 12)


class Span:
    __slots__ = ("name", "start", "end", "parent", "leaf_s")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.leaf_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []  # indices of open spans, innermost last
        self.leaves: dict[str, list] = {}  # name -> [calls, seconds]
        self.counts: dict[str, int] = {}
        self._patches: list = []

    # -- wrappers ------------------------------------------------------------
    def span(self, name, on_result=None):
        """Wrapper factory recording one span per call.  ``on_result(span,
        args, result)`` may rename the span or bump counters."""
        spans, open_ = self.spans, self._open

        def wrap(fn):
            def wrapper(*args, **kwargs):
                rec = Span(name, open_[-1] if open_ else None)
                open_.append(len(spans))
                spans.append(rec)
                rec.start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec.end = perf_counter()
                    open_.pop()
                if on_result is not None:
                    on_result(rec, args, result)
                return result

            return wrapper

        return wrap

    def leaf(self, name):
        stats = self.leaves.setdefault(name, [0, 0.0])
        spans, open_ = self.spans, self._open

        def wrap(fn):
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    stats[0] += 1
                    stats[1] += dt
                    if open_:
                        spans[open_[-1]].leaf_s += dt

            return wrapper

        return wrap

    def counter(self, name, on_result=None):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrap(fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result

            return wrapper

        return wrap

    def bump(self, name, by=1):
        self.counts[name] = self.counts.get(name, 0) + by

    # -- patching ------------------------------------------------------------
    def patch(self, owner, attr, wrap):
        """Replace ``owner.attr`` with ``wrap(original)``.  For a module, every
        loaded harmgeo module holding the same object under that name (a
        ``from .x import f`` re-export) is patched too."""
        original = getattr(owner, attr)
        owners = [owner]
        if isinstance(owner, types.ModuleType):
            owners = [
                mod
                for name, mod in list(sys.modules.items())
                if (name == PACKAGE or name.startswith(PACKAGE + "."))
                and getattr(mod, attr, None) is original
            ]
        wrapped = wrap(original)
        for o in owners:
            self._patches.append((o, attr, original))
            setattr(o, attr, wrapped)

    def install(self):
        from harmgeo import algebra, geodesic, kovacic, nve, poincare, surface
        from harmgeo import trigring

        def on_integrate(rec, args, traj):
            self.bump("geodesic.crossings", len(traj.crossings))
            self.bump("geodesic.chart_swaps", traj.chart_swaps)
            if len(traj.s) > 1:  # dense samples were requested
                self.bump("geodesic.samples", len(traj.s))

        def on_solve_ivp(sol):
            self.bump("geodesic.solver_steps", len(sol.t) - 1)

        def on_closed(rec, args, found):
            self.bump("poincare.orbits", len(found))

        def on_candidates(rec, args, cands):
            self.bump(f"kovacic.candidates.N{args[1]}", len(cands))

        def on_search(rec, args, sol):
            rec.name = f"kovacic.search.N{args[1].N}"

        def on_verify(rec, args, ok):
            self.bump("kovacic.verified", bool(ok))

        self.patch(surface.PolarSurface, "rhs", self.leaf("surface.rhs"))
        self.patch(algebra.QuadExt, "__init__", self.counter("algebra.quadext_new"))
        self.patch(geodesic, "solve_ivp", self.counter("geodesic.solve_ivp", on_solve_ivp))
        self.patch(geodesic, "integrate", self.span("geodesic.integrate", on_integrate))
        self.patch(poincare, "generate_section", self.span("poincare.generate_section"))
        self.patch(poincare, "return_map", self.span("poincare.return_map"))
        self.patch(poincare, "monodromy_matrix", self.span("poincare.monodromy_matrix"))
        self.patch(poincare, "equator_monodromy", self.span("poincare.equator_monodromy"))
        self.patch(
            poincare, "find_closed_geodesics", self.span("poincare.find_closed_geodesics", on_closed)
        )
        self.patch(trigring, "sectoral_christoffels", self.span("trigring.sectoral_christoffels"))
        self.patch(nve, "equatorial_nve", self.span("nve.equatorial_nve"))
        self.patch(kovacic, "census_table_text", self.span("kovacic.census_table_text"))
        self.patch(kovacic, "run_kovacic", self.span("kovacic.run_kovacic"))
        self.patch(kovacic, "candidates_for", self.span("kovacic.candidates_for", on_candidates))
        self.patch(kovacic, "search_for", self.span("kovacic.search", on_search))
        self.patch(kovacic, "verify_solution", self.span("kovacic.verify_solution", on_verify))

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------
    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass figures for every per-layer metric the spans can give."""
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        for sp in self.spans:
            calls[sp.name] = calls.get(sp.name, 0) + 1
            total[sp.name] = total.get(sp.name, 0.0) + sp.duration
            self_s[sp.name] = self_s.get(sp.name, 0.0) + sp.duration - sp.leaf_s

        def count(name):
            return self.counts.get(name, 0)

        rhs_calls, rhs_s = self.leaves.get("surface.rhs", (0, 0.0))
        steps = count("geodesic.solver_steps")
        searches = sum(calls.get(f"kovacic.search.N{N}", 0) for N in KOVACIC_N)
        orbits = count("poincare.orbits")
        out = {
            "surface.rhs_calls": rhs_calls,
            "surface.rhs_s": rhs_s,
            "geodesic.integrate_calls": calls.get("geodesic.integrate", 0),
            # integrate minus the RHS time inside it: solve_ivp stepping,
            # event location, chart swaps and dense sampling
            "geodesic.integrate_self_s": self_s.get("geodesic.integrate", 0.0),
            "geodesic.solver_steps": steps,
            "geodesic.samples": count("geodesic.samples"),
            "geodesic.chart_swaps": count("geodesic.chart_swaps"),
            "geodesic.crossings": count("geodesic.crossings"),
            "poincare.return_map_calls": calls.get("poincare.return_map", 0),
            "poincare.return_map_s": total.get("poincare.return_map", 0.0),
            "poincare.monodromy_matrix_s": total.get("poincare.monodromy_matrix", 0.0),
            "poincare.equator_monodromy_s": total.get("poincare.equator_monodromy", 0.0),
            "trigring.sectoral_christoffels_s": total.get("trigring.sectoral_christoffels", 0.0),
            "nve.equatorial_nve_s": total.get("nve.equatorial_nve", 0.0),
            "kovacic.census_s": total.get("kovacic.census_table_text", 0.0),
            "kovacic.candidates_s": total.get("kovacic.candidates_for", 0.0),
            "kovacic.verify_s": total.get("kovacic.verify_solution", 0.0),
            "algebra.quadext_new": count("algebra.quadext_new"),
        }
        for N in KOVACIC_N:
            out[f"kovacic.candidates.N{N}"] = count(f"kovacic.candidates.N{N}")
            out[f"kovacic.search_calls.N{N}"] = calls.get(f"kovacic.search.N{N}", 0)
            out[f"kovacic.search_s.N{N}"] = total.get(f"kovacic.search.N{N}", 0.0)
        out = {k: v / passes for k, v in out.items()}
        # ratios are taken over the totals, so they need no per-pass scaling
        out["geodesic.rhs_per_step"] = rhs_calls / steps if steps else 0.0
        out["poincare.return_maps_per_orbit"] = (
            calls.get("poincare.return_map", 0) / orbits if orbits else 0.0
        )
        out["kovacic.solved_frac"] = count("kovacic.verified") / searches if searches else 0.0
        return out

    def dump(self) -> list:
        """Spans as [name, start, end, parent index, leaf seconds] rows."""
        return [[s.name, s.start, s.end, s.parent, s.leaf_s] for s in self.spans]
