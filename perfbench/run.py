"""harmgeo benchmark: one workload per run, end-to-end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload {section,trace,orbits,kovacic} \
        --seed N --seconds S --trace {0,1}

A run measures set-up in fresh interpreters, warms up in-process, then
repeats the workload's pass until ``--seconds`` have elapsed (at least one
pass).  With ``--trace 1`` untraced and traced passes alternate: the traced
ones give the per-layer metrics, the difference gives the tracing overhead.
Every pass is checked; a failed check makes the exit code 1.  All harmgeo
work runs in this one process (``workers=1``), except the set-up samples.

Timings are host-normalised.  On a shared 2-vCPU VM the speed of pure-Python
code drifts by 10-30% within seconds to minutes, which swamps run-to-run
comparisons of raw times.  A background thread therefore times
``reference_loop``, which never touches harmgeo, every ``SAMPLE_EVERY_S``
seconds.  The process is pinned to one CPU and the thread needs the
interpreter lock to run, so each sample runs on the same core, between
slices of the benchmark's own work.  A pass taking ``raw`` seconds while the
loop's median sample was ``ref`` seconds is reported as
``raw * REF_NOMINAL_S / ref``: seconds on a host that runs the loop in
``REF_NOMINAL_S``.  Raw times stay in the metadata.  Set-up times are
reported raw: they run in other interpreters while this one idles, and
normalising them by the loop timed in the child did not narrow their spread
in trials.

The last line of standard output is the result object; the line before it
holds the run's metadata.  Traced runs also write their spans to
``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 3
KERNEL_REPS, KERNEL_ROUNDS = 20000, 5
SAMPLE_EVERY_S = 0.05
# typical reference-loop time on a 2-vCPU Xeon VM; it only sets the scale
REF_NOMINAL_S = 1.0e-3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("section", "trace", "orbits", "kovacic"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_harmgeo():
    """Import harmgeo from this checkout's sources, never from elsewhere."""
    if not (SRC / "harmgeo" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no harmgeo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import harmgeo

    if Path(harmgeo.__file__).resolve().parent != (SRC / "harmgeo").resolve():
        raise SystemExit(f"perfbench: harmgeo imported from {harmgeo.__file__}, not {SRC}")
    return harmgeo


def reference_loop() -> None:
    """About 1 ms of Fraction, float and small-array numpy arithmetic, the
    mix that dominates harmgeo's exact and numeric halves.  It stays well
    under the interpreter's 5 ms switch interval, so a sample is rarely
    interrupted by the benchmark's own thread."""
    fr = [Fraction(7 * i + 1, i * i + 3) for i in range(1, 30)]
    acc = Fraction(0)
    for a, b in zip(fr, fr[1:]):
        acc += a * b - b / a
    y = 0.0
    for i in range(2000):
        y += math.sin(i * 1e-3)
    a, b = np.arange(4.0), np.ones(4)
    for _ in range(75):
        a = (a * 1.0001 + b) - np.abs(b) * 0.5


class HostSpeed:
    """Samples ``reference_loop`` from a background thread (see module doc)."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.wait(SAMPLE_EVERY_S):
            t0 = time.perf_counter()
            reference_loop()
            self.samples.append(time.perf_counter() - t0)

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, since: int) -> float:
        """Factor turning raw seconds since ``mark() == since`` into
        host-normalised seconds."""
        window = self.samples[since:]
        if not window:  # shorter than one sampling interval
            t0 = time.perf_counter()
            reference_loop()
            window = [time.perf_counter() - t0]
        return REF_NOMINAL_S / statistics.median(window)


def measure_setup(first_call: str) -> list[float]:
    """Import plus first call, timed inside fresh interpreters."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "t0 = time.perf_counter()\n"
        "import harmgeo\n"
        f"{first_call}"
        "print(time.perf_counter() - t0)\n"
    )
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up sample failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def kernel_rhs_us() -> float:
    """Median microseconds per direct ``kernels.sectoral_rhs`` call."""
    from harmgeo import kernels

    rhs = kernels.sectoral_rhs
    rounds = []
    for _ in range(KERNEL_ROUNDS):
        t0 = time.perf_counter()
        for _ in range(KERNEL_REPS):
            rhs(3, 0.2, 1.2, 0.4, 0.3, 0.6)
        rounds.append((time.perf_counter() - t0) / KERNEL_REPS * 1e6)
    return statistics.median(rounds)


def tail_percentile(values):
    """Highest whole percentile with at least ten values beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    return {"percentile": p, "value": statistics.quantiles(values, n=100)[p - 1]}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def run(args, harmgeo, host: HostSpeed) -> int:
    import scipy

    import workloads
    from tracing import Tracer

    golden = (SRC / "harmgeo" / "data" / "table1.txt").read_bytes()
    wl = workloads.make(args.workload, args.seed, golden)
    ops = workloads.Ops()

    setup = measure_setup(wl.first_call)
    wl.warm_up()

    radii = {}
    for label, surf in wl.surfaces().items():
        lo, hi = workloads.radius_range(surf)
        radii[label] = [lo, hi]
        ops.check(lo > 0.0, f"{label}: r reaches {lo:.3g} on the grid")

    tracer = Tracer() if args.trace else None
    plain, traced = [], []  # (seconds, work, work seconds, host scale)
    figures: dict[str, float] = {}
    first_fp = first_output = None
    start = time.perf_counter()
    while True:
        use_tracer = tracer is not None and len(traced) < len(plain)
        if use_tracer:
            tracer.install()
        since = host.mark()
        try:
            t0 = time.perf_counter()
            output, work, work_s = wl.run_pass()
            dt = time.perf_counter() - t0
        except Exception as exc:  # a crash is a failed operation, reported below
            ops.check(False, f"pass {len(plain) + len(traced) + 1} raised {exc!r}")
            break
        finally:
            if use_tracer:
                tracer.remove()
        (traced if use_tracer else plain).append((dt, work, work_s, host.scale(since)))
        for k, v in wl.check(output, ops).items():
            figures[k] = max(figures.get(k, 0.0), v)
        fp = wl.fingerprint(output)
        if first_fp is None:
            first_fp, first_output = fp, output
        else:
            ops.check(fp == first_fp, "pass output differs from the first pass")
        if time.perf_counter() - start >= args.seconds and (tracer is None or traced):
            break
    if len(plain) + len(traced) == 1:
        wl.repeat_check(first_output, ops)

    failed = len(ops.failures)
    for msg in ops.failures:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
    if not plain or (tracer is not None and not traced):
        return 1

    walls = [p[0] * p[3] for p in plain]
    wall = statistics.median(walls)
    work_per_s = sum(p[1] for p in plain) / sum(p[2] * p[3] for p in plain)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "backend": harmgeo.kernels.BACKEND,
        "wall_s": {"median": wall, "tail": tail_percentile(walls), "passes": len(walls)},
        "wall_raw_s": [p[0] for p in plain],
        "setup_samples_s": setup,
        "host_scale": [p[3] for p in plain + traced],
        wl.work_name: work_per_s,
        "failed_frac": failed / ops.attempted,
        "radius_range": radii,
        **figures,
    }

    if tracer is None:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "work_per_s": work_per_s,
            "ok_frac": (ops.attempted - failed) / ops.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        wall_traced = statistics.median(p[0] * p[3] for p in traced)
        values = tracer.layer_metrics(len(traced))
        values["geodesic.energy_drift_max"] = figures.get("energy_drift_max", 0.0)
        values["poincare.det_err_max"] = figures.get("det_err_max", 0.0)
        values["kernels.sectoral_rhs_us"] = kernel_rhs_us()
        values["bench.trace_overhead_s"] = wall_traced - wall
        meta["wall_traced_s"] = wall_traced
        OUT_DIR.mkdir(exist_ok=True)
        dump = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
        dump.write_text(json.dumps({"meta": meta, "spans": tracer.dump()}))

    # BENCHMARK.json is the one list of metric names and units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(values):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(units) ^ set(values)}")
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": ops.attempted,
                "failed": failed,
                "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    harmgeo = import_harmgeo()
    # one CPU for this process, its sampler thread and its set-up children,
    # so that host-speed samples describe the core the passes run on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with HostSpeed() as host:
        return run(args, harmgeo, host)


if __name__ == "__main__":
    sys.exit(main())
