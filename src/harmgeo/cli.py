"""Command-line front end.

Subcommands: trace, psection, closed, lemma1, nve, kovacic, table1.
Global flags: --out-dir, --format {csv,json,svg}, --threads, --seed.
Exit codes: 0 success, 1 usage error, 2 computation failure.

The deformation strength may be given as an exact fraction ("1/3") or a
decimal string ("0.25"); both are parsed exactly, so "0.1" means 1/10.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def parse_eps(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"cannot parse eps {text!r}: {exc}")


# the longest file name most file systems accept, in bytes
_NAME_MAX = 255


def _eps_tag(eps: Fraction) -> str:
    return str(eps).replace("/", "over").replace(".", "p")


def _eps_name(template: str, eps: Fraction) -> str:
    """``template`` with ``{eps}`` replaced by eps's tag.  A tag that would
    push the name past _NAME_MAX gives way to its first 32 characters, "_"
    and 16 hex digits of the SHA-256 of str(eps)."""
    tag = _eps_tag(eps)
    name = template.format(eps=tag)
    if len(name.encode()) <= _NAME_MAX:
        return name
    digest = hashlib.sha256(str(eps).encode()).hexdigest()[:16]
    return template.format(eps=f"{tag[:32]}_{digest}")


def _add_global_flags(p: argparse.ArgumentParser, suppress: bool) -> None:
    """Global flags, accepted both before and after the subcommand."""

    def dflt(v):
        return argparse.SUPPRESS if suppress else v

    p.add_argument("--out-dir", default=dflt("."), help="directory for output files")
    p.add_argument(
        "--format",
        choices=("csv", "json", "svg"),
        default=dflt(None),
        help="restrict output to one format (default: all natural formats)",
    )
    p.add_argument("--threads", type=int, default=dflt(1), help="worker processes")
    p.add_argument("--seed", type=int, default=dflt(0), help="random seed")


def build_parser() -> _Parser:
    p = _Parser(prog="harmgeo", description=__doc__.splitlines()[0])
    _add_global_flags(p, suppress=False)
    common = _Parser(add_help=False)
    _add_global_flags(common, suppress=True)
    sub = p.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    t = sub.add_parser("trace", help="integrate a single geodesic",
                       parents=[common])
    t.add_argument("--family", default="sectoral",
                   choices=("sectoral", "zonal", "tesseral"))
    t.add_argument("--n", type=int, default=3, help="harmonic order (sectoral)")
    t.add_argument("--l", type=int, default=2, help="degree (zonal/tesseral)")
    t.add_argument("--m", type=int, default=1, help="order (tesseral)")
    t.add_argument("--eps", type=parse_eps, required=True)
    t.add_argument("--theta0", type=float, default=math.pi / 2)
    t.add_argument("--phi0", type=float, default=0.0)
    t.add_argument("--theta-dot", type=float, default=0.3)
    t.add_argument("--phi-dot", type=float, default=0.7)
    t.add_argument("--length", type=float, default=100.0)
    t.add_argument("--samples", type=int, default=1000)
    t.add_argument("--rtol", type=float, default=1e-12)

    s = sub.add_parser("psection", help="equatorial Poincare section",
                       parents=[common])
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--eps", type=parse_eps, required=True)
    s.add_argument("--traj", type=int, default=20)
    s.add_argument("--crossings", type=int, default=200)
    s.add_argument("--rotated", action="store_true",
                   help="rotate the section plane a quarter turn about x")
    s.add_argument("--rtol", type=float, default=1e-10)

    c = sub.add_parser("closed", help="find and classify closed geodesics",
                       parents=[common])
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--eps", type=parse_eps, required=True)
    c.add_argument("--max-period", type=int, default=4)

    le = sub.add_parser("lemma1", help="critical deformation for the "
                                       "equatorial restoring force",
                        parents=[common])
    le.add_argument("--n", type=int, required=True)
    le.add_argument("--eps", type=parse_eps, default=None,
                    help="also emit the exact certificate polynomial")
    le.add_argument("--tol", type=float, default=1e-5)

    nv = sub.add_parser("nve", help="exact equatorial variational equation",
                        parents=[common])
    nv.add_argument("--n", type=int, required=True)
    nv.add_argument("--eps", type=parse_eps, required=True)

    kv = sub.add_parser("kovacic", help="decide Liouvillian solvability",
                        parents=[common])
    kv.add_argument("--n", type=int, required=True)
    kv.add_argument("--eps", type=parse_eps, required=True)

    tb = sub.add_parser("table1", help="candidate census table",
                        parents=[common])
    tb.add_argument("--n-min", type=int, default=2)
    tb.add_argument("--n-max", type=int, default=12)
    return p


# ---------------------------------------------------------------------------


def cmd_trace(args, out: Path) -> int:
    from .geodesic import integrate
    from .surface import PolarSurface

    eps = float(args.eps)
    if args.family == "sectoral":
        surf = PolarSurface.sectoral(args.n, eps)
        tag = f"sectoral_n{args.n}"
    elif args.family == "zonal":
        surf = PolarSurface.zonal(args.l, eps)
        tag = f"zonal_l{args.l}"
    else:
        surf = PolarSurface.tesseral(args.l, args.m, eps)
        tag = f"tesseral_l{args.l}m{args.m}"
    y0 = [args.theta0, args.phi0, args.theta_dot, args.phi_dot]
    traj = integrate(
        surf, y0, args.length, n_samples=args.samples,
        rtol=args.rtol, atol=args.rtol,
    )
    path = out / _eps_name(f"trace_{tag}_eps{{eps}}.csv", args.eps)
    traj.to_csv(path)
    # the run's floats, not its arrays, which would import NumPy
    drift = max(abs(h - 1.0) for h in traj._h2)
    print(f"wrote {path} ({len(traj._s)} samples, {traj.chart_swaps} chart "
          f"swaps, max |2H-1| = {drift:.2e})")
    return 0


def cmd_psection(args, out: Path) -> int:
    from .poincare import (
        generate_section,
        section_to_csv,
        section_to_json,
        section_to_svg,
    )

    sec = generate_section(
        args.n,
        float(args.eps),
        n_traj=args.traj,
        n_crossings=args.crossings,
        seed=args.seed,
        rtol=args.rtol,
        atol=args.rtol,
        rotated=args.rotated,
        workers=max(args.threads, 1),
    )
    stem = f"psection_n{args.n}_eps{{eps}}_seed{args.seed}"
    if args.rotated:
        stem += "_rotated"
    written = []
    fmts = (args.format,) if args.format else ("csv", "svg")
    for fmt in fmts:
        path = out / _eps_name(f"{stem}.{fmt}", args.eps)
        {"csv": section_to_csv, "json": section_to_json, "svg": section_to_svg}[
            fmt
        ](sec, path)
        written.append(str(path))
    for msg in sec.failures:
        print(f"warning: {msg}", file=sys.stderr)
    # the rows, not the arrays, which would import NumPy
    print(f"wrote {', '.join(written)} "
          f"({sum(len(rows) for rows in sec._trajectories)} points)")
    return 0


def cmd_closed(args, out: Path) -> int:
    import numpy as np

    from .poincare import find_closed_geodesics

    found = find_closed_geodesics(args.n, float(args.eps),
                                  max_period=args.max_period)
    report = []
    for g in found:
        # by real, then imaginary part, descending: eigvals' own order follows
        # rounding noise when M[0,0] = M[1,1], as on reversible orbits
        eig = sorted(np.linalg.eigvals(g.monodromy).tolist(), key=lambda z: (z.real, z.imag),
                     reverse=True)
        report.append(
            {
                "family": g.family,
                "phi": g.phi,
                "phi_dot": g.phi_dot,
                "period_crossings": g.crossings,
                "length": g.length,
                "trace": g.trace,
                "det": g.det,
                "eigenvalues": [[z.real, z.imag] for z in eig],
                "stability_margin": g.margin,
                "classification": g.classification,
            }
        )
        print(f"{g.family:14s} phi={g.phi:.6f} phi_dot={g.phi_dot:+.2e} "
              f"period={g.crossings} length={g.length:.6f} "
              f"trace={g.trace:+.6f} -> {g.classification}")
    path = out / _eps_name(f"closed_n{args.n}_eps{{eps}}.json", args.eps)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"wrote {path}")
    return 0


def cmd_lemma1(args, out: Path) -> int:
    from .geodesic import lemma1_critical_eps, lemma1_poly

    # an eps with no surface is refused before the bisection runs
    poly = None if args.eps is None else lemma1_poly(args.n, args.eps)
    crit = lemma1_critical_eps(args.n, tol=args.tol)
    print(f"critical eps for n={args.n}: {crit:.6f}")
    if poly is not None:
        data = {
            "n": args.n,
            "eps": str(args.eps),
            "terms": {
                str(e): [str(c) for c in pc.coeffs] for e, pc in sorted(poly.items())
            },
        }
        path = out / _eps_name(f"lemma1_n{args.n}_eps{{eps}}.json", args.eps)
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2)
        print(f"wrote {path}")
    return 0


def cmd_nve(args, out: Path) -> int:
    from .nve import equatorial_nve, nve_to_json

    data = equatorial_nve(args.n, args.eps)
    path = out / _eps_name(f"nve_n{args.n}_eps{{eps}}.json", args.eps)
    with open(path, "w") as fh:
        fh.write(nve_to_json(data))
    betas = ", ".join(str(b) for b in data.betas)
    print(f"poles: {len(data.poles)}  beta: [{betas}]  beta_inf: {data.beta_inf}")
    print(f"wrote {path}")
    return 0


def cmd_kovacic(args, out: Path) -> int:
    from .kovacic import FuchsianODE, result_to_json, run_kovacic
    from .nve import equatorial_nve

    ode = FuchsianODE.from_nve(equatorial_nve(args.n, args.eps))
    res = run_kovacic(ode)
    path = out / _eps_name(f"kovacic_n{args.n}_eps{{eps}}.json", args.eps)
    with open(path, "w") as fh:
        fh.write(result_to_json(res))
    extra = ""
    if res.solution is not None:
        extra = f" (algebraic degree {res.solution.N}, d = {res.solution.d})"
    print(f"n={args.n} eps={args.eps}: {res.verdict}{extra}; "
          f"{len(res.ledger)} candidates examined")
    print(f"wrote {path}")
    return 0


def cmd_table1(args, out: Path) -> int:
    from .kovacic import census_json, census_table, census_text

    table = census_table(range(args.n_min, args.n_max + 1))
    text = census_text(table)
    sys.stdout.write(text)
    if args.format in (None, "csv"):
        path = out / "table1.txt"
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {path}")
    if args.format in (None, "json"):
        path = out / "table1.json"
        with open(path, "w") as fh:
            fh.write(census_json(table))
        print(f"wrote {path}")
    return 0


COMMANDS = {
    "trace": cmd_trace,
    "psection": cmd_psection,
    "closed": cmd_closed,
    "lemma1": cmd_lemma1,
    "nve": cmd_nve,
    "kovacic": cmd_kovacic,
    "table1": cmd_table1,
}


# a token led by "-" and a digit, or "-." and a digit, is a number
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


def _join_negative_eps(argv: list) -> list:
    """``--eps X`` as ``--eps=X`` where X is a negative number.  argparse
    takes a dash-led token for an option unless it is a plain integer or
    decimal, so ``--eps -1/10`` would otherwise miss its value."""
    out = []
    for tok in argv:
        if out and out[-1] == "--eps" and isinstance(tok, str) and _NEGATIVE_NUMBER.match(tok):
            out[-1] = f"--eps={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_negative_eps(argv))
    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.cmd](args, out)
    except (ValueError, RuntimeError, NotImplementedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
