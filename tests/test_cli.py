"""Command-line interface: exit codes, flags, file outputs, determinism."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from harmgeo.cli import _eps_name, _eps_tag, main, parse_eps


def run(argv):
    return main([str(a) for a in argv])


# -- argument handling ----------------------------------------------------------


def test_eps_parsing_is_exact():
    assert parse_eps("1/3") == Fraction(1, 3)
    assert parse_eps("0.1") == Fraction(1, 10)  # decimal string, not a float
    with pytest.raises(Exception):
        parse_eps("nope")


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as e:
        run(["psection", "--n", "3"])  # missing --eps
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        run(["frobnicate"])
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        run([])
    assert e.value.code == 1


def test_computation_failure_exits_2(tmp_path, capsys):
    # eps = 0 is rejected by the exact derivation
    code = run(["--out-dir", tmp_path, "nve", "--n", "3", "--eps", "0"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def _written(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@pytest.mark.parametrize(
    "argv",
    [
        ["closed", "--n", "2", "--eps", "-1/10", "--max-period", "1"],
        ["psection", "--n", "3", "--eps", "-3/10", "--traj", "2", "--crossings", "2"],
        ["trace", "--n", "3", "--eps", "-1/10", "--length", "5", "--samples", "10"],
        ["lemma1", "--n", "2", "--eps", "-1/2"],
    ],
    ids=["closed", "psection", "trace", "lemma1"],
)
def test_negative_fraction_eps_as_its_own_token(tmp_path, argv):
    """``--eps -1/10`` runs as ``--eps=-1/10`` does, with the same files."""
    k = argv.index("--eps")
    joined = argv[:k] + [f"--eps={argv[k + 1]}"] + argv[k + 2:]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["--out-dir", a] + argv) == 0
    assert run(["--out-dir", b] + joined) == 0
    assert _written(a) and _written(a) == _written(b)


@pytest.mark.parametrize("cmd", ["nve", "kovacic"])
def test_negative_fraction_eps_reaches_the_range_check(tmp_path, capsys, cmd):
    assert run(["--out-dir", tmp_path, cmd, "--n", "3", "--eps", "-1/4"]) == 2
    assert "0 < eps < 1" in capsys.readouterr().err


def test_nonpositive_radius_exits_2(tmp_path, capsys):
    code = run(["--out-dir", tmp_path, "trace", "--family", "tesseral",
                "--l", "4", "--m", "3", "--eps", "0.15"])
    assert code == 2
    assert "radius" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["psection", "--n", "2", "--eps", "1/4", "--traj", "2", "--crossings", "0"],
        ["trace", "--n", "2", "--eps", "0.1", "--length", "0"],
        ["trace", "--n", "2", "--eps", "0.1", "--length", "-5"],
        ["psection", "--n", "2", "--eps", "1/4", "--traj", "0"],
        ["closed", "--n", "2", "--eps", "0.1", "--max-period", "0"],
        ["lemma1", "--n", "2", "--tol", "0"],
        ["lemma1", "--n", "2", "--tol", "-1"],
        # an infinite tol ran no bisection step and printed a wrong threshold
        ["lemma1", "--n", "2", "--tol", "inf"],
        ["closed", "--n", "0", "--eps", "0.1"],
        ["closed", "--n", "-2", "--eps", "0.1"],
        ["lemma1", "--n", "0"],
        ["lemma1", "--n", "2", "--eps", "3/2"],
        ["lemma1", "--n", "2", "--eps", "1"],
        ["table1", "--n-min", "5", "--n-max", "3"],
        ["trace", "--eps", "0.2", "--length", "5", "--rtol", "0"],
        ["trace", "--eps", "0.2", "--length", "5", "--rtol", "-1"],
        ["psection", "--n", "3", "--eps", "0.3", "--traj", "1", "--crossings", "2",
         "--rtol", "0"],
        ["trace", "--eps", "0.2", "--length", "inf", "--samples", "0"],
        # a NaN or infinite start used to hang the stepper or read as a pole
        ["trace", "--eps", "0.2", "--length", "5", "--samples", "10", "--phi0", "nan"],
        ["trace", "--eps", "0.2", "--length", "5", "--samples", "10", "--theta-dot", "inf"],
        ["trace", "--eps", "0.2", "--length", "5", "--samples", "10", "--theta0", "nan"],
    ],
    ids=["crossings0", "length0", "length-5", "traj0", "max-period0", "tol0", "tol-1", "tol-inf",
         "closed-n0", "closed-n-2", "lemma1-n0", "lemma1-eps3over2", "lemma1-eps1",
         "table1-empty", "trace-rtol0", "trace-rtol-1", "psection-rtol0", "length-inf",
         "phi0-nan", "theta-dot-inf", "theta0-nan"],
)
def test_empty_budget_exits_2(tmp_path, capsys, argv):
    assert run(["--out-dir", tmp_path] + argv) == 2
    assert "must be" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_global_flags_accepted_before_and_after_subcommand(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run(["--out-dir", a, "nve", "--n", "2", "--eps", "1/10"]) == 0
    assert run(["nve", "--n", "2", "--eps", "1/10", "--out-dir", b]) == 0
    fa = (a / "nve_n2_eps1over10.json").read_text()
    fb = (b / "nve_n2_eps1over10.json").read_text()
    assert fa == fb


# -- subcommands ----------------------------------------------------------------


def test_nve_output(tmp_path, capsys):
    assert run(["--out-dir", tmp_path, "nve", "--n", "3", "--eps", "1/4"]) == 0
    blob = json.loads((tmp_path / "nve_n3_eps1over4.json").read_text())
    assert blob["n"] == 3 and len(blob["poles"]) == 5
    assert "beta_inf" in capsys.readouterr().out


def test_kovacic_solvable_order_one(tmp_path, capsys):
    assert run(["--out-dir", tmp_path, "kovacic", "--n", "1", "--eps", "1/3"]) == 0
    out = capsys.readouterr().out
    assert "Solvable" in out
    blob = json.loads((tmp_path / "kovacic_n1_eps1over3.json").read_text())
    assert blob["verdict"] == "Solvable"


def test_trace_writes_csv(tmp_path, capsys):
    code = run(
        ["--out-dir", tmp_path, "trace", "--n", "2", "--eps", "0.1",
         "--length", "5", "--samples", "20"]
    )
    assert code == 0
    # "0.1" normalizes to the exact fraction 1/10 in the file name
    lines = (tmp_path / "trace_sectoral_n2_eps1over10.csv").read_text().splitlines()
    assert lines[0] == "s,theta,phi,theta_dot,phi_dot,h2"
    assert len(lines) == 21



def test_trace_with_rtol_far_below_machine_precision_finishes(tmp_path):
    """--rtol 1e-30 is raised to scipy's floor of 100 EPS with a warning;
    without the floor the run crawls for minutes."""
    proc = subprocess.run(
        [sys.executable, "-m", "harmgeo.cli", "--out-dir", str(tmp_path), "trace",
         "--n", "3", "--eps", "0.3", "--rtol", "1e-30", "--length", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "rtol = 1e-30 is too small" in proc.stderr


def test_tesseral_trace_defaults_cross_the_pole(tmp_path, capsys):
    # the default initial state runs into a coordinate pole
    code = run(["--out-dir", tmp_path, "trace", "--family", "tesseral",
                "--l", "2", "--m", "1", "--eps", "0.2"])
    assert code == 0
    swaps = int(capsys.readouterr().out.split(" chart swaps")[0].split()[-1])
    assert swaps >= 1
    lines = (tmp_path / "trace_tesseral_l2m1_eps1over5.csv").read_text().splitlines()
    assert len(lines) == 1001
    assert max(abs(float(ln.split(",")[-1]) - 1.0) for ln in lines[1:]) <= 1e-9


def test_lemma1_reports_critical_eps(tmp_path, capsys):
    assert run(["--out-dir", tmp_path, "lemma1", "--n", "2", "--tol", "1e-3"]) == 0
    out = capsys.readouterr().out
    assert "critical eps" in out


@pytest.mark.parametrize("n, printed", [(2, "0.571551"), (8, "0.332873")])
def test_lemma1_default_tol_prints_six_correct_decimals(tmp_path, capsys, n, printed):
    """Without --tol, lemma1 bisects to the library's tol of 1e-9, so the
    sixth decimal printed is right: a tol of 1e-5 printed 0.332875 for
    n = 8, where the threshold is 0.3328734."""
    assert run(["--out-dir", tmp_path, "lemma1", "--n", n]) == 0
    assert capsys.readouterr().out == f"critical eps for n={n}: {printed}\n"


def test_lemma1_tol_below_an_ulp_returns(tmp_path, capsys):
    assert run(["--out-dir", tmp_path, "lemma1", "--n", "3", "--tol", "1e-17"]) == 0
    assert capsys.readouterr().out == "critical eps for n=3: 0.496951\n"


@pytest.mark.parametrize("cmd", ["nve", "kovacic"])
def test_many_digit_eps_returns(tmp_path, capsys, cmd):
    """1 + eps^2 (n^2 - 1) at eps = 1e-20 has 41-digit parts; its square-free
    part used to be sought by trial division up to its square root."""
    assert run(["--out-dir", tmp_path, cmd, "--n", "2", "--eps", "1e-20"]) == 0
    assert (tmp_path / f"{cmd}_n2_eps1over100000000000000000000.json").exists()


# an exact eps near 1/3 whose tag, with two 119-digit parts, runs every
# output name past the 255-byte file-name limit
_LONG_EPS = f"{10**118 + 1}/{3 * 10**118}"


@pytest.mark.parametrize(
    "argv",
    [
        ["nve", "--n", "2", "--eps", _LONG_EPS],
        ["kovacic", "--n", "1", "--eps", _LONG_EPS],
        ["lemma1", "--n", "2", "--tol", "1e-3", "--eps", _LONG_EPS],
        ["trace", "--n", "3", "--length", "1", "--samples", "2", "--eps", _LONG_EPS],
        ["psection", "--n", "3", "--traj", "1", "--crossings", "1", "--eps", _LONG_EPS],
        ["closed", "--n", "2", "--max-period", "1", "--eps", _LONG_EPS],
    ],
    ids=lambda argv: argv[0],
)
def test_long_eps_tag_is_shortened(tmp_path, capsys, argv):
    """A tag that would push a file name past 255 bytes gives way to its
    first 32 characters and 16 hex digits of sha256(str(eps))."""
    assert run(["--out-dir", tmp_path] + argv) == 0
    eps = parse_eps(argv[-1])
    short = f"_eps{_eps_tag(eps)[:32]}_{hashlib.sha256(str(eps).encode()).hexdigest()[:16]}"
    names = [p.name for p in tmp_path.iterdir()]
    assert names and all(short in name and len(name.encode()) <= 255 for name in names)


def test_eps_tag_kept_while_the_name_fits():
    """kovacic_n2_eps{tag}.json is 19 bytes plus the tag, and 1e-230's tag
    is 236 characters: the longest name that fits keeps its tag."""
    template = "kovacic_n2_eps{eps}.json"
    fits, over = Fraction(1, 10**230), Fraction(1, 10**231)
    assert _eps_name(template, fits) == f"kovacic_n2_eps1over1{'0' * 230}.json"
    assert len(_eps_name(template, fits)) == 255
    assert _eps_name(template, over).startswith(f"kovacic_n2_eps1over1{'0' * 26}_")
    assert len(_eps_name(template, over)) == 14 + 32 + 1 + 16 + 5


def test_psection_deterministic_output(tmp_path):
    args = ["psection", "--n", "2", "--eps", "1/4", "--traj", "2",
            "--crossings", "8", "--seed", "5", "--rtol", "1e-8",
            "--format", "csv"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["--out-dir", a] + args) == 0
    assert run(["--out-dir", b] + args) == 0
    fa = (a / "psection_n2_eps1over4_seed5.csv").read_bytes()
    fb = (b / "psection_n2_eps1over4_seed5.csv").read_bytes()
    assert fa == fb
    header = fa.decode().splitlines()[0]
    assert header == "traj_id,crossing_index,s,phi,phi_dot"


# leading 16 hex digits of the sha256 of a seeded section's CSV, plain and
# rotated.  Each run swaps charts about 25 times, restarting from pole-event
# roots, where a last-bit difference between Python versions would make
# these chaotic trajectories diverge; CI checks the bytes on every version
PSECTION_CSV_SHA256 = {False: "d4df6675cc06fc9f", True: "e829574471bf2feb"}


@pytest.mark.parametrize("rotated", [False, True], ids=["plain", "rotated"])
def test_psection_csv_bytes_are_pinned(tmp_path, rotated):
    argv = ["--out-dir", tmp_path, "--seed", "1", "psection", "--n", "3", "--eps", "0.3",
            "--traj", "3", "--crossings", "40", "--format", "csv"]
    assert run(argv + ["--rotated"] * rotated) == 0
    (path,) = tmp_path.glob("*.csv")
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == PSECTION_CSV_SHA256[rotated]


# leading 16 hex digits of the sha256 of the closed-orbit JSON at (n, eps):
# every float of each orbit's Newton search, monodromy and eigenvalues,
# checked on every Python version CI runs.  (2, 3/10) has period-3 orbits,
# and (1, 1/5) and (3, 1/10) perpendicular orbits of period 1, found by a
# Newton screened at rtol 1e-6 and confirmed at 1e-12: against the all-fine
# search their floats differ by at most 6.2e-13 (phi_dot at (2, 3/10)),
# 5.8e-11 (phi) and 3.2e-14 (phi_dot)
CLOSED_JSON_SHA256 = {
    (1, "1/5"): "4fbb4cfea47b9abf",
    (2, "1/10"): "3704b6976f13cac6",
    (2, "3/10"): "55c9c0dad12ec22b",
    (3, "1/10"): "330c9bbd5ecfdf97",
    (4, "1/10"): "9ef641a28e4a8755",
}


@pytest.mark.parametrize("n, eps", sorted(CLOSED_JSON_SHA256))
def test_closed_json_bytes_are_pinned(tmp_path, capsys, n, eps):
    assert run(["--out-dir", tmp_path, "closed", "--n", n, "--eps", eps]) == 0
    (path,) = tmp_path.glob("closed_*.json")
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == CLOSED_JSON_SHA256[n, eps]


def test_closed_reports_classification(tmp_path, capsys):
    code = run(
        ["--out-dir", tmp_path, "closed", "--n", "2", "--eps", "0.1",
         "--max-period", "1"]
    )
    assert code == 0
    report = json.loads((tmp_path / "closed_n2_eps1over10.json").read_text())
    assert report
    for g in report:
        margin = g["stability_margin"]
        assert margin == pytest.approx(abs(g["trace"]) - 2.0, abs=1e-15)
        assert (margin < 0) == (g["classification"] == "elliptic")


def test_closed_lists_eigenvalues_in_a_fixed_order(tmp_path, capsys):
    """Eigenvalues by real, then imaginary part, descending.  On the
    reversible planar orbits M[0,0] = M[1,1] to rounding, where the order
    np.linalg.eigvals gives follows that rounding."""
    assert run(["--out-dir", tmp_path, "closed", "--n", "3", "--eps", "0.1"]) == 0
    report = json.loads((tmp_path / "closed_n3_eps1over10.json").read_text())
    for g in report:
        eig = [tuple(z) for z in g["eigenvalues"]]
        assert eig == sorted(eig, reverse=True)
    planar = [g for g in report if g["family"] == "planar" and g["classification"] == "hyperbolic"]
    assert planar
    for g in planar:
        (big, big_im), (small, small_im) = g["eigenvalues"]
        assert big == pytest.approx(1.1437311, abs=1e-6) and big_im == 0.0
        assert small == pytest.approx(0.8743314, abs=1e-6) and small_im == 0.0


def test_closed_eigenvalues_match_numpy(tmp_path, capsys):
    """The closed form (a+d)/2 +- sqrt(((a-d)/2)^2 + b*c) against
    np.linalg.eigvals of each monodromy, and det against np.linalg.det."""
    import numpy as np

    from harmgeo.poincare import find_closed_geodesics

    for n, eps in (("2", "0.3"), ("3", "0.2")):
        assert run(["--out-dir", tmp_path, "closed", "--n", n, "--eps", eps]) == 0
        report = json.loads((tmp_path / f"closed_n{n}_eps{_eps_tag(Fraction(eps))}.json").read_text())
        found = find_closed_geodesics(int(n), float(eps))
        assert len(report) == len(found)
        for g, orbit in zip(report, found):
            ref = sorted(np.linalg.eigvals(orbit.monodromy), key=lambda z: (z.real, z.imag))[::-1]
            assert np.max(np.abs(np.array(g["eigenvalues"]) - [[z.real, z.imag] for z in ref])) <= 1e-15
            assert abs(g["det"] - np.linalg.det(orbit.monodromy)) <= 1e-15


def test_table1_subset(tmp_path, capsys):
    code = run(
        ["--out-dir", tmp_path, "table1", "--n-min", "2", "--n-max", "3",
         "--format", "json"]
    )
    assert code == 0
    blob = json.loads((tmp_path / "table1.json").read_text())
    assert blob["2"]["1"] == {"0": 4}
    assert blob["3"]["6"] == {"0": 9, "1": 3, "2": 1}


def test_console_script_entry_point(tmp_path):
    """The installed entry point behaves like the module-level main."""
    proc = subprocess.run(
        [sys.executable, "-m", "harmgeo.cli", "--out-dir", str(tmp_path),
         "nve", "--n", "2", "--eps", "1/10"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "nve_n2_eps1over10.json").exists()


def test_runs_without_scipy(tmp_path):
    """scipy is a test-only dependency: with every scipy import made to fail,
    the package imports and every command runs."""
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from harmgeo.cli import main\n"
        f"out = {str(tmp_path)!r}\n"
        "for argv in (['table1', '--n-min', '2', '--n-max', '4'],\n"
        "             ['kovacic', '--n', '3', '--eps', '1/10'],\n"
        "             ['trace', '--n', '3', '--eps', '0.2', '--length', '10', '--samples', '50'],\n"
        "             ['psection', '--n', '3', '--eps', '0.3', '--traj', '2', '--crossings', '3'],\n"
        "             ['nve', '--n', '3', '--eps', '1/4'],\n"
        "             ['lemma1', '--n', '2', '--eps', '1/2'],\n"
        "             ['closed', '--n', '2', '--eps', '1/10']):\n"
        "    assert main(['--out-dir', out, *argv]) == 0, argv\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy' and sys.modules[m]]\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.iterdir())) >= 7


def test_exact_half_runs_without_numpy(tmp_path):
    """With every NumPy import made to fail, the exact half's commands,
    `lemma1` included, run and NumPy never loads: `import harmgeo` imports
    no submodule eagerly."""
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from harmgeo.cli import main\n"
        f"out = {str(tmp_path)!r}\n"
        "for argv in (['table1'],\n"
        "             ['kovacic', '--n', '3', '--eps', '1/10'],\n"
        "             ['nve', '--n', '3', '--eps', '1/4'],\n"
        "             ['lemma1', '--n', '2', '--eps', '1/2'],\n"
        "             ['lemma1', '--n', '2', '--eps', '-1/2']):\n"
        "    assert main(['--out-dir', out, *argv]) == 0, argv\n"
        "import harmgeo\n"
        "assert harmgeo.equatorial_nve is harmgeo.nve.equatorial_nve\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'numpy' and sys.modules[m]]\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.iterdir())) == 6


_NUMERIC_RUNS = (
    ["trace", "--n", "3", "--eps", "0.2", "--length", "10", "--samples", "50"],
    ["trace", "--family", "zonal", "--l", "2", "--eps", "0.3", "--length", "10", "--samples", "50"],
    ["trace", "--family", "tesseral", "--l", "2", "--m", "1", "--eps", "0.2", "--length", "10",
     "--samples", "50"],
    ["closed", "--n", "2", "--eps", "1/10"],
    ["closed", "--n", "2", "--eps", "-1/10"],
    ["closed", "--n", "2", "--eps", "0.3"],
)


def test_return_map_and_trace_run_without_numpy(tmp_path):
    """With every NumPy import made to fail, the return map, a Newton step
    of the closed-orbit search, `closed`, the occupancies and `trace` on
    sectoral, zonal and tesseral surfaces run, give the floats and bytes
    they give with NumPy loaded, and NumPy never loads."""
    from harmgeo import poincare

    blocked, loaded = tmp_path / "blocked", tmp_path / "loaded"
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import harmgeo.surface, harmgeo.geodesic, harmgeo.poincare\n"
        "from harmgeo.cli import main\n"
        "from harmgeo.poincare import (\n"
        "    _newton_fixed_point, generate_section, max_trajectory_occupancy, occupancy,\n"
        "    return_map)\n"
        f"runs = {_NUMERIC_RUNS!r}\n"
        "for argv in runs:\n"
        f"    assert main(['--out-dir', {str(blocked)!r}, *argv]) == 0, argv\n"
        "sec = generate_section(3, 0.3, n_traj=2, n_crossings=20)\n"
        "print(repr([return_map(2, 0.1, 0.0, 0.0), return_map(3, 0.2, 0.3, 0.1, k=2),\n"
        "            _newton_fixed_point(2, 0.1, (0.0, 0.0), 1),\n"
        "            occupancy(sec, 50), max_trajectory_occupancy(sec, 50)]))\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'numpy' and sys.modules[m]]\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    sec = poincare.generate_section(3, 0.3, n_traj=2, n_crossings=20)
    assert proc.stdout.splitlines()[-1] == repr([
        poincare.return_map(2, 0.1, 0.0, 0.0), poincare.return_map(3, 0.2, 0.3, 0.1, k=2),
        poincare._newton_fixed_point(2, 0.1, (0.0, 0.0), 1),
        poincare.occupancy(sec, 50), poincare.max_trajectory_occupancy(sec, 50),
    ])
    for argv in _NUMERIC_RUNS:
        assert run(["--out-dir", loaded, *argv]) == 0
    files = _tree(loaded)
    assert sorted(files) == [
        "closed_n2_eps-1over10.json", "closed_n2_eps1over10.json", "closed_n2_eps3over10.json",
        "trace_sectoral_n3_eps1over5.csv", "trace_tesseral_l2m1_eps1over5.csv",
        "trace_zonal_l2_eps3over10.csv",
    ]
    assert _tree(blocked) == files


_PSECTION_RUNS = (
    ["psection", "--n", "3", "--eps", "0.3", "--traj", "2", "--crossings", "3"],
    ["psection", "--n", "3", "--eps", "0.3", "--traj", "2", "--crossings", "3", "--rotated"],
    ["psection", "--n", "3", "--eps", "0.3", "--traj", "2", "--crossings", "3",
     "--format", "json"],
    ["psection", "--n", "3", "--eps", "0.3", "--traj", "2", "--crossings", "3",
     "--format", "svg"],
    ["psection", "--n", "3", "--eps", "-0.3", "--traj", "20", "--crossings", "3"],
    ["psection", "--n", "3", "--eps", "0.3", "--traj", "2", "--crossings", "3",
     "--threads", "2"],
)


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_psection_runs_without_numpy(tmp_path):
    """With every NumPy import made to fail, `psection` runs in each format,
    rotated, at negative eps and with worker processes, writes the bytes it
    writes with NumPy loaded, and NumPy never loads."""
    blocked, loaded = tmp_path / "blocked", tmp_path / "loaded"
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from harmgeo.cli import main\n"
        f"runs = {_PSECTION_RUNS!r}\n"
        "for i, argv in enumerate(runs):\n"
        f"    assert main(['--out-dir', {str(blocked)!r} + f'/{{i}}', *argv]) == 0, argv\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'numpy' and sys.modules[m]]\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    import numpy  # noqa: F401  the reference run has NumPy loaded

    for i, argv in enumerate(_PSECTION_RUNS):
        assert run(["--out-dir", loaded / str(i), *argv]) == 0
    files = _tree(loaded)
    assert len(files) == 10
    assert _tree(blocked) == files


@pytest.mark.parametrize("seed", [2**63, -(2**63) - 1])
def test_psection_seed_outside_int64_exits_2(tmp_path, capsys, seed):
    argv = ["--out-dir", tmp_path, "--seed", seed, "psection", "--n", "3", "--eps", "0.3",
            "--traj", "1", "--crossings", "1"]
    assert run(argv) == 2
    assert "must lie in [-2**63, 2**63)" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_numeric_half_loads_no_exact_algebra():
    """The integrators and return maps never load the exact polynomial
    module; geodesic's Lemma 1 functions import it when called."""
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "import harmgeo.poincare, harmgeo.geodesic\n"
        "assert 'harmgeo.algebra' not in sys.modules\n"
        "f = harmgeo.geodesic.lemma1_poly(2, Fraction(1, 2))\n"
        "assert list(f[6].coeffs) == [0, 0, 0, Fraction(3, 8)], f\n"
        "assert 'harmgeo.algebra' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_package_names_resolve_on_first_access():
    """The lazy package namespace: every public name, every submodule, and
    AttributeError for anything else (getattr with a default relies on it)."""
    import harmgeo

    for name in harmgeo.__all__:
        assert getattr(harmgeo, name).__name__ == name
    assert harmgeo.kernels.BACKEND
    assert getattr(harmgeo, "solve_ivp", None) is None
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        harmgeo.no_such_name
    assert set(harmgeo.__all__) <= set(dir(harmgeo))
