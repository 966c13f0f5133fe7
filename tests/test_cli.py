"""Command line interface: output formats, determinism, exit codes."""

import json
import subprocess
import sys

import pytest

from ptwell import cli
from ptwell.cli import main, report_from_json, report_to_json
from ptwell.errors import WindowError
from ptwell.model import LatticeIndex, ModelParams, lattice_compose
from ptwell.spectrum import (
    EnergyWindow,
    _lattice_k_max,
    complex_spectrum,
    real_spectrum_bracket,
)


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "ptwell", *args], capture_output=True, text=False
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_spectrum_json_output(capsys):
    assert main(["spectrum", "--Z", "0", "--omega", "0", "--emax", "30"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"] == {"Z": 0, "omega": 0}
    levels = payload["real_levels"]
    assert [row["n"] for row in levels] == [0, 1, 2]
    assert [row["E"] for row in levels] == pytest.approx(
        [2.46740110027, 9.86960440109, 22.2066099025], rel=1e-10
    )
    # odd modes have a node at the matching point: no amplitude defined
    assert levels[0]["A"] == 0 and levels[1]["A"] is None
    assert payload["complex_pairs"] == [] and payload["window"] is None


def test_spectrum_csv_output(capsys):
    assert main(["spectrum", "--Z", "0", "--omega", "0", "--emax", "30", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "kind,n,s,t,re,im,A"
    assert len(lines) == 4 and all(row.startswith("real,") for row in lines[1:])


def test_count_output(capsys):
    assert main(["count", "--Z", "1", "--omega", "0.1", "--emax", "10000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 29 and payload["e_max"] == 10000


def test_critical_output(capsys):
    assert main(["critical", "--omega", "0", "--n", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["criticals"] == pytest.approx([4.4753112793, 12.8015441895], abs=5e-3)


def test_complex_command(capsys):
    assert (
        main(["complex", "--Z", "1", "--omega", "0", "--window", "0,100,-10,10"]) == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["real_levels"]) == 6 and payload["complex_pairs"] == []
    assert payload["window"] == {"re_min": 0, "re_max": 100, "im_min": -10, "im_max": 10}


def test_repeated_runs_are_byte_identical():
    args = ("spectrum", "--Z", "1", "--omega", "0.1", "--emax", "400", "--method", "lattice")
    rc1, out1, _ = run_cli(*args)
    rc2, out2, _ = run_cli(*args)
    assert rc1 == rc2 == 0
    assert out1 == out2 and out1


def test_sweep_output_independent_of_worker_count():
    base = ("sweep", "--Z", "0.5,1", "--omega", "0,0.1", "--emax", "100")
    rc1, out1, _ = run_cli(*base, "--jobs", "1")
    rc2, out2, _ = run_cli(*base, "--jobs", "2")
    assert rc1 == rc2 == 0
    assert out1 == out2 and out1


def test_json_report_round_trip_is_byte_stable():
    rep = complex_spectrum(
        ModelParams(Z=1.0, omega=0.1), window=EnergyWindow(2100.0, 3500.0, -200.0, 200.0)
    )
    text = report_to_json(rep)
    again = report_to_json(report_from_json(text))
    assert text == again
    rep2 = real_spectrum_bracket(ModelParams(Z=2.0, omega=-0.2), e_max=300.0)
    from ptwell.spectrum import SpectrumReport

    rep2 = SpectrumReport(
        params=ModelParams(Z=2.0, omega=-0.2),
        real_levels=rep2,
        complex_pairs=[],
        window=None,
        diagnostics={"method": "bracket"},
    )
    text2 = report_to_json(rep2)
    assert report_to_json(report_from_json(text2)) == text2


def test_exit_code_bad_number():
    rc, _, err = run_cli("spectrum", "--Z", "abc", "--omega", "0")
    assert rc == 2 and err


def test_exit_code_asymmetric_window():
    rc, _, err = run_cli("complex", "--Z", "1", "--omega", "0.1", "--window", "0,100,-5,6")
    assert rc == 2 and b"window" in err.lower()


def test_asymmetric_window_message_is_the_library_one():
    with pytest.raises(WindowError) as err:
        complex_spectrum(ModelParams(Z=1.0, omega=0.1), EnergyWindow(0.0, 100.0, -5.0, 6.0))
    rc, out, stderr = run_cli("complex", "--Z", "1", "--omega", "0.1", "--window", "0,100,-5,6")
    assert rc == 2 and out == b""
    assert stderr.decode() == f"error: {err.value}\n"


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (["spectrum"], "--emax", "inf"),
        (["count"], "--Z", "inf"),
        (["curves", "--family", "oval"], "--sigma-max", "nan"),
        (["count"], "--omega", "nan"),
        (["sweep"], "--Z", "-inf"),
    ],
)
def test_non_finite_flag_message_names_the_flag(capsys, command, flag, value):
    assert main([*command, "--Z", "1", "--omega", "0.1", f"{flag}={value}"]) == 2
    assert capsys.readouterr().err == f"error: flag {flag} must be finite, got {float(value)}\n"


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        (["spectrum", "--method", "lattice"], "--kmax", "0", "must be >= 1, got 0"),
        (["sweep"], "--kmax", "-2", "must be >= 1, got -2"),
        (["critical"], "--n", "0", "must be >= 1, got 0"),
        (["count"], "--Z", ",", "must hold at least one number"),
        (["sweep"], "--omega", "", "must hold at least one number"),
    ],
)
def test_usage_message_names_the_flag(capsys, command, flag, value, message):
    assert main([*command, "--Z", "1", "--omega", "0.1", f"{flag}={value}"]) == 2
    assert capsys.readouterr() == ("", f"error: flag {flag} {message}\n")


def test_lattice_default_kmax_reaches_emax(capsys):
    """Without --kmax the lattice method takes the least stripe cap that
    reaches --emax: at (2, 20) the one level has tau = 179.6, beyond the
    (2*8 + 2)*pi a fixed cap of 8 reaches."""
    argv = ["spectrum", "--Z", "2", "--omega", "20", "--format", "csv"]
    assert _lattice_k_max(ModelParams(Z=2.0, omega=20.0), 2000.0) == 42
    assert main([*argv, "--method", "lattice"]) == 0
    lattice = capsys.readouterr().out
    assert main(argv) == 0
    assert lattice == capsys.readouterr().out
    assert lattice.splitlines()[1].split(",")[4] == "-20.0037421434"


def test_count_finds_the_level_beyond_s_12(capsys):
    assert main(["count", "--Z", "300", "--omega", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 1


def test_smax_is_no_flag_and_no_config_key(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["spectrum", "--Z", "1", "--omega", "0.1", "--smax", "5"])
    assert exit_.value.code == 2 and "--smax" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("smax = 5\n")
    assert main(["spectrum", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:1: unknown config key 'smax'\n"


def test_critical_below_every_merge_names_the_tracking_window(capsys):
    assert main(["critical", "--omega", "0.1", "--emax", "1"]) == 3
    assert capsys.readouterr().err == (
        "error: found only 0 of 1 critical couplings below Z=60.0: no level pair merges "
        "below E = 1, the top of the tracking window: raise tracking_e_max (--emax on the CLI)\n"
    )


def test_exit_code_unknown_command():
    rc, _, _ = run_cli("frobnicate")
    assert rc == 2


def test_exit_code_unwritable_output():
    rc, _, err = run_cli(
        "spectrum", "--Z", "0", "--omega", "0", "--emax", "30",
        "--output", "/nonexistent-dir/out.json",
    )
    assert rc == 4 and err


def test_exit_code_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("zeta = 1\n")
    rc, _, err = run_cli("spectrum", "--config", str(cfg))
    assert rc == 2 and b"zeta" in err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sweep base\nZ = 2\nomega = 0.1\nemax = 100\n")
    assert main(["count", "--config", str(cfg), "--Z", "1"]) == 0
    merged = json.loads(capsys.readouterr().out)
    assert main(["count", "--Z", "1", "--omega", "0.1", "--emax", "100"]) == 0
    direct = json.loads(capsys.readouterr().out)
    assert merged == direct


def test_output_file_lands_on_disk(tmp_path):
    target = tmp_path / "report.json"
    rc, out, _ = run_cli(
        "spectrum", "--Z", "0", "--omega", "0", "--emax", "30", "--output", str(target)
    )
    assert rc == 0 and out == b""
    payload = json.loads(target.read_text())
    assert len(payload["real_levels"]) == 3


def test_curves_theta_splits_at_asymptote(capsys):
    assert (
        main(
            ["curves", "--Z", "1", "--omega", "0.06", "--family", "theta",
             "--p", "1", "--xi", "0", "--sigma-max", "6"]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    names = [seg["name"] for seg in payload["segments"]]
    assert any(name.endswith("part0") for name in names)
    assert any(name.endswith("part1") for name in names)
    pole = 3.5074566847442554
    for seg in payload["segments"]:
        assert seg["points"], seg["name"]
        assert all(abs(pt[0] - pole) > 1e-4 for pt in seg["points"])


def test_curves_intersection_families(capsys):
    assert (
        main(
            ["curves", "--Z", "1", "--omega", "0.1", "--family", "intersection",
             "--stripe", "3", "--sigma-max", "12", "--points", "240"]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    names = [seg["name"] for seg in payload["segments"]]
    assert any(name.startswith("locus_") for name in names)
    assert "hyperbola" in names and "hyperbola_asymptote" in names
    assert "envelope_upper" in names and "envelope_lower" in names


@pytest.mark.parametrize("family", ["theta", "oval", "intersection"])
@pytest.mark.parametrize("omega", ["0.1", "-0.1"])
def test_curves_past_sinh_overflow_exits_with_a_message(family, omega):
    rc, out, err = run_cli(
        "curves", "--Z", "1", "--omega", omega, "--family", family, "--sigma-max", "800"
    )
    assert (rc == 0 and out) or (rc in (2, 3) and err.startswith(b"error: "))


def test_exit_code_window_past_overflow():
    rc, out, err = run_cli("complex", "--Z", "1", "--omega", "0.1", "--window=-1e6,0,-40,40")
    assert rc == 3 and out == b"" and b"below ~700" in err


@pytest.mark.parametrize("window", ["0,10,-inf,inf", "-1e308,1e308,-1,1", "0,inf,-1,1"])
def test_non_finite_window_exits_2(window):
    rc, out, err = run_cli("complex", "--Z=1", "--omega=0.1", f"--window={window}")
    assert rc == 2 and out == b""
    assert err.startswith(b"error: window [") and b"needs finite bounds" in err
    assert b"RuntimeWarning" not in err


def test_curves_requires_family():
    rc, _, err = run_cli("curves", "--Z", "1", "--omega", "0.1")
    assert rc == 2 and b"family" in err


def test_config_file_format_is_checked_like_the_flag(tmp_path):
    cfg = tmp_path / "xml.cfg"
    cfg.write_text("format = xml\nZ = 1\n")
    rc, out, err = run_cli("spectrum", "--config", str(cfg))
    assert rc == 2 and out == b"" and b"format" in err


def test_config_file_p_is_checked_like_the_flag(tmp_path):
    cfg = tmp_path / "p3.cfg"
    cfg.write_text("p = 3\n")
    rc, out, err = run_cli(
        "curves", "--Z", "1", "--omega", "0.1", "--family", "oval", "--points", "40",
        "--config", str(cfg),
    )
    assert rc == 2 and out == b"" and b"--p" in err


def test_curves_unreadable_config_is_an_io_error():
    rc, _, err = run_cli("curves", "--Z", "1", "--omega", "0.1", "--config", "/nonexistent.cfg")
    assert rc == 4 and b"cannot read config" in err


@pytest.mark.parametrize("via_config", [False, True])
@pytest.mark.parametrize(
    "key, value",
    [("sigma_max", "0"), ("sigma_max", "-3"), ("points", "0"), ("points", "1"), ("stripe", "-2")],
)
def test_curves_out_of_range_flag_exits_2(tmp_path, capsys, key, value, via_config):
    flag = "--" + key.replace("_", "-")
    argv = ["curves", "--Z", "1", "--omega", "0", "--family", "oval"]
    if via_config:
        cfg = tmp_path / "curves.cfg"
        cfg.write_text(f"{key} = {value}\n")
        argv += ["--config", str(cfg)]
    else:
        argv.append(f"{flag}={value}")
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: flag {flag} must be ")


@pytest.mark.parametrize("via_config", [False, True])
@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["curves", "--family", "theta"], "xi", ","),
        (["curves", "--family", "theta"], "xi", ""),
        (["sweep"], "jobs", "0"),
        (["sweep"], "jobs", "-3"),
    ],
)
def test_empty_xi_and_too_few_jobs_exit_2(tmp_path, capsys, argv, key, value, via_config):
    argv = [*argv, "--Z", "1", "--omega", "0.1"]
    if via_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        argv += ["--config", str(cfg)]
    else:
        argv.append(f"--{key}={value}")
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: flag --{key} must ")


@pytest.mark.parametrize("omega", ["0.1", "-0.1"])
@pytest.mark.parametrize(
    "family, families",
    [
        ("oval", [(1, 1, 1), (1, 1, -1)]),
        ("intersection", [(k, p, q) for k in (0, 1) for p in (1, -1) for q in (1, -1)]),
    ],
)
def test_curves_draw_the_lattice_tracer_samples(monkeypatch, capsys, omega, family, families):
    calls, sample = [], cli._locus_points

    def recording(*args):
        calls.append((args, sample(*args)))
        return calls[-1][1]

    monkeypatch.setattr(cli, "_locus_points", recording)
    assert main(["curves", "--Z", "1", "--omega", omega, "--family", family]) == 0
    assert len(calls) == 1
    (got_families, params, sig_cap), loci = calls[0]
    assert got_families == families and params == ModelParams(1.0, float(omega)) and sig_cap == 12.0
    samples = {
        (float(cli._fmt(sg)), float(cli._fmt(lattice_compose(LatticeIndex(*fam, xi)))))
        for fam, locus in zip(families, loci)
        for xi, pts in locus.items()
        for sg in pts[:, 0]
    }
    drawn = [
        tuple(pt)
        for seg in json.loads(capsys.readouterr().out)["segments"]
        if seg["name"].startswith("locus_")
        for pt in seg["points"]
    ]
    assert drawn and set(drawn) <= samples


@pytest.mark.parametrize("family", ["oval", "intersection"])
def test_curves_points_leaves_the_loci_alone(capsys, family):
    def loci(*flags):
        assert main(["curves", "--Z", "1", "--omega", "0.1", "--family", family, *flags]) == 0
        segs = json.loads(capsys.readouterr().out)["segments"]
        return [seg for seg in segs if seg["name"].startswith("locus_")]

    assert loci() and loci("--points", "40") == loci()


def test_complex_default_window(capsys):
    assert main(["complex", "--Z", "1", "--omega", "0.1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["window"] == {"re_min": 0, "re_max": 2000, "im_min": -200, "im_max": 200}
    d = payload["diagnostics"]
    assert d["n_real"] + 2 * d["n_pairs"] == d["winding_total"] > 0


def test_complex_without_crossover_still_reports_roots(capsys):
    assert main(["complex", "--Z", "5", "--omega", "0.5", "--window", "0,100,-10,10"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["real_levels"] and "sigma_star" not in payload["diagnostics"]


# runs one CLI command in a fresh interpreter and prints its exit code and
# whether numpy.ma got imported
_MA_PROBE = (
    "import contextlib, io, sys\n"
    "from ptwell.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    rc = main(sys.argv[1:])\n"
    "print(rc, 'numpy.ma' in sys.modules)\n"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["curves", "--Z", "1", "--omega", "0.1", "--family", "oval"],
        ["curves", "--Z", "1", "--omega", "0.1", "--family", "intersection"],
        ["spectrum", "--Z", "1", "--omega", "0.1", "--method", "lattice", "--kmax", "3"],
    ],
)
def test_locus_commands_do_not_import_numpy_ma(argv):
    """np.unique imports numpy.ma on first use, 12-20 ms per process."""
    bare = subprocess.run(
        [sys.executable, "-c", "import sys, numpy; print('numpy.ma' in sys.modules)"],
        capture_output=True, text=True, check=True,
    )
    if bare.stdout.split() == ["True"]:
        pytest.skip("import numpy alone loads numpy.ma here")
    proc = subprocess.run(
        [sys.executable, "-c", _MA_PROBE, *argv], capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == ["0", "False"]


@pytest.mark.parametrize(
    "argv, where",
    [
        (["count", "--Z", "1", "--omega", "0.1", "--emax", "1e300"], "[5e-151, 12.0]"),
        (
            ["spectrum", "--Z", "1", "--omega", "1e300"],
            "[0.011180339538113364, 7.071067811871466e+149]",
        ),
    ],
)
def test_unbounded_sweep_exits_3(monkeypatch, capsys, argv, where):
    # the real bound of 2,000,000 points takes seconds to reach
    monkeypatch.setattr("ptwell.roots._MAX_GRID_POINTS", 10_000)
    assert main(argv) == 3
    err = capsys.readouterr().err
    # both sweeps step by less than the float spacing at their first point
    lo = where[1:].partition(",")[0]
    assert f"error: sweep grid on {where} stalled at {lo} after 1 points: " in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (
            ["--emax", "1e300"],
            "error: levels up to e_max=1e+300 at omega=0.1 reach tau = 2e+150, "
            "past the 1000 stripes the lattice tracer takes (lower --emax or --omega)\n",
        ),
        (
            ["--omega", "1e300"],
            "error: levels up to e_max=2000.0 at omega=1e+300 reach tau = inf, "
            "past the 1000 stripes the lattice tracer takes (lower --emax or --omega)\n",
        ),
        (
            ["--Z", "1e-200", "--emax", "1e300"],  # s(e_max) underflows to 0
            "error: levels up to e_max=1e+300 at omega=0.1 reach tau = 2e+150, "
            "past the 1000 stripes the lattice tracer takes (lower --emax or --omega)\n",
        ),
        (["--kmax", "1001"], "error: k_max=1001 passes the 1000 stripes the lattice tracer takes\n"),
    ],
)
def test_unbounded_lattice_exits_3(capsys, flags, message):
    """The derived stripe cap fails fast where it would pass the bound, as
    an explicit one does; nothing is traced."""
    assert main(["spectrum", "--Z", "1", "--omega", "0.1", "--method", "lattice", *flags]) == 3
    assert capsys.readouterr() == ("", message)


def test_vanishing_coupling_exits_3(capsys):
    assert main(["count", "--Z", "1e-300", "--omega", "0.1"]) == 3
    assert capsys.readouterr().err == (
        "error: Z=1e-300 is too small for e_max=2000.0: s(e_max)^2 underflows to 0, "
        "so the bracket sweep cannot step along t = Z/(2s)\n"
    )


class _RecordingPool:
    """A ProcessPoolExecutor stand-in that records max_workers and runs
    its tasks in this process."""

    max_workers = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def test_sweep_pool_is_capped_at_the_task_count(monkeypatch, capsys):
    base = ["sweep", "--Z", "0.5,1", "--omega", "0.1", "--emax", "100"]
    assert main([*base, "--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    monkeypatch.setattr("ptwell.cli.concurrent.futures.ProcessPoolExecutor", _RecordingPool)
    _RecordingPool.max_workers.clear()
    assert main([*base, "--jobs", "64"]) == 0
    assert _RecordingPool.max_workers == [2]
    assert capsys.readouterr().out == serial
    # one task runs in this process: no pool at all
    assert main(["sweep", "--Z", "1", "--omega", "0.1", "--emax", "100", "--jobs", "64"]) == 0
    assert _RecordingPool.max_workers == [2]
