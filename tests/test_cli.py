"""Command line interface: output formats, determinism, exit codes."""

import json
import subprocess
import sys

import pytest

from ptwell.cli import main, report_from_json, report_to_json
from ptwell.model import ModelParams
from ptwell.spectrum import EnergyWindow, complex_spectrum, real_spectrum_bracket


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
