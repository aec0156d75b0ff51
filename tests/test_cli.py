"""End-to-end CLI behaviour: exit codes, file outputs, determinism."""
from __future__ import annotations

import gc
import math
import os

import numpy as np
import pytest

from syncstab import cli, modal, network
from syncstab.cli import main
from syncstab.config import load_system_spec
from syncstab.frequency_response import trace_curves
from syncstab.modal import modal_weights_from_report, sensitivities
from syncstab.pipeline import run_analysis, run_oracle
from syncstab.stability import assess

from conftest import STATION_CFG_PATH, TWO_BUS_CFG
from test_textio import _reference_rows


@pytest.fixture()
def two_bus_cfg(tmp_path):
    path = tmp_path / "two_bus.cfg"
    path.write_text(TWO_BUS_CFG, encoding="utf-8")
    return str(path)


@pytest.fixture()
def station_cfg():
    return os.path.join(os.path.dirname(__file__), "..", "configs",
                        "wind_storage_station.cfg")


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# ----------------------------------------------------------------- exit codes

def test_analyze_stable_exits_zero(two_bus_cfg, capsys):
    code = main(["analyze", "--config", two_bus_cfg, "--case", "absorb"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict = Stable" in out
    assert "# syncstab stability report" in out
    assert "# state-space oracle" in out
    assert "crosscheck = AGREE" in out


def test_analyze_unstable_exits_two(two_bus_cfg, station_cfg, capsys):
    # two-bus inject: P = 0.5 exceeds the flat-voltage boundary w0*kp/(ki*L)
    code = main(["analyze", "--config", two_bus_cfg, "--case", "inject"])
    assert code == 2
    assert "verdict = Unstable" in capsys.readouterr().out
    code = main(["analyze", "--config", station_cfg, "--case", "heavy"])
    assert code == 2
    assert "verdict = Unstable" in capsys.readouterr().out


def test_analyze_no_crossing_exits_three(tmp_path, capsys):
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text(TWO_BUS_CFG + "\n[options]\nscan_fmin_hz = 25\n"
                   "scan_fmax_hz = 60\n", encoding="utf-8")
    code = main(["analyze", "--config", str(cfg), "--case", "inject"])
    out = capsys.readouterr().out
    assert code == 3
    assert "verdict = NoCrossing" in out
    assert "crosscheck = SKIPPED" in out


def test_missing_config_exits_one(tmp_path, capsys):
    code = main(["analyze", "--config", str(tmp_path / "absent.cfg")])
    assert code == 1
    assert "syncstab: error" in capsys.readouterr().err


def test_bad_case_exits_one(two_bus_cfg, capsys):
    code = main(["analyze", "--config", two_bus_cfg, "--case", "nope"])
    err = capsys.readouterr().err
    assert code == 1
    assert "[UNKNOWN_CASE]" in err


def test_invalid_config_reports_code_and_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TWO_BUS_CFG.replace("6.5 15782", "6.5 -3"),
                   encoding="utf-8")
    code = main(["analyze", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1
    assert "[PLL_GAIN_NONPOSITIVE]" in err


# -------------------------------------------------------------- file outputs

def test_out_directory_and_manifest(two_bus_cfg, tmp_path, capsys):
    out_dir = tmp_path / "run1"
    code = main(["analyze", "--config", two_bus_cfg, "--case", "absorb",
                 "--out", str(out_dir), "--dump-b"])
    capsys.readouterr()
    assert code == 0
    report = _read(out_dir / "report.txt")
    assert "verdict = Stable" in report
    b_csv = _read(out_dir / "b_matrix.csv")
    assert b_csv.splitlines()[0] == "node,C1"
    assert b_csv.splitlines()[1].startswith("C1,3.3333333")
    manifest = _read(out_dir / "manifest.txt")
    assert "# syncstab run manifest" in manifest
    assert "command = analyze" in manifest
    assert "case = absorb" in manifest
    # every emitted file listed exactly once
    outputs_line = [l for l in manifest.splitlines() if l.startswith("outputs = ")]
    assert len(outputs_line) == 1
    listed = [s.strip() for s in outputs_line[0].split("=", 1)[1].split(",")]
    assert sorted(listed) == ["b_matrix.csv", "manifest.txt", "report.txt"]
    assert sorted(os.listdir(out_dir)) == sorted(listed)


def test_analyze_curves_sidecar_listed_in_manifest(two_bus_cfg, tmp_path, capsys):
    out_dir = tmp_path / "run"
    sidecar = tmp_path / "elsewhere" / "c.csv"
    sidecar.parent.mkdir()
    main(["analyze", "--config", two_bus_cfg, "--case", "inject",
          "--out", str(out_dir), "--curves", str(sidecar)])
    capsys.readouterr()
    assert sidecar.exists()
    assert _read(sidecar).splitlines()[0] == "f_hz,D_con,K_con,D_net_1,K_net_1"
    manifest = _read(out_dir / "manifest.txt")
    assert str(sidecar) in manifest


def test_curves_csv_stdout_and_shape(two_bus_cfg, capsys):
    code = main(["curves", "--config", two_bus_cfg, "--case", "inject",
                 "--flat-voltage"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "f_hz,D_con,K_con,D_net_1,K_net_1"
    assert len(lines) == 1 + 1200  # header + scan_points
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(0.5)
    # D_net for the inject case is -P*L/U^2 = -0.15 at every frequency
    assert float(first[3]) == pytest.approx(-0.15, abs=1e-12)


def test_curves_per_converter_gamma_columns(two_bus_cfg, capsys):
    main(["curves", "--config", two_bus_cfg, "--per-converter-gamma"])
    header = capsys.readouterr().out.splitlines()[0]
    assert header == "f_hz,D_con,K_con,D_net_1,K_net_1,D_con_C1,K_con_C1"


def test_out_that_is_a_file_exits_one(two_bus_cfg, tmp_path, capsys):
    blocker = tmp_path / "F"
    blocker.write_text("", encoding="utf-8")
    code = main(["analyze", "--config", two_bus_cfg, "--out", str(blocker)])
    captured = capsys.readouterr()
    assert code == 1
    assert "syncstab: error [IO]:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, files", [
    (["curves"], ["curves.csv"]),
    (["curves", "--per-converter-gamma"], ["curves.csv"]),
    (["sensitivity", "--eta-complex"], ["sensitivity.csv"]),
    (["sweep", "--converter", "WTG1", "--quantity", "p", "--range", "0.4:0.6:0.1"],
     ["sweep.csv"]),
    (["simulate"], ["modes.csv"]),
    (["sensitivity", "--dump-b"], ["sensitivity.csv", "b_matrix.csv"]),
    (["analyze"], ["report.txt"]),
    (["adjust", "--set", "ES1=-0.8"], ["adjust.txt"]),
], ids=["curves", "curves-per-converter-gamma", "sensitivity-eta-complex", "sweep",
        "simulate-modes", "dump-b", "analyze", "adjust"])
def test_stdout_equals_the_out_files(station_cfg, tmp_path, capsys, argv, files):
    base = [argv[0], "--config", station_cfg, "--case", "heavy", *argv[1:]]
    code = main(base)
    stdout = capsys.readouterr().out
    assert main([*base, "--out", str(tmp_path)]) == code
    echoed = capsys.readouterr().out
    written = "".join(_read(tmp_path / name) for name in files)
    assert stdout == written
    # analyze and adjust print their document under --out as well
    assert echoed == (written if argv[0] in ("analyze", "adjust") else "")


def test_determinism_byte_identical(two_bus_cfg, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        main(["analyze", "--config", two_bus_cfg, "--case", "absorb",
              "--out", str(d)])
    capsys.readouterr()
    assert _read(a / "report.txt") == _read(b / "report.txt")
    # manifest differs only in the wall_time line
    strip = lambda p: [l for l in _read(p / "manifest.txt").splitlines()
                       if not l.startswith("wall_time_s")]
    assert strip(a) == strip(b)


# --------------------------------------------------------------------- sweep

def test_sweep_csv_rows_and_verdict_transition(two_bus_cfg, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code = main(["sweep", "--config", two_bus_cfg, "--case", "inject",
                 "--converter", "C1", "--quantity", "p", "--flat-voltage",
                 "--range", "0.1:0.5:0.1", "--out", str(out_dir)])
    capsys.readouterr()
    assert code == 0
    lines = _read(out_dir / "sweep.csv").strip().splitlines()
    assert lines[0] == "value,D_net1,f_c1,verdict"
    assert len(lines) == 6
    verdicts = [l.split(",")[3] for l in lines[1:]]
    assert verdicts[0] == "Stable"
    assert verdicts[-1] == "Unstable"
    values = [float(l.split(",")[0]) for l in lines[1:]]
    assert values == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5])
    d_net = [float(l.split(",")[1]) for l in lines[1:]]
    assert d_net == pytest.approx([-0.03 * k for k in range(1, 6)], abs=1e-9)


def test_sweep_empty_range_header_only(two_bus_cfg, capsys):
    code = main(["sweep", "--config", two_bus_cfg, "--converter", "C1",
                 "--quantity", "p", "--range", "1.0:0.5:0.1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "value,D_net1,f_c1,verdict\n"


def test_sweep_error_rows_inline(two_bus_cfg, capsys):
    # P beyond the transfer limit: rows keep the value and carry an error tag
    code = main(["sweep", "--config", two_bus_cfg, "--case", "inject",
                 "--converter", "C1", "--quantity", "p",
                 "--range", "3.0:3.4:0.2"])
    out = capsys.readouterr().out
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 3
    for row in rows:
        assert row.split(",")[3].startswith("Error[")


@pytest.mark.parametrize("bad", ["0:1:-0.1", "0:inf:0.1", "nan:1:0.1", "0:1:inf",
                                 "0:1e300:1e-300", "1." + "0" * 5000 + ":2:0.5",
                                 "1e-9999999:1:0.5", "0:1e300:1e-5"],
                         ids=["negative-step", "inf-stop", "nan-start", "inf-step",
                              "overflowing-count", "5001-digit-start",
                              "tiny-exponent", "too-many-points"])
def test_sweep_bad_range_exits_one(two_bus_cfg, capsys, bad):
    code = main(["sweep", "--config", two_bus_cfg, "--converter", "C1",
                 "--quantity", "p", "--range", bad])
    assert code == 1
    assert "[RANGE_INVALID]" in capsys.readouterr().err


def test_sweep_negative_start_equals_form(station_cfg, capsys):
    # with a space, a START below zero reads as an option; the '=' form works
    code = main(["sweep", "--config", station_cfg, "--case", "heavy",
                 "--converter", "ES1", "--quantity", "q", "--range=-0.3:0.3:0.1"])
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert code == 0
    assert len(rows) == 7
    assert float(rows[0].split(",")[0]) == pytest.approx(-0.3)


def test_sweep_reduces_once_and_writes_exact_values(station_cfg, monkeypatch, capsys):
    # every point shares one reduced network; values are START + k*STEP in
    # decimal, rounded once, so the Q = 0 row reads 0
    calls = []
    reduce = network.kron_reduce

    def counted(*args):
        calls.append(args)
        return reduce(*args)

    monkeypatch.setattr(network, "kron_reduce", counted)
    code = main(["sweep", "--config", station_cfg, "--case", "heavy",
                 "--converter", "ES1", "--quantity", "q", "--range=-0.3:0.3:0.1"])
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert code == 0
    assert len(calls) == 1
    assert [r.split(",")[0] for r in rows] == ["-0.3", "-0.2", "-0.1", "0",
                                               "0.1", "0.2", "0.3"]


@pytest.fixture()
def unreducible_cfg(tmp_path):
    """Two-bus whose interior nodes i1, i2 form a block with cond ~ 1e18: B
    cannot be reduced."""
    cfg = tmp_path / "unreducible.cfg"
    cfg.write_text(TWO_BUS_CFG.replace("bus1\ngrid\n", "bus1\ni1\ni2\ngrid\n")
                   .replace("bus1 grid 0.3\n", "bus1 i1 1e9\ni1 i2 1e-9\n"
                            "i2 grid 1e9\nbus1 grid 0.3\n"), encoding="utf-8")
    return str(cfg)


def test_sweep_unreducible_network_exits_one(unreducible_cfg, capsys):
    code = main(["sweep", "--config", unreducible_cfg, "--converter", "C1",
                 "--quantity", "p", "--range", "0.1:0.3:0.1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "[SINGULAR_INTERIOR]" in captured.err
    assert captured.out == ""


def test_sweep_unknown_converter_exits_one(two_bus_cfg, capsys):
    code = main(["sweep", "--config", two_bus_cfg, "--converter", "C9",
                 "--quantity", "p", "--range", "0:1:0.5"])
    assert code == 1
    assert "[UNKNOWN_CONVERTER]" in capsys.readouterr().err


@pytest.fixture()
def banded_station(station_cfg, tmp_path):
    """The station with its scan band starting at 20.4 Hz: as the swept power
    moves, every crossing can leave the band, so rows read NoCrossing beside
    verdicts, and powers beyond what the power flow or the scan can take read
    Error[CODE]."""
    path = tmp_path / "banded.cfg"
    path.write_text(_read(station_cfg).replace(
        "flat_voltage = true\n", "flat_voltage = true\nscan_fmin_hz = 20.4\n"),
        encoding="utf-8")
    return str(path)


def _full_grid_assess_point(spec, net, op, *, force_first_pll=False):
    """The report of one point from a trace of the whole scan grid."""
    return assess(spec, trace_curves(spec, net, op, force_first_pll=force_first_pll))


def _outputs(argv, out_dir, capsys):
    """(exit code, stdout, stderr) of ``argv`` with --out ``out_dir``, and the
    bytes of every file but the manifest, whose wall time varies."""
    code = main(argv + ["--out", str(out_dir)])
    files = {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())
             if f.name != "manifest.txt"}
    return code, *capsys.readouterr(), files


@pytest.mark.parametrize("argv", [
    *(["sweep", "--case", "heavy", voltage, "--converter", "ES1", "--quantity", quantity,
       f"--range={span}"]
      for quantity in ("p", "q")
      for voltage, span in (("--flat-voltage", "-1e300:1e300:1e300"),
                            ("--no-flat-voltage", "-6:8:2"))),
    ["sweep", "--case", "peak", "--no-flat-voltage", "--converter", "WTG2", "--quantity", "q",
     "--range=-0.5:0.5:0.25"],
    ["adjust", "--case", "heavy", "--set", "ES1=-0.8,ES2=-0.6"],
    ["adjust", "--case", "peak", "--no-flat-voltage", "--set", "WTG1=0.2"],
    ["sensitivity", "--case", "light"],
    ["sensitivity", "--case", "heavy", "--no-flat-voltage", "--eta-complex"],
], ids=["sweep-p-flat", "sweep-p-solved", "sweep-q-flat", "sweep-q-solved", "sweep-peak",
        "adjust-heavy", "adjust-peak", "sensitivity", "sensitivity-eta-complex"])
@pytest.mark.parametrize("banded", [False, True], ids=["band", "banded"])
def test_the_window_writes_what_the_full_grid_writes(station_cfg, banded_station, tmp_path,
                                                      monkeypatch, capsys, argv, banded):
    argv = [argv[0], "--config", banded_station if banded else station_cfg, *argv[1:]]
    window = _outputs(argv, tmp_path / "window", capsys)
    monkeypatch.setattr(cli, "assess_point", _full_grid_assess_point)
    monkeypatch.setattr(modal, "assess_point", _full_grid_assess_point)
    assert _outputs(argv, tmp_path / "full", capsys) == window
    if banded and argv[0] == "sweep" and argv[4] == "heavy":
        rows = window[3]["sweep.csv"].decode().splitlines()[1:]
        verdicts = [row.split(",")[3] for row in rows]
        assert "NoCrossing" in verdicts
        assert any(v.startswith("Error[") for v in verdicts)


def test_a_sweep_whose_power_flow_overflows_prints_no_warning(station_cfg, capsys):
    code = main(["sweep", "--config", station_cfg, "--case", "heavy", "--no-flat-voltage",
                 "--converter", "ES1", "--quantity", "p", "--range=-1e300:1e300:1e300"])
    out, err = capsys.readouterr()
    assert code == 0
    assert err == ""
    verdicts = [row.split(",")[3] for row in out.splitlines()[1:]]
    assert verdicts[0] == verdicts[2] == "Error[PF_DIVERGED]"
    assert not verdicts[1].startswith("Error[")


# --------------------------------------------------------------- sensitivity

def test_sensitivity_csv(station_cfg, tmp_path, capsys):
    out_dir = tmp_path / "sens"
    code = main(["sensitivity", "--config", station_cfg, "--case", "heavy",
                 "--out", str(out_dir)])
    capsys.readouterr()
    assert code == 2  # verdict-driven exit, heavy case is unstable
    lines = _read(out_dir / "sensitivity.csv").strip().splitlines()
    assert lines[0] == "converter,eta,dD_dP,dD_dQ,dominant_flag"
    assert len(lines) == 6
    rows = [l.split(",") for l in lines[1:]]
    assert [r[0] for r in rows] == ["ES1", "WTG1", "ES2", "WTG2", "WTG3"]
    flags = [int(r[4]) for r in rows]
    assert sum(flags) == 1
    for r in rows:
        eta, dd_dp, dd_dq = float(r[1]), float(r[2]), float(r[3])
        assert eta >= 0
        assert dd_dp == pytest.approx(-eta, abs=1e-15)
        assert dd_dq == 0.0


def test_sensitivity_eta_complex_columns(station_cfg, capsys):
    main(["sensitivity", "--config", station_cfg, "--case", "heavy",
          "--eta-complex"])
    header = capsys.readouterr().out.splitlines()[0]
    assert header == "converter,eta,dD_dP,dD_dQ,dominant_flag,eta_c_re,eta_c_im"


# -------------------------------------------------------------------- adjust

def test_adjust_flip_to_stable(station_cfg, tmp_path, capsys):
    out_dir = tmp_path / "adj"
    code = main(["adjust", "--config", station_cfg, "--case", "heavy",
                 "--set", "ES1=-0.8", "--set", "ES2=-0.6",
                 "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert code == 0  # after-verdict Stable
    text = _read(out_dir / "adjust.txt")
    assert text == out
    assert "verdict_before = Unstable" in text
    assert "verdict_after = Stable" in text
    assert "improvement = true" in text
    assert "delta_p_ES1 = -1.6" in text
    assert "delta_p_WTG1 = 0" in text


def test_adjust_comma_form_equivalent(station_cfg, capsys):
    code = main(["adjust", "--config", station_cfg, "--case", "heavy",
                 "--set", "ES1=-0.8,ES2=-0.6"])
    assert code == 0
    assert "verdict_after = Stable" in capsys.readouterr().out


def test_adjust_unknown_converter(station_cfg, capsys):
    code = main(["adjust", "--config", station_cfg, "--case", "heavy",
                 "--set", "nosuch=0.1"])
    assert code == 1
    assert "[UNKNOWN_CONVERTER]" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_adjust_non_finite_assignment(station_cfg, capsys, value):
    code = main(["adjust", "--config", station_cfg, "--case", "heavy",
                 "--set", f"ES1={value}"])
    assert code == 1
    assert "[ASSIGN_INVALID]" in capsys.readouterr().err


def test_adjust_malformed_assignment(station_cfg, capsys):
    code = main(["adjust", "--config", station_cfg, "--case", "heavy",
                 "--set", "ES1:0.1"])
    assert code == 1
    assert "[ASSIGN_INVALID]" in capsys.readouterr().err


# ------------------------------------------------------------------ simulate

def test_simulate_outputs(two_bus_cfg, tmp_path, capsys):
    out_dir = tmp_path / "sim"
    code = main(["simulate", "--config", two_bus_cfg, "--case", "inject",
                 "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 0
    assert "dominant mode sigma=" in captured.err
    modes_lines = _read(out_dir / "modes.csv").strip().splitlines()
    assert modes_lines[0] == "re,im,f_hz,damping_ratio"
    assert len(modes_lines) == 3  # two eigenvalues for one converter
    series_lines = _read(out_dir / "timeseries.csv").strip().splitlines()
    assert series_lines[0] == "t_s,theta_1,omega_1,dp_1"
    manifest = _read(out_dir / "manifest.txt")
    assert "modes.csv" in manifest and "timeseries.csv" in manifest


def test_simulate_oracle_eigensolver_failure_exits_one(two_bus_cfg, tmp_path,
                                                       monkeypatch, capsys):
    def refuse(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    out_dir = tmp_path / "sim"
    code = main(["simulate", "--config", two_bus_cfg, "--case", "inject",
                 "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 1
    assert "[EIG_NOT_CONVERGED]" in captured.err
    assert "Traceback" not in captured.err
    assert not (out_dir / "modes.csv").exists()


def test_simulate_without_out_skips_integration(two_bus_cfg, monkeypatch, capsys):
    # the time series is written to files only, so nothing integrates it here
    def refuse(*args, **kwargs):
        raise AssertionError("simulate() called without --out")

    monkeypatch.setattr("syncstab.cli.simulate", refuse)
    code = main(["simulate", "--config", two_bus_cfg, "--case", "inject"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[0] == "re,im,f_hz,damping_ratio"
    assert "dominant mode sigma=" in captured.err


def test_simulate_pulse_flags(two_bus_cfg, tmp_path, capsys):
    out_dir = tmp_path / "sim2"
    main(["simulate", "--config", two_bus_cfg, "--case", "absorb",
          "--out", str(out_dir), "--pulse-start", "0.5",
          "--pulse-width", "0.05", "--pulse-amplitude", "0.2"])
    capsys.readouterr()
    rows = _read(out_dir / "timeseries.csv").strip().splitlines()[1:]
    t = [float(r.split(",")[0]) for r in rows]
    th = [float(r.split(",")[1]) for r in rows]
    before = max(abs(v) for v, tt in zip(th, t) if tt < 0.5)
    during = max(abs(v) for v, tt in zip(th, t) if 0.5 <= tt < 0.56)
    assert before == 0.0
    assert during > 0.0


@pytest.mark.parametrize("flag, value", [("--pulse-amplitude", "nan"),
                                         ("--pulse-start", "inf"),
                                         ("--pulse-width", "-inf")])
def test_simulate_non_finite_pulse_writes_nothing(two_bus_cfg, tmp_path, capsys,
                                                  flag, value):
    out_dir = tmp_path / "sim"
    code = main(["simulate", "--config", two_bus_cfg, "--case", "inject",
                 "--out", str(out_dir), f"{flag}={value}"])
    captured = capsys.readouterr()
    assert code == 1
    assert "[SIM_PARAMS_INVALID]" in captured.err
    assert captured.out == ""
    assert os.listdir(out_dir) == []


def test_simulate_overflowing_pulse_writes_nothing(tmp_path, capsys):
    cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "two_bus.cfg")
    out_dir = tmp_path / "d"
    code = main(["simulate", "--config", cfg, "--pulse-amplitude", "1e308",
                 "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 1
    assert "[SIM_NOT_FINITE]" in captured.err
    assert "RuntimeWarning" not in captured.err
    assert captured.out == ""
    assert os.listdir(out_dir) == []


def test_simulate_zero_amplitude_writes_zeros(two_bus_cfg, tmp_path, capsys):
    series = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        code = main(["simulate", "--config", two_bus_cfg, "--case", "inject",
                     "--out", str(out_dir), "--pulse-amplitude", "0"])
        assert code == 0
        series.append(_read(out_dir / "timeseries.csv"))
    capsys.readouterr()
    assert series[0] == series[1]
    rows = series[0].strip().splitlines()
    assert rows[0] == "t_s,theta_1,omega_1,dp_1"
    assert len(rows) == 30_002
    assert all(r.split(",")[1:] == ["0", "0", "0"] for r in rows[1:])


# --------------------------------------------------------------------- flags

def test_flat_voltage_flag_changes_steady_state(station_cfg, tmp_path, capsys):
    # config declares flat_voltage = true; --flat-voltage no  solves the flow
    code = main(["analyze", "--config", station_cfg, "--case", "light",
                 "--no-flat-voltage"])
    out = capsys.readouterr().out
    assert code in (0, 2, 3)
    assert "mode = solved" in out
    main(["analyze", "--config", station_cfg, "--case", "light"])
    assert "mode = flat" in capsys.readouterr().out


def test_force_first_pll_on_identical_gains_is_noop(station_cfg, tmp_path, capsys):
    a, b = tmp_path / "fa", tmp_path / "fb"
    main(["analyze", "--config", station_cfg, "--case", "light", "--out", str(a)])
    main(["analyze", "--config", station_cfg, "--case", "light",
          "--force-first-pll", "--out", str(b)])
    capsys.readouterr()
    ra = [l for l in _read(a / "report.txt").splitlines() if "=" in l]
    rb = [l for l in _read(b / "report.txt").splitlines() if "=" in l]
    assert ra == rb


# ------------------------------------------------------------- usage errors

@pytest.mark.parametrize("argv", [
    ["analyze", "--bogus"],
    # argparse reads "-0.5:..." as an option, so --range has no argument
    ["sweep", "--converter", "WTG1", "--quantity", "p", "--range", "-0.5:0.5:0.1"],
], ids=["unknown-flag", "range-looks-like-option"])
def test_usage_error_exits_one_not_unstable(station_cfg, capsys, argv):
    code = main([argv[0], "--config", station_cfg, *argv[1:]])
    assert code == 1
    err = capsys.readouterr().err
    assert "usage: syncstab" in err
    assert "error:" in err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["analyze", "--help"]])
def test_help_and_version_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out


# ------------------------------------------------------- forced PLL gains

@pytest.fixture()
def mixed_cfg(station_cfg, tmp_path):
    """The station with WTG3 on a different PLL proportional gain."""
    text = _read(station_cfg)
    mixed = text.replace("WTG3 wtg3 6.5 15782", "WTG3 wtg3 7.0 15782")
    assert mixed != text
    path = tmp_path / "mixed.cfg"
    path.write_text(mixed, encoding="utf-8")
    return str(path)


def _kv(text):
    return dict(l.split(" = ", 1) for l in text.splitlines() if " = " in l)


def test_adjust_force_first_pll_runs_on_mixed_gains(mixed_cfg, capsys):
    base = ["--config", mixed_cfg, "--case", "heavy", "--force-first-pll"]
    code = main(["adjust", *base, "--set", "ES1=-0.8"])
    adjust = _kv(capsys.readouterr().out)
    assert code == {"Stable": 0, "Unstable": 2, "Marginal": 3}[adjust["verdict_after"]]

    main(["analyze", *base])
    report = _kv(capsys.readouterr().out)
    assert adjust["d_net1_before"] == report["D_net1"]
    assert adjust["verdict_before"] == report["verdict"]


def test_adjust_without_force_rejects_mixed_gains(mixed_cfg, capsys):
    code = main(["adjust", "--config", mixed_cfg, "--case", "heavy", "--set", "ES1=-0.8"])
    assert code == 1
    assert "[NONIDENTICAL_PLL]" in capsys.readouterr().err


def test_simulate_runs_on_declared_mixed_gains(mixed_cfg, tmp_path, capsys):
    out_dir = tmp_path / "plain"
    code = main(["simulate", "--config", mixed_cfg, "--case", "heavy", "--out", str(out_dir)])
    assert code == 0, capsys.readouterr().err
    assert sorted(os.listdir(out_dir)) == ["manifest.txt", "modes.csv", "timeseries.csv"]


# a command takes --eta-complex and --force-first-pll only where it reads them
@pytest.mark.parametrize("command, args, flag", [
    ("curves", [], "--eta-complex"),
    ("sweep", ["--converter", "WTG1", "--quantity", "p", "--range", "0.4:0.5:0.1"],
     "--eta-complex"),
    ("adjust", ["--set", "ES1=-0.8"], "--eta-complex"),
    ("simulate", [], "--eta-complex"),
    ("simulate", [], "--force-first-pll"),
], ids=["curves-eta-complex", "sweep-eta-complex", "adjust-eta-complex",
        "simulate-eta-complex", "simulate-force-first-pll"])
def test_a_command_refuses_a_flag_it_does_not_read(station_cfg, tmp_path, capsys,
                                                   command, args, flag):
    out_dir = tmp_path / "o"
    code = main([command, "--config", station_cfg, "--case", "light", *args, flag,
                 "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 1
    assert f"unrecognized arguments: {flag}" in captured.err
    assert captured.out == ""
    assert not out_dir.exists()


# the options each command reads, beside flat_voltage (README, "Common flags")
@pytest.mark.parametrize("command,args,fields", [
    ("analyze", [], ["force_first_pll", "eta_complex", "scan_hz", "root_tol_hz"]),
    ("curves", [], ["force_first_pll", "scan_hz"]),
    ("sweep", ["--converter", "WTG1", "--quantity", "p", "--range", "0.4:0.5:0.1"],
     ["force_first_pll", "scan_hz", "root_tol_hz"]),
    ("sensitivity", [], ["force_first_pll", "eta_complex", "scan_hz", "root_tol_hz"]),
    ("adjust", ["--set", "ES1=-0.8"], ["force_first_pll", "scan_hz", "root_tol_hz"]),
    ("simulate", [], ["sim"]),
])
def test_manifest_lists_the_options_the_command_reads(station_cfg, tmp_path, capsys,
                                                      command, args, fields):
    out_dir = tmp_path / command
    main([command, "--config", station_cfg, "--case", "light", *args, "--out", str(out_dir)])
    capsys.readouterr()
    keys = [l.split(" = ", 1)[0] for l in _read(out_dir / "manifest.txt").splitlines()
            if " = " in l]
    assert keys == ["command", "tool_version", "config", "case", "flat_voltage",
                    *fields, "wall_time_s", "outputs"]


# -------------------------------------------------------- repeated work

def _count_calls(monkeypatch, name, modules):
    """Count calls of ``name`` through every module that may look it up."""
    import importlib
    calls = []
    original = getattr(importlib.import_module(modules[0]), name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for modname in modules:
        monkeypatch.setattr(importlib.import_module(modname), name, counted,
                            raising=False)
    return calls


def test_analyze_out_parses_config_once(station_cfg, tmp_path, monkeypatch, capsys):
    calls = _count_calls(monkeypatch, "parse_system_spec",
                         ["syncstab.config", "syncstab.cli", "syncstab.pipeline"])
    code = main(["analyze", "--config", station_cfg, "--case", "light",
                 "--out", str(tmp_path / "o")])
    capsys.readouterr()
    assert code == 0
    assert len(calls) == 1


def test_adjust_traces_each_point_once(station_cfg, monkeypatch, capsys):
    # every trace, full or windowed, is one _scan of the point's one loop
    calls = _count_calls(monkeypatch, "_scan",
                         ["syncstab.frequency_response", "syncstab.pipeline"])
    code = main(["adjust", "--config", station_cfg, "--case", "heavy",
                 "--set", "ES1=-0.8,ES2=-0.6"])
    capsys.readouterr()
    assert code in (0, 2, 3)
    assert len(calls) == 2


def test_a_repeated_command_leaves_no_reference_cycles(two_bus_cfg, capsys):
    # a parser built per call would be ~400 objects of cyclic garbage, freed only
    # by a later collection, so the memory a command holds would hang on gc timing
    for argv in (["analyze", "--config", two_bus_cfg],
                 ["adjust", "--config", two_bus_cfg, "--set", "C1=-0.5"],
                 ["adjust", "--config", two_bus_cfg, "--set", "C1=nan"]):
        main(argv)
        gc.collect()
        main(argv)
        assert gc.collect() == 0, argv
    capsys.readouterr()


_STAGE_MODULES = ["syncstab.cli", "syncstab.pipeline", "syncstab.modal"]


@pytest.mark.parametrize("command, traces, out", [
    ("simulate", 0, False), ("simulate", 0, True), ("curves", 1, False),
])
def test_command_runs_only_the_stages_it_writes(station_cfg, tmp_path, monkeypatch,
                                                capsys, command, traces, out):
    traced = _count_calls(monkeypatch, "trace_curves",
                          ["syncstab.frequency_response", *_STAGE_MODULES])
    assessed = _count_calls(monkeypatch, "assess", ["syncstab.stability", *_STAGE_MODULES])
    extra = ["--out", str(tmp_path / "o")] if out else []
    code = main([command, "--config", station_cfg, "--case", "peak", *extra])
    capsys.readouterr()
    assert code == 0
    assert len(traced) == traces
    assert len(assessed) == 0


# ------------------------------------------------------------ --dump-b

def test_dump_b_honoured_by_every_command(station_cfg, tmp_path, capsys):
    base = ["--config", station_cfg, "--case", "light", "--dump-b"]
    main(["analyze", *base])
    stdout = capsys.readouterr().out
    assert stdout.startswith("# syncstab stability report")
    # B comes after the command's own output
    reference = stdout[stdout.index("node,ES1,WTG1,ES2,WTG2,WTG3\n"):]
    assert "# syncstab stability report" not in reference
    extra = {
        "curves": [], "sensitivity": [], "simulate": [],
        "sweep": ["--converter", "WTG1", "--quantity", "p", "--range", "0.4:0.5:0.1"],
        "adjust": ["--set", "ES1=-0.8"],
    }
    for command, args in extra.items():
        out_dir = tmp_path / command
        main([command, *base, *args, "--out", str(out_dir)])
        assert _read(out_dir / "b_matrix.csv") == reference, command
        assert "b_matrix.csv, manifest.txt\n" in _read(out_dir / "manifest.txt"), command
    capsys.readouterr()


@pytest.mark.parametrize("command, args, error", [
    ("sweep", ["--converter", "C9", "--quantity", "p", "--range", "0:1:0.5"],
     "UNKNOWN_CONVERTER"),
    ("adjust", ["--set", "C1=nan"], "ASSIGN_INVALID"),
    ("simulate", ["--pulse-width", "nan"], "SIM_PARAMS_INVALID"),
], ids=["sweep", "adjust", "simulate"])
@pytest.mark.parametrize("dump_b", [[], ["--dump-b"]], ids=["plain", "dump-b"])
def test_dump_b_does_not_change_which_error_a_command_reports(
        unreducible_cfg, tmp_path, capsys, command, args, error, dump_b):
    # each command fails on its arguments before it reduces B, with or without --dump-b
    out_dir = tmp_path / "o"
    code = main([command, "--config", unreducible_cfg, *args, *dump_b, "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 1
    assert f"[{error}]" in captured.err
    assert list(out_dir.iterdir()) == []


def test_failed_command_with_dump_b_writes_no_file(two_bus_cfg, tmp_path, capsys):
    out_dir = tmp_path / "d"
    code = main(["analyze", "--config", two_bus_cfg, "--case", "nope", "--dump-b",
                 "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 1
    assert "[UNKNOWN_CASE]" in captured.err
    assert list(out_dir.iterdir()) == []


# ------------------------------------------ CSVs against the retired row rule

@pytest.fixture()
def sweep_rows(monkeypatch):
    """The rows a sweep hands its writer, recorded as it makes them."""
    rows = []
    sweep_row = cli._sweep_row
    monkeypatch.setattr(cli, "_sweep_row", lambda *a: rows.append(sweep_row(*a)) or rows[-1])
    return rows


@pytest.mark.parametrize("flat", [True, False], ids=["flat", "solved"])
@pytest.mark.parametrize("config, case", [("station", "light"), ("station", "heavy"),
                                          ("station", "peak"), ("two_bus", "inject"),
                                          ("two_bus", "absorb")])
def test_small_csvs_match_the_retired_row_rule(two_bus_cfg, sweep_rows, capsys, config,
                                               case, flat):
    path = STATION_CFG_PATH if config == "station" else two_bus_cfg
    spec = load_system_spec(path)
    argv = ["--config", path, "--case", case,
            "--flat-voltage" if flat else "--no-flat-voltage"]
    names = spec.converter_names
    result = run_analysis(spec, case, flat_voltage=flat)

    # simulate without --out: modes.csv, then b_matrix.csv, on stdout
    assert main(["simulate", *argv, "--dump-b"]) == 0
    vals = run_oracle(result)[1].eigenvalues
    modes_rows = ([lam.real, lam.imag, abs(lam.imag) / (2.0 * math.pi),
                   (-lam.real / abs(lam)) if abs(lam) > 0 else 0.0] for lam in vals)
    b = network.build_reduced_network(spec).b_matrix
    assert capsys.readouterr().out == (
        _reference_rows(["re", "im", "f_hz", "damping_ratio"], modes_rows)
        + _reference_rows(["node", *names], ([names[i], *b[i]] for i in range(len(names)))))

    for eta_complex in ([], ["--eta-complex"]):
        main(["sensitivity", *argv, *eta_complex])
        out = capsys.readouterr().out
        if result.report.critical is None:
            assert out == ""
            continue
        weights = modal_weights_from_report(result.net, result.op, result.report, spec.omega0)
        sens = sensitivities(weights)
        header = ["converter", "eta", "dD_dP", "dD_dQ", "dominant_flag"]
        rows = [[name, weights.eta[i], sens.dd_dp[i], sens.dd_dq[i],
                 1 if i == sens.dominant else 0] for i, name in enumerate(names)]
        if eta_complex:
            header += ["eta_c_re", "eta_c_im"]
            for i, row in enumerate(rows):
                row += [weights.eta_complex[i].real, weights.eta_complex[i].imag]
        assert out == _reference_rows(header, rows)

    assert main(["sweep", *argv, "--converter", names[0], "--quantity", "p",
                 "--range=-1e300:1e300:1e300"]) == 0
    assert capsys.readouterr().out == _reference_rows(["value", "D_net1", "f_c1", "verdict"],
                                                      sweep_rows)
    assert len(sweep_rows) == 3 and sweep_rows[0][3] == sweep_rows[2][3] == (
        "Error[OP_INVALID]" if flat else "Error[PF_DIVERGED]")


@pytest.mark.parametrize("span, verdicts", [("0.5:0.5:1", ["NoCrossing"]), ("1:0:0.1", [])],
                         ids=["no-crossing", "empty"])
def test_a_sweep_csv_matches_the_retired_row_rule(tmp_path, sweep_rows, capsys, span,
                                                  verdicts):
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text(TWO_BUS_CFG + "\n[options]\nscan_fmin_hz = 25\n", encoding="utf-8")
    assert main(["sweep", "--config", str(cfg), "--converter", "C1", "--quantity", "p",
                 f"--range={span}"]) == 0
    assert capsys.readouterr().out == _reference_rows(["value", "D_net1", "f_c1", "verdict"],
                                                      sweep_rows)
    assert [row[3] for row in sweep_rows] == verdicts
