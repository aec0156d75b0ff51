"""Self-test of the benchmark: every workload passes its checks on a few
operations, and corrupted results are caught and counted as failed.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import dataclasses
import glob
import json
import os

import numpy as np
import pytest

import checks
import run
import tracing
import workloads
from checks import CheckFailed


def _first_ops(name: str, tmp_path, count: int = 1):
    return workloads.WORKLOADS[name](7, str(tmp_path)).round(0)[:count]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_operations_pass_their_checks(name, tmp_path):
    for op in _first_ops(name, tmp_path, 2 if name == "station_screen" else 1):
        elapsed, error = run.attempt(op)
        assert error is None and elapsed > 0


def test_rounds_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    a = workloads.GridScaling(3, str(tmp_path))
    b = workloads.GridScaling(4, str(tmp_path))
    assert [op.label for op in a.round(1)] == ["n20"] * 3
    text = workloads.grid_config(np.random.default_rng([3, 1, 0]), 20)
    assert text == workloads.grid_config(np.random.default_rng([3, 1, 0]), 20)
    assert text != workloads.grid_config(np.random.default_rng([4, 1, 0]), 20)
    grid = checks.read_grid(text)
    assert grid.n == 20 and grid.cases["base"][0].shape == (20,)
    assert [o.label for o in a.round(0)] == [o.label for o in b.round(0)]
    station = workloads.StationScreen(3, str(tmp_path))
    labels = [op.label for op in station.round(0)]
    assert sorted(labels[:-1]) == sorted(workloads.STATION_CASES * 2)
    assert labels[-1] == "two_bus"


def _station_output(tmp_path):
    op = _first_ops("station_screen", tmp_path)[0]
    out = op.run()
    op.check(out)
    return op, out


def _with_report(out, **changes):
    result, weights, sens, cross = out
    report = result.report
    if "lam1" in changes:
        report = dataclasses.replace(
            report, critical=dataclasses.replace(report.critical, lam1=changes.pop("lam1")))
    report = dataclasses.replace(report, **changes)
    return dataclasses.replace(result, report=report), weights, sens, cross


def test_perturbed_lambda1_is_caught(tmp_path):
    op, out = _station_output(tmp_path)
    lam1 = out[0].report.critical.lam1
    with pytest.raises(CheckFailed, match="eigenvalue"):
        op.check(_with_report(out, lam1=lam1 + 1e-6))


def test_flipped_verdict_is_caught(tmp_path):
    op, out = _station_output(tmp_path)
    flipped = {"Stable": "Unstable"}.get(out[0].report.verdict, "Stable")
    with pytest.raises(CheckFailed, match="verdict"):
        op.check(_with_report(out, verdict=flipped))


def test_wrong_weights_are_caught(tmp_path):
    op, (result, weights, sens, cross) = _station_output(tmp_path)
    eta = weights.eta.copy()
    eta[0] *= 1.001
    with pytest.raises(CheckFailed, match="eta"):
        op.check((result, dataclasses.replace(weights, eta=eta), sens, cross))


def test_dropped_timeseries_row_is_caught(tmp_path):
    op = _first_ops("cli_export", tmp_path)[0]
    codes = op.run()
    (path,) = glob.glob(os.path.join(tmp_path, "*", "sim", "timeseries.csv"))
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])
    with pytest.raises(CheckFailed, match="timeseries shape"):
        op.check(codes)
    op.cleanup()


def test_misplaced_dominant_flag_is_caught(tmp_path):
    op = _first_ops("dispatch_study", tmp_path)[0]
    out = op.run()
    (path,) = glob.glob(os.path.join(tmp_path, "*", "sens", "sensitivity.csv"))
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    flagged = [r[4] for r in rows].index("1")
    rows[flagged][4], rows[flagged - 1][4] = "0", "1"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
    with pytest.raises(CheckFailed, match="dominant flag"):
        op.check(out)
    op.cleanup()


def test_failed_check_and_raised_error_count_as_failed():
    def bad_check(_out):
        raise CheckFailed("corrupted")

    def bad_run():
        raise ValueError("boom")

    cleaned = []
    _s, error = run.attempt(workloads.Op("x", 1, lambda: 1, bad_check,
                                         lambda: cleaned.append(1)))
    assert error == "x: check: corrupted"
    _s, error = run.attempt(workloads.Op("y", 1, bad_run, lambda _o: None,
                                         lambda: cleaned.append(1)))
    assert error == "y: ValueError: boom"
    assert cleaned == [1, 1]


def test_tracer_covers_the_operation_and_restores_the_modules(tmp_path):
    import syncstab.cli
    import syncstab.pipeline
    original = syncstab.pipeline.run_analysis
    tracer = tracing.Tracer()
    op = _first_ops("station_screen", tmp_path)[0]
    tracer.install()
    try:
        assert syncstab.cli.run_analysis is not original
        elapsed, error = run.attempt(op)
    finally:
        tracer.uninstall()
    assert error is None
    assert syncstab.pipeline.run_analysis is original
    assert syncstab.cli.run_analysis is original
    row = tracing.op_metrics(tracer.spans, 0, elapsed, op.points)
    assert row["trace.coverage_pct"] > 90.0
    assert row["frequency_response.eig_calls"] == 1200
    assert row["pipeline.traces_per_point"] == 1.0
    assert abs(row["frequency_response.self_ms"]
               + row["frequency_response.eig_ms"] - row["frequency_response.trace_ms"]) < 0.2 * row["frequency_response.trace_ms"]

    path = tmp_path / "spans.jsonl"
    tracing.write_spans(tracer.spans, path)
    lines = [json.loads(ln) for ln in path.read_text(encoding="utf-8").splitlines()]
    assert all(ln[1] != "eig" for ln in lines)
    eig_calls = sum(ln[5].get("eig_calls", 0) for ln in lines)
    assert eig_calls == sum(1 for s in tracer.spans if s[1] == "eig")
    assert all(ln[4] is None or ln[4] < i for i, ln in enumerate(lines))


def test_tail_needs_forty_operations():
    assert run.tail(list(range(39))) is None
    pct, value = run.tail([float(i) for i in range(100)])
    assert (pct, value) == (90.0, 89.0)
    assert sum(v > value for v in range(100)) == 10


def test_pf_residual_sees_a_moved_setpoint():
    grid = checks.read_grid(workloads.STATION_CFG.read_text(encoding="utf-8"))
    import syncstab
    spec = syncstab.load_system_spec(str(workloads.STATION_CFG))
    p, q = grid.cases["heavy"]
    steady = syncstab.solve_steady_state(spec, p, q, flat_voltage=False)
    assert checks.pf_residual(grid, p, q, steady.u_pu, steady.delta0_rad) < 1e-8
    assert checks.pf_residual(grid, p + 1e-6, q, steady.u_pu, steady.delta0_rad) > 1e-7
