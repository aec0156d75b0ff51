"""The four workloads: seeded inputs, the timed operation and its checks.

Each workload yields its operations in rounds.  Round ``k`` is drawn from
``numpy.random.default_rng([seed, k])`` and always holds the same kinds of
operation in the same proportion, so a run that stops after whole rounds
keeps the mix fixed whatever the seed or the run length.

syncstab functions are looked up on their modules at call time
(``pipeline.run_analysis``, not a name imported once), so that the traced
run's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import io
import os
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import syncstab.cli as cli
import syncstab.config as config
import syncstab.modal as modal
import syncstab.network as network
import syncstab.pipeline as pipeline

import checks
from checks import require
from grids import grid_config

ROOT = Path(__file__).resolve().parents[1]
STATION_CFG = ROOT / "configs" / "wind_storage_station.cfg"
TWO_BUS_CFG = ROOT / "configs" / "two_bus.cfg"
STATION_CASES = ("light", "heavy", "peak")
# exit codes the README documents for a verdict
EXIT_CODES = {"Stable": 0, "Unstable": 2, "Marginal": 3}


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` is not."""

    label: str
    points: int                       # distinct operating points it reports on
    run: Callable[[], Any]
    check: Callable[[Any], None]
    cleanup: Callable[[], None] = lambda: None


def _with_case(text: str, name: str, names, p, q) -> str:
    """Config text with its operating points replaced by one block."""
    kept = re.split(r"^\[operating_point [^\]]*\]\s*$", text, flags=re.M)
    head = kept[0]
    tail = "".join(re.sub(r"\A(?:[^\[\n].*\n|\n)*", "", part) for part in kept[1:])
    block = "\n".join(f"{nm} {float(p[i])!r} {float(q[i])!r}" for i, nm in enumerate(names))
    return f"{head}[operating_point {name}]\n{block}\n\n{tail}"


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


# --------------------------------------------------------------------------
# library screening: station_screen and grid_scaling
# --------------------------------------------------------------------------

def _screen_op(label: str, text: str, spec, case: str) -> Op:
    """run_analysis → modal_weights_from_report → sensitivities → run_oracle."""
    grid = checks.read_grid(text)
    p, q = grid.cases[case]
    b_ref = checks.reduced_b(grid)

    def run():
        result = pipeline.run_analysis(spec, case)
        weights = modal.modal_weights_from_report(result.net, result.op,
                                                  result.report, spec.omega0)
        sens = modal.sensitivities(weights)
        _ss, _modes, cross = pipeline.run_oracle(result)
        return result, weights, sens, cross

    def check(out):
        result, weights, sens, cross = out
        checks.check_analysis(grid, b_ref, p, q, result, weights.eta, sens.dd_dp,
                              sens.dominant, cross.status, spec.options.root_tol_hz)

    return Op(label, 1, run, check)


class StationScreen:
    """Perturbed station points, six per round, plus one two-bus point."""

    name = "station_screen"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.station_text = STATION_CFG.read_text(encoding="utf-8")
        self.two_bus_text = TWO_BUS_CFG.read_text(encoding="utf-8")
        self.station = checks.read_grid(self.station_text)

    def round(self, k: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, k])
        ops = []
        for case in rng.permutation(STATION_CASES * 2):
            p0, q0 = self.station.cases[case]
            p = p0 + rng.uniform(-0.1, 0.1, p0.shape)
            q = q0 + rng.uniform(-0.1, 0.1, q0.shape)
            text = _with_case(self.station_text, "pt", self.station.conv_names, p, q)
            ops.append(_screen_op(case, text, config.parse_system_spec(text), "pt"))
        p = np.array([rng.uniform(-0.8, 0.8)])
        q = np.array([rng.uniform(-0.2, 0.2)])
        text = _with_case(self.two_bus_text, "pt", ("C1",), p, q)
        # last, so that round 0 always opens with a station point: the set-up
        # probe and the allocation pass measure that first operation
        ops.append(_screen_op("two_bus", text, config.parse_system_spec(text), "pt"))
        return ops


class GridScaling:
    """Synthetic collector grids of 20 converters, three per round.

    One size keeps the median a median of like operations (with 20, 25 and
    30 converters in a round it was the median of the few middle-size
    ones), and the smallest size of the 20–40 range fits the most
    operations into a run.  ``scaling.py`` gives the growth with n.
    """

    name = "grid_scaling"
    n = 20

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def round(self, k: int) -> list[Op]:
        ops = []
        for i in range(3):
            text = grid_config(np.random.default_rng([self.seed, k, i]), self.n)
            ops.append(_screen_op(f"n{self.n}", text, config.parse_system_spec(text), "base"))
        return ops


# --------------------------------------------------------------------------
# in-process CLI: dispatch_study and cli_export
# --------------------------------------------------------------------------

class _CliWorkload:
    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.station_text = STATION_CFG.read_text(encoding="utf-8")
        self.station = checks.read_grid(self.station_text)
        self.b_ref = checks.reduced_b(self.station)

    def _point(self, rng, case: str, spread: float, tag: str):
        p0, q0 = self.station.cases[case]
        p = p0 + rng.uniform(-spread, spread, p0.shape)
        q = q0 + rng.uniform(-spread, spread, q0.shape)
        path = os.path.join(self.workdir, f"{tag}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_with_case(self.station_text, "pt", self.station.conv_names, p, q))
        out = os.path.join(self.workdir, tag)
        return p, q, path, out, lambda: shutil.rmtree(out, ignore_errors=True)


class DispatchStudy(_CliWorkload):
    """Re-dispatch studies with solved voltages; a heavy and a peak study per round."""

    name = "dispatch_study"
    sweep_half = 0.3
    sweep_step = 0.05

    def round(self, k: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, k])
        return [self._study(rng, case, f"d{k}_{case}") for case in ("heavy", "peak")]

    def _study(self, rng, case: str, tag: str) -> Op:
        names = self.station.conv_names
        p, q, cfg, out, cleanup = self._point(rng, case, 0.05, tag)
        swept = int(rng.integers(len(names)))
        start = p[swept] - self.sweep_half
        values = start + self.sweep_step * np.arange(13)
        absorb = {"ES1": -rng.uniform(0.3, 0.9), "ES2": -rng.uniform(0.3, 0.9)}
        common = ["--config", cfg, "--case", "pt", "--no-flat-voltage"]

        def run():
            codes = [
                _cli(["sweep", *common, "--out", f"{out}/sweep",
                      "--converter", names[swept], "--quantity", "p",
                      "--range", f"{float(start)!r}:{float(values[-1])!r}:{self.sweep_step!r}"]),
                _cli(["adjust", *common, "--out", f"{out}/adjust", "--set",
                      ",".join(f"{nm}={float(v)!r}" for nm, v in absorb.items())]),
                _cli(["sensitivity", *common, "--out", f"{out}/sens"]),
            ]
            _h, rows = checks.read_csv(f"{out}/sens/sensitivity.csv")
            dominant = [r[4] for r in rows].index("1")
            spec = config.load_system_spec(cfg)
            net = network.build_reduced_network(spec)
            _name, steady, op = pipeline.operating_point(spec, "pt", flat_voltage=False)
            fd = modal.finite_difference_check(spec, net, op, dominant)
            return codes, steady, fd, dominant

        def check(result):
            codes, steady, fd, dominant = result
            _h, rows = checks.read_csv(f"{out}/sweep/sweep.csv")
            require(len(rows) == 13 and codes[0] == 0, "sweep row count or exit code")
            for row, value in zip(rows, values):
                require(checks.close(float(row[0]), value), "sweep value column")
                require(row[3] in ("Stable", "Unstable", "Marginal"), f"sweep row {row}")
                require(np.isfinite(float(row[1])) and 0.5 <= float(row[2]) <= 60.0,
                        f"sweep row {row}")

            _h, rows = checks.read_csv(f"{out}/sens/sensitivity.csv")
            require([r[0] for r in rows] == list(names), "sensitivity.csv converters")
            eta = np.array([float(r[1]) for r in rows])
            require(all(float(r[2]) == -float(r[1]) and float(r[3]) == 0.0 for r in rows),
                    "sensitivity.csv: dD_dP != -eta or dD_dQ != 0")
            flags = [r[4] for r in rows]
            require(flags.count("1") == 1 and flags.index("1") == int(np.argmax(eta)),
                    "sensitivity.csv dominant flag is not at argmax eta")

            kv = checks.read_kv(f"{out}/adjust/adjust.txt")
            require(kv["improvement"] == "true",
                    "storage moved to consumption did not raise D_net1")
            require(checks.close(float(kv["d_net1_before"]), -float(eta @ p)),
                    "adjust d_net1_before != -sum(eta P) from sensitivity.csv")
            after = p.copy()
            for nm, v in absorb.items():
                after[names.index(nm)] = v
            for i, nm in enumerate(names):
                require(checks.close(float(kv[f"delta_p_{nm}"]), after[i] - p[i]),
                        f"adjust delta_p_{nm}")
            require(int(kv["positive_inertia_before"]) == int(np.sum(p > 0))
                    and int(kv["positive_inertia_after"]) == int(np.sum(after > 0)),
                    "adjust positive-inertia counts")
            require(codes[1] == EXIT_CODES[kv["verdict_after"]], "adjust exit code")

            require(checks.pf_residual(self.station, p, q, steady.u_pu, steady.delta0_rad)
                    <= checks.PF_RESIDUAL_TOL, "solved voltages miss the setpoints")
            # fd.rel_err itself is recorded, not bounded: on these points it
            # exceeds criterion 05's ensemble tolerance on every input
            require(checks.close(fd.predicted, -float(eta[dominant]))
                    and np.isfinite(fd.measured),
                    "finite-difference check does not predict -eta of the dominant converter")

        # 13 swept points, the base point, the adjusted point, the FD bump
        return Op(case, 16, run, check, cleanup)


class CliExport(_CliWorkload):
    """simulate, analyze --curves and curves with --out; light and peak per round."""

    name = "cli_export"

    def round(self, k: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, k])
        return [self._export(rng, case, f"e{k}_{case}") for case in ("light", "peak")]

    def _export(self, rng, case: str, tag: str) -> Op:
        p, q, cfg, out, cleanup = self._point(rng, case, 0.02, tag)
        common = ["--config", cfg, "--case", "pt"]

        def run():
            return [
                _cli(["simulate", *common, "--out", f"{out}/sim"]),
                _cli(["analyze", *common, "--out", f"{out}/an",
                      "--curves", f"{out}/an/curves.csv"]),
                _cli(["curves", *common, "--out", f"{out}/cv"]),
            ]

        def check(codes):
            grid = self.station
            verdict = checks.check_report(grid, p, f"{out}/an/report.txt")
            require(codes == [0, EXIT_CODES[verdict], 0], f"exit codes {codes}")
            checks.check_curves(grid, self.b_ref, p, q, f"{out}/cv/curves.csv")
            with open(f"{out}/cv/curves.csv", "rb") as a, open(f"{out}/an/curves.csv", "rb") as b:
                require(a.read() == b.read(), "analyze --curves differs from curves")
            sigma = checks.dominant_sigma(f"{out}/sim/modes.csv")
            require((sigma < 0.0) == (case == "light"),
                    f"dominant sigma {sigma:.3g} on {case}")
            checks.check_timeseries(grid.n, 1e-4, 3.0, 2.02, sigma,
                                    f"{out}/sim/timeseries.csv")

        return Op(case, 1, run, check, cleanup)


WORKLOADS = {w.name: w for w in (StationScreen, GridScaling, DispatchStudy, CliExport)}
