"""Command-line front end.

Commands
--------
analyze      full pipeline: verdict, margin, sensitivities, oracle cross-check
curves       damping/spring curves over the scan grid as CSV
sweep        re-run the pipeline over a range of one converter's P or Q
sensitivity  per-converter weights and first-order sensitivities as CSV
adjust       before/after comparison for explicit active-power assignments
simulate     state-space oracle: mode table and disturbance time series

``_COMMANDS`` declares each command once: its handler, its help text, the
options it reads (its manifest lists them) and its own flags.  Every command
takes --config, --case, --[no-]flat-voltage, --out and --dump-b; all but
simulate take --force-first-pll, and only analyze and sensitivity take
--eta-complex.

Exit codes: 0 Stable (or generic success), 2 Unstable, 3 Marginal/NoCrossing,
1 any error.  Commands that render a verdict (analyze, sensitivity, adjust —
the latter judged on the after-point) use the verdict mapping; curves, sweep,
and simulate return 0 on success.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from decimal import Decimal
from fractions import Fraction
from functools import cache, partial
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .config import SystemSpec, load_system_spec
from .errors import SyncstabError
from .frequency_response import OperatingPoint, per_converter_gamma, trace_curves, write_curves_csv
from .modal import adjustment_compare, modal_weights_from_report, sensitivities, write_sensitivity_csv
from .network import ReducedNetwork, build_reduced_network
from .pipeline import (AnalysisResult, assess_point, operating_point, oracle_model, run_analysis,
                       run_oracle)
from .powerflow import solve_steady_state
from .stability import MARGINAL, NO_CROSSING, STABLE, UNSTABLE
from .statespace import AnglePulse, modes, simulate, write_modes_csv, write_timeseries_csv
from .textio import KVWriter, g12, write_table

_EXIT = {STABLE: 0, UNSTABLE: 2, MARGINAL: 3, NO_CROSSING: 3}

MAX_SWEEP_POINTS = 100_000     # ~10 ms per station point: about 17 min
_MIN_EXP, _MAX_EXP = sys.float_info.min_10_exp, sys.float_info.max_10_exp

# flags every command takes
_COMMON_FLAGS = {
    "--config": dict(required=True, help="system description file"),
    "--case": dict(help="operating-point block name (default: first declared)"),
    "--flat-voltage": dict(action=argparse.BooleanOptionalAction, default=None,
                           help="skip the power flow (U = 1, delta = 0); --no-flat-voltage "
                                "forces a solve even when the config declares flat_voltage"),
    "--out": dict(metavar="DIR", help="write outputs (and a run manifest) into DIR"),
    "--dump-b": dict(action="store_true", help="emit the reduced susceptance matrix B as CSV"),
}
# flags a command takes only when it reads the option of the same name
_OPTION_FLAGS = {
    "--eta-complex": dict(action="store_true",
                          help="add literal complex-square weight diagnostics"),
    "--force-first-pll": dict(action="store_true",
                              help="allow non-identical PLL gains, using converter 1's"),
}


# built once per process: a parser is a web of reference cycles, so one per
# call leaves garbage that only a later cyclic collection frees
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syncstab",
        description="Net-damping synchronization-stability screening for "
                    "multi-converter grids.")
    parser.add_argument("--version", action="version", version=f"syncstab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        read = {f: kw for f, kw in _OPTION_FLAGS.items()
                if f[2:].replace("-", "_") in command.reads}
        for flag, kwargs in {**_COMMON_FLAGS, **read, **command.flags}.items():
            p.add_argument(flag, **kwargs)
    return parser


def _save(path: str, write) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write(fh)


class _Outputs:
    """Routes each output to --out or stdout; collects the files for the run manifest."""

    def __init__(self, out_dir: str | None):
        self.out_dir = out_dir
        self.files: list[str] = []
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)

    def emit(self, name: str, write, echo: bool = False) -> None:
        """Call ``write(fh)`` on DIR/``name`` under --out, else on stdout;
        ``echo`` writes to stdout in either case."""
        if self.out_dir:
            _save(os.path.join(self.out_dir, name), write)
            self.files.append(name)
        if echo or not self.out_dir:
            write(sys.stdout)

    def manifest(self, args: argparse.Namespace, spec: SystemSpec, started: float) -> None:
        if not self.out_dir:
            return
        doc = KVWriter()
        doc.section("syncstab run manifest")
        doc.field("command", args.command)
        doc.field("tool_version", __version__)
        doc.field("config", os.path.abspath(args.config))
        doc.field("case", args.case or "(first declared)")
        opt = spec.options
        doc.field("flat_voltage", opt.flat_voltage if args.flat_voltage is None
                  else args.flat_voltage)
        values = {
            **vars(args),            # the flags: force_first_pll, eta_complex
            "scan_hz": f"{g12(opt.scan_fmin_hz)}..{g12(opt.scan_fmax_hz)} x{opt.scan_points}",
            "root_tol_hz": opt.root_tol_hz,
            "sim": f"dt={g12(opt.sim_dt_s)} duration={g12(opt.sim_duration_s)}",
        }
        for name in _COMMANDS[args.command].reads:
            doc.field(name, values[name])
        doc.field("wall_time_s", round(time.monotonic() - started, 3))
        doc.field("outputs", ", ".join(self.files + ["manifest.txt"]))
        _save(os.path.join(self.out_dir, "manifest.txt"), doc.write)


def _b_matrix_csv(net: ReducedNetwork, fh) -> None:
    names = list(net.converter_index)
    write_table(fh, ["node", *names], [names, net.b_matrix])


def _report_document(args, result: AnalysisResult) -> tuple[KVWriter, str]:
    """Build the full analyze report; returns (document, verdict)."""
    spec, report = result.spec, result.report
    names = spec.converter_names
    doc = KVWriter()
    doc.section("syncstab stability report")
    doc.field("tool_version", __version__)
    doc.field("config", args.config)
    doc.field("case", result.case)
    doc.field("n_converters", spec.n_converters)
    doc.field("rated_frequency_hz", spec.rated_frequency_hz)

    doc.section("steady state")
    doc.field("mode", "flat" if result.steady.flat else "solved")
    doc.field("iterations", result.steady.iterations)
    for i, name in enumerate(names):
        doc.field(f"u_{name}", float(result.steady.u_pu[i]))
        doc.field(f"delta_{name}_rad", float(result.steady.delta0_rad[i]))
    doc.field("slack_p_pu", result.steady.slack_p_pu)
    if np.isfinite(result.steady.slack_q_pu):
        doc.field("slack_q_pu", result.steady.slack_q_pu)

    doc.section("verdict")
    doc.field("verdict", report.verdict)
    if report.critical is not None:
        c = report.critical
        doc.field("margin", c.margin)
        doc.field("D_net1", c.d_net1)
        doc.field("D_con_at_c1", c.d_con_at_c1)
        doc.field("f_c1_hz", c.f_c1)
        doc.field("omega_c1_rad_s", c.omega_c1)
        doc.field("critical_subsystem", c.subsystem + 1)
    for note in report.notes:
        doc.note(note)

    doc.section("crossings")
    count = 0
    for sub in report.per_subsystem:
        for cr in sub.crossings:
            count += 1
            doc.field(f"crossing_{count}",
                      f"subsystem={cr.subsystem + 1} f_hz={g12(cr.f_ci)} "
                      f"D_con={g12(cr.d_con)} D_net={g12(cr.d_neti)} "
                      f"net={g12(cr.net_damping)}")
    doc.field("crossing_count", count)

    if report.critical is not None:
        weights = modal_weights_from_report(result.net, result.op, report, spec.omega0)
        sens = sensitivities(weights)
        doc.section("per-converter weights")
        for i, name in enumerate(names):
            doc.field(f"eta_{name}", float(weights.eta[i]))
        if args.eta_complex:
            for i, name in enumerate(names):
                z = weights.eta_complex[i]
                doc.field(f"eta_complex_{name}", f"{g12(z.real)}{z.imag:+.12g}j")
        doc.field("dominant_converter", names[sens.dominant])

    _ss, modeset, check = run_oracle(result)
    doc.section("state-space oracle")
    if modeset.dominant is None:
        doc.field("dominant_mode", "none")
        doc.note(modeset.note)
    else:
        doc.field("dominant_sigma_1_per_s", modeset.dominant.sigma)
        doc.field("dominant_f_hz", modeset.dominant.f_hz)
        doc.field("dominant_damping_ratio", modeset.dominant.damping_ratio)
    doc.field("crosscheck", check.status)
    if check.freq_dev_hz is not None:
        doc.field("crosscheck_freq_dev_hz", check.freq_dev_hz)
    if check.reason:
        doc.note(check.reason)

    return doc, report.verdict


def _cmd_analyze(args, spec: SystemSpec, out: _Outputs) -> int:
    result = run_analysis(spec, args.case, flat_voltage=args.flat_voltage,
                          force_first_pll=args.force_first_pll)
    doc, verdict = _report_document(args, result)

    if args.curves:
        _save(args.curves, partial(write_curves_csv, result.curves))
        out.files.append(os.path.abspath(args.curves))
    out.emit("report.txt", doc.write, echo=True)
    return _EXIT[verdict]


def _cmd_curves(args, spec: SystemSpec, out: _Outputs) -> int:
    net = build_reduced_network(spec)
    _case, _steady, op = operating_point(spec, args.case, flat_voltage=args.flat_voltage)
    curves = trace_curves(spec, net, op, force_first_pll=args.force_first_pll)
    extra = per_converter_gamma(spec, op, curves.f_hz) if args.per_converter_gamma else None
    out.emit("curves.csv", partial(write_curves_csv, curves, per_converter=extra,
                                   names=spec.converter_names))
    return 0


def _parse_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise SyncstabError(f"range must be START:STOP:STEP, got {text!r}",
                            code="RANGE_INVALID")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise SyncstabError(f"range values must be numbers: {text!r}",
                            code="RANGE_INVALID") from None
    if not np.all(np.isfinite([start, stop, step])):
        raise SyncstabError(f"range values must be finite: {text!r}",
                            code="RANGE_INVALID")
    if step <= 0:
        raise SyncstabError("range STEP must be positive", code="RANGE_INVALID")
    # the exact decimals below take time that grows with a field's exponent
    if any(not _MIN_EXP <= Decimal(p).adjusted() <= _MAX_EXP for p in parts):
        raise SyncstabError(f"range values must lie within the float exponent range: "
                            f"{text!r}", code="RANGE_INVALID")
    count = np.floor((stop - start) / step + 1e-9) + 1
    if count > MAX_SWEEP_POINTS:
        raise SyncstabError(f"range has more than {MAX_SWEEP_POINTS} points",
                            code="RANGE_INVALID")
    # each value is the decimal START + k*STEP rounded once, so 0 comes out as 0
    try:
        start_x, step_x = Fraction(parts[0]), Fraction(parts[2])
    except ValueError:               # more digits than int() converts
        raise SyncstabError("range values have too many digits to read exactly",
                            code="RANGE_INVALID") from None
    return [float(start_x + k * step_x) for k in range(int(count))]


def _sweep_row(args, spec: SystemSpec, net: ReducedNetwork, p0: np.ndarray,
               q0: np.ndarray, value: float) -> tuple[float, float, float, str]:
    """One row of sweep.csv: the case with the swept P or Q set to ``value``;
    a coded error becomes an ``Error[CODE]`` row."""
    p, q = p0.copy(), q0.copy()
    (p if args.quantity == "p" else q)[spec.converter_names.index(args.converter)] = value
    try:
        steady = solve_steady_state(spec, p, q, flat_voltage=args.flat_voltage)
        report = assess_point(spec, net, OperatingPoint(p, q, steady.u_pu),
                              force_first_pll=args.force_first_pll)
    except SyncstabError as exc:
        return value, float("nan"), float("nan"), f"Error[{exc.code}]"
    critical = report.critical
    if critical is None:
        return value, float("nan"), float("nan"), report.verdict
    return value, critical.d_net1, critical.f_c1, report.verdict


def _cmd_sweep(args, spec: SystemSpec, out: _Outputs) -> int:
    if args.converter not in spec.converter_names:
        raise SyncstabError(f"unknown converter {args.converter!r}",
                            code="UNKNOWN_CONVERTER")
    values = _parse_range(args.range)
    net = build_reduced_network(spec)
    p0, q0 = spec.case_injections(args.case)
    rows = [_sweep_row(args, spec, net, p0, q0, value) for value in values]
    # the rows transposed; an empty range writes the header alone
    out.emit("sweep.csv", partial(write_table, header=["value", "D_net1", "f_c1", "verdict"],
                                  columns=list(zip(*rows)) or [()] * 4))
    return 0


def _cmd_sensitivity(args, spec: SystemSpec, out: _Outputs) -> int:
    net = build_reduced_network(spec)
    _case, _steady, op = operating_point(spec, args.case, flat_voltage=args.flat_voltage)
    report = assess_point(spec, net, op, force_first_pll=args.force_first_pll)
    if report.critical is None:
        sys.stderr.write("syncstab: no crossing in the scan band; "
                         "no weights to report\n")
        return _EXIT[report.verdict]
    weights = modal_weights_from_report(net, op, report, spec.omega0)
    sens = sensitivities(weights)
    out.emit("sensitivity.csv", partial(write_sensitivity_csv, weights, sens,
                                        spec.converter_names, eta_complex=args.eta_complex))
    return _EXIT[report.verdict]


def _parse_assignments(chunks: list[str], spec: SystemSpec) -> dict[str, float]:
    out: dict[str, float] = {}
    for chunk in chunks:
        for item in chunk.split(","):
            item = item.strip()
            if not item:
                continue
            name, sep, value = item.partition("=")
            name = name.strip()
            if not sep:
                raise SyncstabError(
                    f"assignment must be NAME=VALUE, got {item!r} "
                    "(only active power can be assigned; sweep handles Q)",
                    code="ASSIGN_INVALID")
            if name not in spec.converter_names:
                raise SyncstabError(f"unknown converter {name!r}",
                                    code="UNKNOWN_CONVERTER")
            try:
                out[name] = float(value)
            except ValueError:
                raise SyncstabError(f"assignment value {value!r} is not a number",
                                    code="ASSIGN_INVALID") from None
            if not np.isfinite(out[name]):
                raise SyncstabError(f"assignment value {value!r} is not finite",
                                    code="ASSIGN_INVALID")
    return out


def _cmd_adjust(args, spec: SystemSpec, out: _Outputs) -> int:
    assignments = _parse_assignments(args.set, spec)
    net = build_reduced_network(spec)
    case, _steady, op = operating_point(spec, args.case, flat_voltage=args.flat_voltage)

    p_after = op.p_pu.copy()
    for name, value in assignments.items():
        p_after[spec.converter_names.index(name)] = value
    cmp = adjustment_compare(spec, net, op, p_after, force_first_pll=args.force_first_pll)
    before, after = cmp.before.critical, cmp.after.critical

    doc = KVWriter()
    doc.section("syncstab adjustment comparison")
    doc.field("config", args.config)
    doc.field("case", case)
    doc.field("assignments", ", ".join(f"{k}={g12(v)}" for k, v in assignments.items()))
    doc.field("d_net1_before", before.d_net1)
    doc.field("d_net1_after", after.d_net1)
    doc.field("f_c1_before_hz", before.f_c1)
    doc.field("f_c1_after_hz", after.f_c1)
    doc.field("margin_before", before.margin)
    doc.field("margin_after", after.margin)
    doc.field("verdict_before", cmp.before.verdict)
    doc.field("verdict_after", cmp.after.verdict)
    doc.field("positive_inertia_before", cmp.positive_inertia_before)
    doc.field("positive_inertia_after", cmp.positive_inertia_after)
    for i, name in enumerate(spec.converter_names):
        doc.field(f"delta_p_{name}", float(cmp.per_converter_delta_p[i]))
    doc.field("improvement", cmp.improvement)
    out.emit("adjust.txt", doc.write, echo=True)
    return _EXIT[cmp.after.verdict]


def _cmd_simulate(args, spec: SystemSpec, out: _Outputs) -> int:
    pulse = AnglePulse(start_s=args.pulse_start, width_s=args.pulse_width,
                       amplitude_rad=args.pulse_amplitude)
    net = build_reduced_network(spec)
    _case, _steady, op = operating_point(spec, args.case, flat_voltage=args.flat_voltage)
    ss = oracle_model(spec, net, op)
    modeset = modes(ss)
    sim = None
    if out.out_dir:                  # the time series goes to files only
        sim = simulate(ss, pulse, dt=spec.options.sim_dt_s,
                       duration=spec.options.sim_duration_s)

    if modeset.dominant is not None:
        d = modeset.dominant
        sys.stderr.write(
            f"syncstab: dominant mode sigma={g12(d.sigma)} 1/s, "
            f"f={g12(d.f_hz)} Hz, damping_ratio={g12(d.damping_ratio)}\n")
    else:
        sys.stderr.write(f"syncstab: {modeset.note}\n")

    out.emit("modes.csv", partial(write_modes_csv, modeset))
    if sim is not None:
        out.emit("timeseries.csv", partial(write_timeseries_csv, sim))
    return 0


class _Command(NamedTuple):
    handler: Callable[..., int]    # (args, spec, outputs) -> exit code
    help: str
    reads: tuple[str, ...]         # options read besides flat_voltage, in manifest order
    flags: dict[str, dict]         # the command's own flags and their argparse keywords


_COMMANDS = {
    "analyze": _Command(
        _cmd_analyze, "verdict, margin, weights, oracle cross-check",
        ("force_first_pll", "eta_complex", "scan_hz", "root_tol_hz"),
        {"--curves": dict(metavar="FILE", help="also write the scan curves CSV to FILE")}),
    "curves": _Command(
        _cmd_curves, "damping/spring curves as CSV", ("force_first_pll", "scan_hz"),
        {"--per-converter-gamma": dict(
            action="store_true", help="append per-converter converter-side diagnostics")}),
    "sweep": _Command(
        _cmd_sweep, "pipeline over a range of one converter's P or Q",
        ("force_first_pll", "scan_hz", "root_tol_hz"),
        {"--converter": dict(required=True, help="converter name to sweep"),
         "--quantity": dict(required=True, choices=("p", "q"), help="which injection to sweep"),
         "--range": dict(required=True, metavar="START:STOP:STEP",
                         help="swept values (inclusive of STOP within tolerance)")}),
    "sensitivity": _Command(
        _cmd_sensitivity, "per-converter weights as CSV",
        ("force_first_pll", "eta_complex", "scan_hz", "root_tol_hz"), {}),
    "adjust": _Command(
        _cmd_adjust, "before/after active-power comparison",
        ("force_first_pll", "scan_hz", "root_tol_hz"),
        {"--set": dict(required=True, action="append", metavar="NAME=P[,NAME=P...]",
                       help="new active-power values; repeatable or comma-separated")}),
    "simulate": _Command(
        _cmd_simulate, "oracle modes and disturbance response", ("sim",),
        {"--pulse-start": dict(type=float, default=AnglePulse.start_s, metavar="S",
                               help="disturbance onset time (default %(default)s s)"),
         "--pulse-width": dict(type=float, default=AnglePulse.width_s, metavar="S",
                               help="disturbance width (default %(default)s s)"),
         "--pulse-amplitude": dict(type=float, default=AnglePulse.amplitude_rad, metavar="RAD",
                                   help="slack-angle pulse height (default %(default)s rad)")}),
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:            # --help, --version
            raise
        return 1                     # usage error; argparse printed it to stderr
    started = time.monotonic()
    try:
        out = _Outputs(args.out)
        spec = load_system_spec(args.config)
        code = _COMMANDS[args.command].handler(args, spec, out)
        if args.dump_b:              # after the command, so a failed one writes no B
            out.emit("b_matrix.csv", partial(_b_matrix_csv, build_reduced_network(spec)))
        out.manifest(args, spec, started)
    except SyncstabError as exc:
        sys.stderr.write(f"syncstab: error [{exc.code}]: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"syncstab: error [IO]: {exc}\n")
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
