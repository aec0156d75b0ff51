"""Spans around syncstab's public functions, for the traced run.

:class:`Tracer` wraps every public function of each layer module and
``numpy.linalg.eig``.  Modules import functions by name (``cli`` holds its
own ``run_analysis``, ``modal`` its own ``trace_curves``), so each wrapper is
installed on every syncstab module that binds the function, not only on the
module that defines it.  ``install`` and ``uninstall`` swap the attributes,
which lets a run alternate traced and untraced operations.

Spans stay in memory as ``[layer, name, start, end, parent, info]`` lists;
``info`` carries counts read off the return value after the span closed.
:func:`write_spans` writes them out when the run ends.
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("config", "network", "powerflow", "frequency_response", "stability",
          "modal", "pipeline", "statespace", "textio", "cli")
# textio.g12 formats one CSV cell; a wrapper on it would cost more than it measures
UNWRAPPED = {"g12"}
EIG = ("numpy", "eig")

LAYER, NAME, START, END, PARENT, INFO = range(6)


def _info(name: str, args, result, before) -> dict | None:
    if name == "trace_curves":
        held = sum(v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray))
        return {"held": held, "jumps": len(result.branch_jumps)}
    if name == "assess":
        return {"crossings": sum(len(a.crossings) for a in result.per_subsystem)}
    if name == "solve_steady_state":
        return {"iterations": result.iterations}
    if name == "write_csv":
        return {"bytes": args[0].tell() - before}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"syncstab.{layer}")
            for name in getattr(mod, "__all__", ["main"]):
                fn = getattr(mod, name)
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and name not in UNWRAPPED):
                    wrappers[fn] = self._wrap(layer, name, fn)
        self._patches = [
            (mod, attr, value, wrappers[value])
            for modname, mod in list(sys.modules.items())
            if modname == "syncstab" or modname.startswith("syncstab.")
            for attr, value in vars(mod).items()
            if inspect.isfunction(value) and value in wrappers]
        eig = np.linalg.eig
        self._patches.append((np.linalg, "eig", eig, self._wrap(*EIG, eig)))

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(idx)
            before = args[0].tell() if name == "write_csv" else None
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            span[INFO] = _info(name, args, result, before)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for mod, attr, _orig, wrapped in self._patches:
            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, orig, _wrapped in self._patches:
            setattr(mod, attr, orig)


def write_spans(spans: list[list], path) -> None:
    """Write the spans as JSON lines: layer, name, start and duration in ms
    from the first span, parent line number, info.  eig spans are folded
    into their parent's info as ``eig_calls``/``eig_ms``, so that a scan of
    1200 points writes one line, not 1200."""
    origin = spans[0][START] if spans else 0.0
    lines: list[list] = []
    line_of: dict[int, int] = {}
    for idx, (layer, name, start, end, parent, extra) in enumerate(spans):
        dur = (end - start) * 1e3
        if (layer, name) == EIG and parent is not None:
            info = lines[line_of[parent]][5]
            info["eig_calls"] = info.get("eig_calls", 0) + 1
            info["eig_ms"] = info.get("eig_ms", 0.0) + dur
            continue
        line_of[idx] = len(lines)
        lines.append([layer, name, (start - origin) * 1e3, dur,
                      line_of.get(parent), dict(extra or {})])
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(line) + "\n" for line in lines)


def op_metrics(spans: list[list], first: int, op_s: float, points: int) -> dict[str, float]:
    """Per-layer figures for the spans ``spans[first:]`` of one operation."""
    ms = defaultdict(float)          # "layer.name" -> summed span time
    calls = defaultdict(int)
    self_ms = defaultdict(float)     # span time minus its direct children
    eig_calls = defaultdict(int)     # by the layer of the innermost open span
    eig_ms = defaultdict(float)
    info = defaultdict(float)
    roots = 0.0
    for idx in range(first, len(spans)):
        layer, name, start, end, parent, extra = spans[idx]
        dur = (end - start) * 1e3
        key = f"{layer}.{name}"
        if parent is None:
            roots += dur
        else:
            self_ms[f"{spans[parent][LAYER]}.{spans[parent][NAME]}"] -= dur
            if (layer, name) == EIG:
                eig_calls[spans[parent][LAYER]] += 1
                eig_ms[spans[parent][LAYER]] += dur
        ms[key] += dur
        calls[key] += 1
        self_ms[key] += dur
        for k, v in (extra or {}).items():
            ikey = f"{name}.{k}"
            # curves are held one at a time, so bytes held peak rather than add up
            info[ikey] = max(info[ikey], v) if k == "held" else info[ikey] + v
    return {
        "frequency_response.trace_ms": ms["frequency_response.trace_curves"],
        "frequency_response.eig_calls": eig_calls["frequency_response"],
        "frequency_response.eig_ms": eig_ms["frequency_response"],
        "frequency_response.self_ms": self_ms["frequency_response.trace_curves"],
        "frequency_response.held_mb": info["trace_curves.held"] / 1e6,
        "frequency_response.branch_jumps": info["trace_curves.jumps"],
        "stability.assess_ms": ms["stability.assess"],
        "stability.eig_calls": eig_calls["stability"],
        "stability.eig_ms": eig_ms["stability"],
        "stability.crossings": info["assess.crossings"],
        "modal.weights_ms": ms["modal.modal_weights"],
        "modal.adjust_ms": ms["modal.adjustment_compare"],
        "modal.fd_check_ms": ms["modal.finite_difference_check"],
        "pipeline.run_analysis_ms": ms["pipeline.run_analysis"],
        "pipeline.run_oracle_ms": ms["pipeline.run_oracle"],
        "pipeline.traces_per_point": calls["frequency_response.trace_curves"] / points,
        "powerflow.solve_ms": ms["powerflow.solve_steady_state"],
        "powerflow.iterations": info["solve_steady_state.iterations"],
        "network.reduce_ms": ms["network.build_reduced_network"],
        "config.parse_ms": ms["config.parse_system_spec"],
        "config.parse_calls": calls["config.parse_system_spec"],
        "statespace.assemble_ms": ms["statespace.assemble_state_space"],
        "statespace.modes_ms": ms["statespace.modes"],
        "statespace.simulate_ms": ms["statespace.simulate"],
        "textio.csv_ms": ms["textio.write_csv"],
        "textio.csv_bytes": info["write_csv.bytes"],
        "cli.main_ms": ms["cli.main"],
        "cli.self_ms": self_ms["cli.main"],
        "trace.coverage_pct": 100.0 * roots / (op_s * 1e3),
    }
