"""System description: dataclasses, text format, validation.

A study case is described in a small INI-like text format.  Sections appear in
any order; ``#`` starts a comment anywhere on a line; blank lines are ignored.

::

    [system]
    rated_frequency_hz = 50

    [nodes]
    pcc grid

    [branches]            # from  to  inductance_pu  (one row per branch)
    pcc grid 0.30

    [slack]
    grid

    [converters]          # name  node  pll_kp  pll_ki
    c1 pcc 6.5 15782

    [operating_point base]    # converter  p_pu  q_pu
    c1 0.5 0.0

    [options]
    flat_voltage = false
    scan_fmin_hz = 0.5

``[system]``, ``[nodes]``, ``[branches]``, ``[slack]`` and ``[converters]``
are required.  ``[operating_point NAME]`` may repeat with distinct names; if
none is given a single all-zero case called ``default`` is assumed, and
converters omitted from a block default to p = q = 0.  ``[options]`` keys all
have defaults (see :class:`AnalysisOptions`).

Parsing raises :class:`~syncstab.errors.ConfigSyntaxError` with a line number
for malformed text, and :class:`~syncstab.errors.SpecValidationError` carrying
coded :class:`~syncstab.errors.Violation` entries for a well-formed but
semantically broken system (unknown nodes, non-positive inductance,
disconnected graph, ...).  :func:`validate` can also be called directly on a
programmatically built :class:`SystemSpec`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigSyntaxError, SpecValidationError, SyncstabError, Violation

__all__ = [
    "Branch",
    "Converter",
    "PowerSetpoint",
    "AnalysisOptions",
    "SystemSpec",
    "parse_system_spec",
    "load_system_spec",
    "validate",
    "serialize",
]


def _real(values) -> np.ndarray | None:
    """``values`` as a float array; None unless they are real numbers (not
    complex, text, bool, objects or a ragged sequence)."""
    try:
        array = np.asarray(values)
    except ValueError:                   # a ragged sequence
        return None
    if array.dtype.kind not in "iuf":
        return None
    # NumPy reads [True, 0.5] as floats; a bool is refused there too
    if isinstance(values, (list, tuple)) and any(
            isinstance(v, (bool, np.bool_)) for v in np.asarray(values, dtype=object).flat):
        return None
    return array.astype(float, copy=False)


def _number(value) -> float | None:
    """``value`` as a float; None unless it is one real number (see :func:`_real`)."""
    array = _real(value)
    return None if array is None or array.ndim else float(array)


def _is_int(value) -> bool:
    """Whether ``value`` is an integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_bool(value) -> bool:
    """Whether ``value`` is a bool, Python's or NumPy's: the rule of every
    bool setting (``flat_voltage`` in :func:`validate` and at run time)."""
    return isinstance(value, (bool, np.bool_))


# --------------------------------------------------------------------------
# data model
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Branch:
    """One inductive tie between two nodes, value in per unit."""

    from_node: str
    to_node: str
    inductance_pu: float


@dataclass(frozen=True)
class Converter:
    """A grid-following converter: attachment node and PLL PI gains."""

    name: str
    node: str
    pll_kp: float      # proportional gain, rad/s per pu voltage
    pll_ki: float      # integral gain, rad/s^2 per pu voltage


@dataclass(frozen=True)
class PowerSetpoint:
    """Complex-power injection of one converter (positive = into the grid)."""

    p_pu: float
    q_pu: float


def _setpoint_ok(setpoint: PowerSetpoint) -> bool:
    """Whether both powers of ``setpoint`` are one real number each (not
    text, a bool or a sequence): the rule of :func:`validate` and of
    :meth:`SystemSpec.case_injections`."""
    return _number(setpoint.p_pu) is not None and _number(setpoint.q_pu) is not None


# Caps on what option text may make the program allocate.  The scan holds
# (n, scan_points) arrays and solves scan_points eigenproblems; the simulation
# holds a (steps + 1, 2n) array, 16·n MB at the cap.
MAX_SCAN_POINTS = 100_000        # the default is 1,200
MAX_SIM_STEPS = 1_000_000        # the default is 30,000 (3 s at 0.1 ms)
# the smallest branch inductance whose susceptance 1/L is a finite float
_L_MIN = 1.0 / np.finfo(float).max


def _scan_points_ok(points) -> bool:
    """Whether ``points`` is an integer in 2..``MAX_SCAN_POINTS`` (not a
    float or a bool): the rule of :func:`validate` and of the scan."""
    return _is_int(points) and 2 <= points <= MAX_SCAN_POINTS


def _inductance_ok(value) -> bool:
    """Whether ``value`` is one real number with a finite, positive inverse:
    the rule of :func:`validate` and of the Laplacian's assembly."""
    inductance = _number(value)
    return inductance is not None and _L_MIN < inductance < math.inf


@dataclass(frozen=True)
class AnalysisOptions:
    """Tunables with safe defaults; all overridable from ``[options]``."""

    flat_voltage: bool = False      # skip the power flow, take U = 1, delta = 0
    scan_fmin_hz: float = 0.5
    scan_fmax_hz: float = 60.0
    scan_points: int = 1200
    root_tol_hz: float = 1e-4       # final bracket width of a refined crossing
    sim_dt_s: float = 1e-4
    sim_duration_s: float = 3.0


@dataclass(frozen=True)
class SystemSpec:
    """Validated description of one multi-converter system.

    ``operating_points`` maps case name to a complete per-converter setpoint
    map (parsing normalizes omitted converters to zero injection, so every
    case covers every converter).
    """

    rated_frequency_hz: float
    nodes: tuple[str, ...]
    branches: tuple[Branch, ...]
    slack_node: str
    converters: tuple[Converter, ...]
    operating_points: dict[str, dict[str, PowerSetpoint]] = field(default_factory=dict)
    options: AnalysisOptions = AnalysisOptions()

    # -- convenience views ------------------------------------------------

    @property
    def omega0(self) -> float:
        """Rated angular frequency in rad/s."""
        return 2.0 * math.pi * self.rated_frequency_hz

    @property
    def n_converters(self) -> int:
        return len(self.converters)

    @property
    def converter_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.converters)

    @property
    def case_names(self) -> tuple[str, ...]:
        return tuple(self.operating_points)

    def default_case(self) -> str:
        """First declared case name (declaration order is preserved); raises
        ``SyncstabError`` (UNKNOWN_CASE) when there is none."""
        if not self.operating_points:
            raise SyncstabError("system has no operating-point cases", code="UNKNOWN_CASE")
        return next(iter(self.operating_points))

    def case_injections(self, case: str | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(P, Q) arrays in converter order for ``case`` (default: first).

        Raises ``SyncstabError`` (UNKNOWN_CASE) for a case that is not
        declared, (CASE_INCOMPLETE) for one that lacks a converter, and
        (OP_INVALID) for a setpoint that is not a real number; a spec built
        in code can do the last two.
        """
        name = self.default_case() if case is None else case
        try:
            block = self.operating_points[name]
        except KeyError:
            known = ", ".join(self.operating_points) or "<none>"
            raise SyncstabError(f"unknown operating point {name!r} (have: {known})",
                                code="UNKNOWN_CASE") from None
        missing = [c.name for c in self.converters if c.name not in block]
        if missing:
            raise SyncstabError(f"operating point {name!r} has no setpoint for "
                                f"{', '.join(missing)}", code="CASE_INCOMPLETE")
        setpoints = [block[c.name] for c in self.converters]
        if not all(map(_setpoint_ok, setpoints)):
            raise SyncstabError(f"operating point {name!r} has a setpoint that is not "
                                f"a real number", code="OP_INVALID")
        return (np.array([s.p_pu for s in setpoints], dtype=float),
                np.array([s.q_pu for s in setpoints], dtype=float))

    def with_case(self, name: str, setpoints: dict[str, PowerSetpoint]) -> "SystemSpec":
        """Copy of this spec with one case added/replaced (normalized)."""
        block = {c.name: setpoints.get(c.name, PowerSetpoint(0.0, 0.0)) for c in self.converters}
        cases = dict(self.operating_points)
        cases[name] = block
        return replace(self, operating_points=cases)


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

_KNOWN_SECTIONS = {"system", "nodes", "branches", "slack", "converters", "operating_point", "options"}

# [options] keys and their value types are read off the dataclass
_OPTION_KEYS = {f.name: type(f.default) for f in fields(AnalysisOptions)}

_Rows = list[tuple[int, list[str]]]


def _parse_value(token: str, what: str, lineno: int, kind: type = float):
    """One ``kind`` value (bool, int or float); numbers must be finite."""
    if kind is bool:
        low = token.lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        raise ConfigSyntaxError(f"{what}: {token!r} is not a boolean", line=lineno)
    try:
        value = float(token)
    except ValueError:
        raise ConfigSyntaxError(f"{what}: {token!r} is not a number", line=lineno) from None
    if not math.isfinite(value):
        raise ConfigSyntaxError(f"{what}: {token!r} is not finite", line=lineno)
    if kind is int:
        if value != int(value):
            raise ConfigSyntaxError(f"{what}: {token!r} is not an integer", line=lineno)
        return int(value)
    return value


def _read_keys(rows: _Rows, section: str, kinds: dict[str, type]) -> dict[str, object]:
    """``key = value`` rows of ``[section]``, each value parsed as ``kinds[key]``."""
    values: dict[str, object] = {}
    for lineno, tokens in rows:
        key, sep, value = (part.strip() for part in " ".join(tokens).partition("="))
        if not sep:
            raise ConfigSyntaxError("expected key = value", line=lineno)
        if key not in kinds:
            raise ConfigSyntaxError(f"unknown [{section}] key {key!r}", line=lineno)
        values[key] = _parse_value(value, key, lineno, kinds[key])
    return values


def _fixed_rows(rows: _Rows, what: str, cls: type, lead: tuple[str, ...] = ()):
    """Yield (lineno, tokens) for rows with one token per column: ``lead``, then
    the fields of ``cls``; the usage text names the columns."""
    columns = (*lead, *(f.name for f in fields(cls)))
    for lineno, tokens in rows:
        if len(tokens) != len(columns):
            raise ConfigSyntaxError(f"{what} row must be: {' '.join(columns)}", line=lineno)
        yield lineno, tokens


def _record(cls: type, tokens: list[str], lineno: int):
    """``cls`` from one row's tokens; fields annotated ``float`` are parsed
    (annotations are strings under ``from __future__ import annotations``)."""
    return cls(*(_parse_value(token, f.name, lineno) if f.type == "float" else token
                 for f, token in zip(fields(cls), tokens)))


def parse_system_spec(text: str) -> SystemSpec:
    """Parse config text into a validated :class:`SystemSpec`.

    Raises
    ------
    ConfigSyntaxError
        On malformed text; the message carries the 1-based line number.
    SpecValidationError
        When the text parses but describes an inconsistent system.
    """
    # sections[name] -> list of (lineno, tokens); operating points keyed separately
    sections: dict[str, _Rows] = {}
    op_blocks: dict[str, _Rows] = {}
    current: _Rows | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigSyntaxError("unterminated section header", line=lineno)
            header = line[1:-1].split()
            if not header:
                raise ConfigSyntaxError("empty section header", line=lineno)
            name = header[0]
            if name not in _KNOWN_SECTIONS:
                raise ConfigSyntaxError(f"unknown section [{name}]", line=lineno)
            if name == "operating_point":
                if len(header) != 2:
                    raise ConfigSyntaxError(
                        "[operating_point] needs exactly one case name", line=lineno)
                case = header[1]
                if case in op_blocks:
                    raise ConfigSyntaxError(
                        f"duplicate operating point {case!r}", line=lineno)
                current = op_blocks.setdefault(case, [])
            else:
                if len(header) != 1:
                    raise ConfigSyntaxError(f"section [{name}] takes no argument", line=lineno)
                if name in sections:
                    raise ConfigSyntaxError(f"duplicate section [{name}]", line=lineno)
                current = sections.setdefault(name, [])
            continue
        if current is None:
            raise ConfigSyntaxError("content before any section header", line=lineno)
        current.append((lineno, line.split()))

    for required in ("system", "nodes", "branches", "slack", "converters"):
        if required not in sections:
            raise ConfigSyntaxError(f"missing required section [{required}]")

    # -- [system] ---------------------------------------------------------
    system = _read_keys(sections["system"], "system", {"rated_frequency_hz": float})
    if "rated_frequency_hz" not in system:
        raise ConfigSyntaxError("[system] must set rated_frequency_hz")

    # -- [nodes] ----------------------------------------------------------
    nodes = [node for _lineno, tokens in sections["nodes"] for node in tokens]

    # -- [branches] -------------------------------------------------------
    branches = [_record(Branch, tokens, lineno)
                for lineno, tokens in _fixed_rows(sections["branches"], "branch", Branch)]

    # -- [slack] ----------------------------------------------------------
    slack_rows = sections["slack"]
    if len(slack_rows) != 1 or len(slack_rows[0][1]) != 1:
        lineno = slack_rows[0][0] if slack_rows else None
        raise ConfigSyntaxError("[slack] must contain exactly one node name", line=lineno)
    slack = slack_rows[0][1][0]

    # -- [converters] -----------------------------------------------------
    converters = [_record(Converter, tokens, lineno)
                  for lineno, tokens in _fixed_rows(sections["converters"], "converter",
                                                    Converter)]

    # -- [operating_point ...] ---------------------------------------------
    operating_points: dict[str, dict[str, PowerSetpoint]] = {}
    declared = {c.name for c in converters}
    pending: list[Violation] = []
    # no block declared: one all-zero case called "default"
    for case, rows in (op_blocks or {"default": []}).items():
        block: dict[str, PowerSetpoint] = {}
        for lineno, tokens in _fixed_rows(rows, "operating point", PowerSetpoint,
                                          ("converter",)):
            name = tokens[0]
            if name not in declared:
                pending.append(Violation(
                    "OP_UNKNOWN_CONVERTER",
                    f"case {case!r} sets power for undeclared converter {name!r}"))
                continue
            block[name] = _record(PowerSetpoint, tokens[1:], lineno)
        # normalize: every converter present
        operating_points[case] = {
            c.name: block.get(c.name, PowerSetpoint(0.0, 0.0)) for c in converters}

    # -- [options] ----------------------------------------------------------
    overrides = _read_keys(sections.get("options", []), "options", _OPTION_KEYS)

    spec = SystemSpec(
        rated_frequency_hz=system["rated_frequency_hz"],
        nodes=tuple(nodes),
        branches=tuple(branches),
        slack_node=slack,
        converters=tuple(converters),
        operating_points=operating_points,
        options=AnalysisOptions(**overrides),
    )
    violations = pending + validate(spec)
    if violations:
        raise SpecValidationError(violations)
    return spec


def load_system_spec(path: str) -> SystemSpec:
    """Read and parse a config file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_system_spec(handle.read())


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

def _positive(value) -> bool:
    """Whether ``value`` is a real number > 0 (not text or a bool)."""
    number = _number(value)
    return number is not None and number > 0


def validate(spec: SystemSpec) -> list[Violation]:
    """Collect every semantic problem with ``spec`` (empty list = valid).

    A field that is not a real number (text or a bool, in a spec built in
    code) is a violation of its range check, not a ``TypeError``.  Each
    rule that a run also checks is the run's own, with its code: the
    inductance, ``scan_points``, ``flat_voltage`` and each case's setpoints
    (OP_INVALID, as :meth:`SystemSpec.case_injections` gives it), so a spec
    that passes is not refused by those checks later.
    """
    out: list[Violation] = []
    node_set = set(spec.nodes)

    if len(node_set) != len(spec.nodes):
        dupes = sorted({n for n in spec.nodes if spec.nodes.count(n) > 1})
        out.append(Violation("NODE_DUPLICATE", f"node(s) declared twice: {', '.join(dupes)}"))

    if not _positive(spec.rated_frequency_hz):
        out.append(Violation("RATED_FREQ_NONPOSITIVE",
                             f"rated_frequency_hz must be > 0, got {spec.rated_frequency_hz}"))

    for b in spec.branches:
        if b.from_node not in node_set or b.to_node not in node_set:
            out.append(Violation("BRANCH_UNKNOWN_NODE",
                                 f"branch {b.from_node}-{b.to_node} references an undeclared node"))
        if b.from_node == b.to_node:
            out.append(Violation("BRANCH_SELF_LOOP",
                                 f"branch {b.from_node}-{b.to_node} is a self loop"))
        if not _inductance_ok(b.inductance_pu):
            out.append(Violation("BRANCH_NONPOSITIVE_L",
                                 f"branch {b.from_node}-{b.to_node} has inductance "
                                 f"{b.inductance_pu} (need a real number with a finite, "
                                 f"positive inverse)"))

    if spec.slack_node not in node_set:
        out.append(Violation("SLACK_UNKNOWN", f"slack node {spec.slack_node!r} is not declared"))

    names = [c.name for c in spec.converters]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        out.append(Violation("CONVERTER_NAME_DUPLICATE",
                             f"converter name(s) used twice: {', '.join(dupes)}"))
    if not spec.converters:
        out.append(Violation("NO_CONVERTERS", "at least one converter is required"))

    used_nodes: dict[str, str] = {}
    for c in spec.converters:
        if c.node not in node_set:
            out.append(Violation("CONVERTER_UNKNOWN_NODE",
                                 f"converter {c.name!r} sits on undeclared node {c.node!r}"))
            continue
        if c.node == spec.slack_node:
            out.append(Violation("CONVERTER_ON_SLACK",
                                 f"converter {c.name!r} may not sit on the slack node"))
        if c.node in used_nodes:
            out.append(Violation("CONVERTER_NODE_SHARED",
                                 f"converters {used_nodes[c.node]!r} and {c.name!r} share "
                                 f"node {c.node!r}"))
        used_nodes.setdefault(c.node, c.name)
        if not _positive(c.pll_kp) or not _positive(c.pll_ki):
            out.append(Violation("PLL_GAIN_NONPOSITIVE",
                                 f"converter {c.name!r} has non-positive PLL gain(s) "
                                 f"kp={c.pll_kp}, ki={c.pll_ki}"))

    # connectivity: every declared node must reach the slack through branches
    if spec.slack_node in node_set:
        adjacency: dict[str, list[str]] = {n: [] for n in node_set}
        for b in spec.branches:
            if b.from_node in node_set and b.to_node in node_set:
                adjacency[b.from_node].append(b.to_node)
                adjacency[b.to_node].append(b.from_node)
        reached, stack = {spec.slack_node}, [spec.slack_node]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in reached:
                    reached.add(nxt)
                    stack.append(nxt)
        stranded = sorted(node_set - reached)
        if stranded:
            out.append(Violation("GRAPH_DISCONNECTED",
                                 f"node(s) not connected to the slack: {', '.join(stranded)}"))

    for case, block in spec.operating_points.items():
        if not all(_setpoint_ok(block[c.name]) for c in spec.converters if c.name in block):
            out.append(Violation("OP_INVALID", f"case {case!r} has a setpoint that is not "
                                               f"a real number"))

    opt = spec.options
    fmin, fmax = _number(opt.scan_fmin_hz), _number(opt.scan_fmax_hz)
    if fmin is None or fmax is None or not 0 < fmin < fmax:
        out.append(Violation("SCAN_RANGE_INVALID",
                             f"need 0 < scan_fmin_hz < scan_fmax_hz, got "
                             f"[{opt.scan_fmin_hz}, {opt.scan_fmax_hz}]"))
    if not _scan_points_ok(opt.scan_points):
        out.append(Violation("SCAN_POINTS_INVALID", f"scan_points must be an integer in "
                             f"2..{MAX_SCAN_POINTS}, got {opt.scan_points!r}"))
    if not _is_bool(opt.flat_voltage):
        out.append(Violation("FLAT_VOLTAGE_INVALID",
                             f"flat_voltage must be a bool, got {opt.flat_voltage!r}"))
    if not _positive(opt.root_tol_hz):
        out.append(Violation("ROOT_TOL_INVALID",
                             f"root_tol_hz must be > 0, got {opt.root_tol_hz}"))
    dt, duration = _number(opt.sim_dt_s), _number(opt.sim_duration_s)
    if dt is None or duration is None or not 0 < dt < duration:
        out.append(Violation("SIM_PARAMS_INVALID",
                             f"need 0 < sim_dt_s < sim_duration_s, got "
                             f"dt={opt.sim_dt_s}, duration={opt.sim_duration_s}"))
    elif duration / dt > MAX_SIM_STEPS:
        out.append(Violation("SIM_PARAMS_INVALID",
                             f"sim_duration_s/sim_dt_s may not exceed {MAX_SIM_STEPS} "
                             f"steps, got dt={opt.sim_dt_s}, duration={opt.sim_duration_s}"))

    return out


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def _render(value) -> str:
    """One config token: names as they are, booleans as ``true``/``false``,
    integers as integers and every other number as ``repr(float(value))``, so
    NumPy scalars read back like Python floats."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _row(record, *lead: str) -> str:
    """One row of ``[branches]``, ``[converters]`` or an operating point:
    ``lead``, then the fields of ``record``, as the parser reads them."""
    return " ".join((*lead, *(_render(getattr(record, f.name)) for f in fields(record))))


def serialize(spec: SystemSpec) -> str:
    """Render ``spec`` back to config text; round-trips through the parser."""
    out = ["[system]", f"rated_frequency_hz = {_render(spec.rated_frequency_hz)}", ""]

    out.append("[nodes]")
    out.append(" ".join(spec.nodes))
    out.append("")

    out.append("[branches]")
    out.extend(_row(b) for b in spec.branches)
    out.append("")

    out.append("[slack]")
    out.append(spec.slack_node)
    out.append("")

    out.append("[converters]")
    out.extend(_row(c) for c in spec.converters)
    out.append("")

    for case, block in spec.operating_points.items():
        out.append(f"[operating_point {case}]")
        out.extend(_row(block[c.name], c.name) for c in spec.converters)
        out.append("")

    opt, defaults = spec.options, AnalysisOptions()
    lines = [f"{key} = {_render(getattr(opt, key))}" for key in _OPTION_KEYS
             if getattr(opt, key) != getattr(defaults, key)]
    if lines:
        out.append("[options]")
        out.extend(lines)
        out.append("")

    return "\n".join(out)
