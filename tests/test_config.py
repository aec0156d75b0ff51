"""Config grammar: parsing, validation codes, round-tripping."""
from __future__ import annotations

import math
import os
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncstab.config import (MAX_SCAN_POINTS, MAX_SIM_STEPS, AnalysisOptions,
                             PowerSetpoint, load_system_spec, parse_system_spec, serialize,
                             validate)
from syncstab.errors import (ConfigSyntaxError, SpecValidationError,
                             SyncstabError)
from syncstab.pipeline import run_analysis

from conftest import STATION_CFG_PATH, TWO_BUS_CFG


def test_two_bus_parses():
    spec = parse_system_spec(TWO_BUS_CFG)
    assert spec.rated_frequency_hz == 50
    assert spec.nodes == ("bus1", "grid")
    assert spec.slack_node == "grid"
    assert spec.converter_names == ("C1",)
    assert spec.case_names == ("inject", "absorb")
    assert spec.converters[0].pll_kp == 6.5
    assert spec.converters[0].pll_ki == 15782
    assert math.isclose(spec.omega0, 2 * math.pi * 50)


def test_case_injections_and_default_case():
    spec = parse_system_spec(TWO_BUS_CFG)
    p, q = spec.case_injections("inject")
    assert p.tolist() == [0.5] and q.tolist() == [0.0]
    assert spec.default_case() == "inject"


def test_missing_operating_point_gives_zero_default():
    text = TWO_BUS_CFG.split("[operating_point inject]")[0]
    spec = parse_system_spec(text)
    assert spec.case_names == ("default",)
    p, q = spec.case_injections("default")
    assert p.tolist() == [0.0] and q.tolist() == [0.0]


def test_unknown_case_rejected():
    spec = parse_system_spec(TWO_BUS_CFG)
    with pytest.raises(SyncstabError) as exc_info:
        spec.case_injections("nope")
    assert exc_info.value.code == "UNKNOWN_CASE"
    assert "inject" in str(exc_info.value)  # lists the known cases


# a spec built in code need not hold the cases the parser always gives it
def test_a_spec_without_cases_is_unknown_case():
    spec = replace(parse_system_spec(TWO_BUS_CFG), operating_points={})
    for call in (spec.default_case, spec.case_injections, lambda: run_analysis(spec)):
        with pytest.raises(SyncstabError) as exc_info:
            call()
        assert exc_info.value.code == "UNKNOWN_CASE"


def test_a_case_that_lacks_a_converter_is_case_incomplete():
    spec = load_system_spec(STATION_CFG_PATH)
    block = dict(spec.operating_points["heavy"])
    del block["ES1"]
    spec = replace(spec, operating_points={"heavy": block})
    for call in (spec.case_injections, lambda: run_analysis(spec, "heavy")):
        with pytest.raises(SyncstabError) as exc_info:
            call()
        assert exc_info.value.code == "CASE_INCOMPLETE"
        assert "ES1" in str(exc_info.value)


@pytest.mark.parametrize("setpoint", [PowerSetpoint("a", 0.0), PowerSetpoint("0.5", 0.0),
                                      PowerSetpoint(True, 0.0), PowerSetpoint(0.5, 1j),
                                      PowerSetpoint(0.5, None)],
                         ids=["text", "numeric-text", "bool", "complex", "none"])
@pytest.mark.parametrize("path", [None, STATION_CFG_PATH], ids=["two_bus", "station"])
def test_a_setpoint_that_is_not_a_real_number_is_op_invalid(path, setpoint):
    spec = load_system_spec(path) if path else parse_system_spec(TWO_BUS_CFG)
    spec = spec.with_case("x", {spec.converter_names[-1]: setpoint})
    for call in (lambda: spec.case_injections("x"), lambda: run_analysis(spec, "x")):
        with pytest.raises(SyncstabError) as exc_info:
            call()
        assert exc_info.value.code == "OP_INVALID"


def test_omitted_converter_in_case_defaults_to_zero():
    text = TWO_BUS_CFG.replace(
        "C1 bus1 6.5 15782",
        "C1 bus1 6.5 15782\nC2 bus2 6.5 15782").replace(
        "[nodes]\nbus1\ngrid", "[nodes]\nbus1\nbus2\ngrid").replace(
        "[branches]\nbus1 grid 0.3", "[branches]\nbus1 grid 0.3\nbus2 grid 0.4")
    spec = parse_system_spec(text)
    p, q = spec.case_injections("inject")
    assert p.tolist() == [0.5, 0.0]
    assert q.tolist() == [0.0, 0.0]


def test_options_defaults():
    spec = parse_system_spec(TWO_BUS_CFG)
    assert spec.options == AnalysisOptions()
    assert spec.options.scan_fmin_hz == 0.5
    assert spec.options.scan_fmax_hz == 60.0
    assert spec.options.scan_points == 1200
    assert spec.options.root_tol_hz == 1e-4
    assert spec.options.flat_voltage is False


def test_options_parse_and_bool():
    text = TWO_BUS_CFG + "\n[options]\nflat_voltage = true\nscan_points = 700\n"
    spec = parse_system_spec(text)
    assert spec.options.flat_voltage is True
    assert spec.options.scan_points == 700


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\n" + TWO_BUS_CFG.replace(
        "[slack]", "# about the slack\n[slack]")
    spec = parse_system_spec(text)
    assert spec.slack_node == "grid"


# --- syntax errors carry line numbers ---------------------------------------

@pytest.mark.parametrize("old, new", [
    ("rated_frequency_hz = 50", "rated_frequency_hz 50"),   # missing '='
    ("rated_frequency_hz = 50", "rated_frequency_hz = ha"), # non-numeric value
    ("bus1 grid 0.3", "bus1 grid"),                         # missing inductance
    ("bus1 grid 0.3", "bus1 grid abc"),                     # non-numeric
    ("C1 bus1 6.5 15782", "C1 bus1 6.5"),                   # missing gain
])
def test_syntax_errors_carry_line_numbers(old, new):
    text = TWO_BUS_CFG.replace(old, new)
    bad_line = 1 + text.splitlines().index(new.splitlines()[0])
    with pytest.raises(ConfigSyntaxError) as exc:
        parse_system_spec(text)
    assert exc.value.code == "CONFIG_SYNTAX"
    assert f"line {bad_line}" in str(exc.value)


@pytest.mark.parametrize("mutation", [
    "stray tokens before any section\n" + TWO_BUS_CFG,
    TWO_BUS_CFG + "\n[unknown_section]\nfoo\n",
])
def test_structural_syntax_errors(mutation):
    with pytest.raises(ConfigSyntaxError) as exc:
        parse_system_spec(mutation)
    assert exc.value.code == "CONFIG_SYNTAX"
    assert "line" in str(exc.value)


def test_missing_required_section():
    with pytest.raises(ConfigSyntaxError):
        parse_system_spec("[system]\nrated_frequency_hz = 50\n")


# --- validation codes --------------------------------------------------------

def _mutated(old: str, new: str) -> str:
    assert old in TWO_BUS_CFG
    return TWO_BUS_CFG.replace(old, new)


@pytest.mark.parametrize("old, new, code", [
    ("bus1\ngrid", "bus1\nbus1\ngrid", "NODE_DUPLICATE"),
    ("rated_frequency_hz = 50", "rated_frequency_hz = 0", "RATED_FREQ_NONPOSITIVE"),
    ("bus1 grid 0.3", "bus1 ghost 0.3", "BRANCH_UNKNOWN_NODE"),
    ("bus1 grid 0.3", "bus1 bus1 0.3", "BRANCH_SELF_LOOP"),
    ("bus1 grid 0.3", "bus1 grid -0.3", "BRANCH_NONPOSITIVE_L"),
    ("[slack]\ngrid", "[slack]\nghost", "SLACK_UNKNOWN"),
    ("C1 bus1 6.5 15782", "C1 ghost 6.5 15782", "CONVERTER_UNKNOWN_NODE"),
    ("C1 bus1 6.5 15782", "C1 grid 6.5 15782", "CONVERTER_ON_SLACK"),
    ("C1 bus1 6.5 15782", "C1 bus1 -6.5 15782", "PLL_GAIN_NONPOSITIVE"),
    ("C1 bus1 6.5 15782", "C1 bus1 6.5 0", "PLL_GAIN_NONPOSITIVE"),
])
def test_validation_codes(old, new, code):
    with pytest.raises(SpecValidationError) as exc:
        parse_system_spec(_mutated(old, new))
    assert code in {v.code for v in exc.value.violations}


def test_duplicate_converter_name():
    text = _mutated("C1 bus1 6.5 15782", "C1 bus1 6.5 15782\nC1 bus1 6.5 15782")
    with pytest.raises(SpecValidationError) as exc:
        parse_system_spec(text)
    codes = {v.code for v in exc.value.violations}
    assert "CONVERTER_NAME_DUPLICATE" in codes


def test_no_converters():
    text = _mutated("C1 bus1 6.5 15782", "# none")
    with pytest.raises(SpecValidationError) as exc:
        parse_system_spec(text)
    assert "NO_CONVERTERS" in {v.code for v in exc.value.violations}


def test_disconnected_graph():
    text = TWO_BUS_CFG.replace("[nodes]\nbus1\ngrid",
                               "[nodes]\nbus1\ngrid\nisland")
    with pytest.raises(SpecValidationError) as exc:
        parse_system_spec(text)
    assert "GRAPH_DISCONNECTED" in {v.code for v in exc.value.violations}


def test_converter_node_shared():
    text = _mutated("C1 bus1 6.5 15782",
                    "C1 bus1 6.5 15782\nC2 bus1 6.5 15782")
    with pytest.raises(SpecValidationError) as exc:
        parse_system_spec(text)
    assert "CONVERTER_NODE_SHARED" in {v.code for v in exc.value.violations}


def test_operating_point_unknown_converter():
    text = TWO_BUS_CFG.replace("[operating_point inject]\nC1 0.5 0.0",
                               "[operating_point inject]\nC1 0.5 0.0\nCX 1 0")
    with pytest.raises(SpecValidationError) as exc:
        parse_system_spec(text)
    assert "OP_UNKNOWN_CONVERTER" in {v.code for v in exc.value.violations}


@pytest.mark.parametrize("opts, code", [
    ("scan_fmin_hz = 10\nscan_fmax_hz = 5", "SCAN_RANGE_INVALID"),
    ("scan_fmin_hz = 0", "SCAN_RANGE_INVALID"),
    ("scan_points = 1", "SCAN_POINTS_INVALID"),
    ("root_tol_hz = 0", "ROOT_TOL_INVALID"),
    ("sim_dt_s = 0", "SIM_PARAMS_INVALID"),
    ("sim_duration_s = -1", "SIM_PARAMS_INVALID"),
    ("scan_points = 1000000000", "SCAN_POINTS_INVALID"),
    ("sim_dt_s = 1e-9", "SIM_PARAMS_INVALID"),
    ("sim_dt_s = 0.25\nsim_duration_s = 250000.25", "SIM_PARAMS_INVALID"),
    ("sim_dt_s = 5e-324\nsim_duration_s = 1e300", "SIM_PARAMS_INVALID"),
])
def test_option_validation(opts, code):
    with pytest.raises(SpecValidationError) as exc:
        parse_system_spec(TWO_BUS_CFG + "\n[options]\n" + opts + "\n")
    assert code in {v.code for v in exc.value.violations}


def test_the_caps_themselves_are_accepted():
    spec = parse_system_spec(TWO_BUS_CFG + "\n[options]\nscan_points = 100000\n"
                             "sim_dt_s = 0.25\nsim_duration_s = 250000\n")
    assert spec.options.scan_points == MAX_SCAN_POINTS
    assert spec.options.sim_duration_s / spec.options.sim_dt_s == MAX_SIM_STEPS


# --- round trip --------------------------------------------------------------

def test_serialize_round_trip_two_bus():
    spec = parse_system_spec(TWO_BUS_CFG)
    again = parse_system_spec(serialize(spec))
    assert again == spec


_name = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,7}", fullmatch=True)
_lval = st.floats(min_value=1e-3, max_value=10.0,
                  allow_nan=False, allow_infinity=False)
_pq = st.floats(min_value=-2.0, max_value=2.0,
                allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_serialize_round_trip_random_star(data):
    # star of k converter nodes around one slack; unique names by suffix
    k = data.draw(st.integers(min_value=1, max_value=5))
    raw = data.draw(st.lists(_name, min_size=k + 1, max_size=k + 1))
    names = [f"{n}_{i}" for i, n in enumerate(raw)]
    slack, conv_nodes = names[0], names[1:]
    lvals = data.draw(st.lists(_lval, min_size=k, max_size=k))
    setpts = data.draw(st.lists(st.tuples(_pq, _pq), min_size=k, max_size=k))
    lines = ["[system]", "rated_frequency_hz = 50", "", "[nodes]", slack]
    lines += conv_nodes
    lines += ["", "[branches]"]
    lines += [f"{node} {slack} {l!r}" for node, l in zip(conv_nodes, lvals)]
    lines += ["", "[slack]", slack, "", "[converters]"]
    lines += [f"CV{i} {node} 6.5 15782" for i, node in enumerate(conv_nodes)]
    lines += ["", "[operating_point a]"]
    lines += [f"CV{i} {p!r} {q!r}" for i, (p, q) in enumerate(setpts)]
    spec = parse_system_spec("\n".join(lines) + "\n")
    again = parse_system_spec(serialize(spec))
    assert again == spec


def test_validate_returns_empty_for_good_spec():
    spec = parse_system_spec(TWO_BUS_CFG)
    assert validate(spec) == []


def _branch(spec, **change):
    return replace(spec, branches=(replace(spec.branches[0], **change), *spec.branches[1:]))


def _converter(spec, **change):
    return replace(spec, converters=(replace(spec.converters[0], **change),
                                     *spec.converters[1:]))


def _options(spec, **change):
    return replace(spec, options=replace(spec.options, **change))


@pytest.mark.parametrize("change, code", [
    (lambda s: replace(s, rated_frequency_hz="a"), "RATED_FREQ_NONPOSITIVE"),
    (lambda s: replace(s, rated_frequency_hz=True), "RATED_FREQ_NONPOSITIVE"),
    (lambda s: _branch(s, inductance_pu="a"), "BRANCH_NONPOSITIVE_L"),
    (lambda s: _branch(s, inductance_pu=None), "BRANCH_NONPOSITIVE_L"),
    (lambda s: _converter(s, pll_kp="6.5"), "PLL_GAIN_NONPOSITIVE"),
    (lambda s: _options(s, scan_fmin_hz="1"), "SCAN_RANGE_INVALID"),
    (lambda s: _options(s, scan_points="1200"), "SCAN_POINTS_INVALID"),
    (lambda s: _options(s, root_tol_hz="a"), "ROOT_TOL_INVALID"),
    (lambda s: _options(s, root_tol_hz=True), "ROOT_TOL_INVALID"),
    (lambda s: _options(s, sim_dt_s="1e-4"), "SIM_PARAMS_INVALID"),
], ids=["rated-text", "rated-bool", "inductance-text", "inductance-none", "kp-text",
        "fmin-text", "points-text", "tol-text", "tol-bool", "dt-text"])
def test_validate_turns_a_field_that_is_not_a_number_into_a_violation(change, code):
    # a spec built in code may hold any value; validate reports it, not TypeError
    assert [v.code for v in validate(change(parse_system_spec(TWO_BUS_CFG)))] == [code]


# --- grammar: exact messages --------------------------------------------------

def _syntax_error(text: str) -> ConfigSyntaxError:
    with pytest.raises(ConfigSyntaxError) as exc:
        parse_system_spec(text)
    assert exc.value.code == "CONFIG_SYNTAX"
    return exc.value


@pytest.mark.parametrize("old, new, message", [
    ("rated_frequency_hz = 50", "base_mva = 100",
     "unknown [system] key 'base_mva'"),
    ("[slack]\ngrid", "[slack]\ngrid bus1",
     "[slack] must contain exactly one node name"),
    ("bus1 grid 0.3", "bus1 grid",
     "branch row must be: from_node to_node inductance_pu"),
    ("C1 bus1 6.5 15782", "C1 bus1 6.5",
     "converter row must be: name node pll_kp pll_ki"),
    ("C1 0.5 0.0", "C1 0.5",
     "operating point row must be: converter p_pu q_pu"),
], ids=["system-key", "slack-two-names", "short-branch", "short-converter",
        "short-operating-point"])
def test_grammar_messages(old, new, message):
    text = _mutated(old, new)
    line = 1 + text.splitlines().index(new.splitlines()[-1])
    err = _syntax_error(text)
    assert err.line == line
    assert str(err) == f"line {line}: {message}"


@pytest.mark.parametrize("option, message", [
    ("scan_fmax = 40", "unknown [options] key 'scan_fmax'"),
    ("flat_voltage = maybe", "flat_voltage: 'maybe' is not a boolean"),
    ("scan_points = 300.5", "scan_points: '300.5' is not an integer"),
], ids=["options-key", "bool", "int"])
def test_option_grammar_messages(option, message):
    text = TWO_BUS_CFG + "\n[options]\n" + option + "\n"
    line = len(text.splitlines())
    err = _syntax_error(text)
    assert err.line == line
    assert str(err) == f"line {line}: {message}"


def test_system_without_rated_frequency():
    err = _syntax_error(_mutated("rated_frequency_hz = 50", ""))
    assert err.line is None
    assert str(err) == "[system] must set rated_frequency_hz"


def test_serialize_round_trip_every_option():
    options = AnalysisOptions(flat_voltage=True, scan_fmin_hz=0.75,
                              scan_fmax_hz=59.5, scan_points=701,
                              root_tol_hz=2.5e-5, sim_dt_s=2.5e-4,
                              sim_duration_s=2.5)
    spec = replace(parse_system_spec(TWO_BUS_CFG), options=options)
    text = serialize(spec)
    for f in fields(AnalysisOptions):
        assert getattr(options, f.name) != f.default
        assert f"\n{f.name} = " in text
    again = parse_system_spec(text)
    assert again.options == options
    assert again == spec


def test_serialize_round_trip_numpy_values():
    # case_injections returns arrays, so a case built from it holds NumPy floats
    with open(STATION_CFG_PATH, encoding="utf-8") as fh:
        spec = parse_system_spec(fh.read())
    p, q = spec.case_injections("heavy")
    repro = spec.with_case("repro", {name: PowerSetpoint(p[i], q[i])
                                     for i, name in enumerate(spec.converter_names)})
    repro = replace(repro, rated_frequency_hz=np.float64(50.0),
                    converters=tuple(replace(c, pll_kp=np.float64(c.pll_kp))
                                     for c in repro.converters),
                    options=AnalysisOptions(flat_voltage=np.bool_(True),
                                            scan_points=np.int64(701),
                                            root_tol_hz=np.float64(2.5e-5)))
    text = serialize(repro)
    assert "np." not in text
    assert parse_system_spec(text) == repro


def test_readme_options_list_every_field_at_its_default():
    path = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(path, encoding="utf-8") as fh:
        readme = fh.read()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    spec = parse_system_spec(block)
    assert spec.options == AnalysisOptions()
    listed = block.split("[options]", 1)[1]
    keys = [line.split("=")[0].strip() for line in listed.splitlines()
            if "=" in line.split("#")[0]]
    assert keys == [f.name for f in fields(AnalysisOptions)]


# --- mutated station text raises only coded errors -------------------------

with open(STATION_CFG_PATH, encoding="utf-8") as _fh:
    # every [options] key, so that mutations reach each of their values
    _STATION_TEXT = _fh.read().replace("flat_voltage = true\n", "".join(
        f"{f.name} = {str(f.default).lower()}\n" for f in fields(AnalysisOptions)))
_ODD_TOKENS = ["nan", "-nan", "inf", "-inf", "1e999", "-1e999", "1e308", "-1e308",
               "5e-324", "0", "-0", "1e300", "[", "]", "=", "#", "[options]"]


def _drop(lines, i, _k, _token):
    return lines[:i] + lines[i + 1:]


def _duplicate(lines, i, _k, _token):
    return lines[:i + 1] + lines[i:]


def _replace_token(lines, i, k, token):
    tokens = lines[i].split() or [""]
    k %= len(tokens)
    return lines[:i] + [" ".join(tokens[:k] + [token] + tokens[k + 1:])] + lines[i + 1:]


def _truncate_section(lines, i, _k, _token):
    # cut from line i to the next section header, or to the end
    end = next((j for j in range(i + 1, len(lines)) if lines[j].startswith("[")),
               len(lines))
    return lines[:i] + lines[end:]


def _truncate_text(lines, i, k, _token):
    # cut inside line i, k characters in
    return lines[:i] + [lines[i][:k % (len(lines[i]) + 1)]]


_MUTATIONS = [_drop, _duplicate, _replace_token, _truncate_section, _truncate_text]


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(
    st.tuples(st.sampled_from(_MUTATIONS), st.integers(0, 10_000), st.integers(0, 10_000),
              st.one_of(st.sampled_from(_ODD_TOKENS), st.text(max_size=12))),
    min_size=1, max_size=4))
def test_mutated_station_text_raises_only_coded_errors(steps):
    assert parse_system_spec(_STATION_TEXT).options == AnalysisOptions()
    lines = _STATION_TEXT.splitlines()
    for mutate, i, k, token in steps:
        if lines:
            lines = mutate(lines, i % len(lines), k, token)
    try:
        parse_system_spec("\n".join(lines) + "\n")
    except SyncstabError as exc:
        assert isinstance(exc.code, str) and exc.code


@pytest.mark.parametrize("header, message", [
    ("[ ]", "empty section header"),
    ("[operating_point]", "[operating_point] needs exactly one case name"),
    ("[operating_point a b]", "[operating_point] needs exactly one case name"),
    ("[options extra]", "section [options] takes no argument"),
], ids=["empty", "case-missing", "two-cases", "argument"])
def test_section_header_messages(header, message):
    text = TWO_BUS_CFG + "\n" + header + "\n"
    line = len(text.splitlines())
    err = _syntax_error(text)
    assert err.line == line
    assert str(err) == f"line {line}: {message}"


def _run_refuses(spec):
    """The code of the error that a two-bus run of ``spec`` raises."""
    with pytest.raises(SyncstabError) as exc:
        run_analysis(spec, "inject")
    return exc.value.code


@pytest.mark.parametrize("change, code", [
    (lambda s: _options(s, scan_points=2.5), "SCAN_POINTS_INVALID"),
    (lambda s: _options(s, scan_points=1200.0), "SCAN_POINTS_INVALID"),
    (lambda s: _options(s, scan_points=True), "SCAN_POINTS_INVALID"),
    (lambda s: _options(s, flat_voltage="no"), "FLAT_VOLTAGE_INVALID"),
    (lambda s: _options(s, flat_voltage=1), "FLAT_VOLTAGE_INVALID"),
    (lambda s: _branch(s, inductance_pu=1e-320), "BRANCH_NONPOSITIVE_L"),
    (lambda s: _branch(s, inductance_pu=np.inf), "BRANCH_NONPOSITIVE_L"),
    (lambda s: s.with_case("inject", {"C1": PowerSetpoint("a", 0.0)}), "OP_INVALID"),
    (lambda s: s.with_case("inject", {"C1": PowerSetpoint(0.5, True)}), "OP_INVALID"),
    (lambda s: s.with_case("inject", {"C1": PowerSetpoint([0.5], 0.0)}), "OP_INVALID"),
], ids=["points-float", "points-whole-float", "points-bool", "flat-text", "flat-int",
        "inductance-subnormal", "inductance-inf", "p-text", "q-bool", "p-list"])
def test_validate_reports_the_code_a_run_raises(change, code):
    spec = change(parse_system_spec(TWO_BUS_CFG))
    assert [v.code for v in validate(spec)] == [code]
    assert _run_refuses(spec) == code


def test_an_inductance_without_a_finite_inverse_fails_at_parse_time():
    # 1e-320 > 0, but 1/1e-320 overflows: the text is refused before any reduction
    with pytest.raises(SpecValidationError) as exc:
        parse_system_spec(_mutated("bus1 grid 0.3", "bus1 grid 1e-320"))
    assert [v.code for v in exc.value.violations] == ["BRANCH_NONPOSITIVE_L"]
