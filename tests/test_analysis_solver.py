"""Unit tests for :func:`repro.analysis.core.solve`, the one fixpoint
loop every interprocedural rule runs on."""

import pytest

from repro.analysis.core import solve
from repro.errors import AnalysisError, ReproError


def union_step(counts):
    """A set-union step over ``graph`` that counts its evaluations."""
    def step(node, values, graph):
        counts[node] = counts.get(node, 0) + 1
        merged = set(values[node])
        for dep in graph[node]:
            merged |= values[dep]
        return frozenset(merged)
    return step


class TestSolve:
    def test_acyclic_chain_converges_in_one_pass(self):
        # Node i reads node i + 1 (a callee chain); listing the nodes
        # caller-first is the worst case for a round-based loop.
        depth = 200
        graph = {i: [i + 1] if i + 1 < depth else [] for i in range(depth)}
        counts = {}
        step = union_step(counts)
        result = solve(
            "chain",
            {i: frozenset([i]) for i in range(depth)},
            lambda node: graph[node],
            lambda node, values: step(node, values, graph),
            lambda old, new: old <= new,
        )
        assert result[0] == frozenset(range(depth))
        assert set(counts.values()) == {1}

    def test_callers_first_when_nodes_read_their_callers(self):
        # The same chain read the other way round (entry facts flow
        # from callers): the deepest node sees everything above it.
        graph = {0: [], 1: [0], 2: [1], 3: [2]}
        counts = {}
        step = union_step(counts)
        result = solve(
            "callers",
            {i: frozenset([i]) for i in (3, 2, 1, 0)},
            lambda node: graph[node],
            lambda node, values: step(node, values, graph),
            lambda old, new: old <= new,
        )
        assert result[3] == frozenset({0, 1, 2, 3})
        assert set(counts.values()) == {1}

    def test_cycle_reaches_the_fixpoint(self):
        graph = {"a": ["b"], "b": ["c"], "c": ["a"], "d": ["a"]}
        step = union_step({})
        result = solve(
            "cycle",
            {node: frozenset([node]) for node in "abcd"},
            lambda node: graph[node],
            lambda node, values: step(node, values, graph),
            lambda old, new: old <= new,
        )
        assert result["a"] == result["b"] == result["c"] == frozenset("abc")
        assert result["d"] == frozenset("abcd")

    def test_order_equal_update_keeps_the_current_value(self):
        # Values are (facts, witness); the order compares facts only,
        # so a re-derived witness for the same facts is not a change.
        calls = []

        def step(node, values):
            calls.append(node)
            return (values[node][0], f"witness-{len(calls)}")

        result = solve(
            "witness",
            {"f": (frozenset({"x"}), "first")},
            lambda node: [node],
            step,
            lambda old, new: old[0] <= new[0],
        )
        assert result["f"] == (frozenset({"x"}), "first")
        assert calls == ["f"]

    def test_non_monotone_update_raises_a_typed_error(self):
        # A step that flips its own value can never settle; the solver
        # must refuse rather than return whatever it last held.
        with pytest.raises(AnalysisError) as caught:
            solve(
                "flip-flop",
                {"repro.fixture.f": 0},
                lambda node: [node],
                lambda node, values: 1 - values[node],
                lambda old, new: old <= new,
            )
        error = caught.value
        assert isinstance(error, ReproError)
        assert error.analysis == "flip-flop"
        assert error.node == "repro.fixture.f"
        assert "flip-flop" in str(error)
        assert "repro.fixture.f" in str(error)
