"""Exclusion-set lattice, Hasse construction, and diagram serialization."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mktsens import (
    CapacityError,
    DataError,
    ExclusionSet,
    MarginalSet,
    OutcomeEvaluationError,
    build_hasse,
    canonical_masks,
    covers,
    diagram_from_json,
    enumerate_subsets,
    lattice,
    restrict,
    subset_label,
    to_dot,
    to_json,
)
from tests.conftest import TEXTBOOK_HHI, TEXTBOOK_MARGINAL
from tests.test_hasse_table import _traced_peak


class TestMarginalSet:
    def test_basic_accessors(self):
        ms = MarginalSet(("club", "natural", "limited"))
        assert ms.n == 3
        assert ms.index_of("natural") == 1
        assert ms.labels_of(ms.subset_of(["natural", "club"])) == ("club", "natural")

    def test_rejects_duplicates_and_empty_labels(self):
        with pytest.raises(ValueError):
            MarginalSet(("a", "a"))
        with pytest.raises(ValueError):
            MarginalSet(("a", ""))

    def test_empty_marginal_set_is_allowed(self):
        ms = MarginalSet(())
        assert ms.n == 0
        assert ms.subset_of([]).bits == 0

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            MarginalSet(tuple(f"m{i}" for i in range(25)))

    def test_unknown_label(self):
        ms = MarginalSet(("a", "b"))
        with pytest.raises(ValueError):
            ms.subset_of(["c"])


class TestExclusionSet:
    def test_bitmask_round_trip(self):
        s = ExclusionSet.from_indices(5, [0, 3])
        assert s.bits == 0b01001
        assert s.indices == (0, 3)
        assert s.size == 2
        assert s.contains(3) and not s.contains(1)

    def test_bits_out_of_range(self):
        with pytest.raises(ValueError):
            ExclusionSet(3, 8)
        with pytest.raises(ValueError):
            ExclusionSet.from_indices(3, [3])

    def test_subset_relation(self):
        a = ExclusionSet.from_indices(4, [1])
        b = ExclusionSet.from_indices(4, [1, 2])
        assert a.issubset(b) and not b.issubset(a)
        assert a.issubset(a)

    def test_with_index(self):
        a = ExclusionSet.from_indices(4, [1])
        assert a.with_index(2).indices == (1, 2)
        assert a.with_index(1).bits == a.bits

    def test_width_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            ExclusionSet(3, 1).issubset(ExclusionSet(4, 1))
        with pytest.raises(ValueError):
            ExclusionSet(3, 1) < ExclusionSet(4, 1)

    def test_canonical_order_is_cardinality_then_mask(self):
        subsets = enumerate_subsets(4)
        keys = [s.sort_key for s in subsets]
        assert keys == sorted(keys)
        sizes = [s.size for s in subsets]
        assert sizes == sorted(sizes)


class TestEnumeration:
    @pytest.mark.parametrize("n", range(0, 13))
    def test_counts(self, n):
        subsets = enumerate_subsets(n)
        assert len(subsets) == 2**n
        assert len({s.bits for s in subsets}) == 2**n

    def test_matches_itertools_combinations(self):
        # The canonical-order oracle: cardinality layers, masks ascending.
        for n in range(0, 11):
            expected = []
            for k in range(n + 1):
                masks = sorted(
                    sum(1 << i for i in combo)
                    for combo in itertools.combinations(range(n), k)
                )
                expected.extend(masks)
            assert canonical_masks(n).dtype == np.int64
            assert canonical_masks(n).tolist() == expected
            assert [s.bits for s in enumerate_subsets(n)] == expected

    def test_canonical_masks_keeps_one_copy(self):
        # argsort already returns int64 masks: no second array of them.
        result = canonical_masks(16).nbytes
        assert _traced_peak(lambda: canonical_masks(16)) < 1.5 * result

    def test_first_marked_is_first_in_canonical_order(self):
        # {0, 1} has the lower mask, but {2} is smaller and comes first.
        marked = np.isin(np.arange(8), [3, 4, 7])
        assert lattice.first_marked(marked, 3) == ExclusionSet(3, 4)

    def test_capacity_limit(self):
        for enumerate_ in (canonical_masks, enumerate_subsets):
            with pytest.raises(CapacityError):
                enumerate_(25)
            with pytest.raises(ValueError):
                enumerate_(-1)


class TestCovers:
    def test_direct_superset_only(self):
        lo = ExclusionSet.from_indices(4, [0])
        assert covers(lo, ExclusionSet.from_indices(4, [0, 2]))
        assert not covers(lo, ExclusionSet.from_indices(4, [0, 2, 3]))
        assert not covers(lo, lo)
        assert not covers(ExclusionSet.from_indices(4, [1]),
                          ExclusionSet.from_indices(4, [0, 2]))


def assert_same_diagram(a, b):
    assert a.marginal_set == b.marginal_set
    assert a.metric_names == b.metric_names
    for name in ("masks", "table", "flags", "edge_masks"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def _textbook_diagram(market_fn=None):
    from mktsens import Market, exclude, hhi
    from tests.conftest import TEXTBOOK_SALES

    market = Market(TEXTBOOK_SALES)
    ms = MarginalSet(TEXTBOOK_MARGINAL)

    def f(subset):
        return {"hhi": hhi(exclude(market, ms.labels_of(subset)))}

    return build_hasse(ms, f, rule=lambda o: o["hhi"] >= 1800.0)


class TestBuildHasse:
    def test_textbook_values_are_exact(self):
        diagram = _textbook_diagram()
        ms = diagram.marginal_set
        for labels, expected in TEXTBOOK_HHI.items():
            assert diagram.outcome(ms.subset_of(labels), "hhi") == expected

    def test_textbook_flags(self):
        diagram = _textbook_diagram()
        ms = diagram.marginal_set
        flagged = {
            ms.labels_of(ExclusionSet(ms.n, bits))
            for bits in diagram.masks[diagram.flags].tolist()
        }
        assert flagged == {("1", "2"), ("1", "3"), ("1", "2", "3")}

    @pytest.mark.parametrize("n", range(0, 11))
    def test_node_and_edge_counts(self, n):
        ms = MarginalSet(tuple(f"m{i}" for i in range(n)))
        diagram = build_hasse(ms, lambda s: {"size": float(s.size)})
        assert diagram.masks.shape == diagram.flags.shape == (2**n,)
        assert diagram.table.shape == (2**n, 1)
        assert diagram.edge_masks.shape == (n * 2 ** (n - 1) if n else 0, 2)

    def test_edge_deltas_match_node_outcomes(self):
        diagram = _textbook_diagram()
        n = diagram.marginal_set.n
        for (lower, upper), (delta,) in zip(diagram.edge_masks.tolist(),
                                            diagram.edge_deltas().tolist()):
            parent = diagram.outcome(ExclusionSet(n, lower), "hhi")
            child = diagram.outcome(ExclusionSet(n, upper), "hhi")
            assert delta == pytest.approx(child - parent, abs=1e-12)

    def test_every_edge_is_a_covering_pair(self):
        diagram = _textbook_diagram()
        n = diagram.marginal_set.n
        assert all(covers(ExclusionSet(n, lower), ExclusionSet(n, upper))
                   for lower, upper in diagram.edge_masks.tolist())

    def test_outcome_function_called_once_per_subset(self):
        calls = []
        ms = MarginalSet(("a", "b", "c"))

        def f(subset):
            calls.append(subset.bits)
            return {"x": float(subset.size)}

        build_hasse(ms, f)
        assert sorted(calls) == list(range(8))

    def test_inconsistent_metric_names_rejected(self):
        ms = MarginalSet(("a", "b"))

        def f(subset):
            return {"x": 1.0} if subset.size == 0 else {"y": 1.0}

        with pytest.raises(OutcomeEvaluationError):
            build_hasse(ms, f)

    def test_failing_outcome_names_the_subset(self):
        ms = MarginalSet(("a", "b"))

        def f(subset):
            if subset.size == 2:
                raise RuntimeError("boom")
            return {"x": 0.0}

        with pytest.raises(OutcomeEvaluationError, match=r"\{a, b\}"):
            build_hasse(ms, f)

    def test_failing_rule_is_reported(self):
        ms = MarginalSet(("a",))

        def bad_rule(outcomes):
            raise KeyError("missing")

        with pytest.raises(OutcomeEvaluationError):
            build_hasse(ms, lambda s: {"x": 0.0}, bad_rule)

    def test_empty_metric_vector_rejected(self):
        ms = MarginalSet(("a",))
        with pytest.raises(OutcomeEvaluationError):
            build_hasse(ms, lambda s: {})

    def test_unknown_metric_lookup(self):
        diagram = _textbook_diagram()
        subset = diagram.marginal_set.subset_of(["1"])
        assert diagram.outcome(subset, "hhi") == TEXTBOOK_HHI[("1",)]
        with pytest.raises(KeyError):
            diagram.outcome(subset, "nope")

    def test_node_lookup_outside_a_restricted_diagram(self):
        diagram = _textbook_diagram()
        ms = diagram.marginal_set
        sub = restrict(diagram, [ms.subset_of(())])
        with pytest.raises(KeyError):
            sub.outcome(ms.subset_of(("1",)), "hhi")


class TestRestrict:
    def test_keeping_everything_is_the_identity(self):
        diagram = _textbook_diagram()
        n = diagram.marginal_set.n
        kept = restrict(diagram,
                        [ExclusionSet(n, bits) for bits in diagram.masks.tolist()])
        assert_same_diagram(kept, diagram)

    def test_chains_through_dropped_nodes_collapse(self):
        diagram = _textbook_diagram()
        ms = diagram.marginal_set
        keep = [ms.subset_of(()), ms.subset_of(("1", "2")),
                ms.subset_of(("1", "2", "3"))]
        sub = restrict(diagram, keep)
        assert sub.edge_masks.tolist() == [
            [ms.subset_of(()).bits, ms.subset_of(("1", "2")).bits],
            [ms.subset_of(("1", "2")).bits, ms.subset_of(("1", "2", "3")).bits],
        ]
        expected = TEXTBOOK_HHI[("1", "2")] - TEXTBOOK_HHI[()]
        assert sub.edge_deltas()[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_incomparable_survivors_get_no_edge(self):
        diagram = _textbook_diagram()
        ms = diagram.marginal_set
        sub = restrict(diagram, [ms.subset_of(("1",)), ms.subset_of(("2",))])
        assert sub.edge_masks.shape == (0, 2)

    def test_unknown_subset_rejected(self):
        diagram = _textbook_diagram()
        ms = diagram.marginal_set
        sub = restrict(diagram, [ms.subset_of(())])
        with pytest.raises(ValueError):
            restrict(sub, [ms.subset_of(("1",))])
        with pytest.raises(ValueError):
            restrict(diagram, [ExclusionSet(2, 1)])


class TestDotOutput:
    def test_textbook_rendering(self):
        dot = to_dot(_textbook_diagram())
        assert dot.startswith("digraph hasse {")
        assert 'rankdir=BT' in dot
        assert '"empty" [label="{}\\n1439"]' in dot
        assert '"1" [label="{1}\\n1669"]' in dot
        assert '"1_2_3" [label="{1, 2, 3}\\n2083", fillcolor="lightcoral"]' in dot
        assert '"empty" -> "1" [label="+230"]' in dot
        assert dot.count("rank=same") == 4

    def test_unflagged_nodes_have_no_fill_override(self):
        dot = to_dot(_textbook_diagram())
        line = next(l for l in dot.splitlines() if l.strip().startswith('"2_3"'))
        assert "lightcoral" not in line

    def test_edge_labels_are_differences_of_displayed_values(self):
        # Floored child minus floored parent, not the floored difference.
        ms = MarginalSet(("a",))
        diagram = build_hasse(
            ms, lambda s: {"x": 0.9 if s.size == 0 else 2.1}
        )
        dot = to_dot(diagram)
        assert '[label="+2"]' in dot  # floor(2.1) - floor(0.9), not floor(1.2)

    def test_label_metric_selection(self):
        ms = MarginalSet(("a",))
        diagram = build_hasse(
            ms, lambda s: {"x": float(s.size), "y": 10.0 * s.size}
        )
        dot = to_dot(diagram, ("y",))
        assert '\\n10"' in dot and "0, 0" not in dot
        with pytest.raises(ValueError):
            to_dot(diagram, ("z",))

    def test_quoting_of_awkward_labels(self):
        ms = MarginalSet(('he said "hi"', "back\\slash"))
        diagram = build_hasse(ms, lambda s: {"x": 0.0})
        dot = to_dot(diagram)
        assert '\\"hi\\"' in dot
        assert "back\\\\slash" in dot


class TestJsonRoundTrip:
    def test_round_trip_preserves_everything(self):
        diagram = _textbook_diagram()
        assert_same_diagram(diagram_from_json(to_json(diagram)), diagram)

    def test_nodes_may_come_in_any_order(self):
        import json

        diagram = _textbook_diagram()
        doc = json.loads(to_json(diagram))
        doc["nodes"].reverse()
        assert_same_diagram(diagram_from_json(json.dumps(doc)), diagram)

    def test_serialization_is_deterministic(self):
        assert to_json(_textbook_diagram()) == to_json(_textbook_diagram())

    def test_invalid_json_rejected(self):
        with pytest.raises(DataError):
            diagram_from_json("{not json")

    def test_malformed_document_rejected(self):
        with pytest.raises(DataError):
            diagram_from_json('{"marginal_set": ["a"]}')

    def test_width_mismatch_rejected(self):
        import json

        doc = json.loads(to_json(_textbook_diagram()))
        doc["nodes"][0]["outcomes"] = []
        with pytest.raises(DataError):
            diagram_from_json(json.dumps(doc))
        doc = json.loads(to_json(_textbook_diagram()))
        doc["edges"][0]["deltas"] = [1.0, 2.0]
        with pytest.raises(DataError):
            diagram_from_json(json.dumps(doc))


    def test_duplicate_node_rejected(self):
        import json

        doc = json.loads(to_json(_textbook_diagram()))
        doc["nodes"].append(doc["nodes"][3])
        with pytest.raises(DataError, match=r"\{3\} twice"):
            diagram_from_json(json.dumps(doc))

    def test_edge_to_a_missing_node_rejected(self):
        import json

        ms = MarginalSet(("a", "b"))
        doc = json.loads(to_json(build_hasse(ms, lambda s: {"x": 1.0 * s.bits})))
        doc["nodes"].pop()
        with pytest.raises(DataError, match=r"\{a, b\} has an endpoint"):
            diagram_from_json(json.dumps(doc))

    def test_delta_that_disagrees_with_its_nodes_rejected(self):
        import json

        doc = json.loads(to_json(_textbook_diagram()))
        doc["edges"][5]["deltas"][0] += 1e-9
        with pytest.raises(DataError, match=r"edge \{2\} -> \{1, 2\}"):
            diagram_from_json(json.dumps(doc))
        doc = json.loads(to_json(_textbook_diagram()))
        doc["edges"][0]["deltas"][0] = math.nan
        with pytest.raises(DataError):
            diagram_from_json(json.dumps(doc))

    def test_non_finite_outcomes_round_trip(self):
        ms = MarginalSet(("a", "b"))
        values = [math.inf, math.inf, -0.0, math.nan]
        text = to_json(build_hasse(ms, lambda s: {"x": values[s.bits]}))
        assert '"deltas": [\n        NaN\n' in text
        assert to_json(diagram_from_json(text)) == text

    def test_nodes_are_read_in_canonical_order(self):
        import json

        text = to_json(_textbook_diagram())
        doc = json.loads(text)
        doc["nodes"].reverse()
        assert to_json(diagram_from_json(json.dumps(doc))) == text

    def test_edges_are_read_in_canonical_order(self):
        import json

        text = to_json(_textbook_diagram())
        doc = json.loads(text)
        doc["edges"].reverse()
        assert to_json(diagram_from_json(json.dumps(doc))) == text

    def test_reversed_edge_rejected(self):
        import json

        doc = json.loads(to_json(_textbook_diagram()))
        edge = doc["edges"][5]
        edge["from"], edge["to"] = edge["to"], edge["from"]
        edge["deltas"] = [-delta for delta in edge["deltas"]]
        with pytest.raises(DataError, match=r"edge \{1, 2\} -> \{2\} does not"):
            diagram_from_json(json.dumps(doc))

    def test_self_loop_rejected(self):
        import json

        doc = json.loads(to_json(_textbook_diagram()))
        doc["edges"][1].update({"to": doc["edges"][1]["from"], "deltas": [0.0]})
        with pytest.raises(DataError, match=r"edge \{\} -> \{\} does not"):
            diagram_from_json(json.dumps(doc))

    def test_duplicate_edge_rejected(self):
        import json

        doc = json.loads(to_json(_textbook_diagram()))
        doc["edges"].append(doc["edges"][5])
        with pytest.raises(DataError,
                           match=r"edge \{2\} -> \{1, 2\} is repeated"):
            diagram_from_json(json.dumps(doc))


    def test_edge_that_is_not_a_cover_rejected(self):
        import json

        doc = json.loads(to_json(_textbook_diagram()))
        outcomes = {tuple(node["subset"]): node["outcomes"] for node in doc["nodes"]}
        doc["edges"].append({"from": [], "to": [0, 1], "deltas": [
            outcomes[(0, 1)][0] - outcomes[()][0]]})
        with pytest.raises(DataError, match=r"edge \{\} -> \{1, 2\} does not lead"):
            diagram_from_json(json.dumps(doc))

    def test_missing_cover_rejected(self):
        import json

        doc = json.loads(to_json(_textbook_diagram()))
        del doc["edges"][5]
        with pytest.raises(DataError, match=r"edge \{2\} -> \{1, 2\} is a cover"):
            diagram_from_json(json.dumps(doc))
        # A partial diagram: {} -> {1, 2} -> {1, 2, 3} without its first edge.
        diagram = _textbook_diagram()
        ms = diagram.marginal_set
        keep = [ms.subset_of(()), ms.subset_of(("1", "2")),
                ms.subset_of(("1", "2", "3"))]
        doc = json.loads(to_json(restrict(diagram, keep)))
        del doc["edges"][0]
        with pytest.raises(DataError, match=r"edge \{\} -> \{1, 2\} is a cover"):
            diagram_from_json(json.dumps(doc))

    def test_marginal_set_must_be_a_list_of_strings(self):
        import json

        doc = json.loads(to_json(_textbook_diagram()))
        doc["marginal_set"] = "123"
        with pytest.raises(DataError, match="marginal_set must be a list"):
            diagram_from_json(json.dumps(doc))

    def test_metrics_must_be_strings(self):
        import json

        ms = MarginalSet(("a",))
        doc = json.loads(to_json(build_hasse(ms, lambda s: {"7": 1.0})))
        doc["metrics"] = [7]
        with pytest.raises(DataError, match="metrics must be a list of strings"):
            diagram_from_json(json.dumps(doc))

    def test_flagged_must_be_a_json_boolean(self):
        import json

        doc = json.loads(to_json(_textbook_diagram()))
        assert doc["nodes"][0]["flagged"] is False
        doc["nodes"][0]["flagged"] = "false"
        with pytest.raises(DataError, match="flagged must be a list of booleans"):
            diagram_from_json(json.dumps(doc))

    def test_subset_indices_must_be_integers(self):
        import json

        text = to_json(_textbook_diagram())
        doc = json.loads(text)
        # true would be read as index 1, so {2} would stay {2}.
        assert doc["nodes"][2]["subset"] == [1]
        doc["nodes"][2]["subset"] = [True]
        with pytest.raises(DataError, match="subset must be a list of integers"):
            diagram_from_json(json.dumps(doc))
        doc = json.loads(text)
        doc["edges"][1]["from"] = [False]
        with pytest.raises(DataError, match="subset must be a list of integers"):
            diagram_from_json(json.dumps(doc))

    @pytest.mark.parametrize("value, message", [
        ("1.0", "must be a list of numbers"), (True, "must be a list of numbers"),
        (10**400, "too large to convert to float")], ids=["string", "bool", "huge-int"])
    def test_outcomes_and_deltas_must_be_numbers(self, value, message):
        import json

        ms = MarginalSet(("a",))
        text = to_json(build_hasse(ms, lambda s: {"x": float(s.size)}))
        doc = json.loads(text)
        doc["nodes"][1]["outcomes"] = [1]
        assert to_json(diagram_from_json(json.dumps(doc))) == text
        doc["nodes"][1]["outcomes"] = [value]
        with pytest.raises(DataError, match=message):
            diagram_from_json(json.dumps(doc))
        doc = json.loads(text)
        doc["edges"][0]["deltas"] = [value]
        with pytest.raises(DataError, match=message):
            diagram_from_json(json.dumps(doc))


class TestSubsetLabel:
    def test_labels(self):
        ms = MarginalSet(("club", "natural"))
        assert subset_label(ms, ms.subset_of(())) == "{}"
        assert subset_label(ms, ms.subset_of(("natural",))) == "{natural}"
        assert subset_label(ms, ms.subset_of(("natural", "club"))) == "{club, natural}"


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=9), st.data())
def test_enumeration_order_and_membership_property(n, data):
    subsets = enumerate_subsets(n)
    assert [s.sort_key for s in subsets] == sorted(s.sort_key for s in subsets)
    if n:
        mask = data.draw(st.integers(min_value=0, max_value=2**n - 1))
        s = ExclusionSet(n, mask)
        assert s.indices == tuple(i for i in range(n) if mask >> i & 1)
        assert math.comb(n, s.size) >= 1
