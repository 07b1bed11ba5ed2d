"""Property-based tests of cross-module invariants.

* flow optimisation (normalize, prune_columns) never changes results,
* XML↔JSON conversion is lossless on arbitrary trees,
* ontology to-one closures only return valid functional paths.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.engine import Database, Executor, TableDef
from repro.etlmodel import (
    Aggregation,
    AggregationSpec,
    Datastore,
    DerivedAttribute,
    EtlFlow,
    Extraction,
    Loader,
    Selection,
)
from repro.etlmodel.equivalence import normalize, prune_columns
from repro.expressions import ScalarType

INT = ScalarType.INTEGER
STR = ScalarType.STRING

# ---------------------------------------------------------------------------
# Random linear flows over a small fixed table
# ---------------------------------------------------------------------------

COLUMNS = ("a", "b", "c")

rows_strategy = st.lists(
    st.fixed_dictionaries(
        {
            "a": st.integers(min_value=0, max_value=5),
            "b": st.integers(min_value=0, max_value=5),
            "c": st.sampled_from(["x", "y", "z"]),
        }
    ),
    min_size=0,
    max_size=25,
)


def _selection(index, column, value):
    if column == "c":
        return Selection(f"sel{index}", predicate=f"c = '{value[1]}'")
    return Selection(f"sel{index}", predicate=f"{column} >= {value[0]}")


middle_stage = st.one_of(
    st.tuples(
        st.just("sel"),
        st.sampled_from(COLUMNS),
        st.tuples(st.integers(min_value=0, max_value=5), st.sampled_from("xyz")),
    ),
    st.tuples(st.just("derive"), st.sampled_from(["a", "b"]), st.none()),
    st.tuples(st.just("extract"), st.none(), st.none()),
)

stages_strategy = st.lists(middle_stage, min_size=0, max_size=4)


def build_random_flow(stages):
    """A linear flow: scan -> random unary stages -> aggregation -> load.

    Derived columns get fresh names; extraction keeps all live columns
    (so later stages stay valid regardless of order).
    """
    flow = EtlFlow("random")
    live = list(COLUMNS)
    chain = [Datastore("src", table="t", columns=COLUMNS)]
    for index, (kind, column, value) in enumerate(stages):
        if kind == "sel":
            chain.append(_selection(index, column, value))
        elif kind == "derive":
            output = f"d{index}"
            chain.append(
                DerivedAttribute(
                    f"derive{index}", output=output,
                    expression=f"{column} + 1",
                )
            )
            live.append(output)
        else:
            chain.append(Extraction(f"extract{index}", columns=tuple(live)))
    chain.append(
        Aggregation(
            "agg",
            group_by=("c",),
            aggregates=(
                AggregationSpec("total", "SUM", "a"),
                AggregationSpec("n", "COUNT", "b"),
            ),
        )
    )
    chain.append(Loader("load", table="out"))
    flow.chain(*chain)
    return flow


def run_flow(flow, rows):
    database = Database()
    database.create_table(TableDef("t", {"a": INT, "b": INT, "c": STR}))
    database.insert_many("t", rows)
    Executor(database).execute(flow)
    result = database.scan("out").rows
    return sorted(
        (row["c"], row["total"], row["n"]) for row in result
    )


class TestFlowOptimisationSemantics:
    @given(stages_strategy, rows_strategy)
    @settings(max_examples=60, deadline=None)
    def test_normalize_preserves_results(self, stages, rows):
        flow = build_random_flow(stages)
        assert run_flow(normalize(flow), rows) == run_flow(flow, rows)

    @given(stages_strategy, rows_strategy)
    @settings(max_examples=60, deadline=None)
    def test_prune_preserves_results(self, stages, rows):
        flow = build_random_flow(stages)
        assert run_flow(prune_columns(flow), rows) == run_flow(flow, rows)

    @given(stages_strategy, rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_normalize_then_prune_preserves_results(self, stages, rows):
        flow = build_random_flow(stages)
        optimised = prune_columns(normalize(flow))
        assert run_flow(optimised, rows) == run_flow(flow, rows)

    @given(stages_strategy)
    @settings(max_examples=60, deadline=None)
    def test_optimised_flows_stay_structurally_valid(self, stages):
        flow = build_random_flow(stages)
        assert normalize(flow).validate() == []
        assert prune_columns(flow).validate() == []

    @given(stages_strategy, rows_strategy)
    @settings(max_examples=30, deadline=None)
    def test_xlm_roundtrip_preserves_results(self, stages, rows):
        from repro.xformats import xlm

        flow = build_random_flow(stages)
        reloaded = xlm.loads(xlm.dumps(flow))
        assert run_flow(reloaded, rows) == run_flow(flow, rows)


# ---------------------------------------------------------------------------
# XML <-> JSON conversion on arbitrary trees
# ---------------------------------------------------------------------------

tags = st.sampled_from(["node", "design", "cube", "fact", "edge"])
texts = st.one_of(st.none(), st.text(alphabet="abc123 ", min_size=1, max_size=8))
attributes = st.dictionaries(
    st.sampled_from(["id", "name", "refID"]),
    st.text(alphabet="abcxyz0189", min_size=1, max_size=6),
    max_size=2,
)


def _trees(children):
    return st.builds(
        lambda tag, attrs, text, kids: {
            "tag": tag,
            "attributes": attrs,
            "text": text,
            "children": kids,
        },
        tags,
        attributes,
        texts,
        st.lists(children, max_size=3),
    )


tree_strategy = st.recursive(
    st.builds(
        lambda tag, attrs, text: {
            "tag": tag,
            "attributes": attrs,
            "text": text,
            "children": [],
        },
        tags,
        attributes,
        texts,
    ),
    _trees,
    max_leaves=15,
)


class TestXmlJsonRoundTrip:
    @given(tree_strategy)
    @settings(max_examples=100, deadline=None)
    def test_json_xml_json_is_identity(self, tree):
        from repro.xformats.xmljson import (
            dict_to_element,
            element_to_dict,
        )

        roundtripped = element_to_dict(dict_to_element(tree))
        assert roundtripped == _normalise(tree)


def _normalise(tree):
    """The converter drops whitespace-only text; mirror that."""
    text = tree["text"]
    if text is not None and not text.strip():
        text = None
    return {
        "tag": tree["tag"],
        "attributes": dict(tree["attributes"]),
        "text": text,
        "children": [_normalise(child) for child in tree["children"]],
    }


# ---------------------------------------------------------------------------
# Ontology graph invariants on random to-one forests
# ---------------------------------------------------------------------------

edges_strategy = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 14)),
    max_size=25,
)


class TestOntologyClosureInvariants:
    @given(edges_strategy)
    @settings(max_examples=80, deadline=None)
    def test_closure_paths_are_functional_and_acyclic(self, edges):
        from repro.ontology import OntologyBuilder, OntologyGraph

        builder = OntologyBuilder("random")
        for index in range(15):
            builder.concept(f"C{index}")
        seen = set()
        for index, (source, target) in enumerate(edges):
            if source == target or (source, target) in seen:
                continue
            seen.add((source, target))
            builder.relationship(
                f"r{index}", f"C{source}", f"C{target}", "N-1"
            )
        graph = OntologyGraph(builder.build())
        for start in ("C0", "C7"):
            closure = graph.to_one_closure(start)
            for target, path in closure.items():
                assert path.source == start
                assert path.target == target
                assert path.is_to_one(graph.ontology)
                concepts = path.concepts()
                # Shortest paths never revisit a concept.
                assert len(concepts) == len(set(concepts))
