"""Unit tests for the column-pruning (projection pushdown) pass."""

from repro.engine import Database, Executor
from repro.etlmodel import (
    Aggregation,
    AggregationSpec,
    Datastore,
    DerivedAttribute,
    EtlFlow,
    Extraction,
    Join,
    Loader,
    Projection,
    Selection,
)
from repro.etlmodel.equivalence import prune_columns
from repro.etlmodel.propagation import propagate
from repro.expressions import ScalarType

INT = ScalarType.INTEGER
STR = ScalarType.STRING


def wide_flow():
    """A flow whose extraction is wider than its consumer needs."""
    flow = EtlFlow("wide")
    flow.chain(
        Datastore("src", table="t", columns=("a", "b", "c", "d", "e")),
        Extraction("ext", columns=("a", "b", "c", "d", "e")),
        Aggregation(
            "agg", group_by=("a",),
            aggregates=(AggregationSpec("n", "COUNT", "b"),),
        ),
        Loader("load", table="out"),
    )
    return flow


class TestSingleConsumer:
    def test_extraction_shrunk_to_needs(self):
        pruned = prune_columns(wide_flow())
        assert set(pruned.node("ext").columns) == {"a", "b"}

    def test_datastore_shrunk_too(self):
        pruned = prune_columns(wide_flow())
        assert set(pruned.node("src").columns) == {"a", "b"}

    def test_original_flow_untouched(self):
        flow = wide_flow()
        prune_columns(flow)
        assert len(flow.node("ext").columns) == 5

    def test_pruned_flow_still_valid(self):
        pruned = prune_columns(wide_flow())
        assert pruned.validate() == []
        propagate(pruned, None)

    def test_pruning_is_idempotent(self):
        once = prune_columns(wide_flow())
        twice = prune_columns(once)
        assert sorted(n.signature() for n in once.nodes()) == sorted(
            n.signature() for n in twice.nodes()
        )


class TestSharedExtraction:
    def _shared(self):
        """One wide extraction feeding a narrow and a wide consumer."""
        flow = EtlFlow("shared")
        flow.add(Datastore("src", table="t", columns=("a", "b", "c", "d")))
        flow.add(Extraction("ext", columns=("a", "b", "c", "d")))
        flow.connect("src", "ext")
        flow.add(Aggregation(
            "narrow", group_by=("a",),
            aggregates=(AggregationSpec("n", "COUNT", "a"),),
        ))
        flow.connect("ext", "narrow")
        flow.add(Loader("load_narrow", table="narrow_out"))
        flow.connect("narrow", "load_narrow")
        flow.add(Projection("wide", columns=("a", "b", "c", "d")))
        flow.connect("ext", "wide")
        flow.add(Loader("load_wide", table="wide_out"))
        flow.connect("wide", "load_wide")
        return flow

    def test_narrow_edge_gets_projection(self):
        pruned = prune_columns(self._shared())
        narrow_input = pruned.inputs("narrow")[0]
        assert narrow_input.startswith("PRUNE_")
        assert set(pruned.node(narrow_input).columns) == {"a"}

    def test_wide_edge_untouched(self):
        pruned = prune_columns(self._shared())
        assert pruned.inputs("wide") == ["ext"]

    def test_shared_extraction_keeps_union(self):
        pruned = prune_columns(self._shared())
        assert len(pruned.node("ext").columns) == 4

    def test_projection_consumer_gets_no_projection_in_front(self):
        flow = self._shared()
        flow.replace_node("wide", Projection("wide", columns=("a",)))
        pruned = prune_columns(flow)
        assert pruned.inputs("wide") == ["ext"]

    def test_second_pass_leaves_shrunk_extraction_alone(self):
        """The first pass shrinks ``e1`` in place; a second pass must
        not then put a projection between the shared datastore and it."""
        from repro.xformats import xlm

        flow = EtlFlow("two_extractions")
        flow.add(Datastore("src", table="t", columns=("a", "b", "c", "d")))
        for name in ("e1", "e2"):
            flow.add(Extraction(name, columns=("a", "b", "c", "d")))
            flow.connect("src", name)
        flow.add(Aggregation(
            "agg", group_by=("a",),
            aggregates=(AggregationSpec("n", "COUNT", "a"),),
        ))
        flow.connect("e1", "agg")
        flow.add(Loader("load_agg", table="agg_out"))
        flow.connect("agg", "load_agg")
        flow.add(Loader("load_wide", table="wide_out"))
        flow.connect("e2", "load_wide")
        once = prune_columns(flow)
        assert once.node("e1").columns == ("a",)
        assert xlm.dumps(prune_columns(once)) == xlm.dumps(once)


class TestUnifiedDesign:
    def test_pruning_a_pruned_unified_flow_changes_nothing(self):
        """Regression: a second pass restarted the ``PRUNE_<n>`` counter
        (duplicate node name) and put a fresh projection in front of
        every ``PRUNE_<n>`` the first pass had inserted."""
        from repro import Quarry
        from repro.sources import tpch
        from repro.xformats import xlm
        from tests.core.conftest import (
            build_netprofit_requirement,
            build_quantity_requirement,
            build_revenue_requirement,
        )

        quarry = Quarry(tpch.ontology(), tpch.schema(), tpch.mappings())
        for build in (
            build_revenue_requirement,
            build_netprofit_requirement,
            build_quantity_requirement,
        ):
            quarry.add_requirement(build())
        __, flow = quarry.unified_design()
        once = prune_columns(flow)
        assert any(name.startswith("PRUNE_") for name in once.node_names())
        assert xlm.dumps(prune_columns(once)) == xlm.dumps(once)


class TestSemanticsPreserved:
    def test_execution_unchanged_on_revenue_flow(self, tpch_schema):
        from tests.etlmodel.conftest import build_revenue_flow
        from repro.sources import tpch

        database = Database()
        database.load_source(tpch.schema(), tpch.generate(0.2, seed=8))
        baseline_flow = build_revenue_flow()
        executor = Executor(database)
        executor.execute(baseline_flow, keep_intermediate=True)
        baseline = executor.relations["AGG_revenue"].rows

        pruned = prune_columns(build_revenue_flow(name="pruned"))
        pruned_executor = Executor(database)
        pruned_executor.execute(pruned, keep_intermediate=True)
        result = pruned_executor.relations["AGG_revenue"].rows
        key = lambda row: row["n_name"]
        assert sorted(baseline, key=key) == sorted(result, key=key)

    def test_distinct_input_never_pruned(self):
        from repro.etlmodel import Distinct

        flow = EtlFlow("d")
        flow.chain(
            Datastore("src", table="t", columns=("a", "b", "c")),
            Extraction("ext", columns=("a", "b", "c")),
            Distinct("dedup"),
            Loader("load", table="out"),
        )
        pruned = prune_columns(flow)
        # Distinct semantics depend on the full row: no narrowing.
        assert set(pruned.node("ext").columns) == {"a", "b", "c"}

    def test_join_keys_survive_pruning(self):
        flow = EtlFlow("j")
        flow.add(Datastore("left", table="l", columns=("k", "x", "junk")))
        flow.add(Datastore("right", table="r", columns=("k", "y", "junk2")))
        flow.add(Extraction("le", columns=("k", "x", "junk")))
        flow.add(Extraction("re", columns=("k", "y", "junk2")))
        flow.connect("left", "le")
        flow.connect("right", "re")
        flow.add(Join("join", left_keys=("k",), right_keys=("k",)))
        flow.connect("le", "join")
        flow.connect("re", "join")
        flow.add(Aggregation(
            "agg", group_by=("x",),
            aggregates=(AggregationSpec("n", "COUNT", "y"),),
        ))
        flow.connect("join", "agg")
        flow.add(Loader("load", table="out"))
        flow.connect("agg", "load")
        pruned = prune_columns(flow)
        assert set(pruned.node("le").columns) == {"k", "x"}
        assert set(pruned.node("re").columns) == {"k", "y"}
        propagate(pruned, None)

    def test_derive_inputs_survive(self):
        flow = EtlFlow("d")
        flow.chain(
            Datastore("src", table="t", columns=("a", "b", "unused")),
            Extraction("ext", columns=("a", "b", "unused")),
            DerivedAttribute("der", output="c", expression="a + b"),
            Aggregation(
                "agg", group_by=(),
                aggregates=(AggregationSpec("s", "COUNT", "c"),),
            ),
            Loader("load", table="out"),
        )
        pruned = prune_columns(flow)
        assert set(pruned.node("ext").columns) == {"a", "b"}

    def test_selection_predicate_attrs_survive(self):
        flow = EtlFlow("s")
        flow.chain(
            Datastore("src", table="t", columns=("a", "filter_col", "junk")),
            Extraction("ext", columns=("a", "filter_col", "junk")),
            Selection("sel", predicate="filter_col = 'x'"),
            Aggregation(
                "agg", group_by=("a",),
                aggregates=(AggregationSpec("n", "COUNT", "a"),),
            ),
            Loader("load", table="out"),
        )
        pruned = prune_columns(flow)
        assert set(pruned.node("ext").columns) == {"a", "filter_col"}
