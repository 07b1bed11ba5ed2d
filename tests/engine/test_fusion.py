"""Fused chains and columnar operators against their references.

The columnar engine runs each maximal Selection/Projection/Extraction/
DerivedAttribute/Rename chain as one fused pass
(:mod:`repro.engine.fusion`).  Fusion must change nothing observable:
the fused run, the node-by-node run (``keep_intermediate=True`` turns
fusion off) and the legacy row-at-a-time interpreter load the same
rows in the same order, report the same per-node row counts and fail
with the same errors.  Each check runs once per columnar path,
``fused`` and ``nodes`` (node by node), against the legacy reference.
The operator tests pin the columnar kernels to the legacy interpreter
on the corner cases: duplicate and NULL join keys, outer-join NULL
placement, multi-key joins, group order and float bits, sort
stability.
"""

import random

import pytest

from repro.engine import Database, Executor, TableDef
from repro.engine.fusion import build_chain_spec, compile_chain_spec
from repro.errors import ExecutionError
from repro.etlmodel import (
    Aggregation,
    AggregationSpec,
    Datastore,
    DerivedAttribute,
    Distinct,
    EtlFlow,
    Join,
    JoinType,
    Loader,
    Projection,
    Selection,
    Sort,
)
from repro.expressions import ScalarType

from tests.etlmodel.conftest import build_revenue_flow

INT = ScalarType.INTEGER
STR = ScalarType.STRING
DEC = ScalarType.DECIMAL

ROWS = 503


@pytest.fixture(params=[False, True], ids=["fused", "nodes"])
def keep_intermediate(request):
    """The columnar path under test: fused chains, or node by node."""
    return request.param


def make_database(rows: int = ROWS) -> Database:
    rng = random.Random(11)
    database = Database()
    database.create_table(
        TableDef(
            "facts",
            {"k": INT, "fk": INT, "cat": STR, "amount": DEC},
        )
    )
    database.insert_many(
        "facts",
        [
            {
                "k": index,
                "fk": rng.randrange(40) if rng.random() > 0.1 else None,
                "cat": rng.choice(["a", "b", "c", None]),
                "amount": (
                    rng.uniform(-50, 50) if rng.random() > 0.1 else None
                ),
            }
            for index in range(rows)
        ],
    )
    database.create_table(TableDef("dims", {"dk": INT, "label": STR}))
    database.insert_many(
        "dims",
        # Duplicate keys included: the join must fan out identically.
        [{"dk": value % 30, "label": f"L{value}"} for value in range(35)],
    )
    return database


def run_pair(build_flow, keep_intermediate, make_db=make_database):
    """Execute a flow on legacy, then on columnar, on fresh databases."""
    outcomes = []
    for mode, keep in (
        ("legacy", False),
        ("columnar", keep_intermediate),
    ):
        database = make_db()
        try:
            Executor(database, mode=mode).execute(
                build_flow(), keep_intermediate=keep
            )
        except ExecutionError as exc:
            outcomes.append(("error", str(exc)))
            continue
        relation = database.scan("out")
        outcomes.append(
            (
                "ok",
                relation.attribute_names(),
                [sorted(row.items()) for row in relation.rows],
            )
        )
    return outcomes


def assert_identical(build_flow, keep_intermediate, make_db=make_database):
    reference, outcome = run_pair(build_flow, keep_intermediate, make_db)
    assert outcome == reference


def filter_projection_flow():
    flow = EtlFlow("t")
    flow.chain(
        Datastore("src", table="facts"),
        Selection("sel", predicate="amount > 0"),
        Projection("proj", columns=("k", "amount")),
        Loader("load", table="out"),
    )
    return flow


class TestFusedChains:
    def test_filter_chain_derive_projection(self, keep_intermediate):
        def build():
            flow = EtlFlow("t")
            flow.chain(
                Datastore("src", table="facts"),
                Selection("sel", predicate="amount > 0"),
                DerivedAttribute(
                    "der", output="double", expression="amount * 2"
                ),
                Projection("proj", columns=("k", "cat", "double")),
                Loader("load", table="out"),
            )
            return flow

        assert_identical(build, keep_intermediate)

    def test_chain_spec_is_compacted_to_read_set(self):
        database = make_database(rows=20)
        relation = database.scan_columns("facts")  # k, fk, cat, amount
        spec = build_chain_spec(
            filter_projection_flow(), ["sel", "proj"], relation
        )
        # fk and cat are neither read by the filter nor kept by the
        # projection: the fused pass must not zip them at all.
        assert spec.input_names == ("k", "amount")
        assert dict(spec.output_schema).keys() == {"k", "amount"}
        ((kind, text, positions, counter),) = spec.steps
        assert kind == "filter"
        assert positions == (1,)  # amount, renumbered into the read-set
        assert spec.output_positions == (0, 1)

    def test_compacted_chain_matches_node_by_node(self):
        assert_identical(filter_projection_flow, keep_intermediate=True)
        assert_identical(filter_projection_flow, keep_intermediate=False)

    def test_filter_counts_match_node_by_node(self, keep_intermediate):
        flow = filter_projection_flow()
        reference = Executor(make_database(), mode="legacy").execute(flow)
        stats = Executor(make_database()).execute(
            flow, keep_intermediate=keep_intermediate
        )
        for name in ("sel", "proj", "load"):
            assert (
                stats.node(name).output_rows
                == reference.node(name).output_rows
            )
        assert stats.node("sel").output_rows < ROWS

    def test_repeated_executions_reuse_the_compiled_chain(self):
        executor = Executor(make_database())
        executor.execute(filter_projection_flow())
        hits = compile_chain_spec.cache_info().hits
        executor.execute(filter_projection_flow())
        assert compile_chain_spec.cache_info().hits == hits + 1

    def test_filter_keeping_every_row_is_zero_copy(self):
        executor = Executor(make_database(rows=10))
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="facts"),
            Selection("sel", predicate="k >= 0"),
            Loader("load", table="out"),
        )
        executor.execute(flow, keep_intermediate=True)
        # All rows kept: the filter returns its input relation unchanged.
        assert executor.relations["sel"] is executor.relations["src"]


class TestOperatorEquivalence:
    def test_join_with_duplicates_and_null_keys(self, keep_intermediate):
        def build():
            flow = EtlFlow("t")
            flow.add(Datastore("facts", table="facts"))
            flow.add(Datastore("dims", table="dims"))
            flow.add(
                Join(
                    "join", left_keys=("fk",), right_keys=("dk",)
                )
            )
            flow.connect("facts", "join")
            flow.connect("dims", "join")
            flow.add(Loader("load", table="out"))
            flow.connect("join", "load")
            return flow

        assert_identical(build, keep_intermediate)

    def test_left_outer_join_null_placement(self, keep_intermediate):
        def build():
            flow = EtlFlow("t")
            flow.add(Datastore("facts", table="facts"))
            flow.add(Datastore("dims", table="dims"))
            flow.add(
                Join(
                    "join",
                    left_keys=("fk",),
                    right_keys=("dk",),
                    join_type=JoinType.LEFT,
                )
            )
            flow.connect("facts", "join")
            flow.connect("dims", "join")
            flow.add(Loader("load", table="out"))
            flow.connect("join", "load")
            return flow

        assert_identical(build, keep_intermediate)

    def test_multi_key_join(self, keep_intermediate):
        def build():
            flow = EtlFlow("t")
            flow.add(Datastore("left", table="facts"))
            flow.add(
                Projection("lp", columns=("k", "fk", "cat"))
            )
            flow.connect("left", "lp")
            flow.add(Datastore("right", table="facts"))
            flow.add(
                Projection("rp", columns=("fk", "cat", "amount"))
            )
            flow.connect("right", "rp")
            flow.add(
                Join(
                    "join",
                    left_keys=("fk", "cat"),
                    right_keys=("fk", "cat"),
                )
            )
            flow.connect("lp", "join")
            flow.connect("rp", "join")
            flow.add(Loader("load", table="out"))
            flow.connect("join", "load")
            return flow

        assert_identical(build, keep_intermediate)

    def test_aggregation_group_order_and_float_bits(self, keep_intermediate):
        def build():
            flow = EtlFlow("t")
            flow.chain(
                Datastore("src", table="facts"),
                Aggregation(
                    "agg",
                    group_by=("cat", "fk"),
                    aggregates=(
                        AggregationSpec("SUM", "amount", "total"),
                        AggregationSpec("AVERAGE", "amount", "mean"),
                        AggregationSpec("COUNT", "k", "n"),
                        AggregationSpec("MIN", "k", "low"),
                    ),
                ),
                Loader("load", table="out"),
            )
            return flow

        # Exact equality on unrounded float sums and means.
        assert_identical(build, keep_intermediate)

    def test_global_aggregate_single_row(self, keep_intermediate):
        def build():
            flow = EtlFlow("t")
            flow.chain(
                Datastore("src", table="facts"),
                Aggregation(
                    "agg",
                    group_by=(),
                    aggregates=(
                        AggregationSpec("SUM", "amount", "total"),
                    ),
                ),
                Loader("load", table="out"),
            )
            return flow

        assert_identical(build, keep_intermediate)

    def test_sort_stability_and_distinct(self, keep_intermediate):
        def build():
            flow = EtlFlow("t")
            flow.chain(
                Datastore("src", table="facts"),
                Projection("proj", columns=("cat", "fk")),
                Distinct("dis"),
                Sort("sort", keys=("cat",)),
                Loader("load", table="out"),
            )
            return flow

        assert_identical(build, keep_intermediate)

    def test_revenue_flow_end_to_end(self, keep_intermediate):
        from repro.sources import tpch

        def run(mode, keep):
            database = Database("tpch")
            database.load_source(
                tpch.schema(), tpch.generate(scale_factor=0.3, seed=77)
            )
            Executor(database, mode=mode).execute(
                build_revenue_flow(), keep_intermediate=keep
            )
            target = database.scan("fact_table_revenue")
            return [sorted(row.items()) for row in target.rows]

        reference = run("legacy", False)
        assert reference
        assert run("columnar", keep_intermediate) == reference


class TestErrorParity:
    def test_chain_error_matches_node_by_node(self, keep_intermediate):
        # "amount + cat" fails on the first surviving row; the fused
        # chain falls back to the per-node path to reproduce the exact
        # failure of the unfused engine.
        def build():
            flow = EtlFlow("t")
            flow.chain(
                Datastore("src", table="facts"),
                Selection("sel", predicate="amount > 0"),
                DerivedAttribute(
                    "der", output="bad", expression="amount + cat"
                ),
                Loader("load", table="out"),
            )
            return flow

        reference, outcome = run_pair(build, keep_intermediate)
        assert reference[0] == "error"
        assert outcome == reference

    def test_unhashable_join_key_message_matches_legacy(
        self, keep_intermediate
    ):
        # list-valued keys are unhashable: both engines must report the
        # same full-column scan message.  The strict database rejects
        # lists on insert, so the fuzzer's loose duck-type carries them
        # to the operators.
        from repro.fuzz.datagen import LooseDatabase, TableSpec

        def make_db():
            return LooseDatabase.from_specs(
                [
                    TableSpec(
                        "facts",
                        {"k": INT, "fk": INT},
                        [
                            {"k": i, "fk": [i] if i == 37 else i}
                            for i in range(60)
                        ],
                    ),
                    TableSpec(
                        "dims",
                        {"dk": INT, "v": INT},
                        [{"dk": i, "v": i * 10} for i in range(40)],
                    ),
                ]
            )

        def build():
            flow = EtlFlow("t")
            flow.add(Datastore("facts", table="facts"))
            flow.add(Datastore("dims", table="dims"))
            flow.add(Join("join", left_keys=("fk",), right_keys=("dk",)))
            flow.connect("facts", "join")
            flow.connect("dims", "join")
            flow.add(Loader("load", table="out"))
            flow.connect("join", "load")
            return flow

        reference, outcome = run_pair(build, keep_intermediate, make_db)
        assert reference[0] == "error"
        assert outcome == reference
