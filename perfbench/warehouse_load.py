"""``warehouse_load``: repeated native deploys of one fixed design, each
followed by a dashboard of star queries.

Set-up builds the seeded design (REQUIREMENTS corpus requirements, see
``common.stratified_requirements``), generates TPC-H at SCALE_FACTOR
(with DATA_SEED) and loads it.  Each round then runs
``deploy("native")`` (lint gate, DDL, ETL on the engine, in the
product's default ``columnar`` mode) and one ``query_star`` per fact
table, joined to its dimensions.  ETL writes and OLAP reads alternate
on the same star.

The reference is computed once at set-up through an independent path:
the unpruned unified flow run by the ``legacy`` row executor into a
second database, and the dashboard answers computed from that star by
plain Python in this file.  Every round's star tables (as row
multisets) and answers must equal it.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from collections import Counter
from contextlib import nullcontext

from repro import Quarry
from repro.core.deployer import ddl
from repro.engine import Database, Executor, olap
from repro.engine.olap import OlapQuery
from repro.sources import tpch

from benchmarks._workloads import ROW_COUNTS
from common import (
    Clock, median_setup, peak_rss_mb, report_latencies, Result,
    stratified_requirements,
)

SCALE_FACTOR = 8.0
POOL = 30
REQUIREMENTS = 14

METRICS = {
    "op_p50_ms": ("load.deploy_p50_ms", "deploy", 0.5),
    "op_p90_ms": ("load.deploy_p90_ms", "deploy", 0.9),
    "aux1_ms": ("query.dashboard_p50_ms", "dashboard", 0.5),
    "aux2_ms": ("query.dashboard_p90_ms", "dashboard", 0.9),
    "aux3_ms": ("load.round_p50_ms", "round", 0.5),
}


#: The generator's own default data seed, for every run: at this scale
#: the data seed alone moves the Spain-sliced revenue fact between 192
#: and 1701 rows, which would make the deploy work depend on the seed.
DATA_SEED = 20150323


def make_inputs(seed: int):
    """The seeded requirements (see ``stratified_requirements``) and the
    TPC-H data seed."""
    rng = random.Random(seed)
    return stratified_requirements(rng, REQUIREMENTS, POOL), DATA_SEED


def build(requirements, data_seed):
    """The program-side set-up: design, source data, loaded database."""
    quarry = Quarry(
        tpch.ontology(), tpch.schema(), tpch.mappings(), row_counts=ROW_COUNTS
    )
    for requirement in requirements:
        quarry.add_requirement(requirement)
    data = tpch.generate(SCALE_FACTOR, seed=data_seed)
    database = Database()
    database.load_source(tpch.schema(), data)
    return quarry, data, database


def star_tables(md_schema):
    return [
        ddl.dimension_table_name(d) for d in md_schema.dimensions.values()
    ] + list(md_schema.facts)


def quantize(value):
    if isinstance(value, float):
        return float(f"{value:.9g}")
    return value


def multiset(rows):
    return Counter(
        tuple(sorted((k, quantize(v)) for k, v in row.items())) for row in rows
    )


def dashboard(md_schema, reference):
    """One star query per fact: its measures rolled up along the
    attributes of every dimension it joins on a unique key."""
    queries = []
    for fact in md_schema.facts.values():
        joins, group_by = [], []
        for link in fact.links:
            dimension = md_schema.dimension(link.dimension)
            key = dimension.level(link.level).key
            table = ddl.dimension_table_name(dimension)
            keys = [row[key] for row in reference.scan(table).rows]
            if key not in fact.grain or len(set(keys)) != len(keys):
                continue
            joins.append((table, key, key))
            group_by.extend(
                column for column in ddl.dimension_columns(dimension)
                if column != key and column not in fact.grain
                and column not in group_by
            )
        if not group_by:
            group_by = list(dict.fromkeys(fact.grain))[:1]
        aggregates = [
            (function, measure, f"{function.lower()}_{measure}")
            for measure in fact.measures
            for function in ("SUM", "MAX", "COUNT")
        ]
        queries.append(
            OlapQuery(
                fact_table=fact.name,
                group_by=group_by[:2],
                aggregates=aggregates,
                joins=joins,
            )
        )
    return queries


def reference_answer(database, query):
    """``query`` answered by plain Python: {group key: aggregates}."""
    rows = [dict(row) for row in database.scan(query.fact_table).rows]
    for table, fact_column, key in query.joins:
        index = {row[key]: row for row in database.scan(table).rows}
        joined = []
        for row in rows:
            match = index.get(row[fact_column])
            if match is not None:
                joined.append({**match, **row})
        rows = joined
    groups = {}
    for row in rows:
        groups.setdefault(
            tuple(row[c] for c in query.group_by), []
        ).append(row)
    answer = {}
    for key, members in groups.items():
        values = []
        for function, column, __ in query.aggregates:
            present = [m[column] for m in members if m[column] is not None]
            if function == "COUNT":
                values.append(len(present))
            elif function == "SUM":
                values.append(sum(present) if present else None)
            else:
                values.append(max(present) if present else None)
        answer[key] = values
    return answer


def same_answer(relation, query, expected) -> bool:
    if len(relation.rows) != len(expected):
        return False
    for row in relation.rows:
        key = tuple(row[c] for c in query.group_by)
        if key not in expected:
            return False
        for (__, __, alias), want in zip(query.aggregates, expected[key]):
            got = row[alias]
            if isinstance(want, float) or isinstance(got, float):
                if got is None or want is None or not math.isclose(
                    got, want, rel_tol=1e-9, abs_tol=1e-9
                ):
                    return False
            elif got != want:
                return False
    return True


def check_round(
    database, tables, expected_star, queries, answers, expected_answers,
    deployed, result, rounds,
) -> None:
    """The correctness gate of one round, outside the timed calls."""
    for table in tables:
        result.check(
            multiset(database.scan(table).rows) == expected_star[table],
            f"round {rounds}: star table {table} differs from reference",
        )
    for query, answer, expected in zip(queries, answers, expected_answers):
        result.check(
            same_answer(answer, query, expected),
            f"round {rounds}: dashboard on {query.fact_table} differs",
        )
    result.check(
        set(deployed.stats.loaded) >= set(tables),
        f"round {rounds}: not every star table was loaded",
    )


def run(seed: int, seconds: float, layers=None) -> Result:
    result = Result("warehouse_load")
    requirements, data_seed = make_inputs(seed)
    setup_s, (quarry, data, database) = median_setup(
        lambda: build(requirements, data_seed)
    )

    # The independent reference: legacy executor, unpruned flow.
    md_schema, etl_flow = quarry.unified_design()
    reference = Database()
    reference.load_source(tpch.schema(), data)
    Executor(reference, mode="legacy").execute(etl_flow)
    tables = star_tables(md_schema)
    expected_star = {t: multiset(reference.scan(t).rows) for t in tables}
    queries = dashboard(md_schema, reference)
    expected_answers = [reference_answer(reference, q) for q in queries]
    del reference, data
    source_rows = sum(
        len(database.scan(table).rows) for table in tpch.schema().table_names()
    )

    clock = Clock()
    traced_clock = Clock()
    rounds = 0
    tracing = False
    started = time.perf_counter()
    deadline = started + seconds
    # A traced run measures its first third untraced, for the overhead.
    trace_from = started + seconds / 3.0
    while (
        rounds < 2
        or time.perf_counter() < deadline
        or (layers is not None and not traced_clock.samples)
    ):
        if layers is not None and not tracing and (
            rounds >= 2 and time.perf_counter() >= trace_from
        ):
            layers.install()
            tracing = True
        measure = traced_clock if tracing else clock
        operation = layers.operation if tracing else lambda kind: nullcontext()
        result.attempted += 1 + len(queries)
        round_started = time.perf_counter()
        with operation("deploy"), measure.time("deploy"):
            deployed = quarry.deploy("native", source_database=database)
        with operation("dashboard"), measure.time("dashboard"):
            answers = [olap.query_star(database, q) for q in queries]
        measure.add("round", time.perf_counter() - round_started)
        rounds += 1
        with layers.recorder.paused() if tracing else nullcontext():
            check_round(
                database, tables, expected_star, queries, answers,
                expected_answers, deployed, result, rounds,
            )
    if layers is not None:
        layers.recorder.restore()

    result.metric("setup_s", setup_s, "s")
    result.metric("peak_rss_mb", peak_rss_mb(), "MB")
    result.say(
        f"warehouse_load: seed {seed}, {rounds} rounds, SF {SCALE_FACTOR} "
        f"({source_rows} source rows), {REQUIREMENTS} requirements, "
        f"{len(md_schema.facts)} facts, {len(queries)} dashboard queries"
    )
    if layers is not None:
        untraced = statistics.mean(clock.samples["round"])
        traced = statistics.mean(traced_clock.samples["round"])
        layers.extra["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
        layers.extra["etlmodel.unified_flow_nodes"] = len(etl_flow)
        result.say(
            f"  tracing overhead: {traced * 1000:.1f} ms per traced round "
            f"against {untraced * 1000:.1f} ms untraced"
        )
        layers.report(result)
        return result
    report_latencies(result, clock, METRICS)
    deploy_seconds = sum(clock.samples["deploy"])
    rate = source_rows * len(clock.samples["deploy"]) / deploy_seconds
    result.metric("rate_per_s", rate, "1/s")
    result.say(f"  {'load.source_rows_per_s':<32} {rate:10.0f} 1/s")
    return result
