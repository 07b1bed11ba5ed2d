"""The generated SQL, run on stdlib ``sqlite3`` and checked against the engine.

The Design Deployer's DDL and the OLAP interface's SELECT statements
are text; these tests execute them on SQLite.  The generated
sqlite-dialect DDL must create the star with its declared keys, and
every rendered OLAP query must return exactly the groups
:func:`repro.engine.query_star` computes, with float measures equal to
``math.isclose(rel_tol=1e-9)``.
"""

import datetime
import math
import sqlite3

import pytest

from repro.core.deployer import ddl
from repro.engine import Database, OlapQuery, TableDef, query_star
from repro.expressions import ScalarType

STR = ScalarType.STRING
DEC = ScalarType.DECIMAL


@pytest.fixture
def star_db():
    database = Database()
    database.create_table(
        TableDef(
            "fact_sales",
            {"p_name": STR, "region": STR, "revenue": DEC},
        )
    )
    database.insert_many(
        "fact_sales",
        [
            {"p_name": "bolt", "region": "EU", "revenue": 10.0},
            {"p_name": "bolt", "region": "EU", "revenue": 30.0},
            {"p_name": "bolt", "region": "US", "revenue": 7.0},
            {"p_name": "nut", "region": "EU", "revenue": 5.0},
            {"p_name": "nut", "region": "US", "revenue": None},
        ],
    )
    return database


def _revenue_design():
    from repro.core.interpreter import Interpreter
    from repro.sources import tpch
    from tests.core.conftest import build_revenue_requirement

    return Interpreter(
        tpch.ontology(), tpch.schema(), tpch.mappings()
    ).interpret(build_revenue_requirement())


def _copy_tables(connection, database, tables, create=True):
    """Copy engine tables into SQLite, optionally creating them first."""
    for table in tables:
        names = list(database.table_def(table).columns)
        if create:
            connection.execute(f'CREATE TABLE "{table}" ({", ".join(names)})')
        connection.executemany(
            f'INSERT INTO "{table}" VALUES ({", ".join("?" for _ in names)})',
            [
                tuple(
                    value.isoformat()
                    if isinstance(value, datetime.date)
                    else value
                    for value in (row[name] for name in names)
                )
                for row in database.scan(table).rows
            ],
        )


def _sqlite_of(database, tables):
    connection = sqlite3.connect(":memory:")
    _copy_tables(connection, database, tables)
    return connection


def _answer(connection, sql):
    cursor = connection.execute(sql)
    names = [column[0] for column in cursor.description]
    return [dict(zip(names, row)) for row in cursor.fetchall()]


def assert_same_answer(query, sql_rows, engine_rows):
    """Same groups exactly; measures equal, floats to ``rel_tol=1e-9``."""

    def by_group(rows):
        return {tuple(row[key] for key in query.group_by): row for row in rows}

    sql_groups, engine_groups = by_group(sql_rows), by_group(engine_rows)
    assert len(sql_groups) == len(sql_rows)
    assert sql_groups.keys() == engine_groups.keys()
    for group, expected in engine_groups.items():
        got = sql_groups[group]
        assert got.keys() == expected.keys(), group
        for name, value in expected.items():
            if isinstance(value, float):
                assert isinstance(got[name], (int, float)), (group, name)
                assert math.isclose(got[name], value, rel_tol=1e-9), (
                    group, name, got[name], value,
                )
            else:
                assert got[name] == value, (group, name, got[name], value)


def _check(database, query):
    connection = _sqlite_of(database, [query.fact_table])
    sql_rows = _answer(connection, query.to_sql("sqlite"))
    engine_rows = query_star(database, query).rows
    assert_same_answer(query, sql_rows, engine_rows)
    return sql_rows


class TestDdlOnSqlite:
    def test_generated_ddl_creates_tables(self):
        design = _revenue_design()
        connection = sqlite3.connect(":memory:")
        connection.executescript(
            ddl.generate(design.md_schema, dialect="sqlite")
        )
        created = {
            name
            for (name,) in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        assert created == {"dim_Part", "dim_Supplier", "fact_table_revenue"}
        columns = {
            name: (declared, key_position)
            for __, name, declared, __, __, key_position in connection.execute(
                "PRAGMA table_info(fact_table_revenue)"
            )
        }
        assert columns["revenue"] == ("REAL", 0)
        assert columns["p_name"] == ("TEXT", 1)
        assert columns["s_name"] == ("TEXT", 2)

    def test_created_tables_enforce_keys(self):
        design = _revenue_design()
        connection = sqlite3.connect(":memory:")
        connection.executescript(
            ddl.generate(design.md_schema, dialect="sqlite")
        )
        insert = (
            "INSERT INTO fact_table_revenue (p_name, s_name, revenue) "
            "VALUES (?, ?, ?)"
        )
        connection.execute(insert, ("bolt", "acme", 1.0))
        with pytest.raises(sqlite3.IntegrityError):
            connection.execute(insert, ("bolt", "acme", 2.0))


class TestOlapSqlOnSqlite:
    def test_group_keys_only(self, star_db):
        query = OlapQuery(fact_table="fact_sales", group_by=["p_name", "region"])
        assert len(_check(star_db, query)) == 4

    def test_where_filters(self, star_db):
        query = OlapQuery(
            fact_table="fact_sales",
            group_by=["p_name"],
            aggregates=[("COUNT", "revenue", "n")],
            slicer="region = 'EU'",
        )
        rows = _check(star_db, query)
        assert {row["p_name"]: row["n"] for row in rows} == {"bolt": 2, "nut": 1}

    def test_group_by_with_aggregates(self, star_db):
        query = OlapQuery(
            fact_table="fact_sales",
            group_by=["p_name"],
            aggregates=[("SUM", "revenue", "total"), ("COUNT", "revenue", "n")],
        )
        rows = _check(star_db, query)
        assert rows == [
            {"p_name": "bolt", "total": 47.0, "n": 3},
            {"p_name": "nut", "total": 5.0, "n": 1},
        ]

    def test_avg_translated(self, star_db):
        query = OlapQuery(
            fact_table="fact_sales",
            group_by=["region"],
            aggregates=[("AVERAGE", "revenue", "a")],
        )
        assert "AVG(revenue)" in query.to_sql("sqlite")
        rows = _check(star_db, query)
        assert {row["region"]: row["a"] for row in rows} == {
            "EU": pytest.approx(15.0),
            "US": pytest.approx(7.0),
        }

    def test_global_aggregate(self, star_db):
        query = OlapQuery(
            fact_table="fact_sales", aggregates=[("COUNT", "revenue", "n")]
        )
        assert _check(star_db, query) == [{"n": 4}]

    def test_sql_not_equal_spelling(self, star_db):
        query = OlapQuery(
            fact_table="fact_sales",
            group_by=["p_name"],
            aggregates=[("SUM", "revenue", "total")],
            slicer="region != 'EU'",
        )
        assert "<>" in query.to_sql("sqlite")
        assert [row["p_name"] for row in _check(star_db, query)] == [
            "bolt", "nut",
        ]

    def test_rendered_sql_computes_same_answer(self, star_db):
        _check(
            star_db,
            OlapQuery(
                fact_table="fact_sales",
                group_by=["p_name"],
                aggregates=[("SUM", "revenue", "total")],
                slicer="region = 'EU'",
            ),
        )

    def test_wrong_answer_is_detected(self, star_db):
        query = OlapQuery(
            fact_table="fact_sales",
            group_by=["p_name"],
            aggregates=[("SUM", "revenue", "total")],
            slicer="region = 'EU'",
        )
        unsliced = OlapQuery(
            fact_table="fact_sales",
            group_by=["p_name"],
            aggregates=[("SUM", "revenue", "total")],
        )
        connection = _sqlite_of(star_db, ["fact_sales"])
        with pytest.raises(AssertionError):
            assert_same_answer(
                query,
                _answer(connection, unsliced.to_sql("sqlite")),
                query_star(star_db, query).rows,
            )

    def test_against_deployed_warehouse(self):
        from repro import Quarry
        from repro.sources import tpch
        from tests.core.conftest import build_netprofit_requirement

        quarry = Quarry(tpch.ontology(), tpch.schema(), tpch.mappings())
        quarry.add_requirement(build_netprofit_requirement())
        database = Database()
        database.load_source(tpch.schema(), tpch.generate(0.2, seed=6))
        quarry.deploy("native", source_database=database)
        md_schema, __ = quarry.unified_design()

        connection = sqlite3.connect(":memory:")
        connection.executescript(ddl.generate(md_schema, dialect="sqlite"))
        star = [
            name
            for (name,) in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        ]
        assert "fact_table_netprofit" in star
        _copy_tables(connection, database, star, create=False)

        query = OlapQuery(
            fact_table="fact_table_netprofit",
            group_by=["p_brand"],
            aggregates=[("SUM", "netprofit", "total")],
        )
        sql_rows = _answer(connection, query.to_sql("sqlite"))
        assert len(sql_rows) > 0
        assert_same_answer(query, sql_rows, query_star(database, query).rows)
