"""Pure-SQL rendering of an ETL flow (INSERT INTO ... SELECT).

For platforms without an ETL engine, the registry's ``sql`` exporter
renders each loader's upstream as a chain of common table expressions:

.. code-block:: sql

    TRUNCATE TABLE fact_table_revenue;  -- DELETE FROM ... on sqlite
    WITH "DATASTORE_lineitem" AS (SELECT ... FROM lineitem),
         ...
    INSERT INTO fact_table_revenue SELECT * FROM "AGG_fact_table_revenue";

One statement group per loader, covering exactly its upstream closure.
"""

from __future__ import annotations

from typing import List

from repro.engine.sqlgen import (
    check_dialect,
    sql_expression,
    sql_identifier,
    sql_literal,
)
from repro.errors import DeploymentError
from repro.etlmodel.flow import EtlFlow
from repro.etlmodel.ops import (
    Aggregation,
    Datastore,
    DerivedAttribute,
    Distinct,
    Extraction,
    Join,
    Loader,
    Operation,
    Projection,
    Rename,
    SCDType,
    SCDUpdate,
    Selection,
    Sort,
    SurrogateKey,
    UnionOp,
)
from repro.etlmodel.propagation import attribute_names
from repro.expressions import parse
from repro.mdmodel.model import (
    SCD2_IS_CURRENT,
    SCD2_VALID_FROM,
    SCD2_VALID_TO,
    SCD2_VERSION,
)


def generate(flow: EtlFlow, dialect: str = "postgres") -> str:
    """Render the whole flow as a SQL script (one block per loader)."""
    check_dialect(dialect)
    blocks: List[str] = []
    for sink in flow.sinks():
        operation = flow.node(sink)
        if not isinstance(operation, Loader):
            raise DeploymentError(
                f"flow sink {sink!r} is not a loader; cannot render as SQL"
            )
        blocks.append(_loader_block(flow, operation, dialect))
    return "\n\n".join(blocks) + "\n"


def _loader_block(flow: EtlFlow, loader: Loader, dialect: str) -> str:
    final_input = flow.inputs(loader.name)[0]
    final_operation = flow.node(final_input)
    if isinstance(final_operation, SCDUpdate):
        return _scd_block(flow, loader, final_operation, dialect)
    upstream = flow.upstream(loader.name)
    order = [name for name in flow.topological_order() if name in upstream]
    ctes = []
    for name in order:
        select = _render_node(flow, flow.node(name), dialect)
        ctes.append(f"{sql_identifier(name)} AS (\n  {select}\n)")
    lines = []
    if loader.mode == "replace":
        # SQLite has no TRUNCATE; an unqualified DELETE is its equivalent.
        empty = "DELETE FROM" if dialect == "sqlite" else "TRUNCATE TABLE"
        lines.append(f"{empty} {sql_identifier(loader.table)};")
    lines.append("WITH " + ",\n".join(ctes))
    lines.append(
        f"INSERT INTO {sql_identifier(loader.table)} "
        f"SELECT * FROM {sql_identifier(final_input)};"
    )
    return "\n".join(lines)


def _scd_ctes(flow: EtlFlow, operation: SCDUpdate, dialect: str) -> str:
    """The WITH chain rendering everything upstream of the SCD merge."""
    upstream = flow.upstream(operation.name) - {operation.name}
    order = [name for name in flow.topological_order() if name in upstream]
    ctes = []
    for name in order:
        select = _render_node(flow, flow.node(name), dialect)
        ctes.append(f"{sql_identifier(name)} AS (\n  {select}\n)")
    return "WITH " + ",\n".join(ctes)


def _scd_block(
    flow: EtlFlow, loader: Loader, operation: SCDUpdate, dialect: str
) -> str:
    """Render an SCD merge as its canonical in-place SQL.

    Unlike the engine (which re-emits the full post-merge contents for
    a replace-mode load), the SQL export mutates the target directly —
    type1 as update-in-place plus insert-of-new, type2 as close-old-row
    plus open-new-row — so the target is **not** truncated.
    """
    names = attribute_names(flow).get(flow.inputs(operation.name)[0])
    if names is None:
        raise DeploymentError(
            f"scd update {operation.name!r}: input attribute names are "
            f"statically unknown; cannot render as SQL"
        )
    keys = list(operation.business_keys)
    descriptors = sorted(names - set(keys))
    target = sql_identifier(loader.table)
    incoming = sql_identifier(flow.inputs(operation.name)[0])
    ctes = _scd_ctes(flow, operation, dialect)
    key_match = " AND ".join(
        f"i.{sql_identifier(key)} = {target}.{sql_identifier(key)}"
        for key in keys
    )
    if operation.policy == SCDType.TYPE1:
        sets = ",\n    ".join(
            f"{sql_identifier(name)} = (SELECT i.{sql_identifier(name)} "
            f"FROM {incoming} i WHERE {key_match})"
            for name in descriptors
        )
        update = (
            f"{ctes}\n"
            f"UPDATE {target} SET\n    {sets}\n"
            f"WHERE EXISTS (SELECT 1 FROM {incoming} i WHERE {key_match});"
        )
        insert_columns = ", ".join(
            sql_identifier(name) for name in keys + descriptors
        )
        select_columns = ", ".join(
            f"i.{sql_identifier(name)}" for name in keys + descriptors
        )
        key_match_d = " AND ".join(
            f"i.{sql_identifier(key)} = d.{sql_identifier(key)}"
            for key in keys
        )
        insert = (
            f"{ctes}\n"
            f"INSERT INTO {target} ({insert_columns})\n"
            f"SELECT {select_columns} FROM {incoming} i\n"
            f"WHERE NOT EXISTS (SELECT 1 FROM {target} d "
            f"WHERE {key_match_d});"
        )
        return "\n".join([update, insert])
    effective = sql_literal(operation.effective_date)
    changed = " OR ".join(
        f"NOT i.{sql_identifier(name)} = {target}.{sql_identifier(name)}"
        for name in descriptors
    ) or "FALSE"
    close = (
        f"{ctes}\n"
        f"UPDATE {target} SET\n"
        f"    {sql_identifier(SCD2_VALID_TO)} = {effective},\n"
        f"    {sql_identifier(SCD2_IS_CURRENT)} = FALSE\n"
        f"WHERE {sql_identifier(SCD2_IS_CURRENT)} = TRUE\n"
        f"  AND EXISTS (SELECT 1 FROM {incoming} i "
        f"WHERE {key_match} AND ({changed}));"
    )
    key_match_d = " AND ".join(
        f"i.{sql_identifier(key)} = d.{sql_identifier(key)}" for key in keys
    )
    same = " AND ".join(
        f"i.{sql_identifier(name)} = d.{sql_identifier(name)}"
        for name in descriptors
    ) or "TRUE"
    insert_columns = ", ".join(
        [sql_identifier(name) for name in keys + descriptors]
        + [
            sql_identifier(SCD2_VERSION),
            sql_identifier(SCD2_VALID_FROM),
            sql_identifier(SCD2_VALID_TO),
            sql_identifier(SCD2_IS_CURRENT),
        ]
    )
    select_columns = ", ".join(
        f"i.{sql_identifier(name)}" for name in keys + descriptors
    )
    open_new = (
        f"{ctes}\n"
        f"INSERT INTO {target} ({insert_columns})\n"
        f"SELECT {select_columns},\n"
        f"    COALESCE((SELECT MAX(d.{sql_identifier(SCD2_VERSION)}) "
        f"FROM {target} d WHERE {key_match_d}), 0) + 1,\n"
        f"    {effective}, NULL, TRUE\n"
        f"FROM {incoming} i\n"
        f"WHERE NOT EXISTS (SELECT 1 FROM {target} d\n"
        f"  WHERE {key_match_d} AND d.{sql_identifier(SCD2_IS_CURRENT)} = "
        f"TRUE AND {same});"
    )
    return "\n".join([close, open_new])


def _render_node(flow: EtlFlow, operation: Operation, dialect: str) -> str:
    inputs = [sql_identifier(name) for name in flow.inputs(operation.name)]
    if isinstance(operation, Datastore):
        columns = (
            ", ".join(sql_identifier(c) for c in operation.columns)
            if operation.columns
            else "*"
        )
        return f"SELECT {columns} FROM {sql_identifier(operation.table)}"
    if isinstance(operation, (Extraction, Projection)):
        columns = ", ".join(sql_identifier(c) for c in operation.columns)
        return f"SELECT {columns} FROM {inputs[0]}"
    if isinstance(operation, Selection):
        predicate = sql_expression(parse(operation.predicate), dialect)
        return f"SELECT * FROM {inputs[0]} WHERE {predicate}"
    if isinstance(operation, Join):
        return _render_join(flow, operation, inputs, dialect)
    if isinstance(operation, Aggregation):
        parts = [sql_identifier(c) for c in operation.group_by]
        for spec in operation.aggregates:
            function = "AVG" if spec.function == "AVERAGE" else spec.function
            parts.append(
                f"{function}({sql_identifier(spec.input)}) AS "
                f"{sql_identifier(spec.output)}"
            )
        select = f"SELECT {', '.join(parts)} FROM {inputs[0]}"
        if operation.group_by:
            group = ", ".join(sql_identifier(c) for c in operation.group_by)
            select += f" GROUP BY {group}"
        return select
    if isinstance(operation, DerivedAttribute):
        expression = sql_expression(parse(operation.expression), dialect)
        return (
            f"SELECT *, {expression} AS "
            f"{sql_identifier(operation.output)} FROM {inputs[0]}"
        )
    if isinstance(operation, Rename):
        raise DeploymentError(
            "Rename cannot be rendered without schema information; "
            "resolve renames before SQL export"
        )
    if isinstance(operation, Distinct):
        return f"SELECT DISTINCT * FROM {inputs[0]}"
    if isinstance(operation, SurrogateKey):
        keys = ", ".join(sql_identifier(c) for c in operation.business_keys)
        return (
            f"SELECT DENSE_RANK() OVER (ORDER BY {keys}) AS "
            f"{sql_identifier(operation.output)}, * FROM {inputs[0]}"
        )
    if isinstance(operation, Sort):
        keys = ", ".join(sql_identifier(c) for c in operation.keys)
        return f"SELECT * FROM {inputs[0]} ORDER BY {keys}"
    if isinstance(operation, UnionOp):
        return f"SELECT * FROM {inputs[0]} UNION ALL SELECT * FROM {inputs[1]}"
    raise DeploymentError(
        f"operation kind {operation.kind!r} has no SQL rendering"
    )


def _render_join(
    flow: EtlFlow, operation: Join, inputs: List[str], dialect: str
) -> str:
    join_word = "LEFT JOIN" if operation.join_type == "left" else "JOIN"
    same_named = all(
        left == right
        for left, right in zip(operation.left_keys, operation.right_keys)
    )
    if same_named:
        using = ", ".join(sql_identifier(c) for c in operation.left_keys)
        return (
            f"SELECT * FROM {inputs[0]} {join_word} {inputs[1]} "
            f"USING ({using})"
        )
    conditions = " AND ".join(
        f"{inputs[0]}.{sql_identifier(left)} = {inputs[1]}.{sql_identifier(right)}"
        for left, right in zip(operation.left_keys, operation.right_keys)
    )
    return f"SELECT * FROM {inputs[0]} {join_word} {inputs[1]} ON {conditions}"
