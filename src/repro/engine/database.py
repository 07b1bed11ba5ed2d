"""The embedded relational database (PostgreSQL stand-in).

Holds named tables with typed schemas, primary keys and foreign keys,
enforcing integrity on insert.  The Design Deployer creates warehouse
tables here, the ETL executor reads sources from and loads facts into
it, and the OLAP helper queries it.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import EngineError, IntegrityError, UnknownTableError
from repro.engine.columnar import ColumnarRelation
from repro.engine.relation import Relation
from repro.locks import new_lock
from repro.expressions.types import ScalarType, type_of_value

#: Exact Python types that satisfy each scalar type without further
#: checks; values outside these fall back to :func:`type_of_value`
#: (``bool`` is deliberately not an ``int`` here, ``datetime`` still
#: satisfies DATE via the fallback).
_FAST_TYPES: Dict[ScalarType, tuple] = {
    ScalarType.INTEGER: (int,),
    ScalarType.DECIMAL: (float, int),
    ScalarType.STRING: (str,),
    ScalarType.BOOLEAN: (bool,),
    ScalarType.DATE: (datetime.date,),
}


@dataclass(frozen=True)
class ForeignKeyDef:
    """A foreign key: local columns -> target table's primary key."""

    columns: Tuple[str, ...]
    target_table: str


@dataclass
class TableDef:
    """A table definition for :meth:`Database.create_table`."""

    name: str
    columns: Dict[str, ScalarType]
    primary_key: Tuple[str, ...] = ()
    foreign_keys: Tuple[ForeignKeyDef, ...] = ()

    def __post_init__(self) -> None:
        for key_column in self.primary_key:
            if key_column not in self.columns:
                raise EngineError(
                    f"table {self.name!r}: primary key column "
                    f"{key_column!r} undefined"
                )
        for foreign_key in self.foreign_keys:
            for column in foreign_key.columns:
                if column not in self.columns:
                    raise EngineError(
                        f"table {self.name!r}: foreign key column "
                        f"{column!r} undefined"
                    )


class _Table:
    """Internal table state: definition + relation + PK index."""

    def __init__(self, definition: TableDef) -> None:
        self.definition = definition
        self.relation = Relation(schema=dict(definition.columns))
        self._pk_index: set = set()
        #: Cached columnar view of the relation; dropped on any write.
        #: Writers invalidate without the lock (the write paths are
        #: caller-serialised, as for ``scan``), hence ``[writes]`` only
        #: covers the pivot's publication, not the invalidation.
        self._columnar: Optional[ColumnarRelation] = None  # guarded-by: _Table._columnar_lock [writes]
        #: Guards the lazy columnar pivot: two concurrent readers must
        #: agree on one cached view instead of both pivoting (or one
        #: observing the other's half-built pivot).
        self._columnar_lock = new_lock("_Table._columnar_lock")

    def primary_key_of(self, row: dict) -> Optional[tuple]:
        if not self.definition.primary_key:
            return None
        return tuple(row[column] for column in self.definition.primary_key)


class Database:
    """A named collection of tables with integrity enforcement."""

    def __init__(self, name: str = "warehouse") -> None:
        self.name = name
        self._tables: Dict[str, _Table] = {}

    # -- DDL ------------------------------------------------------------------

    def create_table(self, definition: TableDef, if_not_exists: bool = False) -> None:
        """Create a table; FK targets must exist already."""
        if definition.name in self._tables:
            if if_not_exists:
                return
            raise EngineError(f"table {definition.name!r} already exists")
        for foreign_key in definition.foreign_keys:
            if foreign_key.target_table not in self._tables:
                raise EngineError(
                    f"table {definition.name!r} references missing table "
                    f"{foreign_key.target_table!r}"
                )
        self._tables[definition.name] = _Table(definition)

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise UnknownTableError(name)
        referers = [
            table.definition.name
            for table in self._tables.values()
            if any(
                fk.target_table == name for fk in table.definition.foreign_keys
            )
        ]
        if referers:
            raise EngineError(
                f"cannot drop {name!r}: referenced by {sorted(referers)}"
            )
        del self._tables[name]

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> List[str]:
        return list(self._tables)

    def table_def(self, name: str) -> TableDef:
        return self._lookup(name).definition

    # -- DML ------------------------------------------------------------------

    def insert(self, table_name: str, row: dict) -> None:
        """Insert one row, enforcing PK uniqueness, NOT NULL keys and FKs."""
        table = self._lookup(table_name)
        table.relation.check_row(row)
        key = table.primary_key_of(row)
        if key is not None:
            if any(part is None for part in key):
                raise IntegrityError(
                    f"{table_name!r}: NULL in primary key {key}"
                )
            if key in table._pk_index:
                raise IntegrityError(
                    f"{table_name!r}: duplicate primary key {key}"
                )
        for foreign_key in table.definition.foreign_keys:
            values = tuple(row[column] for column in foreign_key.columns)
            if any(value is None for value in values):
                continue  # NULL FK is permitted (no reference)
            target = self._lookup(foreign_key.target_table)
            if values not in target._pk_index:
                raise IntegrityError(
                    f"{table_name!r}: foreign key {values} has no match in "
                    f"{foreign_key.target_table!r}"
                )
        table.relation.rows.append(row)
        table._columnar = None
        if key is not None:
            table._pk_index.add(key)

    def insert_many(self, table_name: str, rows) -> int:
        """Insert rows one by one; returns the number inserted."""
        count = 0
        for row in rows:
            self.insert(table_name, row)
            count += 1
        return count

    def insert_columns(
        self, table_name: str, columns: Dict[str, list], length: int
    ) -> int:
        """Bulk-insert column arrays, validating each column in one pass.

        The fast path for loaders: tables without keys (the warehouse
        targets the executor creates) skip per-row dict bookkeeping —
        types are checked column-wise and rows appended in bulk.  Tables
        with a primary or foreign key fall back to :meth:`insert_many`
        so integrity enforcement is unchanged.
        """
        table = self._lookup(table_name)
        schema = table.relation.schema
        extra = set(columns) - set(schema)
        if extra:
            raise EngineError(f"row has unknown attributes {sorted(extra)}")
        for name in schema:
            if name not in columns:
                raise EngineError(f"row is missing attribute {name!r}")
        names = list(schema)
        ordered = [columns[name] for name in names]
        if table.definition.primary_key or table.definition.foreign_keys:
            # Integrity-enforced tables go row by row, unchanged.
            rows = (
                [dict(zip(names, values)) for values in zip(*ordered)]
                if ordered
                else [{} for _ in range(length)]
            )
            return self.insert_many(table_name, rows)
        for name, expected in schema.items():
            fast = _FAST_TYPES[expected]
            for value in columns[name]:
                if value is None or type(value) in fast:
                    continue
                actual = type_of_value(value)
                if actual is expected:
                    continue
                if (
                    expected is ScalarType.DECIMAL
                    and actual is ScalarType.INTEGER
                ):
                    continue
                raise EngineError(
                    f"attribute {name!r}: expected {expected}, got {actual} "
                    f"({value!r})"
                )
        if ordered:
            table.relation.rows.extend(
                dict(zip(names, values)) for values in zip(*ordered)
            )
        else:
            table.relation.rows.extend({} for _ in range(length))
        table._columnar = None
        return length

    def truncate(self, table_name: str) -> None:
        table = self._lookup(table_name)
        table.relation.rows.clear()
        table._pk_index.clear()
        table._columnar = None

    # -- queries ------------------------------------------------------------------

    def scan(self, table_name: str) -> Relation:
        """The table's relation (shared — treat as read-only)."""
        return self._lookup(table_name).relation

    def scan_columns(self, table_name: str) -> ColumnarRelation:
        """A columnar view of the table (cached; shared — read-only).

        The cache is dropped by every write path (:meth:`insert`,
        :meth:`insert_columns`, :meth:`truncate`), so repeated flow
        executions over the same sources pay the row-to-column pivot
        once.

        Thread-safe: the pivot runs under a per-table lock with a
        double-check, so a pool of workers scanning the same table gets
        one shared view and exactly one pivot (writers concurrent with
        readers remain the caller's problem, as for :meth:`scan`).
        """
        table = self._lookup(table_name)
        columnar = table._columnar
        if columnar is None:
            with table._columnar_lock:
                columnar = table._columnar
                if columnar is None:
                    columnar = ColumnarRelation.from_relation(table.relation)
                    table._columnar = columnar
        return columnar

    def row_count(self, table_name: str) -> int:
        return len(self._lookup(table_name).relation)

    def row_counts(self) -> Dict[str, int]:
        return {name: len(table.relation) for name, table in self._tables.items()}

    # -- bulk loading ---------------------------------------------------------------

    def load_source(
        self, schema, data: Dict[str, list]
    ) -> Dict[str, int]:
        """Create and fill tables from a source schema plus generated data.

        ``schema`` is a :class:`repro.sources.schema.SourceSchema`; the
        tables are created in FK-respecting order and all integrity
        checks apply.  Returns rows inserted per table.
        """
        created: Dict[str, int] = {}
        remaining = list(schema.tables())
        while remaining:
            progressed = False
            for table in list(remaining):
                targets = {fk.target_table for fk in table.foreign_keys}
                if not targets <= set(self._tables) | {table.name}:
                    continue
                self.create_table(
                    TableDef(
                        name=table.name,
                        columns=table.column_types(),
                        primary_key=tuple(table.primary_key),
                        foreign_keys=tuple(
                            ForeignKeyDef(fk.columns, fk.target_table)
                            for fk in table.foreign_keys
                        ),
                    )
                )
                remaining.remove(table)
                progressed = True
            if not progressed:
                raise EngineError("cyclic foreign keys in source schema")
        for table_name in self._topological_table_order(schema):
            created[table_name] = self.insert_many(
                table_name, data.get(table_name, [])
            )
        return created

    def _topological_table_order(self, schema) -> List[str]:
        order: List[str] = []
        remaining = {table.name: table for table in schema.tables()}
        while remaining:
            for name, table in list(remaining.items()):
                targets = {fk.target_table for fk in table.foreign_keys}
                if targets <= set(order) | {name}:
                    order.append(name)
                    del remaining[name]
                    break
            else:
                raise EngineError("cyclic foreign keys in source schema")
        return order

    # -- internals ---------------------------------------------------------------------

    def _lookup(self, name: str) -> _Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(name) from None
