"""Regression: the lazy columnar scan cache must be safe under a worker pool.

Before the per-table lock, ``Database.scan_columns`` was a bare
check-then-set — two workers scanning the same table both paid the
row-to-column pivot and could observe each other's half-built cache.
The tests pin the fixed behaviour by counting pivots under deliberate
contention: a slowed-down pivot makes the pre-fix race a certainty, so
a regression flips these tests from deterministic-pass to
deterministic-fail.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.engine.columnar import ColumnarRelation
from repro.engine.database import Database, TableDef
from repro.expressions.types import ScalarType

THREADS = 8


def _database(rows: int = 200) -> Database:
    database = Database()
    database.create_table(
        TableDef(
            "t", {"k": ScalarType.INTEGER, "v": ScalarType.STRING}
        )
    )
    database.insert_many(
        "t", [{"k": index, "v": f"row{index}"} for index in range(rows)]
    )
    return database


def test_scan_columns_pivots_once_under_contention(monkeypatch):
    database = _database()
    pivots = []
    original = ColumnarRelation.from_relation.__func__
    barrier = threading.Barrier(THREADS)

    def slow_pivot(cls, relation):
        # Stretch the pivot window so an unsynchronized check-then-set
        # would reliably pivot once per thread instead of once total.
        pivots.append(threading.get_ident())
        threading.Event().wait(0.05)
        return original(cls, relation)

    monkeypatch.setattr(
        ColumnarRelation, "from_relation", classmethod(slow_pivot)
    )

    def scan():
        barrier.wait(timeout=10)
        return database.scan_columns("t")

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        relations = list(pool.map(lambda _: scan(), range(THREADS)))

    assert len(pivots) == 1, f"{len(pivots)} pivots for one table"
    first = relations[0]
    assert all(relation is first for relation in relations)
    assert first.length == 200


def test_scan_columns_cache_still_invalidated_by_writes():
    database = _database(rows=3)
    before = database.scan_columns("t")
    database.insert("t", {"k": 99, "v": "new"})
    after = database.scan_columns("t")
    assert after is not before
    assert after.length == 4
