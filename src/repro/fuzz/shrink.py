"""Greedy minimisation of failing trials.

Not a full delta-debugger: a budgeted greedy loop that (a) drops flow
nodes and loader branches and (b) drops table rows — accepting a candidate only when it still fails
with the *same category* (the text before the first colon of the
oracle's description), so reduction cannot morph one bug into another.
Every candidate is validated before checking; invalid flows are simply
rejected.  The result is what lands in the regression corpus.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.fuzz.flowgen import FlowTrial
from repro.fuzz.oracle import check_flow_trial
from repro.fuzz.datagen import TableSpec

Check = Callable[[object], Optional[str]]


def _category(detail: str) -> str:
    return detail.split(":", 1)[0]


class _Budget:
    def __init__(self, limit: int) -> None:
        self.left = limit

    def spend(self) -> bool:
        if self.left <= 0:
            return False
        self.left -= 1
        return True


def _copy_tables(tables: List[TableSpec]) -> List[TableSpec]:
    return [
        TableSpec(
            name=table.name,
            schema=dict(table.schema),
            rows=[dict(row) for row in table.rows],
        )
        for table in tables
    ]


# -- flow trials --------------------------------------------------------------


def _prune_dead(flow) -> None:
    """Drop non-loader nodes that lost all their consumers."""
    changed = True
    while changed:
        changed = False
        for name in flow.node_names():
            if flow.node(name).kind == "Loader":
                continue
            if not flow.outputs(name):
                flow.remove_node(name)
                changed = True
                break


def _without_node(trial: FlowTrial, name: str) -> Optional[FlowTrial]:
    flow = trial.flow.copy()
    try:
        flow.remove_node(name)
        _prune_dead(flow)
    except Exception:
        return None
    if not any(node.kind == "Loader" for node in flow.nodes()):
        return None
    if flow.validate():
        return None
    # type(trial), not FlowTrial: subclasses (LintTrial) must survive
    # shrinking so the corpus encodes them under their own kind.
    return type(trial)(
        tables=trial.tables, flow=flow, seed=trial.seed, notes=trial.notes
    )


def _drop_unused_tables(trial: FlowTrial) -> FlowTrial:
    used = {
        node.table
        for node in trial.flow.nodes()
        if node.kind == "Datastore"
    }
    kept = [table for table in trial.tables if table.name in used]
    if len(kept) == len(trial.tables):
        return trial
    return type(trial)(
        tables=kept, flow=trial.flow, seed=trial.seed, notes=trial.notes
    )


def _with_rows(trial: FlowTrial, table_name: str, rows: List[dict]) -> FlowTrial:
    tables = _copy_tables(trial.tables)
    for table in tables:
        if table.name == table_name:
            table.rows = [dict(row) for row in rows]
    return type(trial)(
        tables=tables, flow=trial.flow, seed=trial.seed, notes=trial.notes
    )


def shrink_flow_trial(
    trial: FlowTrial,
    check: Check = check_flow_trial,
    budget: int = 250,
) -> FlowTrial:
    """A smaller trial failing with the same category (best effort)."""
    detail = check(trial)
    if detail is None:
        return trial
    category = _category(detail)
    budget = _Budget(budget)

    def still_fails(candidate: Optional[FlowTrial]) -> bool:
        if candidate is None or not budget.spend():
            return False
        result = check(candidate)
        return result is not None and _category(result) == category

    improved = True
    while improved and budget.left > 0:
        improved = False
        # Drop whole nodes (loaders take their dead branch with them).
        for name in list(trial.flow.node_names()):
            operation = trial.flow.node(name)
            if operation.kind == "Datastore":
                continue
            candidate = _without_node(trial, name)
            if still_fails(candidate):
                trial = _drop_unused_tables(candidate)
                improved = True
                break
        if improved:
            continue
        # Halve, then nibble, table rows.
        for table in trial.tables:
            rows = table.rows
            if not rows:
                continue
            half = len(rows) // 2
            for chunk in ([], rows[:half], rows[half:]):
                if len(chunk) == len(rows):
                    continue
                candidate = _with_rows(trial, table.name, chunk)
                if still_fails(candidate):
                    trial = candidate
                    improved = True
                    break
            if improved:
                break
            for index in range(len(rows)):
                reduced = rows[:index] + rows[index + 1:]
                candidate = _with_rows(trial, table.name, reduced)
                if still_fails(candidate):
                    trial = candidate
                    improved = True
                    break
            if improved:
                break
    return _drop_unused_tables(trial)
