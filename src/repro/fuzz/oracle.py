"""The differential oracle: what makes a trial pass or fail.

A flow trial passes when

* ``Executor(mode="columnar")`` and ``Executor(mode="legacy")`` load
  the same rows *in the same order* into every target table — or raise
  the same error (``TypeName: message``), and
* the flow survives an xLM round-trip: ``dumps(loads(dumps(flow)))``
  is byte-identical and the reloaded flow re-executes to the same
  outcome.

Row canonicalisation is ``repr``-based rather than value-based on
purpose: ``0 == False == 0.0`` in Python, so a value-level comparison
would silently excuse an engine that turns ``False`` into ``0``; the
``repr`` keeps the type visible.  It also tolerates unhashable values,
which :class:`repro.fuzz.datagen.LooseDatabase` lets through.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.engine.executor import Executor
from repro.fuzz.datagen import LooseDatabase
from repro.fuzz.flowgen import FlowTrial
from repro.xformats import xlm

Outcome = Tuple[str, object]


def canonical_rows(rows) -> List[str]:
    """An order-sensitive, type-strict fingerprint of a loaded table.

    Both engine modes promise fully deterministic row order (stable
    NULLs-first sorts, insertion-ordered groups, first-occurrence
    distinct), so the oracle compares ordered lists, not multisets —
    an order bug in either mode is a real divergence.
    """
    return [repr(sorted(row.items())) for row in rows]


def execute_flow(mode: str, trial: FlowTrial, flow=None) -> Outcome:
    """Run the trial's flow (or a substitute) on a fresh database.

    Returns ``("ok", {target: canonical rows})`` or
    ``("error", "TypeName: message")`` — both engines must produce the
    *same* outcome, errors included.
    """
    database = LooseDatabase.from_specs(trial.tables)
    executor = Executor(database, mode=mode)
    flow = flow if flow is not None else trial.flow
    try:
        executor.execute(flow)
    except Exception as exc:  # error parity is part of the contract
        return ("error", f"{type(exc).__name__}: {exc}")
    targets = sorted(
        {node.table for node in flow.nodes() if node.kind == "Loader"}
    )
    return (
        "ok",
        {target: canonical_rows(database.scan(target).rows) for target in targets},
    )


def _describe_outcomes(label: str, left: Outcome, right: Outcome) -> str:
    left_kind, left_value = left
    right_kind, right_value = right
    if left_kind != right_kind or left_kind == "error":
        return (
            f"{label}: legacy -> {left_kind} ({left_value!r}), "
            f"columnar -> {right_kind} ({right_value!r})"
        )
    for target in sorted(left_value):
        if left_value[target] != right_value.get(target):
            return (
                f"{label}: table {target!r}: legacy "
                f"{left_value[target][:3]!r} ({len(left_value[target])} rows) "
                f"vs columnar {right_value.get(target, [])[:3]!r} "
                f"({len(right_value.get(target, []))} rows)"
            )
    return f"{label}: outcomes differ"


def check_flow_trial(trial: FlowTrial) -> Optional[str]:
    """``None`` when the trial passes, else a categorised description.

    The category is the text before the first colon; the shrinker uses
    it to keep a reduced trial failing *for the same reason*.
    """
    legacy = execute_flow("legacy", trial)
    columnar = execute_flow("columnar", trial)
    if legacy != columnar:
        return _describe_outcomes("mode-divergence", legacy, columnar)

    text = xlm.dumps(trial.flow)
    try:
        reloaded = xlm.loads(text)
        text_again = xlm.dumps(reloaded)
    except Exception as exc:
        return f"roundtrip: xLM reload failed: {type(exc).__name__}: {exc}"
    if text_again != text:
        return "roundtrip: dumps(loads(dumps(flow))) is not byte-identical"
    replayed = execute_flow("columnar", trial, flow=reloaded)
    if replayed != columnar:
        return _describe_outcomes("roundtrip", columnar, replayed)
    return None
