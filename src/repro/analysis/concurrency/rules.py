"""The QRY9xx concurrency rules.

Registered in the same registry as the design-linter rules (target
``"code"``), so ``python -m repro.lint --list-rules`` and ``python -m
repro.codelint --list-rules`` print one catalog with no drift.

* ``QRY901`` error — lock-order inversion: a cycle in the
  may-acquire-under graph.
* ``QRY902`` error — a non-reentrant lock re-acquired through ``self``
  while already held through ``self``: guaranteed self-deadlock.
* ``QRY903`` error — a blocking operation (pool submit/result, process
  spawn, bus publish, file/socket I/O, pickling) reached while a lock
  is held.
* ``QRY904`` error — a field declared ``# guarded-by: <lock>`` is
  accessed without that lock held (lexically or inherited from every
  call site).
* ``QRY906`` warning — a manual ``.acquire()`` with no matching
  ``.release()`` in a ``finally`` block.
* ``QRY907`` info — a lock-looking acquisition whose receiver could
  not be resolved to a named lock (the analyzer is flying blind
  there; add a ``# lock:`` annotation).

Fingerprints are line-number-free so the committed waiver file
survives unrelated edits to the waived module.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.analysis.concurrency.driver import CodeLintContext
from repro.analysis.concurrency.model import (
    AccessEvent,
    AcquireEvent,
    BlockingEvent,
    CallEvent,
    ReleaseEvent,
)
from repro.analysis.diagnostics import Diagnostic, Severity, diag, rule


@rule(
    "QRY901",
    "lock-order inversion (cycle in may-acquire-under graph)",
    "code",
    Severity.ERROR,
)
def lock_order_inversion(ctx: CodeLintContext) -> Iterable[Diagnostic]:
    for cycle in ctx.cycles():
        witnesses: List[str] = []
        ring = list(cycle) + [cycle[0]]
        for held, acquired in zip(ring, ring[1:]):
            sites = ctx.edges.get((held, acquired), [])
            if sites:
                witnesses.append(
                    f"{held} -> {acquired} at {sites[0].describe()}"
                )
        yield diag(
            "QRY901",
            "lock-order inversion: "
            + " -> ".join(ring)
            + "; "
            + "; ".join(witnesses),
            node=" -> ".join(ring),
            hint="impose one global acquisition order (or merge the locks)",
            fingerprint="QRY901:" + "|".join(cycle),
        )


@rule(
    "QRY902",
    "non-reentrant lock re-acquired on the same instance",
    "code",
    Severity.ERROR,
)
def self_deadlock(ctx: CodeLintContext) -> Iterable[Diagnostic]:
    for info in ctx.model.functions.values():
        for event in info.events:
            if isinstance(event, AcquireEvent):
                if event.lock is None or ctx.model.reentrant(event.lock):
                    continue
                if not event.via_self:
                    continue
                held_self = {
                    name
                    for name, via_self in ctx._expand(info, event.held)
                    if via_self
                }
                if event.lock in held_self:
                    yield diag(
                        "QRY902",
                        f"non-reentrant lock {event.lock!r} re-acquired "
                        f"while already held on the same instance: "
                        f"guaranteed deadlock",
                        node=f"{info.module}:{event.line}",
                        attribute=info.qualname,
                        hint="use new_rlock() or restructure the nesting",
                        fingerprint=f"QRY902:{info.qualname}:{event.lock}",
                    )
            elif isinstance(event, CallEvent) and event.ref[0] == "self":
                callee = ctx.callee(info, event)
                if callee is None:
                    continue
                held_self = {
                    name
                    for name, via_self in ctx._expand(info, event.held)
                    if via_self
                }
                for lock in ctx.may_acquire_self[callee] & held_self:
                    if ctx.model.reentrant(lock):
                        continue
                    callee_qual = ctx.model.functions[callee].qualname
                    yield diag(
                        "QRY902",
                        f"non-reentrant lock {lock!r} held here and "
                        f"re-acquired inside {callee_qual}: guaranteed "
                        f"deadlock",
                        node=f"{info.module}:{event.line}",
                        attribute=info.qualname,
                        hint="use new_rlock() or restructure the nesting",
                        fingerprint=(
                            f"QRY902:{info.qualname}:{lock}:{callee_qual}"
                        ),
                    )


@rule(
    "QRY903",
    "blocking operation while holding a lock",
    "code",
    Severity.ERROR,
)
def blocking_under_lock(ctx: CodeLintContext) -> Iterable[Diagnostic]:
    seen = set()
    for info in ctx.model.functions.values():
        for event in info.events:
            if isinstance(event, BlockingEvent):
                held = ctx.held_locks(info, event.held)
                if not held:
                    continue
                fingerprint = f"QRY903:{info.qualname}:{event.op}"
                if fingerprint in seen:
                    continue
                seen.add(fingerprint)
                yield diag(
                    "QRY903",
                    f"{event.op} while holding "
                    + ", ".join(sorted(held)),
                    node=f"{info.module}:{event.line}",
                    attribute=info.qualname,
                    hint="move the blocking operation outside the lock "
                    "(two-phase: snapshot under lock, block outside)",
                    fingerprint=fingerprint,
                )
            elif isinstance(event, CallEvent):
                callee = ctx.callee(info, event)
                if callee is None:
                    continue
                held = ctx.held_locks(info, event.held)
                if not held:
                    continue
                for op, chain in sorted(ctx.may_block[callee].items()):
                    fingerprint = f"QRY903:{info.qualname}:{op}"
                    if fingerprint in seen:
                        continue
                    seen.add(fingerprint)
                    yield diag(
                        "QRY903",
                        f"{op} (via {' -> '.join(chain)}) while holding "
                        + ", ".join(sorted(held)),
                        node=f"{info.module}:{event.line}",
                        attribute=info.qualname,
                        hint="move the blocking operation outside the "
                        "lock (two-phase: snapshot under lock, block "
                        "outside)",
                        fingerprint=fingerprint,
                    )


@rule(
    "QRY904",
    "guarded field accessed without its lock",
    "code",
    Severity.ERROR,
)
def unguarded_access(ctx: CodeLintContext) -> Iterable[Diagnostic]:
    seen = set()
    for info in ctx.model.functions.values():
        if info.name == "__init__":
            continue  # construction happens-before publication
        for event in info.events:
            if not isinstance(event, AccessEvent):
                continue
            guarded = ctx.model.guarded[(event.owner, event.attr)]
            if guarded.writes_only and not event.write:
                continue
            held = ctx.effective_held(info, event.held)
            if guarded.lock in held:
                continue
            mode = "written" if event.write else "read"
            fingerprint = (
                f"QRY904:{info.qualname}:{event.owner}.{event.attr}:{mode}"
            )
            if fingerprint in seen:
                continue
            seen.add(fingerprint)
            yield diag(
                "QRY904",
                f"{event.owner}.{event.attr} {mode} without "
                f"{guarded.lock!r} (guarded-by annotation at "
                f"{guarded.module}:{guarded.line})",
                node=f"{info.module}:{event.line}",
                attribute=info.qualname,
                hint=f"hold {guarded.lock} or mark the field "
                f"'[writes]' if racy reads are tolerated",
                fingerprint=fingerprint,
            )


@rule(
    "QRY906",
    "manual acquire without a finally release",
    "code",
    Severity.WARNING,
)
def unbalanced_acquire(ctx: CodeLintContext) -> Iterable[Diagnostic]:
    for info in ctx.model.functions.values():
        acquired = {}
        released_in_finally = set()
        for event in info.events:
            if isinstance(event, AcquireEvent) and event.manual:
                acquired.setdefault(event.lock, event.line)
            elif isinstance(event, ReleaseEvent) and event.in_finally:
                released_in_finally.add(event.lock)
        for lock, line in sorted(
            acquired.items(), key=lambda item: item[1]
        ):
            if lock in released_in_finally:
                continue
            label = lock if lock is not None else "<unresolved>"
            yield diag(
                "QRY906",
                f"manual acquire of {label} has no release in a "
                f"finally block; an exception leaks the lock",
                node=f"{info.module}:{line}",
                attribute=info.qualname,
                hint="prefer 'with lock:' or release in try/finally",
                fingerprint=f"QRY906:{info.qualname}:{label}",
            )


@rule(
    "QRY907",
    "unresolvable lock acquisition",
    "code",
    Severity.INFO,
)
def unresolved_acquire(ctx: CodeLintContext) -> Iterable[Diagnostic]:
    for info in ctx.model.functions.values():
        for event in info.events:
            if isinstance(event, AcquireEvent) and event.lock is None:
                yield diag(
                    "QRY907",
                    f"acquisition of {event.text!r} could not be "
                    f"resolved to a named lock; the order analysis "
                    f"cannot see it",
                    node=f"{info.module}:{event.line}",
                    attribute=info.qualname,
                    hint="add a trailing '# lock: Class.attr' comment",
                    fingerprint=f"QRY907:{info.qualname}:{event.text}",
                )
