"""Which ``repro`` functions the traced run wraps, and the per-layer
metrics computed from what the wrappers record.

Every metric in :data:`PER_LAYER` is printed by every workload's traced
run; a layer the workload never calls reads 0 (``engine.*`` on
``design_grow``, for instance).  ``<name>_ms`` is the mean inclusive
time of one call, ``*_per_<op>`` divides a count by the number of those
operations, and the per-operation self-time breakdown with its
unattributed remainder is printed alongside.
"""

from __future__ import annotations

import importlib
import weakref
from collections import Counter
from contextlib import contextmanager
from typing import Dict

from spans import Recorder, breakdown, span_stats

#: Executor node kinds, each reported as ``engine.node.<kind>_ms``.
NODE_KINDS = (
    "Datastore", "Extraction", "Projection", "Selection", "Join",
    "Aggregation", "DerivedAttribute", "Rename", "Union", "SurrogateKey",
    "Sort", "Distinct", "SCDUpdate", "Loader",
)

#: HTTP routes, each reported as ``serve.in_server_ms.<route>``.
ROUTES = (
    "create", "add", "remove", "status", "design", "deploy",
    "deploy_background", "job",
)

#: name -> (unit, better); the order is the report order.
PER_LAYER: Dict[str, tuple] = {
    "repository.save_checkpoint_ms": ("ms", "lower"),
    "repository.save_checkpoint_calls_per_add": ("count", "lower"),
    "repository.save_unified_design_ms": ("ms", "lower"),
    "xformats.xmd_dumps_ms": ("ms", "lower"),
    "xformats.xlm_dumps_ms": ("ms", "lower"),
    "repository.save_to_ms": ("ms", "lower"),
    "repository.load_from_ms": ("ms", "lower"),
    "repository.store_bytes": ("bytes", "lower"),
    "etlmodel.topological_order_calls_per_add": ("count", "lower"),
    "etlmodel.inputs_calls_per_add": ("count", "lower"),
    "etlmodel.unified_flow_nodes": ("count", "lower"),
    "etlmodel.prune_columns_ms": ("ms", "lower"),
    "integrator.md_integrate_ms": ("ms", "lower"),
    "integrator.etl_consolidate_ms": ("ms", "lower"),
    "integrator.integrations_per_edit": ("count", "lower"),
    "integrator.integrations_per_evolve": ("count", "lower"),
    "interpreter.interpret_ms": ("ms", "lower"),
    "interpreter.calls_per_evolve": ("count", "lower"),
    "ontology.closure_hit_ratio": ("ratio", "higher"),
    "ontology.bfs_expansions_per_add": ("count", "lower"),
    "bus.publish_self_ms": ("ms", "lower"),
    "bus.events_per_add": ("count", "lower"),
    "xformats.xrq_loads_ms": ("ms", "lower"),
    "analysis.lint_ms": ("ms", "lower"),
    "deployer.sql_generate_ms": ("ms", "lower"),
    "deployer.native_self_ms": ("ms", "lower"),
    "engine.execute_ms": ("ms", "lower"),
    "engine.rows_per_s": ("1/s", "higher"),
    **{f"engine.node.{kind}_ms": ("ms", "lower") for kind in NODE_KINDS},
    "engine.query_star_ms": ("ms", "lower"),
    "expressions.parse_cache_hit_ratio": ("ratio", "higher"),
    "expressions.compile_cache_hit_ratio": ("ratio", "higher"),
    "serve.lock_wait_ms": ("ms", "lower"),
    **{f"serve.in_server_ms.{route}": ("ms", "lower") for route in ROUTES},
    "serve.transport_ms": ("ms", "lower"),
    "serve.generator_lag_ms": ("ms", "lower"),
    "serve.repository_documents": ("count", "lower"),
    "runtime.gc_ms_per_op": ("ms", "lower"),
    "runtime.gc_full_collections": ("count", "lower"),
    "trace.unattributed_ms_per_op": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

#: (module, owner class or None, attribute, span name, count only)
WRAPS = (
    ("repro.repository.metadata", "MetadataRepository", "save_checkpoint",
     "repository.save_checkpoint", False),
    ("repro.repository.metadata", "MetadataRepository", "save_unified_design",
     "repository.save_unified_design", False),
    ("repro.repository.metadata", "MetadataRepository", "save_to",
     "repository.save_to", False),
    ("repro.repository.metadata", "MetadataRepository", "load_from",
     "repository.load_from", False),
    ("repro.xformats.xmd", None, "dumps", "xformats.xmd_dumps", False),
    ("repro.xformats.xlm", None, "dumps", "xformats.xlm_dumps", False),
    ("repro.xformats.xrq", None, "loads", "xformats.xrq_loads", False),
    ("repro.xformats.xmd", None, "loads", "xformats.xmd_loads", False),
    ("repro.xformats.xlm", None, "loads", "xformats.xlm_loads", False),
    ("repro.etlmodel.flow", "EtlFlow", "topological_order",
     "etlmodel.topological_order", True),
    ("repro.etlmodel.flow", "EtlFlow", "inputs", "etlmodel.inputs", True),
    ("repro.etlmodel.equivalence", None, "prune_columns",
     "etlmodel.prune_columns", False),
    ("repro.core.integrator.md_integrator", "MDIntegrator", "integrate",
     "integrator.md_integrate", False),
    ("repro.core.integrator.etl_integrator", "EtlIntegrator", "consolidate",
     "integrator.etl_consolidate", False),
    ("repro.core.interpreter.interpreter", "Interpreter", "interpret",
     "interpreter.interpret", False),
    ("repro.core.services.bus", "ArtifactBus", "publish", "bus.publish",
     False),
    ("repro.analysis", None, "lint", "analysis.lint", False),
    ("repro.core.deployer.sqlscript", None, "generate",
     "deployer.sql_generate", False),
    ("repro.core.deployer.deployer", "Deployer", "deploy", "deployer.deploy",
     False),
    ("repro.engine.olap", None, "query_star", "engine.query_star", False),
)


class Layers:
    """Installs the wrappers on a :class:`Recorder` and turns what they
    record into the per-layer metrics."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        #: Node kinds -> seconds, plus ``rows`` and ``seconds`` totals.
        self.engine: Counter = Counter()
        self.graphs: "weakref.WeakSet" = weakref.WeakSet()
        self.ontology: Counter = Counter()
        self.extra: Dict[str, float] = {}
        self._cache_base: Dict[str, tuple] = {}
        self._serve = False

    def install(self, serve: bool = False) -> None:
        recorder = self.recorder
        for module_name, owner_name, attribute, name, count_only in WRAPS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            recorder.wrap(owner, attribute, name, count_only=count_only)

        from repro.engine.executor import Executor

        recorder.wrap(
            Executor, "execute", "engine.execute", on_result=self._on_stats
        )
        self._watch_ontology()
        self._watch_caches()
        if serve:
            self._serve = True
            self._watch_server()
        recorder.start_gc_watch()

    def _on_stats(self, stats) -> None:
        bump = self.recorder.bump
        for node in stats.nodes:
            bump(self.engine, node.kind, node.seconds)
        bump(self.engine, "rows", stats.total_rows_processed)
        bump(self.engine, "seconds", stats.seconds)

    # -- ontology graph counters ----------------------------------------------

    def _watch_ontology(self) -> None:
        from repro.ontology.graph import OntologyGraph

        original = OntologyGraph.__init__
        graphs = self.graphs

        def __init__(graph, *args, **kwargs):
            original(graph, *args, **kwargs)
            graphs.add(graph)

        self.recorder.patch(OntologyGraph, "__init__", __init__)

    def _ontology_snapshot(self) -> Dict[int, dict]:
        return {id(graph): dict(graph.stats) for graph in list(self.graphs)}

    @contextmanager
    def operation(self, kind: str):
        """An operation root span that also attributes ontology cache
        behaviour (read from the live graphs' own ``stats``) to it."""
        before = self._ontology_snapshot()
        with self.recorder.operation(kind):
            yield
        for graph in list(self.graphs):
            base = before.get(id(graph), {})
            for key, value in graph.stats.items():
                self.recorder.bump(
                    self.ontology, (key, kind), value - base.get(key, 0)
                )

    # -- expression caches ----------------------------------------------------

    def _watch_caches(self) -> None:
        from repro.expressions import compiler, parser

        self._caches = {
            "parse": parser.parse, "compile": compiler.compile_expression
        }
        self._cache_base = {
            name: tuple(function.cache_info()[:2])
            for name, function in self._caches.items()
        }

    def _cache_ratio(self, name: str) -> float:
        hits, misses = self._caches[name].cache_info()[:2]
        base_hits, base_misses = self._cache_base[name]
        calls = (hits - base_hits) + (misses - base_misses)
        return (hits - base_hits) / calls if calls else 0.0

    # -- server ---------------------------------------------------------------

    def _watch_server(self) -> None:
        from repro.serve import server

        recorder = self.recorder
        original_locked = server.SessionManager.__dict__["locked"]

        @contextmanager
        def locked(manager, name):
            context = original_locked(manager, name)
            with recorder.span("serve.lock_wait"):
                session = context.__enter__()
            try:
                yield session
            except BaseException as exc:
                if not context.__exit__(type(exc), exc, exc.__traceback__):
                    raise
            else:
                context.__exit__(None, None, None)

        recorder.patch(server.SessionManager, "locked", locked)
        recorder.wrap(
            server.SessionManager, "submit_deploy", "serve.submit_deploy"
        )
        handler = server._Handler
        for method in ("GET", "POST", "DELETE"):
            attribute = "do_" + method
            original = handler.__dict__[attribute]

            def do(request, original=original, method=method):
                with self.operation(route_of(method, request.path)):
                    original(request)

            recorder.patch(handler, attribute, do)

    # -- metrics ----------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Every :data:`PER_LAYER` metric (0 where the layer never ran)."""
        recorder = self.recorder
        spans = span_stats(recorder.spans)
        ops = recorder.op_counts

        def mean_ms(name: str) -> float:
            entry = spans.get(name)
            return entry["total_ms"] / entry["calls"] if entry else 0.0

        def per_op(name: str, kind: str) -> float:
            return recorder.counts[(name, kind)] / ops[kind] if ops[kind] else 0.0

        publish = spans.get("bus.publish")
        lock = spans.get("serve.lock_wait")
        values = {
            "repository.save_checkpoint_ms": mean_ms("repository.save_checkpoint"),
            "repository.save_checkpoint_calls_per_add":
                per_op("repository.save_checkpoint", "add"),
            "repository.save_unified_design_ms":
                mean_ms("repository.save_unified_design"),
            "xformats.xmd_dumps_ms": mean_ms("xformats.xmd_dumps"),
            "xformats.xlm_dumps_ms": mean_ms("xformats.xlm_dumps"),
            "repository.save_to_ms": mean_ms("repository.save_to"),
            "repository.load_from_ms": mean_ms("repository.load_from"),
            "etlmodel.topological_order_calls_per_add":
                per_op("etlmodel.topological_order", "add"),
            "etlmodel.inputs_calls_per_add": per_op("etlmodel.inputs", "add"),
            "etlmodel.prune_columns_ms": mean_ms("etlmodel.prune_columns"),
            "integrator.md_integrate_ms": mean_ms("integrator.md_integrate"),
            "integrator.etl_consolidate_ms": mean_ms("integrator.etl_consolidate"),
            "integrator.integrations_per_edit":
                per_op("integrator.md_integrate", "edit"),
            "integrator.integrations_per_evolve":
                per_op("integrator.md_integrate", "evolve"),
            "interpreter.interpret_ms": mean_ms("interpreter.interpret"),
            "interpreter.calls_per_evolve":
                per_op("interpreter.interpret", "evolve"),
            "bus.publish_self_ms":
                publish["self_ms"] / publish["calls"] if publish else 0.0,
            "bus.events_per_add": per_op("bus.publish", "add"),
            "xformats.xrq_loads_ms": mean_ms("xformats.xrq_loads"),
            "analysis.lint_ms": mean_ms("analysis.lint"),
            "deployer.sql_generate_ms": mean_ms("deployer.sql_generate"),
            "engine.execute_ms": mean_ms("engine.execute"),
            "engine.rows_per_s": (
                self.engine["rows"] / self.engine["seconds"]
                if self.engine["seconds"] else 0.0
            ),
            "engine.query_star_ms": mean_ms("engine.query_star"),
            "expressions.parse_cache_hit_ratio": self._cache_ratio("parse"),
            "expressions.compile_cache_hit_ratio": self._cache_ratio("compile"),
            "serve.lock_wait_ms":
                lock["total_ms"] / lock["calls"] if lock else 0.0,
        }
        hits = sum(v for (k, __), v in self.ontology.items() if k == "closure_hits")
        computes = sum(
            v for (k, __), v in self.ontology.items() if k == "closure_computes"
        )
        values["ontology.closure_hit_ratio"] = (
            hits / (hits + computes) if hits + computes else 0.0
        )
        values["ontology.bfs_expansions_per_add"] = (
            self.ontology[("bfs_expansions", "add")] / ops["add"]
            if ops["add"] else 0.0
        )
        values["deployer.native_self_ms"] = self._native_self_ms()
        executes = spans.get("engine.execute", {"calls": 0})["calls"]
        for kind in NODE_KINDS:
            values[f"engine.node.{kind}_ms"] = (
                self.engine[kind] * 1000.0 / executes if executes else 0.0
            )
        for route, mean in self._route_means().items():
            values[f"serve.in_server_ms.{route}"] = mean
        total_ops = sum(ops.values())
        values["runtime.gc_ms_per_op"] = (
            sum(recorder.gc_seconds.values()) * 1000.0 / total_ops
            if total_ops else 0.0
        )
        values["runtime.gc_full_collections"] = float(
            sum(recorder.gc_full.values())
        )
        roots = [spans[name] for name in spans if name.startswith("op.")]
        values["trace.unattributed_ms_per_op"] = (
            sum(entry["self_ms"] for entry in roots)
            / sum(entry["calls"] for entry in roots)
            if roots else 0.0
        )
        values.update(self.extra)
        return {name: float(values.get(name, 0.0)) for name in PER_LAYER}

    def report(self, result) -> None:
        """Put every per-layer metric on ``result``, with the breakdown."""
        print_layers(result, self.metrics(), breakdown(self.recorder.spans))

    def _route_means(self) -> Dict[str, float]:
        """Mean in-server ms per route; a deploy that enqueued a job
        counts as ``deploy_background``."""
        if not self._serve:
            return {}
        spans = self.recorder.spans
        background = {
            span[1] for span in spans if span[4] == "serve.submit_deploy"
        }
        totals: Counter = Counter()
        calls: Counter = Counter()
        for span_id, __, op_id, kind, name, start, end in spans:
            if span_id != op_id or kind not in ROUTES:
                continue
            if kind == "deploy" and span_id in background:
                kind = "deploy_background"
            totals[kind] += (end - start) * 1000.0
            calls[kind] += 1
        return {route: totals[route] / calls[route] for route in calls}

    def _native_self_ms(self) -> float:
        """Mean time of a native ``Deployer.deploy`` outside ``execute``."""
        spans = self.recorder.spans
        deploys = {
            span[0]: span[6] - span[5]
            for span in spans if span[4] == "deployer.deploy"
        }
        inside = Counter()
        for span in spans:
            if span[4] == "engine.execute" and span[1] in deploys:
                inside[span[1]] += span[6] - span[5]
        native = [deploys[key] - inside[key] for key in inside]
        return sum(native) * 1000.0 / len(native) if native else 0.0


def print_layers(result, values: Dict[str, float], ops: Dict[str, dict]):
    """Put ``values`` on ``result`` and print them after the per-operation
    self-time breakdown ``ops`` (see :func:`spans.breakdown`)."""
    for kind, entry in sorted(ops.items()):
        layers = ", ".join(
            f"{layer} {ms:.2f}" for layer, ms in entry["layers"].items()
        )
        result.say(
            f"  op {kind:<18} n={entry['ops']:<5} "
            f"mean {entry['mean_ms']:9.2f} ms; self ms: {layers}"
        )
    for name, (unit, __) in PER_LAYER.items():
        result.metric(name, values.get(name, 0.0), unit)
        result.say(f"  {name:<44} {result.metrics[name][0]:14.4f} {unit}")


def route_of(method: str, path: str) -> str:
    """The route name of one request (see ``repro.serve.server``)."""
    parts = [part for part in path.split("?")[0].split("/") if part]
    rest = parts[2:]
    if method == "POST" and parts == ["sessions"]:
        return "create"
    if method == "POST" and rest == ["requirements"]:
        return "add"
    if method == "DELETE":
        return "remove"
    if rest in (["status"], ["design"]):
        return rest[0]
    if method == "POST" and rest == ["deploy"]:
        return "deploy"
    if rest[:1] == ["jobs"]:
        return "job"
    return "other"
