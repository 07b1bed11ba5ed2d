"""``design_grow``: one embedded design session grows, is edited,
evolves, deploys as SQL and is saved and resumed.

Each cycle builds a fresh :class:`repro.Quarry` and runs the same seeded
script: ``N`` requirement adds through ``add_requirement_xrq``, then
``ROUNDS`` edit rounds.  A round is one ``change_requirement`` at a
mid-order position (it re-folds the suffix after the edited
requirement), a concept rename and its undo, and one ``save_to`` ->
``load_from`` round trip.  The cycle ends with ``lint`` +
``deploy("sql")``.  Cycles repeat until the time is up.

Outside the timed calls, each resumed session must equal the saved one
with zero integration calls.  The first cycle's final design (xMD + xLM
+ requirement order) must equal a fresh build in the same order and
``replay_unified_design()``; every later cycle must reproduce it.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import random
import subprocess
import sys
import time
from contextlib import nullcontext

from repro import Quarry
from repro.core.requirements.model import RequirementSlicer
from repro.sources import tpch
from repro.xformats import xlm, xmd, xrq

from benchmarks._workloads import ROW_COUNTS
from common import (
    Clock, median_setup, peak_rss_mb, report_latencies, Result, scratch_dir,
    stratified_requirements,
)

#: Requirements per design; the seed picks them from a pool of POOL.
N = 24
POOL = 45
#: Edit rounds per cycle, once the design is grown: an edit, a rename
#: and its undo, and a save/load resume.
ROUNDS = 1
#: The rename (and its undo) the evolve step applies.
CONCEPT, RENAMED = "Customer", "Client"
NATIONS = ("GERMANY", "JAPAN", "BRAZIL", "CANADA", "INDIA", "KENYA")

#: Contract metric -> (reported name, sample list, percentile).
METRICS = {
    "op_p50_ms": ("design.add_p50_ms", "add", 0.5),
    "op_p90_ms": ("design.add_p90_ms", "add", 0.9),
    "aux1_ms": ("design.edit_p50_ms", "edit", 0.5),
    "aux2_ms": ("design.evolve_p50_ms", "evolve", 0.5),
    "aux3_ms": ("design.resume_p50_ms", "resume", 0.5),
}


def touches(requirement, concept: str) -> bool:
    prefix = concept + "_"
    return any(
        name.startswith(prefix) for name in requirement.referenced_properties()
    )


def make_inputs(seed: int):
    """The seeded requirement order and edit script.

    Every seed re-folds the same suffix lengths: the first requirement
    the rename touches sits just before the middle (the others follow
    it in seeded places), and every edit changes the requirement just
    after the middle, which then moves to the end.
    """
    rng = random.Random(seed)
    chosen = stratified_requirements(rng, N, POOL)
    touched = [r for r in chosen if touches(r, CONCEPT)]
    kept = [r for r in chosen if r not in touched]
    kept.insert(N // 2 - 1, touched[0])
    for requirement in touched[1:]:
        kept.insert(rng.randint(N // 2, len(kept)), requirement)
    edits = [(N // 2 + 1, rng.choice(NATIONS)) for __ in range(ROUNDS)]
    return kept, edits


def edited(requirement, nation: str):
    """The requirement with its slicer replaced by one on ``nation``."""
    return dataclasses.replace(
        requirement,
        description=requirement.description + f" (edited: {nation})",
        slicers=[RequirementSlicer(f"Nation_n_name = '{nation}'")],
    )


def new_quarry() -> Quarry:
    return Quarry(
        tpch.ontology(), tpch.schema(), tpch.mappings(), row_counts=ROW_COUNTS
    )


def fingerprint(md_schema, etl_flow, order):
    return xmd.dumps(md_schema), xlm.dumps(etl_flow), list(order)


def quarry_fingerprint(quarry: Quarry):
    md_schema, etl_flow = quarry.unified_design()
    return fingerprint(
        md_schema, etl_flow, [r.id for r in quarry.requirements()]
    )


def run_cycle(texts, edits, clock, result, operation, quiet, path):
    """One seeded cycle: N adds, then per edit an edit, a rename and its
    undo, and a resume.  ``quiet()`` brackets the untimed fingerprints."""
    quarry = new_quarry()
    expected = [xrq.loads(text) for text in texts]
    for text in texts:
        result.attempted += 1
        with operation("add"), clock.time("add"):
            quarry.add_requirement_xrq(text)
    resumed = []
    for position, nation in edits:
        changed = edited(expected.pop(position), nation)
        expected.append(changed)
        result.attempted += 1
        with operation("edit"), clock.time("edit"):
            quarry.change_requirement(changed)
        for old, new in ((CONCEPT, RENAMED), (RENAMED, CONCEPT)):
            result.attempted += 1
            with operation("evolve"), clock.time("evolve"):
                quarry.rename_concept(old, new)
        result.attempted += 1
        with operation("resume"), clock.time("resume"):
            quarry.save_to(path)
            loaded = Quarry.load_from(
                path, tpch.schema(), tpch.mappings(), row_counts=ROW_COUNTS
            )
        with quiet():
            resumed.append((
                quarry_fingerprint(quarry),
                quarry_fingerprint(loaded),
                dict(loaded.integration_counts),
            ))
        store_bytes = os.path.getsize(path)
    result.attempted += 1
    with operation("deploy_sql"), clock.time("deploy_sql"):
        lint = quarry.lint()
        deployed = quarry.deploy("sql")
    result.check(not lint.errors, f"lint errors: {lint.errors[:3]}")
    result.check(bool(deployed.artifacts.get("script")), "empty SQL script")
    return quarry, expected, resumed, store_bytes


def check_cycle(quarry, expected, resumed, result, known=None):
    """The correctness gate, outside every timed call.

    The first cycle's final design is checked against a fresh build in
    the same order and against the bus replay; it is returned, and the
    identical later cycles must reproduce it exactly.
    """
    actual = quarry_fingerprint(quarry)
    result.check(
        actual[2] == [r.id for r in expected],
        "requirement order differs from the edit script",
    )
    if known is None:
        reference = new_quarry()
        for requirement in expected:
            reference.add_requirement(requirement)
        result.check(
            actual == quarry_fingerprint(reference),
            "final design differs from a fresh build in the same order",
        )
        replayed = fingerprint(
            *quarry.session.replay_unified_design(), actual[2]
        )
        result.check(actual == replayed, "final design differs from its replay")
    else:
        result.check(actual == known, "final design differs between cycles")
    for saved, loaded, counts in resumed:
        result.check(loaded == saved, "resumed design differs from saved")
        result.check(
            not any(counts.values()),
            f"resume re-integrated: {counts}",
        )
    return actual


def render_inputs(order):
    """The xRQ documents the session is grown from."""
    return [xrq.dumps(requirement) for requirement in order]


def run(seed: int, seconds: float, layers=None) -> Result:
    result = Result("design_grow")
    order, edits = make_inputs(seed)

    # Set-up is a cold start: a fresh interpreter imports the program,
    # builds the domain and an empty session and renders the xRQ inputs.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    environment = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), root]),
    )
    setup_s, __ = median_setup(lambda: subprocess.run(
        [sys.executable, os.path.abspath(__file__), str(seed)],
        env=environment, check=True,
    ))
    texts = render_inputs(order)
    clock = Clock()
    traced_clock = Clock()
    store_bytes = flow_nodes = 0
    known = None
    with scratch_dir("design_grow") as scratch:
        path = os.path.join(scratch, "store.json")
        started = time.perf_counter()
        cycles = 0
        # Start another cycle only if at least half of it fits in time.
        while cycles < (2 if layers is not None else 1) or (
            time.perf_counter() - started
        ) * (1.0 + 0.5 / cycles) < seconds:
            gc.collect()
            tracing = layers is not None and cycles > 0
            if layers is not None and cycles == 1:
                layers.install()
            quiet = layers.recorder.paused if tracing else nullcontext
            quarry, expected, resumed, store_bytes = run_cycle(
                texts,
                edits,
                traced_clock if tracing else clock,
                result,
                layers.operation if tracing else lambda kind: nullcontext(),
                quiet,
                path,
            )
            cycles += 1
            with quiet():
                known = check_cycle(quarry, expected, resumed, result, known)
            flow_nodes = len(quarry.unified_design()[1])
            del quarry, resumed
        if layers is not None:
            layers.recorder.restore()
    result.metric("setup_s", setup_s, "s")
    result.metric("peak_rss_mb", peak_rss_mb(), "MB")
    result.say(
        f"design_grow: seed {seed}, {cycles} cycles, each N={N} adds "
        f"(picked from {POOL}) then {ROUNDS} x (edit, rename + undo, resume)"
    )
    if layers is not None:
        report_traced(result, layers, clock, traced_clock, {
            "repository.store_bytes": store_bytes,
            "etlmodel.unified_flow_nodes": flow_nodes,
        })
        return result
    report_latencies(result, clock, METRICS)
    total_add = sum(clock.samples["add"])
    result.metric("rate_per_s", len(clock.samples["add"]) / total_add, "1/s")
    result.say(
        f"  {'design.adds_per_s':<32} "
        f"{result.metrics['rate_per_s'][0]:10.2f} 1/s"
    )
    return result


def report_traced(result, layers, clock, traced_clock, extra) -> None:
    """Per-layer metrics, plus overhead against the untraced first cycle."""
    untraced = sum(sum(v) for v in clock.samples.values())
    cycles = layers.recorder.op_counts["deploy_sql"]
    traced = sum(sum(v) for v in traced_clock.samples.values()) / cycles
    layers.extra.update(extra)
    layers.extra["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
    result.say(
        f"  tracing overhead: {traced:.3f} s of timed calls per traced "
        f"cycle against {untraced:.3f} s untraced"
    )
    layers.report(result)


if __name__ == "__main__":  # the cold set-up ``run`` times
    render_inputs(make_inputs(int(sys.argv[1]))[0])
    new_quarry()
