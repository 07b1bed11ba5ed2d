"""Tests of the benchmark's own machinery.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_trace.py -q
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src"),
                os.path.dirname(HERE)]

import design_grow  # noqa: E402
from layers import PER_LAYER, Layers  # noqa: E402
from spans import Recorder, breakdown, self_times  # noqa: E402


@pytest.fixture
def small_design(monkeypatch):
    """A design_grow cycle small enough for a unit test."""
    monkeypatch.setattr(design_grow, "N", 8)
    monkeypatch.setattr(design_grow, "POOL", 10)


def test_traced_design_grow_passes_its_gate(small_design):
    from repro.core.interpreter.interpreter import Interpreter
    from repro.xformats import xmd

    dumps, interpret = xmd.dumps, Interpreter.__dict__["interpret"]
    layers = Layers(Recorder())
    result = design_grow.run(seed=3, seconds=0.0, layers=layers)
    assert result.mismatches == []
    assert result.failed == 0
    assert set(result.metrics) >= set(PER_LAYER)
    assert result.metrics["interpreter.interpret_ms"][0] > 0
    assert result.metrics["repository.save_checkpoint_calls_per_add"][0] > 0
    # Every wrapped function is back in place after the run.
    assert xmd.dumps is dumps
    assert Interpreter.__dict__["interpret"] is interpret


def test_design_gate_catches_a_wrong_design(small_design, tmp_path):
    result = design_grow.Result("design_grow")
    order, edits = design_grow.make_inputs(5)
    texts = [design_grow.xrq.dumps(r) for r in order]
    quarry, expected, resumed, __ = design_grow.run_cycle(
        texts, edits, design_grow.Clock(), result,
        lambda kind: design_grow.nullcontext(), design_grow.nullcontext,
        str(tmp_path / "store.json"),
    )
    design_grow.check_cycle(quarry, expected, resumed, result)
    assert result.mismatches == []
    design_grow.check_cycle(quarry, expected[::-1], resumed, result)
    assert result.mismatches and result.failed == len(result.mismatches)


def test_self_time_subtracts_children_and_reports_unattributed():
    recorder = Recorder()
    with recorder.operation("add"):
        with recorder.span("repository.save"):
            with recorder.span("xformats.dumps"):
                pass
    own = self_times(recorder.spans)
    by_name = {span[4]: span for span in recorder.spans}
    save = by_name["repository.save"]
    dumps = by_name["xformats.dumps"]
    assert own[save[0]] == pytest.approx(
        (save[6] - save[5]) - (dumps[6] - dumps[5])
    )
    report = breakdown(recorder.spans)["add"]
    assert report["ops"] == 1
    assert set(report["layers"]) == {"repository", "xformats", "unattributed"}
    assert sum(report["layers"].values()) == pytest.approx(report["mean_ms"])
