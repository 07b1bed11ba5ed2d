"""Tier-1 smoke test of the design-pipeline benchmark.

Runs ``benchmarks.run_design.run_suite`` at a tiny size and asserts the
equivalence gates pass, plus — via the integration-call counters, not
wall-clock — that the incremental paths have not silently regressed to
full rebuilds.  Keeping this in the default test run means a change
that breaks incrementality fails CI even when it is functionally
correct.
"""

from repro import Quarry
from repro.sources import tpch

from benchmarks._workloads import ROW_COUNTS, requirement_corpus
from benchmarks.run_design import run_suite


class TestBenchmarkSmoke:
    def test_tiny_suite_is_equivalence_clean(self):
        report, mismatches = run_suite(sizes=(4,), rounds=1, headline_size=4)
        assert mismatches == []
        assert report["all_results_identical"]
        assert report["design_sizes"]["4"]["results_identical"]
        assert report["ontology"]["results_identical"]
        assert report["evolution"]["4"]["results_identical"]

    def test_incremental_paths_stay_sub_linear(self):
        # Counter-based, not timing-based: robust on loaded CI machines.
        report, __ = run_suite(sizes=(4,), rounds=1, headline_size=4)
        at_4 = report["design_sizes"]["4"]
        assert at_4["integrations_per_change"] == 1  # not 4
        assert at_4["integrations_for_remove_last"] == 0


class TestCounterHook:
    def test_add_does_one_integration_not_n(self):
        corpus = requirement_corpus(5)
        quarry = Quarry(
            tpch.ontology(), tpch.schema(), tpch.mappings(),
            row_counts=ROW_COUNTS,
        )
        for requirement in corpus[:4]:
            quarry.add_requirement(requirement)
        before = dict(quarry.integration_counts)
        quarry.add_requirement(corpus[4])
        assert quarry.integration_counts["md"] - before["md"] == 1
        assert quarry.integration_counts["etl"] - before["etl"] == 1
