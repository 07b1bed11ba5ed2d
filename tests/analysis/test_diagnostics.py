"""The diagnostics framework: codes, severities, registry, reports."""

import pytest

from repro.analysis import Severity, all_rules, rule_by_code, rules_for
from repro.analysis.diagnostics import (
    LintReport,
    Rule,
    diag,
    register,
)


class TestRegistry:
    def test_every_code_is_stable_and_sorted(self):
        codes = [rule.code for rule in all_rules()]
        assert codes == sorted(codes)
        assert all(code.startswith("QRY") for code in codes)
        assert len(codes) == len(set(codes))

    def test_full_catalog_is_registered(self):
        codes = {rule.code for rule in all_rules()}
        expected = (
            {f"QRY00{i}" for i in range(1, 6)}
            | {"QRY101", "QRY102"}
            | {f"QRY20{i}" for i in range(1, 5)}
            | {f"QRY30{i}" for i in range(1, 4)}
            | {f"QRY4{i:02d}" for i in range(1, 14)}
            | {f"QRY50{i}" for i in range(1, 6)}
            | {f"QRY90{i}" for i in (1, 2, 3, 4, 6, 7)}
        )
        assert codes == expected

    def test_targets_partition_the_catalog(self):
        flow = {rule.code for rule in rules_for("flow")}
        md = {rule.code for rule in rules_for("md")}
        code = {rule.code for rule in rules_for("code")}
        assert not flow & md
        assert not (flow | md) & code
        assert flow | md | code == {rule.code for rule in all_rules()}
        assert all(c < "QRY400" for c in flow)
        assert all("QRY400" <= c < "QRY900" for c in md)
        assert all(c >= "QRY900" for c in code)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate rule code"):
            register(
                Rule(
                    code="QRY001",
                    title="again",
                    target="flow",
                    severity=Severity.ERROR,
                    run=lambda context: [],
                )
            )

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="unknown rule code"):
            rule_by_code("QRY999")


class TestDiagnostic:
    def test_severity_defaults_from_registry(self):
        finding = diag("QRY101", "dead", node="n", attribute="a")
        assert finding.severity is Severity.WARNING
        overridden = diag("QRY411", "soft", node="f", severity=Severity.WARNING)
        assert overridden.severity is Severity.WARNING

    def test_location_and_str(self):
        finding = diag("QRY202", "boom", node="join_1", attribute="k", hint="fix")
        assert finding.location() == "join_1.k"
        assert str(finding) == "QRY202 [error] join_1.k: boom (hint: fix)"
        assert diag("QRY005", "cycle").location() == "<design>"
        assert diag("QRY004", "dead end", node="s").location() == "s"

    def test_to_json_round_trips_fields(self):
        finding = diag("QRY302", "never", node="sel")
        payload = finding.to_json()
        assert payload["code"] == "QRY302"
        assert payload["severity"] == "warning"
        assert payload["node"] == "sel"
        assert payload["attribute"] is None


def _report():
    return LintReport(
        subject="flow 'f'",
        diagnostics=[
            diag("QRY101", "dead", node="d"),
            diag("QRY202", "boom", node="j", attribute="k"),
            diag("QRY412", "avg", node="fact"),
        ],
    )


class TestLintReport:
    def test_severity_buckets(self):
        report = _report()
        assert [d.code for d in report.errors] == ["QRY202"]
        assert [d.code for d in report.warnings] == ["QRY101"]
        assert [d.code for d in report.infos] == ["QRY412"]
        assert not report.ok
        assert LintReport(subject="s", diagnostics=[]).ok

    def test_codes_and_by_code(self):
        report = _report()
        assert report.codes() == ["QRY101", "QRY202", "QRY412"]
        assert len(report.by_code("QRY202")) == 1

    def test_render_orders_errors_first(self):
        lines = _report().render().splitlines()
        assert lines[0] == "flow 'f': 1 error(s), 1 warning(s), 1 info(s)"
        assert [line.split()[0] for line in lines[1:]] == [
            "QRY202", "QRY101", "QRY412",
        ]
        assert (
            LintReport(subject="flow 'f'", diagnostics=[]).render()
            == "flow 'f': clean"
        )

    def test_merged_with_concatenates(self):
        merged = _report().merged_with(
            LintReport(subject="schema 's'", diagnostics=[diag("QRY407", "x")])
        )
        assert merged.subject == "flow 'f'+schema 's'"
        assert len(merged.diagnostics) == 4
        assert not merged.ok

    def test_to_json_counts(self):
        payload = _report().to_json()
        assert payload["ok"] is False
        assert payload["counts"] == {"error": 1, "warning": 1, "info": 1}
