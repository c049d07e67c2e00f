"""Tests for reprolint's RPL105 and RPL000 rules, its self-lint, and SARIF.

The acceptance contract pinned here: RPL105 fires on its fixture only
inside the numerics modules, RPL000 polices the suppressions themselves,
the analysis package lints itself clean, and the SARIF log has the shape
code-scanning uploads expect.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import lint_file, lint_paths, lint_source, to_sarif

FIXTURES = Path(__file__).parent / "fixtures" / "reprolint"
SRC = Path(__file__).parent.parent / "src"


def codes(violations):
    return [v.code for v in violations]


# ----------------------------------------------------------------------
# Per-rule fixtures
# ----------------------------------------------------------------------
class TestRPL105:
    def _lint_fixture_as(self, path):
        src = (FIXTURES / "rpl105_float_stability.py").read_text()
        return lint_source(src, path, select=["RPL105"])

    def test_fixture_trips_in_numerics_scope(self):
        vs = self._lint_fixture_as("src/repro/birch/fixture.py")
        assert codes(vs) == ["RPL105"] * 3

    def test_stable_form_clean(self):
        src = (FIXTURES / "rpl105_float_stability.py").read_text()
        good_start = src.splitlines().index("def stable_radius(vectors, centroid):")
        vs = self._lint_fixture_as("src/repro/birch/fixture.py")
        assert all(v.line <= good_start for v in vs)

    def test_out_of_scope_path_exempt(self):
        assert self._lint_fixture_as("src/repro/evaluation/fixture.py") == []


class TestRPL000:
    def test_fixture_trips(self):
        vs = lint_file(FIXTURES / "rpl000_unused_suppression.py")
        assert codes(vs) == ["RPL000"] * 3
        messages = [v.message for v in vs]
        assert any("unused suppression" in m for m in messages)
        assert any("without a justification" in m for m in messages)
        assert any("unknown rule code" in m for m in messages)

    def test_unused_detection_respects_select(self):
        # A --select run that never executed RPL001 must not declare its
        # suppressions stale; reason/unknown-code checks still apply.
        vs = lint_file(FIXTURES / "rpl000_unused_suppression.py", select=["RPL000"])
        messages = [v.message for v in vs]
        assert not any("unused suppression" in m for m in messages)
        assert any("without a justification" in m for m in messages)
        assert any("unknown rule code" in m for m in messages)

    def test_meta_findings_not_suppressible(self):
        src = "x = 1  # reprolint: disable=RPL001,RPL000 -- trying to hide\n"
        vs = lint_source(src, "pkg/mod.py", select=["RPL000", "RPL001"])
        assert codes(vs) == ["RPL000"]
        assert "unused suppression" in vs[0].message


# ----------------------------------------------------------------------
# Self-lint, SARIF
# ----------------------------------------------------------------------
class TestSelfLint:
    def test_engine_lints_itself_clean(self):
        """The analysis package passes every one of its own rules."""
        from repro.analysis.lint import format_violations

        violations = lint_paths([SRC / "repro" / "analysis"])
        assert violations == [], format_violations(violations)


class TestSarif:
    def test_sarif_shape(self):
        vs = lint_file(FIXTURES / "rpl001_raw_hook.py", select=["RPL001"])
        log = to_sarif(vs)
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "reprolint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"RPL000", "RPL001", "RPL105"} <= rule_ids
        assert len(run["results"]) == len(vs)
        first = run["results"][0]
        assert first["ruleId"] == "RPL001"
        region = first["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == vs[0].line
        assert region["startColumn"] == vs[0].col + 1

    def test_sarif_cli_output(self, tmp_path):
        from repro.analysis.lint import main

        out = tmp_path / "report.sarif"
        code = main(
            [
                str(FIXTURES / "rpl001_raw_hook.py"),
                "--select", "RPL001",
                "--format", "sarif",
                "--output", str(out),
            ]
        )
        assert code == 1  # findings exist; the report still lands on disk
        import json

        payload = json.loads(out.read_text())
        assert payload["runs"][0]["results"]
