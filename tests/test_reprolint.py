"""Self-tests for the reprolint static analyzer.

Each rule has a fixture snippet under ``tests/fixtures/reprolint/`` that
trips it; these tests pin the expected findings (and non-findings) so the
rules cannot silently rot.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, lint_file, lint_paths, lint_source
from repro.analysis.lint import _parse_suppressions, format_violations, main

FIXTURES = Path(__file__).parent / "fixtures" / "reprolint"
SRC = Path(__file__).parent.parent / "src"


def codes(violations):
    return [v.code for v in violations]


# ----------------------------------------------------------------------
# Per-rule fixtures
# ----------------------------------------------------------------------
class TestRPL001:
    def test_fixture_trips(self):
        vs = lint_file(FIXTURES / "rpl001_raw_hook.py", select=["RPL001"])
        assert codes(vs) == ["RPL001", "RPL001"]
        assert [v.line for v in vs] == [7, 8]
        assert "NCD accounting" in vs[0].message

    def test_self_and_super_receivers_allowed(self):
        src = (FIXTURES / "rpl001_raw_hook.py").read_text()
        vs = lint_source(src, "x.py", select=["RPL001"])
        flagged_lines = {v.line for v in vs}
        allowed_lines = {
            i + 1
            for i, text in enumerate(src.splitlines())
            if "self._distance" in text or "super()._distance" in text
        }
        assert allowed_lines  # sanity: the fixture still exercises both forms
        assert not (flagged_lines & allowed_lines)

    def test_metrics_base_exempt(self):
        src = "def f(m, a, b):\n    return m._distance(a, b)\n"
        assert lint_source(src, "src/repro/metrics/base.py", select=["RPL001"]) == []
        assert codes(lint_source(src, "src/repro/metrics/cache.py", select=["RPL001"])) == [
            "RPL001"
        ]

    def test_routing_module_exempt(self):
        # The pruned routing engine maintains cached pivot geometry through
        # the raw hooks (NCD-neutral by documented policy) and is therefore
        # on the RPL001 allowlist alongside metrics/base.py.
        src = "def f(m, p, objs):\n    return m._one_to_many(p, objs)\n"
        assert lint_source(src, "src/repro/core/routing.py", select=["RPL001"]) == []
        assert codes(
            lint_source(src, "src/repro/core/bubble.py", select=["RPL001"])
        ) == ["RPL001"]

    def test_cross_hook_flagged(self):
        src = "def f(m, a, b):\n    return m._cross(a, b)\n"
        assert codes(lint_source(src, "x.py", select=["RPL001"])) == ["RPL001"]


class TestRPL002:
    def test_fixture_trips(self):
        vs = lint_file(FIXTURES / "rpl002_unseeded.py", select=["RPL002"])
        assert codes(vs) == ["RPL002"] * 5
        # Violations are confined to bad(); everything in good() is seeded.
        src = (FIXTURES / "rpl002_unseeded.py").read_text()
        good_start = src.splitlines().index("def good(seed):") + 1
        assert all(v.line < good_start for v in vs)

    @pytest.mark.parametrize(
        "snippet",
        [
            "import numpy as np\nnp.random.default_rng()\n",
            "from numpy.random import default_rng\ndefault_rng()\n",
            "import numpy.random as npr\nnpr.default_rng()\n",
            "import numpy as np\nnp.random.seed(0)\n",
            "import random\nrandom.randint(0, 3)\n",
            "from random import choice\nchoice([1, 2])\n",
        ],
    )
    def test_unseeded_variants_flagged(self, snippet):
        assert codes(lint_source(snippet, select=["RPL002"])) == ["RPL002"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "import numpy as np\nnp.random.default_rng(7)\n",
            "import numpy as np\nnp.random.default_rng(seed=None)\n",
            "import numpy as np\nnp.random.Generator(np.random.PCG64(3))\n",
            "import random\nrandom.Random(11)\n",
            "rng.normal(size=3)\n",  # drawing from a passed-in Generator
        ],
    )
    def test_seeded_variants_clean(self, snippet):
        assert lint_source(snippet, select=["RPL002"]) == []


class TestRPL003:
    def test_fixture_trips(self):
        vs = lint_file(FIXTURES / "rpl003_distance_eq.py", select=["RPL003"])
        assert codes(vs) == ["RPL003"] * 4
        assert all("tolerance" in v.message for v in vs)

    def test_ordering_comparisons_clean(self):
        assert lint_source("ok = d <= threshold\n", select=["RPL003"]) == []

    def test_non_distance_names_clean(self):
        assert lint_source("if count == 0:\n    pass\n", select=["RPL003"]) == []


class TestRPL004:
    def test_fixture_trips(self):
        vs = lint_file(FIXTURES / "rpl004_nested_loops.py", select=["RPL004"])
        assert codes(vs) == ["RPL004"] * 3

    def test_sanctioned_modules_exempt(self):
        src = (FIXTURES / "rpl004_nested_loops.py").read_text()
        assert lint_source(src, "src/repro/evaluation/quality.py", select=["RPL004"]) == []
        assert lint_source(src, "src/repro/experiments/scaling.py", select=["RPL004"]) == []

    def test_function_scope_resets_depth(self):
        src = (
            "def outer(m, objs):\n"
            "    for a in objs:\n"
            "        for b in objs:\n"
            "            def inner():\n"
            "                return m.distance(a, b)\n"
            "            inner()\n"
        )
        assert lint_source(src, select=["RPL004"]) == []


class TestRPL005:
    def test_fixture_trips(self):
        vs = lint_file(FIXTURES / "rpl005_no_all.py", select=["RPL005"])
        assert codes(vs) == ["RPL005"]
        assert vs[0].line == 1

    def test_private_modules_exempt(self):
        src = "def f():\n    return 1\n"
        assert lint_source(src, "src/repro/_private.py", select=["RPL005"]) == []
        assert lint_source(src, "src/repro/__main__.py", select=["RPL005"]) == []
        assert codes(lint_source(src, "src/repro/__init__.py", select=["RPL005"])) == ["RPL005"]

    def test_docstring_only_module_exempt(self):
        assert lint_source('"""Just docs."""\n', "pkg/mod.py", select=["RPL005"]) == []


# ----------------------------------------------------------------------
# Framework behavior
# ----------------------------------------------------------------------
class TestFramework:
    def test_clean_fixture_passes_all_rules(self):
        assert lint_file(FIXTURES / "clean.py") == []

    def test_suppressions(self):
        vs = lint_file(FIXTURES / "suppressed.py")
        # Only the deliberately unsuppressed hook call on line 17 survives.
        assert [(v.code, v.line) for v in vs] == [("RPL001", 17)]

    def test_file_wide_suppression(self):
        src = (
            "# reprolint: disable-file=RPL005 -- fixture, not a public module\n"
            "def f(m, a, b):\n"
            "    return m._distance(a, b)\n"
        )
        assert codes(lint_source(src, "pkg/mod.py")) == ["RPL001"]

    def test_syntax_error_reported_as_rpl000(self):
        vs = lint_source("def broken(:\n", "bad.py")
        assert codes(vs) == ["RPL000"]
        assert "syntax error" in vs[0].message

    def test_unknown_select_code_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            lint_source("x = 1\n", select=["RPL999"])

    def test_rule_catalogue_complete(self):
        assert [r.code for r in ALL_RULES] == [
            "RPL000", "RPL001", "RPL002", "RPL003", "RPL004", "RPL005", "RPL105",
        ]
        for rule in ALL_RULES:
            assert rule.summary and rule.rationale

    def test_format_violations_layout(self):
        vs = lint_file(FIXTURES / "rpl005_no_all.py", select=["RPL005"])
        text = format_violations(vs, statistics=True)
        assert "rpl005_no_all.py:1:1: RPL005" in text
        assert "    1  RPL005" in text

    def test_src_baseline_is_zero(self):
        """The whole library lints clean — the invariant CI enforces."""
        violations = lint_paths([SRC])
        assert violations == [], format_violations(violations)

    def test_tests_and_benchmarks_carry_no_suppressions(self):
        """Outside the lint fixtures, tests and benchmarks suppress no rule:
        the linter runs on ``src`` only, so a suppression there could only
        go stale unseen."""
        repo = SRC.parent
        files = [
            path
            for tree in (repo / "tests", repo / "benchmarks")
            for path in sorted(tree.rglob("*.py"))
            if FIXTURES not in path.parents
        ]
        assert len(files) > 50  # sanity: the walk found the suites
        marked = [
            str(path.relative_to(repo))
            for path in files
            if _parse_suppressions(path.read_text(encoding="utf-8")).directives
        ]
        assert marked == []


# ----------------------------------------------------------------------
# CLI entry points
# ----------------------------------------------------------------------
class TestCLI:
    def test_exit_zero_on_clean(self, capsys):
        assert main([str(FIXTURES / "clean.py")]) == 0

    def test_exit_one_with_findings(self, capsys):
        assert main([str(FIXTURES / "rpl005_no_all.py")]) == 1
        out = capsys.readouterr()
        assert "RPL005" in out.out
        assert "violation(s) found" in out.err

    def test_json_output(self, capsys):
        assert main([str(FIXTURES / "rpl001_raw_hook.py"), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert {entry["code"] for entry in payload} == {"RPL001"}

    def test_select_filter(self, capsys):
        path = str(FIXTURES / "rpl001_raw_hook.py")
        assert main([path, "--select", "RPL002"]) == 0
        assert main([path, "--select", "RPL999"]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RPL001", "RPL002", "RPL003", "RPL004", "RPL005"):
            assert code in out

    def test_repro_lint_verb(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["lint", str(FIXTURES / "clean.py")]) == 0
        assert repro_main(["lint", str(FIXTURES / "rpl005_no_all.py")]) == 1

    def test_python_dash_m_module(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(FIXTURES / "clean.py")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
