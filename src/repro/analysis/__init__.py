"""Static analysis and runtime auditing for the reproduction.

Three layers turn the paper's stated invariants into machine-checked
guarantees:

* :mod:`repro.analysis.lint` — **reprolint**, a static analyser with
  project-specific AST rules (:mod:`repro.analysis.rules` —
  NCD-accounting hygiene, seeded randomness, tolerance-based distance
  comparisons, no accidental all-pairs scans, explicit public surfaces,
  no cancellation-prone arithmetic in the numerics modules). What the
  retired dataflow rules checked — worker pickling, ledger-site pairing,
  seed provenance, external-count booking — is now structural or
  covered by runtime tests (``docs/analysis.md`` maps each one);
* :mod:`repro.analysis.audit` — a CF*-tree invariant sanitizer that walks
  a live tree and checks the structural and CF*-level properties of
  Sections 3-4 (Lemma 4.2, Observation 1);
* the mypy strict-typing gate configured in ``pyproject.toml`` (this
  package ships ``py.typed``).

See ``docs/analysis.md`` for the rule catalogue and the audit guarantees.
"""

from repro.analysis.audit import AuditIssue, AuditReport, audit_tree
from repro.analysis.lint import (
    ALL_RULES,
    LintViolation,
    format_violations,
    lint_file,
    lint_paths,
    lint_source,
    to_sarif,
)
from repro.analysis.rules import BASE_RULES, Rule, RuleContext

__all__ = [
    "ALL_RULES",
    "BASE_RULES",
    "AuditIssue",
    "AuditReport",
    "LintViolation",
    "Rule",
    "RuleContext",
    "audit_tree",
    "format_violations",
    "lint_file",
    "lint_paths",
    "lint_source",
    "to_sarif",
]
