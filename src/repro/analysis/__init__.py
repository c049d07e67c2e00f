"""Runtime auditing for the reproduction.

:mod:`repro.analysis.audit` is a CF*-tree invariant sanitizer: it walks a
live tree and checks the structural and CF*-level properties of Sections
3-4 (Lemma 4.2, Observation 1). It backs ``repro audit`` and
``validate="debug"``.

The invariants a static linter once guarded are checked at run time by
the test suite instead; ``docs/analysis.md`` maps each former rule to the
test that replaced it.
"""

from repro.analysis.audit import AuditIssue, AuditReport, audit_tree

__all__ = ["AuditIssue", "AuditReport", "audit_tree"]
