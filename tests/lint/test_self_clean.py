"""The gate: the linter must run clean on the package that ships it.

Every finding in ``src/repro`` is either fixed or carries an inline
suppression with a reason — this test is what turns the linter from a
suggestion into an invariant (and it doubles as the regression pin for the
determinism fixes the first self-run forced: any revert re-fires the rule).
"""

from __future__ import annotations

import io
from pathlib import Path

from repro.lint import EXIT_CLEAN, lint_paths
from repro.lint.cli import main
from repro.lint.suppressions import collect_suppressions

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_source_tree_lints_clean():
    findings = lint_paths([SRC])
    assert findings == [], "\n" + "\n".join(
        finding.render() for finding in findings
    )


def test_cli_self_run_exits_clean():
    out = io.StringIO()
    assert main([str(SRC)], stdout=out) == EXIT_CLEAN
    assert "no findings" in out.getvalue()


def test_no_unused_suppressions_in_tree():
    # Suppression hygiene is part of the gate: SUP001 findings (warnings)
    # would show up above, but make the intent explicit.
    assert [f for f in lint_paths([SRC]) if f.rule == "SUP001"] == []


#: Ceiling on inline suppressions in ``src/repro``.  Lower it when a
#: suppression goes away with its cause; never raise it to admit a new one
#: without removing another.
MAX_SUPPRESSIONS = 6


def test_suppression_count_does_not_grow():
    sites = [
        f"{path.relative_to(SRC)}:{entry.line} allow[{entry.rule_id}]"
        for path in sorted(SRC.rglob("*.py"))
        for entry in collect_suppressions(path.read_text(encoding="utf-8"))
    ]
    assert len(sites) <= MAX_SUPPRESSIONS, "\n".join(sites)
