"""Text reporter for lint findings."""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.analysis.core import Finding

__all__ = ["render_text"]


def render_text(findings: Sequence[Finding]) -> str:
    lines = [finding.located() for finding in findings]
    if findings:
        by_rule = Counter(finding.rule for finding in findings)
        summary = ", ".join(
            f"{count} {rule}" for rule, count in sorted(by_rule.items())
        )
        lines.append(f"{len(findings)} finding(s): {summary}")
    else:
        lines.append("no findings")
    return "\n".join(lines)
