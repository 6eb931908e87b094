"""SARIF 2.1.0 renderer shared by ``repro lint`` and ``repro san``.

Static Analysis Results Interchange Format — the minimal valid subset
code-review UIs ingest: one run, one driver, one result per finding,
locations as repo-relative artifact URIs.  It is the one
machine-readable format of both tools; GitHub code scanning matches
results across runs on its own.
"""

from __future__ import annotations

import json
from typing import Sequence

from repro.analysis.core import Finding

__all__ = ["render_sarif"]

_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_sarif(
    findings: Sequence[Finding],
    *,
    tool_name: str = "reprolint",
    information_uri: str = "DESIGN.md",
) -> str:
    rule_ids = sorted({finding.rule for finding in findings})
    results = [
        {
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path,
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col,
                        },
                    }
                }
            ],
        }
        for finding in findings
    ]
    payload = {
        "$schema": _SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool_name,
                        "informationUri": information_uri,
                        "rules": [{"id": rule_id} for rule_id in rule_ids],
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2)
