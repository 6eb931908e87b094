"""reprolint: AST-based invariant checks for the ConVGPU reproduction.

The scheduler's architecture rests on contracts that ordinary tests only
catch when a test happens to drive the bad interleaving: nothing blocking
runs under the scheduler lock, the selector thread never blocks, the
wire protocol has one source of truth.  This package checks those
contracts statically — every rule here encodes an invariant stated in
DESIGN.md §§8–12, and keeps its place by killing a row of the §12 kill
matrix that nothing else kills.

Dependency-free by design (stdlib ``ast`` only) so `repro lint` runs in
any environment the daemon runs in, including CI images without dev
extras.  A finding is either fixed or suppressed inline with
``# reprolint: ignore[rule] -- reason``; nothing else accepts one.
Entry points:

- :func:`analyze_paths` — run every registered rule over a file tree;
- :class:`LintConfig` — the knobs (module scopes, blocking-call sets);
  tests override fields with :func:`dataclasses.replace`;
- ``python -m repro lint [paths] [--format text|sarif]`` — the CLI.
"""

from repro.analysis.config import LintConfig
from repro.analysis.core import (
    Context,
    Finding,
    Rule,
    SourceFile,
    apply_suppressions,
)
from repro.analysis.engine import DEFAULT_RULES, analyze_paths, find_root
from repro.analysis.report import render_text
from repro.analysis.sarif import render_sarif

__all__ = [
    "Context",
    "DEFAULT_RULES",
    "Finding",
    "LintConfig",
    "Rule",
    "SourceFile",
    "analyze_paths",
    "apply_suppressions",
    "find_root",
    "render_sarif",
    "render_text",
]
