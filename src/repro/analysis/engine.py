"""File collection and the analysis driver."""

from __future__ import annotations

import os
from typing import Iterable, Sequence

from repro.analysis.config import LintConfig
from repro.analysis.core import Context, Finding, SourceFile, apply_suppressions
from repro.analysis.locks import DoubleLockRule, LockDisciplineRule
from repro.analysis.loopsafety import LoopBlockingRule
from repro.analysis.obsrules import SwallowedExceptionRule
from repro.analysis.protocolrules import ProtocolDriftRule
from repro.analysis.structure import StateEscapeRule

__all__ = [
    "DEFAULT_RULES",
    "analyze_paths",
    "collect_files",
    "find_root",
    "load_sources",
    "run_rules",
]

#: Every registered rule, instantiated fresh per run (rules may keep
#: cross-file state in ``Context.state``).
DEFAULT_RULES = (
    StateEscapeRule,
    LockDisciplineRule,
    DoubleLockRule,
    LoopBlockingRule,
    ProtocolDriftRule,
    SwallowedExceptionRule,
)

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}


def collect_files(paths: Sequence[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    collected: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        collected.append(os.path.join(dirpath, filename))
        elif os.path.isfile(path):
            collected.append(path)
        else:
            raise FileNotFoundError(path)
    return sorted(dict.fromkeys(os.path.abspath(p) for p in collected))


def find_root(paths: Sequence[str]) -> str:
    """Walk up from the first analyzed path looking for ``pyproject.toml``
    (falling back to the path's own directory)."""
    start = os.path.abspath(paths[0]) if paths else os.getcwd()
    probe = start if os.path.isdir(start) else os.path.dirname(start)
    while True:
        if os.path.exists(os.path.join(probe, "pyproject.toml")):
            return probe
        parent = os.path.dirname(probe)
        if parent == probe:
            return start if os.path.isdir(start) else os.path.dirname(start)
        probe = parent


def analyze_paths(
    paths: Sequence[str],
    config: LintConfig | None = None,
    *,
    rules: Iterable[type] | None = None,
) -> list[Finding]:
    """Run every rule over ``paths``; returns unsuppressed findings,
    sorted by location.  Unparseable files yield a ``parse-error``
    finding instead of aborting the run."""
    config = config or LintConfig()
    root = config.root or find_root(paths)
    files, parse_errors = load_sources(paths, root)
    return sorted(parse_errors + run_rules(files, config, root, rules=rules))


def load_sources(
    paths: Sequence[str], root: str
) -> tuple[list[SourceFile], list[Finding]]:
    """Parse every ``.py`` file under ``paths``: the parsed sources, and a
    ``parse-error`` finding per file that does not parse."""
    sources: list[SourceFile] = []
    errors: list[Finding] = []
    for path in collect_files(paths):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            sources.append(SourceFile(path, rel, text))
        except SyntaxError as exc:
            errors.append(
                Finding(
                    path=rel,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    rule="parse-error",
                    message=f"file does not parse: {exc.msg}",
                )
            )
    return sources, errors


def run_rules(
    files: Sequence[SourceFile],
    config: LintConfig,
    root: str,
    *,
    rules: Iterable[type] | None = None,
) -> list[Finding]:
    """Run ``rules`` (default: every registered rule) over parsed sources;
    returns the unsuppressed findings, sorted by location."""
    ctx = Context(config=config, root=root, files=list(files))
    findings: list[Finding] = []
    for rule_cls in rules or DEFAULT_RULES:
        rule = rule_cls()
        for source in ctx.files:
            findings.extend(rule.check_file(source, ctx))
        findings.extend(rule.finalize(ctx))
    kept, _ = apply_suppressions(findings, root, ctx.files)
    return sorted(kept)
