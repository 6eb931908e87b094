"""Engine behavior: suppressions, reporters, parse errors and the
``repro lint`` CLI surface."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis import find_root, render_text
from repro.cli import main
from tests.analysis.conftest import rules_of

_BARE = """\
def risky():
    try:
        return 1
    except:{comment}
        return None
"""


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------


def test_suppression_on_the_finding_line(lint):
    source = _BARE.format(comment="  # reprolint: ignore[bare-except] -- why")
    assert lint({"mod.py": source}) == []


def test_suppression_in_comment_block_above(lint):
    source = """\
    def risky():
        try:
            return 1
        # reprolint: ignore[bare-except] -- a reason that wraps
        # onto a second comment line before the handler.
        except:
            return None
    """
    assert lint({"mod.py": source}) == []


def test_suppression_for_other_rule_does_not_apply(lint):
    source = _BARE.format(comment="  # reprolint: ignore[purity] -- wrong id")
    findings = lint({"mod.py": source})
    assert rules_of(findings) == ["bare-except"]


def test_suppression_without_rule_list_silences_everything(lint):
    source = _BARE.format(comment="  # reprolint: ignore[] -- blanket")
    assert lint({"mod.py": source}) == []


def test_suppression_does_not_leak_past_code_lines(lint):
    # The comment block scan stops at the first non-comment line.
    source = """\
    # reprolint: ignore[bare-except] -- too far away
    def risky():
        try:
            return 1
        except:
            return None
    """
    findings = lint({"mod.py": source})
    assert rules_of(findings) == ["bare-except"]


def test_suppression_inside_a_string_literal_is_not_a_comment(lint):
    # Only comment tokens suppress: the same text as string data must
    # leave the finding standing.
    source = """\
    def risky():
        try:
            return 1
        except: x = "# reprolint: ignore[bare-except] -- not a comment"
    """
    findings = lint({"mod.py": source})
    assert rules_of(findings) == ["bare-except"]


def test_suppression_in_a_docstring_is_not_a_comment():
    from repro.analysis import SourceFile

    text = '''def f():
    """
    # reprolint: ignore[bare-except]
    """
    x = 1  # reprolint: ignore[purity]
'''
    source = SourceFile("mod.py", "mod.py", text)
    assert source.suppressions == {5: {"purity"}}
    assert source.unreasoned == {5}


# ---------------------------------------------------------------------------
# parse errors
# ---------------------------------------------------------------------------


def test_unparseable_file_yields_parse_error_finding(lint):
    findings = lint({"broken.py": "def broken(:\n", "fine.py": "X = 1\n"})
    assert rules_of(findings) == ["parse-error"]
    assert findings[0].path == "broken.py"


# ---------------------------------------------------------------------------
# reporters
# ---------------------------------------------------------------------------


def test_reporters(lint):
    findings = lint({"mod.py": _BARE.format(comment="")})
    text = render_text(findings)
    assert "mod.py:4" in text
    assert "[bare-except]" in text
    assert "1 finding(s): 1 bare-except" in text
    assert render_text([]) == "no findings"


def test_find_root_walks_up_to_pyproject(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[project]\n")
    nested = tmp_path / "src" / "pkg"
    nested.mkdir(parents=True)
    (nested / "mod.py").write_text("X = 1\n")
    assert find_root([str(nested / "mod.py")]) == str(tmp_path)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return str(path)


def test_cli_exit_codes_and_text_output(tmp_path, capsys):
    bad = _write(tmp_path, "bad.py", _BARE.format(comment=""))
    assert main(["lint", bad]) == 1
    out = capsys.readouterr().out
    assert "[bare-except]" in out

    good = _write(tmp_path, "good.py", "X = 1\n")
    assert main(["lint", good]) == 0
    assert "no findings" in capsys.readouterr().out


def test_cli_has_one_machine_format(tmp_path, capsys):
    # SARIF is the one machine-readable format; JSON is a usage error
    # before any file is analyzed.
    good = _write(tmp_path, "good.py", "X = 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["lint", "--format", "json", good])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_missing_path_is_usage_error(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "nope")]) == 2
    assert "no such file" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# SARIF
# ---------------------------------------------------------------------------


def test_sarif_renderer_shape(lint):
    from repro.analysis import render_sarif

    findings = lint({"mod.py": _BARE.format(comment="")})
    payload = json.loads(render_sarif(findings, tool_name="reprolint"))
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "reprolint"
    assert run["tool"]["driver"]["rules"] == [{"id": "bare-except"}]
    result = run["results"][0]
    assert result["ruleId"] == "bare-except"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "mod.py"
    assert location["region"]["startLine"] == 4


def test_cli_sarif_format(tmp_path, capsys):
    bad = _write(tmp_path, "bad.py", _BARE.format(comment=""))
    assert main(["lint", "--format", "sarif", bad]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["runs"][0]["results"][0]["ruleId"] == "bare-except"
