"""The policy plug-in registry: register_policy and the daemon CLI loader."""

from __future__ import annotations

import textwrap

import pytest

from repro.core.scheduler.policies import (
    POLICIES,
    RecentUsePolicy,
    SchedulingPolicy,
    make_policy,
    register_policy,
)


@pytest.fixture(autouse=True)
def _restore_registry():
    snapshot = dict(POLICIES)
    yield
    POLICIES.clear()
    POLICIES.update(snapshot)


class TinyPolicy(SchedulingPolicy):
    name = "Tiny"

    def select(self, index, state):  # pragma: no cover - never driven here
        return None


def test_register_then_make_policy():
    register_policy("Tiny", TinyPolicy)
    policy = make_policy("Tiny")
    assert isinstance(policy, TinyPolicy)


def test_register_returns_factory_for_decorator_use():
    assert register_policy("Tiny", TinyPolicy) is TinyPolicy


def test_duplicate_name_raises_unless_replace():
    register_policy("Tiny", TinyPolicy)
    with pytest.raises(ValueError, match="already registered"):
        register_policy("Tiny", RecentUsePolicy)
    register_policy("Tiny", RecentUsePolicy, replace=True)
    assert isinstance(make_policy("Tiny"), RecentUsePolicy)


def test_builtin_names_are_protected_the_same_way():
    with pytest.raises(ValueError, match="already registered"):
        register_policy("FIFO", TinyPolicy)


def test_non_callable_factory_rejected():
    with pytest.raises(TypeError, match="not callable"):
        register_policy("Broken", object())


def test_reexported_at_package_roots():
    import repro
    import repro.core.scheduler

    assert repro.register_policy is register_policy
    assert repro.core.scheduler.register_policy is register_policy


def test_cli_policy_plugin_loader(tmp_path, monkeypatch, capsys):
    from repro.cli import _load_policy_plugins

    (tmp_path / "my_site_policy.py").write_text(
        textwrap.dedent(
            """\
            from repro import register_policy
            from repro.core.scheduler.policies import SchedulingPolicy

            class SitePolicy(SchedulingPolicy):
                name = "Site"

                def select(self, index, state):
                    return None

            register_policy("Site", SitePolicy)
            """
        )
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    _load_policy_plugins(["my_site_policy"])
    assert type(make_policy("Site")).__name__ == "SitePolicy"
    assert "registered Site" in capsys.readouterr().out


def test_cli_plugin_import_errors_surface():
    from repro.cli import _load_policy_plugins

    with pytest.raises(ModuleNotFoundError):
        _load_policy_plugins(["definitely_not_a_module"])
