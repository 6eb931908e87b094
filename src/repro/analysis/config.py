"""Configuration for the reprolint rules.

Every scope below is a tuple of *path suffixes* matched against the
``/``-normalized path of an analyzed file, so the same config works on an
installed tree, a checkout, or a test fixture that mirrors the layout.
Tests narrow or redirect scopes with :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["LintConfig"]


def _tuple(*items: str) -> tuple[str, ...]:
    return tuple(items)


@dataclass(frozen=True)
class LintConfig:
    """Knobs for the rule set; defaults encode this repo's architecture."""

    #: Repo root override; ``None`` means walk up from the analyzed paths
    #: looking for ``pyproject.toml``.
    root: str | None = None

    # -- call graph (shared by loop-blocking / lock-discipline / reprosan) --
    #: Bounded-depth closure over the whole-program call graph: how many
    #: resolved frames beyond a checked region the blocking-reachability
    #: walks follow (1 = only the called function's own body).
    callgraph_max_depth: int = 6

    # -- state-escape (DESIGN.md §11: the transition core is pure) ---------
    #: Modules whose classes may not hand out live mutable state.
    pure_module_suffixes: tuple[str, ...] = field(
        default_factory=lambda: _tuple("repro/core/scheduler/state.py")
    )

    # -- lock discipline (DESIGN.md §11: no I/O or callbacks under the lock)
    #: Modules whose ``with *_lock:`` blocks are held to the discipline.
    lock_module_suffixes: tuple[str, ...] = field(
        default_factory=lambda: _tuple(
            "repro/core/scheduler/core.py",
            "repro/core/scheduler/journal.py",
            "repro/core/scheduler/daemon.py",
        )
    )
    #: Call names (last dotted segment) that block or touch the outside
    #: world; calling one inside a critical section is a finding.
    lock_blocking_calls: frozenset[str] = frozenset(
        {
            "accept",
            "connect",
            "fsync",
            "flush",
            "join",
            "recv",
            "select",
            "send",
            "sendall",
            "sleep",
            "urlopen",
            "wait_durable",
            "write_snapshot",
            # The journal's synchronous appenders flush (and may fsync);
            # reaching them from inside a critical section is the exact
            # write-under-lock regression the group-commit split removed.
            "_write",
            "_write_items",
            # The compactor's atomic swap: renaming/replacing a file is
            # filesystem I/O; under the scheduler lock it would stall
            # every producer for the duration of the rewrite.
            "rename",
            "replace",
        }
    )
    #: Bare names whose call under the lock hands control to user code.
    lock_callback_names: frozenset[str] = frozenset(
        {"callback", "on_resume", "resume"}
    )
    #: Lock attributes that exist precisely to serialize file I/O (the
    #: journal's ``_io_lock``: writer batches vs the compactor's atomic
    #: rename + reopen).  Blocking I/O inside them is their whole job, so
    #: lock-discipline and double-lock skip them — the scheduler lock is
    #: never exempt, which is the invariant those rules protect.
    lock_io_exempt_attrs: frozenset[str] = frozenset({"_io_lock"})

    # -- loop-thread safety (DESIGN.md §10: the selector thread never blocks)
    #: suffix -> {class name -> selector-thread entry-point methods}.
    loop_entry_points: dict[str, dict[str, tuple[str, ...]]] = field(
        default_factory=lambda: {
            "repro/ipc/loop.py": {
                "IoLoop": (
                    "_run",
                    "_run_ops",
                    "_handle_accept",
                    "_handle_readable",
                    "_drop",
                    "_enqueue",
                    "_wake",
                ),
            }
        }
    )
    #: Nested functions with these names are ops posted to the loop thread.
    loop_closure_names: frozenset[str] = frozenset({"op"})
    #: Calls that may block the selector thread.
    loop_blocking_calls: frozenset[str] = frozenset(
        {
            "accept",
            "acquire",
            "connect",
            "fsync",
            "flush",
            "join",
            "put",
            "recv",
            "send",
            "sendall",
            "sleep",
            "urlopen",
            "wait",
            "wait_durable",
        }
    )

    # -- protocol drift (docs/PROTOCOL.md: one schema module) --------------
    #: The schema module: ``MSG_*`` constants + ``REQUEST_FIELDS``.
    #: Resolved against the repo root unless absolute.
    schema_path: str = "src/repro/ipc/protocol.py"
    #: Files allowed to *dispatch* on message types via ``_on_<type>``
    #: handler methods (checked against the schema).
    protocol_handler_suffixes: tuple[str, ...] = field(
        default_factory=lambda: _tuple("repro/core/scheduler/service.py")
    )
    #: The protocol reference doc kept in sync with the schema module
    #: (``None`` disables the doc check).
    protocol_doc_path: str | None = "docs/PROTOCOL.md"

    # -- swallowed exceptions ----------------------------------------------
    #: Modules where IpcDisconnected can fly: a broad handler that
    #: silently swallows it hides daemon/wrapper connectivity bugs.
    except_module_suffixes: tuple[str, ...] = field(
        default_factory=lambda: _tuple(
            "repro/ipc/",
            "repro/core/wrapper/",
            "repro/core/scheduler/service.py",
            "repro/core/scheduler/daemon.py",
        )
    )
