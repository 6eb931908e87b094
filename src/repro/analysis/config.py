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

    # -- purity (DESIGN.md §11: the transition core is pure) ---------------
    #: Modules that may not import/call I/O, time, threads or RNGs, and may
    #: not mutate module globals.
    pure_module_suffixes: tuple[str, ...] = field(
        default_factory=lambda: _tuple("repro/core/scheduler/state.py")
    )
    #: Modules whose import alone makes code effectful/nondeterministic.
    pure_forbidden_modules: frozenset[str] = frozenset(
        {
            "io",
            "os",
            "pathlib",
            "random",
            "secrets",
            "selectors",
            "shutil",
            "socket",
            "subprocess",
            "sys",
            "tempfile",
            "threading",
            "time",
        }
    )
    #: Builtins that perform I/O.
    pure_forbidden_calls: frozenset[str] = frozenset(
        {"open", "print", "input", "exec", "eval", "__import__"}
    )
    #: Dotted-call prefixes that smuggle in a non-injected RNG.
    pure_forbidden_prefixes: tuple[str, ...] = field(
        default_factory=lambda: _tuple("np.random.", "numpy.random.")
    )
    #: Base class marking scheduling policies; their ``make_index``/
    #: ``select`` must stay effect-free except the injected ``self._rng``.
    policy_base_classes: frozenset[str] = frozenset({"SchedulingPolicy"})
    policy_pure_methods: tuple[str, ...] = field(
        default_factory=lambda: _tuple("make_index", "select")
    )

    # -- lock discipline (DESIGN.md §11: no I/O or callbacks under the lock)
    #: Modules whose ``with *_lock:`` blocks are held to the discipline.
    lock_module_suffixes: tuple[str, ...] = field(
        default_factory=lambda: _tuple(
            "repro/core/scheduler/core.py",
            "repro/core/scheduler/journal.py",
            "repro/core/scheduler/daemon.py",
            "repro/cluster/multigpu.py",
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

    # -- lock ordering (journal docstring: scheduler lock, then _cond) -----
    #: Cross-object receivers resolved to their class for graph nodes,
    #: e.g. ``scheduler._lock`` inside the journal.
    lock_class_aliases: dict[str, str] = field(
        default_factory=lambda: {"scheduler": "GpuMemoryScheduler"}
    )
    #: Lock attributes declared *leaf*: nothing — no other lock, no
    #: blocking call — may be acquired while one is held.  None is
    #: declared today; a lock consulted on a hot path under another
    #: component's lock is the case for one.
    lock_leaf_attrs: frozenset[str] = frozenset()

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

    # -- thread inventory (DESIGN.md §16: the set of threads is closed) ----
    #: The doc holding the declared-threads table (between the
    #: ``declared-threads:begin/end`` markers); ``None`` disables the
    #: thread-spawn rule.  Resolved against the repo root unless absolute.
    threads_doc_path: str | None = "DESIGN.md"

    # -- protocol drift (docs/PROTOCOL.md: one schema module) --------------
    #: The schema module: ``MSG_*`` constants + ``REQUEST_FIELDS`` +
    #: ``TRACE_FIELDS``.  Resolved against the repo root unless absolute.
    schema_path: str = "src/repro/ipc/protocol.py"
    #: Files allowed to *dispatch* on message types via ``_on_<type>``
    #: handler methods (checked against the schema).
    protocol_handler_suffixes: tuple[str, ...] = field(
        default_factory=lambda: _tuple("repro/core/scheduler/service.py")
    )
    #: The protocol reference doc kept in sync with the schema module
    #: (``None`` disables the doc check).
    protocol_doc_path: str | None = "docs/PROTOCOL.md"

    # -- observability hygiene ---------------------------------------------
    #: Names treated as the process-global metrics registry.
    metric_registry_names: frozenset[str] = frozenset({"REGISTRY"})
    #: Naming convention for declared metrics.
    metric_name_pattern: str = r"convgpu_[a-z0-9_]+"
    #: Names treated as the process-global flight recorder (``RECORDER``
    #: plus the per-module ``_REC`` alias the overhead benchmark stubs).
    event_registry_names: frozenset[str] = frozenset({"RECORDER", "_REC"})
    #: Naming convention for declared flight events (``subsystem.verb``).
    event_name_pattern: str = r"[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+"
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
