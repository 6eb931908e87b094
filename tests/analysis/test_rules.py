"""Per-rule good/bad fixtures: each invariant fires on the violating
snippet and stays quiet on the idiomatic one."""

from __future__ import annotations

from tests.analysis.conftest import rules_of

# ---------------------------------------------------------------------------
# lock-discipline
# ---------------------------------------------------------------------------

_LOCKED_SEND = """\
import threading

class Scheduler:
    def __init__(self, sock):
        self._lock = threading.Lock()
        self.sock = sock

    def bad(self, payload):
        with self._lock:
            self.sock.sendall(payload)
"""


def test_lock_discipline_flags_blocking_call_under_lock(lint):
    findings = lint({"mod.py": _LOCKED_SEND}, lock_module_suffixes=("mod.py",))
    assert rules_of(findings) == ["lock-discipline"]
    assert "sendall()" in findings[0].message


def test_lock_discipline_flags_callback_under_lock(lint):
    findings = lint(
        {
            "mod.py": """\
            import threading

            class Scheduler:
                def __init__(self):
                    self._lock = threading.Lock()

                def resume_all(self, callback):
                    with self._lock:
                        callback()
            """
        },
        lock_module_suffixes=("mod.py",),
    )
    assert rules_of(findings) == ["lock-discipline"]
    assert "user callback" in findings[0].message


def test_lock_discipline_ignores_closures_built_under_lock(lint):
    # A closure defined under the lock runs later, outside it.
    findings = lint(
        {
            "mod.py": """\
            import threading

            class Scheduler:
                def __init__(self, sock):
                    self._lock = threading.Lock()
                    self.sock = sock
                    self.ops = []

                def good(self, payload):
                    with self._lock:
                        def later():
                            self.sock.sendall(payload)
                        self.ops.append(later)
            """
        },
        lock_module_suffixes=("mod.py",),
    )
    assert findings == []


def test_lock_discipline_scoped_to_configured_modules(lint):
    findings = lint({"mod.py": _LOCKED_SEND}, lock_module_suffixes=("other.py",))
    assert findings == []


def test_lock_discipline_reaches_fsync_transitively(lint):
    # "This handler eventually calls fsync three frames down": the call
    # under the lock is innocuous by name; only the call-graph closure
    # sees the blocking call behind it.
    findings = lint(
        {
            "mod.py": """\
            import os
            import threading

            class Scheduler:
                def __init__(self):
                    self._lock = threading.Lock()

                def verb(self):
                    with self._lock:
                        self._bookkeep()

                def _bookkeep(self):
                    self._persist()

                def _persist(self):
                    os.fsync(0)
            """
        },
        lock_module_suffixes=("mod.py",),
    )
    assert rules_of(findings) == ["lock-discipline"]
    assert "fsync()" in findings[0].message
    assert "Scheduler._bookkeep -> Scheduler._persist" in findings[0].message
    # Reported at the call site under the lock, where the fix belongs.
    assert findings[0].snippet == "self._bookkeep()"


def test_lock_discipline_transitive_ignores_clean_helpers(lint):
    findings = lint(
        {
            "mod.py": """\
            import threading

            class Scheduler:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.n = 0

                def verb(self):
                    with self._lock:
                        self._bookkeep()

                def _bookkeep(self):
                    self.n += 1
            """
        },
        lock_module_suffixes=("mod.py",),
    )
    assert findings == []


def test_lock_discipline_flags_rename_under_scheduler_lock(lint):
    # The compactor's atomic swap must never run under the scheduler
    # lock — rename/fsync there stalls every producer on disk I/O.
    findings = lint(
        {
            "mod.py": """\
            import os
            import threading

            class Journal:
                def __init__(self, path):
                    self._lock = threading.Lock()
                    self.path = path

                def bad_swap(self, sidecar):
                    with self._lock:
                        os.rename(sidecar, self.path)
            """
        },
        lock_module_suffixes=("mod.py",),
    )
    assert rules_of(findings) == ["lock-discipline"]
    assert "rename()" in findings[0].message


def test_lock_discipline_exempts_io_serialization_lock(lint):
    # _io_lock exists *to* serialize file I/O (writer batches vs the
    # compactor's swap); flush/fsync/rename under it are the point.
    findings = lint(
        {
            "mod.py": """\
            import os
            import threading

            class Journal:
                def __init__(self, path, fh):
                    self._io_lock = threading.Lock()
                    self.path = path
                    self._fh = fh

                def swap(self, sidecar):
                    with self._io_lock:
                        self._fh.flush()
                        os.fsync(self._fh.fileno())
                        os.rename(sidecar, self.path)
            """
        },
        lock_module_suffixes=("mod.py",),
    )
    assert findings == []


# ---------------------------------------------------------------------------
# double-lock
# ---------------------------------------------------------------------------

_DOUBLE_LOCK_CLASS = """\
import threading

class Scheduler:
    def __init__(self):
        self._lock = threading.Lock()
        self.items = []

    def snapshot(self):
        with self._lock:
            return list(self.items)

    def %s
"""


def test_double_lock_flags_two_regions(lint):
    body = """two_reads(self):
        with self._lock:
            first = list(self.items)
        with self._lock:
            second = list(self.items)
        return first + second
"""
    findings = lint(
        {"mod.py": _DOUBLE_LOCK_CLASS % body}, lock_module_suffixes=("mod.py",)
    )
    assert rules_of(findings) == ["double-lock"]
    assert "2 times" in findings[0].message
    assert "two_reads" in findings[0].message


def test_double_lock_flags_snapshot_filtered_outside_lock(lint):
    # The PR-4 paused_containers() bug class: filter the result of a
    # lock-taking method after the lock is gone.
    body = """paused(self):
        return [r for r in self.snapshot() if r]
"""
    findings = lint(
        {"mod.py": _DOUBLE_LOCK_CLASS % body}, lock_module_suffixes=("mod.py",)
    )
    assert rules_of(findings) == ["double-lock"]
    assert "filters a snapshot" in findings[0].message


def test_double_lock_accepts_single_consistent_snapshot(lint):
    body = """paused(self):
        with self._lock:
            return [r for r in self.items if r]
"""
    findings = lint(
        {"mod.py": _DOUBLE_LOCK_CLASS % body}, lock_module_suffixes=("mod.py",)
    )
    assert findings == []


def test_double_lock_exempts_io_serialization_lock(lint):
    # Repeated _io_lock regions are file-I/O serialization, not a torn
    # scheduler-state read — only state-guarding locks count.
    findings = lint(
        {
            "mod.py": """\
            import threading

            class Journal:
                def __init__(self, fh):
                    self._io_lock = threading.Lock()
                    self._fh = fh

                def write_twice(self, first, second):
                    with self._io_lock:
                        self._fh.write(first)
                    with self._io_lock:
                        self._fh.write(second)
            """
        },
        lock_module_suffixes=("mod.py",),
    )
    assert findings == []


# ---------------------------------------------------------------------------
# loop-blocking
# ---------------------------------------------------------------------------

_LOOP_ENTRY = {"loop.py": {"IoLoop": ("_run",)}}


def test_loop_blocking_walks_helpers_transitively(lint):
    findings = lint(
        {
            "loop.py": """\
            import time

            class IoLoop:
                def _run(self):
                    while True:
                        self._step()

                def _step(self):
                    time.sleep(0.1)

                def shutdown(self):
                    time.sleep(1.0)
            """
        },
        loop_entry_points=_LOOP_ENTRY,
    )
    # shutdown() is not reachable from the selector thread: one finding.
    assert rules_of(findings) == ["loop-blocking"]
    assert "sleep()" in findings[0].message
    assert "IoLoop._run -> IoLoop._step" in findings[0].message


def test_loop_blocking_reaches_across_frames_and_modules(lint):
    # Three frames down and through a bare-function call into a sibling
    # module: the whole-program call graph closes over both.
    findings = lint(
        {
            "loop.py": """\
            import time

            from helpers import drain

            class IoLoop:
                def _run(self):
                    self._a()

                def _a(self):
                    self._b()

                def _b(self):
                    drain()
            """,
            "helpers.py": """\
            import time

            def drain():
                time.sleep(0.5)
            """,
        },
        loop_entry_points=_LOOP_ENTRY,
    )
    assert rules_of(findings) == ["loop-blocking"]
    # Reported at the blocking call site in the *other* module, with the
    # full reachability chain in the message.
    assert findings[0].path == "helpers.py"
    assert (
        "IoLoop._run -> IoLoop._a -> IoLoop._b -> drain" in findings[0].message
    )


def test_loop_blocking_depth_bound_caps_the_walk(lint):
    deep = "\n".join(
        f"    def _h{i}(self):\n        self._h{i + 1}()" for i in range(8)
    )
    source = (
        "import time\n\nclass IoLoop:\n"
        "    def _run(self):\n        self._h0()\n"
        f"{deep}\n"
        "    def _h8(self):\n        time.sleep(1)\n"
    )
    findings = lint(
        {"loop.py": source},
        loop_entry_points=_LOOP_ENTRY,
        callgraph_max_depth=4,
    )
    assert findings == []
    findings = lint(
        {"loop.py": source},
        loop_entry_points=_LOOP_ENTRY,
        callgraph_max_depth=16,
    )
    assert rules_of(findings) == ["loop-blocking"]


def test_loop_blocking_covers_posted_op_closures(lint):
    findings = lint(
        {
            "loop.py": """\
            class IoLoop:
                def post(self, queue):
                    def op():
                        queue.put(1)
                    self.ops.append(op)
            """
        },
        loop_entry_points=_LOOP_ENTRY,
    )
    assert rules_of(findings) == ["loop-blocking"]
    assert "put()" in findings[0].message
    assert "post.<op>" in findings[0].message


def test_loop_blocking_quiet_on_nonblocking_loop(lint):
    findings = lint(
        {
            "loop.py": """\
            class IoLoop:
                def _run(self):
                    while True:
                        for key, _ in self.selector_events():
                            self.dispatch(key)
            """
        },
        loop_entry_points=_LOOP_ENTRY,
    )
    assert findings == []


# ---------------------------------------------------------------------------
# protocol-drift
# ---------------------------------------------------------------------------

_SCHEMA = """\
MSG_PING = "ping"
MSG_DATA = "data"

REQUEST_FIELDS: dict = {
    MSG_PING: {"container_id": str},
    MSG_DATA: {"container_id": str, "size": int},
}
"""


def _proto_lint(lint, client_source, **overrides):
    overrides.setdefault("schema_path", "proto.py")
    overrides.setdefault("protocol_doc_path", None)
    return lint({"proto.py": _SCHEMA, "client.py": client_source}, **overrides)


def test_protocol_drift_flags_undeclared_constant(lint):
    findings = _proto_lint(
        lint,
        """\
        def kind(protocol):
            return protocol.MSG_BOGUS
        """,
    )
    assert rules_of(findings) == ["protocol-drift"]
    assert "MSG_BOGUS" in findings[0].message


def test_protocol_drift_flags_undeclared_payload_field(lint):
    findings = _proto_lint(
        lint,
        """\
        def send(protocol):
            return protocol.make_request(
                protocol.MSG_PING, seq=1, container_id="c", priority=3
            )
        """,
    )
    assert rules_of(findings) == ["protocol-drift"]
    assert "'priority'" in findings[0].message
    assert "'ping'" in findings[0].message


def test_protocol_drift_flags_undeclared_type_literal(lint):
    findings = _proto_lint(
        lint,
        """\
        def send(client):
            return client.make_request("mystery", container_id="c")
        """,
    )
    assert rules_of(findings) == ["protocol-drift"]
    assert "'mystery'" in findings[0].message


def test_protocol_drift_flags_match_against_unknown_type(lint):
    findings = _proto_lint(
        lint,
        """\
        def dispatch(message):
            msg_type = message["type"]
            if msg_type == "bogus":
                return None
            if msg_type in ("ping", "data", "ping_reply"):
                return message
        """,
    )
    assert rules_of(findings) == ["protocol-drift"]
    assert "'bogus'" in findings[0].message


def test_protocol_drift_flags_handler_for_unknown_type(lint):
    findings = _proto_lint(
        lint,
        """\
        class Service:
            def _on_ping(self, message, reply_handle):
                return None

            def _on_bogus(self, message, reply_handle):
                return None
        """,
        protocol_handler_suffixes=("client.py",),
    )
    assert rules_of(findings) == ["protocol-drift"]
    assert "_on_bogus" in findings[0].message


def test_protocol_drift_accepts_declared_vocabulary(lint):
    findings = _proto_lint(
        lint,
        """\
        def send(protocol, client):
            client.call("data", container_id="c", size=4)
            return protocol.make_request(protocol.MSG_PING, seq=2, container_id="c")
        """,
    )
    # .call with a bare string first arg is not resolvable to a declared
    # constant statically, so only make_request string literals are checked.
    assert findings == []


def test_protocol_drift_flags_handwritten_binary_tables(lint):
    """Inside the schema module, the binary tables must be derived."""
    handwritten = _SCHEMA + """\

MESSAGE_TAGS: dict = {"ping": 1, "data": 2}
TAG_MESSAGES = {1: "ping", 2: "data"}
BINARY_FIELDS = {name: tuple(f.items()) for name, f in REQUEST_FIELDS.items()}
"""
    findings = lint(
        {"proto.py": handwritten},
        schema_path="proto.py",
        protocol_doc_path=None,
    )
    assert rules_of(findings) == ["protocol-drift", "protocol-drift"]
    assert "MESSAGE_TAGS" in findings[0].message
    assert "TAG_MESSAGES" in findings[1].message
    assert all("derived from REQUEST_FIELDS" in f.message for f in findings)


def test_protocol_drift_accepts_derived_binary_tables(lint):
    derived = _SCHEMA + """\

MESSAGE_TAGS: dict = {n: i + 1 for i, n in enumerate(sorted(REQUEST_FIELDS))}
TAG_MESSAGES: dict = {tag: name for name, tag in MESSAGE_TAGS.items()}
BINARY_FIELDS = {name: tuple(f.items()) for name, f in REQUEST_FIELDS.items()}
"""
    findings = lint(
        {"proto.py": derived},
        schema_path="proto.py",
        protocol_doc_path=None,
    )
    assert findings == []


def test_protocol_doc_drift_is_bidirectional(lint, tmp_path):
    (tmp_path / "PROTOCOL.md").write_text(
        "| `ping` | `container_id` | liveness probe |\n"
        "| `mystery` | — | never declared |\n"
    )
    findings = lint(
        {"proto.py": _SCHEMA},
        schema_path="proto.py",
        protocol_doc_path="PROTOCOL.md",
    )
    assert rules_of(findings) == ["protocol-doc-drift", "protocol-doc-drift"]
    by_message = sorted(f.message for f in findings)
    assert any("'data'" in m and "missing" in m for m in by_message)
    assert any("'mystery'" in m for m in by_message)


# ---------------------------------------------------------------------------
# swallowed-exception
# ---------------------------------------------------------------------------


def test_swallowed_exception_flags_silent_broad_handler(lint):
    findings = lint(
        {
            "mod.py": """\
            def drop(client):
                try:
                    client.close()
                except Exception:
                    pass
            """
        },
        except_module_suffixes=("mod.py",),
    )
    assert rules_of(findings) == ["swallowed-exception"]


def test_swallowed_exception_accepts_logged_or_narrow_handlers(lint):
    findings = lint(
        {
            "mod.py": """\
            def drop(client, log):
                try:
                    client.close()
                except ValueError:
                    pass
                try:
                    client.close()
                except Exception as exc:
                    log.warning("close_failed", error=str(exc))
            """
        },
        except_module_suffixes=("mod.py",),
    )
    assert findings == []


# ---------------------------------------------------------------------------
# state-escape
# ---------------------------------------------------------------------------

_STATE_HEADER = """\
class SchedulerState:
    def __init__(self):
        self._containers = {}
        self._waiting = []
        self.total = 0
"""


def test_state_escape_flags_bare_mutable_return(lint):
    findings = lint(
        {
            "state.py": _STATE_HEADER
            + """\

    def all(self):
        return self._waiting
"""
        },
        pure_module_suffixes=("state.py",),
    )
    assert rules_of(findings) == ["state-escape"]
    assert "live reference" in findings[0].message
    assert "self._waiting" in findings[0].message


def test_state_escape_flags_live_dict_view(lint):
    findings = lint(
        {
            "state.py": _STATE_HEADER
            + """\

    def records(self):
        return self._containers.values()
"""
        },
        pure_module_suffixes=("state.py",),
    )
    assert rules_of(findings) == ["state-escape"]
    assert ".values() view" in findings[0].message


def test_state_escape_accepts_copies_and_scalars(lint):
    findings = lint(
        {
            "state.py": _STATE_HEADER
            + """\

    def records(self):
        return tuple(self._containers.values())

    def waiting(self):
        return list(self._waiting)

    def count(self):
        return self.total
"""
        },
        pure_module_suffixes=("state.py",),
    )
    assert findings == []


def test_state_escape_scoped_to_pure_modules(lint):
    findings = lint(
        {
            "runtime.py": _STATE_HEADER
            + """\

    def all(self):
        return self._waiting
"""
        },
        pure_module_suffixes=("state.py",),
    )
    assert findings == []
