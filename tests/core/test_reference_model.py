"""Differential test: ``SchedulerState`` against the reference model.

With ``apply_event`` the single mutator there is no second copy of the
bookkeeping inside ``state.py`` to disagree with; the independent account
is :mod:`tests.core.reference_model`.  Random verb sequences drive both and
every decision, every refusal and every open container's
``(assigned, used, inflight, paused)`` must agree after each op.  An exited
container leaves no record in the state; the model keeps its closed ones,
so only the open ones are compared (the set of ids is part of the check).
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.scheduler.policies import make_policy
from repro.core.scheduler.state import SchedulerState
from repro.errors import SchedulerError
from repro.units import MiB

from tests.core.reference_model import ReferenceModel, Refused

TOTAL = 1024 * MiB
CONTAINER_IDS = ("c0", "c1", "c2", "c3")
LIMITS = (256 * MiB, 512 * MiB, 768 * MiB, TOTAL)
SIZES = (16 * MiB, 100 * MiB, 200 * MiB, 400 * MiB, 600 * MiB)
#: Repeats are weights: allocations fill, pause and wedge a device; exits
#: are rare enough that containers live to see it happen.
KINDS = ("alloc",) * 8 + ("release",) * 3 + ("commit_held",) * 2
KINDS += ("register", "pexit", "cexit")


def as_op(fields):
    """One uniformly drawn record, cut down to the op it stands for."""
    kind, cid, pid, size, then, pick, oversize, limit = fields
    return {
        "alloc": (kind, cid, pid, size, then),  # ``then``: what follows a grant
        "commit_held": (kind, pick, oversize),
        "release": (kind, pick),
        "register": (kind, cid, limit),
        "pexit": (kind, cid, pid),
        "cexit": (kind, cid),
    }[kind]


#: Every run opens by registering c0..c(n-1), so that most generated verbs
#: address a live container; the limits over-subscribe the device often
#: enough that partial reservations and pauses are common.
OPENING = st.lists(st.sampled_from(LIMITS), min_size=2, max_size=4)
OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.sampled_from(CONTAINER_IDS),
        st.integers(min_value=1, max_value=2),  # pid
        st.sampled_from(SIZES),
        st.sampled_from(("commit", "commit", "abort", "hold")),
        st.integers(min_value=0, max_value=15),
        st.booleans(),
        st.sampled_from(LIMITS + (0, 2 * TOTAL)),
    ).map(as_op),
    min_size=8,
    max_size=50,
)

#: A wedge over two containers (no random run of this size finds one): c0
#: exits while nobody is paused, c2 pauses on nothing, then c1 pauses with
#: 30 MiB idle — reclaimed, and handed out again together with c0's memory.
WEDGE = (
    [512 * MiB, 768 * MiB, 768 * MiB],
    [
        ("cexit", "c0"),
        ("alloc", "c2", 1, 100 * MiB, "commit"),
        ("alloc", "c1", 1, 400 * MiB, "commit"),
        ("alloc", "c1", 1, 16 * MiB, "hold"),
        ("alloc", "c1", 1, 200 * MiB, "commit"),
        ("commit_held", 0, False),
        ("commit_held", 0, False),
        ("commit_held", 0, False),
    ],
)


def outcome(call):
    """A request's decision kind, ``"ok"`` for the other verbs, or ``"refused"``."""
    try:
        return call() or "ok"
    except (SchedulerError, Refused):
        return "refused"


class Pair:
    """One verb, applied to the real state and to the model."""

    def __init__(self, policy_name):
        self.state = SchedulerState(TOTAL, make_policy(policy_name))
        self.model = ReferenceModel(TOTAL, make_policy(policy_name))
        self.now = 0.0
        self.held = []  # grants not yet committed: (cid, pid, size)
        self.committed = []  # (cid, address)
        self.next_address = 1

    def real(self, verb, *args):
        """Run one ``SchedulerState`` verb and deliver its resumptions."""
        self.now += 1.0
        transition = getattr(self.state, verb)(*args, self.now)
        for callback, payload in transition.resumptions:
            callback(payload)
        return transition.value.kind if verb == "request" else None

    def both(self, verb, *args, real_args=None):
        got = outcome(lambda: self.real(verb, *(real_args or args)))
        return got, outcome(lambda: getattr(self.model, verb)(*args))

    def commit(self, cid, pid, size):
        address, self.next_address = self.next_address, self.next_address + 1
        got, want = self.both("commit", cid, pid, address, size)
        if got == "ok":
            self.committed.append((cid, address))
        return got, want

    def apply(self, op):
        """Returns ``(real outcome, model outcome)`` of one generated op."""
        kind = op[0]
        if kind == "register":
            return self.both("register", op[1], op[2])
        if kind == "alloc":
            _, cid, pid, size, then = op

            def on_resume(payload):
                if payload["decision"] == "grant":
                    self.held.append((cid, pid, size))

            real_args = (cid, pid, size, "cudaMalloc", on_resume)
            got, want = self.both("request", cid, pid, size, real_args=real_args)
            if (got, want) != ("grant", "grant"):
                return got, want
            if then == "commit":
                return self.commit(cid, pid, size)
            if then == "abort":
                return self.both("abort", cid, pid, size)
            self.held.append((cid, pid, size))
            return got, want
        if kind == "commit_held" and self.held:
            cid, pid, size = self.held.pop(op[1] % len(self.held))
            return self.commit(cid, pid, size * 8 if op[2] else size)
        if kind == "release" and self.committed:
            cid, address = self.committed.pop(op[1] % len(self.committed))
            return self.both("release", cid, address, real_args=(cid, 0, address))
        if kind == "pexit":
            return self.both("process_exit", op[1], op[2])
        if kind == "cexit":
            return self.both("container_exit", op[1])
        return None, None

    def views(self):
        real = {
            r.container_id: (r.assigned, r.used, r.inflight, r.paused)
            for r in self.state.records()
        }
        model = {
            cid: c.view()[:4]
            for cid, c in self.model.containers.items()
            if not c.closed
        }
        return real, model


@pytest.mark.parametrize("policy_name", ("FIFO", "BF"))
@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(opening=OPENING, ops=OPERATIONS)
@example(*WEDGE)
def test_state_agrees_with_reference_model(policy_name, opening, ops):
    pair = Pair(policy_name)
    ops = [("register", cid, limit) for cid, limit in zip(CONTAINER_IDS, opening)] + ops
    for index, op in enumerate(ops):
        got, want = pair.apply(op)
        real, model = pair.views()
        assert (got, real) == (want, model), f"diverged at op {index} of {ops}"
        pair.state.check_invariants()
