"""Rescan-everything reference model of the memory scheduler (§III-D/E).

The differential oracle for ``SchedulerState``: the same protocol verbs
written the slow, obvious way — no events, no incremental counters, no
candidate index.  ``used`` and the free pool are recomputed from the
records on every read, and every settle step rescans every container.
Picks go through the policies' pure ``select()``.  Fixed to
``resume_mode="fit"``; there is no clock, so time-keyed policies (RU) and
suspension totals are out of its scope.

Memory is handed out where §III-D hands it out — when a container exits,
and when the all-paused wedge is broken — so, like the scheduler, a pause
that happens while memory is free waits for one of those two.
"""

from repro.core.scheduler.state import CONTEXT_OVERHEAD_CHARGE


class Refused(Exception):
    """The model's ``SchedulerError``: the verb is refused, nothing changes."""


class RefContainer:
    def __init__(self, created_seq, limit, assigned):
        self.created_seq, self.limit, self.assigned = created_seq, limit, assigned
        self.inflight = 0
        self.closed = False
        self.allocations = {}  # address -> (pid, size); -pid: the context charge
        self.charged = set()  # pids charged the first-allocation overhead
        self.owed = set()  # ... whose charge is still inflight
        self.queue = []  # withheld requests, in order: (pid, effective size)

    used = property(lambda self: sum(size for _, size in self.allocations.values()))
    insufficiency = property(lambda self: max(0, self.limit - self.assigned))

    def view(self):
        """What the differential test compares against a ``ContainerRecord``."""
        return self.assigned, self.used, self.inflight, bool(self.queue), self.closed


class ReferenceModel:
    def __init__(self, total, policy, overhead=CONTEXT_OVERHEAD_CHARGE):
        self.total, self.policy, self.overhead = total, policy, overhead
        self.containers = {}
        self.registrations = 0

    def _live(self):
        return [c for c in self.containers.values() if not c.closed]

    def _open(self, cid):
        container = self.containers.get(cid)
        if container is None or container.closed:
            raise Refused(f"no open container {cid!r}")
        return container

    def _free(self):
        return self.total - sum(c.assigned for c in self._live())

    def register(self, cid, limit):
        existing = self.containers.get(cid)
        if not 0 < limit <= self.total or (existing and not existing.closed):
            raise Refused(f"cannot register {cid!r} with limit {limit}")
        self.registrations += 1
        self.containers[cid] = RefContainer(
            self.registrations, limit, min(limit, self._free())
        )

    def request(self, cid, pid, size):
        c = self._open(cid)
        effective = size + (0 if pid in c.charged else self.overhead)
        if c.used + c.inflight + effective > c.limit:
            return "reject"
        if effective != size:
            c.charged.add(pid)
            c.owed.add(pid)
        if not c.queue and c.used + c.inflight + effective <= c.assigned:
            c.inflight += effective
            return "grant"
        c.queue.append((pid, effective))
        self._break_wedge()
        return "pause"

    def commit(self, cid, pid, address, size):
        c = self._open(cid)
        overhead = self.overhead if pid in c.owed else 0
        if address in c.allocations or size + overhead > c.inflight:
            raise Refused(f"commit of {size} at {address:#x}")
        c.inflight -= size + overhead
        c.allocations[address] = (pid, size)
        if overhead:
            c.owed.discard(pid)
            c.allocations[-pid] = (pid, overhead)

    def abort(self, cid, pid, size):
        c = self._open(cid)
        overhead = self.overhead if pid in c.owed else 0
        if size + overhead > c.inflight:
            raise Refused(f"abort of {size}")
        c.inflight -= size + overhead
        if overhead:
            c.owed.discard(pid)
            c.charged.discard(pid)
        self._resume_all()
        self._break_wedge()

    def release(self, cid, address):
        c = self._open(cid)
        if address not in c.allocations:
            raise Refused(f"release of unknown address {address:#x}")
        del c.allocations[address]
        self._resume_all()
        self._break_wedge()

    def process_exit(self, cid, pid):
        c = self._open(cid)
        c.allocations = {a: v for a, v in c.allocations.items() if v[0] != pid}
        c.charged.discard(pid)
        c.owed.discard(pid)
        self._resume_all()
        self._break_wedge()

    def container_exit(self, cid):
        c = self.containers.get(cid)
        if c is None or c.closed:
            return
        c.closed, c.assigned, c.inflight = True, 0, 0
        c.allocations, c.queue = {}, []
        self._hand_out()
        self._break_wedge()

    def _resume_all(self):
        for c in self._live():
            while c.queue and c.used + c.inflight + c.queue[0][1] <= c.assigned:
                c.inflight += c.queue.pop(0)[1]

    def _hand_out(self):
        """§III-D: repeatedly top up the policy's pick among paused containers."""
        while self._free() > 0:
            short = [c for c in self._live() if c.queue and c.insufficiency > 0]
            if not short:
                return
            chosen = self.policy.select(short, self._free())
            chosen.assigned += min(chosen.insufficiency, self._free())
            self._resume_all()

    def _break_wedge(self):
        """Everyone paused: pull back what nobody can use and hand it out again."""
        if not self._live() or not all(c.queue for c in self._live()):
            return
        idle = [(c, c.assigned - c.used - c.inflight) for c in self._live()]
        for c, amount in idle:
            c.assigned -= max(0, amount)
        if any(amount > 0 for _, amount in idle):
            self._hand_out()
