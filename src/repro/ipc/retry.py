"""Bounded retry with exponential backoff — the client side of crash safety.

The scheduler daemon is a single point of failure for every wrapper: a
blocked ``recv`` with no daemon behind it would hang a container's CUDA
call forever.  This module gives clients a disciplined recovery loop:

- :class:`RetryPolicy` — attempt budget plus exponential backoff with full
  jitter (the AWS-style ``random(0, min(cap, base * 2**attempt))`` schedule
  that avoids thundering-herd reconnects after a daemon restart);
- :class:`ResilientClient` — wraps a client *factory* (not a client): on
  :class:`~repro.errors.IpcDisconnected` it drops the broken connection,
  redials with backoff, and re-issues the interrupted request.

Re-issuing is safe for every message in the protocol: queries are
idempotent, notifications are applied idempotently or rejected in-band by
the scheduler, and a re-sent ``alloc_request`` is *adopted* by the
scheduler's orphaned pending entry after a crash instead of double-queued
(see ``GpuMemoryScheduler.request_allocation``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import IpcDisconnected, IpcTimeoutError, TransportError
from repro.obs.metrics import REGISTRY

__all__ = ["RetryPolicy", "ResilientClient", "DEFAULT_RETRY_POLICY"]

_RETRIES = REGISTRY.counter(
    "convgpu_ipc_retries_total",
    "IPC attempts retried after a disconnect/timeout",
    labelnames=("error",),
)
_REDIALS = REGISTRY.counter(
    "convgpu_ipc_redials_total",
    "Fresh connections dialed by resilient clients (first dial included)",
)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with full jitter.

    Args:
        max_attempts: total tries (first attempt included); >= 1.
        base_delay: backoff unit in seconds for attempt 0.
        multiplier: exponential growth factor per attempt.
        max_delay: cap on any single sleep.
        jitter: 0.0 = deterministic schedule, 1.0 = full jitter
            (each sleep drawn uniformly from [delay*(1-jitter), delay]).
        give_up_after: optional wall-clock budget in seconds across *all*
            attempts — once spent, the last error surfaces immediately
            instead of sleeping through the rest of the schedule.  With
            hundreds of containers redialing a torn-down socket (a reaped
            container, a moved daemon) this bounds how long each client can
            stay wedged; ``None`` (default) keeps the pure attempt budget.
    """

    max_attempts: int = 8
    base_delay: float = 0.02
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 1.0
    give_up_after: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1]: {self.jitter}")
        if self.give_up_after is not None and self.give_up_after <= 0:
            raise ValueError(f"give_up_after must be positive: {self.give_up_after}")

    def delay(self, attempt: int, rng: random.Random | None = None) -> float:
        """Sleep before retry number ``attempt`` (0-based)."""
        ceiling = min(self.max_delay, self.base_delay * self.multiplier**attempt)
        if self.jitter == 0.0 or ceiling == 0.0:
            return ceiling
        draw = rng.random() if rng is not None else random.random()
        return ceiling * (1.0 - self.jitter * draw)

    def delays(self, rng: random.Random | None = None) -> list[float]:
        """The full schedule: one sleep between each pair of attempts."""
        return [self.delay(i, rng) for i in range(self.max_attempts - 1)]


#: Conservative default used by the wrapper and the live runner.
DEFAULT_RETRY_POLICY = RetryPolicy()


def call_with_retry(
    operation: Callable[[], Any],
    policy: RetryPolicy,
    *,
    retry_on: tuple[type[BaseException], ...] = (IpcDisconnected, IpcTimeoutError),
    sleep: Callable[[float], None] = time.sleep,
    rng: random.Random | None = None,
    on_retry: Callable[[int, BaseException], None] | None = None,
    clock: Callable[[], float] = time.monotonic,
) -> Any:
    """Run ``operation`` under the policy; re-raise the last error when spent.

    Attempts stop when either budget runs out: the attempt count, or —
    when the policy sets ``give_up_after`` — the wall clock (measured by
    ``clock``, injectable so tests can drive it deterministically).
    """
    deadline = (
        clock() + policy.give_up_after if policy.give_up_after is not None else None
    )
    last_exc: BaseException | None = None
    for attempt in range(policy.max_attempts):
        try:
            return operation()
        except retry_on as exc:
            last_exc = exc
            if attempt == policy.max_attempts - 1:
                break
            delay = policy.delay(attempt, rng)
            if deadline is not None and clock() + delay > deadline:
                break  # the budget would be spent sleeping: surface now
            if on_retry is not None:
                on_retry(attempt, exc)
            sleep(delay)
    assert last_exc is not None
    raise last_exc


__all__.append("call_with_retry")


@dataclass
class ResilientClient:
    """Reconnecting request/response client over any raw transport client.

    ``factory`` dials one connection and returns an object with ``call``,
    ``notify`` and ``close`` (both socket clients qualify).  Transparent
    reconnect-and-retry turns a daemon restart into added latency instead of
    a wedged container.

    ``sleep``/``rng`` are injectable so tests can run the full backoff
    schedule in zero wall-clock time.
    """

    factory: Callable[[], Any]
    policy: RetryPolicy = DEFAULT_RETRY_POLICY
    sleep: Callable[[float], None] = time.sleep
    clock: Callable[[], float] = time.monotonic
    rng: random.Random | None = None
    #: (attempt, exception) pairs observed; observability + test oracle.
    retries: list[tuple[int, str]] = field(default_factory=list)
    _client: Any = field(default=None, init=False, repr=False)

    # -- connection management --------------------------------------------

    @property
    def codec(self) -> str | None:
        """Wire codec of the *current* connection (``None`` when dropped).

        Codec choice is a per-connection property, never cached across a
        redial: negotiation happens inside the factory's client constructor,
        so every reconnect re-runs the hello handshake from scratch and may
        land on a different codec than the previous connection (e.g. after
        the daemon was replaced by a JSON-only build).  Regression-tested in
        ``tests/ipc/test_handshake.py``.
        """
        if self._client is None:
            return None
        return getattr(self._client, "codec", None)

    def _connected(self) -> Any:
        if self._client is None:
            self._client = self.factory()
            _REDIALS.inc()
        return self._client

    def _drop(self) -> None:
        if self._client is not None:
            try:
                self._client.close()
            # reprolint: ignore[swallowed-exception] -- the client is being
            # dropped because its transport already failed; a second error
            # from close() carries no new information.
            except Exception:
                pass
            self._client = None

    def close(self) -> None:
        self._drop()

    def __enter__(self) -> "ResilientClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- resilient operations ---------------------------------------------

    def _issue(self, method: str, msg_type: str, payload: dict[str, Any]) -> Any:
        def operation() -> Any:
            try:
                client = self._connected()
                return getattr(client, method)(msg_type, **payload)
            except (IpcDisconnected, IpcTimeoutError):
                # The connection is suspect either way: next attempt redials.
                self._drop()
                raise

        def record(attempt: int, exc: BaseException) -> None:
            self.retries.append((attempt, type(exc).__name__))
            _RETRIES.labels(error=type(exc).__name__).inc()

        try:
            return call_with_retry(
                operation,
                self.policy,
                sleep=self.sleep,
                rng=self.rng,
                on_retry=record,
                clock=self.clock,
            )
        except (IpcDisconnected, IpcTimeoutError):
            raise  # operation() already dropped the connection
        except TransportError:
            self._drop()
            raise

    def call(self, msg_type: str, **payload: Any) -> dict[str, Any]:
        """Blocking request/response with reconnect-and-reissue."""
        return self._issue("call", msg_type, payload)

    def notify(self, msg_type: str, **payload: Any) -> None:
        """Fire-and-forget notification, retried until the send succeeds."""
        self._issue("notify", msg_type, payload)
