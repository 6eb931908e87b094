"""Placement: the one cross-device decision, in one table (§V future work).

Memory cannot move between devices (or hosts), so the only decision that
spans them is *where a container goes*; everything after it is the
per-device memory-safe scheduler, unchanged.  Both in-process drivers
resolve that decision here — :class:`~repro.cluster.multigpu.
MultiGpuScheduler` over the GPUs of one host, :class:`~repro.cluster.
swarm.SwarmCluster` over whole simulated nodes.

A placement is a callable ``(pools, container_id, limit) -> index | None``
over any sequence whose items expose ``.unreserved`` and
``.total_memory``; ``None`` means no pool can ever hold ``limit``:

- ``most-free``   — the pool with the most unreserved memory (spread);
- ``best-fit``    — the pool whose unreserved memory is the smallest that
  still fits the limit (binpack: keeps big pools free for big tenants);
- ``round-robin`` — cycle across the pools that can fit the limit;
- ``random``      — uniform choice among the pools that can fit the limit.

No built-in placement reads the container id, but the id is part of the
contract so a stateful placement can be deterministic per tenant.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import ClusterError

__all__ = ["PLACEMENT_POLICIES", "make_placement"]

Placement = Callable[[Sequence[Any], str, int], "int | None"]


def place_most_free(
    pools: Sequence[Any], container_id: str, limit: int
) -> int | None:
    """Index of the pool with the most unreserved memory (lowest on ties)."""
    candidates = [
        (pool.unreserved, -i)
        for i, pool in enumerate(pools)
        if limit <= pool.total_memory
    ]
    if not candidates:
        return None
    _, neg_index = max(candidates)
    return -neg_index


def place_best_fit(
    pools: Sequence[Any], container_id: str, limit: int
) -> int | None:
    """Index of the tightest pool that can reserve ``limit`` in full."""
    fitting = [
        (pool.unreserved, i)
        for i, pool in enumerate(pools)
        if limit <= pool.total_memory and pool.unreserved >= limit
    ]
    if fitting:
        # Smallest unreserved pool that still covers the limit.
        _, index = min(fitting)
        return index
    # Nobody can reserve fully right now: fall back to the pool with the
    # most room (the container will be partially assigned + paused there).
    return place_most_free(pools, container_id, limit)


class _RoundRobin:
    def __init__(self) -> None:
        self._next = 0

    def __call__(
        self, pools: Sequence[Any], container_id: str, limit: int
    ) -> int | None:
        n = len(pools)
        for offset in range(n):
            index = (self._next + offset) % n
            if limit <= pools[index].total_memory:
                self._next = (index + 1) % n
                return index
        return None


class _PlaceRandom:
    def __init__(self, rng: np.random.Generator | None) -> None:
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def __call__(
        self, pools: Sequence[Any], container_id: str, limit: int
    ) -> int | None:
        fitting = [i for i, pool in enumerate(pools) if limit <= pool.total_memory]
        if not fitting:
            return None
        return fitting[int(self._rng.integers(0, len(fitting)))]


#: name -> ``factory(rng) -> placement``.  A factory, because ``round-robin``
#: and ``random`` carry per-driver state; only ``random`` reads ``rng``.
PLACEMENT_POLICIES: dict[str, Callable[[np.random.Generator | None], Placement]] = {
    "most-free": lambda rng: place_most_free,
    "best-fit": lambda rng: place_best_fit,
    "round-robin": lambda rng: _RoundRobin(),
    "random": _PlaceRandom,
}


def make_placement(name: str, rng: np.random.Generator | None = None) -> Placement:
    """A fresh placement callable by name; ``rng`` seeds ``random`` only."""
    try:
        factory = PLACEMENT_POLICIES[name]
    except KeyError:
        raise ClusterError(
            f"unknown placement {name!r}; known: {sorted(PLACEMENT_POLICIES)}"
        ) from None
    return factory(rng)
