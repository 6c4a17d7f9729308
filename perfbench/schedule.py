"""Seeded inputs of the benchmark: job orders and the serve-mix schedule.

Everything here is pure Python and imports nothing from ``repro``, so the
generated inputs depend only on the seed and the catalogue, never on the
program under test.

The serve-mix schedule is built so that every request's answer class is
known before it is sent: the two clients take turns (one request in
flight at a time), except for coalesced duplicates, which both clients
send together.  A model of the strategy store's memory LRU then gives the
exact counts the service must report at the end of an epoch.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

#: Request classes and the ``source`` the service answers each with.
HIT, COLD, WARM = "hit", "cold", "warm"
SOURCE = {HIT: "cache", COLD: "search", WARM: "warm"}

Problem = Tuple[str, str, int]  # (model, topology, global batch)

#: Misses on this topology are sent by both clients at once, so one of the
#: two requests is coalesced onto the other's search.
COALESCE_TOPOLOGY = "single:8"


def job_order(jobs: Sequence[str], seed: int) -> List[str]:
    """The seeded order in which a closed-loop caller issues ``jobs``."""
    order = list(jobs)
    random.Random(seed).shuffle(order)
    return order


@dataclass(frozen=True)
class Catalogue:
    """The problems a serve-mix epoch draws from.

    Every (model, topology) pair contributes two problems: the base batch,
    first searched cold, and twice the base batch, first searched as a
    warm start from the cached base entry.  ``topologies`` should include
    ``COALESCE_TOPOLOGY``, or no request is coalesced.
    """

    base_batches: Dict[str, int]
    topologies: Tuple[str, ...]
    #: Hits on each problem after its first search.
    hits_per_problem: int
    lru_capacity: int

    def pairs(self) -> List[Tuple[str, str]]:
        return [(m, t) for m in self.base_batches for t in self.topologies]


@dataclass(frozen=True)
class Step:
    """One step of an epoch: ``clients`` send ``problem`` together."""

    kind: str  # HIT, COLD or WARM
    problem: Problem
    clients: Tuple[int, ...]

    @property
    def coalesced(self) -> bool:
        return len(self.clients) > 1


@dataclass
class Epoch:
    steps: List[Step]
    #: ``ServiceStats`` fields the service must report after the epoch.
    expected: Dict[str, int]

    def class_counts(self) -> Dict[str, int]:
        counts = {HIT: 0, COLD: 0, WARM: 0, "coalesced": 0}
        for step in self.steps:
            counts[step.kind] += 1
            counts["coalesced"] += len(step.clients) - 1
        return counts


def serve_epoch(catalogue: Catalogue, seed: int) -> Epoch:
    """A seeded random order of one epoch's requests, with its counts.

    The composition is fixed by the catalogue; the seed only orders it,
    so the latency mix is the same for every seed.  A problem's hits come
    after its first search, and a warm start after its base batch's cold
    search.
    """
    rng = random.Random(seed)
    pending: Dict[str, List[Tuple[str, Problem]]] = {
        COLD: [], WARM: [], HIT: [],
    }
    for model, topology in catalogue.pairs():
        base = catalogue.base_batches[model]
        pending[COLD].append((COLD, (model, topology, base)))
    events: List[Tuple[str, Problem]] = []
    while any(pending.values()):
        ready = pending[COLD] + pending[WARM] + pending[HIT]
        kind, problem = ready[rng.randrange(len(ready))]
        pending[kind].remove((kind, problem))
        events.append((kind, problem))
        if kind == HIT:
            continue
        pending[HIT] += [(HIT, problem)] * catalogue.hits_per_problem
        model, topology, batch = problem
        if kind == COLD:
            pending[WARM].append((WARM, (model, topology, 2 * batch)))

    steps: List[Step] = []
    turn = 0
    for kind, problem in events:
        if kind != HIT and problem[1] == COALESCE_TOPOLOGY:
            steps.append(Step(kind, problem, (0, 1)))
        else:
            steps.append(Step(kind, problem, (turn,)))
            turn = 1 - turn
    return Epoch(steps, expected_stats(steps, catalogue.lru_capacity))


def expected_stats(steps: Sequence[Step], lru_capacity: int) -> Dict[str, int]:
    """The ``ServiceStats`` a fresh service reports after ``steps``.

    Models the store's memory tier: a search admits its entry, a hit on
    an entry the LRU still holds refreshes it, and a hit on one it spilled
    reloads it from disk and admits it again.  Every admission beyond the
    capacity evicts the least recently used entry.
    """
    lru: "OrderedDict[Problem, None]" = OrderedDict()
    counts = dict.fromkeys(
        ("requests", "hits", "misses", "coalesced", "searches",
         "warm_starts", "warm_fallbacks", "evictions", "errors",
         "timeouts"), 0,
    )
    for step in steps:
        counts["requests"] += len(step.clients)
        counts["coalesced"] += len(step.clients) - 1
        if step.kind == HIT:
            counts["hits"] += 1
            if step.problem in lru:
                lru.move_to_end(step.problem)
                continue
        else:
            counts["misses"] += 1
            counts["searches"] += 1
            counts["warm_starts"] += step.kind == WARM
        lru[step.problem] = None
        if len(lru) > lru_capacity:
            lru.popitem(last=False)
            counts["evictions"] += 1
    return counts
