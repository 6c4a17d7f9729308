"""Linear-scan reference of DPOS placement (Alg. 1).

:class:`LinearScanSchedule` is the device schedule without an idle-gap
index: every query walks the busy intervals from the first one that ends
at or after ``ready``.  :func:`schedule_on` computes an op's earliest
start on one device by folding the arrival of each placed predecessor,
one device at a time.  :func:`reference_dpos` replays the whole of
Alg. 1 with both, straight from the cost models.  ``repro.core.dpos``
must return exactly what they return.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.dpos import DPOS
from repro.core.ranks import (
    compute_ranks,
    critical_path,
    max_comm_fn,
    max_weight_fn,
)
from repro.graph import Graph, Operation

_INF = float("inf")


class LinearScanSchedule:
    """Sorted busy intervals of one device, with idle-slot insertion."""

    __slots__ = ("starts", "ends")

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.ends: List[float] = []

    def earliest_slot(
        self, ready: float, duration: float, insertion: bool = True
    ) -> float:
        """Earliest start >= ready of an idle slot fitting ``duration``."""
        if not self.starts:
            return ready
        if not insertion:
            return max(ready, self.ends[-1])
        # Start scanning at the first interval that could constrain us.
        i = bisect.bisect_left(self.ends, ready)
        prev_end = ready if i == 0 else max(ready, self.ends[i - 1])
        for j in range(i, len(self.starts)):
            if prev_end + duration <= self.starts[j]:
                return prev_end
            prev_end = max(prev_end, self.ends[j])
        return prev_end

    def insert(self, start: float, duration: float) -> None:
        i = bisect.bisect_left(self.starts, start)
        self.starts.insert(i, start)
        self.ends.insert(i, start + duration)


def schedule_on(
    dpos: DPOS,
    graph: Graph,
    op: Operation,
    device: str,
    placement: Dict[str, str],
    finish_times: Dict[str, float],
    schedule: LinearScanSchedule,
) -> float:
    """EST of ``op`` on ``device`` given committed predecessors."""
    ready = 0.0
    for pred in graph.predecessors(op):
        pred_dev = placement.get(pred.name)
        if pred_dev is None:
            continue
        arrival = finish_times[pred.name]
        if pred_dev != device:
            arrival += dpos.communication.time(
                pred_dev, device, graph.edge_bytes(pred, op)
            )
        ready = max(ready, arrival)
    duration = dpos.computation.time(op, device)
    return schedule.earliest_slot(ready, duration, dpos.insertion_scheduling)


def _select_cp_device(
    dpos: DPOS,
    cp_pending: Sequence[Operation],
    cp_placed: Set[str],
    devices: Sequence[str],
    mem_used: Dict[str, int],
    exclude: Optional[Set[str]] = None,
) -> str:
    exclude = exclude or set()
    remaining = [op for op in cp_pending if op.name not in cp_placed]
    best: Optional[Tuple[float, int, int, str]] = None
    for idx, dev in enumerate(devices):
        if dev in exclude:
            continue
        free = dpos.capacities[dev] - mem_used[dev]
        fitted = 0
        total = 0.0
        acc = 0
        for op in remaining:
            need = op.persistent_bytes
            if acc + need > free:
                break
            acc += need
            fitted += 1
            total += dpos.computation.time(op, dev)
        if fitted == 0 and remaining:
            continue
        avg = total / fitted if fitted else 0.0
        key = (avg, -fitted, idx, dev)
        if best is None or key < best:
            best = key
    if best is None:
        fallback = max(
            (d for d in devices if d not in exclude),
            key=lambda d: dpos.capacities[d] - mem_used[d],
            default=None,
        )
        if fallback is None:
            fallback = max(
                devices, key=lambda d: dpos.capacities[d] - mem_used[d]
            )
        return fallback
    return best[3]


def _min_eft_device(
    dpos: DPOS,
    graph: Graph,
    op: Operation,
    devices: Sequence[str],
    mem_used: Dict[str, int],
    need: int,
    placement: Dict[str, str],
    finish_times: Dict[str, float],
    schedules: Dict[str, LinearScanSchedule],
) -> str:
    best_dev: Optional[str] = None
    best_eft = _INF
    feasible = False
    for dev in devices:
        if mem_used[dev] + need > dpos.capacities[dev]:
            continue
        feasible = True
        est = schedule_on(
            dpos, graph, op, dev, placement, finish_times, schedules[dev]
        )
        eft = est + dpos.computation.time(op, dev)
        if eft < best_eft:
            best_eft = eft
            best_dev = dev
    if not feasible:
        return max(devices, key=lambda d: dpos.capacities[d] - mem_used[d])
    assert best_dev is not None
    return best_dev


def reference_dpos(dpos: DPOS, graph: Graph):
    """Alg. 1 on ``dpos``'s models, one device at a time.

    Returns ``(placement, order, start_times, finish_times, finish_time)``
    as :class:`~repro.core.dpos.DPOSResult` reports them.
    """
    devices = dpos.topology.device_names
    topo = graph.topological_order(canonical=True)
    ranks = compute_ranks(
        graph,
        max_weight_fn(dpos.computation, devices),
        max_comm_fn(graph, dpos.communication, devices),
        order=topo,
    )
    cp_ops = critical_path(graph, ranks)
    cp_names = {op.name for op in cp_ops}
    topo_index = {op.name: i for i, op in enumerate(topo)}
    sequence = sorted(
        ranks, key=lambda n: (-ranks[n], n not in cp_names, topo_index[n])
    )

    mem_used = {d: 0 for d in devices}
    schedules = {d: LinearScanSchedule() for d in devices}
    placement: Dict[str, str] = {}
    start_times: Dict[str, float] = {}
    finish_times: Dict[str, float] = {}
    group_device: Dict[str, str] = {}
    cp_pending = list(cp_ops)
    cp_placed: Set[str] = set()
    cp_device = _select_cp_device(dpos, cp_pending, cp_placed, devices, mem_used)
    for name in sequence:
        op = graph.get_op(name)
        need = op.persistent_bytes
        forced = (
            group_device.get(op.colocation_group)
            if op.colocation_group is not None
            else None
        )
        if forced is not None:
            target = forced
        elif name in cp_names:
            if mem_used[cp_device] + need > dpos.capacities[cp_device]:
                cp_device = _select_cp_device(
                    dpos, cp_pending, cp_placed, devices, mem_used,
                    exclude={cp_device},
                )
            target = cp_device
        else:
            target = _min_eft_device(
                dpos, graph, op, devices, mem_used, need, placement,
                finish_times, schedules,
            )
        start = schedule_on(
            dpos, graph, op, target, placement, finish_times, schedules[target]
        )
        duration = dpos.computation.time(op, target)
        schedules[target].insert(start, duration)
        placement[name] = target
        start_times[name] = start
        finish_times[name] = start + duration
        mem_used[target] += need
        if op.colocation_group is not None and forced is None:
            group_device[op.colocation_group] = target
        if name in cp_names:
            cp_placed.add(name)

    order = sorted(start_times, key=lambda n: (start_times[n], -ranks[n], n))
    finish = max(finish_times.values(), default=0.0)
    return placement, order, start_times, finish_times, finish
