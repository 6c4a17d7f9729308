"""DPOS — Device Placement and Operation Sequencing (Alg. 1).

List scheduling in two phases: operation prioritization by upward rank
(critical-path heuristic) and device selection by earliest finish time
with idle-slot insertion.  Critical-path operations are pinned to
dedicated critical-path devices chosen by average execution time within
memory capacity; all other operations go wherever they finish earliest.
The execution order is the schedule's start-time order, later enforced
by the executor's priority queue.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, compress, repeat
from operator import add, le
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..cluster import Topology
from ..costmodel import CommunicationCostModel, ComputationCostModel, CostCache
from ..graph import Graph, Operation
from ..obs import Observability, get_obs
from .ranks import compute_ranks, critical_path
from .strategy import Strategy

_INF = float("inf")
#: Intervals per block of the idle-gap index (a block splits past twice
#: this).
_BLOCK = 16
#: Relative float tolerance of the gap filter, scaled by the latest end
#: time: far above the rounding of ``prev_end + duration``, far below any
#: real gap.
_GAP_MARGIN = 1e-12


@dataclass
class DPOSResult:
    """Output of one DPOS run.

    ``decisions`` (op name -> :class:`~repro.obs.provenance.\
PlacementDecision`) is populated only when the engine's ``obs`` hook has
    provenance recording enabled; it never influences the strategy.
    """

    strategy: Strategy
    finish_time: float
    start_times: Dict[str, float]
    finish_times: Dict[str, float]
    critical_path: List[str]
    ranks: Dict[str, float]
    decisions: Optional[Dict[str, object]] = None

    @property
    def placement(self) -> Dict[str, str]:
        return self.strategy.placement

    @property
    def order(self) -> List[str]:
        return self.strategy.order


class _DeviceSchedule:
    """Busy intervals of one device, with idle-slot insertion.

    ``starts``/``ends`` list the intervals in start order.  On top of them
    sits an idle-gap index: ``gaps[j]`` is the idle time before interval
    ``j`` (since the previous interval's end, or since time 0), and the
    positions are grouped into blocks of ``_BLOCK`` to ``2 * _BLOCK``
    intervals (``block_lo`` holds each block's first position) with the
    largest gap of every block (``block_gap``) and its suffix maximum
    (``suffix_gap[k]`` covers blocks ``k`` onward).

    The index is only a filter.  :meth:`earliest_slot` skips a gap only
    when the op's duration exceeds it by more than a float margin scaled
    to the latest end time (``top``); every slot it returns passes the
    insertion policy's exact test ``prev_end + duration <= start``, so
    the index never changes a placement, only how many gaps are visited.
    Times are non-negative.
    """

    __slots__ = (
        "starts", "ends", "gaps", "block_lo", "block_gap", "suffix_gap", "top",
    )

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.gaps: List[float] = []
        self.block_lo: List[int] = [0]
        self.block_gap: List[float] = [-_INF]
        self.suffix_gap: List[float] = [-_INF]
        self.top = 0.0

    def earliest_slot(
        self, ready: float, duration: float, insertion: bool = True
    ) -> float:
        """Earliest start >= ready of an idle slot fitting ``duration``.

        Scans gaps between already-scheduled intervals (the paper's
        insertion policy) and falls back to after the last interval;
        with ``insertion=False`` it only appends after the last interval.
        """
        if ready >= self.top:
            return ready  # past every interval (or none booked yet)
        ends = self.ends
        if not insertion:
            return max(ready, ends[-1])
        starts = self.starts
        n = len(starts)
        # Scan from the first interval that could constrain us.
        # ``prev_end`` is the latest end before the gap under test; the
        # ends of the skipped intervals ``seen`` onward are folded into it
        # only when a gap is tested (or at the tail).
        i = seen = bisect_left(ends, ready)
        prev_end = ready if i == 0 else max(ready, ends[i - 1])
        if i == n:
            return prev_end
        need = duration - self.top * _GAP_MARGIN
        gaps = self.gaps
        block_lo = self.block_lo
        block_gap = self.block_gap
        suffix_gap = self.suffix_gap
        last = len(block_lo) - 1
        k = bisect_right(block_lo, i) - 1
        lo = i
        hi = block_lo[k + 1] if k < last else n
        # Block k's max gap also covers the gaps before ``i``.
        fits = block_gap[k] >= need and max(gaps[i:hi]) >= need
        while True:
            if fits:
                for j in compress(
                    range(lo, hi), map(le, repeat(need), gaps[lo:hi])
                ):
                    if j > seen:
                        prev_end = max(prev_end, max(ends[seen:j]))
                        seen = j
                    if prev_end + duration <= starts[j]:
                        return prev_end
            if k == last or suffix_gap[k + 1] < need:
                break
            # Skip to the next block holding a gap that may fit.
            k += 1
            while block_gap[k] < need:
                k += 1
            lo = block_lo[k]
            hi = block_lo[k + 1] if k < last else n
            fits = True
        # No gap fits: start after every interval from ``i`` on.  The
        # last end is their maximum unless zero-length intervals left the
        # ends out of order.
        tail = ends[-1]
        if tail < self.top:
            tail = max(ends[seen:])
        return max(prev_end, tail)

    def insert(self, start: float, duration: float) -> None:
        """Book ``[start, start + duration)`` and update the gap index."""
        starts, ends, gaps = self.starts, self.ends, self.gaps
        end = start + duration
        p = bisect_left(starts, start)
        starts.insert(p, start)
        ends.insert(p, end)
        gap = start - ends[p - 1] if p else start
        gaps.insert(p, gap)
        if end > self.top:
            self.top = end
        block_lo = self.block_lo
        last = len(block_lo) - 1
        if p == len(starts) - 1:
            # Appended: one more gap in the last block, so maxima only grow.
            k = last
            if gap > self.block_gap[k]:
                self.block_gap[k] = gap
                suffix_gap = self.suffix_gap
                b = k
                while b >= 0 and suffix_gap[b] < gap:
                    suffix_gap[b] = gap
                    b -= 1
        else:
            # Inserted before interval p + 1, in the same block: its gap
            # was split in two.
            gaps[p + 1] = starts[p + 1] - end
            k = bisect_right(block_lo, p) - 1
            for b in range(k + 1, last + 1):
                block_lo[b] += 1
            self._refresh(k, k)
        lo = block_lo[k]
        if (block_lo[k + 1] if k < last else len(starts)) - lo > 2 * _BLOCK:
            block_lo.insert(k + 1, lo + _BLOCK)
            self.block_gap.insert(k + 1, -_INF)
            self.suffix_gap.insert(k + 1, -_INF)
            self._refresh(k, k + 1)

    def _refresh(self, first: int, last: int) -> None:
        """Recompute the max gap of blocks ``first..last``, then the
        suffix maxima down to where they stop changing."""
        gaps, block_lo = self.gaps, self.block_lo
        block_gap, suffix_gap = self.block_gap, self.suffix_gap
        final = len(block_lo) - 1
        for b in range(first, last + 1):
            hi = block_lo[b + 1] if b < final else len(gaps)
            block_gap[b] = max(gaps[block_lo[b]:hi])
        tail = suffix_gap[last + 1] if last < final else -_INF
        for b in range(last, -1, -1):
            value = max(block_gap[b], tail)
            if b < first and value == suffix_gap[b]:
                break
            suffix_gap[b] = tail = value


class DPOS:
    """Alg. 1, parameterized by cluster and cost models.

    Args:
        topology: Devices and links to place onto.
        computation: Profiled computation cost model.
        communication: Profiled communication cost model.
        memory_fraction: Fraction of device memory the planner may fill
            (headroom for workspace/fragmentation, as in practice).
        obs: Optional :class:`~repro.obs.Observability` hook; defaults to
            the shared no-op.
    """

    def __init__(
        self,
        topology: Topology,
        computation: ComputationCostModel,
        communication: CommunicationCostModel,
        *,
        memory_fraction: float = 0.9,
        insertion_scheduling: bool = True,
        obs: Optional[Observability] = None,
    ) -> None:
        if not 0 < memory_fraction <= 1:
            raise ValueError("memory_fraction must be in (0, 1]")
        self.topology = topology
        self.computation = computation
        self.communication = communication
        self.obs = get_obs(obs)
        #: When False, operations only ever append after a device's last
        #: interval (no idle-slot insertion) — the ablation of Alg. 1's
        #: insertion policy.
        self.insertion_scheduling = insertion_scheduling
        self.capacities = {
            d.name: int(d.memory_bytes * memory_fraction)
            for d in topology.devices
        }

    # ------------------------------------------------------------------
    def run(
        self, graph: Graph, cost_cache: Optional[CostCache] = None
    ) -> DPOSResult:
        """Compute placement, execution order, and estimated finish time.

        ``cost_cache`` (shared across the candidate evaluations of one
        OS-DPOS search) serves memoized cost and adjacency lookups;
        without one the run prices the graph through a private cache.
        The result is identical either way.
        """
        obs = self.obs
        with obs.events.span(
            "search.dpos",
            graph=graph.name,
            ops=graph.num_ops,
            cached=cost_cache is not None,
        ):
            result = self._run(graph, cost_cache)
        if obs.enabled:
            obs.metrics.counter("dpos.runs").inc()
            obs.metrics.gauge("dpos.last_finish_time").set(result.finish_time)
        return result

    def _run(
        self, graph: Graph, cost_cache: Optional[CostCache]
    ) -> DPOSResult:
        devices = list(self.topology.device_names)
        cache = cost_cache
        if cache is None:
            cache = CostCache(
                graph, self.computation, self.communication, devices
            )
        elif cache.devices != devices:
            raise ValueError(
                "cost_cache prices a different device list than this engine"
            )
        successors = cache.successors
        topo = cache.topological_order()
        ranks = compute_ranks(
            graph, cache.weight, cache.edge_comm, order=topo,
            successors=successors,
        )
        cp_ops = critical_path(graph, ranks, successors=successors)
        cp_names: Set[str] = {op.name for op in cp_ops}
        # Placement sequence: decreasing rank; among equal ranks, the
        # critical-path op goes first ("the next operation to be placed is
        # always the entry operation in the new critical path"), so a
        # same-rank sibling cannot grab the CP device's next slot; then
        # (canonical) topological index so predecessors precede successors.
        # Stable sorts from the topological order, last key first.
        sequence = [op.name for op in topo]
        sequence.sort(key=cp_names.__contains__, reverse=True)
        sequence.sort(key=ranks.__getitem__, reverse=True)

        # Devices are addressed by index into ``devices`` (the order of
        # every per-device row the cache serves).
        capacity = [self.capacities[d] for d in devices]
        mem_used = [0] * len(devices)
        schedules = [_DeviceSchedule() for _ in devices]
        insertion = self.insertion_scheduling
        #: op name -> (device index, finish time) of every placed op.
        placed: Dict[str, Tuple[int, float]] = {}
        placement: Dict[str, str] = {}
        start_times: Dict[str, float] = {}
        finish_times: Dict[str, float] = {}
        group_device: Dict[str, int] = {}

        # Provenance (off by default): journal per-op decisions with the
        # alternatives each selection rule actually compared.  The
        # recording never feeds back into the schedule.
        recording = self.obs.provenance.enabled
        decisions: Optional[Dict[str, object]] = None
        if recording:
            from ..obs.provenance import PlacementAlternative, PlacementDecision

            decisions = {}

        cp_pending: List[Operation] = list(cp_ops)
        cp_placed: Set[str] = set()
        cp_alts: Optional[List] = [] if recording else None
        cp_device = self._select_cp_device(
            cp_pending, cp_placed, devices, mem_used, capacity, cache,
            collect=cp_alts,
        )

        events = self.obs.events
        progress_stride = (
            max(1, len(sequence) // 8) if events.enabled else 0
        )
        for seq_index, name in enumerate(sequence):
            if progress_stride and seq_index % progress_stride == 0:
                events.emit(
                    "dpos.progress",
                    graph=graph.name,
                    placed=seq_index,
                    total=len(sequence),
                )
            op = graph.get_op(name)
            need = cache.persistent_bytes(op)
            times = cache.times(op)
            forced = (
                group_device.get(op.colocation_group)
                if op.colocation_group is not None
                else None
            )
            reason = ""
            alts: Optional[List] = None
            start: Optional[float] = None
            if forced is not None:
                target = forced
                if recording:
                    reason = "colocated"
                    alts = [PlacementAlternative(
                        device=devices[target], chosen=True,
                        note=f"colocation group {op.colocation_group!r}",
                    )]
            elif name in cp_names:
                if mem_used[cp_device] + need > capacity[cp_device]:
                    cp_alts = [] if recording else None
                    cp_device = self._select_cp_device(
                        cp_pending, cp_placed, devices, mem_used, capacity,
                        cache, exclude=cp_device, collect=cp_alts,
                    )
                target = cp_device
                if recording:
                    reason = "critical-path"
                    alts = [
                        PlacementAlternative(
                            device=a.device, score=a.score,
                            feasible=a.feasible,
                            chosen=a.device == devices[target], note=a.note,
                        )
                        for a in (cp_alts or [])
                    ]
            else:
                alts = [] if recording else None
                target, start = self._min_eft_device(
                    _ready_times(op, placed, cache, len(devices)), times,
                    need, devices, mem_used, capacity, schedules,
                    collect=alts,
                )
                if recording:
                    reason = "min-eft"
                    for a in alts:  # type: ignore[union-attr]
                        a.chosen = a.device == devices[target]
                    if not any(a.feasible for a in alts):  # type: ignore[union-attr]
                        reason = "memory-overflow"
            duration = times[target]
            if start is None:
                start = schedules[target].earliest_slot(
                    _ready_on(op, target, devices, placed, cache),
                    duration, insertion,
                )
            schedules[target].insert(start, duration)
            finish = start + duration
            placed[name] = (target, finish)
            placement[name] = devices[target]
            start_times[name] = start
            finish_times[name] = finish
            mem_used[target] += need
            if op.colocation_group is not None and forced is None:
                group_device[op.colocation_group] = target
            if name in cp_names:
                cp_placed.add(name)
            if recording:
                alts = alts or []
                if not any(a.chosen for a in alts):
                    alts.append(PlacementAlternative(
                        device=devices[target], chosen=True,
                        note="memory fallback",
                    ))
                if reason == "colocated":
                    # A forced op skips scoring; record its realized
                    # finish so every decision carries a scored choice.
                    alts[0].score = finish
                    alts[0].start = start
                decisions[name] = PlacementDecision(  # type: ignore[index]
                    op_name=name,
                    device=devices[target],
                    reason=reason,
                    start=start,
                    finish=finish,
                    rank=ranks[name],
                    on_critical_path=name in cp_names,
                    alternatives=alts,
                )

        # Start time, then decreasing rank, then name: stable sorts, last
        # key first.
        order = sorted(start_times)
        order.sort(key=ranks.__getitem__, reverse=True)
        order.sort(key=start_times.__getitem__)
        finish = max(finish_times.values(), default=0.0)
        strategy = Strategy(
            placement=placement,
            order=order,
            estimated_time=finish,
            label="dpos",
        )
        return DPOSResult(
            strategy=strategy,
            finish_time=finish,
            start_times=start_times,
            finish_times=finish_times,
            critical_path=[op.name for op in cp_ops],
            ranks=ranks,
            decisions=decisions,
        )

    # ------------------------------------------------------------------
    def _select_cp_device(
        self,
        cp_pending: Sequence[Operation],
        cp_placed: Set[str],
        devices: Sequence[str],
        mem_used: List[int],
        capacity: List[int],
        cache: CostCache,
        exclude: Optional[int] = None,
        collect: Optional[List] = None,
    ) -> int:
        """Pick the critical-path device index (Alg. 1 line 5).

        For each device, greedily fit as many remaining (unplaced) CP ops
        as memory allows and score by average computation time; the
        smallest average wins, then the larger fitted count, then device
        order.  ``exclude`` is a device index to pass over.  ``collect``
        (provenance recording only) receives one
        :class:`~repro.obs.provenance.PlacementAlternative` per device
        considered, scored by that average.
        """
        if collect is not None:
            from ..obs.provenance import PlacementAlternative
        remaining = [op for op in cp_pending if op.name not in cp_placed]
        # The ops that fit are the longest prefix whose running byte total
        # stays within the free memory; their times sum in path order.
        filled = list(accumulate(map(cache.persistent_bytes, remaining)))
        columns = list(zip(*map(cache.times, remaining))) or [()] * len(devices)
        best: Optional[Tuple[float, int, int]] = None
        for idx, dev in enumerate(devices):
            if idx == exclude:
                continue
            fitted = bisect_right(filled, capacity[idx] - mem_used[idx])
            total = reduce(add, columns[idx][:fitted], 0.0)
            if fitted == 0 and remaining:
                if collect is not None:
                    collect.append(PlacementAlternative(
                        device=dev, feasible=False,
                        note="no critical-path op fits in memory",
                    ))
                continue
            avg = total / fitted if fitted else 0.0
            if collect is not None:
                collect.append(PlacementAlternative(
                    device=dev, score=avg,
                    note=f"avg cp-op time over {fitted}/{len(remaining)} fitted",
                ))
            key = (avg, -fitted, idx)
            if best is None or key < best:
                best = key
        if best is None:
            # Every candidate is memory-full: fall back to the device with
            # the most free planning memory.
            candidates = [i for i in range(len(devices)) if i != exclude]
            return max(
                candidates or range(len(devices)),
                key=lambda i: capacity[i] - mem_used[i],
            )
        return best[2]

    def _min_eft_device(
        self,
        ready: Sequence[float],
        times: Sequence[float],
        need: int,
        devices: Sequence[str],
        mem_used: List[int],
        capacity: List[int],
        schedules: List[_DeviceSchedule],
        collect: Optional[List] = None,
    ) -> Tuple[int, float]:
        """Alg. 1 lines 12-19: min-EFT device among those with memory.

        Returns the device index and the op's start time on it.  No EFT
        is below the device's data-ready time plus execution time, so a
        device whose bound already reaches the best EFT cannot win and is
        not scanned, except when ``collect`` (provenance recording only)
        asks for one :class:`~repro.obs.provenance.PlacementAlternative`
        per device, scored by the EFT the selection compared.
        """
        if collect is not None:
            from ..obs.provenance import PlacementAlternative
        insertion = self.insertion_scheduling
        count = len(devices)
        best = -1
        best_eft = _INF
        best_start = 0.0
        feasible = False
        for dev in range(count):
            if mem_used[dev] + need > capacity[dev]:
                if collect is not None:
                    collect.append(PlacementAlternative(
                        device=devices[dev], feasible=False,
                        note="out of memory",
                    ))
                continue
            feasible = True
            duration = times[dev]
            if collect is None and ready[dev] + duration >= best_eft:
                continue
            est = schedules[dev].earliest_slot(ready[dev], duration, insertion)
            eft = est + duration
            if collect is not None:
                collect.append(PlacementAlternative(
                    device=devices[dev], score=eft, start=est,
                ))
            if eft < best_eft:
                best, best_eft, best_start = dev, eft, est
        if not feasible:
            # Out of planning memory everywhere: overflow to the device
            # with the most remaining room rather than failing the whole
            # strategy computation.
            best = max(
                range(count), key=lambda d: capacity[d] - mem_used[d]
            )
            best_start = schedules[best].earliest_slot(
                ready[best], times[best], insertion
            )
        assert best >= 0
        return best, best_start


def _ready_on(
    op: Operation,
    target: int,
    devices: Sequence[str],
    placed: Dict[str, Tuple[int, float]],
    cache: CostCache,
) -> float:
    """Data-ready time of ``op`` on the one device ``target``."""
    ready = 0.0
    for pred, num_bytes in cache.in_edges(op):
        hit = placed.get(pred)
        if hit is None:
            continue  # an unplaced zero-rank tie: data available at once
        device, arrival = hit
        if device != target:
            arrival += cache.pair_time(
                devices[device], devices[target], num_bytes
            )
        ready = max(ready, arrival)
    return ready


def _ready_times(
    op: Operation,
    placed: Dict[str, Tuple[int, float]],
    cache: CostCache,
    num_devices: int,
) -> List[float]:
    """Per-device data-ready time of ``op``: its latest input arrival.

    Each placed predecessor contributes its finish time plus the transfer
    time to every device (none to its own), so the arrival times are
    gathered once per op rather than once per candidate device.
    """
    rows = []
    for pred, num_bytes in cache.in_edges(op):
        hit = placed.get(pred)
        if hit is None:
            # Predecessor not yet placed can only happen for zero-rank
            # ties; treat its data as available immediately.
            continue
        device, finish = hit
        rows.append(map(
            add, repeat(finish), cache.transfer_times(device, num_bytes)
        ))
    if not rows:
        return [0.0] * num_devices
    # ``max(0.0, *arrivals)`` per device, tie for tie, without the 0.0
    # unless some arrival is not positive.
    ready = list(map(max, *rows)) if len(rows) > 1 else list(rows[0])
    if min(ready) <= 0.0:
        ready = [a if a > 0.0 else 0.0 for a in ready]
    return ready
