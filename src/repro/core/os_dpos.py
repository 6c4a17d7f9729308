"""OS-DPOS — Operation Splitting DPOS (Alg. 2).

Runs DPOS for an initial schedule, recomputes the critical path under
that placement, then walks the critical path in decreasing order of
computation time, trying to split each operation along each of its
parallelizable dimensions with each candidate split count.  A split is
committed only if the best resulting DPOS finish time beats the current
one; the first non-improving operation stops the search (the paper's
early exit).

Candidates are evaluated incrementally: one working graph is mutated in
place through :class:`~repro.graph.SplitTransaction` (apply, evaluate,
undo — all O(split size)), cost and adjacency lookups are served from a
:class:`~repro.costmodel.CostCache` invalidated only for the ops a split
touched, and a placement-independent lower bound skips the DPOS rerun
for candidates that provably cannot beat the incumbent finish time.
``workers=N`` additionally fans the surviving candidates of each op out
to worker processes.  None of this changes the strategy: the
equivalence suite pins it byte for byte to a copy-per-candidate
reference search (``tests/oracles/osdpos_reference.py``).
"""

from __future__ import annotations

import copy
import itertools
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..costmodel import CostCache
from ..graph import Graph, Operation
from ..graph.coarsen import CoarsePlan, SuperComputationModel, contract_graph
from ..graph.rewrite import (
    SplitDecision,
    SplitError,
    SplitTransaction,
    split_operation,
)
from ..obs import NULL_OBS, MetricsSnapshot, Observability, get_obs
from .context import WarmStartSeed
from .dpos import DPOS, DPOSResult
from .ranks import compute_ranks, critical_path
from .strategy import Strategy


@dataclass
class SearchOptions:
    """Keyword-only knobs of the OS-DPOS strategy search (Alg. 2).

    The same object configures both the low-level :class:`OSDPOS` engine
    and the workflow-level ``FastTConfig.search`` sub-config (where the
    default ``max_candidate_ops=12`` applies; a bare :class:`OSDPOS`
    constructed without options walks the full critical path, as in the
    paper).

    Attributes:
        enable_splitting: Try operation splits at all; ``False``
            degenerates the search to plain DPOS.
        split_counts: Candidate split numbers; ``None`` means
            :func:`default_split_counts` of the cluster size.
        max_candidate_ops: Cap on critical-path ops examined
            (``None`` = the full path; the early exit usually stops far
            sooner).
        workers: Fan surviving candidates out to this many worker
            processes (incremental path only; the cost models must be
            picklable, which the oracle models are).
        coarsen: Hierarchical search over a contracted graph
            (:func:`~repro.graph.contract_graph`).  ``True`` forces it,
            ``False`` disables it (exact search, byte-identical to the
            seed), and ``"auto"`` (default) turns it on only for graphs
            with at least ``coarsen_threshold`` ops — small graphs never
            change behaviour.
        coarsen_threshold: Op count at which ``"auto"`` switches to the
            coarse path.
        coarsen_target: Approximate number of coarse nodes the
            contraction aims for.
    """

    enable_splitting: bool = True
    split_counts: Optional[List[int]] = None
    max_candidate_ops: Optional[int] = 12
    workers: Optional[int] = None
    coarsen: object = "auto"
    coarsen_threshold: int = 5000
    coarsen_target: int = 256

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be a positive integer or None")
        if self.coarsen not in (True, False, "auto"):
            raise ValueError('coarsen must be True, False, or "auto"')
        if self.coarsen_threshold < 1:
            raise ValueError("coarsen_threshold must be >= 1")
        if self.coarsen_target < 1:
            raise ValueError("coarsen_target must be >= 1")


_search_options_init = SearchOptions.__init__


def _search_options_kwonly_init(self, *args, **kwargs):
    if args:
        raise TypeError(
            "SearchOptions takes keyword arguments only, e.g. "
            "SearchOptions(max_candidate_ops=6, workers=2)"
        )
    _search_options_init(self, **kwargs)


SearchOptions.__init__ = _search_options_kwonly_init  # type: ignore[method-assign]


@dataclass
class OSDPOSResult:
    """Output of Alg. 2: rewritten graph, full strategy, search metrics.

    The search counters live in ``metrics`` (a
    :class:`~repro.obs.MetricsSnapshot`); ``candidates_evaluated`` and
    friends remain as read-only views over it.
    """

    graph: Graph
    strategy: Strategy
    finish_time: float
    dpos_result: DPOSResult
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)

    @property
    def split_list(self) -> List[SplitDecision]:
        return self.strategy.split_list

    @property
    def candidates_evaluated(self) -> int:
        """View of ``metrics["search.candidates_evaluated"]``."""
        return int(self.metrics.get("search.candidates_evaluated", 0))

    @property
    def splits_rejected(self) -> int:
        """View of ``metrics["search.splits_rejected"]``."""
        return int(self.metrics.get("search.splits_rejected", 0))

    @property
    def candidates_pruned(self) -> int:
        """View of ``metrics["search.candidates_pruned"]``."""
        return int(self.metrics.get("search.candidates_pruned", 0))


def default_split_counts(num_devices: int) -> List[int]:
    """Candidate split numbers: 2, 4, ..., up to the device count.

    The paper tries split numbers up to the number of GPUs; powers of two
    keep the candidate space small without losing the interesting points
    on an even-sized cluster.
    """
    counts = sorted({n for n in (2, 4, 8, num_devices) if 2 <= n <= num_devices})
    return counts


class _SearchBounds:
    """Placement-independent finish-time bounds over one graph version.

    ``down[o]`` lower-bounds ``finish(o)`` and ``up[o]`` lower-bounds
    ``finish - start(o)`` in *any* schedule DPOS can produce for this
    graph: an op runs for at least its min-over-devices time, and chains
    accumulate through predecessors/successors of **positive max
    weight** — a positive-weight predecessor has a strictly larger
    upward rank, is therefore placed earlier in the DPOS sequence, and
    the EFT computation then provably waits for it.  (Zero-weight rank
    ties may be placed out of order — DPOS treats an unplaced
    predecessor's data as immediately available — so they contribute
    nothing to the bound.)  Both arrays cost one O(V+E) sweep per
    committed graph version.
    """

    def __init__(self, cache: CostCache) -> None:
        down: Dict[str, float] = {}
        up: Dict[str, float] = {}
        order = cache.topological_order()
        for op in order:
            best = 0.0
            for pred in cache.predecessors(op):
                if cache.weight(pred) > 0.0 and down[pred.name] > best:
                    best = down[pred.name]
            down[op.name] = best + cache.min_weight(op)
        for op in reversed(order):
            tail = 0.0
            if cache.weight(op) > 0.0:
                for succ in cache.successors(op):
                    if up[succ.name] > tail:
                        tail = up[succ.name]
            up[op.name] = tail + cache.min_weight(op)
        self.down = down
        self.up = up


@dataclass
class _OpOutcome:
    """Result of evaluating every split candidate of one CP op."""

    best: Optional[Tuple[SplitDecision, DPOSResult]]
    evaluated: int
    pruned: int
    attempted: int


def _worker_init(recursion_limit: int) -> None:
    sys.setrecursionlimit(recursion_limit)


def _evaluate_candidate(
    dpos: DPOS, graph: Graph, op_name: str, dim: str, num_splits: int
) -> Optional[DPOSResult]:
    """Evaluate one split candidate in a worker process (``workers=N``).

    The worker receives its own pickled copy of the working graph, so it
    applies the split destructively; DPOS output is a pure function of
    graph content, hence identical to the in-process evaluation.  The
    engine arrives without its observability hook (a worker's emissions
    could never reach the parent's subscribers) and runs un-observed.
    """
    dpos.obs = NULL_OBS
    try:
        split_operation(graph, graph.get_op(op_name), dim, num_splits)
    except SplitError:
        return None
    cache = CostCache(
        graph, dpos.computation, dpos.communication, dpos.topology.device_names
    )
    return dpos.run(graph, cost_cache=cache)


class OSDPOS:
    """Alg. 2 — operation-splitting search over a :class:`DPOS` engine.

    Args:
        dpos: The placement/ordering engine (carries cluster+cost models).
        options: The search knobs (:class:`SearchOptions`); without them
            the engine walks the paper's full critical path
            (``max_candidate_ops=None``).
        obs: Observability hook (spans per search/op, search counters and
            cache hit/miss metrics); defaults to the zero-cost no-op.
    """

    def __init__(
        self,
        dpos: DPOS,
        *,
        options: Optional[SearchOptions] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.dpos = dpos
        self.obs = get_obs(obs)
        if options is None:
            options = SearchOptions(max_candidate_ops=None)
        if not options.enable_splitting:
            self.split_counts: List[int] = []
        elif options.split_counts is not None:
            self.split_counts = list(options.split_counts)
        else:
            self.split_counts = default_split_counts(len(dpos.topology.devices))
        self.max_candidate_ops = options.max_candidate_ops
        self.workers = options.workers
        self.coarsen = options.coarsen
        self.coarsen_threshold = options.coarsen_threshold
        self.coarsen_target = options.coarsen_target

    # ------------------------------------------------------------------
    def run(
        self,
        graph: Graph,
        *,
        warm_start: Optional[WarmStartSeed] = None,
    ) -> OSDPOSResult:
        """Compute split list, placement, and order for ``graph``.

        ``graph`` itself is never mutated; the search works on a private
        copy.

        ``warm_start`` replays a cached strategy's partition list
        through :class:`~repro.graph.SplitTransaction` and schedules the
        result with one DPOS pass instead of walking the critical path —
        the incremental-re-optimization path of :mod:`repro.serve`.  A
        safety valve falls back to the cold search when the replayed
        schedule lands above the seed's reference makespan envelope.
        """
        obs = self.obs
        use_coarse = (
            self.coarsen
            if self.coarsen != "auto"
            else graph.num_ops >= self.coarsen_threshold
        )
        if warm_start is not None:
            mode = "warm"
        elif use_coarse:
            mode = "coarse"
        else:
            mode = "incremental"
        search = obs.provenance.begin_search(graph=graph.name, mode=mode)
        with obs.events.span(
            "search", graph=graph.name, ops=graph.num_ops, mode=mode
        ) as finish:
            if warm_start is not None:
                result = self._run_warm(graph, search, warm_start)
            elif use_coarse:
                result = self._run_coarse(graph, search)
            else:
                result = self._run_incremental(graph, search)
            finish.update(
                graph=graph.name,
                mode=mode,
                makespan=result.finish_time,
                splits=len(result.strategy.split_list),
            )
        if obs.enabled:
            metrics = obs.metrics
            metrics.counter("search.runs").inc()
            for name, value in result.metrics.items():
                if isinstance(value, int):
                    metrics.counter(name).inc(value)
            metrics.gauge("search.finish_time_estimate").set(result.finish_time)
        return result

    # ------------------------------------------------------------------
    # Telemetry (no-ops unless the obs hook carries a live event bus)
    # ------------------------------------------------------------------
    def _emit_commit(self, decision: SplitDecision, makespan: float) -> None:
        events = self.obs.events
        if events.enabled:
            events.emit(
                "search.commit",
                op=decision.op_name, dim=decision.dim,
                num_splits=decision.num_splits, makespan=makespan,
            )

    # ------------------------------------------------------------------
    # Coarse path: hierarchical search over a contracted graph
    # ------------------------------------------------------------------
    def _coarse_engine(
        self, plan: CoarsePlan, memo: Dict[Tuple[str, str], float]
    ) -> DPOS:
        """A DPOS over the coarse graph, sharing this engine's models.

        Super-ops are priced by :class:`SuperComputationModel` (exact
        member sums, memoized across re-contractions); communication uses
        the fine model unchanged because coarse edges carry the fine
        boundary tensors.
        """
        engine = DPOS(
            self.dpos.topology,
            SuperComputationModel(self.dpos.computation, plan, memo),
            self.dpos.communication,
            obs=self.obs,
        )
        engine.capacities = dict(self.dpos.capacities)
        engine.insertion_scheduling = self.dpos.insertion_scheduling
        return engine

    def _run_coarse(self, graph: Graph, search) -> OSDPOSResult:
        """Hierarchical OS-DPOS: place coarse, refine splits fine.

        Placement and ordering run over the contracted graph (the cost
        aggregates are exact, so the coarse makespan estimate is the fine
        serial-member schedule's); split candidates are fine ops drawn
        from the members of coarse critical-path nodes, each evaluated by
        re-contracting the mutated fine graph.  The final coarse
        strategy expands losslessly to a complete fine placement/order.
        """
        working = graph.copy()
        memo: Dict[Tuple[str, str], float] = {}
        plan = contract_graph(
            working, target=self.coarsen_target, events=self.obs.events
        )
        engine = self._coarse_engine(plan, memo)
        best = engine.run(plan.coarse)
        search.record_initial(best.finish_time)
        split_list: List[SplitDecision] = []
        evaluated = 0
        rejected = 0

        if self.split_counts:
            cp_ops = self._coarse_candidate_ops(plan, best, engine)
            if self.max_candidate_ops is not None:
                cp_ops = cp_ops[: self.max_candidate_ops]
            search.set_candidate_ops(cp_ops)
            for op_index, op_name in enumerate(cp_ops):
                if op_name not in working:
                    continue  # consumed by an earlier committed split
                op = working.get_op(op_name)
                if not op.is_splittable:
                    continue
                rnd = search.begin_op(op_name, incumbent=best.finish_time)
                with self.obs.events.span(
                    "search.op", op=op_name, index=op_index + 1,
                    total=len(cp_ops), incumbent=best.finish_time,
                ) as finish:
                    finish["op"] = op_name
                    outcome = self._best_coarse_split(working, op, memo, rnd)
                    if outcome is None:
                        rnd.no_candidates()
                        finish.update(verdict="no-candidates", makespan=None)
                        continue
                    decision, candidate_result, tried = outcome
                    evaluated += tried
                    if candidate_result.finish_time < best.finish_time:
                        # Re-apply the winner: the transaction name
                        # counters were restored by undo, so the sub-ops
                        # come back under the exact names the evaluation
                        # saw and the re-contraction reproduces the
                        # evaluated coarse graph verbatim.
                        txn = SplitTransaction(
                            working, op, decision.dim, decision.num_splits
                        )
                        txn.apply()
                        rnd.accept(
                            decision.dim, decision.num_splits,
                            sub_ops=[o.name for o in txn.sub_ops],
                            makespan=candidate_result.finish_time,
                        )
                        txn.commit()
                        split_list.append(decision)
                        best = candidate_result
                        plan = contract_graph(
                            working,
                            target=self.coarsen_target,
                            events=self.obs.events,
                        )
                        self._emit_commit(decision, best.finish_time)
                        finish.update(
                            verdict="accepted", makespan=best.finish_time
                        )
                    else:
                        rnd.reject(best_makespan=candidate_result.finish_time)
                        rejected += 1
                        finish.update(
                            verdict="rejected",
                            makespan=candidate_result.finish_time,
                        )
                        break  # first non-improving CP op stops the search

        search.set_super_ops(plan.super_ops)
        fine_result = self._expand_result(plan, best, split_list)
        return self._package(
            working, fine_result, split_list, evaluated, rejected, 0,
            search=search,
        )

    def _best_coarse_split(
        self,
        working: Graph,
        op: Operation,
        memo: Dict[Tuple[str, str], float],
        rnd,
    ) -> Optional[Tuple[SplitDecision, DPOSResult, int]]:
        """Evaluate every (dim, count) of one fine op on the coarse graph.

        Each candidate is applied transactionally to the fine working
        graph, re-contracted, scheduled coarse, and undone.
        """
        best: Optional[Tuple[SplitDecision, DPOSResult]] = None
        tried = 0
        for dim, count in itertools.product(
            sorted(op.split_dims), self.split_counts
        ):
            txn = SplitTransaction(working, op, dim, count)
            try:
                txn.apply()
            except SplitError:
                rnd.candidate(dim, count, "infeasible")
                continue  # extent too small for this count, etc.
            tried += 1
            plan = contract_graph(working, target=self.coarsen_target)
            result = self._coarse_engine(plan, memo).run(plan.coarse)
            rnd.candidate(dim, count, "rejected", makespan=result.finish_time)
            txn.undo()
            if best is None or result.finish_time < best[1].finish_time:
                best = (txn.decision, result)
        if best is None:
            return None
        return (*best, tried)

    def _coarse_candidate_ops(
        self, plan: CoarsePlan, result: DPOSResult, engine: DPOS
    ) -> List[str]:
        """Fine split candidates from the coarse critical path.

        The coarse CP is computed under the committed coarse placement
        (same recipe as the flat search); its nodes then expand to their
        fine members, ranked by computation time on the device the
        member inherits.
        """
        coarse_cp = self._placement_critical_path(
            plan.coarse, result, engine=engine
        )
        placement = result.strategy.placement
        computation = self.dpos.computation
        pairs: List[Tuple[str, float]] = []
        for coarse_name in coarse_cp:
            dev = placement[coarse_name]
            members = plan.member_ops.get(coarse_name)
            if members is None:
                members = [plan.fine.get_op(coarse_name)]
            for member in members:
                weight = computation.time(member, dev)
                if weight > 0.0:
                    pairs.append((member.name, weight))
        return [name for name, _ in sorted(pairs, key=lambda p: -p[1])]

    def _expand_result(
        self,
        plan: CoarsePlan,
        coarse: DPOSResult,
        split_list: List[SplitDecision],
    ) -> DPOSResult:
        """Lossless expansion of a coarse schedule to the fine graph.

        Members inherit their super-op's device; the fine order expands
        each coarse slot into its members' fine topological order (a
        valid fine topological order).  Times/ranks are the coarse
        aggregates each member belongs to; ``decisions`` stay keyed by
        coarse node so provenance can report the super-op that absorbed
        an op (see ``SearchRecord.super_ops``).
        """
        placement = plan.expand_placement(coarse.strategy.placement)
        order = plan.expand_order(coarse.strategy.order)
        start_times: Dict[str, float] = {}
        finish_times: Dict[str, float] = {}
        ranks: Dict[str, float] = {}
        for coarse_name, member_names in plan.members.items():
            start = coarse.start_times[coarse_name]
            finish = coarse.finish_times[coarse_name]
            rank = coarse.ranks[coarse_name]
            for member in member_names:
                start_times[member] = start
                finish_times[member] = finish
                ranks[member] = rank
        critical = [
            member
            for coarse_name in coarse.critical_path
            for member in plan.members[coarse_name]
        ]
        strategy = Strategy(
            placement=placement,
            order=order,
            split_list=split_list,
            estimated_time=coarse.finish_time,
            label="os-dpos" if split_list else "dpos",
        )
        return DPOSResult(
            strategy=strategy,
            finish_time=coarse.finish_time,
            start_times=start_times,
            finish_times=finish_times,
            critical_path=critical,
            ranks=ranks,
            decisions=coarse.decisions,
        )

    # ------------------------------------------------------------------
    # Warm path: replay a cached partition list, schedule once
    # ------------------------------------------------------------------
    def _run_warm(
        self, graph: Graph, search, seed: WarmStartSeed
    ) -> OSDPOSResult:
        """Seed the search from a cached strategy (Alg. 2 skipped).

        Each :class:`SplitDecision` of the seed is replayed onto a
        working copy through the transactional rewrite machinery —
        decisions whose op vanished from the edited graph, or whose
        dimension can no longer accommodate the split count, are
        skipped rather than failing the request.  One DPOS pass then
        prices the replayed partition list on this graph.  The result
        costs O(splits + one placement) instead of a full critical-path
        walk; the safety valve below reverts to the cold search when
        the replay is evidently a bad fit.
        """
        obs = self.obs
        working = graph.copy()
        devices = self.dpos.topology.device_names
        applied: List[SplitDecision] = []
        skipped = 0
        # An options bundle with splitting disabled never replays splits
        # (the fingerprint the seed was cached under implies it had them
        # enabled, but a mismatched caller must still get what its own
        # options promise).
        decisions = seed.split_list if self.split_counts else []
        for decision in decisions:
            if decision.op_name not in working:
                skipped += 1
                continue
            op = working.get_op(decision.op_name)
            if not op.is_splittable:
                skipped += 1
                continue
            txn = SplitTransaction(
                working, op, decision.dim, decision.num_splits
            )
            try:
                txn.apply()
            except SplitError:
                skipped += 1
                continue
            txn.commit()
            applied.append(decision)
        cache = CostCache(
            working, self.dpos.computation, self.dpos.communication, devices
        )
        if obs.enabled:
            cache.enable_stats()
        best = self.dpos.run(working, cost_cache=cache)
        search.record_initial(best.finish_time)

        reference = seed.reference_makespan
        if (
            reference is not None
            and reference > 0.0
            and best.finish_time > seed.safety_factor * reference
        ):
            # Safety valve: the cached strategy evidently no longer fits
            # this graph (the edit moved the bottleneck); pay for a cold
            # search rather than serve a degenerate schedule.
            if obs.events.enabled:
                obs.events.emit(
                    "search.warm.fallback",
                    graph=graph.name,
                    makespan=best.finish_time,
                    reference=reference,
                    factor=seed.safety_factor,
                    source=seed.source,
                )
            result = self._run_incremental(graph, search)
            result.metrics["search.warm_fallbacks"] = 1
            return result

        if obs.events.enabled:
            obs.events.emit(
                "search.warm",
                graph=graph.name,
                applied=len(applied),
                skipped=skipped,
                makespan=best.finish_time,
                source=seed.source,
            )
        result = self._package(
            working, best, applied, 0, 0, 0, cache=cache, search=search
        )
        result.strategy.label = "warm-start"
        result.metrics["search.warm_runs"] = 1
        result.metrics["search.warm_splits_applied"] = len(applied)
        result.metrics["search.warm_splits_skipped"] = skipped
        return result

    # ------------------------------------------------------------------
    # Incremental path: one working graph, transactional candidates
    # ------------------------------------------------------------------
    def _run_incremental(self, graph: Graph, search) -> OSDPOSResult:
        working = graph.copy()
        devices = self.dpos.topology.device_names
        cache = CostCache(
            working, self.dpos.computation, self.dpos.communication, devices
        )
        if self.obs.enabled:
            cache.enable_stats()
        best = self.dpos.run(working, cost_cache=cache)
        search.record_initial(best.finish_time)
        split_list: List[SplitDecision] = []
        evaluated = 0
        pruned = 0
        rejected = 0

        executor: Optional[ProcessPoolExecutor] = None
        try:
            if self.split_counts:
                if self.workers is not None:
                    # Deep graphs recurse when pickled (tensor -> producer
                    # -> inputs -> ...); raise the limit in both the
                    # submitting process and the workers.
                    limit = max(
                        sys.getrecursionlimit(), 8 * working.num_ops + 1000
                    )
                    sys.setrecursionlimit(limit)
                    executor = ProcessPoolExecutor(
                        max_workers=self.workers,
                        initializer=_worker_init,
                        initargs=(limit,),
                    )
                bounds = _SearchBounds(cache)
                cp_ops = self._placement_critical_path(
                    working, best, cache=cache
                )
                if self.max_candidate_ops is not None:
                    cp_ops = cp_ops[: self.max_candidate_ops]
                search.set_candidate_ops(cp_ops)
                for op_index, op_name in enumerate(cp_ops):
                    if op_name not in working:
                        continue  # consumed by an earlier committed split
                    op = working.get_op(op_name)
                    if not op.is_splittable:
                        continue
                    rnd = search.begin_op(op_name, incumbent=best.finish_time)
                    with self.obs.events.span(
                        "search.op", op=op_name, index=op_index + 1,
                        total=len(cp_ops), incumbent=best.finish_time,
                    ) as finish:
                        finish["op"] = op_name
                        outcome = self._evaluate_op(
                            working, op, cache, bounds, best.finish_time,
                            executor, rnd,
                        )
                        evaluated += outcome.evaluated
                        pruned += outcome.pruned
                        if outcome.attempted == 0:
                            rnd.no_candidates()
                            finish.update(
                                verdict="no-candidates", makespan=None
                            )
                            continue  # no structurally possible split
                        op_best = (
                            None if outcome.best is None
                            else outcome.best[1].finish_time
                        )
                        if op_best is not None and op_best < best.finish_time:
                            decision, result = outcome.best
                            txn = SplitTransaction(
                                working, op, decision.dim, decision.num_splits
                            )
                            txn.apply()
                            rnd.accept(
                                decision.dim, decision.num_splits,
                                sub_ops=[o.name for o in txn.sub_ops],
                                makespan=result.finish_time,
                            )
                            cache.invalidate(txn.commit())
                            split_list.append(decision)
                            best = result
                            self._emit_commit(decision, best.finish_time)
                            finish.update(
                                verdict="accepted", makespan=best.finish_time
                            )
                            bounds = _SearchBounds(cache)
                        else:
                            rnd.reject(best_makespan=op_best)
                            rejected += 1
                            finish.update(verdict="rejected", makespan=op_best)
                            break  # first non-improving CP op stops the search
        finally:
            if executor is not None:
                executor.shutdown()

        return self._package(
            working, best, split_list, evaluated, rejected, pruned,
            cache=cache, search=search,
        )

    def _evaluate_op(
        self,
        working: Graph,
        op: Operation,
        cache: CostCache,
        bounds: _SearchBounds,
        incumbent: float,
        executor: Optional[ProcessPoolExecutor],
        rnd,
    ) -> _OpOutcome:
        """Apply/evaluate/undo every (dim, count) candidate of one op.

        With an ``executor``, candidates that survive the bound check are
        fanned out to worker processes; results are reduced in submission
        order so tie-breaking matches the serial path exactly.
        """
        best: Optional[Tuple[SplitDecision, DPOSResult]] = None
        evaluated = 0
        pruned = 0
        attempted = 0
        survivors: List[Tuple[str, int]] = []
        for dim, count in itertools.product(
            sorted(op.split_dims), self.split_counts
        ):
            txn = SplitTransaction(working, op, dim, count)
            try:
                txn.apply()
            except SplitError:
                cache.invalidate(txn.touched)
                rnd.candidate(dim, count, "infeasible")
                continue  # extent too small for this count, etc.
            cache.invalidate(txn.touched)
            attempted += 1
            # A candidate is hopeless once it provably cannot *strictly*
            # beat the incumbent finish time (required to commit) or the
            # best sibling candidate seen so far (required to win the
            # op-best race; ties keep the earlier candidate, matching the
            # reference search's strict-< selection).  Skip its DPOS rerun
            # entirely.
            threshold = incumbent
            if best is not None and best[1].finish_time < threshold:
                threshold = best[1].finish_time
            lower_bound = self._candidate_lower_bound(txn, bounds, cache)
            if lower_bound >= threshold:
                pruned += 1
                rnd.candidate(
                    dim, count, "pruned",
                    lower_bound=lower_bound, threshold=threshold,
                )
                cache.invalidate(txn.undo())
                continue
            if executor is not None:
                cache.invalidate(txn.undo())
                survivors.append((dim, count))
                continue
            result = self.dpos.run(working, cost_cache=cache)
            evaluated += 1
            rnd.candidate(dim, count, "rejected", makespan=result.finish_time)
            cache.invalidate(txn.undo())
            if best is None or result.finish_time < best[1].finish_time:
                best = (txn.decision, result)
        if executor is not None and survivors:
            engine = copy.copy(self.dpos)
            engine.obs = None  # restored to NULL_OBS in the worker
            futures = [
                executor.submit(
                    _evaluate_candidate, engine, working, op.name, dim, count
                )
                for dim, count in survivors
            ]
            for (dim, count), future in zip(survivors, futures):
                result = future.result()
                if result is None:
                    rnd.candidate(dim, count, "infeasible")
                    continue
                evaluated += 1
                rnd.candidate(
                    dim, count, "rejected", makespan=result.finish_time
                )
                if best is None or result.finish_time < best[1].finish_time:
                    decision = SplitDecision(
                        op_name=op.name, dim=dim, num_splits=count
                    )
                    best = (decision, result)
        return _OpOutcome(best, evaluated, pruned, attempted)

    def _candidate_lower_bound(
        self, txn: SplitTransaction, bounds: _SearchBounds, cache: CostCache
    ) -> float:
        """O(split size) lower bound on an applied candidate's finish time.

        Scores only the nodes the split created.  Their down-chains run
        through pre-existing *ancestors*, whose committed ``down`` values
        are still exact (the rewrite leaves their ancestry untouched);
        their up-chains run through pre-existing *descendants*, whose
        ``up`` values are likewise still exact.  Pre-existing nodes are
        never scored directly — an ancestor's ``up`` and a descendant's
        ``down`` are stale after the rewrite.
        """
        down: Dict[str, float] = {}
        up: Dict[str, float] = {}

        def local_down(op: Operation) -> float:
            value = bounds.down.get(op.name)
            if value is None:
                value = down.get(op.name)
            if value is not None:
                return value
            best = 0.0
            for pred in cache.predecessors(op):
                if cache.weight(pred) > 0.0:
                    d = local_down(pred)
                    if d > best:
                        best = d
            value = down[op.name] = best + cache.min_weight(op)
            return value

        def local_up(op: Operation) -> float:
            value = bounds.up.get(op.name)
            if value is None:
                value = up.get(op.name)
            if value is not None:
                return value
            tail = 0.0
            if cache.weight(op) > 0.0:
                for succ in cache.successors(op):
                    u = local_up(succ)
                    if u > tail:
                        tail = u
            value = up[op.name] = tail + cache.min_weight(op)
            return value

        new_nodes: Dict[str, Operation] = {}
        for piece in txn.sub_ops:
            for node in (
                piece, *cache.predecessors(piece), *cache.successors(piece)
            ):
                if node.name not in bounds.down:
                    new_nodes[node.name] = node
        bound = 0.0
        for node in new_nodes.values():
            value = local_down(node) - cache.min_weight(node) + local_up(node)
            if value > bound:
                bound = value
        return bound

    # ------------------------------------------------------------------
    def _package(
        self,
        graph: Graph,
        best: DPOSResult,
        split_list: List[SplitDecision],
        evaluated: int,
        rejected: int,
        pruned: int,
        cache: Optional[CostCache] = None,
        search=None,
    ) -> OSDPOSResult:
        if search is not None:
            search.finalize(best)
        strategy = Strategy(
            placement=dict(best.strategy.placement),
            order=list(best.strategy.order),
            split_list=split_list,
            estimated_time=best.finish_time,
            label="os-dpos" if split_list else "dpos",
        )
        metrics = MetricsSnapshot({
            "search.candidates_evaluated": evaluated,
            "search.splits_rejected": rejected,
            "search.candidates_pruned": pruned,
            "search.splits_committed": len(split_list),
        })
        if cache is not None:
            for key, value in cache.stats().items():
                metrics[f"search.cache.{key}"] = value
        return OSDPOSResult(
            graph=graph,
            strategy=strategy,
            finish_time=best.finish_time,
            dpos_result=best,
            metrics=metrics,
        )

    # ------------------------------------------------------------------
    def _placement_critical_path(
        self,
        graph: Graph,
        result: DPOSResult,
        cache: Optional[CostCache] = None,
        engine: Optional[DPOS] = None,
    ) -> List[str]:
        """Critical path under the committed placement (Alg. 2 lines 4-5).

        Ranks are recomputed with the *assigned-device* computation time
        and the *assigned-pair* communication time, then the path is
        sorted by decreasing computation time on the assigned device.
        ``engine`` overrides whose cost models are consulted (the coarse
        path passes its super-op-aware DPOS).
        """
        placement = result.strategy.placement
        dpos = engine if engine is not None else self.dpos

        if cache is not None:
            def weight(op: Operation) -> float:
                return cache.time(op, placement[op.name])

            def comm(src: Operation, dst: Operation) -> float:
                return cache.pair_time(
                    placement[src.name],
                    placement[dst.name],
                    cache.edge_bytes(src, dst),
                )

            ranks = compute_ranks(
                graph, weight, comm,
                order=cache.topological_order(),
                successors=cache.successors,
            )
            path = critical_path(graph, ranks, successors=cache.successors)
        else:
            computation = dpos.computation
            communication = dpos.communication

            def weight(op: Operation) -> float:
                return computation.time(op, placement[op.name])

            def comm(src: Operation, dst: Operation) -> float:
                return communication.time(
                    placement[src.name],
                    placement[dst.name],
                    graph.edge_bytes(src, dst),
                )

            ranks = compute_ranks(graph, weight, comm)
            path = critical_path(graph, ranks)
        return [
            op.name
            for op in sorted(path, key=lambda o: -weight(o))
            if weight(op) > 0.0
        ]
