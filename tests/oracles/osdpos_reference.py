"""Copy-per-candidate reference of the OS-DPOS search (Alg. 2).

:func:`reference_osdpos` walks the critical path the way the engine's
flat search does, but every split candidate deep-copies the whole graph,
splits the copy with :func:`split_operation`, and reruns DPOS cold: no
transactions, no cost cache, no lower-bound pruning, no worker
processes.  ``repro.core.os_dpos.OSDPOS`` must return exactly the
strategy it returns.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple

from repro.core.dpos import DPOS, DPOSResult
from repro.core.os_dpos import OSDPOS, OSDPOSResult, SearchOptions
from repro.graph import Graph, Operation
from repro.graph.rewrite import SplitDecision, SplitError, split_operation


def reference_osdpos(
    dpos: DPOS, graph: Graph, options: SearchOptions
) -> OSDPOSResult:
    """Flat OS-DPOS over ``graph``: one graph copy per candidate.

    ``options`` sets the split counts and the critical-path cap exactly
    as it does for :class:`OSDPOS`; the coarse and worker paths are the
    engine's own and have no counterpart here.  ``graph`` is not mutated.
    """
    # The engine supplies the option resolution, the placement critical
    # path and the result packaging; the candidate loop is all ours.
    engine = OSDPOS(dpos, options=options)
    current = graph.copy()
    best = dpos.run(current)
    split_list: List[SplitDecision] = []
    evaluated = 0
    rejected = 0
    if engine.split_counts:
        cp_ops = engine._placement_critical_path(current, best)
        if engine.max_candidate_ops is not None:
            cp_ops = cp_ops[: engine.max_candidate_ops]
        for op_name in cp_ops:
            if op_name not in current:
                continue  # consumed by an earlier committed split
            op = current.get_op(op_name)
            if not op.is_splittable:
                continue
            outcome = _best_split(dpos, current, op, engine.split_counts)
            if outcome is None:
                continue
            decision, candidate_graph, candidate, tried = outcome
            evaluated += tried
            if candidate.finish_time < best.finish_time:
                split_list.append(decision)
                current, best = candidate_graph, candidate
            else:
                rejected += 1
                break  # paper: stop at the first non-improving CP op
    return engine._package(current, best, split_list, evaluated, rejected, 0)


def _best_split(
    dpos: DPOS, base: Graph, op: Operation, split_counts: Sequence[int]
) -> Optional[Tuple[SplitDecision, Graph, DPOSResult, int]]:
    """Try every (dimension, split count) of ``op``; keep the best."""
    best: Optional[Tuple[SplitDecision, Graph, DPOSResult]] = None
    tried = 0
    for dim, count in itertools.product(sorted(op.split_dims), split_counts):
        candidate = base.copy()
        try:
            split_operation(candidate, candidate.get_op(op.name), dim, count)
        except SplitError:
            continue  # extent too small for this count, etc.
        result = dpos.run(candidate)
        tried += 1
        if best is None or result.finish_time < best[2].finish_time:
            best = (
                SplitDecision(op_name=op.name, dim=dim, num_splits=count),
                candidate,
                result,
            )
    if best is None:
        return None
    return (*best, tried)
