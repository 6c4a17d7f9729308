"""DPOS placement must equal the linear-scan reference exactly.

The idle-gap index of ``_DeviceSchedule`` and the once-per-op arrival
times of ``DPOS`` are pure performance layers.  These tests pin them to
the straightforward versions in ``tests/oracles/dpos_reference.py``:
the schedule query, interval by interval, and whole DPOS runs across the
model zoo, field by field.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import cluster_for
from repro.core import DPOS
from repro.core import dpos as dpos_module
from repro.core.dpos import _DeviceSchedule
from repro.costmodel import (
    CostCache,
    OracleCommunicationModel,
    OracleComputationModel,
)
from repro.graph import build_single_device_training_graph
from repro.hardware import PerfModel
from repro.models import get_model, model_names
from repro.obs import Observability

from tests.oracles.dpos_reference import LinearScanSchedule, reference_dpos

GPU_COUNTS = (2, 4, 8)


# ----------------------------------------------------------------------
# The schedule query
# ----------------------------------------------------------------------

def _exact_gaps(schedule):
    """Durations that exactly fill an idle gap (``end + d == start``)."""
    starts, ends = schedule.starts, schedule.ends
    return [s - e for e, s in zip(ends, starts[1:]) if s >= e]


def _draw_ready(data, schedule, scale):
    edges = schedule.starts + schedule.ends
    choices = [st.floats(0.0, 1.5 * scale, allow_nan=False)]
    if edges:
        # ``ready`` exactly on an interval edge, or one ulp either side.
        choices.append(st.sampled_from(edges))
        choices.append(st.sampled_from(edges).map(
            lambda t: max(0.0, t * (1 - 2 ** -52))))
        choices.append(st.sampled_from(edges).map(
            lambda t: t * (1 + 2 ** -52)))
    return data.draw(st.one_of(choices))


def _draw_duration(data, schedule, scale):
    choices = [
        st.just(0.0),
        st.floats(0.0, scale / 10, allow_nan=False),
    ]
    exact = _exact_gaps(schedule)
    if exact:
        choices.append(st.sampled_from(exact))
    return data.draw(st.one_of(choices))


def _check_index(schedule):
    """The gap index describes exactly the intervals it sits on."""
    starts, ends, gaps = schedule.starts, schedule.ends, schedule.gaps
    assert gaps == [
        start - (ends[j - 1] if j else 0.0) for j, start in enumerate(starts)
    ]
    assert schedule.top == max(ends, default=0.0)
    bounds = schedule.block_lo + [len(starts)]
    assert bounds[0] == 0
    for b, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        assert 0 < hi - lo <= 2 * dpos_module._BLOCK
        assert schedule.block_gap[b] == max(gaps[lo:hi])
        assert schedule.suffix_gap[b] == max(schedule.block_gap[b:])


def _check_step(fast, slow, ready, duration, insertion):
    got = fast.earliest_slot(ready, duration, insertion)
    want = slow.earliest_slot(ready, duration, insertion)
    assert got == want, (ready, duration, insertion, slow.starts, slow.ends)
    fast.insert(want, duration)
    slow.insert(want, duration)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_gap_index_matches_linear_scan(data):
    scale = data.draw(st.sampled_from([1.0, 1e3, 1e6]), label="scale")
    appending = data.draw(st.booleans(), label="appending")
    steps = data.draw(st.integers(1, 120), label="steps")
    fast, slow = _DeviceSchedule(), LinearScanSchedule()
    for _ in range(steps):
        ready = _draw_ready(data, slow, scale)
        duration = _draw_duration(data, slow, scale)
        # Mostly the insertion policy; ``appending`` mixes in the
        # append-only ablation on the same schedule.
        insertion = not (appending and data.draw(st.booleans()))
        _check_step(fast, slow, ready, duration, insertion)
        _check_index(fast)
    assert fast.starts == slow.starts
    assert fast.ends == slow.ends


@pytest.mark.parametrize("seed", range(6))
def test_gap_index_matches_linear_scan_on_long_schedules(seed):
    """Thousands of intervals: many index blocks, splits and suffixes."""
    rng = random.Random(seed)
    scale = (1.0, 1e3, 1e6)[seed % 3]
    fast, slow = _DeviceSchedule(), LinearScanSchedule()
    for step in range(3000):
        top = slow.ends[-1] if slow.ends else 0.0
        roll = rng.random()
        if roll < 0.1 and slow.starts:
            ready = rng.choice(slow.starts + slow.ends)
        else:
            ready = rng.uniform(0.0, top + scale / 100)
        if roll > 0.9:
            duration = 0.0
        elif roll > 0.8 and _exact_gaps(slow):
            duration = rng.choice(_exact_gaps(slow))
        else:
            duration = rng.expovariate(100.0 / scale)
        _check_step(fast, slow, ready, duration, True)
        if step % 100 == 0:
            _check_index(fast)
    _check_index(fast)
    assert fast.starts == slow.starts
    assert fast.ends == slow.ends


# ----------------------------------------------------------------------
# Whole DPOS runs
# ----------------------------------------------------------------------

def _fields(result):
    return (
        result.placement,
        result.order,
        result.start_times,
        result.finish_times,
        result.finish_time,
    )


def _problem(model_name, num_gpus):
    topo = cluster_for(num_gpus)
    perf = PerfModel(topo)
    comp = OracleComputationModel(perf)
    comm = OracleCommunicationModel(perf)
    model = get_model(model_name, preset="bench")
    graph = build_single_device_training_graph(
        model.builder, model.global_batch, name=f"{model_name}_g{num_gpus}"
    )
    return topo, comp, comm, graph


@pytest.mark.parametrize("num_gpus", GPU_COUNTS)
@pytest.mark.parametrize("model_name", model_names())
def test_dpos_matches_linear_scan_reference(model_name, num_gpus, monkeypatch):
    topo, comp, comm, graph = _problem(model_name, num_gpus)
    dpos = DPOS(topo, comp, comm)
    default = _fields(dpos.run(graph))
    cache = CostCache(graph, comp, comm, topo.device_names)
    assert _fields(dpos.run(graph, cost_cache=cache)) == default
    recorded = DPOS(topo, comp, comm, obs=Observability(provenance=True))
    assert _fields(recorded.run(graph)) == default

    assert reference_dpos(dpos, graph) == default
    monkeypatch.setattr(dpos_module, "_DeviceSchedule", LinearScanSchedule)
    assert _fields(dpos.run(graph)) == default


@pytest.mark.parametrize("model_name", model_names())
def test_append_only_dpos_matches_reference(model_name):
    topo, comp, comm, graph = _problem(model_name, 4)
    dpos = DPOS(topo, comp, comm, insertion_scheduling=False)
    assert reference_dpos(dpos, graph) == _fields(dpos.run(graph))
