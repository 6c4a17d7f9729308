"""One benchmark workload, run in its own process.

``run.py`` starts this file once per workload (and a few more times with
``--setup-only`` to time set-up).  The process sets up, writes the
monotonic time at which the first timed operation could be issued, runs
the workload in a closed loop for about ``--seconds``, checks every
output, and writes its figures as JSON to ``--result``.

With ``--trace`` it first runs the workload untraced, then installs the
span wrappers of :mod:`spans` and repeats the same work, so the per-layer
table and the tracing overhead come from one process.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import resource
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import schedule  # noqa: E402
import spans  # noqa: E402

# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

#: zoo-search jobs (model@topology), default FastTConfig.
ZOO_JOBS = ("alexnet@single:8", "vgg19@single:8", "inception_v3@single:8",
            "rnnlm@pcie:4")
SMOKE_ZOO_JOBS = ("lenet@pcie:2", "lenet@single:8")

#: scale-100k: 9100 dense+relu layers x 11 training-graph ops = 100103 ops.
SCALE_LAYERS = 9100
SMOKE_SCALE_LAYERS = 500  # 5503 ops: still above the coarsening threshold
SCALE_HIDDEN = 64
#: Below the device count, so the session optimizes the plain model DAG.
SCALE_BATCH = 2
SCALE_TOPOLOGY = "pcie:4"

#: serve-mix: the config every request carries.
SERVE_CONFIG = {
    "profiling_steps": 1, "max_rounds": 2, "min_rounds": 1,
    "measure_steps": 1, "search": {"max_candidate_ops": 4},
}
SERVE_MODELS = ("lenet", "alexnet", "vgg19")
SERVE_TOPOLOGIES = ("pcie:2", "single:8")
SMOKE_SERVE_MODELS = ("lenet",)
#: Hits per problem; with 12 problems, 6 cold, 6 warm and 6 coalesced
#: requests this gives about 70% hits.
SERVE_HITS = 3
SMOKE_SERVE_HITS = 2
#: Memory LRU of the store: below the catalogue, so hits reach the disk.
SERVE_LRU = 8
SMOKE_SERVE_LRU = 3


def deep_mlp(layers: int) -> Callable:
    """A deep, skinny MLP: the op count is the point, not the model."""
    from repro.models.layers import LayerHelper

    def build(graph, prefix, batch):
        net = LayerHelper(graph, prefix)
        x = net.placeholder("x", (batch, SCALE_HIDDEN))
        for i in range(layers):
            x = net.dense(x, f"fc{i}", SCALE_HIDDEN, relu=True)
        return net.softmax_loss(x)

    return build


def scale_config():
    from repro.core.calculator import FastTConfig
    from repro.core.os_dpos import SearchOptions

    return FastTConfig(
        profiling_steps=1, max_rounds=1, min_rounds=1, measure_steps=1,
        search=SearchOptions(
            coarsen="auto", max_candidate_ops=2, split_counts=[2],
        ),
    )


def serve_catalogue(smoke: bool) -> schedule.Catalogue:
    from repro.models import get_model

    models = SMOKE_SERVE_MODELS if smoke else SERVE_MODELS
    return schedule.Catalogue(
        base_batches={m: get_model(m).global_batch for m in models},
        topologies=SERVE_TOPOLOGIES,
        hits_per_problem=SMOKE_SERVE_HITS if smoke else SERVE_HITS,
        lru_capacity=SMOKE_SERVE_LRU if smoke else SERVE_LRU,
    )


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    """What one workload run measured."""

    latencies: List[float] = field(default_factory=list)
    #: Search workloads: each job's optimize times, one per pass.
    job_seconds: Dict[str, List[float]] = field(default_factory=dict)
    optimize_seconds: List[float] = field(default_factory=list)
    speeds: List[float] = field(default_factory=list)
    searches: int = 0
    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    units: int = 0
    notes: List[str] = field(default_factory=list)
    serve_stats: Dict[str, int] = field(default_factory=dict)

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)


def closed_loop(run_unit: Callable[[int, Outcome], None], seconds: float,
                units: Optional[int] = None) -> Outcome:
    """Run the whole number of units that best fills ``seconds`` (or
    exactly ``units`` of them); at least one.

    Whole units keep the mix of jobs and requests the same in every run.
    """
    outcome = Outcome()
    start = time.perf_counter()
    while True:
        run_unit(outcome.units, outcome)
        outcome.units += 1
        elapsed = time.perf_counter() - start
        if units is not None:
            if outcome.units >= units:
                break
        elif elapsed + elapsed / outcome.units / 2 >= seconds:
            break
    if not outcome.wall:
        outcome.wall = time.perf_counter() - start
    return outcome


def check_result(result, label: str, outcome: Outcome) -> bool:
    """Every op placed on the job's devices; a finite, consistent speed."""
    devices = set(result.topology.device_names)
    placement = result.strategy.placement
    unplaced = [op.name for op in result.graph.ops
                if placement.get(op.name) not in devices]
    if unplaced:
        outcome.fail(f"{label}: {len(unplaced)} ops not placed on a device "
                     f"of the topology, e.g. {unplaced[0]}")
        return False
    time_s = result.iteration_time
    if not (math.isfinite(time_s) and time_s > 0
            and result.training_speed == result.global_batch / time_s):
        outcome.fail(f"{label}: iteration_time {time_s!r}, training_speed "
                     f"{result.training_speed!r}")
        return False
    return True


def search_unit(jobs: List[tuple], seed: int, tracer) -> Callable:
    """One unit = every job once, in an order drawn from the seed."""
    import repro

    by_label = {job[0]: job[1:] for job in jobs}

    def run_unit(index: int, outcome: Outcome) -> None:
        for label in schedule.job_order(list(by_label), seed * 1000 + index):
            model, topology, kwargs = by_label[label]
            if tracer is not None:
                tracer.set_key(f"{label}#{index}")
            outcome.attempted += 1
            start = time.perf_counter()
            try:
                result = repro.optimize(model, topology, run_dir=False,
                                        **kwargs)
            except Exception as exc:  # a failed job is counted, not fatal
                outcome.fail(f"{label}: {type(exc).__name__}: {exc}")
                outcome.job_seconds.setdefault(label, []).append(math.inf)
                continue
            seconds = time.perf_counter() - start
            outcome.job_seconds.setdefault(label, []).append(seconds)
            outcome.optimize_seconds.append(seconds)
            outcome.searches += 1
            if check_result(result, label, outcome):
                outcome.speeds.append(result.training_speed)
            del result

    return run_unit


# ----------------------------------------------------------------------
# serve-mix
# ----------------------------------------------------------------------

class ServeEpochs:
    """Fresh service per epoch, driven by two clients over loopback."""

    def __init__(self, out_dir: str, catalogue: schedule.Catalogue,
                 seed: int) -> None:
        from repro.cluster import topology_from

        self.out_dir = out_dir
        self.catalogue = catalogue
        self.seed = seed
        self.tracer: Optional[spans.Tracer] = None
        self.devices = {t: set(topology_from(t).device_names)
                        for t in catalogue.topologies}
        self.epoch_count = 0
        self.used = False
        self.thread: Optional[threading.Thread] = None
        self.clients: list = []

    def start(self) -> None:
        """Start a service on an empty store in a fresh directory."""
        from repro.serve import Client, StrategyService, StrategyStore
        from repro.serve.service import serve_forever

        root = os.path.join(self.out_dir, f"store-{self.epoch_count}")
        self.epoch_count += 1
        shutil.rmtree(root, ignore_errors=True)
        service = StrategyService(store=StrategyStore(
            root=root, capacity=self.catalogue.lru_capacity,
        ))
        bound: Dict[str, int] = {}
        ready = threading.Event()

        def on_ready(_host: str, port: int) -> None:
            bound["port"] = port
            ready.set()

        self.thread = threading.Thread(
            target=asyncio.run, args=(serve_forever(service, ready=on_ready),),
            name="serve-mix-service",
        )
        self.thread.start()
        if not ready.wait(30):
            raise RuntimeError("strategy service did not start")
        self.clients = [Client(port=bound["port"]) for _ in range(2)]
        self.clients[0].ping()

    def stop(self) -> None:
        self.clients[1].close()
        self.clients[0].shutdown()
        self.clients[0].close()
        self.thread.join(30)
        if self.thread.is_alive():
            raise RuntimeError("strategy service did not stop")

    def run_unit(self, index: int, outcome: Outcome) -> None:
        """One epoch of the seeded schedule; the service is restarted
        after each so every epoch begins from an empty store."""
        if self.used:
            self.stop()
            self.start()
        self.used = True
        epoch = schedule.serve_epoch(self.catalogue, self.seed * 1000 + index)
        responses: Dict[tuple, Optional[dict]] = {}
        barrier = threading.Barrier(2)
        start = time.perf_counter()

        def drive(me: int) -> None:
            try:
                for step_index, step in enumerate(epoch.steps):
                    barrier.wait()
                    if me in step.clients:
                        responses[step_index, me] = self._send(
                            me, step, outcome)
            except BaseException:
                # Release the other client; the requests never sent fail
                # their checks below.
                barrier.abort()
                raise

        senders = [threading.Thread(target=drive, args=(me,))
                   for me in range(2)]
        for thread in senders:
            thread.start()
        for thread in senders:
            thread.join()
        outcome.wall += time.perf_counter() - start
        self._check_epoch(epoch, responses, outcome)

    def _send(self, me: int, step: schedule.Step, outcome: Outcome):
        from repro.serve import ServiceError
        from repro.serve.client import new_request_id

        model, topology, batch = step.problem
        request_id = new_request_id()
        start = time.perf_counter()
        try:
            response = self.clients[me].optimize(
                model, topology, global_batch=batch, config=SERVE_CONFIG,
                request_id=request_id,
            )
        except (ServiceError, OSError) as exc:
            response = {"status": "error", "error": str(exc)}
        end = time.perf_counter()
        if self.tracer is not None:
            self.tracer.record("serve.request", start, end, request_id)
        ok = response.get("status") == "ok"
        outcome.latencies.append(end - start if ok else math.inf)
        return response

    def _check_epoch(self, epoch: schedule.Epoch, responses: dict,
                     outcome: Outcome) -> None:
        placements: Dict[tuple, dict] = {}
        for step_index, step in enumerate(epoch.steps):
            answers = [responses.get((step_index, c)) for c in step.clients]
            outcome.attempted += len(answers)
            label = f"step {step_index} {step.kind} {step.problem}"
            for answer in answers:
                if self._check_answer(step, answer, placements, label,
                                      outcome):
                    outcome.speeds.append(answer["training_speed"])
            if step.kind != schedule.HIT:
                outcome.searches += 1
                leaders = [a for a in answers if a and not a.get("coalesced")]
                if len(leaders) != 1:
                    outcome.fail(f"{label}: {len(leaders)} leaders for "
                                 f"{len(answers)} requests")
                    continue
                outcome.optimize_seconds.append(leaders[0]["search_seconds"])
                placements[step.problem] = leaders[0]["strategy"]["placement"]

        from repro.obs.prometheus import parse_prometheus, sample_value

        stats = self.clients[0].stats()["stats"]
        for name, value in stats.items():
            outcome.serve_stats[name] = outcome.serve_stats.get(name, 0) + value
        if stats != epoch.expected:
            outcome.fail(f"epoch stats {stats} != expected {epoch.expected}")
        exposed = sample_value(parse_prometheus(self.clients[0].metrics()),
                               "repro_serve_requests_total")
        if exposed != stats["requests"]:
            outcome.fail(f"repro_serve_requests_total {exposed} != "
                         f"requests {stats['requests']}")

    def _check_answer(self, step, answer, placements, label,
                      outcome) -> bool:
        if not answer or answer.get("status") != "ok":
            outcome.fail(f"{label}: {answer}")
            return False
        expected = schedule.SOURCE[step.kind]
        if answer["source"] != expected:
            outcome.fail(f"{label}: source {answer['source']!r}, "
                         f"expected {expected!r}")
            return False
        placement = answer["strategy"]["placement"]
        if not set(placement.values()) <= self.devices[step.problem[1]]:
            outcome.fail(f"{label}: placement uses unknown devices")
            return False
        if step.kind == schedule.HIT and placement != placements.get(
                step.problem):
            outcome.fail(f"{label}: cached placement differs from the "
                         "search that produced it")
            return False
        makespan = answer["makespan"]
        if not (math.isfinite(makespan) and makespan > 0
                and answer["training_speed"]
                == answer["global_batch"] / makespan):
            outcome.fail(f"{label}: makespan {makespan!r}, training_speed "
                         f"{answer['training_speed']!r}")
            return False
        return True


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------

def percentile(values: List[float], percent: int) -> float:
    """Interpolated percentile, so that with few samples (four zoo jobs)
    it does not jump between neighbouring jobs."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def geomean(values: List[float]) -> float:
    if not values:
        return math.nan
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(outcome: Outcome) -> Dict[str, tuple]:
    # A search workload's latency sample is each job's median over the
    # passes: pooling would put the median on the slowest run of one job
    # and the fastest of the next.
    latencies = [statistics.median(times)
                 for times in outcome.job_seconds.values()]
    latencies = latencies or outcome.latencies
    return {
        "jobs_per_s": (outcome.searches / outcome.wall, "1/s"),
        "requests_per_s": (outcome.attempted / outcome.wall, "1/s"),
        "optimize_s_geomean": (geomean(outcome.optimize_seconds), "s"),
        "samples_per_s_geomean": (geomean(outcome.speeds), "samples/s"),
        "latency_p50_s": (percentile(latencies, 50), "s"),
        "latency_p90_s": (percentile(latencies, 90), "s"),
    }


def report_counts(reports: list) -> Dict[str, float]:
    """Search counters read from the reports the program returned."""
    counts = dict.fromkeys(
        ("search.candidates_evaluated", "search.candidates_pruned",
         "search.splits_committed", "search.splits_rejected",
         "search.cache.misses"), 0,
    )
    rounds = rollbacks = ops = 0
    for report in reports:
        for name in counts:
            counts[name] += int(report.metrics.get(name, 0))
        rounds += len(report.rounds)
        rollbacks += sum(1 for r in report.rounds if r.rolled_back)
        ops += report.graph.num_ops
    counts.update({"calculator.rounds": rounds,
                   "calculator.rollbacks": rollbacks, "graph.ops": ops})
    return counts


def ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def per_layer(table: spans.LayerTable, reports: list, serve_stats: dict,
              untraced_wall: float, traced_wall: float) -> Dict[str, tuple]:
    out: Dict[str, tuple] = {}
    for name in spans.LAYERS:
        out[f"{name}.calls"] = (table.calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (table.self_seconds.get(name, 0.0), "s")
        out[f"{name}.share"] = (table.share(name), "ratio")
    out["unattributed.self_s"] = (table.unattributed, "s")
    out["unattributed.share"] = (table.share(table.root), "ratio")
    counts = report_counts(reports)
    for name in ("hits", "misses", "coalesced", "searches", "warm_starts",
                 "warm_fallbacks", "evictions", "errors", "timeouts"):
        counts[f"serve.{name}"] = serve_stats.get(name, 0)
    for name, value in counts.items():
        out[name] = (value, "count")
    evaluated = counts["search.candidates_evaluated"]
    pruned = counts["search.candidates_pruned"]
    out["search.prune_ratio"] = (ratio(pruned, evaluated + pruned), "ratio")
    out["search.commit_ratio"] = (
        ratio(counts["search.splits_committed"], evaluated), "ratio")
    out["calculator.rollback_ratio"] = (
        ratio(counts["calculator.rollbacks"], counts["calculator.rounds"]),
        "ratio")
    out["serve.hit_ratio"] = (
        ratio(serve_stats.get("hits", 0), serve_stats.get("requests", 0)),
        "ratio")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    out["trace.overhead_share"] = (
        ratio(traced_wall - untraced_wall, untraced_wall), "ratio")
    out["trace.sum_gap"] = (table.sum_gap, "ratio")
    return out


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def prepare(args):
    """Set-up: inputs, and for serve-mix a running service.

    Returns (run_unit factory, root span name, teardown).
    """
    import repro  # noqa: F401  (imports are part of set-up)

    if args.workload == "zoo-search":
        jobs = []
        for job in SMOKE_ZOO_JOBS if args.smoke else ZOO_JOBS:
            model, topology = job.split("@")
            jobs.append((job, model, topology, {}))
        return (lambda tracer: search_unit(jobs, args.seed, tracer),
                "optimize", lambda: None)
    if args.workload == "scale-100k":
        layers = SMOKE_SCALE_LAYERS if args.smoke else SCALE_LAYERS
        # Deep graphs recurse when copied (tensor -> producer -> ...).
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 200 * layers))
        job = (f"deep_mlp_{layers}@{SCALE_TOPOLOGY}", deep_mlp(layers),
               SCALE_TOPOLOGY,
               {"global_batch": SCALE_BATCH, "config": scale_config(),
                "model_name": f"deep_mlp_{layers}"})
        return (lambda tracer: search_unit([job], args.seed, tracer),
                "optimize", lambda: None)
    serve = ServeEpochs(os.path.join(args.out, f"serve-{os.getpid()}"),
                        serve_catalogue(args.smoke), args.seed)
    serve.start()

    def factory(tracer):
        serve.tracer = tracer
        return serve.run_unit

    def teardown():
        serve.stop()
        shutil.rmtree(serve.out_dir, ignore_errors=True)

    return factory, "serve.request", teardown


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=("zoo-search", "scale-100k", "serve-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    factory, root, teardown = prepare(args)
    ready_at = time.monotonic()
    document: Dict[str, object] = {"ready_at": ready_at}
    if args.setup_only:
        teardown()
        _write(args.result, document)
        return 0

    try:
        # A traced run measures the same units twice, so each half gets
        # half the time.
        budget = args.seconds / 2 if args.trace else args.seconds
        untraced = closed_loop(factory(None), budget)
        outcome = untraced
        if args.trace:
            tracer = spans.Tracer().install()
            try:
                outcome = closed_loop(factory(tracer), args.seconds,
                                      units=untraced.units)
            finally:
                tracer.restore()
    finally:
        teardown()

    attempted = untraced.attempted + (outcome.attempted if args.trace else 0)
    failed = untraced.failed + (outcome.failed if args.trace else 0)
    notes = untraced.notes + (outcome.notes if args.trace else [])
    document.update({
        "workload": args.workload, "seed": args.seed, "units": untraced.units,
        "attempted": attempted, "failed": failed, "notes": notes,
        "samples": len(untraced.job_seconds or untraced.latencies),
        "serve_stats": untraced.serve_stats,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    })
    if not args.trace:
        document["metrics"] = end_to_end(untraced)
    else:
        table = spans.layer_table(tracer.spans, root)
        trace_path = os.path.join(
            args.out, f"{args.workload}-seed{args.seed}.trace.json")
        from repro.obs.chrome_trace import (
            TraceValidationError, validate_trace, write_trace)

        write_trace(trace_path, spans.chrome_events(tracer.spans,
                                                    args.workload))
        consistent = table.consistent
        try:
            validate_trace(trace_path)
        except TraceValidationError as exc:
            consistent = False
            notes.append(f"invalid trace: {exc}")
        document.update({
            "metrics": per_layer(table, tracer.reports, outcome.serve_stats,
                                 untraced.wall, outcome.wall),
            "table": table.render(),
            "consistent": consistent,
            "trace_file": trace_path,
        })
    _write(args.result, document)
    return 0


def _write(path: str, document: dict) -> None:
    with open(path, "w") as handle:
        json.dump(document, handle)


if __name__ == "__main__":
    sys.exit(main())
