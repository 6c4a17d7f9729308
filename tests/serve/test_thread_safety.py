"""Cross-request race hardening: metrics, event bus, comm-model caches.

The strategy service runs N searches in one process concurrently; the
pieces they may share — a MetricsRegistry, an EventBus, a profiled
CommunicationCostModel, the service's request-resolution table — must
tolerate that without losing updates or corrupting their lazy caches.
"""

import os
import pickle
import sys
import threading

from repro.costmodel import CommunicationCostModel
from repro.obs import EventBus
from repro.obs.metrics import MetricsRegistry
from repro.serve import StrategyService, StrategyStore


def _hammer(n_threads, fn):
    errors = []

    def worker(i):
        try:
            fn(i)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(300)
        assert not t.is_alive()
    assert not errors


class TestMetricsUnderContention:
    def test_counter_increments_are_not_lost(self):
        registry = MetricsRegistry()
        counter = registry.counter("stress.counter")
        per_thread = 5000

        _hammer(8, lambda i: [counter.inc() for _ in range(per_thread)])
        assert counter.value == 8 * per_thread

    def test_timer_accumulation_is_not_lost(self):
        registry = MetricsRegistry()
        timer = registry.timer("stress.timer")
        per_thread = 2000

        _hammer(8, lambda i: [timer.add(0.001) for _ in range(per_thread)])
        assert timer.count == 8 * per_thread
        assert abs(timer.seconds - 8 * per_thread * 0.001) < 1e-6


class TestEventBusUnderContention:
    def test_sequence_numbers_unique_and_complete(self):
        bus = EventBus()
        seen = []
        lock = threading.Lock()

        @bus.subscribe
        def collect(event):
            with lock:
                seen.append(event.seq)

        per_thread = 1000
        _hammer(8, lambda i: [bus.emit("stress", i=i)
                              for _ in range(per_thread)])
        assert len(seen) == 8 * per_thread
        assert len(set(seen)) == len(seen)  # no duplicate seq
        assert sorted(seen) == list(range(1, 8 * per_thread + 1))


class TestCommunicationModelUnderContention:
    def test_concurrent_observe_and_query(self):
        model = CommunicationCostModel(
            pair_class=lambda a, b: "cls", max_samples_per_pair=64
        )
        pairs = [("/gpu:0", "/gpu:1"), ("/gpu:1", "/gpu:0"),
                 ("/gpu:0", "/gpu:2"), ("/gpu:2", "/gpu:1")]

        def mixed(i):
            src, dst = pairs[i % len(pairs)]
            for step in range(500):
                model.observe(src, dst, 1024 * (step + 1), 1e-6 * (step + 1))
                value = model.time(src, dst, 4096)
                assert value >= 0.0
                # Unknown pair exercises class + global fallbacks (the
                # lazily-refit caches the lock protects).
                assert model.time("/gpu:7", "/gpu:8", 4096) >= 0.0

        _hammer(8, mixed)
        assert model.num_pairs == len(pairs)

    def test_model_still_pickles(self):
        """Locks must not break process-pool shipping of the model."""
        model = CommunicationCostModel(pair_class=lambda a, b: "cls")
        model.observe("/gpu:0", "/gpu:1", 1024, 1e-5)
        model.time("/gpu:0", "/gpu:1", 2048)  # populate lazy caches

        # pair_class lambdas don't pickle; the harness ships models with
        # picklable callables, mirror that here.
        model._pair_class = None
        clone = pickle.loads(pickle.dumps(model))
        assert clone.time("/gpu:0", "/gpu:1", 2048) == model.time(
            "/gpu:0", "/gpu:1", 2048
        )
        clone.observe("/gpu:0", "/gpu:1", 4096, 2e-5)  # lock was restored


class TestRequestResolutionUnderContention:
    FAST_CONFIG = {
        "profiling_steps": 1, "max_rounds": 2, "min_rounds": 1,
        "measure_steps": 1, "search": {"max_candidate_ops": 2},
    }

    def _request(self, batch):
        return {"model": "lenet", "topology": "pcie:2",
                "global_batch": batch, "config": self.FAST_CONFIG}

    def test_repeats_racing_fresh_puts_get_their_own_answers(self):
        # A memory-only store smaller than the problem set: fresh puts
        # evict entries the table still resolves to, so repeats race
        # stale drops and re-resolution as well as puts.
        service = StrategyService(
            store=StrategyStore(persist=False, capacity=3)
        )
        batches = [32, 48, 64, 96, 128, 160]
        # Each problem's key, answered serially by a separate service.
        reference = StrategyService(store=StrategyStore(persist=False))
        expected = {
            batch: reference.submit(self._request(batch))["key"]
            for batch in batches
        }
        assert len(set(expected.values())) == len(batches)
        for batch in batches[:3]:
            service.submit(self._request(batch))

        answers = []
        lock = threading.Lock()

        def worker(i):
            for j in range(len(batches)):
                batch = batches[(i + j) % len(batches)]
                response = service.submit(self._request(batch))
                with lock:
                    answers.append((batch, response["key"]))

        n_threads = 2 * (os.cpu_count() or 1) + 2
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _hammer(n_threads, worker)
        finally:
            sys.setswitchinterval(interval)

        assert len(answers) == n_threads * len(batches)
        assert all(key == expected[batch] for batch, key in answers)
        assert service.stats.hits > 0
        # Whatever the interleaving, every surviving table entry points
        # at its own request's answer.
        by_request = {
            service.submit(self._request(batch))["request"]: expected[batch]
            for batch in batches
        }
        with service._resolved_lock:
            resolved = dict(service._resolved)
        assert resolved == by_request
