"""StrategyService: hit / coalesce / warm-start semantics, counter-verified."""

import os
import threading

import pytest

import repro
from repro.core.session import FastTSession
from repro.graph import ShapeError
from repro.models import get_model
from repro.serve import (
    RequestError,
    StrategyService,
    StrategyStore,
    normalize_request,
)

FAST_CONFIG = {
    "profiling_steps": 1, "max_rounds": 2, "min_rounds": 1,
    "measure_steps": 1, "search": {"max_candidate_ops": 2},
}


def _service(tmp_path, **kwargs):
    store = StrategyStore(root=str(tmp_path / "strategies"), capacity=16)
    return StrategyService(store=store, **kwargs)


def _request(**overrides):
    request = {"model": "lenet", "topology": "pcie:2", "config": FAST_CONFIG}
    request.update(overrides)
    return request


class TestNormalize:
    def test_requires_model_and_topology(self):
        with pytest.raises(RequestError):
            normalize_request({"topology": "pcie:2"})
        with pytest.raises(RequestError):
            normalize_request({"model": "lenet"})

    def test_rejects_unknown_config_keys(self):
        with pytest.raises(RequestError):
            normalize_request(_request(config={"not_a_knob": 1}))
        with pytest.raises(RequestError):
            normalize_request(_request(config={"search": {"bogus": 1}}))

    @pytest.mark.parametrize("batch", [0, -4])
    def test_non_positive_batch_rejected_like_optimize(self, tmp_path, batch):
        with pytest.raises(ShapeError, match="non-positive"):
            repro.optimize(
                "lenet", "pcie:2", global_batch=batch, run_dir=False
            )
        with pytest.raises(RequestError, match="non-positive"):
            normalize_request(_request(global_batch=batch))
        service = _service(tmp_path)
        with pytest.raises(RequestError, match="non-positive"):
            service.submit(_request(global_batch=batch))
        assert service.stats.searches == 0

    @pytest.mark.parametrize(
        "search", [{"workers": 2}, {"naive": True}, {"prune": False}],
        ids=["workers", "naive", "prune"],
    )
    def test_policy_and_removed_search_options_rejected(self, tmp_path, search):
        config = dict(FAST_CONFIG, search=dict(FAST_CONFIG["search"], **search))
        service = _service(tmp_path)
        with pytest.raises(RequestError, match="unknown search option"):
            service.submit(_request(config=config))
        assert service.stats.searches == 0

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"global_batch": "abc"}, "global_batch"),
            ({"global_batch": True}, "global_batch"),
            ({"global_batch": 32.0}, "global_batch"),
            ({"config": {"search": {"coarsen": "x"}}}, "config.search.coarsen"),
            (
                {"config": {"search": {"coarsen_threshold": 0}}},
                "config.search.coarsen_threshold",
            ),
        ],
        ids=[
            "batch-str", "batch-bool", "batch-float", "coarsen",
            "coarsen_threshold",
        ],
    )
    def test_malformed_values_get_typed_errors(self, tmp_path, overrides, field):
        service = _service(tmp_path)
        with pytest.raises(RequestError, match=field):
            service.submit(_request(**overrides))
        assert service.stats.searches == 0

    def test_absent_or_null_batch_uses_model_default(self):
        assert "global_batch" not in normalize_request(_request())
        assert "global_batch" not in normalize_request(
            _request(global_batch=None)
        )

    def test_canonical_form_is_order_insensitive(self):
        a = normalize_request(_request())
        b = normalize_request({
            "config": FAST_CONFIG, "topology": "pcie:2", "model": "lenet",
        })
        assert a == b


class TestCachePath:
    def test_repeat_answered_from_store_without_search(self, tmp_path):
        service = _service(tmp_path)
        first = service.submit(_request())
        assert first["source"] == "search"
        searches_after_first = service.stats.searches

        second = service.submit(_request())
        assert second["source"] == "cache"
        # Counter-verified: the repeat ran no search at all.
        assert service.stats.searches == searches_after_first == 1
        assert service.stats.hits == 1
        assert second["strategy"] == first["strategy"]
        assert second["makespan"] == first["makespan"]

    def test_cache_shared_across_service_restart(self, tmp_path):
        first = _service(tmp_path).submit(_request())
        service = _service(tmp_path)
        second = service.submit(_request())
        assert second["source"] == "cache"
        assert service.stats.searches == 0
        assert second["strategy"] == first["strategy"]

    def test_different_batch_is_a_different_problem(self, tmp_path):
        service = _service(tmp_path)
        service.submit(_request(global_batch=64))
        other = service.submit(_request(global_batch=128))
        assert other["source"] != "cache"
        assert service.stats.searches == 2


@pytest.fixture
def session_builds(monkeypatch):
    """Records the ``global_batch`` of every FastTSession built."""
    builds = []
    original = FastTSession.__init__

    def counting(self, *args, **kwargs):
        builds.append(kwargs.get("global_batch"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(FastTSession, "__init__", counting)
    return builds


def _without_request_id(response):
    return {k: v for k, v in response.items() if k != "request_id"}


class TestResolution:
    """A repeat resolves its request key straight to the stored answer."""

    def test_repeat_equals_the_full_path_answer(self, tmp_path, session_builds):
        service = _service(tmp_path)
        service.submit(_request())
        repeat = service.submit(_request())
        assert repeat["source"] == "cache"
        assert len(session_builds) == 1  # the repeat took the table

        # A fresh service over the same store has no table: full path.
        full = _service(tmp_path).submit(_request())
        assert len(session_builds) == 2
        assert full["source"] == "cache"
        assert _without_request_id(repeat) == _without_request_id(full)

    def test_repeat_builds_no_session(self, tmp_path, session_builds):
        service = _service(tmp_path)
        hits = []
        service.events.subscribe(
            lambda event: hits.append(event) if event.kind == "serve.hit"
            else None
        )
        first = service.submit(_request())
        assert len(session_builds) == 1
        for _ in range(3):
            repeat = service.submit(_request())
            assert repeat["source"] == "cache"
            assert repeat["key"] == first["key"]
        assert len(session_builds) == 1
        # The fast path keeps the hit's counter, event and observation.
        assert service.stats.hits == 3
        assert [event.data["key"] for event in hits] == [first["key"]] * 3
        snap = service.metrics.snapshot()
        assert snap["serve.store.lookup{result=hit}.count"] == 3

    def test_stale_entry_falls_through_and_re_resolves(
        self, tmp_path, session_builds
    ):
        service = _service(tmp_path)
        first = service.submit(_request())
        os.remove(tmp_path / "strategies" / f"{first['key']}.json")
        service.store.clear_memory()
        searches, misses = service.stats.searches, service.stats.misses

        again = service.submit(_request())
        assert again["source"] == "search"
        assert again["key"] == first["key"]
        assert service.stats.searches == searches + 1
        assert service.stats.misses == misses + 1

        builds = len(session_builds)
        third = service.submit(_request())
        assert third["source"] == "cache"
        assert third["key"] == first["key"]
        assert len(session_builds) == builds  # re-resolved

    def test_wrong_entry_never_answers(self, tmp_path):
        service = _service(tmp_path)
        first = service.submit(_request())
        other = service.submit(_request(global_batch=64))
        request_key = first["request"]
        # Point the request at a key the store does not hold: the lookup
        # misses and the full path answers with the request's own entry.
        service._resolved[request_key] = "0" * 40
        again = service.submit(_request())
        assert again["source"] == "cache"
        assert again["key"] == first["key"] != other["key"]
        assert service._resolved[request_key] == first["key"]

    def test_distinct_requests_keep_distinct_entries(
        self, tmp_path, session_builds
    ):
        service = _service(tmp_path)
        default_batch = get_model("lenet").global_batch
        variants = {
            "absent": _request(),
            "explicit": _request(global_batch=default_batch),
            "b64": _request(global_batch=64),
            "b128": _request(global_batch=128),
        }
        first = {name: service.submit(req) for name, req in variants.items()}
        # Explicit default is the same problem: a full-path store hit.
        assert first["explicit"]["source"] == "cache"
        assert first["explicit"]["key"] == first["absent"]["key"]
        keys = {first[name]["key"] for name in ("absent", "b64", "b128")}
        assert len(keys) == 3
        assert len(service._resolved) == 4  # one per request document

        builds = len(session_builds)
        for name, request in variants.items():
            repeat = service.submit(request)
            assert repeat["source"] == "cache"
            for field in ("request", "key", "global_batch", "strategy"):
                assert repeat[field] == first[name][field]
        assert len(session_builds) == builds
        assert first["b64"]["global_batch"] == 64
        assert first["b128"]["global_batch"] == 128
        assert first["absent"]["global_batch"] == default_batch


class TestCoalescing:
    def test_identical_inflight_requests_share_one_search(self, tmp_path):
        service = _service(tmp_path)
        original_answer = service._answer
        leader_started = threading.Event()
        release = threading.Event()

        def gated_answer(document, request_key, request_id):
            leader_started.set()
            assert release.wait(30)
            return original_answer(document, request_key, request_id)

        service._answer = gated_answer
        results = []
        errors = []

        def submit():
            try:
                results.append(service.submit(_request()))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        leader = threading.Thread(target=submit)
        leader.start()
        assert leader_started.wait(30)
        follower = threading.Thread(target=submit)
        follower.start()
        # Wait until the follower is registered as coalesced, then let
        # the leader's search run.
        for _ in range(3000):
            if service.stats.coalesced:
                break
            threading.Event().wait(0.01)
        release.set()
        leader.join(60)
        follower.join(60)

        assert not errors
        assert service.stats.coalesced == 1
        assert service.stats.searches == 1  # one search served both
        assert service.stats.requests == 2  # ...for two submissions
        flags = sorted(bool(r.get("coalesced")) for r in results)
        assert flags == [False, True]
        strategies = {str(sorted(r["strategy"]["placement"].items()))
                      for r in results}
        assert len(strategies) == 1

    def test_sequential_requests_do_not_coalesce(self, tmp_path):
        service = _service(tmp_path)
        service.submit(_request())
        service.submit(_request())
        assert service.stats.coalesced == 0


class TestWarmStart:
    def test_edited_batch_warm_starts_within_envelope(self, tmp_path):
        service = _service(tmp_path)
        cold = service.submit(_request(global_batch=64))
        assert cold["source"] == "search"

        warm = service.submit(_request(global_batch=128))
        assert service.stats.warm_starts == 1
        assert warm["source"] in ("warm", "search")  # valve may fall back
        if warm["source"] == "warm":
            assert service.stats.warm_fallbacks == 0
        else:
            assert service.stats.warm_fallbacks == 1
        # Either way the answer is a valid, finite strategy.
        assert warm["makespan"] < float("inf")
        assert warm["strategy"]["placement"]
        # Warm result stays within the engine's safety envelope of the
        # (work-scaled) cold reference.
        assert warm["makespan"] <= 1.5 * cold["makespan"] * (128 / 64)

    def test_no_warm_start_across_different_search_options(self, tmp_path):
        service = _service(tmp_path)
        service.submit(_request(global_batch=64))
        other_cfg = dict(FAST_CONFIG)
        other_cfg["search"] = {"max_candidate_ops": 1}
        service.submit(_request(global_batch=128, config=other_cfg))
        assert service.stats.warm_starts == 0


class TestErrors:
    def test_unknown_model_counts_an_error(self, tmp_path):
        service = _service(tmp_path)
        with pytest.raises(KeyError):
            service.submit(_request(model="not_a_model"))
        assert service.stats.errors == 1

    def test_malformed_request(self, tmp_path):
        service = _service(tmp_path)
        with pytest.raises(RequestError):
            service.submit({"model": "lenet"})
