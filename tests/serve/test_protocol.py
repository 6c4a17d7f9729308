"""The JSON-lines front-end and the deadline contract, over a real socket.

* an over-long protocol line gets a typed error reply, then the
  connection closes cleanly (the stream is no longer aligned to lines);
* a message that is valid JSON but not an object gets a typed error;
* ``submit`` and the front-end read ``timeout`` through one parser and
  return the same typed error for the same bad value;
* the front-end's backstop timeout is counted in ``stats.timeouts``;
* the HTTP listener answers an over-long request or header line with a
  ``431`` and closes, instead of dropping the connection.
"""

import asyncio
import json
import logging
import socket
import threading

import pytest

from repro.serve import (
    Client,
    RequestError,
    ServiceTimeout,
    StrategyService,
    StrategyStore,
    serve_forever,
)
from repro.serve import service as service_module
from repro.serve.service import LINE_LIMIT, request_deadline

FAST_CONFIG = {
    "profiling_steps": 1, "max_rounds": 2, "min_rounds": 1,
    "measure_steps": 1, "search": {"max_candidate_ops": 2},
}

BAD_TIMEOUTS = [-5, 0, "nan", "inf", "abc", True, [1]]


def _service(tmp_path, **kwargs):
    store = StrategyStore(root=str(tmp_path / "strategies"), capacity=16)
    return StrategyService(store=store, **kwargs)


def _request(**overrides):
    request = {"model": "lenet", "topology": "pcie:2", "config": FAST_CONFIG}
    request.update(overrides)
    return request


class _Server:
    """serve_forever on a background thread."""

    def __init__(self, service, metrics=False):
        self.service = service
        self.addr = None
        self.metrics_addr = None
        self._metrics = metrics
        self._ready = threading.Event()
        self._metrics_ready = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(serve_forever(
            self.service, "127.0.0.1", 0, ready=self._on_ready,
            metrics_port=0 if self._metrics else None,
            metrics_ready=self._on_metrics_ready,
        ))

    def _on_ready(self, host, port):
        self.addr = (host, port)
        self._ready.set()

    def _on_metrics_ready(self, host, port):
        self.metrics_addr = (host, port)
        self._metrics_ready.set()

    def __enter__(self):
        self.thread.start()
        assert self._ready.wait(30)
        if self._metrics:
            assert self._metrics_ready.wait(30)
        return self

    def __exit__(self, *exc):
        try:
            with Client(*self.addr) as client:
                client.shutdown()
        except OSError:
            pass
        self.thread.join(30)

    def connect(self):
        sock = socket.create_connection(self.addr, timeout=30)
        return sock, sock.makefile("rwb")

    def call(self, handle, payload: bytes):
        handle.write(payload + b"\n")
        handle.flush()
        return json.loads(handle.readline())


@pytest.fixture
def server(tmp_path):
    with _Server(_service(tmp_path)) as srv:
        yield srv


class TestLineLimit:
    def test_over_long_line_gets_an_error_reply_and_a_clean_close(
        self, server, caplog
    ):
        padding = "x" * 70_000
        line = json.dumps({"op": "ping", "pad": padding}).encode()
        assert len(line) > LINE_LIMIT
        sock, handle = server.connect()
        try:
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                sock.sendall(line + b"\n")
                response = json.loads(handle.readline())
                try:
                    rest = handle.readline()
                except ConnectionResetError:
                    rest = b""
        finally:
            handle.close()
            sock.close()
        assert response["status"] == "error"
        assert f"{LINE_LIMIT}-byte line limit" in response["error"]
        assert rest == b""  # the server closed the connection
        assert not [r for r in caplog.records if "Unhandled" in r.getMessage()]
        # The server itself keeps serving.
        with Client(*server.addr) as client:
            assert client.ping()

    def test_line_just_under_the_limit_is_served(self, server):
        base = json.dumps({"op": "ping", "pad": ""}).encode()
        pad = "x" * (LINE_LIMIT - len(base) - 1)
        sock, handle = server.connect()
        try:
            response = server.call(
                handle, json.dumps({"op": "ping", "pad": pad}).encode()
            )
        finally:
            handle.close()
            sock.close()
        assert response == {"status": "ok", "pong": True}


class TestNonObjectMessage:
    @pytest.mark.parametrize("payload", [b"[1, 2]", b'"hello"', b"42"])
    def test_typed_error_and_connection_stays_usable(self, server, payload):
        sock, handle = server.connect()
        try:
            response = server.call(handle, payload)
            assert response == {
                "status": "error", "error": "message must be a JSON object",
            }
            assert server.call(handle, b'{"op": "ping"}')["pong"] is True
        finally:
            handle.close()
            sock.close()


class TestDeadlineParser:
    def test_absent_or_null_means_the_default(self):
        assert request_deadline({}, None) is None
        assert request_deadline({"timeout": None}, 7.5) == 7.5
        assert request_deadline(["not", "a", "dict"], 3.0) == 3.0

    @pytest.mark.parametrize("value", [0.25, 5, "2.5"])
    def test_finite_positive_values_pass(self, value):
        assert request_deadline({"timeout": value}, None) == float(value)

    @pytest.mark.parametrize("value", BAD_TIMEOUTS)
    def test_bad_values_raise(self, value):
        with pytest.raises(RequestError, match="finite number of seconds"):
            request_deadline({"timeout": value}, None)

    @pytest.mark.parametrize("value", BAD_TIMEOUTS)
    def test_submit_and_socket_give_the_same_error(self, server, value):
        service = server.service
        with pytest.raises(RequestError) as excinfo:
            service.submit(_request(timeout=value))
        sock, handle = server.connect()
        try:
            response = server.call(handle, json.dumps({
                "op": "optimize", "request": _request(timeout=value),
            }).encode())
        finally:
            handle.close()
            sock.close()
        assert response == {"status": "error", "error": str(excinfo.value)}
        # Rejected before any work: nothing was searched or counted.
        assert service.stats.searches == 0
        assert service.stats.requests == 0


class TestBackstopTimeout:
    def test_backstop_timeout_is_counted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(service_module, "_BACKSTOP_GRACE", 0.0)
        service = _service(tmp_path)
        original_answer = service._answer
        release = threading.Event()

        def gated_answer(document, request_key, request_id):
            assert release.wait(30)
            return original_answer(document, request_key, request_id)

        service._answer = gated_answer
        with _Server(service) as srv:
            try:
                with Client(*srv.addr) as client:
                    with pytest.raises(ServiceTimeout):
                        client.optimize(
                            "lenet", "pcie:2", config=FAST_CONFIG,
                            timeout=0.2,
                        )
                    stats = client.stats()["stats"]
                    exposition = client.metrics()
            finally:
                release.set()
            assert stats["timeouts"] == 1
            assert "repro_serve_timeouts_total 1" in exposition.splitlines()
            # The wedged leader still finishes once released.
            for _ in range(3000):
                if service.stats.searches and not service._inflight:
                    break
                threading.Event().wait(0.01)
            assert service.stats.searches == 1


class TestHttpLineLimit:
    """The scrape listener reads with the same 64 KiB stream limit."""

    def _scrape(self, addr, request: bytes) -> bytes:
        sock = socket.create_connection(addr, timeout=30)
        try:
            sock.sendall(request)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        finally:
            sock.close()
        return b"".join(chunks)

    @pytest.mark.parametrize("where", ["request-line", "header-line"])
    def test_over_long_line_gets_a_431_and_a_close(
        self, tmp_path, caplog, where
    ):
        # Well past the 64 KiB limit, so bytes are still unread when the
        # listener answers: it must drain them rather than reset.
        pad = b"x" * 300_000
        if where == "request-line":
            request = b"GET /" + pad + b" HTTP/1.0\r\n\r\n"
        else:
            request = b"GET /metrics HTTP/1.0\r\nX-Pad: " + pad + b"\r\n\r\n"
        with _Server(_service(tmp_path), metrics=True) as srv:
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                reply = self._scrape(srv.metrics_addr, request)
            status_line = reply.split(b"\r\n", 1)[0]
            assert status_line == b"HTTP/1.0 431 Request Header Fields Too Large"
            assert not [
                r for r in caplog.records if "Unhandled" in r.getMessage()
            ]
            # The listener keeps serving.
            ok = self._scrape(srv.metrics_addr, b"GET /healthz HTTP/1.0\r\n\r\n")
            assert ok.startswith(b"HTTP/1.0 200 OK")
