"""HTTP front end: endpoints, error mapping, npy bodies, graceful drain-then-stop."""

from __future__ import annotations

import http.client
import io
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.errors import ServerClosedError
from repro.serve import (
    BatcherConfig,
    ModelRegistry,
    ModelServer,
    PredictClient,
    ServeHTTPError,
    ServerConfig,
)

from tests.serve.conftest import build_small_network, sample_images


@pytest.fixture()
def server():
    registry = ModelRegistry(BatcherConfig(max_batch_size=8, max_wait_s=0.002))
    registry.register("net4", build_small_network(4))
    srv = ModelServer(registry, ServerConfig(port=0, request_timeout_s=15.0))
    srv.start()
    yield srv
    srv.stop()


def _post_raw(url: str, body: bytes, content_type: str = "application/json", query: str = ""):
    req = urllib.request.Request(
        f"{url}/v1/predict{query}", data=body, headers={"Content-Type": content_type},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=15) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestEndpoints:
    def test_healthz(self, server):
        health = PredictClient(server.url).healthz()
        assert health == {"status": "ok", "models": ["net4"]}

    def test_index_lists_endpoints(self, server):
        with urllib.request.urlopen(f"{server.url}/", timeout=15) as resp:
            payload = json.loads(resp.read())
        assert "POST /v1/predict" in payload["endpoints"]

    def test_predict_single_exact(self, server):
        images = sample_images(3, seed=30)
        serial = server.registry.get("net4").engine.predict_logits(images)
        result = PredictClient(server.url).predict(images[1], model="net4")
        np.testing.assert_array_equal(result.logits, serial[1])
        assert result.predictions == int(np.argmax(serial[1]))

    def test_predict_without_model_name_single_registration(self, server):
        images = sample_images(1, seed=31)
        serial = server.registry.get("net4").engine.predict_logits(images)
        result = PredictClient(server.url).predict(images[0])
        np.testing.assert_array_equal(result.logits, serial[0])

    def test_predict_batch(self, server):
        images = sample_images(5, seed=32)
        serial = server.registry.get("net4").engine.predict_logits(images)
        result = PredictClient(server.url).predict_batch(images)
        np.testing.assert_array_equal(result.logits, serial)
        assert result.predictions == [int(v) for v in np.argmax(serial, axis=1)]

    def test_metrics_endpoint(self, server):
        client = PredictClient(server.url)
        client.predict(sample_images(1)[0])
        snap = client.metrics()
        assert snap["server"]["http_requests"] >= 1
        assert snap["models"]["net4"]["requests"]["completed"] >= 1


def _npy(array, allow_pickle: bool = False) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=allow_pickle)
    return buf.getvalue()


def _npz() -> bytes:
    buf = io.BytesIO()
    np.savez(buf, image=np.zeros((3, 16, 16)))
    return buf.getvalue()


_NPY = "application/x-npy"
_UNPICKLED = threading.Event()


def _trip() -> None:
    _UNPICKLED.set()


class _Tripwire:
    """Unpickling this object sets :data:`_UNPICKLED`."""

    def __reduce__(self):
        return _trip, ()


class TestTransport:
    def test_keepalive_round_trip_does_not_stall(self, server):
        # With Nagle on, each response body waits for the client's delayed
        # ACK (~40 ms on Linux); with TCP_NODELAY it is well under 1 ms.
        client = PredictClient(server.url)
        times = []
        for _ in range(20):
            t0 = time.perf_counter()
            client.healthz()
            times.append(time.perf_counter() - t0)
        client.close()
        assert statistics.median(times) < 0.020, f"median {statistics.median(times) * 1e3:.1f} ms"

    @pytest.mark.parametrize(
        "content_type", ["application/json", "application/x-www-form-urlencoded"]
    )
    def test_json_body_exact(self, server, content_type):
        # curl -d sends x-www-form-urlencoded: anything but npy is JSON.
        images = sample_images(2, seed=35)
        serial = server.registry.get("net4").engine.predict_logits(images)
        body = json.dumps({"image": images[1].tolist(), "model": "net4"}).encode()
        status, payload = _post_raw(server.url, body, content_type)
        assert status == 200
        assert np.asarray(payload["logits"]).tobytes() == serial[1].tobytes()
        assert payload["prediction"] == int(np.argmax(serial[1]))


class TestNpyBodies:
    def test_single_image_exact(self, server):
        images = sample_images(3, seed=36)
        serial = server.registry.get("net4").engine.predict_logits(images)
        status, payload = _post_raw(server.url, _npy(images[2]), _NPY)
        assert status == 200
        assert payload["model"] == "net4"
        assert np.asarray(payload["logits"]).tobytes() == serial[2].tobytes()
        assert payload["prediction"] == int(np.argmax(serial[2]))

    def test_batch_exact(self, server):
        images = sample_images(4, seed=37)
        serial = server.registry.get("net4").engine.predict_logits(images)
        status, payload = _post_raw(server.url, _npy(np.stack(images)), _NPY)
        assert status == 200
        assert np.asarray(payload["logits"]).tobytes() == serial.tobytes()
        assert payload["predictions"] == [int(v) for v in np.argmax(serial, axis=1)]

    def test_float32_body_is_widened(self, server):
        image = sample_images(1, seed=38)[0].astype(np.float32)
        serial = server.registry.get("net4").engine.predict_logits(
            image.astype(np.float64)[None]
        )
        status, payload = _post_raw(server.url, _npy(image), _NPY)
        assert status == 200
        assert np.asarray(payload["logits"]).tobytes() == serial[0].tobytes()

    def test_query_parameters_honoured(self, server):
        body = _npy(sample_images(1, seed=39)[0])
        status, payload = _post_raw(server.url, body, _NPY, "?model=net4&deadline_ms=5000")
        assert status == 200 and payload["model"] == "net4"
        status, payload = _post_raw(server.url, body, _NPY, "?model=resnet999")
        assert status == 404 and "resnet999" in payload["error"]
        for bad in ("-5", "soon"):
            status, payload = _post_raw(server.url, body, _NPY, f"?deadline_ms={bad}")
            assert status == 400 and "deadline_ms" in payload["error"]

    @pytest.mark.parametrize(
        "body",
        [
            pytest.param(_npy(np.zeros((3, 16, 16)))[:-100], id="truncated"),
            pytest.param(b"not an npy body", id="garbage"),
            pytest.param(_npy(np.zeros((16, 16))), id="2d"),
            pytest.param(_npy(np.zeros((1, 1, 3, 16, 16))), id="5d"),
            pytest.param(_npy(np.full((3, 2, 2), "x")), id="string-dtype"),
            pytest.param(_npz(), id="npz-archive"),
        ],
    )
    def test_bad_bodies_400(self, server, body):
        status, payload = _post_raw(server.url, body, _NPY)
        assert status == 400, payload

    def test_object_array_rejected_without_unpickling(self, server):
        _UNPICKLED.clear()
        body = _npy(np.array([_Tripwire()] * 3, dtype=object).reshape(3, 1, 1), allow_pickle=True)
        status, payload = _post_raw(server.url, body, _NPY)
        assert not _UNPICKLED.is_set()
        assert status == 400 and "pickle" in payload["error"].lower()

    def test_oversized_content_length_413(self, server):
        from repro.serve.http import _MAX_BODY_BYTES

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=15)
        try:
            conn.putrequest("POST", "/v1/predict")
            conn.putheader("Content-Type", _NPY)
            conn.putheader("Content-Length", str(_MAX_BODY_BYTES + 1))
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 413
            json.loads(resp.read())
        finally:
            conn.close()

    def test_client_batch_must_stack_to_nchw(self, server):
        client = PredictClient(server.url)
        with pytest.raises(ValueError):
            client.predict_batch([np.zeros((16, 16))] * 2)
        with pytest.raises(ValueError):
            client.predict(np.zeros((1, 3, 16, 16)))


class TestErrorMapping:
    def test_unknown_path_404(self, server):
        with pytest.raises(ServeHTTPError) as err:
            PredictClient(server.url)._request("/v1/nope", {"x": 1})
        assert err.value.status == 404

    def test_unknown_model_404(self, server):
        with pytest.raises(ServeHTTPError) as err:
            PredictClient(server.url).predict(sample_images(1)[0], model="resnet999")
        assert err.value.status == 404
        assert "resnet999" in str(err.value)

    def test_invalid_json_400(self, server):
        status, payload = _post_raw(server.url, b"{not json")
        assert status == 400 and "JSON" in payload["error"]

    def test_non_object_body_400(self, server):
        status, payload = _post_raw(server.url, b"[1, 2, 3]")
        assert status == 400

    def test_missing_image_key_400(self, server):
        status, payload = _post_raw(server.url, b'{"model": "net4"}')
        assert status == 400 and "image" in payload["error"]

    def test_both_image_keys_400(self, server):
        status, _ = _post_raw(server.url, b'{"image": [], "images": []}')
        assert status == 400

    def test_bad_image_shape_400(self, server):
        with pytest.raises(ServeHTTPError) as err:
            PredictClient(server.url).predict(np.zeros((16, 16)))  # 2-D, not CHW
        assert err.value.status == 400

    def test_declared_shape_is_pinned_before_the_first_image(self):
        """A model that declares its input shape serves only that shape from
        the start: a wrong first image (4 channels on net 2) is a 400 and
        cannot lock out the right shape after it."""
        registry = ModelRegistry()
        entry = registry.register("net2", build_small_network(2))
        with ModelServer(registry, ServerConfig(port=0)) as srv:
            client = PredictClient(srv.url)
            image = sample_images(1, seed=8)[0]
            with pytest.raises(ServeHTTPError) as err:
                client.predict(np.concatenate([image, image[:1]]))
            assert err.value.status == 400
            result = client.predict(image)
        expected = entry.engine.predict_logits(image[None])[0]
        np.testing.assert_array_equal(result.logits, expected)

    def test_ragged_image_400(self, server):
        status, _ = _post_raw(server.url, b'{"image": [[1, 2], [3]]}')
        assert status == 400

    def test_bad_deadline_400(self, server):
        status, _ = _post_raw(
            server.url,
            json.dumps({"image": sample_images(1)[0].tolist(), "deadline_ms": -5}).encode(),
        )
        assert status == 400

    def test_queue_full_maps_to_503_with_shed_flag(self):
        registry = ModelRegistry(BatcherConfig(queue_depth=1))
        entry = registry.register("net4", build_small_network(4))
        with ModelServer(registry, ServerConfig(port=0)) as srv:
            entry.batcher.pause()  # wedge the queue deterministically
            client = PredictClient(srv.url)
            image = sample_images(1)[0]
            ok_future_started = threading.Event()
            errors: "list[ServeHTTPError]" = []

            def first():
                ok_future_started.set()
                client.predict(image)  # occupies the single queue slot

            t = threading.Thread(target=first)
            t.start()
            ok_future_started.wait(5)
            # Wait until the first request actually occupies the queue.
            for _ in range(200):
                if entry.batcher.queue_depth >= 1:
                    break
                time.sleep(0.005)
            try:
                client.predict(image)
            except ServeHTTPError as exc:
                errors.append(exc)
            entry.batcher.resume()
            t.join(10)
            assert errors and errors[0].status == 503 and errors[0].shed
        assert entry.metrics.shed.value == 1


class TestGracefulShutdown:
    def test_stop_drains_inflight_http_requests(self):
        """stop() lets queued work finish and handlers answer — the HTTP
        half of the no-dropped-futures acceptance criterion."""
        registry = ModelRegistry(BatcherConfig(max_batch_size=4))
        entry = registry.register("net4", build_small_network(4))
        srv = ModelServer(registry, ServerConfig(port=0, request_timeout_s=15.0)).start()
        client = PredictClient(srv.url)
        images = sample_images(6, seed=33)
        serial = entry.engine.predict_logits(images)
        entry.batcher.pause()  # requests queue up; handlers block on futures
        results: "dict[int, np.ndarray]" = {}
        failures: "list[Exception]" = []

        def call(i: int):
            try:
                results[i] = client.predict(images[i]).logits
            except Exception as exc:  # pragma: no cover - failure diagnostics
                failures.append(exc)

        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(images))]
        for t in threads:
            t.start()
        # Wait until every request is queued behind the paused batcher.
        for _ in range(600):
            if entry.batcher.queue_depth == len(images):
                break
            time.sleep(0.005)
        srv.stop(drain=True)  # drain overrides pause; all six must answer
        for t in threads:
            t.join(15)
        assert not failures, failures
        assert sorted(results) == list(range(len(images)))
        for i, logits in results.items():
            np.testing.assert_array_equal(logits, serial[i])
        assert entry.metrics.completed.value == len(images)
        assert entry.metrics.cancelled.value == 0

    def test_port_after_stop_raises(self):
        registry = ModelRegistry()
        registry.register("net4", build_small_network(4))
        srv = ModelServer(registry, ServerConfig(port=0)).start()
        srv.stop()
        with pytest.raises(ServerClosedError):
            srv.port

    def test_stop_idempotent_and_context_manager(self):
        registry = ModelRegistry()
        registry.register("net4", build_small_network(4))
        with ModelServer(registry, ServerConfig(port=0)) as srv:
            assert srv.running
        srv.stop()  # second stop is a no-op
        assert not srv.running


class TestDrainDeadline:
    """``stop(drain=True)`` is bounded by ONE ``drain_timeout_s`` deadline
    shared across every shutdown stage — a wedged handler thread cannot
    stretch it to the sum of per-stage timeouts — and hitting it is
    surfaced as the ``drain_timed_out`` counter in ``/metrics``."""

    def _wedge_handler(self, srv) -> "socket.socket":
        """Open a raw connection whose handler blocks forever: the request
        advertises a body that never arrives, so the handler thread sits in
        ``rfile.read`` until the socket dies — a faithful wedged handler."""
        sock = socket.create_connection(("127.0.0.1", srv.port), timeout=30)
        sock.sendall(
            b"POST /v1/predict HTTP/1.1\r\n"
            b"Host: localhost\r\nContent-Type: application/json\r\n"
            b"Content-Length: 1000\r\n\r\n{"
        )
        time.sleep(0.2)  # let the handler thread pick the request up
        return sock

    def test_wedged_handler_cannot_stretch_stop_and_is_counted(self):
        registry = ModelRegistry()
        registry.register("net4", build_small_network(4))
        srv = ModelServer(
            registry, ServerConfig(port=0, drain_timeout_s=1.0)
        ).start()
        assert srv.drain_timed_out.value == 0
        sock = self._wedge_handler(srv)
        try:
            start = time.monotonic()
            srv.stop(drain=True)
            elapsed = time.monotonic() - start
            # one shared deadline: registry drain + handler wait + thread
            # join together stay near drain_timeout_s, not a multiple of it
            assert elapsed < 1.9, f"stop took {elapsed:.2f}s against a 1.0s drain budget"
            assert srv.drain_timed_out.value == 1
        finally:
            sock.close()

    def test_clean_drain_does_not_count_a_timeout(self):
        registry = ModelRegistry()
        registry.register("net4", build_small_network(4))
        srv = ModelServer(registry, ServerConfig(port=0, drain_timeout_s=5.0)).start()
        client = PredictClient(srv.url)
        client.predict(sample_images(1, seed=34)[0])
        client.close()
        start = time.monotonic()
        srv.stop(drain=True)
        assert time.monotonic() - start < 2.0  # idle server: no budget burned
        assert srv.drain_timed_out.value == 0

    def test_drain_timed_out_is_surfaced_in_metrics(self):
        registry = ModelRegistry()
        registry.register("net4", build_small_network(4))
        with ModelServer(registry, ServerConfig(port=0)) as srv:
            client = PredictClient(srv.url)
            assert client.metrics()["server"]["drain_timed_out"] == 0
            client.close()
