"""Tier-1 integration tests for the supervised multi-process serving tier.

Every test runs a real worker pool (fork start method) against the scaled
Table-1 config-4 network and holds the cluster to the engine's bitwise
standard: logits through shared-memory plans and worker processes must
equal the in-process plan exactly.  The fault-injection drills live in
``test_cluster_chaos.py`` (``chaos`` marker, excluded from tier-1).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, ServerClosedError, UnknownModelError
from repro.infer import InferenceEngine
from repro.infer.plan import PlanConfig
from repro.serve import ClusterConfig, ClusterService, ModelServer, ServerConfig
from repro.serve.client import PredictClient, ServeHTTPError

from tests.serve.conftest import build_small_network, sample_images

FAST = dict(heartbeat_interval_s=0.05, restart_backoff_base_s=0.01, dispatch_wait_s=0.02)


@pytest.fixture()
def cluster():
    """A started 2-worker ClusterService serving net4; stopped on teardown."""
    model = build_small_network(4)
    service = ClusterService(ClusterConfig(workers=2, **FAST))
    entry = service.register("net4", model)
    service.start()
    yield service, entry, model
    service.stop(timeout=10.0)


def _resolve(futures, timeout=15):
    return np.stack([f.result(timeout=timeout) for f in futures])


@pytest.mark.timeout(90)
class TestClusterRoundTrip:
    def test_predictions_bitwise_match_in_process_engine(self, cluster):
        service, entry, model = cluster
        images = sample_images(6, seed=11)
        expected = entry.engine.predict_logits(images)
        got = _resolve([service.submit(img) for img in images])
        np.testing.assert_array_equal(got, expected)


@pytest.mark.timeout(90)
class TestHotRefresh:
    def test_refresh_propagates_new_weights_to_every_worker(self, cluster):
        service, entry, model = cluster
        images = sample_images(4, seed=21)
        before = _resolve([service.submit(img) for img in images])
        np.testing.assert_array_equal(before, entry.engine.predict_logits(images))

        for p in model.parameters():
            p.data *= 1.01
        assert service.refresh("net4") > 0
        after = _resolve([service.submit(img) for img in images])
        np.testing.assert_array_equal(after, entry.engine.predict_logits(images))
        assert not np.array_equal(before, after)
        assert service.metrics_snapshot()["net4"]["cluster"]["generation"] == 2

    def test_queued_requests_survive_a_refresh(self, cluster):
        """pause → drain → republish never drops admitted requests."""
        service, entry, model = cluster
        images = sample_images(8, seed=22)
        futures = [service.submit(img) for img in images]
        service.refresh("net4")
        got = _resolve(futures)
        # every request saw a complete generation, old or new, never a mix
        old = entry.engine.predict_logits(images)  # refresh with unchanged weights
        np.testing.assert_array_equal(got, old)


class TestRegistrySurface:
    """ClusterService must duck-type ModelRegistry for the HTTP layer."""

    def test_lookup_and_errors_match_registry_semantics(self):
        service = ClusterService(ClusterConfig(workers=1, **FAST))
        entry = service.register("net2", build_small_network(2))
        assert service.get("net2") is entry is service.get(None)
        assert service.names() == ["net2"] and "net2" in service and len(service) == 1
        with pytest.raises(UnknownModelError, match="known models"):
            service.get("nope")
        with pytest.raises(ConfigurationError, match="already registered"):
            service.register("net2", build_small_network(2))
        with pytest.raises(ConfigurationError, match="exactly one"):
            service.register("net3")
        with pytest.raises(ConfigurationError, match="one InferenceEngine"):
            service.register("net3", engines={"primary": service.get("net2").engine})
        service.stop()  # never started: must still shut down cleanly

    def test_metrics_snapshot_carries_cluster_gauges(self):
        service = ClusterService(ClusterConfig(workers=1, **FAST))
        service.register("net2", build_small_network(2))
        snap = service.metrics_snapshot()["net2"]
        cluster = snap["cluster"]
        assert cluster["generation"] == 1
        assert cluster["breaker"]["state"] == "closed"
        assert snap["workers_lifecycle"] == {"deaths": 0, "restarts": 0, "redispatched": 0}
        assert "plan" in snap
        service.stop()


@pytest.mark.timeout(120)
class TestHTTPFrontEnd:
    """ModelServer speaks the same wire protocol over a cluster backend."""

    @pytest.fixture()
    def server(self):
        model = build_small_network(4)
        service = ClusterService(ClusterConfig(workers=2, **FAST))
        service.register("net4", model)
        server = ModelServer(service, ServerConfig(port=0)).start()
        client = PredictClient(f"http://127.0.0.1:{server.port}", timeout_s=30)
        yield server, client, service
        client.close()
        server.stop()

    def test_predict_and_metrics_over_http(self, server):
        _, client, service = server
        image = sample_images(1, seed=41)[0]
        expected = service.get("net4").engine.predict_logits(image[None])[0]
        result = client.predict(image)
        np.testing.assert_array_equal(result.logits, expected)
        assert result.predictions == int(np.argmax(expected))
        metrics = client.metrics()
        cluster = metrics["models"]["net4"]["cluster"]
        assert cluster["breaker"]["state"] == "closed"
        assert cluster["supervisor"]["alive"] == 2
        assert "drain_timed_out" in metrics["server"]

    def test_bad_images_are_400_before_any_worker_sees_them(self, server):
        """A non-CHW image, or one unlike the shape the model declares, is
        refused at submit — a 400, not a worker failure — and
        offered == accepted + shed holds, through stop() as well."""
        http, client, service = server
        image = sample_images(1, seed=44)[0]
        client.predict(image)
        for bad in (image[0], np.concatenate([image, image[:1]])):  # 2-D; 4 channels
            with pytest.raises(ServeHTTPError) as info:
                client._request("/v1/predict", {"image": bad.tolist()})
            assert info.value.status == 400
        http.stop()
        with pytest.raises(ServerClosedError):
            service.submit(image)
        requests = service.metrics_snapshot()["net4"]["requests"]
        assert requests["failed"] == 0
        assert requests["offered"] == requests["accepted"] + requests["shed"] == 2


@pytest.mark.timeout(90)
def test_declared_shape_is_pinned_before_the_first_image():
    """Through the cluster's HTTP front end too, a model that declares its
    input shape serves only that shape from the start: a wrong first image
    (4 channels on net 2) is a 400 and a right one after it is served."""
    service = ClusterService(ClusterConfig(workers=1, **FAST))
    entry = service.register("net2", build_small_network(2))
    with ModelServer(service, ServerConfig(port=0)) as server:
        client = PredictClient(server.url, timeout_s=30)
        image = sample_images(1, seed=45)[0]
        with pytest.raises(ServeHTTPError) as info:
            client.predict(np.concatenate([image, image[:1]]))
        assert info.value.status == 400
        result = client.predict(image)
        client.close()
    np.testing.assert_array_equal(result.logits, entry.engine.predict_logits(image[None])[0])
    assert service.metrics_snapshot()["net2"]["requests"]["failed"] == 0


@pytest.mark.timeout(90)
def test_int8_engine_runs_in_a_worker():
    """An int8-only engine: the worker runs the plan's traced integer
    program and returns the engine's bytes."""
    engine = InferenceEngine(build_small_network(4), config=PlanConfig(dtype="int8"))
    service = ClusterService(ClusterConfig(workers=1, **FAST))
    service.register("net4-int8", engines=engine)
    service.start()
    try:
        images = sample_images(3, seed=33)
        got = _resolve([service.submit(img) for img in images])
        want = engine.predict_logits(images)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    finally:
        service.stop()
