"""Traffic-serving layer over the compiled inference engine.

Turns :class:`~repro.infer.engine.InferenceEngine` into a concurrent model
server: one admission queue type — a bounded FIFO request queue that sheds
at its high-water mark, with deadlines and drain (:mod:`repro.serve.queue`)
— under a dynamic micro-batcher (:mod:`repro.serve.batcher`), a multi-model
registry with hot weight refreshes (:mod:`repro.serve.registry`), a
stdlib-only HTTP front end with drain-then-stop shutdown
(:mod:`repro.serve.http`), a serving metrics core with latency percentiles
(:mod:`repro.serve.metrics`), and a supervised multi-process cluster tier —
crash-isolated workers over a shared-memory plan behind the same queue
type and registry base, with heartbeats, request retries and circuit
breaking (:mod:`repro.serve.cluster`).

Quickstart::

    from repro.serve import BatcherConfig, ModelRegistry, ModelServer, ServerConfig

    registry = ModelRegistry(BatcherConfig(max_batch_size=32, max_wait_s=0.002))
    registry.register("net4", trained_model)
    with ModelServer(registry, ServerConfig(port=8080)) as server:
        ...  # POST /v1/predict, GET /healthz, GET /metrics
"""

from repro.serve.batcher import MicroBatcher
from repro.serve.client import PredictClient, PredictResult, ServeHTTPError
from repro.serve.cluster import ClusterConfig, ClusterService
from repro.serve.config import BatcherConfig, ServerConfig
from repro.serve.http import ModelServer
from repro.serve.metrics import ClusterMetrics, LatencyReservoir, ServerMetrics, percentile
from repro.serve.registry import ModelRegistry, ServingModel

__all__ = [
    "BatcherConfig",
    "ServerConfig",
    "ClusterConfig",
    "ClusterService",
    "MicroBatcher",
    "ModelRegistry",
    "ServingModel",
    "ModelServer",
    "ServerMetrics",
    "ClusterMetrics",
    "LatencyReservoir",
    "percentile",
    "PredictClient",
    "PredictResult",
    "ServeHTTPError",
]
