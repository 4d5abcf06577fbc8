"""Serving a FLightNN over HTTP with dynamic micro-batching.

Starts a :class:`~repro.serve.ModelServer` on a Table-1 config-4 network,
fires concurrent single-image requests from closed-loop client threads (the
micro-batcher coalesces them into engine-sized batches), demonstrates
explicit load shedding and a hot weight refresh, and prints the server's
own latency/batch metrics at the end.

Run:
    PYTHONPATH=src python examples/serving.py

While it runs the server is plain HTTP — from another shell you could:
    curl http://127.0.0.1:<port>/healthz
"""

from __future__ import annotations

import threading

import numpy as np

from repro.models import build_network
from repro.quant import scheme_flightnn
from repro.serve import (
    BatcherConfig,
    ModelRegistry,
    ModelServer,
    PredictClient,
    ServeHTTPError,
    ServerConfig,
)
from repro.utils.logging import configure

CLIENTS = 8
REQUESTS_PER_CLIENT = 12
IMAGE_SIZE = 16


def main() -> None:
    configure()  # INFO-level server lifecycle logs on stderr

    # 1. A trained-looking model -> registry with a warm compiled plan.
    model = build_network(
        4,
        scheme_flightnn((0.0, 0.01), label="FL"),
        num_classes=10,
        image_size=IMAGE_SIZE,
        width_scale=0.5,
        rng=0,
    )
    model.eval()
    registry = ModelRegistry(
        BatcherConfig(max_batch_size=16, max_wait_s=0.002, queue_depth=64)
    )
    registry.register("net4", model)

    rng = np.random.default_rng(0)
    images = rng.normal(0.0, 1.0, (32, 3, IMAGE_SIZE, IMAGE_SIZE))

    with ModelServer(registry, ServerConfig(port=0)) as server:
        print(f"serving at {server.url}  (try: curl {server.url}/healthz)")
        client = PredictClient(server.url)
        print(f"healthz: {client.healthz()}")

        # 2. Concurrent closed-loop clients; the batcher coalesces their
        #    single-image requests into shared engine batches.
        def run_client(cid: int) -> None:
            for j in range(REQUESTS_PER_CLIENT):
                try:
                    result = client.predict(images[(cid + j) % len(images)])
                    if j == 0:
                        print(f"client {cid}: first prediction = {result.predictions}")
                except ServeHTTPError as exc:
                    print(f"client {cid}: shed={exc.shed} ({exc})")

        threads = [threading.Thread(target=run_client, args=(c,)) for c in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # 3. Hot weight update: mutate in place, then refresh (recompile).
        #    In-flight requests finish on the old plan; later ones see new.
        first_conv = next(p for p in model.parameters() if p.data.ndim == 4)
        first_conv.data[...] *= 1.01
        stale = registry.refresh("net4")
        print(f"hot refresh recompiled the plan for {stale} stale layer(s)")
        print(f"post-refresh prediction: {client.predict(images[0]).predictions}")

        # 4. The server's own view of the run.
        snapshot = client.metrics()["models"]["net4"]
        req, lat = snapshot["requests"], snapshot["latency_s"]
        print(
            f"served {req['completed']} requests "
            f"(offered={req['offered']}, shed={req['shed']}) in "
            f"{snapshot['batches']['count']} batches "
            f"(mean size {snapshot['batches']['mean_size']:.1f})"
        )
        print(
            f"latency p50={lat['p50'] * 1e3:.2f}ms "
            f"p95={lat['p95'] * 1e3:.2f}ms p99={lat['p99'] * 1e3:.2f}ms"
        )
    print("server drained and stopped")


if __name__ == "__main__":
    main()
