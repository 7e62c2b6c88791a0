"""``repro-serve``: the prediction-as-a-service HTTP tier.

A stdlib-only model server (precedent: the bundled
:mod:`repro.datasets.object_server`) that turns published
``models/<series>-<plan_fp>.npz`` artifacts into a long-lived prediction
endpoint.  Models are loaded lazily from any
:class:`~repro.datasets.backends.StoreBackend` locator — a local store
directory, ``memory://`` or the bundled HTTP object store — decoded once
through :mod:`repro.serving.model_io`, and kept as read-only arenas in
memory, shared by every request thread without locking.

Endpoints (all JSON):

* ``GET /healthz`` — liveness: ``{"status": "ok", ...}``;
* ``GET /stats`` — request/prediction/batching/failure counters;
* ``GET /models`` — models loaded in memory and available in the store;
* ``POST /predict`` — ``{"plan": <fp>, "series": <label>, "rows": [[...]]}``
  → ``{"predictions": [...]}``;
* ``POST /recommend`` — same body; predicts every posted configuration row
  and answers the argmin: ``{"index": i, "row": [...], "predicted": t}``.

Failure semantics: malformed requests answer 400, an unpublished model
404, a model blob that fails checksum verification or cannot be decoded
answers **503** (the store counts the integrity failure, the corrupt
blob is discarded, and the next publish repairs the key — the server
never crashes on a bad artifact), unexpected errors answer 500.

Concurrent ``/predict`` requests for the same model are **micro-batched**:
while one vectorized :meth:`~repro.serving.model_io.ServedModel.predict_rows`
pass is in flight, arriving requests queue up and the next pass serves
all of them in a single concatenated descent.  Batching never waits — a
lone request is served immediately, a queued one as soon as the pass
ahead of it ends — and never changes values: every
prediction is computed row-wise, so a row's result is independent of
whatever rows share its batch.

Run it standalone::

    repro-serve --store-url http://127.0.0.1:8123/
    python -m repro.serving.server --store-url file:///srv/repro-store --port 8200

Like the object server it is built on the shared
:class:`~repro.obs.http.ReproHTTPServer` base: pass ``--auth-key-file``
(or construct with ``auth=<key bytes>``) and every request except
``GET /healthz`` must carry a valid ``Authorization: Repro-HMAC``
header; a non-loopback ``--bind`` without a key is a startup error
unless ``--insecure``.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading

import numpy as np

from repro.cli import (
    add_auth_args,
    add_bind_args,
    add_logging_parent,
    add_store_args,
    check_bind_safety,
    load_auth_key,
)
from repro.datasets.backends import IntegrityError, StoreBackend
from repro.datasets.store import DatasetStore
from repro.obs.http import ReproHTTPServer, RequestError
from repro.obs.logging import configure_logging
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.serving.model_io import ServedModel, decode_model

__all__ = ["ModelServer", "MicroBatcher", "main"]

#: How long a queued caller sleeps before it looks for itself whether its
#: rows were served.  Every leader hands off when it releases, so the
#: interval only bounds the wait behind a leader that died mid-pass.
LEADER_POLL_S = 0.05


class _Pending:
    """One caller's rows queued for a micro-batch pass."""

    __slots__ = ("rows", "wake", "done", "result", "error")

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = rows
        #: Set when the rows are served, or when the caller is handed the
        #: next pass.
        self.wake = threading.Event()
        self.done = False
        self.result: np.ndarray | None = None
        self.error: BaseException | None = None


class MicroBatcher:
    """Coalesce concurrent per-model predict calls into vectorized passes.

    Natural batching, no added latency: the first caller for a model
    becomes the *leader* and predicts immediately; callers arriving
    while that pass is in flight queue up, and whoever acquires the
    per-model leadership next drains the **whole** queue into one
    concatenated :meth:`~repro.serving.model_io.ServedModel.predict_rows`
    call, then scatters the per-caller slices.  A leader that releases
    with callers still queued wakes the oldest of them to lead the next
    pass, so no caller waits longer than the pass ahead of it.  Under
    load the batch size approaches the concurrency level; a lone
    request costs exactly one ungrouped pass.

    Value-preserving by construction: predictions are computed row-wise
    (elementwise scaler/analytical math plus an independent tree descent
    per row), so a row's result does not depend on its batch mates — the
    server's round-trip tests assert bit-identical outputs for batched
    and unbatched service.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._queues: dict[object, list[_Pending]] = {}
        self._leaders: dict[object, threading.Lock] = {}
        # Passes executed / rows served / largest single pass, on the
        # shared telemetry plane (the old ``stats`` dict is a property).
        self.metrics = MetricsRegistry(attach_to=REGISTRY)
        self._batches = self.metrics.counter(
            "repro_serving_batches_total", "Micro-batch prediction passes")
        self._batched_rows = self.metrics.counter(
            "repro_serving_batched_rows_total",
            "Rows served through micro-batched passes")
        self._max_batch_rows = self.metrics.gauge(
            "repro_serving_max_batch_rows", "Largest single pass, in rows")
        self._max_batch_requests = self.metrics.gauge(
            "repro_serving_max_batch_requests",
            "Largest single pass, in coalesced requests")

    @property
    def stats(self) -> dict[str, int]:
        """Compatibility view of the batching counters (atomic snapshot)."""
        return {"batches": int(self._batches.value),
                "batched_rows": int(self._batched_rows.value),
                "max_batch_rows": int(self._max_batch_rows.value),
                "max_batch_requests": int(self._max_batch_requests.value)}

    def _leader_lock(self, key) -> threading.Lock:
        with self._lock:
            lock = self._leaders.get(key)
            if lock is None:
                lock = self._leaders[key] = threading.Lock()
            return lock

    def predict(self, key, model: ServedModel, rows: np.ndarray) -> np.ndarray:
        """Predictions for *rows*, possibly served as part of a larger pass."""
        entry = _Pending(rows)
        with self._lock:
            self._queues.setdefault(key, []).append(entry)
        leader = self._leader_lock(key)
        while not entry.done:
            if leader.acquire(blocking=False):
                try:
                    self._run_pass(key, model)
                finally:
                    leader.release()
                    self._hand_off(key)
            else:
                # A pass is in flight.  It serves our entry, or its leader
                # wakes the oldest queued caller once it releases.  A wake
                # lost to the clear is harmless: it came after a release,
                # and we try the leadership again before waiting.
                entry.wake.wait(LEADER_POLL_S)
                entry.wake.clear()
        if entry.error is not None:
            raise entry.error
        return entry.result

    def _hand_off(self, key) -> None:
        """Wake the oldest caller that queued during the pass just run.

        It found the leadership taken and would otherwise sleep out
        :data:`LEADER_POLL_S`.  If another caller took the leadership
        first, that leader hands off in turn when it releases.
        """
        with self._lock:
            queue = self._queues.get(key)
            if queue:
                queue[0].wake.set()

    def _run_pass(self, key, model: ServedModel) -> None:
        with self._lock:
            batch = self._queues.pop(key, [])
        if not batch:
            return
        counts = [len(entry.rows) for entry in batch]
        try:
            predictions = model.predict_rows(np.concatenate([e.rows for e in batch]))
        except BaseException as exc:  # noqa: BLE001 - scattered to each caller
            for entry in batch:
                entry.error = exc
                entry.done = True
                entry.wake.set()
            return
        with self._lock:  # the max updates are read-modify-write
            self._batches.inc()
            self._batched_rows.inc(sum(counts))
            self._max_batch_rows.set(
                max(self._max_batch_rows.value, sum(counts)))
            self._max_batch_requests.set(
                max(self._max_batch_requests.value, len(batch)))
        offset = 0
        for entry, count in zip(batch, counts, strict=True):
            entry.result = predictions[offset:offset + count]
            offset += count
            entry.done = True
            entry.wake.set()


class ModelServer(ReproHTTPServer):
    """Threaded HTTP prediction service over published store models.

    Parameters
    ----------
    store:
        Where published models live: a
        :class:`~repro.datasets.store.DatasetStore`, a
        :class:`~repro.datasets.backends.StoreBackend`, or a locator URL
        (``file://``, ``memory://``, ``http(s)://``).
    address:
        ``(host, port)`` bind address (default: loopback, ephemeral port).
    auth:
        Shared-secret key bytes; clients must then sign every request
        except ``GET /healthz`` (see :func:`repro.obs.http.sign_request`).

    Models are fetched and decoded on first use and cached read-only for
    the life of the process (``stats["model_loads"]`` counts decodes);
    re-publishing a model under the same key is picked up only by a new
    server — artifacts are content-addressed per plan fingerprint, so a
    changed plan gets a new key anyway.

    Use as a context manager in tests::

        with ModelServer(store) as server:
            urllib.request.urlopen(server.url + "healthz")
    """

    name = "model-server"

    #: ``/predict`` and ``/recommend`` JSON: a whole registry
    #: configuration space (3,696 rows) posts ~0.1 MB; 16 MiB is headroom.
    max_body_bytes = 16 * 1024 * 1024

    def __init__(self, store: DatasetStore | StoreBackend | str,
                 address: tuple[str, int] = ("127.0.0.1", 0), *,
                 auth: bytes | None = None,
                 registry: MetricsRegistry | None = None,
                 verbose: bool = False) -> None:
        self.store = store if isinstance(store, DatasetStore) else DatasetStore(store)
        self.batcher = MicroBatcher()
        super().__init__(address, auth=auth, registry=registry,
                         verbose=verbose)
        # Registry-backed request counters; the old ``stats`` dict is the
        # property view below, so ``/stats`` semantics are unchanged.
        self._counters = {
            key: self.metrics.counter(f"repro_serving_{key}_total", help)
            for key, help in (
                ("requests", "Prediction-tier requests resolved"),
                ("predictions", "Rows predicted"),
                ("recommendations", "Recommendation (argmin) requests served"),
                ("model_loads", "Model blobs fetched and decoded"),
                ("integrity_failures", "Model blobs that failed checksums"),
                ("client_errors", "Requests answered with a 4xx status"),
                ("errors", "Requests answered with a 5xx status"),
            )
        }
        self._models: dict[tuple[str, str], ServedModel] = {}
        self._models_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Request routing (the base owns auth, /metrics, /healthz, spans)
    # ------------------------------------------------------------------ #
    def handle(self, request, method: str, path: str, query: dict,
               body: bytes) -> None:
        """Serve the prediction API: GET stats/models, POST predict/recommend."""
        if method == "GET":
            if path == "/stats":
                request.send_json(200, self.snapshot_stats())
            elif path == "/models":
                request.send_json(200, self.describe_models())
            else:
                raise RequestError(404, f"no such endpoint {path}")
        elif method == "POST":
            if path == "/predict":
                request.send_json(200, self.predict(self._json_body(body)))
            elif path == "/recommend":
                request.send_json(200, self.recommend(self._json_body(body)))
            else:
                raise RequestError(404, f"no such endpoint {path}")
        else:
            raise RequestError(405, f"unsupported method {method}")

    @staticmethod
    def _json_body(raw: bytes) -> dict:
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RequestError(400, f"request body is not valid JSON: {exc}") from None
        if not isinstance(body, dict):
            raise RequestError(400, "request body must be a JSON object")
        return body

    def count_error(self, status: int) -> None:
        """Bucket a failed request as a server error or a client error."""
        self.count("errors" if status >= 500 else "client_errors")

    @property
    def stats(self) -> dict[str, int]:
        """Compatibility view of the request counters (atomic snapshot)."""
        return {key: int(counter.value)
                for key, counter in self._counters.items()}

    def count(self, op: str, n: int = 1) -> None:
        """Bump the *op* stats counter (thread-safe)."""
        self._counters[op].inc(n)

    # ------------------------------------------------------------------ #
    # Model loading
    # ------------------------------------------------------------------ #
    def load_model(self, plan_fingerprint: str, series: str) -> ServedModel:
        """The decoded model for ``(plan, series)``, fetching on first use.

        Raises :class:`~repro.obs.http.RequestError` with the HTTP status the failure
        maps to: 404 for an unpublished model, 503 for a blob that fails
        checksum verification or decoding.
        """
        key = (plan_fingerprint, series)
        with self._models_lock:
            model = self._models.get(key)
        if model is not None:
            return model
        try:
            blob = self.store.model_bytes(plan_fingerprint, series)
        except KeyError:
            raise RequestError(
                404, f"no published model for plan {plan_fingerprint!r} "
                     f"series {series!r}") from None
        except IntegrityError as exc:
            self.count("integrity_failures")
            raise RequestError(
                503, f"model blob failed checksum verification and was "
                     f"discarded (republish to repair): {exc}") from None
        except ValueError as exc:
            raise RequestError(400, str(exc)) from None
        try:
            model = decode_model(blob)
        except ValueError as exc:
            raise RequestError(503, f"model blob cannot be decoded: {exc}") from None
        with self._models_lock:
            model = self._models.setdefault(key, model)
        self.count("model_loads")
        return model

    # ------------------------------------------------------------------ #
    # Endpoint bodies
    # ------------------------------------------------------------------ #
    def _resolve(self, body: dict) -> tuple[tuple[str, str], ServedModel, np.ndarray]:
        self.count("requests")
        try:
            plan = str(body["plan"])
            series = str(body["series"])
            rows = body["rows"]
        except KeyError as exc:
            raise RequestError(400, f"request body is missing field {exc}") from None
        model = self.load_model(plan, series)
        try:
            array = np.asarray(rows, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise RequestError(400, f"rows are not numeric: {exc}") from None
        if array.ndim != 2 or array.shape[0] == 0:
            raise RequestError(
                400, f"rows must be a non-empty list of feature rows, got "
                     f"shape {array.shape}")
        if array.shape[1] != model.n_features_in:
            raise RequestError(
                400, f"rows have {array.shape[1]} features, but the model "
                     f"expects {model.n_features_in}")
        if not np.all(np.isfinite(array)):
            raise RequestError(400, "rows contain non-finite values")
        return (plan, series), model, array

    def predict(self, body: dict) -> dict:
        """``POST /predict``: micro-batched vectorized predictions."""
        key, model, rows = self._resolve(body)
        try:
            predictions = self.batcher.predict(key, model, rows)
        except ValueError as exc:
            raise RequestError(400, str(exc)) from None
        self.count("predictions", len(predictions))
        return {"plan": key[0], "series": key[1],
                "predictions": predictions.tolist()}

    def recommend(self, body: dict) -> dict:
        """``POST /recommend``: argmin of the predicted time over a config grid."""
        key, model, rows = self._resolve(body)
        try:
            predictions = self.batcher.predict(key, model, rows)
        except ValueError as exc:
            raise RequestError(400, str(exc)) from None
        self.count("recommendations")
        best = int(np.argmin(predictions))
        return {"plan": key[0], "series": key[1], "index": best,
                "row": rows[best].tolist(),
                "predicted": float(predictions[best]),
                "predictions": predictions.tolist()}

    def health(self) -> dict:
        """``GET /healthz`` payload."""
        with self._models_lock:
            loaded = len(self._models)
        return {"status": "ok", "models_loaded": loaded,
                "store": self.store.locator}

    def snapshot_stats(self) -> dict:
        """``GET /stats`` payload: server + batcher + store counters."""
        stats = dict(self.stats)
        stats.update(self.batcher.stats)
        stats["store_integrity_failures"] = self.store.integrity_failures
        return stats

    def describe_models(self) -> dict:
        """``GET /models`` payload: loaded models + store inventory."""
        with self._models_lock:
            loaded = {
                f"{plan}/{series}": model.describe()
                for (plan, series), model in sorted(self._models.items())
            }
        available = [{"plan": fingerprint, "series": series}
                     for series, fingerprint in self.store.list_models()]
        return {"loaded": loaded, "available": available}


def main(argv: list[str] | None = None) -> int:
    """Console entry point (``repro-serve``)."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve published hybrid/ML performance models over HTTP",
        parents=[
            add_store_args(
                dir_help="store directory holding models/ artifacts",
                url_help="store locator holding models/ artifacts: "
                         "file://DIR, memory:// or http://HOST:PORT/ (an "
                         "object store, e.g. repro.datasets.object_server)"),
            add_bind_args(default_port=8200), add_auth_args(),
            add_logging_parent(),
        ],
    )
    parser.add_argument("--verbose", action="store_true",
                        help="log each request to stderr")
    args = parser.parse_args(argv)
    configure_logging(fmt=args.log_format, level=args.log_level)
    locator = args.store_url or args.store_dir
    if locator is None:
        parser.error("a model store is required: pass --store-url or --store-dir")
    auth = load_auth_key(args.auth_key_file, parser=parser)
    check_bind_safety(parser, args.bind, auth=auth, insecure=args.insecure)

    try:
        # One fleet-wide shared secret: the same key authenticates this
        # server's clients and signs its own requests to an http(s) store.
        store = DatasetStore(locator, auth=auth)
        server = ModelServer(store, (args.bind, args.port), auth=auth,
                             verbose=args.verbose)
    except ValueError as exc:
        parser.error(str(exc))
    models = server.store.list_models()
    mode = "authenticated" if auth is not None else "unauthenticated"
    print(f"model server at {server.url} over store {locator} "
          f"({mode}; {len(models)} published model(s))", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
