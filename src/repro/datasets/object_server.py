"""Bundled S3-style HTTP object store for :class:`DatasetStore` artifacts.

A deliberately minimal object server built on the shared
:class:`~repro.obs.http.ReproHTTPServer` base, so the ``http://`` store
backend is testable end to end without any external service.  It serves the four-verb API
:class:`~repro.datasets.backends.ObjectStoreBackend` speaks:

* ``GET /<key>`` — blob bytes (404 when absent);
* ``HEAD /<key>`` — existence probe (200/404, no body);
* ``PUT /<key>`` — store the request body under the key (201);
* ``DELETE /<key>`` — remove the key (204, 404 when absent);
* ``GET /?prefix=<p>`` — JSON array of keys under the prefix;
* ``GET /metrics`` / ``GET /healthz`` — the shared telemetry endpoints
  (reserved paths: real blob keys are always prefixed
  ``datasets/``/``caches/``/``models/``, so no artifact can shadow them).

Storage is delegated to any :class:`~repro.datasets.backends.StoreBackend`
(a :class:`LocalBackend` directory for persistence, a
:class:`MemoryBackend` for throwaway CI smoke stores), so the server is
a thin HTTP skin: keys are validated against path traversal at the
backend seam and writes inherit the backend's atomicity.

Integrity is enforced at the edges, not in the middle: the server turns
off read-side checksum verification on its backend (clients verify the
blob against its ``.sha256`` sidecar end to end, covering the HTTP
transport too), but a PUT whose body does not match the client-supplied
``X-Repro-SHA256`` digest header is rejected with 422 before anything
is stored, and an unexpected backend failure answers 500 (retryable)
instead of severing the connection.

Run it standalone::

    python -m repro.datasets.object_server --bind 127.0.0.1 --port 8123 --root ./store
    python -m repro.datasets.object_server --port 8123 --memory   # non-persistent

and point coordinators/workers at it with ``--store-url
http://127.0.0.1:8123/``.  On a non-loopback ``--bind`` a shared key is
mandatory (``--auth-key-file``, or ``--insecure`` to opt out): every
request except ``GET /healthz`` must then carry a valid
``Authorization: Repro-HMAC`` header, and rejected requests increment
``repro_auth_failures_total{server="object-store"}``.
"""

from __future__ import annotations

import argparse
import json
import sys
import urllib.parse

from repro.cli import (
    add_auth_args,
    add_bind_args,
    add_logging_parent,
    check_bind_safety,
    load_auth_key,
)
from repro.datasets.backends import (
    LocalBackend,
    MemoryBackend,
    StoreBackend,
    sha256_hex,
)
from repro.obs.http import ReproHTTPServer, RequestError
from repro.obs.logging import configure_logging
from repro.obs.metrics import MetricsRegistry

__all__ = ["ObjectStoreServer", "main"]


class ObjectStoreServer(ReproHTTPServer):
    """Threaded HTTP object store over a :class:`StoreBackend`.

    ``stats`` counts served operations (``gets``/``puts``/``lists``/
    ``deletes``) — the server-side hit counters the fleet smoke tests
    use to prove artifacts really moved over HTTP.

    Use as a context manager in tests::

        with ObjectStoreServer(MemoryBackend()) as server:
            store = DatasetStore(server.url)
    """

    name = "object-store"

    #: The largest artifact a default sweep stores is a ~6 MB 20-tree
    #: forest model; 256 MiB leaves room for 100-tree forests on full
    #: datasets.
    max_body_bytes = 256 * 1024 * 1024

    def __init__(self, backend: StoreBackend,
                 address: tuple[str, int] = ("127.0.0.1", 0), *,
                 auth: bytes | None = None,
                 registry: MetricsRegistry | None = None,
                 verbose: bool = False) -> None:
        self.backend = backend
        # Clients own the integrity layer end to end: they verify blobs
        # against the .sha256 sidecar (covering the HTTP hop) and PUT the
        # sidecar as its own key.  The server stores and serves raw bytes
        # — re-recording checksums here would replace the client's digest
        # with a post-transport one and mask in-flight corruption.
        self.backend.verify_reads = False
        self.backend.record_checksums = False
        super().__init__(address, auth=auth, registry=registry,
                         verbose=verbose)
        self._counters = {
            op: self.metrics.counter(f"repro_object_store_{op}_total", help)
            for op, help in (
                ("gets", "Blob GETs served"),
                ("heads", "Existence probes answered 200"),
                ("puts", "Blobs stored"),
                ("lists", "Prefix listings served"),
                ("deletes", "Blobs deleted"),
                ("rejected_puts", "PUTs refused for a digest mismatch"),
                ("errors", "Requests answered with a 5xx status"),
            )
        }

    @property
    def stats(self) -> dict[str, int]:
        """Compatibility view of the operation counters (atomic snapshot)."""
        return {op: int(counter.value)
                for op, counter in self._counters.items()}

    def count(self, op: str) -> None:
        self._counters[op].inc()

    def count_error(self, status: int) -> None:
        if status >= 500:
            self.count("errors")

    # ------------------------------------------------------------------ #
    # Request routing (the base owns auth, /metrics, /healthz, spans)
    # ------------------------------------------------------------------ #
    def handle(self, request, method: str, path: str, query: dict,
               body: bytes) -> None:
        key = urllib.parse.unquote(path).lstrip("/")
        try:
            if method in ("GET", "HEAD") and not key:
                prefix = query.get("prefix", [""])[0]
                listing = json.dumps(self.backend.list(prefix)).encode()
                self.count("lists")
                request.send_body(200, listing, content_type="application/json")
            elif method == "GET":
                data = self.backend.read(key)
                self.count("gets")
                request.send_body(200, data)
            elif method == "HEAD":
                if not self.backend.exists(key):
                    raise KeyError(key)
                self.count("heads")
                request.send_body(200)
            elif method == "PUT":
                self._put(request, key, body)
            elif method == "DELETE":
                self.backend.delete(key)
                self.count("deletes")
                request.send_body(204)
            else:
                raise RequestError(405, f"unsupported method {method}")
        except KeyError:
            # The 404 probe is routine (exists() before a write) — it is
            # neither an error counter nor a served operation.
            raise RequestError(404, "no such key") from None
        except ValueError as exc:
            raise RequestError(400, str(exc)) from None

    def _put(self, request, key: str, data: bytes) -> None:
        expected = request.headers.get("X-Repro-SHA256")
        if expected is not None and sha256_hex(data) != expected.strip().lower():
            # The body was corrupted (or truncated) in flight: refuse to
            # store it so garbage never lands under a valid key.  422 is
            # a client-class status — the client's retry resends the
            # request from its intact in-memory bytes.
            self.count("rejected_puts")
            raise RequestError(422, "body does not match X-Repro-SHA256 digest")
        self.backend.write(key, data)
        self.count("puts")
        request.send_body(201, b"stored", content_type="text/plain")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.datasets.object_server",
        description="Minimal S3-style object store for DatasetStore artifacts",
        parents=[add_bind_args(default_port=8123), add_auth_args(),
                 add_logging_parent()],
    )
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--root", default=None, metavar="DIR",
                       help="persist blobs under this directory")
    group.add_argument("--memory", action="store_true",
                       help="keep blobs in memory only (CI smoke stores)")
    parser.add_argument("--verbose", action="store_true",
                        help="log each request to stderr")
    args = parser.parse_args(argv)
    configure_logging(fmt=args.log_format, level=args.log_level)
    auth = load_auth_key(args.auth_key_file, parser=parser)
    check_bind_safety(parser, args.bind, auth=auth, insecure=args.insecure)

    backend: StoreBackend
    if args.root is not None:
        backend = LocalBackend(args.root)
    else:
        backend = MemoryBackend()
    server = ObjectStoreServer(backend, (args.bind, args.port), auth=auth,
                               verbose=args.verbose)
    kind = f"directory {args.root}" if args.root is not None else "memory"
    mode = "authenticated" if auth is not None else "unauthenticated"
    print(f"object store serving {kind} at {server.url} "
          f"({mode}; --store-url {server.url})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
