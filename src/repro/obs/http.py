"""HTTP exposition and the shared server base for every HTTP surface.

Three pieces mount the HTTP tier onto one spine:

* :func:`metrics_body` — the one payload every ``/metrics`` endpoint
  serves: the process-wide :data:`~repro.obs.metrics.REGISTRY` (or an
  explicit snapshot) rendered in the Prometheus text format.
* :class:`ReproHTTPServer` — the base every bundled HTTP server
  (the object store, the model server, the status sidecar) subclasses.
  It implements, exactly once: request-body reading (a malformed
  ``Content-Length`` answers 400, and one over the server's
  ``max_body_bytes`` answers 413, before any body byte is read and
  before authorization; both close the connection), a
  :data:`READ_TIMEOUT_S` deadline on every read (a peer that stalls
  mid-request or idles on a keep-alive connection is dropped), replies
  written in one send on ``TCP_NODELAY`` sockets, shared-secret HMAC
  authorization (``Authorization: Repro-HMAC <hex>``), the labeled
  ``repro_auth_failures_total`` counter, ``GET /metrics`` and ``GET
  /healthz``, request tracing spans, :class:`RequestError` → status
  mapping, a :data:`MAX_CONNECTIONS` cap on open connections, the
  daemon-thread ``start``/``stop``/context-manager lifecycle, and the
  wildcard-aware ``url`` property.  Subclasses provide a ``name``, a
  :meth:`~ReproHTTPServer.handle` routing method, and optional
  ``health()``/``metrics_snapshot()`` overrides.
* :class:`StatusServer` — the read-only sidecar for processes whose
  main socket speaks the binary fleet protocol (the coordinator):
  ``GET /metrics`` serves a caller-supplied snapshot (the coordinator's
  fleet-wide merged view) and ``GET /healthz`` a small JSON health
  document.  The CLI mounts it with ``--status-port``.

Authorization (when a server is constructed with ``auth=<key bytes>``)
covers the whole request: the tag is HMAC-SHA256 over
``METHOD\\n<request-target>\\n<sha256-hex of the body>``, where the
request target is the exact percent-encoded path-plus-query on the
request line, so neither the resource nor the payload can be swapped
under a captured header.  ``GET``/``HEAD /healthz`` stays open — health
probes predate key distribution — and every rejected request increments
``repro_auth_failures_total{server=...}`` so operators see auth
failures instead of debugging silent 401s.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import socket
import sys
import threading
import urllib.parse
from collections.abc import Callable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.metrics import REGISTRY, MetricsRegistry, MetricsSnapshot, render_prometheus
from repro.obs.tracing import TRACER

__all__ = [
    "AUTH_SCHEME",
    "CONTENT_TYPE",
    "ReproHTTPServer",
    "RequestError",
    "StatusServer",
    "metrics_body",
    "sign_request",
    "verify_request",
]

#: The Prometheus text exposition content type.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: The ``Authorization`` scheme spoken by every bundled server/client.
AUTH_SCHEME = "Repro-HMAC"

#: Seconds any one read (request line, header or body) may block before
#: the connection, and the handler thread it holds, is dropped.  Far
#: above any gap between the requests of a closed-loop keep-alive client.
READ_TIMEOUT_S = 30.0

#: Most connections, each holding a handler thread, a server keeps open at
#: once; one accepted over the cap is closed before a thread starts.  Far
#: above the one keep-alive connection per core of a closed-loop client.
MAX_CONNECTIONS = 64


def metrics_body(snapshot: MetricsSnapshot | None = None) -> bytes:
    """The ``/metrics`` response body (process-wide registry by default)."""
    if snapshot is None:
        snapshot = REGISTRY.snapshot()
    return render_prometheus(snapshot).encode("utf-8")


class RequestError(Exception):
    """A request that maps to a specific HTTP status (raised by handlers)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


# --------------------------------------------------------------------------- #
# Request authorization
# --------------------------------------------------------------------------- #
def _canonical(method: str, target: str, body: bytes) -> bytes:
    """The byte string a request tag signs.

    *target* is the request-line target — percent-encoded path plus
    query — exactly as the client sends it and the server receives it,
    so both sides canonicalize identically without re-encoding.
    """
    digest = hashlib.sha256(body or b"").hexdigest()
    return f"{method.upper()}\n{target}\n{digest}".encode("utf-8")


def sign_request(key: bytes, method: str, target: str,
                 body: bytes = b"") -> str:
    """The ``Authorization`` header value for one request."""
    tag = hmac.new(key, _canonical(method, target, body),
                   hashlib.sha256).hexdigest()
    return f"{AUTH_SCHEME} {tag}"


def verify_request(key: bytes, method: str, target: str, body: bytes,
                   header: str | None) -> bool:
    """Whether *header* correctly authorizes this request under *key*."""
    if not header:
        return False
    scheme, _, tag = header.partition(" ")
    if scheme != AUTH_SCHEME:
        return False
    expected = hmac.new(key, _canonical(method, target, body),
                        hashlib.sha256).hexdigest()
    return hmac.compare_digest(tag.strip().lower(), expected)


# --------------------------------------------------------------------------- #
# The shared handler + server base
# --------------------------------------------------------------------------- #
class _Handler(BaseHTTPRequestHandler):
    """One request against a :class:`ReproHTTPServer`.

    Every verb funnels through :meth:`_dispatch`, which reads the body,
    enforces authorization, serves the built-in telemetry endpoints and
    hands everything else to the server's :meth:`~ReproHTTPServer.handle`
    under a tracing span — so subclasses never reimplement the
    cross-cutting pieces.
    """

    protocol_version = "HTTP/1.1"
    server_version = "ReproHTTP/1.0"
    # Replies leave as soon as they are written.  Nagle's algorithm holds
    # a small write until everything sent before it is acknowledged, and
    # a client on a keep-alive connection delays its ACKs by up to 40 ms.
    disable_nagle_algorithm = True

    server: ReproHTTPServer

    def setup(self) -> None:
        """Bound every read by :data:`READ_TIMEOUT_S`; the stdlib request
        loop drops the connection when one times out."""
        self.timeout = READ_TIMEOUT_S
        super().setup()

    def log_message(self, fmt, *args):
        """Per-request stderr logging, only under ``--verbose``."""
        if self.server.verbose:
            sys.stderr.write(f"{self.server.name}: " + fmt % args + "\n")

    # -- response helpers (used by server ``handle`` implementations) -- #
    def send_body(self, status: int, body: bytes = b"",
                  content_type: str = "application/octet-stream") -> None:
        """One complete response with correct framing headers, in one send.

        ``HEAD`` responses advertise the body's length but never write
        it — writing would desynchronize the keep-alive connection.
        """
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if status == 401:
            self.send_header("WWW-Authenticate", AUTH_SCHEME)
        if self.close_connection:
            self.send_header("Connection", "close")
        if self.request_version == "HTTP/0.9":  # only GET; no status line or headers
            self.wfile.write(body)
            return
        # What end_headers() would do, with the body joined to the
        # buffered status line and headers so that all of it goes out in
        # one write and one segment.
        self._headers_buffer.append(b"\r\n")
        if body and self.command != "HEAD":
            self._headers_buffer.append(body)
        self.flush_headers()

    def send_json(self, status: int, payload: dict | list) -> None:
        """One complete JSON response."""
        self.send_body(status, json.dumps(payload).encode("utf-8"),
                       content_type="application/json")

    # -- the single request path -------------------------------------- #
    def _dispatch(self, method: str) -> None:
        declared = self.headers.get("Content-Length", "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            # Where the body ends is unknown, so nothing after this
            # header can be parsed: answer and drop the connection.
            self.close_connection = True
            self.server.count_error(400)
            self.send_json(400, {"error": "malformed Content-Length "
                                          f"{declared[:32]!r}"})
            return
        length = int(declared)
        if length > self.server.max_body_bytes:
            # Refused before a byte of the body is read, and so before the
            # auth check (which signs the body): the unread body leaves
            # the stream unframed, so the connection is dropped too.
            self.close_connection = True
            self.server.count_error(413)
            self.send_json(413, {"error": f"request body of {length} bytes exceeds "
                                          f"the {self.server.max_body_bytes}-byte "
                                          f"limit of {self.server.name}"})
            return
        body = self.rfile.read(length) if length > 0 else b""
        try:
            parsed = urllib.parse.urlsplit(self.path)
        except ValueError as exc:  # e.g. an unclosed "[" in an absolute URI
            self.server.count_error(400)
            self.send_json(400, {"error": f"malformed request target: {exc}"})
            return
        path = parsed.path.rstrip("/") or "/"
        query = urllib.parse.parse_qs(parsed.query)
        try:
            if not self._authorized(method, path, body):
                self.server.count_auth_failure()
                self.send_json(401, {"error": "missing or invalid "
                                              f"{AUTH_SCHEME} authorization"})
                return
            attrs = {"server": self.server.name, "method": method,
                     "path": path}
            with TRACER.span("request", attrs=attrs):
                if method in ("GET", "HEAD") and path == "/metrics":
                    self.send_body(
                        200, metrics_body(self.server.metrics_snapshot()),
                        content_type=CONTENT_TYPE)
                elif method in ("GET", "HEAD") and path == "/healthz":
                    body_out = json.dumps(self.server.health(),
                                          sort_keys=True).encode("utf-8")
                    self.send_body(200, body_out,
                                   content_type="application/json")
                else:
                    self.server.handle(self, method, path, query, body)
        except RequestError as exc:
            self.server.count_error(exc.status)
            self.send_json(exc.status, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - 500 is retryable, a dead socket is not
            self.server.count_error(500)
            self.log_message("%s %s failed: %s", method, self.path, exc)
            self.send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _authorized(self, method: str, path: str, body: bytes) -> bool:
        if self.server.auth is None:
            return True
        if method in ("GET", "HEAD") and path == "/healthz":
            return True  # liveness probes predate key distribution
        return verify_request(self.server.auth, method, self.path, body,
                              self.headers.get("Authorization"))

    def do_GET(self) -> None:  # (BaseHTTPRequestHandler naming)
        """Route GET through the shared dispatch pipeline."""
        self._dispatch("GET")

    def do_HEAD(self) -> None:
        """Route HEAD through the shared dispatch pipeline."""
        self._dispatch("HEAD")

    def do_POST(self) -> None:
        """Route POST through the shared dispatch pipeline."""
        self._dispatch("POST")

    def do_PUT(self) -> None:
        """Route PUT through the shared dispatch pipeline."""
        self._dispatch("PUT")

    def do_DELETE(self) -> None:
        """Route DELETE through the shared dispatch pipeline."""
        self._dispatch("DELETE")


class ReproHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server base: auth, telemetry and lifecycle in one place.

    Parameters
    ----------
    bind:
        ``(host, port)`` bind address; port 0 picks an ephemeral port.
    auth:
        Shared-secret key bytes; ``None`` serves unauthenticated
        (loopback/trusted networks).  With a key every request except
        ``GET /healthz`` must carry a valid ``Authorization:
        Repro-HMAC`` header (see :func:`sign_request`); failures answer
        401 and increment ``repro_auth_failures_total{server=<name>}``.
    registry:
        The :class:`MetricsRegistry` to register instruments on
        (default: a fresh one attached to the process-wide
        :data:`~repro.obs.metrics.REGISTRY`).
    verbose:
        Log each request to stderr.

    A request whose declared ``Content-Length`` exceeds
    :attr:`max_body_bytes` answers 413 and its connection is closed
    before any body byte is read and before the auth check, so neither
    an unsigned peer nor a signed one can make the server wait for, or
    buffer, an oversized body.  Subclasses size the cap from the largest
    body their routes accept, plus headroom.
    """

    daemon_threads = True

    #: Subclass identity: the ``server`` label on auth-failure counters
    #: and the serving thread's name.
    name = "repro-http"

    #: Largest request body accepted.  The base serves only the built-in
    #: GET routes, which take no body; 64 KiB is headroom.
    max_body_bytes = 64 * 1024

    def __init__(self, bind: tuple[str, int] = ("127.0.0.1", 0), *,
                 auth: bytes | None = None,
                 registry: MetricsRegistry | None = None,
                 verbose: bool = False) -> None:
        self.auth = auth
        self.verbose = verbose
        self.metrics = registry if registry is not None \
            else MetricsRegistry(attach_to=REGISTRY)
        self._auth_failures = self.metrics.counter(
            "repro_auth_failures_total",
            "Requests rejected for a missing or invalid credential",
            labelnames=("server",)).labels(server=self.name)
        self._thread: threading.Thread | None = None
        self._connection_slots = threading.BoundedSemaphore(MAX_CONNECTIONS)
        super().__init__(bind, _Handler)

    # -- hooks subclasses override ------------------------------------ #
    def handle(self, request: _Handler, method: str, path: str,
               query: dict, body: bytes) -> None:
        """Route one non-built-in request (built-ins: /metrics, /healthz).

        Implementations answer via ``request.send_body`` /
        ``request.send_json`` or raise :class:`RequestError`; any other
        exception maps to 500.
        """
        raise RequestError(404, f"no such endpoint {path}")

    def health(self) -> dict:
        """The ``GET /healthz`` JSON document."""
        return {"status": "ok"}

    def metrics_snapshot(self) -> MetricsSnapshot | None:
        """The snapshot ``/metrics`` renders (``None`` = process-wide)."""
        return None

    def count_error(self, status: int) -> None:
        """Failure-counting hook (subclasses map statuses to counters)."""

    # -- telemetry ------------------------------------------------------ #
    def count_auth_failure(self) -> None:
        """Record one rejected credential (handler calls this on 401)."""
        self._auth_failures.inc()

    @property
    def auth_failures(self) -> int:
        """Requests this server rejected for bad/missing credentials."""
        return int(self._auth_failures.value)

    # -- connection cap ------------------------------------------------- #
    def process_request(self, request, client_address) -> None:
        """Serve the connection on a new thread, or close it when at the cap."""
        if not self._connection_slots.acquire(blocking=False):
            self.shutdown_request(request)
            return
        try:
            super().process_request(request, client_address)
        except RuntimeError:  # the thread did not start, so cannot free it
            self._connection_slots.release()
            raise

    def process_request_thread(self, request, client_address) -> None:
        """Serve one connection, then free its slot."""
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._connection_slots.release()

    # -- lifecycle ------------------------------------------------------ #
    @property
    def url(self) -> str:
        """Base URL of this server.

        A wildcard bind address is not a destination: substitute this
        machine's hostname so the advertised locator routes from other
        hosts.
        """
        host, port = self.server_address[:2]
        if host in ("0.0.0.0", "::"):
            host = socket.gethostname()
        return f"http://{host}:{port}/"

    def start(self) -> ReproHTTPServer:
        """Serve requests on a daemon thread; returns ``self``."""
        self._thread = threading.Thread(
            target=self.serve_forever, name=self.name, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and release the port (idempotent)."""
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> ReproHTTPServer:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class StatusServer(ReproHTTPServer):
    """Read-only ``/metrics`` + ``/healthz`` sidecar (the ``--status-port``).

    Parameters
    ----------
    metrics:
        Zero-argument callable returning the :class:`MetricsSnapshot`
        to expose (e.g. ``coordinator.fleet_snapshot``); ``None`` serves
        the process-wide registry.
    health:
        Zero-argument callable returning the ``/healthz`` JSON document
        (default: ``{"status": "ok"}``).
    address:
        Bind address; port 0 picks an ephemeral port (tests).
    auth:
        Shared-secret key bytes; scrapes must then sign requests
        (``/healthz`` stays open).
    """

    name = "status-server"

    def __init__(self, metrics: Callable[[], MetricsSnapshot] | None = None,
                 health: Callable[[], dict] | None = None,
                 address: tuple[str, int] = ("127.0.0.1", 0), *,
                 auth: bytes | None = None,
                 registry: MetricsRegistry | None = None) -> None:
        self.metrics_source = metrics if metrics is not None \
            else (lambda: None)
        self.health_source = health if health is not None \
            else (lambda: {"status": "ok"})
        super().__init__(address, auth=auth, registry=registry)

    def metrics_snapshot(self) -> MetricsSnapshot | None:
        """The injected metrics callable's snapshot (``None`` = process-wide)."""
        return self.metrics_source()

    def health(self) -> dict:
        """The injected health callable's JSON document."""
        return self.health_source()

    def handle(self, request, method, path, query, body) -> None:
        """Reject everything beyond the two built-in read-only routes."""
        raise RequestError(404, "try /metrics or /healthz")
