"""Versioned wire protocol of the distributed worker fleet.

Framing (v5)
------------
Every message is one *frame*: a 13-byte big-endian header — payload
length, the CRC32 of the payload, and a flags byte — followed by that
many bytes of **schema-encoded** payload
(:mod:`repro.distributed.codec`: a closed value model plus a whitelist
of plain-data dataclasses; pickle never touches the wire), and, on
authenticated connections, a 32-byte HMAC-SHA256 tag.  The receiver
verifies the tag first (it covers a per-direction monotonic sequence
number, the header and the payload — a tampered or replayed frame fails
here), then the CRC (accidental corruption on unauthenticated
connections), then decodes; any violation raises
:class:`ProtocolError` and severs the connection.  Frames are written
atomically under a caller-supplied lock (the worker's heartbeat thread
shares its socket with the request loop), and :func:`recv_message`
reads exactly one frame, so the stream never needs resynchronization.

Authentication
--------------
With a shared key (``--auth-key-file``) the HELLO handshake runs a
mutual challenge–response: :class:`Hello` carries a fresh worker nonce
plus ``HMAC(key, nonce + worker_id)``, and :class:`Welcome` answers
with a fresh coordinator nonce plus ``HMAC(key, both nonces)`` — each
side proves key knowledge against a nonce the *other* side just chose,
so neither proof can be replayed.  Both sides then derive a
per-connection session key from the nonce pair
(:meth:`FrameAuth.activate_session`) and every subsequent frame carries
an HMAC-SHA256 tag over ``direction || sequence-number || header ||
payload`` under that session key: tampering trips the tag before the
CRC, replaying a captured frame fails on the sequence number, and
replaying a whole captured session fails on the fresh nonces.  A frame
that should be signed but is not (or vice versa) is refused
(:class:`AuthError`).  Without a key the frames are unsigned and the
codec still guarantees no crafted frame can execute code.

Message flow
------------
The conversation is worker-driven: apart from the reply to each request,
the coordinator never pushes anything, so a worker that sends a request
reads exactly one reply (heartbeats are fire-and-forget in the other
direction and get no reply).

1. handshake — :class:`Hello` (protocol version, store-fingerprint format
   version, worker identity) answered by :class:`Welcome` or, on any
   version mismatch, :class:`Reject` followed by a close;
2. plan manifest — :class:`GetPlan` answered by :class:`PlanAssignment`
   (the full :class:`~repro.experiments.plan.ExperimentPlan`, a frozen
   dataclass of primitives with an explicit codec schema), :class:`NoPlan`
   (poll again later) or :class:`Goodbye` (fleet shutting down);
3. store bootstrap — the :class:`PlanAssignment` manifest advertises the
   coordinator store's *locator* URL (``store_url``) when the store is
   shareable, so cold workers read the dataset and warmed caches
   **directly from shared storage** (e.g. the S3-style object store of
   :mod:`repro.datasets.object_server`) instead of funneling blobs
   through the coordinator's socket; :class:`FetchDataset` /
   :class:`FetchCache` answered by :class:`DatasetBlob` /
   :class:`CacheBlob` (raw ``.npz`` bytes) remain as the
   coordinator-relay fallback when no locator is advertised or the
   advertised store is unreachable;
4. work loop — :class:`GetBatch` answered by :class:`Batch`,
   :class:`Idle` (cells in flight elsewhere, poll again) or
   :class:`PlanDone`; :class:`Results` answered by :class:`Ack`;
5. liveness — :class:`Heartbeat`, sent on an interval by a worker-side
   daemon thread even while cells compute.

Trust model
-----------
Unknown or malformed frames fail closed: the codec only instantiates
whitelisted plain-data dataclasses, so a malicious peer cannot execute
code, and with a shared key it cannot speak at all.  Keyless operation
remains appropriate for loopback and trusted single-host runs (the
coordinator binds loopback by default); the CLIs refuse a non-loopback
bind without a key unless ``--insecure`` is passed.
"""

from __future__ import annotations

import hmac
import os
import socket
import struct
import threading
import zlib
from dataclasses import dataclass, field
from hashlib import sha256

from repro.distributed.codec import CodecError, decode_value, encode_value

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "MAX_HELLO_BYTES",
    "ConnectionClosed",
    "ProtocolError",
    "AuthError",
    "FrameAuth",
    "send_message",
    "recv_message",
    "parse_address",
    "Hello",
    "Welcome",
    "Reject",
    "GetPlan",
    "PlanAssignment",
    "NoPlan",
    "Goodbye",
    "FetchDataset",
    "DatasetBlob",
    "FetchCache",
    "CacheBlob",
    "GetBatch",
    "Batch",
    "Idle",
    "PlanDone",
    "Results",
    "Ack",
    "Heartbeat",
]

#: Bump on any incompatible change to the message set or framing; the
#: HELLO handshake rejects workers whose version differs.
#: Version 2 added the advertised store locator (``PlanAssignment.store_url``).
#: Version 3 added CRC32 frame checksums and blob digests
#: (``DatasetBlob.sha256`` / ``CacheBlob.sha256``).
#: Version 4 added telemetry: ``Heartbeat.metrics`` / ``Results.metrics``
#: (worker-side counter snapshots the coordinator merges into its
#: fleet-wide view), ``Batch.trace`` (the parent span context) and
#: ``Results.spans`` (the worker's finished batch/cell spans).
#: Version 5 replaced pickle payloads with the schema'd codec
#: (:mod:`repro.distributed.codec`), added the flags byte to the frame
#: header, and layered the shared-key HMAC handshake + per-frame tags
#: (``Hello.auth_nonce``/``auth_proof``, ``Welcome`` likewise).
PROTOCOL_VERSION = 5

#: Upper bound on a single frame (a defensive cap, far above any real
#: dataset blob; a corrupt or foreign length prefix fails fast instead of
#: attempting a multi-gigabyte read).
MAX_FRAME_BYTES = 1 << 31

#: Upper bound on a frame read before the HELLO handshake succeeds.  A
#: real ``Hello`` encodes to a few hundred bytes, so an unauthenticated
#: peer cannot make the coordinator buffer more than this per frame.
MAX_HELLO_BYTES = 64 << 10

_HEADER = struct.Struct(">QIB")  # payload length, CRC32 of payload, flags

#: Flags-byte bit: a 32-byte HMAC-SHA256 tag follows the payload.
FLAG_SIGNED = 0x01
#: Size of the per-frame HMAC-SHA256 tag.
TAG_BYTES = 32


class ConnectionClosed(ConnectionError):
    """The peer closed the connection mid-frame (or before one started)."""


class ProtocolError(RuntimeError):
    """The peer violated the framing or message protocol."""


class AuthError(ProtocolError):
    """A frame failed authentication: bad tag, replay, or missing tag."""


def _hmac_hex(key: bytes, *parts: bytes) -> str:
    return hmac.new(key, b"|".join(parts), sha256).hexdigest()


def hello_proof(key: bytes, nonce: str, worker_id: str) -> str:
    """The worker's HELLO challenge proof: key knowledge bound to its nonce."""
    return _hmac_hex(key, b"repro-hello", nonce.encode(), worker_id.encode())


def welcome_proof(key: bytes, worker_nonce: str, coordinator_nonce: str) -> str:
    """The coordinator's WELCOME proof: key knowledge bound to *both* nonces.

    The worker nonce is fresh per connection, so a recorded WELCOME
    cannot be replayed to a new worker — mutual authentication, not just
    client authentication.
    """
    return _hmac_hex(key, b"repro-welcome", worker_nonce.encode(),
                     coordinator_nonce.encode())


def auth_nonce() -> str:
    """A fresh random handshake nonce (hex)."""
    return os.urandom(16).hex()


class FrameAuth:
    """Per-connection HMAC state: session key and per-direction sequence numbers.

    Created once per connection with the shared key and this side's
    *role* (``"worker"`` or ``"coordinator"`` — the role picks the
    direction labels folded into every tag, so a frame reflected back to
    its sender never verifies).  Handshake frames (HELLO/WELCOME/REJECT)
    travel unsigned — their authenticity comes from the challenge
    proofs *inside* them; once both nonces are known,
    :meth:`activate_session` derives the per-connection session key and
    every later frame is signed with it.

    Sequence numbers are monotonic per direction, start at zero on
    session activation and are folded into each tag: the receiver
    computes the tag with the sequence number it *expects*, so a
    replayed (or dropped-then-reordered) frame fails verification —
    there is no window in which an old frame is acceptable.

    Thread safety: :meth:`sign` must be called under the same lock that
    serializes ``sendall`` on the socket (wire order must match
    sequence order); :meth:`verify` assumes a single reader per socket.
    """

    def __init__(self, key: bytes, role: str) -> None:
        if role not in ("worker", "coordinator"):
            raise ValueError(f"role must be worker|coordinator, got {role!r}")
        if not key:
            raise ValueError("auth key must be non-empty")
        self.key = bytes(key)
        self.role = role
        self._send_label = b"w>c" if role == "worker" else b"c>w"
        self._recv_label = b"c>w" if role == "worker" else b"w>c"
        self._session_key: bytes | None = None
        self._send_seq = 0
        self._recv_seq = 0

    @property
    def session_active(self) -> bool:
        """Whether the handshake completed and frames must be signed."""
        return self._session_key is not None

    def activate_session(self, worker_nonce: str, coordinator_nonce: str) -> None:
        """Derive the per-connection session key; resets both sequences."""
        self._session_key = hmac.new(
            self.key, b"|".join((b"repro-session", worker_nonce.encode(),
                                 coordinator_nonce.encode())),
            sha256).digest()
        self._send_seq = 0
        self._recv_seq = 0

    def _tag(self, label: bytes, seq: int, header: bytes, payload: bytes) -> bytes:
        return hmac.new(
            self._session_key,
            label + seq.to_bytes(8, "big") + header + payload,
            sha256).digest()

    def sign(self, header: bytes, payload: bytes) -> bytes:
        """The tag for the next outbound frame (consumes a sequence number)."""
        tag = self._tag(self._send_label, self._send_seq, header, payload)
        self._send_seq += 1
        return tag

    def verify(self, header: bytes, payload: bytes, tag: bytes) -> None:
        """Check an inbound frame's tag; :class:`AuthError` on any mismatch."""
        expected = self._tag(self._recv_label, self._recv_seq, header, payload)
        if not hmac.compare_digest(expected, tag):
            raise AuthError(
                f"frame authentication failed (sequence {self._recv_seq}): "
                "tampered, replayed, or signed with a different key")
        self._recv_seq += 1


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionClosed(f"peer closed with {remaining} of {n} bytes unread")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_message(sock: socket.socket, message,
                 lock: threading.Lock | None = None,
                 auth: FrameAuth | None = None) -> None:
    """Schema-encode *message* and write it as one length-prefixed frame.

    With *lock* the write — and the signing sequence number, when *auth*
    has an active session — is atomic with respect to other senders on
    the same socket (the worker's heartbeat thread).  Handshake frames
    (before :meth:`FrameAuth.activate_session`) travel unsigned.
    """
    try:
        payload = encode_value(message)
    except CodecError as exc:
        raise ProtocolError(f"message is outside the wire schema: {exc}") from exc
    signed = auth is not None and auth.session_active
    flags = FLAG_SIGNED if signed else 0
    header = _HEADER.pack(len(payload), zlib.crc32(payload), flags)
    if lock is not None:
        with lock:
            frame = (header + payload + auth.sign(header, payload)
                     if signed else header + payload)
            sock.sendall(frame)
    else:
        frame = (header + payload + auth.sign(header, payload)
                 if signed else header + payload)
        sock.sendall(frame)


def recv_message(sock: socket.socket, auth: FrameAuth | None = None,
                 max_bytes: int = MAX_FRAME_BYTES):
    """Read exactly one frame, authenticate it, and decode it.

    Checks run strictest-first: the HMAC tag (when the connection is
    authenticated), then the CRC, then the codec.  Raises
    :class:`ConnectionClosed` on EOF, :class:`AuthError` on a missing or
    failed tag, and :class:`ProtocolError` on an implausible length
    prefix, an unknown flag, a CRC mismatch, or an undecodable payload —
    i.e. any frame that was corrupted or forged in flight.  A payload
    longer than *max_bytes* is refused from its header, before any of
    it is read.
    """
    header = _recv_exactly(sock, _HEADER.size)
    length, crc, flags = _HEADER.unpack(header)
    if length > max_bytes:
        raise ProtocolError(f"frame of {length} bytes exceeds the {max_bytes} cap")
    if flags & ~FLAG_SIGNED:
        raise ProtocolError(f"unknown frame flags {flags:#04x}")
    payload = _recv_exactly(sock, length)
    session = auth is not None and auth.session_active
    if flags & FLAG_SIGNED:
        tag = _recv_exactly(sock, TAG_BYTES)
        if not session:
            raise AuthError(
                "peer sent a signed frame on an unauthenticated connection")
        # The tag covers the sequence number, header and payload, so it
        # is checked before the CRC: on an authenticated connection a
        # corrupted frame must be reported as an authentication failure,
        # never rationalized as accidental line noise.
        auth.verify(header, payload, tag)
    elif session:
        raise AuthError(
            "peer sent an unsigned frame on an authenticated connection")
    actual = zlib.crc32(payload)
    if actual != crc:
        raise ProtocolError(
            f"frame CRC mismatch: header says {crc:#010x}, payload is {actual:#010x}")
    try:
        return decode_value(payload)
    except CodecError as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc


def parse_address(address: str) -> tuple[str, int]:
    """Parse a ``HOST:PORT`` string into a socket address tuple."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be HOST:PORT, got {address!r}")
    return host, int(port)


# --------------------------------------------------------------------------- #
# Handshake
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Hello:
    """Worker → coordinator: identity plus the compatibility versions.

    ``store_format_version`` (the worker's
    :data:`repro.datasets.store._FORMAT_VERSION`) and
    ``simulator_versions`` (its
    :func:`~repro.datasets.store._simulator_versions` token) must both
    match the coordinator's: they are fingerprint ingredients, so a skew
    would let bootstrap blobs land under keys the other side never looks
    up — or worse, let one side's store serve the other side's stale
    simulator output.

    ``auth_nonce``/``auth_proof`` (v5) carry the worker's half of the
    keyed challenge–response: a fresh random nonce and
    :func:`hello_proof` over it.  Both empty on unauthenticated fleets.
    """

    protocol_version: int
    store_format_version: int
    worker_id: str
    pid: int
    simulator_versions: str = ""
    auth_nonce: str = ""
    auth_proof: str = ""


@dataclass(frozen=True)
class Welcome:
    """Coordinator → worker: handshake accepted.

    ``auth_nonce``/``auth_proof`` (v5) are the coordinator's half of the
    challenge–response: its own fresh nonce and :func:`welcome_proof`
    over both nonces — the worker verifies it before trusting the
    coordinator, then both sides derive the session key from the nonce
    pair and start signing frames.
    """

    coordinator_id: str
    auth_nonce: str = ""
    auth_proof: str = ""


@dataclass(frozen=True)
class Reject:
    """Coordinator → worker: handshake refused (version/auth mismatch); closes."""

    reason: str


# --------------------------------------------------------------------------- #
# Plan manifests
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class GetPlan:
    worker_id: str


@dataclass(frozen=True)
class PlanAssignment:
    """The plan manifest: the full plan plus its content-hash identity.

    ``plan_id`` (:attr:`ExperimentPlan.fingerprint`, extended with a
    content digest when the coordinator runs an explicit dataset
    override) scopes every later message, so results or fetches from a
    worker still chewing on a previous plan are recognized as stale
    instead of corrupting the current one.  ``store_ok`` is ``False``
    when the plan runs on an override dataset whose content has no
    registered fingerprint: the worker must then fetch the blobs and keep
    them out of its persistent store.

    ``store_url`` is the coordinator store's shareable locator (``file://``
    on a shared filesystem, ``http://`` for an object store) or ``None``:
    a worker missing an artifact tries the advertised store first and
    only falls back to :class:`FetchDataset`/:class:`FetchCache` relay
    frames when there is no locator or the direct read fails, so
    cold-starting a large fleet no longer serializes every blob through
    the coordinator's single socket.
    """

    plan_id: str
    plan: object
    store_ok: bool = True
    store_url: str | None = None


@dataclass(frozen=True)
class NoPlan:
    """No plan is active; poll again after *delay* seconds."""

    delay: float = 0.2


@dataclass(frozen=True)
class Goodbye:
    """The fleet is shutting down; the worker should exit cleanly."""

    reason: str = "shutdown"


# --------------------------------------------------------------------------- #
# Store bootstrap
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class FetchDataset:
    plan_id: str


@dataclass(frozen=True)
class DatasetBlob:
    """Raw ``.npz`` bytes of the plan's resolved dataset.

    ``sha256`` is the hex content digest of ``data`` (empty when the
    sender predates v3); receivers verify it before deserializing.
    """

    plan_id: str
    data: bytes = field(repr=False)
    sha256: str = ""


@dataclass(frozen=True)
class FetchCache:
    plan_id: str
    model_key: str


@dataclass(frozen=True)
class CacheBlob:
    """Raw ``.npz`` bytes of one warmed analytical-prediction cache.

    ``sha256`` as on :class:`DatasetBlob`.
    """

    plan_id: str
    model_key: str
    data: bytes = field(repr=False)
    sha256: str = ""


# --------------------------------------------------------------------------- #
# The work loop
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class GetBatch:
    plan_id: str
    worker_id: str


@dataclass(frozen=True)
class Batch:
    """A leased batch of cells; the lease is released by :class:`Results`
    or requeued when the worker dies.

    ``trace`` (v4) is the plan span's
    :class:`~repro.obs.tracing.SpanContext` when the coordinator side
    runs under an active trace collection: the worker parents its batch
    and cell spans to it and ships them back in :attr:`Results.spans`.
    ``None`` (the default, and the only value when tracing is off) asks
    the worker to create no spans at all.
    """

    plan_id: str
    cells: tuple
    trace: object | None = None


@dataclass(frozen=True)
class Idle:
    """Queue empty but results still outstanding; poll again after *delay*."""

    delay: float = 0.05


@dataclass(frozen=True)
class PlanDone:
    """The plan (by id) is complete or no longer active."""

    plan_id: str


@dataclass(frozen=True)
class Results:
    """Worker → coordinator: one batch's cell results.

    ``spans`` (v4) carries the worker's finished batch/cell
    :class:`~repro.obs.tracing.Span` objects when the :class:`Batch`
    shipped a ``trace`` context; ``metrics`` (v4) a
    :class:`~repro.obs.metrics.MetricsSnapshot` of the worker's
    registry, folded into the coordinator's fleet-wide view.
    """

    plan_id: str
    worker_id: str
    results: tuple
    spans: tuple = ()
    metrics: object | None = None


@dataclass(frozen=True)
class Ack:
    """Coordinator → worker: results recorded."""


@dataclass(frozen=True)
class Heartbeat:
    """Fire-and-forget liveness signal; resets the coordinator's lease timer.

    ``metrics`` (v4) is a :class:`~repro.obs.metrics.MetricsSnapshot`
    of the worker's counters (``direct_fetches``, ``relay_fetches``,
    ``reconnects``, cells completed, ...), so the coordinator exposes
    per-worker and aggregate fleet gauges on its status port even while
    cells are still computing.
    """

    worker_id: str
    metrics: object | None = None
