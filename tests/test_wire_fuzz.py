"""Property tests for the fleet wire's decoders on hostile input.

Any byte string handed to :func:`repro.distributed.codec.decode_value`
must come back as a value or a :class:`~repro.distributed.codec.CodecError`,
and any byte stream a peer writes before closing its end must make
:func:`repro.distributed.protocol.recv_message` return a message or raise
:class:`~repro.distributed.protocol.ProtocolError` or
:class:`~repro.distributed.protocol.ConnectionClosed` — never another
exception and never a hang.  Besides raw bytes, the strategies build
well-framed nested values from the codec's own tags, including dicts keyed
by containers and registered structs whose fields carry the wrong types.
"""

from __future__ import annotations

import socket
import struct
import time
import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import codec, protocol

#: Seconds any one decode may take; inputs are a few hundred bytes.
_BOUND_S = 2.0

codec._load_registry()
_STRUCT_FIELDS = {tag: sorted(allowed) for tag, (_, allowed, _) in codec._STRUCTS.items()}


def _u32(n: int) -> bytes:
    return struct.pack(">I", n)


def _text(value: str) -> bytes:
    data = value.encode("utf-8")
    return _u32(len(data)) + data


def _bigint(value: int) -> bytes:
    data = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
    return b"I" + _u32(len(data)) + data


_primitives = st.one_of(
    st.sampled_from([b"N", b"T", b"F"]),
    st.integers(-(2**63), 2**63 - 1).map(lambda i: b"i" + struct.pack(">q", i)),
    st.integers(-(2**80), 2**80).map(_bigint),
    st.floats(allow_nan=True).map(lambda f: b"f" + struct.pack(">d", f)),
    st.text(max_size=8).map(lambda s: b"s" + _text(s)),
    st.binary(max_size=8).map(lambda b: b"b" + struct.pack(">Q", len(b)) + b),
)


def _struct(children):
    """A registered struct tag with every field (some dropped), any types."""
    def build(tag):
        names = _STRUCT_FIELDS[tag] or ["absent"]
        return st.lists(st.tuples(st.sampled_from(names), children),
                        max_size=len(names) + 1).map(
            lambda pairs: b"S" + _text(tag) + _u32(len(pairs))
            + b"".join(_text(name) + value for name, value in pairs))

    return st.sampled_from(sorted(_STRUCT_FIELDS)).flatmap(build)


def _containers(children):
    items = st.lists(children, max_size=4)
    return st.one_of(
        items.map(lambda xs: b"t" + _u32(len(xs)) + b"".join(xs)),
        items.map(lambda xs: b"l" + _u32(len(xs)) + b"".join(xs)),
        st.lists(st.tuples(children, children), max_size=3).map(
            lambda pairs: b"d" + _u32(len(pairs)) + b"".join(k + v for k, v in pairs)),
        _struct(children),
    )


#: Well-formed encodings of nested values the schema may or may not accept.
encoded_values = st.recursive(_primitives, _containers, max_leaves=24)

#: Encodings cut short or followed by junk.
damaged_values = st.tuples(encoded_values, st.integers(0, 64), st.binary(max_size=8)).map(
    lambda t: t[0][:max(0, len(t[0]) - t[1])] + t[2])


def _decodes_or_codec_error(buf: bytes) -> None:
    start = time.perf_counter()
    try:
        codec.decode_value(buf)
    except codec.CodecError:
        pass
    assert time.perf_counter() - start < _BOUND_S


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=256))
def test_decode_value_on_raw_bytes(buf):
    _decodes_or_codec_error(buf)


@settings(max_examples=400, deadline=None)
@given(st.one_of(encoded_values, damaged_values))
def test_decode_value_on_nested_tags(buf):
    _decodes_or_codec_error(buf)


def _frame(payload: bytes, crc: int | None, flags: int, length: int | None) -> bytes:
    header = protocol._HEADER.pack(
        len(payload) if length is None else length,
        zlib.crc32(payload) if crc is None else crc, flags)
    return header + payload


frames = st.one_of(
    st.binary(max_size=64),
    st.builds(_frame, st.one_of(encoded_values, damaged_values),
              st.one_of(st.none(), st.integers(0, 2**32 - 1)),
              st.sampled_from([0, 0, protocol.FLAG_SIGNED, 0x80]),
              st.one_of(st.none(), st.none(), st.integers(0, 2**64 - 1))),
)


@settings(max_examples=300, deadline=None)
@given(frames)
def test_recv_message_on_a_closed_stream(data):
    reader, writer = socket.socketpair()
    try:
        reader.settimeout(_BOUND_S)  # a hang fails as socket.timeout
        writer.sendall(data)
        writer.close()
        start = time.perf_counter()
        try:
            protocol.recv_message(reader, max_bytes=protocol.MAX_HELLO_BYTES)
        except (protocol.ProtocolError, protocol.ConnectionClosed):
            pass
        assert time.perf_counter() - start < _BOUND_S
    finally:
        reader.close()
        writer.close()
