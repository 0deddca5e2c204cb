"""The framing core shared by every speaker of the wire protocol.

Three parties speak the same frames — the asyncio server, the async
client (which the blocking client wraps), and the shard router: a
4-byte big-endian unsigned length prefix followed by that many bytes
of UTF-8 JSON.  This module owns everything protocol-shaped and
transport-agnostic:

* the constants (:data:`MAX_FRAME_BYTES`, :data:`HEADER`,
  :data:`PROTOCOL_VERSION`) and the error-code ↔ exception mapping;
* byte-level encode/decode (:func:`encode_frame`,
  :func:`decode_frame_payload`) plus small blocking socket helpers
  (:func:`send_frame`, :func:`recv_frame`) for raw-socket probes;
* chunked responses: :func:`split_response` turns one large response
  into a sequence of bounded chunk frames, and :class:`ChunkAssembler`
  reassembles them on the client.

**Version.**  There is one wire version, 2; a request naming any other
is answered ``BAD_REQUEST``.  The server may answer a ``query`` whose
payload exceeds its chunk threshold with a sequence of frames
``{"id": N, "ok": true, "chunk": i, "more": true, ...part...}``
terminated by a ``"more": false`` frame carrying the final part (and
any scalar result fields).  Every chunk is bounded, so an 8 MiB
outer-union result streams as ~32 × 256 KiB frames instead of one
allocation at the cap.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Iterator, Optional

from repro.errors import (
    ProtocolError,
    ServiceBusyError,
    ServiceClosedError,
    ServiceError,
    ServiceTimeoutError,
)

#: The wire version every request and response carries.
PROTOCOL_VERSION = 2
#: Versions a server accepts.
SUPPORTED_VERSIONS = (PROTOCOL_VERSION,)

MAX_FRAME_BYTES = 8 * 1024 * 1024
#: Payload bound for one chunk of a streamed response.
DEFAULT_CHUNK_BYTES = 256 * 1024
HEADER = struct.Struct(">I")

#: Wire error codes and the exception each maps back to on the client.
ERROR_CODES: dict[str, type] = {
    "BUSY": ServiceBusyError,
    "TIMEOUT": ServiceTimeoutError,
    "CLOSED": ServiceClosedError,
    "BAD_REQUEST": ProtocolError,
    "ERROR": ServiceError,
}


def error_code(error: Exception) -> str:
    if isinstance(error, ServiceBusyError):
        return "BUSY"
    if isinstance(error, ServiceTimeoutError):
        return "TIMEOUT"
    if isinstance(error, ServiceClosedError):
        return "CLOSED"
    if isinstance(error, ProtocolError):
        return "BAD_REQUEST"
    return "ERROR"


def error_to_exception(record: object) -> ServiceError:
    """Rebuild the typed exception a wire error record describes."""
    if not isinstance(record, dict):
        return ServiceError(f"malformed server error record: {record!r}")
    code = record.get("code", "ERROR")
    message = record.get("message", "unknown server error")
    cls = ERROR_CODES.get(code, ServiceError)
    return cls(message)


def error_frame(request_id: int, error: Exception) -> dict:
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": False,
        "error": {
            "code": error_code(error),
            "message": str(error),
            "retryable": isinstance(error, ServiceBusyError),
        },
    }


# ----------------------------------------------------------------------
# Byte-level codec
# ----------------------------------------------------------------------
def encode_frame(obj: dict) -> bytes:
    """One frame as bytes: length prefix + canonical JSON."""
    data = json.dumps(obj, separators=(",", ":"), sort_keys=True).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(data)} bytes exceeds {MAX_FRAME_BYTES}")
    return HEADER.pack(len(data)) + data


def decode_frame_payload(payload: bytes) -> dict:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except ValueError as error:
        raise ProtocolError(f"frame is not valid JSON: {error}") from error
    if not isinstance(obj, dict):
        raise ProtocolError("frame must be a JSON object")
    return obj


# ----------------------------------------------------------------------
# Blocking socket I/O (raw-socket probes and stand-in servers)
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket, obj: dict) -> None:
    sock.sendall(encode_frame(obj))


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; None on EOF at a frame boundary."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if chunks:
                raise ProtocolError("connection closed mid-frame")
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[dict]:
    """Read one frame; None on clean EOF between frames."""
    header = _recv_exact(sock, HEADER.size)
    if header is None:
        return None
    (length,) = HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ProtocolError("connection closed mid-frame")
    return decode_frame_payload(payload)


def parse_address(text: str) -> tuple[str, int]:
    """``HOST:PORT`` → ``(host, port)`` (for ``--listen`` / ``--addr``)."""
    host, separator, port = text.rpartition(":")
    if not separator or not host:
        raise ProtocolError(f"address {text!r} is not HOST:PORT")
    try:
        return host.strip("[]"), int(port)
    except ValueError:
        raise ProtocolError(f"address {text!r} has a non-numeric port") from None


# ----------------------------------------------------------------------
# Chunked (streaming) responses
# ----------------------------------------------------------------------
#: The response fields a server may stream.  ``text`` parts are string
#: slices (concatenated on reassembly); ``results`` parts are list
#: slices (extended on reassembly).
_CHUNKABLE_FIELDS = ("text", "results")


def _payload_size(response: dict) -> int:
    text = response.get("text")
    if isinstance(text, str):
        return len(text)
    results = response.get("results")
    if isinstance(results, list):
        return sum(len(item) + 2 for item in results if isinstance(item, str))
    return 0


def _iter_parts(response: dict, chunk_bytes: int) -> Iterator[tuple[str, object]]:
    text = response.get("text")
    if isinstance(text, str):
        for start in range(0, len(text), chunk_bytes):
            yield "text", text[start : start + chunk_bytes]
        return
    results = response.get("results")
    assert isinstance(results, list)
    part: list = []
    size = 0
    for item in results:
        part.append(item)
        size += (len(item) + 2) if isinstance(item, str) else 64
        if size >= chunk_bytes:
            yield "results", part
            part, size = [], 0
    if part or not results:
        yield "results", part


def split_response(
    response: dict, chunk_bytes: int = DEFAULT_CHUNK_BYTES
) -> list[dict]:
    """One response → the frame sequence to send.

    Returns ``[response]`` untouched unless the response is a success
    whose streamable payload (``text`` or ``results``) exceeds
    ``chunk_bytes`` — then a list of bounded chunk frames, each
    carrying a ``chunk`` ordinal and ``more`` flag, the final one also
    carrying every non-streamed field of the original response.
    """
    if not response.get("ok", False) or _payload_size(response) <= chunk_bytes:
        return [response]
    parts = list(_iter_parts(response, chunk_bytes))
    frames: list[dict] = []
    base = {"v": PROTOCOL_VERSION, "id": response.get("id", 0), "ok": True}
    for index, (field, part) in enumerate(parts):
        last = index == len(parts) - 1
        frame = dict(response) if last else dict(base)
        frame.update({"chunk": index, "more": not last, field: part})
        frames.append(frame)
    return frames


class ChunkAssembler:
    """Client-side reassembly of one request's chunked response.

    Feed every frame that echoes the request id; :meth:`feed` returns
    the complete response once it has one (immediately, for the common
    un-chunked single frame) and None while parts are still due.
    """

    def __init__(self) -> None:
        self._text: list[str] = []
        self._results: list = []
        self._expect = 0

    def feed(self, frame: dict) -> Optional[dict]:
        if "chunk" not in frame:
            return frame
        if frame.get("chunk") != self._expect:
            raise ProtocolError(
                f"response chunk {frame.get('chunk')!r} arrived out of order "
                f"(expected {self._expect})"
            )
        self._expect += 1
        text = frame.get("text")
        if isinstance(text, str):
            self._text.append(text)
        results = frame.get("results")
        if isinstance(results, list):
            self._results.extend(results)
        if frame.get("more", False):
            return None
        merged = {
            key: value
            for key, value in frame.items()
            if key not in ("chunk", "more", *_CHUNKABLE_FIELDS)
        }
        if self._text:
            merged["text"] = "".join(self._text)
        if self._results or "results" in frame:
            merged["results"] = self._results
        return merged
