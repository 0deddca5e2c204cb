"""Network front end for the update service.

* :mod:`~repro.service.net.core` — the transport-agnostic framing
  codec (length-prefixed JSON frames, chunked responses, error-code
  mapping, the single wire version);
* :mod:`~repro.service.net.handlers` — the request
  :class:`~repro.service.net.handlers.Dispatcher`;
* :mod:`~repro.service.net.aio` — the server,
  :class:`AsyncNetServer` (pipelined frames, 10k+ connections), and
  the async client, :class:`AsyncServiceClient`;
* :mod:`~repro.service.net.client` — :class:`ServiceClient`, the
  blocking, thread-safe façade over the async client.
"""

from repro.service.net.aio import (
    AsyncNetServer,
    AsyncServiceClient,
    read_frame_async,
    write_frame_async,
)
from repro.service.net.core import (
    DEFAULT_CHUNK_BYTES,
    ERROR_CODES,
    HEADER,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    ChunkAssembler,
    decode_frame_payload,
    encode_frame,
    error_frame,
    error_to_exception,
    parse_address,
    recv_frame,
    send_frame,
    split_response,
)
from repro.service.net.client import ServiceClient
from repro.service.net.handlers import Dispatcher

__all__ = [
    "AsyncNetServer",
    "AsyncServiceClient",
    "ChunkAssembler",
    "DEFAULT_CHUNK_BYTES",
    "Dispatcher",
    "ERROR_CODES",
    "HEADER",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "ServiceClient",
    "decode_frame_payload",
    "encode_frame",
    "error_frame",
    "error_to_exception",
    "parse_address",
    "read_frame_async",
    "recv_frame",
    "send_frame",
    "split_response",
    "write_frame_async",
]
