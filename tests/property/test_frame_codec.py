"""Property: the wire framing survives arbitrary TCP re-chunking.

TCP is a byte stream with no framing of its own — one ``send`` may
arrive as many reads, many sends as one.  The frame reader every
asyncio speaker uses, :func:`read_frame_async`, must therefore yield
*exactly* the frames that were encoded no matter where the stream is
cut: byte-at-a-time, coalesced across frame boundaries, or split inside
a length prefix.  (The historical bug class this pins down: a receive
loop that retried a partial read "from the top" desynchronised the
stream and every subsequent frame decoded as garbage.)

Also here: the chunked-response codec — ``split_response`` →
``ChunkAssembler`` is the identity on any response, at any chunk size.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.service.net import (
    HEADER,
    MAX_FRAME_BYTES,
    ChunkAssembler,
    encode_frame,
    read_frame_async,
    split_response,
)

# JSON-representable frame bodies (no floats: equality after a JSON
# round trip must be exact).
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**31), max_value=2**31)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)
frame_objects = st.dictionaries(st.text(max_size=8), json_values, max_size=4)


def cut_stream(stream, cuts):
    """Slice ``stream`` at the (sorted) cut offsets — a synthetic
    sequence of TCP reads, from byte-at-a-time to fully coalesced."""
    points = sorted(set(cuts))
    bounds = [0, *points, len(stream)]
    return [stream[a:b] for a, b in zip(bounds, bounds[1:])]


def read_all(pieces):
    """Feed ``pieces`` to a stream one per event-loop turn while
    :func:`read_frame_async` consumes it, then EOF; returns the frames
    read (or raises what the reader raised)."""

    async def run():
        reader = asyncio.StreamReader()

        async def feed():
            for piece in pieces:
                reader.feed_data(piece)
                await asyncio.sleep(0)
            reader.feed_eof()

        feeder = asyncio.create_task(feed())
        frames = []
        try:
            while True:
                frame = await asyncio.wait_for(read_frame_async(reader), 5.0)
                if frame is None:
                    return frames
                frames.append(frame)
        finally:
            await feeder

    return asyncio.run(run())


class TestAsyncFrameReader:
    @settings(max_examples=120, deadline=None)
    @given(frames=st.lists(frame_objects, max_size=6), data=st.data())
    def test_random_fragmentation_never_desyncs(self, frames, data):
        stream = b"".join(encode_frame(frame) for frame in frames)
        cuts = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(stream)), max_size=24
            )
        )
        assert read_all(cut_stream(stream, cuts)) == frames

    def test_byte_at_a_time(self):
        frames = [{"v": 2, "id": 1, "op": "ping"}, {"v": 2, "ok": True}]
        stream = b"".join(encode_frame(frame) for frame in frames)
        pieces = [stream[index : index + 1] for index in range(len(stream))]
        assert read_all(pieces) == frames

    def test_eof_mid_frame_is_a_protocol_error(self):
        stream = encode_frame({"id": 1})
        assert read_all([stream]) == [{"id": 1}]  # EOF at a boundary: clean
        for cut in (1, 3, len(stream) - 1):  # a partial prefix counts
            with pytest.raises(ProtocolError, match="mid-frame"):
                read_all([stream[:cut]])

    def test_oversized_length_prefix_is_rejected_up_front(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(HEADER.pack(MAX_FRAME_BYTES + 1))  # no payload, no EOF
            await asyncio.wait_for(read_frame_async(reader), 5.0)

        with pytest.raises(ProtocolError):
            asyncio.run(run())

    def test_garbage_payload_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            read_all([HEADER.pack(4) + b"\xff\xfe\xfd\xfc"])


class TestChunkCodecRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(
        text=st.text(alphabet="abc é☃", max_size=400),
        chunk_bytes=st.integers(min_value=1, max_value=64),
        seq=st.integers(min_value=0, max_value=1000),
    )
    def test_text_response_roundtrips_at_any_chunk_size(
        self, text, chunk_bytes, seq
    ):
        response = {"v": 2, "id": 7, "ok": True, "text": text, "seq": seq}
        frames = split_response(dict(response), chunk_bytes)
        assembler = ChunkAssembler()
        outcomes = [assembler.feed(frame) for frame in frames]
        assert all(item is None for item in outcomes[:-1])
        rebuilt = outcomes[-1]
        assert rebuilt["text"] == text
        assert rebuilt["seq"] == seq
        assert rebuilt["id"] == 7 and rebuilt["ok"] is True

    @settings(max_examples=120, deadline=None)
    @given(
        results=st.lists(st.text(alphabet="xyz<>/", max_size=30), max_size=30),
        chunk_bytes=st.integers(min_value=1, max_value=64),
    )
    def test_results_response_roundtrips_at_any_chunk_size(
        self, results, chunk_bytes
    ):
        response = {"v": 2, "id": 3, "ok": True, "results": list(results)}
        frames = split_response(dict(response), chunk_bytes)
        assembler = ChunkAssembler()
        rebuilt = None
        for frame in frames:
            rebuilt = assembler.feed(frame)
        assert rebuilt["results"] == results

    def test_out_of_order_chunk_is_a_protocol_error(self):
        frames = split_response(
            {"v": 2, "id": 1, "ok": True, "text": "z" * 64}, 16
        )
        assert len(frames) >= 3
        assembler = ChunkAssembler()
        assembler.feed(frames[0])
        with pytest.raises(ProtocolError):
            assembler.feed(frames[2])  # skipped frames[1]

    def test_small_and_error_responses_pass_through_untouched(self):
        small = {"v": 2, "id": 2, "ok": True, "text": "t" * 16}
        assert split_response(dict(small), 16) == [small]
        failed = {
            "v": 2,
            "id": 2,
            "ok": False,
            "error": {"code": "ERROR", "message": "m" * 4096},
        }
        assert split_response(dict(failed), 16) == [failed]
        assert ChunkAssembler().feed(dict(small)) == small
