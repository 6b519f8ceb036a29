"""Wire-protocol unit tests: framing, round-trips, malformed rejection.

Every frame type registered in ``MESSAGE_TYPES`` must survive
encode → decode exactly (equality is field equality, with packed arrays
compared by dtype, shape and values), and every malformed input must be
rejected with the documented error code — these are the docs/PROTOCOL.md
guarantees a client is allowed to rely on.
"""

import base64
import dataclasses
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.dynamic.events import UpdateBatch
from repro.serve import protocol as wire
from repro.simulator.network import MAX_NODES


def b64(data: bytes) -> str:
    return base64.b64encode(data).decode()


def roundtrip(frame: wire.Frame) -> wire.Frame:
    out = wire.read_frame(io.BytesIO(wire.encode_frame(frame)))
    assert out is not None
    return out


SAMPLE_FRAMES = [
    wire.Hello(id=1, versions=[2], client="test"),
    wire.LoadGraph(id=2, n=4, edges=[[0, 1], [2, 3]], config={"seed": 9}),
    wire.UpdateBatchFrame(
        id=3, insert_edges=[[0, 2]], delete_edges=[[2, 3]],
        arrivals=[1], departures=[3],
    ),
    wire.QueryColors(id=4, nodes=[0, 1]),
    wire.QueryColors(id=5, nodes=None),
    wire.QueryPalette(id=6, node=2),
    wire.StatsRequest(id=7),
    wire.MetricsRequest(id=21),
    wire.SnapshotRequest(id=8, path="/tmp/x.npz"),
    wire.SnapshotRequest(id=9, path=None),
    wire.Shutdown(id=10),
    wire.Ping(id=19),
    wire.Pong(id=20),
    wire.Welcome(id=11, v=2, server="repro-serve/x", n=4),
    wire.GraphLoaded(id=12, n=4, m=2, delta=1, colors_used=2,
                     initial_rounds=7, seconds=0.25, initial="sharded"),
    wire.BatchReportFrame(ids=[3, 4], coalesced=2, report={"mode": "repair"}),
    wire.ColorsReply(id=13, nodes=[0, 1], colors=[1, 0],
                     proper=True, complete=False),
    wire.PaletteReply(id=14, node=2, color=1, num_colors=3, free=[0, 2]),
    wire.StatsReply(id=15, stats={"batches_applied": 2}),
    wire.MetricsReply(id=22, text="# TYPE x counter\nx 1\n"),
    wire.SnapshotSaved(id=16, path="/tmp/x.npz", batch_index=5, bytes=1024),
    wire.Goodbye(id=17),
    wire.ErrorFrame(id=18, code="queue-full", message="full", retry_after=0.05),
    wire.ErrorFrame(id=None, code="internal", message="boom"),
]


SAMPLE_BY_TYPE = {f.TYPE: f for f in SAMPLE_FRAMES}
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
PACKED = [
    (cls.TYPE, name, shape)
    for cls, schema in wire._SCHEMA.items()
    for name, _, _, shape in schema
    if shape is not None
]
"""(type, field, shape) of every packed field."""


class TestRegistry:
    def test_every_request_has_a_type(self):
        assert len(wire.REQUEST_TYPES) == 10
        assert all(cls.TYPE == key for key, cls in wire.REQUEST_TYPES.items())

    def test_every_response_has_a_type(self):
        assert len(wire.RESPONSE_TYPES) == 11
        assert all(cls.TYPE == key for key, cls in wire.RESPONSE_TYPES.items())

    def test_registries_are_disjoint_and_union(self):
        assert not set(wire.REQUEST_TYPES) & set(wire.RESPONSE_TYPES)
        assert wire.MESSAGE_TYPES == {**wire.REQUEST_TYPES, **wire.RESPONSE_TYPES}

    def test_samples_cover_every_type(self):
        covered = {f.TYPE for f in SAMPLE_FRAMES}
        assert covered == set(wire.MESSAGE_TYPES)

    def test_error_codes_are_unique(self):
        assert len(set(wire.ERROR_CODES)) == len(wire.ERROR_CODES)

    def test_protocol_error_rejects_unknown_code(self):
        with pytest.raises(ValueError):
            wire.ProtocolError("not-a-code", "x")

    def test_field_without_a_wire_check_is_refused(self):
        @dataclasses.dataclass(frozen=True)
        class Odd(wire.Frame):
            # A string, as protocol.py's postponed annotations are.
            when: "set[int]" = dataclasses.field(default_factory=set)

        with pytest.raises(TypeError, match="no wire check"):
            wire._schema(Odd)

    def test_required_names_a_field(self):
        @dataclasses.dataclass(frozen=True)
        class Odd(wire.Frame):
            REQUIRED = ("id", "nodes")

        with pytest.raises(TypeError, match="REQUIRED"):
            wire._schema(Odd)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "frame", SAMPLE_FRAMES, ids=lambda f: f"{f.TYPE}-{f.id}"
    )
    def test_encode_decode_is_identity(self, frame):
        assert roundtrip(frame) == frame

    def test_wire_bytes_are_json_lines(self):
        raw = wire.encode_frame(wire.Hello(id=1))
        body = raw[4:]
        assert body.endswith(b"\n")
        assert json.loads(body)["type"] == "hello"
        assert struct.unpack(">I", raw[:4])[0] == len(body)

    @pytest.mark.parametrize("kind, name, shape", PACKED, ids=str)
    @pytest.mark.parametrize("values", [
        [], [0], [INT64_MIN, INT64_MAX], [INT64_MAX, -1, 0, INT64_MIN],
    ], ids=["empty", "zero", "bounds", "mixed"])
    def test_packed_field_round_trips(self, kind, name, shape, values):
        if len(shape) == 2 and len(values) % 2:
            values = values + values  # a whole number of pairs
        frame = dataclasses.replace(SAMPLE_BY_TYPE[kind], **{name: values})
        again = roundtrip(frame)
        assert again == frame
        got = getattr(again, name)
        assert got.dtype == np.int64 and not got.flags.writeable
        assert got.reshape(-1).tolist() == values
        assert got.shape == ((len(values),) if len(shape) == 1 else (len(values) // 2, 2))

    def test_packed_wire_format(self):
        """Standard padded base64 of little-endian int64, pairs row-major;
        an empty array is the empty string and an absent optional one
        stays null."""
        payload = json.loads(wire.encode_frame(wire.UpdateBatchFrame(
            id=1, insert_edges=[[1, 2], [3, -4]], arrivals=[2**40],
        ))[4:])
        packed = np.array([1, 2, 3, -4], dtype="<i8").tobytes()
        assert payload["insert_edges"] == b64(packed)
        assert payload["arrivals"] == b64((2**40).to_bytes(8, "little"))
        assert payload["delete_edges"] == payload["departures"] == ""
        assert json.loads(wire.encode_frame(wire.QueryColors(id=2))[4:])["nodes"] is None

    def test_frame_equality_is_exact(self):
        assert wire.QueryColors(id=1, nodes=[1, 2]) != wire.QueryColors(id=1, nodes=[2, 1])
        assert wire.QueryColors(id=1, nodes=[]) != wire.QueryColors(id=1, nodes=None)
        assert wire.UpdateBatchFrame(insert_edges=[[0, 1]]) != wire.UpdateBatchFrame(
            delete_edges=[[0, 1]]
        )
        assert not wire._same(np.zeros(2, np.int64), np.zeros(2, np.int32))
        assert not wire._same(np.zeros(2, np.int64), np.zeros((1, 2), np.int64))

    def test_frames_hold_read_only_views(self):
        batch = UpdateBatch(insert_edges=[[0, 1]], arrivals=[4])
        frame = wire.UpdateBatchFrame.from_batch(batch, id=3)
        assert np.shares_memory(frame.insert_edges, batch.insert_edges)
        assert not frame.insert_edges.flags.writeable
        assert batch.insert_edges.flags.writeable  # the caller's array is untouched
        decoded = roundtrip(frame)
        with pytest.raises(ValueError):
            decoded.arrivals[0] = 5

    def test_update_batch_frame_to_engine_batch(self):
        batch = UpdateBatch(insert_edges=[[0, 1]], departures=[5])
        frame = roundtrip(wire.UpdateBatchFrame.from_batch(batch, id=7))
        again = frame.batch
        assert again.insert_edges.tolist() == [[0, 1]]
        assert again.departures.tolist() == [5]

    def test_stream_of_frames(self):
        buf = io.BytesIO()
        for frame in SAMPLE_FRAMES:
            wire.write_frame(buf, frame)
        buf.seek(0)
        got = []
        while (frame := wire.read_frame(buf)) is not None:
            got.append(frame)
        assert got == SAMPLE_FRAMES

    def test_error_frame_to_exception(self):
        exc = wire.ErrorFrame(id=3, code="queue-full", retry_after=0.1).to_exception()
        assert exc.code == "queue-full"
        assert exc.retry_after == 0.1
        assert exc.id == 3


def encode_raw(obj) -> bytes:
    body = json.dumps(obj).encode() + b"\n"
    return struct.pack(">I", len(body)) + body


class TestMalformed:
    def expect(self, raw: bytes, code: str):
        with pytest.raises(wire.ProtocolError) as err:
            wire.read_frame(io.BytesIO(raw))
        assert err.value.code == code

    def test_truncated_header(self):
        self.expect(b"\x00\x00", "bad-frame")

    def test_truncated_body(self):
        raw = wire.encode_frame(wire.Hello(id=1))
        self.expect(raw[:-5], "bad-frame")

    def test_oversized_length_prefix(self):
        self.expect(struct.pack(">I", wire.MAX_FRAME_BYTES + 1), "frame-too-large")

    def test_body_not_json(self):
        body = b"this is not json\n"
        self.expect(struct.pack(">I", len(body)) + body, "bad-frame")

    def test_body_not_an_object(self):
        self.expect(encode_raw([1, 2, 3]), "bad-frame")

    def test_missing_type(self):
        self.expect(encode_raw({"id": 1}), "bad-payload")

    def test_unknown_type(self):
        self.expect(encode_raw({"type": "warp-core", "id": 1}), "bad-type")

    def test_missing_id(self):
        self.expect(encode_raw({"type": "hello", "versions": [1]}), "bad-payload")

    def test_wrong_field_type(self):
        self.expect(
            encode_raw({"type": "hello", "id": 1, "versions": "one"}), "bad-payload"
        )

    def test_bool_is_not_an_int(self):
        # JSON true must not satisfy an int-typed field.
        self.expect(
            encode_raw({"type": "query_palette", "id": 1, "node": True}),
            "bad-payload",
        )

    def test_bad_edge_pairs(self):
        # Version-1 lists, then their packed counterparts: three int64s
        # (not a whole number of pairs) and a character outside base64.
        for value in ([[0, 1, 2]], [[0, "x"]],
                      b64(np.array([0, 1, 2], dtype="<i8").tobytes()),
                      "AAAAAAAAAAABAAAAAAAAA!=="):
            self.expect(
                encode_raw({"type": "update_batch", "id": 1, "insert_edges": value}),
                "bad-payload",
            )

    def test_bad_node_list(self):
        # A version-1 list of a float, then a bare number and 7 bytes.
        for value in ([1.5], 1.5, b64(bytes(7))):
            self.expect(
                encode_raw({"type": "query_colors", "id": 1, "nodes": value}),
                "bad-payload",
            )

    @pytest.mark.parametrize("kind, name, shape", PACKED, ids=str)
    @pytest.mark.parametrize("value, problem", [
        (7, "must be a packed int64 array"),
        (True, "must be a packed int64 array"),
        (1.5, "must be a packed int64 array"),
        ({"a": 1}, "must be a packed int64 array"),
        ("AAAAAAAA!AA=", "is not strict base64"),
        ("AAAA AAAAAA=", "is not strict base64"),
        ("AAAAAAAAAAA\u00e9", "is not strict base64"),
        ("AAAAAAAAAAA", "is not strict base64"),
        ("AAAAAAAAAAA==", "is not strict base64"),
        ("=AAAAAAAAAAA", "is not strict base64"),
        (b64(bytes(7)), "holds 7 bytes, not a whole number"),
        (b64(bytes(20)), "holds 20 bytes, not a whole number"),
        # Version 1's JSON lists.
        ([[0, 1]], "must be a packed int64 array"),
        ([0, 1], "must be a packed int64 array"),
        ([], "must be a packed int64 array"),
    ], ids=lambda v: repr(v)[:24])
    def test_malformed_packed_field(self, kind, name, shape, value, problem):
        """Each corruption of each packed field is ``bad-payload`` naming
        the field and echoing the request's id."""
        payload = {**SAMPLE_BY_TYPE[kind].to_payload(), "id": 41, name: value}
        with pytest.raises(wire.ProtocolError) as err:
            wire.decode_payload(json.dumps(payload).encode())
        assert (err.value.code, err.value.id) == ("bad-payload", 41)
        assert f"field {name!r} {problem}" in err.value.message

    @pytest.mark.parametrize("kind, name, shape",
                             [p for p in PACKED if len(p[2]) == 2],
                             ids=str)
    @pytest.mark.parametrize("ints", [1, 3])
    def test_odd_int_count_in_pair_field(self, kind, name, shape, ints):
        # A whole number of int64s, but not of pairs.
        value = b64(bytes(8 * ints))
        payload = {**SAMPLE_BY_TYPE[kind].to_payload(), "id": 42, name: value}
        with pytest.raises(wire.ProtocolError) as err:
            wire.decode_payload(json.dumps(payload).encode())
        assert (err.value.code, err.value.id) == ("bad-payload", 42)
        assert f"field {name!r} holds {8 * ints} bytes" in err.value.message

    def test_nonpositive_n(self):
        self.expect(encode_raw({"type": "load_graph", "id": 1, "n": 0}),
                    "bad-payload")

    def test_n_beyond_pair_key_range(self):
        # An int64 n whose pair keys u·n + v would overflow: refused at
        # decode, naming n, before the daemon tries an O(n) allocation.
        with pytest.raises(wire.ProtocolError) as err:
            wire.decode_payload(json.dumps(
                {"type": "load_graph", "id": 3, "n": 2**40,
                 "edges": b64(np.array([0, 1], dtype="<i8").tobytes())}
            ).encode())
        assert (err.value.code, err.value.id) == ("bad-payload", 3)
        assert "n must be at most" in err.value.message
        frame = wire.LoadGraph(id=1, n=MAX_NODES)
        assert wire.LoadGraph.from_payload(frame.to_payload()) == frame

    def test_config_keys_must_be_strings(self):
        # json keys are always strings, but from_payload guards direct use.
        with pytest.raises(wire.ProtocolError) as err:
            wire.LoadGraph.from_payload(
                {"type": "load_graph", "id": 1, "n": 2, "config": {3: 4}}
            )
        assert err.value.code == "bad-payload"

    @pytest.mark.parametrize("payload, field", [
        ({"type": "update_batch", "id": 1, "insert_edges": [[0, 2**70]]},
         "insert_edges"),
        ({"type": "update_batch", "id": 1, "delete_edges": [[-(2**63) - 1, 0]]},
         "delete_edges"),
        ({"type": "update_batch", "id": 1, "arrivals": [2**63]}, "arrivals"),
        ({"type": "query_colors", "id": 1, "nodes": [-(2**70)]}, "nodes"),
        ({"type": "load_graph", "id": 1, "n": 4, "edges": [[0, 2**70]]}, "edges"),
        ({"type": "hello", "id": 1, "versions": [2, 2**63]}, "versions"),
        ({"type": "batch_report", "coalesced": 1, "report": {},
          "ids": [-(2**63) - 1]}, "ids"),
        ({"type": "query_palette", "id": 1, "node": 2**63}, "node"),
        ({"type": "stats", "id": 2**63}, "id"),
    ], ids=lambda v: v if isinstance(v, str) else v["type"])
    def test_integer_outside_int64(self, payload, field):
        # Regression: these used to decode; the daemon's int64 arrays
        # then overflowed on the update and query ids (`internal`).  A
        # packed field cannot hold such an integer, so its version-1
        # list is refused outright; an int or list[int] field refuses
        # the value.
        with pytest.raises(wire.ProtocolError) as err:
            wire.decode_payload(json.dumps(payload).encode())
        assert err.value.code == "bad-payload"
        assert repr(field) in err.value.message

    def test_int64_bounds_decode(self):
        lo, hi = -(2**63), 2**63 - 1
        frame = wire.UpdateBatchFrame(id=hi, insert_edges=[[lo, hi]], arrivals=[lo])
        assert roundtrip(frame) == frame

    def test_bad_field_echoes_request_id(self):
        with pytest.raises(wire.ProtocolError) as err:
            wire.decode_payload(
                json.dumps({"type": "query_colors", "id": 7, "nodes": "AAAA"}).encode()
            )
        assert (err.value.code, err.value.id) == ("bad-payload", 7)

    def test_oversized_integer_literal_is_bad_frame(self):
        # Past the interpreter's int-string limit json.loads raises a
        # plain ValueError, which used to escape the decoder.
        body = b'{"type": "stats", "id": ' + b"9" * 5000 + b"}\n"
        self.expect(struct.pack(">I", len(body)) + body, "bad-frame")

    def test_deeply_nested_body_is_bad_frame(self):
        body = b"[" * 100_000 + b"]" * 100_000 + b"\n"
        self.expect(struct.pack(">I", len(body)) + body, "bad-frame")

    @pytest.mark.parametrize("payload", [
        {"type": "graph_loaded", "id": 1, "n": 1, "m": 0, "delta": 0,
         "colors_used": 1, "initial_rounds": 1, "seconds": 10**400},
        {"type": "error", "id": 1, "code": "queue-full", "retry_after": 10**400},
    ], ids=lambda p: p["type"])
    def test_float_field_refuses_huge_integer(self, payload):
        # float(10**400) raised OverflowError inside the client's decoder.
        self.expect(encode_raw(payload), "bad-payload")

    def test_bool_is_not_a_number(self):
        self.expect(
            encode_raw({"type": "error", "id": 1, "code": "queue-full",
                        "retry_after": True}),
            "bad-payload",
        )

    def test_bool_id_is_not_echoed(self):
        with pytest.raises(wire.ProtocolError) as err:
            wire.read_frame(io.BytesIO(encode_raw({"type": "warp-core", "id": True})))
        assert (err.value.code, err.value.id) == ("bad-type", None)

    def test_unknown_error_code_on_wire(self):
        self.expect(
            encode_raw({"type": "error", "id": 1, "code": "nope"}), "bad-payload"
        )

    def test_oversized_frame_refused_on_encode(self):
        # Packed, 3 ids take 32 base64 bytes: just past the ceiling.
        ids = wire.MAX_FRAME_BYTES * 3 // 32 + 1
        huge = wire.QueryColors(id=1, nodes=np.zeros(ids, dtype=np.int64))
        with pytest.raises(wire.ProtocolError) as err:
            wire.encode_frame(huge)
        assert err.value.code == "frame-too-large"

    def test_clean_eof_is_none(self):
        assert wire.read_frame(io.BytesIO(b"")) is None


# ----------------------------------------------------------------------
# The schema under arbitrary JSON
# ----------------------------------------------------------------------
# A fixed alphabet with JSON's escapes, non-ASCII and a lone surrogate:
# st.text()'s full-Unicode table takes seconds to build on a fresh
# checkout, which trips Hypothesis's too_slow health check.
TEXT = st.text(alphabet="az \"\\\x00\x1f\u00e9\u2603\U0001f600\ud800")
WIDE_INTS = st.integers(-(2**70), 2**70) | st.sampled_from(
    [INT64_MIN - 1, INT64_MIN, INT64_MAX, INT64_MAX + 1]
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | WIDE_INTS | TEXT
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(wire.ERROR_CODES),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=12,
)


def corrupt(case: tuple[bytes, str, int]) -> str:
    """Valid base64 of ``data`` with ``char`` inserted at ``at``."""
    data, char, at = case
    text = b64(data)
    at %= len(text) + 1
    return text[:at] + char + text[at:]


# Valid packed strings of any entry count (an odd count is a corrupt
# pair field), arbitrary byte lengths, a stray non-alphabet or padding
# character, and stripped padding.
PACKED_VALUES = (
    st.lists(st.integers(INT64_MIN, INT64_MAX), max_size=6).map(
        lambda xs: b64(np.array(xs, dtype="<i8").tobytes())
    )
    | st.binary(max_size=40).map(b64)
    | st.tuples(
        st.binary(min_size=1, max_size=24),
        st.sampled_from(["!", " ", "=", "-", "_", "\n", "\u00e9"]),
        st.integers(0, 40),
    ).map(corrupt)
    | st.binary(min_size=1, max_size=24).map(lambda data: b64(data).rstrip("="))
)
# Bare ints, packed strings and well-typed lists first, so the happy path
# of every int field is reached often.
FIELD_VALUES = (
    WIDE_INTS
    | PACKED_VALUES
    | st.lists(WIDE_INTS, max_size=5)
    | JSON_VALUES
)


@st.composite
def payloads(draw):
    """A payload of a registered type whose fields, each present or not,
    hold arbitrary JSON values."""
    kind = draw(st.sampled_from(sorted(wire.MESSAGE_TYPES)))
    names = [f.name for f in dataclasses.fields(wire.MESSAGE_TYPES[kind])]
    body = draw(st.fixed_dictionaries({}, optional=dict.fromkeys(names, FIELD_VALUES)))
    return {"type": kind, **body}


def typed_ints(frame: wire.Frame):
    """Every int held by the frame's int and ``list[int]`` fields
    (``dict`` fields carry opaque JSON, packed fields int64 arrays)."""
    todo = [getattr(frame, f.name) for f in dataclasses.fields(frame)]
    while todo:
        value = todo.pop()
        if isinstance(value, list):
            todo.extend(value)
        elif type(value) is int:
            yield value


def assert_packed_arrays(frame: wire.Frame) -> None:
    """Every packed field holds a read-only int64 array of its shape."""
    for name, _, _, shape in wire._SCHEMA[type(frame)]:
        value = getattr(frame, name)
        if shape is not None and value is not None:
            assert value.dtype == np.int64 and not value.flags.writeable
            assert value.ndim == len(shape) and value.shape[1:] == shape[1:]


class TestSchemaProperty:
    @given(payload=payloads())
    @example(payload={"type": "stats", "id": 2**63})
    def test_arbitrary_payload_is_refused_or_round_trips(self, payload):
        try:
            frame = wire.decode_payload(json.dumps(payload).encode())
        except wire.ProtocolError as err:
            assert err.code == "bad-payload"
            return
        assert type(frame) is wire.MESSAGE_TYPES[payload["type"]]
        assert all(INT64_MIN <= x <= INT64_MAX for x in typed_ints(frame))
        assert_packed_arrays(frame)
        assert roundtrip(frame) == frame

    @pytest.mark.parametrize("kind, name, shape", PACKED, ids=str)
    @given(value=PACKED_VALUES)
    def test_packed_string_is_refused_or_decodes_exactly(self, kind, name, shape, value):
        """Every packed field, fed a drawn string in an otherwise valid
        payload: refused naming the field, or decoded to exactly the
        int64s its bytes hold."""
        payload = {**SAMPLE_BY_TYPE[kind].to_payload(), name: value}
        try:
            frame = wire.decode_payload(json.dumps(payload).encode())
        except wire.ProtocolError as err:
            assert err.code == "bad-payload" and repr(name) in err.message
            return
        raw = base64.b64decode(value, validate=True)
        assert getattr(frame, name).reshape(-1).tolist() == np.frombuffer(raw, "<i8").tolist()
        assert_packed_arrays(frame)
        assert roundtrip(frame) == frame
