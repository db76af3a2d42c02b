"""Wire-format round-trips, fuzzing, and validation of the serving
records — malformed frames must produce protocol error responses,
never a crash."""

import asyncio
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.degradation import GateAction
from repro.exceptions import ConfigurationError
from repro.serving import ServeRequest, ServeResponse

from .conftest import make_requests


class TestServeRequest:
    def test_round_trip_without_class(self):
        request = ServeRequest(request_id=5, cues=np.array([1.0, 2.5, -3.0]))
        back = ServeRequest.from_json(request.to_json())
        assert back.request_id == 5
        assert back.class_index is None
        assert np.array_equal(back.cues, request.cues)

    def test_round_trip_with_class(self):
        request = ServeRequest(request_id=0, cues=np.ones(4), class_index=2)
        back = ServeRequest.from_json(request.to_json())
        assert back.class_index == 2

    def test_cues_are_flattened_floats(self):
        request = ServeRequest(request_id=1, cues=[[1, 2], [3, 4]])
        assert request.cues.shape == (4,)
        assert request.cues.dtype == float

    def test_empty_cues_rejected(self):
        with pytest.raises(ConfigurationError, match="empty cue"):
            ServeRequest(request_id=1, cues=np.empty(0))

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            ServeRequest.from_json("{nope")

    def test_missing_cues_rejected(self):
        with pytest.raises(ConfigurationError, match="'cues'"):
            ServeRequest.from_json('{"id": 3}')


class TestStrictRequestDecoding:
    """The wire boundary rejects what it used to coerce: a truncated
    class index would get a q for a class the client never sent."""

    @pytest.mark.parametrize("line", [
        '{"cues": [0.1, 0.2], "class_index": 1.7}',
        '{"cues": [0.1, 0.2], "class_index": "2"}',
        '{"cues": [0.1, 0.2], "class_index": true}',
        '{"cues": ["0.1", 0.2]}',
        '{"cues": [true, 0.2]}',
        '{"cues": [NaN, 0.2]}',
        '{"cues": [Infinity, 0.2]}',
        '{"cues": [-Infinity, 0.2]}',
        '{"cues": [1e400, 0.2]}',
        '{"cues": [[0.1], [0.2]]}',
        '{"cues": 0.1}',
        '{"id": true, "cues": [0.1, 0.2]}',
        '{"id": 1.0, "cues": [0.1, 0.2]}',
        '{"cues": [0.1, 0.2], "key": 5}',
    ], ids=["class-float", "class-str", "class-bool", "cue-str", "cue-bool",
            "cue-nan", "cue-inf", "cue-neg-inf", "cue-overflow",
            "cues-nested", "cues-scalar", "id-bool", "id-float", "key-int"])
    def test_coercible_fields_rejected(self, line):
        with pytest.raises(ConfigurationError, match="malformed"):
            ServeRequest.from_json(line)

    @pytest.mark.parametrize("line", [
        '{"cues": [1, -2.5]}',
        '{"id": 7, "cues": [0.1], "class_index": 0, "key": "pen"}',
        '{"id": -3, "cues": [1e300], "class_index": null, "key": null}',
    ])
    def test_accepted_documents_round_trip(self, line):
        request = ServeRequest.from_json(line)
        canonical = request.to_json()
        back = ServeRequest.from_json(canonical)
        assert back.to_json() == canonical
        assert (back.request_id, back.class_index, back.stream_key) == (
            request.request_id, request.class_index, request.stream_key)
        assert np.array_equal(back.cues, request.cues)

    @settings(max_examples=400, deadline=None)
    @given(field=st.sampled_from(["id", "class_index", "key", "cue"]),
           value=st.one_of(
               st.none(), st.booleans(),
               st.integers(min_value=-2 ** 70, max_value=2 ** 70),
               st.floats(), st.text(max_size=4),
               st.lists(st.integers(), max_size=2),
               st.dictionaries(st.text(max_size=2), st.integers(),
                               max_size=2)))
    def test_accepts_exactly_the_documented_domain(self, field, value):
        doc = {"id": 4, "cues": [0.5, -1.0]}
        if field == "cue":
            doc["cues"] = [0.5, value]
        else:
            doc[field] = value
        number = type(value) in (int, float)
        domain = {
            "id": type(value) is int,
            "class_index": value is None or type(value) is int,
            "key": value is None or type(value) is str,
            "cue": number and math.isfinite(value),
        }[field]
        try:
            request = ServeRequest.from_json(json.dumps(doc))
        except ConfigurationError:
            assert not domain
        else:
            assert domain
            canonical = request.to_json()
            assert ServeRequest.from_json(canonical).to_json() == canonical


class TestServeResponse:
    def _response(self, **overrides):
        base = dict(request_id=7, class_index=1, class_name="writing",
                    quality=0.83, action=GateAction.ACCEPT, degraded=False,
                    shed=False, package_version=2, batch_size=16,
                    latency_s=0.0031)
        base.update(overrides)
        return ServeResponse(**base)

    def test_round_trip(self):
        response = self._response()
        back = ServeResponse.from_json(response.to_json())
        assert back.request_id == 7
        assert back.class_index == 1
        assert back.class_name == "writing"
        assert back.quality == pytest.approx(0.83)
        assert back.action is GateAction.ACCEPT
        assert back.package_version == 2
        assert back.batch_size == 16
        assert back.latency_s == pytest.approx(0.0031, rel=1e-3)

    def test_epsilon_round_trip(self):
        response = self._response(quality=None, action=GateAction.REJECT,
                                  degraded=True)
        back = ServeResponse.from_json(response.to_json())
        assert back.quality is None
        assert back.is_error_state
        assert not back.accepted

    def test_shed_response_has_no_version(self):
        response = self._response(shed=True, package_version=None,
                                  quality=None, action=GateAction.REJECT,
                                  degraded=True, class_index=None,
                                  class_name=None, batch_size=0)
        back = ServeResponse.from_json(response.to_json())
        assert back.shed
        assert back.package_version is None
        assert back.class_index is None

    def test_key_excludes_scheduling_fields(self):
        a = self._response(batch_size=4, latency_s=0.001, package_version=1)
        b = self._response(batch_size=32, latency_s=0.9, package_version=2)
        assert a.key() == b.key()

    def test_key_includes_decision_fields(self):
        a = self._response()
        b = self._response(action=GateAction.REJECT)
        assert a.key() != b.key()


def _mangle(rng, line: str) -> str:
    """One seeded mutation of a valid JSONL frame."""
    mutation = rng.integers(0, 6)
    if mutation == 0:                      # truncate mid-line
        return line[:int(rng.integers(0, max(1, len(line))))]
    if mutation == 1:                      # byte flip
        k = int(rng.integers(0, len(line)))
        return line[:k] + chr(int(rng.integers(32, 127))) + line[k + 1:]
    if mutation == 2:                      # wrong JSON type
        return rng.choice(['[]', '"cues"', '42', 'null', 'true'])
    if mutation == 3:                      # non-numeric payloads
        return rng.choice(['{"id": "x", "cues": [1.0]}',
                           '{"cues": ["a", "b"]}',
                           '{"cues": {"0": 1.0}}',
                           '{"cues": [[1.0], [2.0, 3.0]]}',
                           '{"cues": [1.0], "class_index": "zero"}'])
    if mutation == 4:                      # empty-ish frames
        return rng.choice(['{}', '{"cues": []}', '{"id": 1}'])
    return line + line                     # doubled frame on one line


class TestProtocolFuzz:
    """Malformed frames must raise ConfigurationError — never anything
    else — and valid frames must survive arbitrary round-trips."""

    def test_mangled_frames_never_crash(self):
        rng = np.random.default_rng(42)
        base = ServeRequest(request_id=3, cues=np.array([0.1, 0.2, 0.3]),
                            class_index=1).to_json()
        outcomes = {"parsed": 0, "rejected": 0}
        for _ in range(300):
            frame = _mangle(rng, base)
            try:
                request = ServeRequest.from_json(frame)
            except ConfigurationError:
                outcomes["rejected"] += 1
            else:
                # A mutation may still be a valid frame; it must then
                # satisfy the record's own invariants.
                assert request.cues.size > 0
                assert request.cues.dtype == float
                outcomes["parsed"] += 1
        assert outcomes["rejected"] > 0
        assert outcomes["parsed"] > 0      # the fuzzer isn't vacuous

    def test_random_requests_round_trip(self):
        rng = np.random.default_rng(9)
        for k in range(100):
            cues = rng.normal(size=int(rng.integers(1, 9)))
            class_index = (int(rng.integers(0, 5))
                           if rng.random() < 0.5 else None)
            request = ServeRequest(request_id=k, cues=cues,
                                   class_index=class_index)
            back = ServeRequest.from_json(request.to_json())
            assert back.request_id == k
            assert back.class_index == class_index
            assert np.array_equal(back.cues, request.cues)

    def test_random_responses_round_trip(self):
        rng = np.random.default_rng(11)
        actions = list(GateAction)
        for k in range(100):
            shed = bool(rng.random() < 0.2)
            epsilon = shed or rng.random() < 0.2
            response = ServeResponse(
                request_id=k,
                class_index=None if shed else int(rng.integers(0, 3)),
                class_name=None if shed else "writing",
                quality=None if epsilon else float(rng.random()),
                action=actions[int(rng.integers(0, len(actions)))],
                degraded=epsilon, shed=shed,
                package_version=None if shed else int(rng.integers(1, 4)),
                batch_size=int(rng.integers(0, 33)),
                latency_s=float(rng.random() / 100))
            back = ServeResponse.from_json(response.to_json())
            assert back.key() == response.key()

    def test_truncations_of_a_valid_frame_all_rejected_or_valid(self):
        line = ServeRequest(request_id=1, cues=np.array([1.5, -2.0]),
                            class_index=2).to_json()
        for cut in range(len(line)):
            try:
                ServeRequest.from_json(line[:cut])
            except ConfigurationError:
                pass                        # the only acceptable failure


class TestSocketFuzz:
    """Socket-level robustness: bad frames get error replies and the
    server keeps serving — never a crash, never a hung connection."""

    @staticmethod
    async def _exchange(port, payload: bytes):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(payload)
        await writer.drain()
        writer.write_eof()
        lines = []
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout=10)
            if not line:
                break
            lines.append(json.loads(line))
        writer.close()
        await writer.wait_closed()
        return lines

    def test_malformed_then_valid_frames_on_one_connection(
            self, registry, cue_pool):
        from .conftest import socket_server

        valid = ServeRequest(request_id=1,
                             cues=cue_pool[0]).to_json().encode()

        async def scenario():
            async with socket_server(registry) as port:
                return await self._exchange(
                    port, b'{"nope": 1}\n' + b'not json at all\n'
                    + b'\xff\xfe garbage bytes\n' + valid + b"\n")

        replies = asyncio.run(scenario())
        errors = [r for r in replies if "error" in r]
        answers = [r for r in replies if "error" not in r]
        assert len(errors) == 3
        assert all("bad request" in r["error"] for r in errors)
        assert len(answers) == 1
        assert answers[0]["id"] == 1

    def test_rejected_frame_then_good_frame(self, registry, cue_pool):
        from .conftest import socket_server

        good = ServeRequest(request_id=2, cues=cue_pool[0],
                            class_index=1).to_json()
        bad = good.replace('"class_index": 1', '"class_index": 1.7')

        async def scenario():
            async with socket_server(registry) as port:
                return await self._exchange(
                    port, (bad + "\n" + good + "\n").encode())

        replies = asyncio.run(scenario())
        assert len(replies) == 2
        assert replies[0]["error"].startswith("bad request")
        assert "class_index" in replies[0]["error"]
        assert replies[1]["id"] == 2
        assert replies[1]["class_index"] == 1

    def test_wrong_dimension_cues_get_error_response(self, registry,
                                                     cue_pool):
        from .conftest import socket_server

        bad = ServeRequest(request_id=5, cues=np.ones(
            cue_pool.shape[1] + 3)).to_json().encode()

        async def scenario():
            async with socket_server(registry) as port:
                return await self._exchange(port, bad + b"\n")

        replies = asyncio.run(scenario())
        assert len(replies) == 1
        assert replies[0]["id"] == 5
        assert "Error" in replies[0]["error"]    # DimensionError

    def test_oversized_frame_rejected_and_server_survives(
            self, registry, cue_pool):
        from .conftest import socket_server

        # Far beyond asyncio's 64 KiB default stream line limit.
        oversized = b'{"cues": [' + b"1.0, " * 60000 + b"1.0]}\n"
        valid = ServeRequest(request_id=2,
                             cues=cue_pool[0]).to_json().encode()

        async def scenario():
            async with socket_server(registry) as port:
                first = await self._exchange(port, oversized)
                # The listener must still accept fresh connections.
                second = await self._exchange(port, valid + b"\n")
                return first, second

        first, second = asyncio.run(scenario())
        assert len(first) == 1
        assert "line limit" in first[0]["error"]
        assert len(second) == 1
        assert second[0]["id"] == 2

    def test_oversized_batch_of_frames_all_answered(self, registry,
                                                    cue_pool):
        from .conftest import socket_server
        from repro.serving import ServingConfig

        requests = make_requests(cue_pool, 64, seed=8)
        payload = "".join(r.to_json() + "\n" for r in requests).encode()

        async def scenario():
            async with socket_server(
                    registry,
                    config=ServingConfig(max_batch=4)) as port:
                return await self._exchange(port, payload)

        replies = asyncio.run(scenario())
        assert {r["id"] for r in replies} == set(range(64))
        assert all("error" not in r for r in replies)
