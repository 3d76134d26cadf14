"""Failure-injection tests: faults at every layer surface as typed errors.

The system's failure contract: any corruption, truncation, or transport
fault raises a :class:`~repro.errors.ReproError` subclass at the client —
never silent wrong data, never a foreign exception type.

Faults are injected through the deterministic harness in
:mod:`tests.faults`; the recovery behaviour built on top of these typed
errors (retry/backoff/breaker/fallback) is covered in
``tests/rpc/test_resilience.py``.
"""

import numpy as np
import pytest

from repro.core import NDPServer, ndp_contour, ndp_slice, ndp_threshold
from repro.errors import (
    FormatError,
    IntegrityError,
    ReproError,
    RPCError,
    RPCRemoteError,
    RPCTransportError,
)
from repro.io import write_vgf
from repro.rpc import InProcessTransport, RPCClient, pack
from repro.rpc.transport import Transport
from repro.storage import MemoryBackend, ObjectStore, S3FileSystem

from tests.conftest import make_sphere_grid
from tests.faults import (
    Corrupt,
    Delay,
    Drop,
    FakeClock,
    FaultSchedule,
    FaultyBackend,
    FaultyTransport,
    Ok,
    Truncate,
    drops,
)


@pytest.fixture
def env():
    store = ObjectStore(MemoryBackend())
    store.create_bucket("sim")
    fs = S3FileSystem(store, "sim")
    fs.write_object("g.vgf", write_vgf(make_sphere_grid(10), codec="gzip"))
    server = NDPServer(fs)
    client = RPCClient(InProcessTransport(server.dispatch))
    return store, fs, server, client


class GarbageTransport(Transport):
    """Returns non-protocol bytes."""

    def request(self, payload: bytes) -> bytes:
        return b"\x93\x01\x02\x03"  # a valid msgpack array, wrong shape


class TestTransportFaults:
    def test_drop_surfaces_as_transport_error(self, env):
        _, _, server, _ = env
        schedule = FaultSchedule(drops(1))
        flaky = FaultyTransport(InProcessTransport(server.dispatch), schedule)
        client = RPCClient(flaky)
        with pytest.raises(RPCTransportError, match="injected"):
            client.call("list_objects", "")
        # The transport recovers; the client object is still usable.
        assert client.call("list_objects", "") == ["g.vgf"]
        assert schedule.log == [Drop(), Ok()]

    def test_scripted_consecutive_drops(self, env):
        """An N-consecutive-failure schedule fails exactly N times."""
        _, _, server, _ = env
        flaky = FaultyTransport(
            InProcessTransport(server.dispatch), FaultSchedule(drops(3))
        )
        client = RPCClient(flaky)
        for _ in range(3):
            with pytest.raises(RPCTransportError):
                client.call("list_objects", "")
        assert client.call("list_objects", "") == ["g.vgf"]
        assert flaky.attempts == 4

    def test_injected_delay_does_not_corrupt_results(self, env):
        """Delays cost (injected) time only; payloads are untouched."""
        _, _, server, _ = env
        clock = FakeClock()
        flaky = FaultyTransport(
            InProcessTransport(server.dispatch),
            FaultSchedule([Delay(2.5)]),
            clock,
        )
        client = RPCClient(flaky)
        assert client.call("list_objects", "") == ["g.vgf"]
        assert clock.now == 2.5
        assert clock.sleeps == []  # advanced, never slept

    def test_truncated_response_is_typed_error(self, env):
        """A response cut mid-payload must fail decoding loudly."""
        _, _, server, _ = env
        flaky = FaultyTransport(
            InProcessTransport(server.dispatch),
            FaultSchedule([Truncate(keep_bytes=6)]),
        )
        client = RPCClient(flaky)
        with pytest.raises(ReproError):
            client.call("prefilter_contour", "g.vgf", "r", [3.0])

    def test_corrupted_response_is_typed_error(self, env):
        """Bit flips in the reply can never decode into silent wrong data."""
        _, _, server, _ = env
        flaky = FaultyTransport(
            InProcessTransport(server.dispatch),
            FaultSchedule([Corrupt(offset=0, mask=0xFF)]),
        )
        client = RPCClient(flaky)
        with pytest.raises(ReproError):
            client.call("list_objects", "")

    def test_garbage_response_is_protocol_error(self):
        client = RPCClient(GarbageTransport())
        with pytest.raises(RPCError, match="invalid rpc response"):
            client.call("anything")

    def test_msgid_mismatch_detected(self, env):
        _, _, server, _ = env

        class ReplayTransport(Transport):
            def request(self, payload):
                return pack([1, 999, None, "stale"])

        client = RPCClient(ReplayTransport())
        with pytest.raises(RPCError, match="msgid"):
            client.call("list_objects", "")

    def test_seeded_random_schedule_is_reproducible(self):
        a = FaultSchedule.random(seed=42, length=20)
        b = FaultSchedule.random(seed=42, length=20)
        assert [a.next() for _ in range(20)] == [b.next() for _ in range(20)]


class TestFaultyBackendStorageLayer:
    """Faults under the server's own mount surface as remote errors."""

    def _faulty_env(self, schedule, clock=None):
        store = ObjectStore(MemoryBackend())
        store.create_bucket("sim")
        S3FileSystem(store, "sim").write_object(
            "g.vgf", write_vgf(make_sphere_grid(10), codec="gzip")
        )
        faulty_fs = S3FileSystem(FaultyBackend(store, schedule, clock), "sim")
        server = NDPServer(faulty_fs)
        return RPCClient(InProcessTransport(server.dispatch))

    def test_backend_drop_is_remote_storage_error(self):
        client = self._faulty_env(FaultSchedule([Drop("disk pulled")]))
        with pytest.raises(RPCRemoteError, match="StorageError"):
            ndp_contour(client, "g.vgf", "r", [3.0])
        # Next read passes: the server survived its storage hiccup.
        pd, _ = ndp_contour(client, "g.vgf", "r", [3.0])
        assert pd.num_points > 0

    def test_backend_truncation_is_remote_error(self):
        client = self._faulty_env(FaultSchedule([Truncate(keep_bytes=64)]))
        with pytest.raises(RPCRemoteError):
            ndp_contour(client, "g.vgf", "r", [3.0])

    @pytest.mark.parametrize("offload", [
        lambda client: ndp_contour(client, "g.vgf", "r", [3.0]),
        lambda client: ndp_threshold(client, "g.vgf", "r", 2.0, 4.0),
        lambda client: ndp_slice(client, "g.vgf", "r", 2, 4.5),
    ], ids=["contour", "threshold", "slice"])
    def test_backend_corruption_detected_and_recovered(self, offload):
        """Transient corruption: detected by checksum, healed by re-read.

        The first backend read is corrupted; the at-rest CRC catches it
        (``IntegrityError``), every split-filter call re-reads once, and
        the second — clean — read serves correct geometry.  The failure
        is still visible in the server's integrity counter.
        """
        client = self._faulty_env(FaultSchedule([Corrupt(offset=-10)]))
        pd, stats = offload(client)
        assert pd.num_points > 0
        assert client.call("health")["integrity_failures"] >= 1

    def test_backend_corruption_is_typed_integrity_error(self):
        """Without the convenience retry, corruption is a typed loud error."""
        client = self._faulty_env(FaultSchedule([Corrupt(offset=-10)]))
        with pytest.raises(IntegrityError, match="mismatch"):
            client.call("prefilter_contour", "g.vgf", "r", [3.0])


class TestCorruptStore:
    def test_corrupt_block_is_typed_integrity_error(self, env):
        """Persistent at-rest corruption: re-read hits the same bytes, so
        the typed error propagates (IntegrityError ⊂ FormatError — the old
        contract still holds, the type just got more specific)."""
        store, fs, server, client = env
        blob = bytearray(store.get_object("sim", "g.vgf"))
        blob[-10] ^= 0xFF  # flip a byte inside the gzip block
        store.put_object("sim", "g.vgf", bytes(blob))
        with pytest.raises(FormatError, match="mismatch"):
            ndp_contour(client, "g.vgf", "r", [3.0])

    def test_truncated_object_is_remote_error(self, env):
        store, _, _, client = env
        blob = store.get_object("sim", "g.vgf")
        store.put_object("sim", "g.vgf", blob[: len(blob) // 2])
        with pytest.raises(RPCRemoteError):
            ndp_contour(client, "g.vgf", "r", [3.0])

    def test_non_vgf_object_is_remote_error(self, env):
        store, _, _, client = env
        store.put_object("sim", "junk.vgf", b"this is not a vgf file at all")
        with pytest.raises(RPCRemoteError, match="magic"):
            ndp_contour(client, "junk.vgf", "r", [3.0])

    def test_client_side_corrupt_read_is_format_error(self, env):
        store, fs, _, _ = env
        from repro.io.vgf import read_vgf

        blob = bytearray(store.get_object("sim", "g.vgf"))
        blob[-10] ^= 0xFF
        with pytest.raises(FormatError):
            read_vgf(bytes(blob))


class TestCorruptSelectionWire:
    def test_tampered_reply_detected(self, env):
        """Bit flips in the selection payload cannot decode silently."""
        _, _, server, client = env
        encoded = client.call(
            "prefilter_contour", "g.vgf", "r", [3.0], "cell-closure", "auto", "lz4"
        )
        tampered = dict(encoded)
        payload = bytearray(tampered["values"])
        payload[len(payload) // 2] ^= 0xFF
        tampered["values"] = bytes(payload)
        from repro.core.encoding import decode_selection

        with pytest.raises(ReproError):
            decode_selection(tampered)

    def test_truncated_id_stream_detected(self, env):
        _, _, server, client = env
        encoded = client.call(
            "prefilter_contour", "g.vgf", "r", [3.0], "cell-closure", "ids", "raw"
        )
        tampered = dict(encoded)
        tampered["id_deltas"] = tampered["id_deltas"][:-4]
        from repro.core.encoding import decode_selection

        with pytest.raises(FormatError):
            decode_selection(tampered)


class TestServerRobustness:
    def test_bad_arguments_do_not_kill_server(self, env):
        _, _, server, client = env
        for bad_call in (
            lambda: client.call("prefilter_contour", "g.vgf", "r", [], "cell-closure"),
            lambda: client.call("prefilter_contour", "g.vgf", "r", ["NaN"], "cell-closure"),
            lambda: client.call("prefilter_slice", "g.vgf", "r", 9, 0.0),
            lambda: client.call("prefilter_threshold", "g.vgf", "r", 5.0, 1.0),
        ):
            with pytest.raises(RPCRemoteError):
                bad_call()
        # Server still healthy afterwards — ask it directly.
        assert client.call("health")["status"] == "ok"
        pd, _ = ndp_contour(client, "g.vgf", "r", [3.0])
        assert pd.num_points > 0
