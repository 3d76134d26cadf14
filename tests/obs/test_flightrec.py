"""Flight-recorder tests: lock-free ring, triggers, chaos dumps.

The concurrency tests hammer the ring from many threads and assert the
two invariants the lock-free design promises: no torn events (every
snapshotted event is internally consistent) and self-consistent
snapshots (ordered, monotone timelines).  The chaos test drives a real
:class:`~repro.core.ndp_server.NDPServer` over a bit-flipping backend
from :mod:`tests.faults` and asserts the integrity failure triggers a
dump that reconstructs the failing request's phase timeline.
"""

import json
import os
import threading

import pytest

from repro.obs.flightrec import (
    DEFAULT_TRIGGERS,
    NULL_RECORDER,
    FlightRecorder,
    install_signal_dump,
)
from tests.faults import BitFlip, FaultSchedule, FaultyBackend, Ok, drops


class FakeMono:
    """Callable monotonic clock the recorder accepts via ``clock=``."""

    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestRing:
    def test_record_and_snapshot(self):
        rec = FlightRecorder(capacity=16)
        rec.record("request.begin", method="contour", tenant="a")
        rec.record("request.end", method="contour", ok=True)
        events = rec.snapshot()
        assert [e["kind"] for e in events] == ["request.begin", "request.end"]
        assert events[0]["method"] == "contour"
        assert events[0]["tenant"] == "a"
        assert events[0]["seq"] == 1
        assert events[1]["seq"] == 2

    def test_ring_retains_newest_capacity_events(self):
        rec = FlightRecorder(capacity=8)
        for i in range(20):
            rec.record("tick", i=i)
        events = rec.snapshot()
        assert len(events) == 8
        assert [e["i"] for e in events] == list(range(12, 20))

    def test_reserved_keys_win_over_caller_fields(self):
        # A phase may legitimately carry a field named "kind"; the
        # event's own kind must still be the recorded kind.
        rec = FlightRecorder(capacity=8)
        rec.record("phase", kind="contour", seq="bogus", name="prefilter")
        [event] = rec.snapshot()
        assert event["kind"] == "phase"
        assert event["seq"] == 1
        assert event["name"] == "prefilter"

    def test_window_filtering_with_fake_clock(self):
        clock = FakeMono()
        rec = FlightRecorder(capacity=64, clock=clock)
        rec.record("old")
        clock.advance(100.0)
        rec.record("new")
        recent = rec.snapshot(last_seconds=10.0)
        assert [e["kind"] for e in recent] == ["new"]
        assert len(rec.snapshot()) == 2

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_phase_records_duration_and_error(self):
        rec = FlightRecorder(capacity=8)
        with rec.phase("store.read", key="k"):
            pass
        with pytest.raises(RuntimeError):
            with rec.phase("decompress", codec="lz4"):
                raise RuntimeError("boom")
        ok, bad = rec.snapshot()
        assert ok["kind"] == "phase" and ok["name"] == "store.read"
        assert ok["duration"] >= 0.0 and "error" not in ok
        assert bad["name"] == "decompress"
        assert bad["error"] == "RuntimeError: boom"

    def test_info_counts(self):
        rec = FlightRecorder(capacity=4)
        for _ in range(6):
            rec.record("tick")
        info = rec.info()
        assert info["enabled"] is True
        assert info["capacity"] == 4
        assert info["retained"] == 4
        assert info["recorded"] == 6


class TestConcurrency:
    def test_threaded_writers_never_tear_events(self):
        """Each event's fields must match its kind — a torn slot (kind
        from one writer, fields from another) would break the pairing."""
        rec = FlightRecorder(capacity=512)
        n_threads, per_thread = 8, 400
        start = threading.Barrier(n_threads)

        def writer(tid):
            start.wait()
            for i in range(per_thread):
                rec.record(f"t{tid}", tid=tid, i=i, payload=tid * 10_000 + i)

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        events = rec.snapshot()
        assert len(events) == 512
        for e in events:
            tid = e["tid"]
            assert e["kind"] == f"t{tid}"
            assert e["payload"] == tid * 10_000 + e["i"]

    def test_snapshots_self_consistent_while_writing(self):
        """Snapshots taken mid-write are ordered and never torn."""
        rec = FlightRecorder(capacity=256)
        stop = threading.Event()

        def writer(tid):
            i = 0
            while not stop.is_set():
                rec.record("w", tid=tid, i=i)
                i += 1

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(50):
                events = rec.snapshot()
                keys = [(e["mono"], e["seq"]) for e in events]
                assert keys == sorted(keys)
                for e in events:
                    assert set(e) >= {"seq", "wall", "mono", "thread",
                                      "kind", "tid", "i"}
        finally:
            stop.set()
            for t in threads:
                t.join()

    def test_per_thread_sequences_stay_ordered(self):
        rec = FlightRecorder(capacity=4096)
        n_threads, per_thread = 6, 500

        def writer(tid):
            for i in range(per_thread):
                rec.record("w", tid=tid, i=i)

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        events = rec.snapshot()
        assert len(events) == n_threads * per_thread
        # Global seq is unique, and within one writer i rises with seq.
        assert len({e["seq"] for e in events}) == len(events)
        per_tid: dict = {}
        for e in events:
            per_tid.setdefault(e["tid"], []).append(e["i"])
        for seq in per_tid.values():
            assert seq == sorted(seq)


class TestDumps:
    def test_trigger_kind_dumps_to_dir(self, tmp_path):
        rec = FlightRecorder(capacity=32, dump_dir=str(tmp_path))
        rec.record("request.begin", method="contour")
        rec.record("integrity.failure", key="k.vgf")
        files = os.listdir(tmp_path)
        assert len(files) == 1
        lines = [json.loads(line)
                 for line in (tmp_path / files[0]).read_text().splitlines()]
        header, *events = lines
        assert header["kind"] == "flightrec.header"
        assert header["reason"] == "integrity.failure"
        assert header["events"] == len(events) == 2
        assert [e["kind"] for e in events] == [
            "request.begin", "integrity.failure",
        ]

    def test_non_trigger_kinds_do_not_dump(self, tmp_path):
        rec = FlightRecorder(capacity=32, dump_dir=str(tmp_path))
        rec.record("request.begin")
        rec.record("phase", name="encode", duration=0.1)
        assert os.listdir(tmp_path) == []
        assert set(DEFAULT_TRIGGERS) >= {"request.error", "tenant.shed"}

    def test_dump_interval_throttles_storms(self, tmp_path):
        clock = FakeMono()
        rec = FlightRecorder(capacity=64, dump_dir=str(tmp_path),
                             dump_interval=5.0, clock=clock)
        for _ in range(10):
            rec.record("request.error", error="boom")
        assert rec.info()["dumps"] == 1
        clock.advance(6.0)
        rec.record("request.error", error="boom")
        assert rec.info()["dumps"] == 2

    def test_explicit_path_dump_without_dump_dir(self, tmp_path):
        rec = FlightRecorder(capacity=8)
        rec.record("tick")
        # No dump_dir and no path: skipped, not an error.
        assert rec.dump(reason="manual") is None
        path = str(tmp_path / "out.jsonl")
        assert rec.dump(reason="manual", path=path) == path
        lines = open(path).read().splitlines()
        assert json.loads(lines[0])["reason"] == "manual"

    def test_on_dump_hook_fires_and_cannot_break_dump(self, tmp_path):
        rec = FlightRecorder(capacity=8, dump_dir=str(tmp_path))
        calls = []
        rec.on_dump(lambda path, reason: calls.append((path, reason)))
        rec.on_dump(lambda path, reason: 1 / 0)
        rec.record("request.error")
        assert len(calls) == 1
        assert calls[0][1] == "request.error"

    def test_signal_install_refused_off_main_thread(self):
        rec = FlightRecorder(capacity=8)
        results = []
        t = threading.Thread(
            target=lambda: results.append(install_signal_dump(rec)))
        t.start()
        t.join()
        assert results == [False]


class TestNullRecorder:
    def test_inert_surface(self):
        assert not NULL_RECORDER
        NULL_RECORDER.record("anything", kind_field=1)
        with NULL_RECORDER.phase("p", kind="x"):
            pass
        assert NULL_RECORDER.snapshot() == []
        assert NULL_RECORDER.dump() is None
        assert NULL_RECORDER.info() == {"enabled": False}


def _server_over(backend, tmp_path, **kwargs):
    from repro.core.ndp_server import NDPServer
    from repro.storage.s3fs import S3FileSystem

    fs = S3FileSystem(backend, "sim")
    rec = FlightRecorder(capacity=1024, dump_dir=str(tmp_path),
                         process="server")
    server = NDPServer(fs, flight_recorder=rec, profiler=None, **kwargs)
    return server, rec


def _seed_store():
    from repro.io import write_vgf
    from repro.storage.object_store import MemoryBackend, ObjectStore
    from repro.storage.s3fs import S3FileSystem

    from tests.conftest import make_sphere_grid

    store = ObjectStore(MemoryBackend())
    store.create_bucket("sim")
    fs = S3FileSystem(store, "sim")
    fs.write_object("sphere.vgf", write_vgf(make_sphere_grid(12),
                                            codec="lz4"))
    return store


@pytest.mark.chaos
class TestChaosDumps:
    """Fault-injected pipelines must leave a dump that explains them."""

    def test_integrity_failure_dumps_phase_timeline(self, tmp_path):
        from repro.errors import IntegrityError, StorageError

        store = _seed_store()
        # First read is bit-flipped, every later read is clean.
        faulty = FaultyBackend(
            store, FaultSchedule([BitFlip(seed=7), Ok()]))
        server, rec = _server_over(faulty, tmp_path, cache_bytes=0)
        with pytest.raises((IntegrityError, StorageError)):
            server.prefilter_contour("sphere.vgf", "r", [0.5])
        dumps = sorted(os.listdir(tmp_path))
        assert len(dumps) == 1
        lines = [json.loads(line)
                 for line in (tmp_path / dumps[0]).read_text().splitlines()]
        header, *events = lines
        assert header["reason"] == "integrity.failure"
        kinds = [e["kind"] for e in events]
        assert "integrity.failure" in kinds
        # The phase timeline of the failing request is reconstructable:
        # the store read recorded itself, with its error, before the
        # integrity event fired.
        phases = [e for e in events if e["kind"] == "phase"]
        read = next(p for p in phases if p["name"] == "store.read")
        assert read["key"] == "sphere.vgf"
        assert "IntegrityError" in read["error"]
        assert read["duration"] >= 0.0
        # And a clean retry afterwards does not dump again (throttle
        # aside, there is simply no trigger event).
        result = server.prefilter_contour("sphere.vgf", "r", [0.5])
        assert result["count"] > 0
        assert len(os.listdir(tmp_path)) == 1

    def test_storage_drop_timeline_survives_in_ring(self, tmp_path):
        from repro.errors import StorageError

        store = _seed_store()
        faulty = FaultyBackend(store, FaultSchedule(drops(1)))
        server, rec = _server_over(faulty, tmp_path, cache_bytes=0)
        with pytest.raises(StorageError):
            server.prefilter_contour("sphere.vgf", "r", [0.5])
        events = rec.snapshot()
        read = next(e for e in events
                    if e["kind"] == "phase" and e["name"] == "store.read")
        assert "StorageError" in read["error"]

    def test_rpc_error_triggers_dump_with_request_context(self, tmp_path):
        """Through the RPC layer a missing key is a request.error trigger
        and the dump carries the request begin/end envelope."""
        from repro.rpc.msgpack import pack, unpack

        store = _seed_store()
        server, rec = _server_over(store, tmp_path, cache_bytes=0)
        raw = server.dispatch(pack([
            0, 1, "prefilter_contour", ["missing.vgf", "r", [0.5]],
            {"tenant": "alice"},
        ]))
        reply = unpack(raw)
        assert reply[2] is not None  # errored
        dumps = os.listdir(tmp_path)
        assert len(dumps) == 1
        lines = [json.loads(line)
                 for line in (tmp_path / dumps[0]).read_text().splitlines()]
        events = lines[1:]
        kinds = [e["kind"] for e in events]
        assert "request.begin" in kinds and "request.error" in kinds
        begin = next(e for e in events if e["kind"] == "request.begin")
        assert begin["method"] == "prefilter_contour"
        assert begin["tenant"] == "alice"
