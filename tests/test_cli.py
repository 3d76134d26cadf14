"""Tests for the command-line interface."""

import threading

import pytest

from repro.cli import main


@pytest.fixture
def store(tmp_path):
    root = str(tmp_path / "store")
    rc = main([
        "generate", "asteroid", "--store", root, "--dim", "24",
        "--codec", "lz4", "--arrays", "v02",
    ])
    assert rc == 0
    return root


class TestGenerate:
    def test_asteroid_objects_written(self, store, capsys):
        rc = main(["info", "--store", store])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("asteroid/ts") == 9
        assert "v02[lz4" in out

    def test_nyx(self, tmp_path, capsys):
        root = str(tmp_path / "nyx")
        assert main([
            "generate", "nyx", "--store", root, "--dim", "24",
            "--arrays", "baryon_density",
        ]) == 0
        assert main(["info", "--store", root]) == 0
        assert "baryon_density" in capsys.readouterr().out


class TestInfo:
    def test_empty_store(self, tmp_path, capsys):
        root = str(tmp_path / "empty")
        main(["generate", "asteroid", "--store", root, "--dim", "24",
              "--arrays", "v02"])
        rc = main(["info", "--store", root, "--prefix", "nonexistent/"])
        assert rc == 1

    def test_prefix_filter(self, store, capsys):
        main(["info", "--store", store, "--prefix", "asteroid/ts00000"])
        out = capsys.readouterr().out
        assert out.count("asteroid/ts") == 1


class TestContour:
    def test_local_mode(self, store, capsys):
        rc = main([
            "contour", "--store", store, "--key", "asteroid/ts00000.vgf",
            "--array", "v02", "--values", "0.1,0.5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "triangles" in out
        assert "transferred" in out

    def test_render_output(self, store, tmp_path, capsys):
        frame = str(tmp_path / "frame.ppm")
        rc = main([
            "contour", "--store", store, "--key", "asteroid/ts24006.vgf",
            "--array", "v02", "--values", "0.1", "--render", frame,
            "--width", "64", "--height", "48",
        ])
        assert rc == 0
        with open(frame, "rb") as fh:
            assert fh.read(2) == b"P6"

    def test_requires_target(self, store, capsys):
        rc = main([
            "contour", "--key", "k", "--array", "a", "--values", "0.1",
        ])
        assert rc == 2

    def test_over_tcp(self, store, capsys):
        # Start the server in a thread with a short timeout, grab the port.
        from repro.core.ndp_server import NDPServer
        from repro.storage.object_store import DirectoryBackend, ObjectStore
        from repro.storage.s3fs import S3FileSystem

        fs = S3FileSystem(ObjectStore(DirectoryBackend(store)), "sim")
        listener = NDPServer(fs).serve_tcp()
        try:
            rc = main([
                "contour", "--connect", f"{listener.host}:{listener.port}",
                "--key", "asteroid/ts00000.vgf", "--array", "v02",
                "--values", "0.1",
            ])
            assert rc == 0
        finally:
            listener.stop()


class TestResilienceFlags:
    @staticmethod
    def _dead_port() -> int:
        import socket

        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
        s.close()
        return port

    def test_unreachable_server_falls_back_to_store(self, store, capsys):
        rc = main([
            "contour", "--connect", f"127.0.0.1:{self._dead_port()}",
            "--store", store, "--fallback",
            "--key", "asteroid/ts00000.vgf", "--array", "v02",
            "--values", "0.1", "--retries", "1", "--deadline", "5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "contour:" in out
        assert "baseline fallback" in out

    def test_unreachable_server_without_fallback_is_an_error(self, store,
                                                             capsys):
        rc = main([
            "contour", "--connect", f"127.0.0.1:{self._dead_port()}",
            "--store", store,
            "--key", "asteroid/ts00000.vgf", "--array", "v02",
            "--values", "0.1", "--retries", "1", "--deadline", "5",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "RPCTransportError" in err

    def test_contour_help_lists_no_hedging_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["contour", "--help"])
        assert "hedge" not in capsys.readouterr().out

    def test_fallback_flag_requires_store(self, capsys):
        rc = main([
            "contour", "--connect", "127.0.0.1:1", "--fallback",
            "--key", "k", "--array", "a", "--values", "0.1",
        ])
        assert rc == 2
        assert "--fallback needs --store" in capsys.readouterr().err

    def test_health_subcommand_against_live_server(self, store, capsys):
        from repro.core.ndp_server import NDPServer
        from repro.storage.object_store import DirectoryBackend, ObjectStore
        from repro.storage.s3fs import S3FileSystem

        fs = S3FileSystem(ObjectStore(DirectoryBackend(store)), "sim")
        listener = NDPServer(fs).serve_tcp()
        try:
            rc = main(["health", "--connect",
                       f"{listener.host}:{listener.port}"])
        finally:
            listener.stop()
        assert rc == 0
        assert "status: ok" in capsys.readouterr().out

    def test_health_subcommand_unreachable(self, capsys):
        rc = main([
            "health", "--connect", f"127.0.0.1:{self._dead_port()}",
            "--retries", "1", "--deadline", "2",
        ])
        assert rc == 1
        assert "unreachable" in capsys.readouterr().out


class TestServe:
    def test_serve_with_timeout(self, store, capsys):
        done = []

        def run():
            done.append(main([
                "serve", "--store", store, "--port", "0",
                "--timeout", "0.3",
            ]))

        t = threading.Thread(target=run)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        assert done == [0]
        assert "NDP server on" in capsys.readouterr().out

    def test_serving_commands_load_no_scipy(self):
        """Only ``generate`` builds datasets, and the generators are the
        only SciPy users, so importing the CLI loads neither: a server
        spawn pays for the serving stack alone.  This lists modules, not
        seconds, so a slow host cannot flip it."""
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        probe = ("import repro.cli, sys; print(*sorted(m for m in sys.modules"
                 " if m.startswith(('scipy', 'repro.datasets'))))")
        loaded = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            check=True, env=dict(os.environ, PYTHONPATH=src),
        ).stdout.split()
        assert loaded == []


class TestTraceOut:
    def test_contour_writes_chrome_trace(self, store, tmp_path, capsys):
        import json

        trace = str(tmp_path / "trace.json")
        rc = main([
            "contour", "--store", store, "--key", "asteroid/ts00000.vgf",
            "--array", "v02", "--values", "0.1", "--trace-out", trace,
        ])
        assert rc == 0
        assert "trace events" in capsys.readouterr().out
        events = json.loads(open(trace).read())["traceEvents"]
        names = {e["name"] for e in events}
        # The end-to-end request tree: client AND server phases present.
        assert {"ndp.contour", "rpc.call", "rpc.dispatch",
                "store.read", "prefilter", "postfilter"} <= names
        # Both processes announced as separate tracks.
        procs = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert procs == {"client", "server"}

    def test_contour_writes_jsonl(self, store, tmp_path):
        import json

        trace = str(tmp_path / "trace.jsonl")
        rc = main([
            "contour", "--store", store, "--key", "asteroid/ts00000.vgf",
            "--array", "v02", "--values", "0.1", "--trace-out", trace,
        ])
        assert rc == 0
        spans = [json.loads(line) for line in open(trace)]
        assert any(s["name"] == "ndp.contour" for s in spans)
        # One merged tree: every parent_id resolves inside the file.
        ids = {s["span_id"] for s in spans}
        roots = [s for s in spans if s["parent_id"] is None]
        assert len(roots) == 1
        for s in spans:
            assert s["parent_id"] is None or s["parent_id"] in ids


class TestStatsSubcommand:
    def test_stats_against_live_server(self, store, capsys):
        from repro.core.ndp_server import NDPServer
        from repro.storage.object_store import DirectoryBackend, ObjectStore
        from repro.storage.s3fs import S3FileSystem

        fs = S3FileSystem(ObjectStore(DirectoryBackend(store)), "sim")
        server = NDPServer(fs, cache_bytes=2**20)
        listener = server.serve_tcp()
        try:
            addr = f"{listener.host}:{listener.port}"
            # Generate one request so the counters are non-zero.
            assert main([
                "contour", "--connect", addr,
                "--key", "asteroid/ts00000.vgf", "--array", "v02",
                "--values", "0.1",
            ]) == 0
            capsys.readouterr()
            rc = main(["stats", "--connect", addr])
            out = capsys.readouterr().out
            assert rc == 0
            assert "requests: 1" in out
            assert "reduction" in out
            assert "latency (wall): count=1" in out
            assert "array_cache: hit_rate" in out
        finally:
            listener.stop()

    def test_stats_prometheus_output(self, store, capsys):
        from repro.core.ndp_server import NDPServer
        from repro.storage.object_store import DirectoryBackend, ObjectStore
        from repro.storage.s3fs import S3FileSystem

        fs = S3FileSystem(ObjectStore(DirectoryBackend(store)), "sim")
        listener = NDPServer(fs).serve_tcp()
        try:
            addr = f"{listener.host}:{listener.port}"
            rc = main(["stats", "--connect", addr, "--prom"])
        finally:
            listener.stop()
        out = capsys.readouterr().out
        assert rc == 0
        assert "# TYPE repro_requests_total counter" in out
        assert "# HELP repro_requests_total" in out
        assert "# TYPE repro_request_latency_seconds histogram" in out
        assert 'repro_request_latency_seconds_bucket{le="+Inf"} 0' in out

    def test_stats_unreachable(self, capsys):
        rc = main([
            "stats", "--connect",
            f"127.0.0.1:{TestResilienceFlags._dead_port()}",
            "--retries", "1", "--deadline", "2",
        ])
        assert rc == 1
        assert "unreachable" in capsys.readouterr().out


class TestInfoStats:
    def test_stats_flag_prints_ranges(self, store, capsys):
        rc = main(["info", "--store", store, "--stats",
                   "--prefix", "asteroid/ts00000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "min=" in out and "max=" in out and "mean=" in out

    def test_selection_blobs_do_not_break_info(self, store, capsys):
        # Precompute a selection next to the data; info must skip it.
        from repro.core.insitu import precompute_selections
        from repro.storage import DirectoryBackend, ObjectStore, S3FileSystem

        fs = S3FileSystem(ObjectStore(DirectoryBackend(store)), "sim")
        precompute_selections(fs, "asteroid/ts00000.vgf", ["v02"], [0.1])
        rc = main(["info", "--store", store])
        assert rc == 0
        out = capsys.readouterr().out
        assert ".sel/" not in out


class TestVerifySubcommand:
    def test_clean_store_verifies(self, store, capsys):
        rc = main(["verify", "--store", store])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OK" in out
        assert "0 corrupt" in out

    def test_corrupt_object_detected(self, store, tmp_path, capsys):
        import glob

        victim = sorted(glob.glob(store + "/sim/asteroid/*.vgf"))[0]
        blob = bytearray(open(victim, "rb").read())
        blob[-10] ^= 0xFF
        open(victim, "wb").write(bytes(blob))
        rc = main(["verify", "--store", store])
        out = capsys.readouterr().out
        assert rc == 1
        assert "CORRUPT" in out
        assert "mismatch" in out

    def test_empty_store_is_an_error(self, tmp_path, capsys):
        rc = main(["generate", "asteroid", "--store", str(tmp_path / "s"),
                   "--dim", "16", "--arrays", "v02"])
        assert rc == 0
        rc = main(["verify", "--store", str(tmp_path / "s"),
                   "--prefix", "no/such/prefix"])
        assert rc == 1
        assert "no .vgf objects" in capsys.readouterr().out


class TestServeRobustnessFlags:
    def test_serve_accepts_admission_and_drain_flags(self, store, capsys):
        done = []

        def run():
            done.append(main([
                "serve", "--store", store, "--port", "0", "--timeout", "0.3",
                "--workers", "4", "--tenant-pending", "2",
                "--drain-timeout", "1.0", "--max-connections", "8",
            ]))

        t = threading.Thread(target=run)
        t.start()
        t.join(timeout=15)
        assert not t.is_alive()
        assert done == [0]
        out = capsys.readouterr().out
        assert "workers=4" in out
        assert "stopped (clean" in out

    @pytest.mark.parametrize("command", ["serve", "serve-edge"])
    def test_help_lists_no_checksum_switch(self, command, capsys):
        """Checksums are part of the format and the wire, not a mode."""
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "checksum" not in capsys.readouterr().out


def _live_listeners(store, n=2):
    """Start n NDP servers over one store; returns (listeners, addrs)."""
    from repro.core.ndp_server import NDPServer
    from repro.storage.object_store import DirectoryBackend, ObjectStore
    from repro.storage.s3fs import S3FileSystem

    listeners = []
    for _ in range(n):
        fs = S3FileSystem(ObjectStore(DirectoryBackend(store)), "sim")
        listeners.append(NDPServer(fs, cache_bytes=2**20).serve_tcp())
    return listeners, [f"{ls.host}:{ls.port}" for ls in listeners]


class TestMultiAddress:
    def test_stats_merged_across_endpoints(self, store, capsys):
        listeners, addrs = _live_listeners(store, 2)
        try:
            # One request against each shard so merged counters read 2.
            for addr in addrs:
                assert main([
                    "contour", "--connect", addr,
                    "--key", "asteroid/ts00000.vgf", "--array", "v02",
                    "--values", "0.1",
                ]) == 0
            capsys.readouterr()
            rc = main(["stats", "--connect", ",".join(addrs)])
            out = capsys.readouterr().out
            assert rc == 0
            assert "stats for 2/2 endpoint(s), merged:" in out
            assert "requests: 2" in out
            assert "latency (wall): count=2" in out
        finally:
            for ls in listeners:
                ls.stop()

    def test_stats_partial_failure_still_merges(self, store, capsys):
        listeners, addrs = _live_listeners(store, 1)
        dead = f"127.0.0.1:{TestResilienceFlags._dead_port()}"
        try:
            rc = main(["stats", "--connect", f"{addrs[0]},{dead}",
                       "--retries", "1", "--deadline", "2"])
            out = capsys.readouterr().out
            assert rc == 1  # partial coverage is not a clean exit
            assert f"unreachable: {dead}:" in out
            assert "stats for 1/2 endpoint(s), merged:" in out
        finally:
            listeners[0].stop()

    def test_health_table_across_endpoints(self, store, capsys):
        listeners, addrs = _live_listeners(store, 2)
        dead = f"127.0.0.1:{TestResilienceFlags._dead_port()}"
        try:
            rc = main(["health", "--connect", ",".join(addrs + [dead]),
                       "--retries", "1", "--deadline", "2"])
            out = capsys.readouterr().out
            assert rc == 1
            assert "ADDRESS" in out and "BURNING" in out
            for addr in addrs:
                assert addr in out
            assert "unreachable" in out
            assert "2/3 healthy" in out
        finally:
            for ls in listeners:
                ls.stop()

    def test_bad_address_spec_is_usage_error(self, capsys):
        assert main(["stats", "--connect", "noport"]) == 2
        assert main(["health", "--connect", ""]) == 2
        assert "bad address" in capsys.readouterr().err


class TestDumpSubcommand:
    def test_dump_pulls_ring_and_writes_local_jsonl(self, store, tmp_path,
                                                    capsys):
        import json

        listeners, addrs = _live_listeners(store, 1)
        try:
            assert main([
                "contour", "--connect", addrs[0],
                "--key", "asteroid/ts00000.vgf", "--array", "v02",
                "--values", "0.1",
            ]) == 0
            capsys.readouterr()
            out_path = str(tmp_path / "dump.jsonl")
            rc = main(["dump", "--connect", addrs[0], "--out", out_path])
            out = capsys.readouterr().out
            assert rc == 0
            assert "event(s); server-side dump:" in out
            assert f"wrote {out_path}" in out
            lines = [json.loads(line) for line in open(out_path)]
            assert lines[0]["kind"] == "flightrec.header"
            kinds = {e["kind"] for e in lines[1:]}
            assert "request.begin" in kinds
            assert "phase" in kinds  # the request's phase timeline rode along
        finally:
            listeners[0].stop()

    def test_dump_unreachable(self, capsys):
        dead = f"127.0.0.1:{TestResilienceFlags._dead_port()}"
        rc = main(["dump", "--connect", dead, "--retries", "1",
                   "--deadline", "2"])
        assert rc == 1
        assert "unreachable" in capsys.readouterr().out


class TestProfSubcommand:
    def test_prof_reports_profiler_state(self, store, tmp_path, capsys):
        listeners, addrs = _live_listeners(store, 1)
        try:
            out_path = str(tmp_path / "prof.collapsed")
            rc = main(["prof", "--connect", addrs[0], "--out", out_path])
            out = capsys.readouterr().out
            assert rc == 0
            # serve_tcp does not arm the profiler thread by itself until
            # serve(); the endpoint still answers with a valid snapshot.
            assert ("samples @" in out) or ("profiler disabled" in out)
        finally:
            listeners[0].stop()


class TestTopSubcommand:
    def test_top_once_json(self, store, capsys):
        import json

        listeners, addrs = _live_listeners(store, 2)
        try:
            rc = main(["top", "--connect", ",".join(addrs), "--once",
                       "--json"])
            out = capsys.readouterr().out
            assert rc == 0
            view = json.loads(out)
            assert view["totals"]["shards"] == 2
            assert view["totals"]["reachable"] == 2
            assert {s["address"] for s in view["shards"]} == set(addrs)
        finally:
            for ls in listeners:
                ls.stop()

    def test_top_reports_unreachable_with_rc_1(self, capsys):
        dead = f"127.0.0.1:{TestResilienceFlags._dead_port()}"
        rc = main(["top", "--connect", dead, "--once", "--json"])
        assert rc == 1


class TestServeShutdown:
    def test_serve_cluster_drains_on_sigterm(self, store):
        """``serve-cluster`` used to install no handler: SIGTERM killed it
        at -15 with no drain and no ``stopped`` line."""
        import os
        import signal
        import subprocess
        import sys

        from repro.rpc.client import RPCClient
        from repro.rpc.pool import parse_address

        assert main(["shard", "asteroid/ts00000.vgf", "--store", store,
                     "--blocks", "2x1x1", "--shards", "2"]) == 0
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve-cluster", "--store", store,
             "--manifest", "asteroid/ts00000.manifest.json", "--shard", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env,
        )
        try:
            banner = proc.stdout.readline()  # "shard 0: host:port (...)"
            assert banner.startswith("shard 0: "), banner
            # The last start-up line, then one served request: the handler
            # is installed right after that line is printed.
            assert "1 shard(s) of 2" in proc.stdout.readline()
            host, port = parse_address(banner.split()[2])
            client = RPCClient.connect_tcp(host, port)
            assert client.call("health")["status"] == "ok"
            client.close()
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            proc.kill()
        assert proc.returncode == 0, out
        assert "stopped 1 shard(s) (clean)" in out
