"""End-to-end integration tests: the full paper workflow, across processes.

These tests exercise the complete stack exactly as the paper's Fig. 11a
deploys it: simulation writes timesteps to an object store (directory-
backed), an NDP server mounts it locally and listens on TCP, and a client
runs the post-filter pipeline against it — then cross-checks the result
against the baseline remote-mount path.
"""

import numpy as np
import pytest

from repro.core import NDPServer, ndp_contour
from repro.datasets import AsteroidImpactDataset, AsteroidParams
from repro.filters import ContourFilter, contour_grid
from repro.io import read_vgf, write_vgf
from repro.render import Scene
from repro.rpc import RPCClient
from repro.storage import DirectoryBackend, ObjectStore, S3FileSystem

DIMS = (32, 32, 32)


@pytest.fixture(scope="module")
def populated_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("store")
    store = ObjectStore(DirectoryBackend(str(root)))
    store.create_bucket("sim")
    fs = S3FileSystem(store, "sim")
    dataset = AsteroidImpactDataset(AsteroidParams(dims=DIMS))
    steps = dataset.timesteps[::4]  # 3 steps is plenty here
    # Simulation phase: each timestep is written as one VGF object.
    for step in steps:
        grid = dataset.generate_arrays(step, ["v02", "v03"])
        fs.write_object(f"ts{step:05d}.vgf",
                        write_vgf(grid, codec="lz4", meta={"timestep": step}))
    return store, dataset, steps


class TestSimulationThenAnalysis:
    def test_written_timesteps_listed(self, populated_store):
        store, _, steps = populated_store
        assert len(store.list_objects("sim")) == len(steps)

    def test_baseline_pipeline_reads_and_contours(self, populated_store):
        store, dataset, steps = populated_store
        fs = S3FileSystem(store, "sim")
        step = steps[0]
        with fs.open(f"ts{step:05d}.vgf") as fh:
            grid = read_vgf(fh, ["v02"])
        contour = ContourFilter("v02", [0.1])
        contour.set_input_data(grid)
        scene = Scene()
        scene.add_mesh(contour.output(), color=(0.25, 0.8, 0.85))
        img = scene.render(64, 48)
        assert img.shape == (48, 64, 3)

    def test_ndp_over_tcp_matches_baseline(self, populated_store):
        store, dataset, steps = populated_store
        local_fs = S3FileSystem(store, "sim")
        server = NDPServer(local_fs)
        listener = server.serve_tcp()
        try:
            client = RPCClient.connect_tcp(listener.host, listener.port)
            for step in steps:
                for array in ("v02", "v03"):
                    pd, stats = ndp_contour(client, f"ts{step:05d}.vgf", array, [0.1])
                    expected = contour_grid(
                        dataset.generate_arrays(step, [array]), array, [0.1]
                    )
                    assert np.array_equal(expected.points, pd.points), (step, array)
                    assert stats["wire_bytes"] < stats["raw_bytes"]
            client.close()
        finally:
            listener.stop()

    def test_multi_value_movie_workflow(self, populated_store):
        """The paper's Sec. VI experiment shape: a contour movie across
        timesteps at several values, via NDP, rendered per frame."""
        store, _, steps = populated_store
        server = NDPServer(S3FileSystem(store, "sim"))
        listener = server.serve_tcp()
        try:
            client = RPCClient.connect_tcp(listener.host, listener.port)
            for step in steps:
                scene = Scene()
                water, _ = ndp_contour(
                    client, f"ts{step:05d}.vgf", "v02", [0.1, 0.5]
                )
                ast, _ = ndp_contour(client, f"ts{step:05d}.vgf", "v03", [0.1])
                scene.add_mesh(water, color=(0.25, 0.8, 0.85))
                scene.add_mesh(ast, color=(0.95, 0.85, 0.2))
                img = scene.render(48, 36)
                assert np.isfinite(img).all()
            client.close()
        finally:
            listener.stop()

    def test_array_selection_saves_reads(self, populated_store):
        """Reading one of two arrays must fetch roughly half the bytes."""
        store, _, steps = populated_store
        from repro.storage.netsim import Testbed

        tb = Testbed()
        charged = ObjectStore(store.backend, device=tb.ssd)
        # Fine chunks + the latest (least compressible) timestep, so array
        # blocks span multiple chunks and the saving is observable.
        fs = S3FileSystem(charged, "sim", chunk_bytes=2 * 1024)
        key = f"ts{steps[-1]:05d}.vgf"
        with fs.open(key) as fh:
            from repro.io.vgf import read_vgf

            read_vgf(fh, ["v03"])
        one_array = tb.ssd.total_bytes
        tb.reset()
        with fs.open(key) as fh:
            from repro.io.vgf import read_vgf

            read_vgf(fh)
        both = tb.ssd.total_bytes
        assert one_array < 0.8 * both
