"""Benchmark environment: populated store + baseline/NDP load paths.

A :class:`BenchEnv` reproduces the paper's two-node setup (Fig. 11) on the
simulated testbed:

* an object store whose GETs are charged to the testbed's SSD model (the
  MinIO + local SSD path),
* a **baseline** load path: a *remote* s3fs mount (every byte also crosses
  the network link) reading whole array blocks, with decompression charged
  at the client,
* an **NDP** load path: a *local* s3fs mount feeding an
  :class:`~repro.core.ndp_server.NDPServer`, whose pre-filtered selection
  crosses the link through a :class:`~repro.rpc.transport.SimulatedTransport`.

Every load runs the real code (real decompression, real pre-filter, real
geometry); the simulated clock only decides what the load *costs* — see
:mod:`repro.storage.netsim` for the calibration.

Datasets are generated once per environment and written under
``<dataset>/<codec>/ts<step>.vgf`` for each requested codec, mirroring the
paper's separately prepared RAW/GZip/LZ4 stores.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.filter_splits import DEFAULT_WIRE_CODEC, SPLIT_FILTERS
from repro.core.ndp_server import NDPServer
from repro.core.prefilter import prefilter_contour, selection_rate
from repro.datasets.asteroid import AsteroidImpactDataset, AsteroidParams
from repro.datasets.nyx import NyxDataset, NyxParams
from repro.errors import ReproError
from repro.grid.uniform import UniformGrid
from repro.io.vgf import read_vgf_array, read_vgf_info, write_vgf
from repro.rpc.client import RPCClient
from repro.rpc.transport import InProcessTransport, SimulatedTransport
from repro.storage.netsim import Testbed
from repro.storage.object_store import MemoryBackend, ObjectStore
from repro.storage.s3fs import S3FileSystem

__all__ = ["BenchEnv", "LoadResult"]

#: The paper's evaluation grid: 5 contour values from 0.1 to 0.9.
CONTOUR_VALUES = (0.1, 0.3, 0.5, 0.7, 0.9)

#: Codecs evaluated throughout the paper.
CODECS = ("raw", "gzip", "lz4")


@dataclass(frozen=True)
class LoadResult:
    """Outcome of one measured data load."""

    seconds: float          # simulated data-load time
    stored_bytes: int       # bytes read from the store
    raw_bytes: int          # decompressed array size
    network_bytes: int      # bytes that crossed the client<->storage link
    extra: dict | None = None

    @property
    def reduction_ratio(self) -> float:
        """Network reduction relative to shipping the stored bytes."""
        if self.network_bytes <= 0:
            return float("inf")
        return self.stored_bytes / self.network_bytes


class BenchEnv:
    """A populated store plus measured baseline/NDP load operations."""

    def __init__(
        self,
        dims: tuple[int, int, int] = (96, 96, 96),
        codecs: tuple[str, ...] = CODECS,
        arrays: tuple[str, ...] = ("v02", "v03"),
        testbed: Testbed | None = None,
        with_asteroid: bool = True,
        with_nyx: bool = False,
        nyx_arrays: tuple[str, ...] = ("baryon_density",),
    ):
        self.testbed = testbed if testbed is not None else Testbed()
        self.store = ObjectStore(MemoryBackend(), device=self.testbed.ssd)
        self.store.create_bucket("sim")
        self.codecs = tuple(codecs)
        self.arrays = tuple(arrays)
        self.nyx_arrays = tuple(nyx_arrays)
        #: in-memory copies of the generated grids, keyed by (dataset, step)
        self.grids: dict[tuple[str, int], UniformGrid] = {}
        self.asteroid: AsteroidImpactDataset | None = None
        self.nyx: NyxDataset | None = None

        if with_asteroid:
            self.asteroid = AsteroidImpactDataset(AsteroidParams(dims=dims))
            for step in self.asteroid.timesteps:
                grid = self.asteroid.generate_arrays(step, list(arrays))
                self.grids[("asteroid", step)] = grid
                for codec in self.codecs:
                    blob = write_vgf(grid, codec=codec, meta={"timestep": step})
                    self.store.put_object("sim", self.key("asteroid", codec, step), blob)
        if with_nyx:
            self.nyx = NyxDataset(NyxParams(dims=dims))
            full = self.nyx.generate()
            grid = UniformGrid(full.dims, full.origin, full.spacing)
            for name in self.nyx_arrays:
                grid.point_data.add(full.point_data.get(name))
            self.grids[("nyx", 0)] = grid
            for codec in self.codecs:
                blob = write_vgf(grid, codec=codec, meta={"timestep": 0})
                self.store.put_object("sim", self.key("nyx", codec, 0), blob)
        self.testbed.reset()

        # NDP side: a local (link-free) mount feeding the server; the RPC
        # hop is what crosses the simulated network.  Both mounts use a
        # 256 KiB readahead chunk so a ranged block read fetches (and is
        # charged for) little more than the block itself — the paper's
        # array-selection behaviour.
        chunk = 256 * 1024
        self._local_fs = S3FileSystem(self.store, "sim", link=None, chunk_bytes=chunk)
        self.ndp_server = NDPServer(self._local_fs, testbed=self.testbed)
        self.ndp_client = RPCClient(
            SimulatedTransport(
                InProcessTransport(self.ndp_server.dispatch), self.testbed.net
            )
        )
        # Baseline side: a remote mount (every byte crosses the link).
        self._remote_fs = S3FileSystem(self.store, "sim", link=self.testbed.net, chunk_bytes=chunk)

    # ------------------------------------------------------------------
    @staticmethod
    def key(dataset: str, codec: str, step: int) -> str:
        return f"{dataset}/{codec}/ts{step:05d}.vgf"

    @property
    def timesteps(self) -> tuple[int, ...]:
        if self.asteroid is None:
            raise ReproError("environment was built without the asteroid dataset")
        return self.asteroid.timesteps

    def grid(self, dataset: str, step: int) -> UniformGrid:
        return self.grids[(dataset, step)]

    # ------------------------------------------------------------------
    # Measured load operations
    # ------------------------------------------------------------------
    def baseline_load(
        self, dataset: str, codec: str, step: int, array: str, local: bool = False
    ) -> tuple[UniformGrid, LoadResult]:
        """Whole-array load through the (remote by default) mount.

        ``local=True`` reproduces the paper's Fig. 5c/5f local-filesystem
        runs: no network link, decompression still charged.
        """
        tb = self.testbed
        fs = self._local_fs if local else self._remote_fs
        t0 = tb.clock.now
        ssd0, net0 = tb.ssd.total_bytes, tb.net.total_bytes
        with fs.open(self.key(dataset, codec, step)) as fh:
            info = read_vgf_info(fh)
            arr, entry = read_vgf_array(fh, array, info)
        tb.charge_decompress(entry.codec, entry.raw_bytes)
        grid = UniformGrid(info.dims, info.origin, info.spacing)
        grid.point_data.add(arr)
        result = LoadResult(
            seconds=tb.clock.now - t0,
            stored_bytes=tb.ssd.total_bytes - ssd0,
            raw_bytes=entry.raw_bytes,
            network_bytes=tb.net.total_bytes - net0,
        )
        return grid, result

    def ndp_load(
        self,
        dataset: str,
        codec: str,
        step: int,
        array: str,
        values,
        mode: str = "cell-closure",
        encoding: str = "auto",
        wire_codec: str = DEFAULT_WIRE_CODEC,
    ) -> tuple[dict, LoadResult]:
        """Offloaded pre-filter load; returns the encoded selection + cost."""
        tb = self.testbed
        t0 = tb.clock.now
        ssd0, net0 = tb.ssd.total_bytes, tb.net.total_bytes
        op = SPLIT_FILTERS["contour"]
        args = op.bind({"values": values, "mode": mode, "encoding": encoding,
                        "wire_codec": wire_codec})
        encoded = self.ndp_client.call(
            op.method, self.key(dataset, codec, step), array, *op.wire(args))
        stats = encoded.get("stats", {})
        if wire_codec != "raw":
            # Client-side decompression of the selection payload.
            payload = 8 * int(stats.get("selected_points", 0)) + 4
            tb.charge_decompress(wire_codec, payload)
        result = LoadResult(
            seconds=tb.clock.now - t0,
            stored_bytes=tb.ssd.total_bytes - ssd0,
            raw_bytes=int(stats.get("raw_bytes", 0)),
            network_bytes=tb.net.total_bytes - net0,
            extra=stats,
        )
        return encoded, result

    # ------------------------------------------------------------------
    # Static (non-load) statistics used by several figures
    # ------------------------------------------------------------------
    def selection_permillage(self, dataset: str, step: int, array: str, values) -> float:
        """The paper's Fig. 6 statistic on the in-memory grid."""
        return selection_rate(self.grid(dataset, step), array, values)

    def selection(self, dataset: str, step: int, array: str, values,
                  mode: str = "cell-closure"):
        return prefilter_contour(self.grid(dataset, step), array, values, mode=mode)

    def stored_sizes(self, dataset: str, step: int, array: str) -> dict[str, int]:
        """Stored block size of one array under every populated codec."""
        sizes = {}
        for codec in self.codecs:
            # Read through the backend directly: metadata inspection is not
            # part of any measured run, so it must not touch the clock.
            blob = self.store.backend.get("sim", self.key(dataset, codec, step), 0, None)
            info = read_vgf_info(blob)
            sizes[codec] = info.array(array).stored_bytes
        return sizes
