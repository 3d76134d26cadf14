"""Simulated time: clock, device models, link models, testbed calibration.

The paper's experiments run on two nodes joined by 1 Gb Ethernet, with a
MinIO server reading from a local SSD.  A single-machine reproduction
cannot observe those costs for real, so benchmarks run against a
*simulated clock*: every byte that crosses a modelled device or link
advances the clock by ``latency + bytes / bandwidth``, and every CPU phase
(decompression, pre-filter scan) advances it by ``bytes / throughput``
with throughput constants calibrated against the paper's Sec. IV/VI
numbers.  The computation itself still happens for real — only *time* is
modelled — so results stay bit-correct while load times reproduce the
paper's cost structure.

Calibration (see DESIGN.md §6): the paper's 500 MB raw array loads in
~12 s through remote s3fs and the NDP raw path approaches a 2.8x speedup
bounded by local read time, which pins the effective SSD path at
~126 MB/s and the effective network path at ~63 MB/s; GZip/LZ4 effective
decompress throughputs follow from the 3.96x / 4.63x standalone speedups.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field

from repro.errors import ReproError

__all__ = [
    "SimClock",
    "DeviceModel",
    "LinkModel",
    "CodecTiming",
    "NATIVE_WIRE_CODEC",
    "Testbed",
    "PAPER_TESTBED",
    "WanProfile",
    "WAN_PROFILES",
    "wan_link_pair",
    "MB",
]

MB = 1_000_000  # decimal megabyte, matching storage-vendor convention


class SimClock:
    """A monotonically advancing simulated clock, in seconds."""

    def __init__(self):
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ReproError(f"cannot advance clock by {seconds} s")
        self._now += seconds

    def reset(self) -> None:
        self._now = 0.0


class DeviceModel:
    """A storage device: per-request latency plus bandwidth-limited reads."""

    def __init__(self, clock: SimClock, bandwidth_bps: float, latency_s: float = 0.0,
                 name: str = "device"):
        if bandwidth_bps <= 0:
            raise ReproError(f"bandwidth must be > 0, got {bandwidth_bps}")
        if latency_s < 0:
            raise ReproError(f"latency must be >= 0, got {latency_s}")
        self.clock = clock
        self.bandwidth_bps = float(bandwidth_bps)
        self.latency_s = float(latency_s)
        self.name = name
        self.total_bytes = 0
        self.total_requests = 0
        self.total_time = 0.0

    def read(self, nbytes: int) -> None:
        """Charge one read of ``nbytes`` to the clock."""
        if nbytes < 0:
            raise ReproError(f"cannot read {nbytes} bytes")
        dt = self.latency_s + nbytes / self.bandwidth_bps
        self.clock.advance(dt)
        self.total_bytes += nbytes
        self.total_requests += 1
        self.total_time += dt

    # Writes share the read cost model; asymmetric devices can subclass.
    write = read

    def reset_counters(self) -> None:
        self.total_bytes = 0
        self.total_requests = 0
        self.total_time = 0.0


class LinkModel(DeviceModel):
    """A network link; ``charge`` is the transport-facing spelling of read.

    Chunked readers pipeline many transfers over one logical request, and
    a request pays the propagation latency *once* — only bandwidth scales
    with the chunk count.  Wrap the chunk loop in :meth:`request` and
    every ``charge`` after the first inside that scope is bandwidth-only;
    outside a scope each charge stands alone (latency + bytes/bandwidth),
    which keeps single-shot callers unchanged.
    """

    def __init__(self, clock: SimClock, bandwidth_bps: float, latency_s: float = 0.0,
                 name: str = "link"):
        super().__init__(clock, bandwidth_bps, latency_s, name)
        self._pipeline = threading.local()

    def charge(self, nbytes: int) -> None:
        state = self._pipeline
        if getattr(state, "depth", 0) > 0:
            if getattr(state, "latency_paid", False):
                # Follow-up chunk of a pipelined request: bandwidth only.
                dt = nbytes / self.bandwidth_bps
                self.clock.advance(dt)
                self.total_bytes += nbytes
                self.total_time += dt
                return
            state.latency_paid = True
        self.read(nbytes)

    @contextlib.contextmanager
    def request(self):
        """Scope in which chained charges pay the link latency once."""
        state = self._pipeline
        state.depth = getattr(state, "depth", 0) + 1
        try:
            yield self
        finally:
            state.depth -= 1
            if state.depth == 0:
                state.latency_paid = False


@dataclass(frozen=True)
class CodecTiming:
    """Effective codec throughputs, in bytes/second of *uncompressed* data.

    "Effective" means they fold in the reader/IO-stack overhead the paper's
    VTK pipeline experiences, which is why they sit well below the codecs'
    marketing numbers.
    """

    compress_bps: float
    decompress_bps: float


#: the reply codec the paper's native testbed ships.  ``Testbed`` prices
#: codecs at native (VTK) speeds, where LZ4 is the cheap one; a real
#: server's default (:data:`~repro.core.filter_splits.DEFAULT_WIRE_CODEC`)
#: is gzip, because this package's LZ4 encoder is pure Python.
NATIVE_WIRE_CODEC = "lz4"


@dataclass
class Testbed:
    """A bundle of clock + device/link/CPU models for one experiment setup.

    Parameters mirror the paper's hardware: an SSD path (MinIO + local
    SSD + s3fs software stack), a client<->storage network link, and
    effective CPU throughputs for the codecs and the pre-filter scan.
    """

    __test__ = False  # not a pytest test class despite the Test* name

    ssd_bps: float = 126.0 * MB
    ssd_latency_s: float = 100e-6
    net_bps: float = 63.5 * MB
    net_latency_s: float = 200e-6
    prefilter_bps: float = 2000.0 * MB
    codec_timings: dict = field(
        default_factory=lambda: {
            "raw": CodecTiming(compress_bps=float("inf"), decompress_bps=float("inf")),
            "gzip": CodecTiming(compress_bps=60.0 * MB, decompress_bps=260.0 * MB),
            "lz4": CodecTiming(compress_bps=400.0 * MB, decompress_bps=1700.0 * MB),
            "rle": CodecTiming(compress_bps=800.0 * MB, decompress_bps=1200.0 * MB),
            "quantizer": CodecTiming(compress_bps=80.0 * MB, decompress_bps=300.0 * MB),
            # shuffle adds one byte-transpose pass over the payload
            "shuffle-lz4": CodecTiming(compress_bps=350.0 * MB, decompress_bps=1300.0 * MB),
            "shuffle-gzip": CodecTiming(compress_bps=55.0 * MB, decompress_bps=240.0 * MB),
        }
    )

    def __post_init__(self):
        self.clock = SimClock()
        self.ssd = DeviceModel(self.clock, self.ssd_bps, self.ssd_latency_s, name="ssd")
        self.net = LinkModel(self.clock, self.net_bps, self.net_latency_s, name="net")

    # ------------------------------------------------------------------
    def codec_timing(self, codec_name: str) -> CodecTiming:
        try:
            return self.codec_timings[codec_name]
        except KeyError:
            raise ReproError(
                f"no timing calibration for codec {codec_name!r}; "
                f"known: {sorted(self.codec_timings)}"
            ) from None

    def charge_decompress(self, codec_name: str, uncompressed_bytes: int) -> None:
        """Advance the clock by the modelled decompression time."""
        bps = self.codec_timing(codec_name).decompress_bps
        if bps != float("inf"):
            self.clock.advance(uncompressed_bytes / bps)

    def charge_compress(self, codec_name: str, uncompressed_bytes: int) -> None:
        bps = self.codec_timing(codec_name).compress_bps
        if bps != float("inf"):
            self.clock.advance(uncompressed_bytes / bps)

    def charge_filter_scan(self, nbytes: int) -> None:
        """Advance the clock by the modelled pre-filter scan time."""
        self.clock.advance(nbytes / self.prefilter_bps)

    def reset(self) -> None:
        """Zero the clock and all device counters."""
        self.clock.reset()
        self.ssd.reset_counters()
        self.net.reset_counters()


def PAPER_TESTBED() -> Testbed:
    """A fresh testbed with the paper-calibrated defaults (DESIGN.md §6)."""
    return Testbed()


@dataclass(frozen=True)
class WanProfile:
    """A named wide-area hop: one-way latency plus per-direction bandwidth.

    Real WANs are asymmetric (uplink from a viewer's site is usually the
    thinner pipe), so the profile carries a bandwidth per direction.  The
    ``up`` direction is client→server (requests), ``down`` is server→client
    (replies).  One *request* over the hop costs one-way latency each
    direction plus the transfer times — the :class:`LinkModel` pipelining
    scope keeps multi-chunk transfers from paying latency per chunk.
    """

    name: str
    one_way_latency_s: float
    up_bps: float
    down_bps: float

    @property
    def rtt_s(self) -> float:
        return 2.0 * self.one_way_latency_s


#: Named hop presets.  Latencies are typical great-circle one-way figures;
#: bandwidths are deliberately modest (a loaded shared path, not the line
#: rate) so the presets reproduce the "gather wire dominates again" regime
#: the edge tier exists to fix.
WAN_PROFILES: dict[str, WanProfile] = {
    "lan": WanProfile("lan", one_way_latency_s=200e-6,
                      up_bps=63.5 * MB, down_bps=63.5 * MB),
    "wan-metro": WanProfile("wan-metro", one_way_latency_s=0.008,
                            up_bps=6.25 * MB, down_bps=12.5 * MB),
    "wan-cross-country": WanProfile(
        "wan-cross-country", one_way_latency_s=0.035,
        up_bps=1.25 * MB, down_bps=2.5 * MB),
    "wan-transatlantic": WanProfile(
        "wan-transatlantic", one_way_latency_s=0.045,
        up_bps=0.625 * MB, down_bps=1.25 * MB),
}


def wan_link_pair(profile: WanProfile | str, clock: SimClock) -> tuple[LinkModel, LinkModel]:
    """(uplink, downlink) :class:`LinkModel` pair for one WAN hop.

    Each direction carries the full one-way latency, so a request/reply
    round trip over the pair costs ``profile.rtt_s`` plus transfer time —
    feed the pair to ``SimulatedTransport(..., link=up, response_link=down)``.
    """
    if isinstance(profile, str):
        try:
            profile = WAN_PROFILES[profile]
        except KeyError:
            raise ReproError(
                f"unknown WAN profile {profile!r}; known: {sorted(WAN_PROFILES)}"
            ) from None
    up = LinkModel(clock, profile.up_bps, profile.one_way_latency_s,
                   name=f"{profile.name}-up")
    down = LinkModel(clock, profile.down_bps, profile.one_way_latency_s,
                     name=f"{profile.name}-down")
    return up, down
