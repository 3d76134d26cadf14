"""Unit tests for the simulated clock, devices, links, and testbed."""

import pytest

from repro.errors import ReproError
from repro.storage import (
    CodecTiming,
    DeviceModel,
    LinkModel,
    SimClock,
    Testbed,
)
from repro.storage.netsim import MB


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == 2.0

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            SimClock().advance(-1)

    def test_reset(self):
        clock = SimClock()
        clock.advance(3)
        clock.reset()
        assert clock.now == 0.0


class TestDeviceModel:
    def test_read_cost(self):
        clock = SimClock()
        dev = DeviceModel(clock, bandwidth_bps=100 * MB, latency_s=0.001)
        dev.read(50 * MB)
        assert clock.now == pytest.approx(0.501)

    def test_counters(self):
        dev = DeviceModel(SimClock(), 1e6)
        dev.read(100)
        dev.read(200)
        assert dev.total_bytes == 300
        assert dev.total_requests == 2
        dev.reset_counters()
        assert dev.total_bytes == 0

    def test_zero_byte_read_pays_latency(self):
        clock = SimClock()
        DeviceModel(clock, 1e6, latency_s=0.01).read(0)
        assert clock.now == pytest.approx(0.01)

    def test_invalid_params(self):
        with pytest.raises(ReproError):
            DeviceModel(SimClock(), 0)
        with pytest.raises(ReproError):
            DeviceModel(SimClock(), 1e6, latency_s=-1)

    def test_negative_read(self):
        with pytest.raises(ReproError):
            DeviceModel(SimClock(), 1e6).read(-1)

    def test_link_charge_alias(self):
        clock = SimClock()
        link = LinkModel(clock, 1e6)
        link.charge(1e6)
        assert clock.now == pytest.approx(1.0)


class TestTestbed:
    def test_paper_defaults_baseline_raw_12s(self):
        """The calibration anchor: a 500 MB raw array loads in ~12 s."""
        tb = Testbed()
        size = 500 * MB
        tb.ssd.read(size)
        tb.net.charge(size)
        assert 11.0 < tb.clock.now < 13.0

    def test_ndp_lower_bound_near_ssd_time(self):
        """NDP raw speedup is bounded by local read time (paper Sec. VI)."""
        tb = Testbed()
        size = 500 * MB
        tb.ssd.read(size)
        tb.net.charge(size)
        baseline = tb.clock.now
        tb.reset()
        tb.ssd.read(size)
        tb.charge_filter_scan(size)
        ndp = tb.clock.now
        assert 2.2 < baseline / ndp < 3.0

    def test_codec_timing_lookup(self):
        tb = Testbed()
        assert isinstance(tb.codec_timing("gzip"), CodecTiming)
        with pytest.raises(ReproError, match="zstd"):
            tb.codec_timing("zstd")

    def test_gzip_decompress_slower_than_lz4(self):
        tb = Testbed()
        size = 100 * MB
        tb.charge_decompress("gzip", size)
        gzip_t = tb.clock.now
        tb.reset()
        tb.charge_decompress("lz4", size)
        assert tb.clock.now < gzip_t

    def test_raw_decompress_free(self):
        tb = Testbed()
        tb.charge_decompress("raw", 10**9)
        assert tb.clock.now == 0.0

    def test_reset_clears_everything(self):
        tb = Testbed()
        tb.ssd.read(1000)
        tb.net.charge(1000)
        tb.reset()
        assert tb.clock.now == 0.0
        assert tb.ssd.total_bytes == 0
        assert tb.net.total_bytes == 0

    def test_charge_compress(self):
        tb = Testbed()
        tb.charge_compress("gzip", 60 * MB)
        assert tb.clock.now == pytest.approx(1.0)
