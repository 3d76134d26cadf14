"""SLO engine tests: sketches, burn math, and SLO-aware shedding.

Burn-rate math runs on an injected fake clock so windows advance
deterministically.  The integration tests drive the two real shedding
layers — :class:`~repro.rpc.server.RPCServer` pre-acquire and
:class:`~repro.rpc.fairshare.FairScheduler` backlog — and check that a
flood tenant (torching its budget) sheds while a trickle tenant
(inside its objective) does not.
"""

import pytest

from repro.errors import ReproError
from repro.obs.slo import MAX_TENANTS, SLO, SLOEngine, RollingSketch
from repro.rpc.msgpack import pack, unpack


class FakeMono:
    def __init__(self, now=10_000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestRollingSketch:
    def test_observe_and_quantile(self):
        s = RollingSketch(window=60.0, buckets=(0.1, 1.0, 10.0))
        for _ in range(9):
            s.observe(0.05)
        s.observe(5.0)
        assert s.quantile(0.5) == 0.1
        assert s.quantile(1.0) == 10.0
        assert s.merged()["count"] == 10

    def test_window_expiry_is_lazy(self):
        clock = FakeMono()
        s = RollingSketch(window=60.0, slices=6, buckets=(0.1, 1.0),
                          clock=clock)
        s.observe(0.05)
        assert s.merged()["count"] == 1
        clock.advance(61.0)
        assert s.merged()["count"] == 0
        assert s.quantile(0.99) == 0.0

    def test_merge_dicts_sums_identical_bounds(self):
        a = RollingSketch(buckets=(0.1, 1.0))
        b = RollingSketch(buckets=(0.1, 1.0))
        a.observe(0.05)
        a.observe(5.0)
        b.observe(0.05)
        merged = RollingSketch.merge_dicts([a.merged(), b.merged()])
        assert merged["count"] == 3
        assert merged["counts"][0] == 2
        assert merged["sum"] == pytest.approx(5.1)
        # Quantiles work on merged cross-shard data.
        assert a.quantile(0.5, merged) == 0.1

    def test_merge_dicts_skips_foreign_bounds_and_empties(self):
        a = RollingSketch(buckets=(0.1, 1.0))
        a.observe(0.05)
        foreign = RollingSketch(buckets=(0.2, 2.0))
        foreign.observe(0.05)
        merged = RollingSketch.merge_dicts([
            a.merged(), {}, foreign.merged(),
        ])
        assert merged["count"] == 1
        assert RollingSketch.merge_dicts([]) == {
            "buckets": [], "counts": [], "count": 0, "sum": 0.0,
        }

    def test_invalid_specs_rejected(self):
        with pytest.raises(ReproError):
            RollingSketch(window=0)
        with pytest.raises(ReproError):
            RollingSketch(slices=0)
        with pytest.raises(ReproError):
            RollingSketch().quantile(1.5)


class TestSLO:
    def test_budget_falls_out_of_objective(self):
        slo = SLO(latency=0.25, objective=0.99)
        assert slo.budget == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(ReproError):
            SLO(objective=1.0)
        with pytest.raises(ReproError):
            SLO(objective=0.0)
        with pytest.raises(ReproError):
            SLO(latency=0.0)


def _engine(clock, **kwargs):
    kwargs.setdefault("slo", SLO(latency=0.25, objective=0.99))
    kwargs.setdefault("fast_window", 30.0)
    kwargs.setdefault("slow_window", 300.0)
    kwargs.setdefault("min_requests", 10)
    return SLOEngine(clock=clock, **kwargs)


class TestBurnMath:
    def test_flood_of_bad_requests_burns(self):
        clock = FakeMono()
        eng = _engine(clock)
        for _ in range(20):
            eng.observe("flood", 0.01, error=True)
        fast, slow = eng.burn_rates("flood")
        # 100% bad on a 1% budget: burning 100x too fast in both windows.
        assert fast == pytest.approx(100.0)
        assert slow == pytest.approx(100.0)
        assert eng.burning("flood") is True

    def test_trickle_within_objective_does_not_burn(self):
        clock = FakeMono()
        eng = _engine(clock)
        for _ in range(50):
            eng.observe("trickle", 0.01)
        assert eng.burn_rates("trickle") == (0.0, 0.0)
        assert eng.burning("trickle") is False

    def test_slow_success_burns_like_an_error(self):
        clock = FakeMono()
        eng = _engine(clock)
        for _ in range(20):
            eng.observe("slowpoke", 1.5)  # no error, but over 250 ms
        assert eng.burning("slowpoke") is True

    def test_min_requests_floor(self):
        clock = FakeMono()
        eng = _engine(clock, min_requests=10)
        for _ in range(9):
            eng.observe("tiny", 0.01, error=True)
        # 100% bad but too few samples to mean anything.
        assert eng.burning("tiny") is False
        eng.observe("tiny", 0.01, error=True)
        assert eng.burning("tiny") is True

    def test_unknown_tenant_is_not_burning(self):
        eng = _engine(FakeMono())
        assert eng.burning("nobody") is False

    def test_fast_window_recovery_clears_burning(self):
        """A past incident outside the fast window stops reporting: the
        multi-window rule needs the problem to be happening *now*."""
        clock = FakeMono()
        eng = _engine(clock)
        for _ in range(20):
            eng.observe("flood", 0.01, error=True)
        assert eng.burning("flood") is True
        clock.advance(31.0)  # past the fast window, inside the slow one
        for _ in range(10):
            eng.observe("flood", 0.01)
        fast, slow = eng.burn_rates("flood")
        assert fast == 0.0
        assert slow > 1.0  # the slow window still remembers
        assert eng.burning("flood") is False

    def test_one_blip_does_not_trip_the_slow_window(self):
        """Fast window alone must not trigger: a short error burst on a
        long-good tenant burns fast but not slow."""
        clock = FakeMono()
        eng = _engine(clock)
        # Long good history filling the slow window.
        for _ in range(12):
            for _ in range(250):
                eng.observe("steady", 0.01)
            clock.advance(25.0)
        # A sudden blip: everything in the current fast window is bad.
        for _ in range(15):
            eng.observe("steady", 0.01, error=True)
        fast, slow = eng.burn_rates("steady")
        assert fast > 1.0
        assert slow < 1.0
        assert eng.burning("steady") is False

    def test_tenant_state_and_snapshot(self):
        clock = FakeMono()
        eng = _engine(clock)
        for _ in range(12):
            eng.observe("flood", 0.5, error=False)
        eng.record_slo_shed("flood")
        state = eng.tenant_state("flood")
        assert state["objective"] == 0.99
        assert state["total"] == 12
        assert state["bad"] == 12  # all over the latency threshold
        assert state["burning"] is True
        assert state["slo_sheds"] == 1
        assert state["p99"] > 0.25
        snap = eng.snapshot()
        assert set(snap["tenants"]) == {"flood"}
        assert snap["fast_window"] == 30.0

    def test_per_tenant_objective_overrides(self):
        clock = FakeMono()
        eng = _engine(clock, objectives={
            "lenient": SLO(latency=10.0, objective=0.5),
        })
        for _ in range(20):
            eng.observe("lenient", 1.0)
            eng.observe("strict", 1.0)
        assert eng.burning("lenient") is False
        assert eng.burning("strict") is True

    def test_window_validation(self):
        with pytest.raises(ReproError):
            SLOEngine(fast_window=60.0, slow_window=30.0)

    def test_snapshot_msgpack_safe(self):
        from repro.rpc import pack as mpack, unpack as munpack

        eng = _engine(FakeMono())
        eng.observe("a", 0.01)
        assert munpack(mpack(eng.snapshot())) == eng.snapshot()


class TestTenantTableIsBounded:
    """Tenant names come off the wire; the engine's table must not grow
    with them (the policy ``FairScheduler`` applies to its own)."""

    def test_live_tenants_overflow_into_the_default_state(self):
        eng = _engine(FakeMono(), objectives={"gold": SLO(0.5, 0.9)})
        eng.observe("gold", 0.01)
        for i in range(MAX_TENANTS + 50):  # every one live in the window
            eng.observe(f"busy{i}", 0.01)
        tenants = eng.snapshot()["tenants"]
        assert len(tenants) == MAX_TENANTS + 1
        assert tenants["default"]["total"] == 51
        assert tenants["gold"]["latency_slo"] == 0.5  # configured: kept

    def test_idle_states_are_reclaimed_first(self):
        clock = FakeMono()
        eng = _engine(clock, objectives={"gold": SLO(0.5, 0.9)})
        eng.observe("gold", 0.01)
        for i in range(MAX_TENANTS - 1):
            eng.observe(f"old{i}", 0.01)
        clock.advance(301.0)  # every slow window has gone quiet
        eng.observe("fresh", 0.01)
        tenants = eng.snapshot()["tenants"]
        assert set(tenants) == {"gold", "fresh"}
        assert "default" not in tenants  # room was made; nobody overflowed

    def test_stats_slo_block_stays_bounded_over_the_wire(self):
        from repro.core import NDPServer
        from repro.rpc import RPCClient
        from repro.storage import MemoryBackend, ObjectStore, S3FileSystem

        store = ObjectStore(MemoryBackend())
        store.create_bucket("sim")
        server = NDPServer(S3FileSystem(store, "sim"))
        # The flood goes through an endpoint whose reply does not walk the
        # SLO table (``health`` does: that made this loop quadratic).
        for i in range(MAX_TENANTS + 50):
            server.dispatch(_frame(f"t{i}", msgid=i, method="list_objects", params=("",)))
        slo = RPCClient.in_process(server).call("stats")["collected"]["slo"]
        assert len(slo["tenants"]) <= MAX_TENANTS + 1
        assert slo["tenants"]["default"]["total"] >= 50


def _frame(tenant, msgid=1, method="echo", params=("hi",)):
    return pack([0, msgid, method, list(params), {"tenant": tenant}])


def _reply_error(raw):
    reply = unpack(raw)
    assert reply[0] == 1
    return reply[2]


class TestFairSchedulerSLOShed:
    def _scheduler(self, engine, **kwargs):
        from repro.rpc.fairshare import FairScheduler

        # Never started: submissions stay queued, so backlog state is
        # fully deterministic.
        return FairScheduler(
            dispatcher=lambda req: req.raw, slo=engine, slo_shed=True,
            **kwargs,
        )

    def test_burning_tenant_cannot_grow_backlog(self):
        clock = FakeMono()
        engine = _engine(clock)
        for _ in range(20):
            engine.observe("flood", 0.01, error=True)
        sched = self._scheduler(engine)
        replies = []

        sched.submit(_frame("flood", msgid=1), replies.append)
        assert replies == []  # empty backlog: queued, not shed
        sched.submit(_frame("flood", msgid=2), replies.append)
        assert len(replies) == 1
        error = _reply_error(replies[0])
        assert "burning its error budget" in error
        info = sched.info()
        assert info["slo_shed"] == 1
        assert info["tenants"]["flood"]["slo_shed"] == 1
        assert info["tenants"]["flood"]["pending"] == 1

    def test_flood_vs_trickle_shed_decisions_match_burn_rates(self):
        """The acceptance scenario: under identical backlog pressure the
        burning flood tenant sheds, the in-SLO trickle tenant queues."""
        clock = FakeMono()
        engine = _engine(clock)
        for _ in range(30):
            engine.observe("flood", 0.01, error=True)
        for _ in range(30):
            engine.observe("trickle", 0.01)
        fast_flood, _ = engine.burn_rates("flood")
        fast_trickle, _ = engine.burn_rates("trickle")
        assert fast_flood > 1.0 > fast_trickle

        sched = self._scheduler(engine)
        replies = {"flood": [], "trickle": []}
        for i in range(3):
            sched.submit(_frame("flood", msgid=10 + i),
                         replies["flood"].append)
            sched.submit(_frame("trickle", msgid=20 + i),
                         replies["trickle"].append)
        # Flood: first queued, next two shed.  Trickle: all queued.
        assert len(replies["flood"]) == 2
        assert replies["trickle"] == []
        for raw in replies["flood"]:
            assert "burning its error budget" in _reply_error(raw)
        info = sched.info()
        assert info["tenants"]["flood"]["pending"] == 1
        assert info["tenants"]["trickle"]["pending"] == 3

    def test_flag_off_means_no_slo_shedding(self):
        from repro.rpc.fairshare import FairScheduler

        engine = _engine(FakeMono())
        for _ in range(20):
            engine.observe("flood", 0.01, error=True)
        sched = FairScheduler(
            dispatcher=lambda req: req.raw, slo=engine, slo_shed=False,
            max_tenant_pending=1,
        )
        replies = []
        for i in range(2):
            sched.submit(_frame("flood", msgid=i + 1), replies.append)
        (raw,) = replies  # the second overflows the queue: a capacity shed
        error = _reply_error(raw)
        assert error.startswith("ServerOverloadedError")
        assert "burning" not in error
        assert sched.info()["slo_shed"] == 0

    def test_sheds_feed_the_engine(self):
        """A shed reply counts as a bad request for the tenant — being
        refused burns budget too, which is what keeps a retry storm
        visibly burning."""
        engine = _engine(FakeMono())
        sched = self._scheduler(engine, max_tenant_pending=1)
        for i in range(13):  # one queued, twelve shed
            sched.submit(_frame("victim", msgid=i + 1), lambda raw: None)
        assert sched.info()["shed"] == 12
        assert engine.tenant_state("victim")["bad"] == 12
        assert engine.burning("victim") is True

    def test_served_through_scheduler_when_not_burning(self):
        from repro.rpc.fairshare import FairScheduler

        engine = _engine(FakeMono())
        sched = FairScheduler(
            dispatcher=lambda req: req.raw, workers=2, slo=engine,
            slo_shed=True,
        ).start()
        try:
            import threading

            done = threading.Event()
            out = []

            def respond(raw):
                out.append(raw)
                done.set()

            sched.submit(_frame("ok", msgid=7), respond)
            assert done.wait(5.0)
            assert unpack(out[0])[1] == 7  # echoed request frame
        finally:
            sched.stop()
