"""Hot-shard detection and re-replication planning for a live cluster.

The per-endpoint metrics that feed ``repro top`` (request counters and
latency histograms from every shard's ``stats`` endpoint) double as the
input to elasticity: :func:`loads_from_polls` turns one polling round
into per-shard load scores, :func:`plan_rebalance` finds shards running
hot relative to the cluster mean and emits a deterministic
re-replication plan — pad every block's chain to the target replication
factor on the least-loaded shards, then rotate hot primaries onto their
coldest replicas — and :func:`apply_plan` writes the plan back as a new
manifest generation (``map_version + 1``).

Because shards share one object store, a "move" rewrites only the
serving chain in the manifest: no block bytes are copied, and running
servers/clients pick the new map up through the live
``map_version``-token protocol (see
:class:`~repro.cluster.manifest.ManifestWatcher` and
:meth:`~repro.cluster.shard_client.ClusterClient.refresh_map`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.cluster.manifest import ShardManifest, write_manifest
from repro.errors import ReproError
from repro.obs.metrics import snapshot_quantile

__all__ = [
    "ShardLoad",
    "ReplicaMove",
    "RebalancePlan",
    "loads_from_polls",
    "loads_from_manifest",
    "plan_rebalance",
    "apply_plan",
]


@dataclass(frozen=True)
class ShardLoad:
    """One shard's observed load: a scalar score plus optional latency."""

    shard: int
    score: float
    p99: float = 0.0

    def to_dict(self) -> dict:
        return {"shard": self.shard, "score": self.score, "p99": self.p99}


@dataclass(frozen=True)
class ReplicaMove:
    """One block's chain rewrite: ``before`` → ``after`` (order matters)."""

    block: int
    key: str
    before: tuple[int, ...]
    after: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "block": self.block,
            "key": self.key,
            "before": list(self.before),
            "after": list(self.after),
        }


@dataclass
class RebalancePlan:
    """A deterministic set of chain rewrites against one map generation."""

    manifest_key: str
    map_version: int            # the generation this plan was computed from
    replicas: int               # target chain length
    hot_shards: tuple[int, ...]
    loads: tuple[ShardLoad, ...]
    moves: tuple[ReplicaMove, ...] = field(default_factory=tuple)

    @property
    def empty(self) -> bool:
        return not self.moves

    def to_dict(self) -> dict:
        return {
            "manifest_key": self.manifest_key,
            "map_version": self.map_version,
            "new_map_version": self.map_version + 1,
            "replicas": self.replicas,
            "hot_shards": list(self.hot_shards),
            "loads": [load.to_dict() for load in self.loads],
            "moves": [move.to_dict() for move in self.moves],
        }

    def summary(self) -> list[str]:
        lines = [
            f"manifest {self.manifest_key} @ map_version {self.map_version}"
            f" -> {self.map_version + 1}",
            f"target replicas: {self.replicas}",
            f"hot shards: {list(self.hot_shards) or 'none'}",
        ]
        for load in self.loads:
            mark = " (hot)" if load.shard in self.hot_shards else ""
            lines.append(
                f"  shard {load.shard}: load {load.score:.1f}"
                f"  p99 {load.p99 * 1e3:.1f}ms{mark}"
            )
        if self.empty:
            lines.append("no moves needed")
        for move in self.moves:
            lines.append(
                f"  block {move.block:4d}: {list(move.before)} -> "
                f"{list(move.after)}"
            )
        return lines


# ---------------------------------------------------------------------------
# Load measurement
# ---------------------------------------------------------------------------


def loads_from_polls(polls) -> dict[int, ShardLoad]:
    """Shard loads from one ``poll_stats`` round (shard ``i`` = poll ``i``).

    Score is the lifetime request counter; an unreachable shard scores
    0.0 — it is not serving, so it is by definition not hot.
    """
    loads = {}
    for shard, poll in enumerate(polls):
        snap = poll.get("snapshot") or {}
        counters = snap.get("counters") or {}
        hists = snap.get("histograms") or {}
        loads[shard] = ShardLoad(
            shard=shard,
            score=float(counters.get("requests", 0)),
            p99=snapshot_quantile(
                hists.get("request_latency_seconds") or {}, 0.99),
        )
    return loads


def loads_from_manifest(manifest: ShardManifest) -> dict[int, ShardLoad]:
    """Structural fallback: primary block count per shard (no polling)."""
    counts = {shard: 0 for shard in range(manifest.shards)}
    for bo in manifest.block_objects:
        counts[bo.shard] += 1
    return {
        shard: ShardLoad(shard=shard, score=float(count))
        for shard, count in counts.items()
    }


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


def plan_rebalance(
    manifest: ShardManifest,
    loads: dict[int, ShardLoad] | None = None,
    replicas: int | None = None,
    hot_factor: float = 1.5,
) -> RebalancePlan:
    """Compute a deterministic re-replication plan for one manifest.

    Two passes over the blocks, in index order:

    1. **Pad** every chain to the target replication factor, appending
       the shards with the fewest projected serving assignments (ties
       break toward lower shard ids — determinism over cleverness).
    2. **Cool** hot shards — those whose load exceeds ``hot_factor``
       times the cluster mean — by rotating their primary blocks onto
       each block's least-loaded non-hot replica, until the hot shard
       leads strictly fewer chains than the cluster average.

    The plan is pure data; nothing is written until :func:`apply_plan`.
    """
    if manifest.shards < 1:
        raise ReproError("manifest names no shards")
    if loads is None:
        loads = loads_from_manifest(manifest)
    target = replicas if replicas is not None else manifest.replication_factor
    if not 1 <= target <= manifest.shards:
        raise ReproError(
            f"replica count must be in [1, {manifest.shards}], got {target}"
        )
    scores = {
        shard: loads.get(shard, ShardLoad(shard, 0.0)).score
        for shard in range(manifest.shards)
    }
    mean = sum(scores.values()) / manifest.shards
    hot = tuple(
        shard for shard in range(manifest.shards)
        if mean > 0 and scores[shard] > hot_factor * mean
    )

    # Projected serving assignments (chain memberships) and primary
    # counts, updated as the plan takes shape.
    serving = {shard: 0 for shard in range(manifest.shards)}
    primaries = {shard: 0 for shard in range(manifest.shards)}
    for bo in manifest.block_objects:
        primaries[bo.shard] += 1
        for shard in bo.replicas:
            serving[shard] += 1

    chains: dict[int, tuple[int, ...]] = {}
    for bo in manifest.block_objects:
        chain = list(bo.replicas[:target])
        for dropped in bo.replicas[target:]:
            serving[dropped] -= 1
        while len(chain) < target:
            candidates = sorted(
                (shard for shard in range(manifest.shards)
                 if shard not in chain),
                key=lambda shard: (serving[shard], scores[shard], shard),
            )
            chain.append(candidates[0])
            serving[candidates[0]] += 1
        chains[bo.spec.index] = tuple(chain)

    if target > 1:
        mean_primaries = len(manifest.block_objects) / manifest.shards
        # A hot shard should lead strictly fewer chains than average —
        # its blocks are demonstrably hotter, so equal counts still mean
        # unequal load.
        goal = max(0, math.ceil(mean_primaries) - 1)
        for shard in hot:
            for bo in manifest.block_objects:
                if primaries[shard] <= goal:
                    break
                chain = chains[bo.spec.index]
                if chain[0] != shard or len(chain) < 2:
                    continue
                # Never rotate onto another hotspot (or anything at
                # least as loaded) — that just moves the problem.
                candidates = [
                    s for s in chain[1:]
                    if scores[s] < scores[shard]
                    and (mean <= 0 or scores[s] <= hot_factor * mean)
                ]
                if not candidates:
                    continue
                coolest = min(
                    candidates, key=lambda s: (primaries[s], scores[s], s)
                )
                rotated = (coolest,) + tuple(
                    s for s in chain if s != coolest
                )
                chains[bo.spec.index] = rotated
                primaries[shard] -= 1
                primaries[coolest] += 1

    moves = tuple(
        ReplicaMove(
            block=bo.spec.index, key=bo.key,
            before=bo.replicas, after=chains[bo.spec.index],
        )
        for bo in manifest.block_objects
        if chains[bo.spec.index] != bo.replicas
    )
    return RebalancePlan(
        manifest_key=manifest.manifest_key,
        map_version=manifest.map_version,
        replicas=target,
        hot_shards=hot,
        loads=tuple(
            loads.get(shard, ShardLoad(shard, 0.0))
            for shard in range(manifest.shards)
        ),
        moves=moves,
    )


def apply_plan(fs, manifest: ShardManifest, plan: RebalancePlan,
               sign_key: bytes | None = None) -> ShardManifest:
    """Write the plan as a new manifest generation and return it.

    Refuses a stale plan (one computed against a different
    ``map_version``) — two concurrent rebalancers must not silently
    clobber each other's generation.
    """
    if plan.map_version != manifest.map_version:
        raise ReproError(
            f"stale rebalance plan: computed against map_version "
            f"{plan.map_version}, manifest is at {manifest.map_version}"
        )
    rewrites = {move.block: move.after for move in plan.moves}
    block_objects = tuple(
        replace(
            bo, shard=rewrites[bo.spec.index][0],
            replicas=rewrites[bo.spec.index],
        ) if bo.spec.index in rewrites else bo
        for bo in manifest.block_objects
    )
    fresh = replace(
        manifest,
        block_objects=block_objects,
        map_version=manifest.map_version + 1,
    )
    write_manifest(fs, fresh.manifest_key, fresh, sign_key=sign_key)
    return fresh
