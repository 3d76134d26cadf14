"""Signed JSON shard manifests: where every block of a dataset lives.

Sharding a VGF object (:func:`shard_object`) writes each block as its
own VGF object — block extents ride in the block's free-form ``meta``
map — plus one JSON *manifest* recording the global grid structure, the
block layout (extents + object key + owning shard), and the shard
count.  The manifest is the unit of discovery: a
:class:`~repro.cluster.shard_client.ClusterClient` needs nothing else to
fan a request out.

Manifests are **signed**: a digest over the canonical JSON encoding of
everything except the signature itself — plain SHA-256 by default, or
HMAC-SHA256 when a ``sign_key`` is supplied (placement metadata steers
the client's reads, so a tampered manifest must fail loudly before any
block is fetched).  :func:`load_manifest` verifies before parsing and
raises :class:`~repro.errors.IntegrityError` on mismatch.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.partition import BlockSpec, block_bounds, extract_block, partition_grid
from repro.errors import FormatError, IntegrityError, ReproError
from repro.grid.bounds import Bounds
from repro.io.vgf import read_vgf, write_vgf

__all__ = [
    "BlockObject",
    "ShardManifest",
    "ManifestWatcher",
    "shard_object",
    "replica_chain",
    "write_manifest",
    "load_manifest",
    "sign_manifest",
    "verify_manifest",
    "manifest_key_for",
    "MANIFEST_SUFFIX",
]

MANIFEST_FORMAT = "repro-shard-manifest"
MANIFEST_VERSION = 1
MANIFEST_SUFFIX = ".manifest.json"


@dataclass(frozen=True)
class BlockObject:
    """One stored block: its extents, its object key, its replica chain.

    ``replicas`` is the *ordered* set of shards able to serve this block —
    the first entry is the primary and equals ``shard`` (kept as its own
    field for compatibility with pre-replication manifests).  Clients walk
    the chain in order on failover; re-replication rewrites the chain
    without moving the stored object.
    """

    spec: BlockSpec
    key: str
    shard: int
    replicas: tuple[int, ...] = ()

    def __post_init__(self):
        chain = tuple(int(s) for s in self.replicas) or (int(self.shard),)
        if chain[0] != int(self.shard):
            raise FormatError(
                f"block {self.key!r}: primary shard {self.shard} must lead "
                f"its replica chain {chain}"
            )
        if len(set(chain)) != len(chain):
            raise FormatError(
                f"block {self.key!r}: replica chain {chain} repeats a shard"
            )
        object.__setattr__(self, "replicas", chain)

    def to_dict(self) -> dict:
        return dict(self.spec.to_dict(), key=self.key, shard=self.shard,
                    replicas=list(self.replicas))

    @classmethod
    def from_dict(cls, d: dict) -> "BlockObject":
        shard = int(d["shard"])
        replicas = tuple(int(s) for s in d.get("replicas") or (shard,))
        return cls(BlockSpec.from_dict(d), str(d["key"]), shard, replicas)


@dataclass(frozen=True)
class ShardManifest:
    """Decoded shard manifest: global structure plus block placement.

    ``map_version`` is the *shard-map generation*, distinct from the
    format version in the document envelope: every re-replication or
    placement change writes a new manifest with a strictly larger
    ``map_version``.  Servers stamp the generation they were launched
    with (or currently observe) into replies, so a client holding an
    older map sees the larger token and re-fetches the manifest live —
    no restart, no polling loop on the client.
    """

    dims: tuple[int, int, int]
    origin: tuple[float, float, float]
    spacing: tuple[float, float, float]
    blocks: tuple[int, int, int]          # A x B x C layout
    shards: int
    block_objects: tuple[BlockObject, ...]
    arrays: tuple[tuple[str, str], ...]   # (name, numpy dtype str) pairs
    source_key: str = ""
    manifest_key: str = ""
    axes: tuple | None = None             # rectilinear per-axis coordinates
    meta: dict = field(default_factory=dict)
    map_version: int = 1

    # ------------------------------------------------------------------
    @property
    def array_names(self) -> list[str]:
        return [name for name, _ in self.arrays]

    def array_dtype(self, name: str) -> np.dtype:
        for array_name, dtype in self.arrays:
            if array_name == name:
                return np.dtype(dtype)
        raise ReproError(
            f"no array {name!r} in manifest; available: {self.array_names}"
        )

    def specs(self) -> list[BlockSpec]:
        return [bo.spec for bo in self.block_objects]

    def blocks_for_shard(self, shard: int) -> list[BlockObject]:
        return [bo for bo in self.block_objects if bo.shard == shard]

    def blocks_served_by(self, shard: int) -> list[BlockObject]:
        """Blocks this shard can serve as primary *or* replica."""
        return [bo for bo in self.block_objects if shard in bo.replicas]

    @property
    def replication_factor(self) -> int:
        """Maximum replica-chain length across all blocks (1 = none)."""
        if not self.block_objects:
            return 1
        return max(len(bo.replicas) for bo in self.block_objects)

    def block_world_bounds(self, bo: BlockObject) -> Bounds:
        return block_bounds(bo.spec, self.origin, self.spacing, axes=self.axes)

    def intersecting(self, roi: Bounds | None) -> list[BlockObject]:
        """Blocks whose world extent overlaps ``roi`` (all, when no ROI)."""
        if roi is None:
            return list(self.block_objects)
        return [
            bo for bo in self.block_objects
            if self.block_world_bounds(bo).intersects(roi)
        ]

    # ------------------------------------------------------------------
    def to_doc(self) -> dict:
        doc = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "dims": list(self.dims),
            "origin": list(self.origin),
            "spacing": list(self.spacing),
            "blocks": list(self.blocks),
            "shards": self.shards,
            "block_objects": [bo.to_dict() for bo in self.block_objects],
            "arrays": [[name, dtype] for name, dtype in self.arrays],
            "source_key": self.source_key,
            "manifest_key": self.manifest_key,
            "meta": self.meta,
            "map_version": int(self.map_version),
        }
        if self.axes is not None:
            doc["axes"] = [[float(v) for v in axis] for axis in self.axes]
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "ShardManifest":
        try:
            if doc.get("format") != MANIFEST_FORMAT:
                raise FormatError(
                    f"not a shard manifest (format={doc.get('format')!r})"
                )
            if int(doc.get("version", 0)) > MANIFEST_VERSION:
                raise FormatError(
                    f"manifest version {doc['version']} is newer than "
                    f"supported {MANIFEST_VERSION}"
                )
            axes = doc.get("axes")
            return cls(
                dims=tuple(int(v) for v in doc["dims"]),
                origin=tuple(float(v) for v in doc["origin"]),
                spacing=tuple(float(v) for v in doc["spacing"]),
                blocks=tuple(int(v) for v in doc["blocks"]),
                shards=int(doc["shards"]),
                block_objects=tuple(
                    BlockObject.from_dict(d) for d in doc["block_objects"]
                ),
                arrays=tuple(
                    (str(name), str(dtype)) for name, dtype in doc["arrays"]
                ),
                source_key=str(doc.get("source_key", "")),
                manifest_key=str(doc.get("manifest_key", "")),
                axes=tuple(
                    np.asarray(axis, dtype=np.float64) for axis in axes
                ) if axes is not None else None,
                meta=dict(doc.get("meta") or {}),
                map_version=int(doc.get("map_version", 1)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed shard manifest: {exc}") from exc


# ---------------------------------------------------------------------------
# Signing
# ---------------------------------------------------------------------------


def _canonical_bytes(doc: dict) -> bytes:
    """Canonical JSON of a manifest document minus its signature."""
    unsigned = {k: v for k, v in doc.items() if k != "signature"}
    return json.dumps(unsigned, sort_keys=True, separators=(",", ":")).encode()


def sign_manifest(doc: dict, sign_key: bytes | None = None) -> dict:
    """Return a copy of ``doc`` carrying its signature.

    SHA-256 content digest by default; HMAC-SHA256 when ``sign_key`` is
    given (then only holders of the key can produce a valid manifest).
    """
    payload = _canonical_bytes(doc)
    if sign_key is not None:
        algo = "hmac-sha256"
        digest = hmac.new(sign_key, payload, hashlib.sha256).hexdigest()
    else:
        algo = "sha256"
        digest = hashlib.sha256(payload).hexdigest()
    return dict(doc, signature={"algo": algo, "digest": digest})


def verify_manifest(doc: dict, sign_key: bytes | None = None) -> None:
    """Check a manifest document's signature; raise on any mismatch."""
    signature = doc.get("signature")
    if not isinstance(signature, dict):
        raise IntegrityError("shard manifest carries no signature")
    algo = signature.get("algo")
    expected = signature.get("digest")
    payload = _canonical_bytes(doc)
    if algo == "sha256":
        actual = hashlib.sha256(payload).hexdigest()
    elif algo == "hmac-sha256":
        if sign_key is None:
            raise IntegrityError(
                "manifest is HMAC-signed but no sign_key was provided"
            )
        actual = hmac.new(sign_key, payload, hashlib.sha256).hexdigest()
    else:
        raise IntegrityError(f"unknown manifest signature algo {algo!r}")
    if not isinstance(expected, str) or not hmac.compare_digest(actual, expected):
        raise IntegrityError("shard manifest signature mismatch")


# ---------------------------------------------------------------------------
# Store I/O
# ---------------------------------------------------------------------------


def manifest_key_for(key: str) -> str:
    """Default manifest key for a source object key."""
    stem = key[:-4] if key.endswith(".vgf") else key
    return stem + MANIFEST_SUFFIX


def _block_key(source_key: str, index: int) -> str:
    stem = source_key[:-4] if source_key.endswith(".vgf") else source_key
    return f"{stem}.blocks/{index:04d}.vgf"


def replica_chain(index: int, shards: int, replicas: int) -> tuple[int, ...]:
    """Default R-way placement: primary plus the next R-1 shards, wrapped.

    Consecutive placement means any dead-shard set smaller than R leaves
    every block at least one live replica — the property the failover
    tests quantify over.
    """
    if not 1 <= replicas <= shards:
        raise ReproError(
            f"replica count must be in [1, {shards}], got {replicas}"
        )
    primary = index % shards
    return tuple((primary + j) % shards for j in range(replicas))


def shard_object(
    fs,
    key: str,
    blocks=(2, 2, 2),
    shards: int | None = None,
    codec: str = "lz4",
    manifest_key: str | None = None,
    sign_key: bytes | None = None,
    replicas: int = 1,
) -> ShardManifest:
    """Partition a stored VGF object into per-block objects + a manifest.

    Blocks are assigned to ``shards`` placement groups round-robin by
    block index (``shards`` defaults to the block count — one shard per
    block).  ``replicas=R`` records an R-entry serving chain per block
    (primary plus the next R-1 shards): shards share one object store,
    so replication is a *serving* assignment — any chain member answers
    the pre-filter for the block — rather than R physical copies.  The
    source object is left in place, so monolithic and sharded access
    coexist over the same store.
    """
    with fs.open(key) as fh:
        grid = read_vgf(fh)
    specs = partition_grid(grid.dims, blocks)
    if shards is None:
        shards = len(specs)
    if not 1 <= shards <= len(specs):
        raise ReproError(
            f"shard count must be in [1, {len(specs)}], got {shards}"
        )
    if not 1 <= replicas <= shards:
        raise ReproError(
            f"replica count must be in [1, {shards}], got {replicas}"
        )
    block_objects = []
    for spec in specs:
        block_grid = extract_block(grid, spec)
        block_key = _block_key(key, spec.index)
        # Extents ride the block's own header too, so a block object is
        # self-describing without the manifest (and carries no timestep,
        # keeping TimestepCatalog scans unconfused).
        meta = {
            "block": spec.index,
            "block_ijk": list(spec.ijk),
            "block_lo": list(spec.lo),
            "block_hi": list(spec.hi),
            "parent": key,
        }
        fs.write_object(block_key, write_vgf(block_grid, codec=codec, meta=meta))
        chain = replica_chain(spec.index, shards, replicas)
        block_objects.append(BlockObject(spec, block_key, chain[0], chain))
    axes = getattr(grid, "axes", None)
    arrays = tuple(
        (arr.name, arr.values.dtype.str) for arr in grid.point_data
    )
    resolved_manifest_key = (
        manifest_key if manifest_key is not None else manifest_key_for(key)
    )
    manifest = ShardManifest(
        dims=tuple(grid.dims),
        origin=(0.0, 0.0, 0.0) if axes is not None else tuple(grid.origin),
        spacing=(1.0, 1.0, 1.0) if axes is not None else tuple(grid.spacing),
        blocks=tuple(int(b) for b in blocks),
        shards=shards,
        block_objects=tuple(block_objects),
        arrays=arrays,
        source_key=key,
        manifest_key=resolved_manifest_key,
        axes=tuple(np.asarray(a, dtype=np.float64) for a in axes)
        if axes is not None else None,
    )
    write_manifest(fs, resolved_manifest_key, manifest, sign_key=sign_key)
    return manifest


def write_manifest(fs, manifest_key: str, manifest: ShardManifest,
                   sign_key: bytes | None = None) -> None:
    """Sign and store a manifest as canonical-ish JSON."""
    doc = sign_manifest(manifest.to_doc(), sign_key=sign_key)
    fs.write_object(
        manifest_key, json.dumps(doc, sort_keys=True, indent=1).encode()
    )


class ManifestWatcher:
    """Serve a live view of a stored manifest's shard-map version.

    Shard servers hold one of these and stamp :meth:`version` into every
    pre-filter reply.  :meth:`version` re-reads the stored manifest at
    most once per ``min_interval`` seconds (the manifest is a small JSON
    object; a byte-compare decides whether re-parsing is needed), so a
    ``repro rebalance --apply`` that writes generation N+1 propagates to
    reply tokens within one interval — and from there to clients — with
    no server restart.
    """

    def __init__(self, fs, manifest_key: str, sign_key: bytes | None = None,
                 min_interval: float = 1.0, clock=time.monotonic):
        self._fs = fs
        self._manifest_key = manifest_key
        self._sign_key = sign_key
        self._min_interval = float(min_interval)
        self._clock = clock
        self._lock = threading.Lock()
        self._raw = fs.read_object(manifest_key)
        self._manifest = load_manifest(fs, manifest_key, sign_key=sign_key)
        self._checked_at = clock()

    def _refresh_locked(self, force: bool) -> None:
        now = self._clock()
        if not force and now - self._checked_at < self._min_interval:
            return
        self._checked_at = now
        try:
            raw = self._fs.read_object(self._manifest_key)
            if raw != self._raw:
                self._manifest = load_manifest(
                    self._fs, self._manifest_key, sign_key=self._sign_key
                )
                self._raw = raw
        except Exception:
            # A transiently unreadable (or half-written/corrupt) manifest
            # must not fail serving; keep advertising the last generation
            # we trusted and re-check next interval.
            return

    def refresh(self, force: bool = False) -> None:
        with self._lock:
            self._refresh_locked(force)

    def manifest(self) -> ShardManifest:
        with self._lock:
            self._refresh_locked(False)
            return self._manifest

    def version(self) -> int:
        with self._lock:
            self._refresh_locked(False)
            return int(self._manifest.map_version)


def load_manifest(fs, manifest_key: str,
                  sign_key: bytes | None = None) -> ShardManifest:
    """Read, verify, and decode a stored manifest."""
    data = fs.read_object(manifest_key)
    try:
        doc = json.loads(data.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(
            f"object {manifest_key!r} is not a JSON shard manifest: {exc}"
        ) from exc
    if not isinstance(doc, dict):
        raise FormatError(f"object {manifest_key!r} is not a manifest document")
    verify_manifest(doc, sign_key=sign_key)
    manifest = ShardManifest.from_doc(doc)
    if not manifest.manifest_key:
        manifest = ShardManifest(**{
            **manifest.__dict__, "manifest_key": manifest_key,
        })
    return manifest
