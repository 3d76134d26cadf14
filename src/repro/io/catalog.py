"""Timestep catalogs: ordered access to a simulation's stored outputs.

The paper's workflows iterate "a series of simulation timesteps" stored
as one file each (Sec. III/VI).  :class:`TimestepCatalog` lifts that
pattern out of string formatting: scan a mount for VGF objects, read
their ``timestep`` metadata, and expose ordered, time-addressed access —
the bookkeeping half of every movie example and bench.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FormatError, ReproError
from repro.io.vgf import VGFInfo, read_vgf, read_vgf_info

__all__ = ["TimestepCatalog", "CatalogEntry"]


@dataclass(frozen=True)
class CatalogEntry:
    """One discovered timestep object."""

    key: str
    timestep: int
    info: VGFInfo

    @property
    def array_names(self) -> list[str]:
        return self.info.array_names()


class TimestepCatalog:
    """Scan a mount for VGF timesteps and serve them in time order.

    Parameters
    ----------
    fs:
        An :class:`~repro.storage.s3fs.S3FileSystem` (local or remote).
    prefix:
        Restrict the scan to keys under this prefix.

    Objects without a ``timestep`` entry in their header metadata are
    skipped (they are not simulation outputs); non-VGF objects are skipped
    silently too, so catalogs coexist with precomputed-selection objects
    (``*.sel/...``) in the same bucket.
    """

    def __init__(self, fs, prefix: str = ""):
        self.fs = fs
        self.prefix = prefix
        self._entries: list[CatalogEntry] = []
        self.refresh()

    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Re-scan the store."""
        entries = []
        for key in self.fs.listdir(self.prefix):
            try:
                with self.fs.open(key) as fh:
                    info = read_vgf_info(fh)
            except FormatError:
                continue  # not a VGF object
            step = info.meta.get("timestep")
            if not isinstance(step, int):
                continue
            entries.append(CatalogEntry(key, step, info))
        entries.sort(key=lambda e: (e.timestep, e.key))
        steps = [e.timestep for e in entries]
        if len(set(steps)) != len(steps):
            dupes = sorted({s for s in steps if steps.count(s) > 1})
            raise ReproError(f"duplicate timesteps in catalog: {dupes}")
        self._entries = entries

    # ------------------------------------------------------------------
    @property
    def timesteps(self) -> list[int]:
        return [e.timestep for e in self._entries]

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def entry(self, timestep: int) -> CatalogEntry:
        for e in self._entries:
            if e.timestep == timestep:
                return e
        raise ReproError(
            f"no timestep {timestep} in catalog; have {self.timesteps}"
        )

    def nearest(self, timestep: int) -> CatalogEntry:
        """The entry whose timestep is closest to ``timestep``."""
        if not self._entries:
            raise ReproError("catalog is empty")
        return min(self._entries, key=lambda e: abs(e.timestep - timestep))

    def load(self, timestep: int, array_names: list[str] | None = None):
        """Read the grid for ``timestep`` (with array selection)."""
        entry = self.entry(timestep)
        with self.fs.open(entry.key) as fh:
            return read_vgf(fh, array_names)
