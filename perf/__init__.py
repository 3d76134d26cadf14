"""Wall-clock perf ledger for the default ``repro serve`` (see README.md)."""
