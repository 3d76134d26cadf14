"""From-scratch LZ4 *block format* compressor and decompressor.

The environment has no ``lz4`` binding, so this module implements the block
format defined by the LZ4 specification (lz4_Block_format.md):

* a block is a sequence of *sequences*;
* each sequence is ``token | [literal-length bytes] | literals |
  offset(2, LE) | [match-length bytes]``;
* the token's high nibble is the literal length (15 = more bytes follow,
  each adding 0..255, terminated by a byte != 255), the low nibble is the
  match length minus 4 with the same extension rule;
* matches copy ``match_length`` bytes from ``offset`` bytes back in the
  *output*, and may self-overlap (offset < length repeats a pattern);
* end-of-block restrictions: the last sequence is literals-only, the last
  5 bytes are always literals, and a match may not start within the last
  12 bytes.

The compressor is the reference greedy scheme: a hash table over 4-byte
windows with the acceleration skip heuristic.  It is written for clarity
and correctness first; throughput constants used in performance modelling
come from :mod:`repro.storage.netsim`, not from this pure-Python kernel.
The decompressor does a constant number of bulk copies per sequence: a
self-overlapping match is appended as its period repeated, so a
run-length block costs one sequence, not one step per period.
"""

from __future__ import annotations

from repro.errors import CodecError

__all__ = ["lz4_compress_block", "lz4_decompress_block"]

_MINMATCH = 4
_MFLIMIT = 12          # a match may not start within this many bytes of the end
_LAST_LITERALS = 5     # the final bytes must be literals
_MAX_OFFSET = 65535
_HASH_MULT = 2654435761
_HASH_LOG = 16


def _hash4(word: int) -> int:
    """Hash a 4-byte little-endian window into the table index space."""
    return ((word * _HASH_MULT) & 0xFFFFFFFF) >> (32 - _HASH_LOG)


def _write_length(out: bytearray, extra: int) -> None:
    """Emit the 255-run extension encoding for a length remainder."""
    while extra >= 255:
        out.append(255)
        extra -= 255
    out.append(extra)


def _emit_sequence(
    out: bytearray, src: bytes, anchor: int, pos: int, offset: int, match_len: int
) -> None:
    """Emit one full sequence: literals ``src[anchor:pos]`` then a match."""
    lit_len = pos - anchor
    ml_code = match_len - _MINMATCH
    token = (min(lit_len, 15) << 4) | min(ml_code, 15)
    out.append(token)
    if lit_len >= 15:
        _write_length(out, lit_len - 15)
    out += src[anchor:pos]
    out.append(offset & 0xFF)
    out.append(offset >> 8)
    if ml_code >= 15:
        _write_length(out, ml_code - 15)


def _emit_last_literals(out: bytearray, src: bytes, anchor: int) -> None:
    """Emit the terminating literals-only sequence."""
    lit_len = len(src) - anchor
    out.append(min(lit_len, 15) << 4)
    if lit_len >= 15:
        _write_length(out, lit_len - 15)
    out += src[anchor:]


def lz4_compress_block(data: bytes, acceleration: int = 1) -> bytes:
    """Compress ``data`` into an LZ4 block.

    Parameters
    ----------
    data:
        Input bytes; empty input yields an empty block.
    acceleration:
        >= 1.  Higher values skip more aggressively after failed match
        attempts, trading ratio for speed (mirrors ``LZ4_compress_fast``).
    """
    src = bytes(data)
    n = len(src)
    if n == 0:
        return b""
    if acceleration < 1:
        raise CodecError(f"acceleration must be >= 1, got {acceleration}")

    out = bytearray()
    # Inputs too small to ever contain a legal match are all-literal.
    if n < _MFLIMIT + 1:
        _emit_last_literals(out, src, 0)
        return bytes(out)

    table: dict[int, int] = {}
    match_limit = n - _LAST_LITERALS
    scan_limit = n - _MFLIMIT
    anchor = 0
    pos = 0
    search_misses = 0
    frm = int.from_bytes  # local alias, hot path

    while pos <= scan_limit:
        word = frm(src[pos : pos + 4], "little")
        h = _hash4(word)
        candidate = table.get(h)
        table[h] = pos
        if (
            candidate is None
            or pos - candidate > _MAX_OFFSET
            or frm(src[candidate : candidate + 4], "little") != word
        ):
            search_misses += 1
            pos += 1 + (search_misses >> 6) * acceleration
            continue

        # Extend the match forward, comparing growing chunks.
        m = pos + _MINMATCH
        c = candidate + _MINMATCH
        while m < match_limit:
            span = min(64, match_limit - m)
            if src[m : m + span] == src[c : c + span]:
                m += span
                c += span
                continue
            # Binary-narrow the mismatch inside the chunk.
            step = span
            while step > 1:
                half = step // 2
                if src[m : m + half] == src[c : c + half]:
                    m += half
                    c += half
                step -= half
            if m < match_limit and src[m] == src[c]:
                m += 1
                c += 1
            break
        match_len = m - pos
        _emit_sequence(out, src, anchor, pos, pos - candidate, match_len)
        # Seed the table near the match end so later data can reference it.
        tail = pos + match_len
        if tail + 2 <= n:
            w = frm(src[tail - 2 : tail + 2], "little")
            table[_hash4(w)] = tail - 2
        pos = tail
        anchor = tail
        search_misses = 0

    _emit_last_literals(out, src, anchor)
    return bytes(out)


def lz4_decompress_block(block: bytes, max_output: int | None = None) -> bytes:
    """Decompress an LZ4 block.

    Parameters
    ----------
    block:
        The compressed block; empty input yields empty output.
    max_output:
        Optional hard cap on the decoded size, guarding against
        decompression bombs from untrusted inputs.

    Raises
    ------
    CodecError
        On any malformed input: truncated token/length/offset fields,
        zero offsets, or matches reaching before the start of output.
    """
    src = bytes(block)
    n = len(src)
    out = bytearray()
    out_len = 0  # == len(out), kept in a local for the per-sequence checks
    i = 0
    while i < n:
        token = src[i]
        i += 1
        lit_len = token >> 4
        if lit_len == 15:
            while True:
                if i >= n:
                    raise CodecError("truncated literal-length extension")
                b = src[i]
                i += 1
                lit_len += b
                if b != 255:
                    break
        if i + lit_len > n:
            raise CodecError("literal run past end of block")
        out_len += lit_len
        if max_output is not None and out_len > max_output:
            raise CodecError(f"output exceeds max_output={max_output}")
        out += src[i : i + lit_len]
        i += lit_len
        if i == n:
            break  # literals-only terminating sequence
        if i + 2 > n:
            raise CodecError("truncated match offset")
        offset = src[i] | (src[i + 1] << 8)
        i += 2
        if offset == 0:
            raise CodecError("zero match offset is invalid")
        match_len = (token & 0xF) + _MINMATCH
        if token & 0xF == 15:
            while True:
                if i >= n:
                    raise CodecError("truncated match-length extension")
                b = src[i]
                i += 1
                match_len += b
                if b != 255:
                    break
        start = out_len - offset
        if start < 0:
            raise CodecError(
                f"match offset {offset} reaches before start of output"
            )
        out_len += match_len
        if max_output is not None and out_len > max_output:
            raise CodecError(f"output exceeds max_output={max_output}")
        if offset >= match_len:
            out += out[start : start + match_len]
        else:
            # Overlapping match: the last ``offset`` bytes repeat as a period.
            period = bytes(out[start:])
            reps, rem = divmod(match_len, offset)
            out += period * reps
            out += period[:rem]
    return bytes(out)
