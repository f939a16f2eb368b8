"""Binary token shard format.

Layout: magic ``SOTK1``, 8-byte vocabulary checksum, then for each sample a
little-endian u32 token count followed by that many u32 token ids. A JSON
sidecar index (``<shard>.idx.json``, version 2) holds the sample count, the
total token count and the per-sample lengths, so length statistics need no
pass over the payload.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .errors import ChecksumMismatchError, ShardError

MAGIC = b"SOTK1"
_U32 = struct.Struct("<I")


def index_path(shard_path: str | Path) -> Path:
    return Path(str(shard_path) + ".idx.json")


def write_token_shard(
    path: str | Path,
    sequences: Iterable[list[int]],
    vocab_checksum: bytes,
) -> tuple[int, int]:
    """Write sequences to ``path``; returns (n_samples, total_tokens)."""
    if len(vocab_checksum) != 8:
        raise ShardError(f"vocab checksum must be 8 bytes, got {len(vocab_checksum)}")
    lengths: list[int] = []
    total = 0
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(vocab_checksum)
        for seq in sequences:
            lengths.append(len(seq))
            fh.write(_U32.pack(len(seq)))
            fh.write(struct.pack(f"<{len(seq)}I", *seq))
            total += len(seq)
    index = {
        "version": 2,
        "n_samples": len(lengths),
        "total_tokens": total,
        "lengths": lengths,
    }
    index_path(path).write_text(json.dumps(index, sort_keys=True) + "\n")
    return len(lengths), total


class ShardReader:
    """Sequential reader over one shard; safe for concurrent readers."""

    def __init__(self, path: str | Path, expected_checksum: Optional[bytes] = None):
        self.path = Path(path)
        with open(self.path, "rb") as fh:
            header = fh.read(len(MAGIC) + 8)
        if len(header) < len(MAGIC) + 8 or header[: len(MAGIC)] != MAGIC:
            raise ShardError(f"{self.path}: not a token shard (bad magic)")
        self.vocab_checksum: bytes = header[len(MAGIC) :]
        if expected_checksum is not None and self.vocab_checksum != expected_checksum:
            raise ChecksumMismatchError(
                f"{self.path}: shard written under a different vocabulary "
                f"({self.vocab_checksum.hex()} != {expected_checksum.hex()})"
            )

    def __iter__(self) -> Iterator[list[int]]:
        with open(self.path, "rb") as fh:
            fh.seek(len(MAGIC) + 8)
            while True:
                raw = fh.read(4)
                if not raw:
                    break
                if len(raw) < 4:
                    raise ShardError(f"{self.path}: truncated sample header")
                (count,) = _U32.unpack(raw)
                payload = fh.read(4 * count)
                if len(payload) < 4 * count:
                    raise ShardError(f"{self.path}: truncated sample payload")
                yield list(struct.unpack(f"<{count}I", payload))
