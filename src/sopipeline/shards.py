"""Binary token shard format.

Layout: magic ``SOTK1``, 8-byte vocabulary checksum, then for each sample a
little-endian u32 token count followed by that many u32 token ids. A JSON
sidecar index (``<shard>.idx.json``, version 2) holds the sample count, the
total token count and the per-sample lengths, so length statistics need no
pass over the payload.

The reader reads the payload in one call and yields each sample as a
read-only ``uint32`` view into it, so a loaded shard costs 4 bytes per token.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from .atomic import replacing
from .errors import ChecksumMismatchError, ShardError

MAGIC = b"SOTK1"
_HEADER_BYTES = len(MAGIC) + 8


def index_path(shard_path: str | Path) -> Path:
    return Path(str(shard_path) + ".idx.json")


def write_token_shard(
    path: str | Path,
    sequences: Iterable[list[int]],
    vocab_checksum: bytes,
) -> tuple[int, int]:
    """Write sequences to ``path``; returns (n_samples, total_tokens).

    The index is written inside the shard's ``replacing`` block, so it is
    renamed into place just before the shard, and a write that fails (such
    as on a token id outside [0, 2**32)) leaves any earlier pair as it was.
    """
    if len(vocab_checksum) != 8:
        raise ShardError(f"vocab checksum must be 8 bytes, got {len(vocab_checksum)}")
    lengths: list[int] = []
    with replacing(path) as fh:
        fh.write(MAGIC)
        fh.write(vocab_checksum)
        for i, seq in enumerate(sequences):
            ids = np.asarray(seq)
            out_of_range = (ids < 0) | (ids >= 2**32)
            if out_of_range.any():
                raise ShardError(f"{path}: sample {i} holds token id {ids[out_of_range][0]} outside [0, 2**32)")
            lengths.append(len(ids))
            fh.write(np.array([len(ids)], dtype="<u4"))
            fh.write(ids.astype("<u4"))
        fh.flush()  # a failed write then raises before the index is renamed
        index = {"version": 2, "n_samples": len(lengths), "total_tokens": sum(lengths), "lengths": lengths}
        with replacing(index_path(path), "w") as idx:
            idx.write(json.dumps(index, sort_keys=True) + "\n")
    return len(lengths), index["total_tokens"]


class ShardReader:
    """Sequential reader over one shard; safe for concurrent readers."""

    def __init__(self, path: str | Path, expected_checksum: Optional[bytes] = None):
        self.path = Path(path)
        with open(self.path, "rb") as fh:
            header = fh.read(_HEADER_BYTES)
        if len(header) < _HEADER_BYTES or header[: len(MAGIC)] != MAGIC:
            raise ShardError(f"{self.path}: not a token shard (bad magic)")
        self.vocab_checksum: bytes = header[len(MAGIC) :]
        if expected_checksum is not None and self.vocab_checksum != expected_checksum:
            raise ChecksumMismatchError(
                f"{self.path}: shard written under a different vocabulary "
                f"({self.vocab_checksum.hex()} != {expected_checksum.hex()})"
            )

    def __iter__(self) -> Iterator[np.ndarray]:
        with open(self.path, "rb") as fh:
            fh.seek(_HEADER_BYTES)
            payload = fh.read()
        if len(payload) % 4:
            raise ShardError(f"{self.path}: truncated payload ({len(payload)} bytes is not whole u32 words)")
        words = np.frombuffer(payload, dtype="<u4")
        pos = 0
        while pos < len(words):
            end = pos + 1 + int(words[pos])
            if end > len(words):
                raise ShardError(f"{self.path}: truncated sample payload at word {pos}")
            yield words[pos + 1 : end]
            pos = end
