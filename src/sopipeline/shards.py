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
import os
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

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

    The shard and its index are written to ``.tmp`` siblings and renamed
    into place only after the last sample, so a write that fails (such as
    on a token id outside [0, 2**32)) leaves any earlier shard as it was.
    """
    if len(vocab_checksum) != 8:
        raise ShardError(f"vocab checksum must be 8 bytes, got {len(vocab_checksum)}")
    path, idx_path = Path(path), index_path(path)
    tmp, idx_tmp = Path(f"{path}.tmp"), Path(f"{idx_path}.tmp")
    lengths: list[int] = []
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(vocab_checksum)
            for i, seq in enumerate(sequences):
                ids = np.asarray(seq)
                out_of_range = (ids < 0) | (ids >= 2**32)
                if out_of_range.any():
                    raise ShardError(
                        f"{path}: sample {i} holds token id {ids[out_of_range][0]} outside [0, 2**32)"
                    )
                lengths.append(len(ids))
                fh.write(np.array([len(ids)], dtype="<u4"))
                fh.write(ids.astype("<u4"))
        total = sum(lengths)
        index = {
            "version": 2,
            "n_samples": len(lengths),
            "total_tokens": total,
            "lengths": lengths,
        }
        idx_tmp.write_text(json.dumps(index, sort_keys=True) + "\n")
        os.replace(tmp, path)
        os.replace(idx_tmp, idx_path)
    finally:
        tmp.unlink(missing_ok=True)
        idx_tmp.unlink(missing_ok=True)
    return len(lengths), total


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
