"""MLM masking: Bernoulli position selection with the 80/10/10 action split."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..bpe import MASK_ID, N_SPECIALS, PAD_ID
from ..errors import TrainingError, UsageError

IGNORE_LABEL = -100
_SPECIAL_IDS = np.arange(N_SPECIALS)
# a selected position becomes [MASK] below the first cut, a random token
# below the second, and stays unchanged above it
_ACTION_CUTS = (0.8, 0.9)


@dataclass
class MaskedBatch:
    input_ids: np.ndarray  # [B, T] int64
    attn_mask: np.ndarray  # [B, T] 1 = real token, 0 = padding
    labels: np.ndarray  # [B, T] original ids at masked positions, else IGNORE_LABEL


def mask_sequence(
    ids: Sequence[int],
    rate: float,
    rng: np.random.Generator,
    *,
    vocab_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Mask one sequence; returns (input_ids, labels).

    Every non-special position is selected independently with probability
    ``rate``. Selected positions become the mask token with p=0.8, a random
    non-special token with p=0.1, and stay unchanged otherwise; labels hold
    the original ids exactly at selected positions.
    """
    if not 0 < rate < 1:
        raise UsageError(f"mask rate must lie strictly between 0 and 1, got {rate}")
    arr = np.asarray(ids, dtype=np.int64)
    if arr.size == 0:
        raise UsageError("cannot mask an empty sequence")
    special = np.isin(arr, _SPECIAL_IDS)
    if special.all():
        raise TrainingError("sequence consists only of special tokens; nothing to mask")

    selected = (rng.random(arr.size) < rate) & ~special
    labels = np.full(arr.size, IGNORE_LABEL, dtype=np.int64)
    labels[selected] = arr[selected]

    out = arr.copy()
    action = rng.random(arr.size)
    replace_mask = selected & (action < _ACTION_CUTS[0])
    replace_random = selected & (action >= _ACTION_CUTS[0]) & (action < _ACTION_CUTS[1])
    out[replace_mask] = MASK_ID
    if replace_random.any():
        out[replace_random] = rng.integers(N_SPECIALS, vocab_size, size=int(replace_random.sum()))
    return out, labels


def pad_rows(rows: Sequence[Sequence[int]], width: int, fill: int) -> tuple[np.ndarray, np.ndarray]:
    """Left-align ``rows`` in a [len(rows), width] int64 array of ``fill``;
    returns it with the 0/1 mask of the cells the rows cover."""
    out = np.full((len(rows), width), fill, dtype=np.int64)
    covered = np.zeros((len(rows), width), dtype=np.int64)
    for i, row in enumerate(rows):
        out[i, : len(row)] = row
        covered[i, : len(row)] = 1
    return out, covered


def make_masked_batch(
    sequences: Sequence[Sequence[int]],
    rate: float,
    *,
    vocab_size: int,
    seed: int = 0,
    indices: Optional[Sequence[int]] = None,
) -> MaskedBatch:
    """Mask a batch of sequences and pad it to its longest one.

    Each sequence's randomness is keyed by (seed, its stream index) --
    ``indices[i]``, or ``i`` without ``indices`` -- so the same stream of
    sequences produces the same masks no matter how it is split into
    micro-batches.
    """
    if not sequences:
        raise UsageError("empty batch")
    if indices is not None and len(indices) != len(sequences):
        raise UsageError("indices must align with sequences")
    T = max(len(s) for s in sequences)
    keys = range(len(sequences)) if indices is None else indices
    rows = [
        mask_sequence(seq, rate, np.random.default_rng([seed, key]), vocab_size=vocab_size)
        for seq, key in zip(sequences, keys)
    ]
    input_ids, attn_mask = pad_rows([ids for ids, _ in rows], T, PAD_ID)
    labels, _ = pad_rows([lab for _, lab in rows], T, IGNORE_LABEL)
    return MaskedBatch(input_ids=input_ids, attn_mask=attn_mask, labels=labels)
