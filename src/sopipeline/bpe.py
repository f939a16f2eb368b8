"""Byte-level byte-pair-encoding tokenizer.

The base alphabet is all 256 byte values, so any input encodes without
unknown tokens. Six reserved tokens (pad, mask, the ``<RS>`` separator, a
class marker, and the URL/email placeholders) hold fixed low ids, stay
atomic, and are never crossed or produced by merges.
"""

from __future__ import annotations

import hashlib
import heapq
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import ChecksumMismatchError, VocabError

# Fixed special-token ids. Order defines the id assignment.
SPECIAL_TOKENS: tuple[tuple[str, str], ...] = (
    ("pad", "<PAD>"),
    ("mask", "<MASK>"),
    ("separator", "<RS>"),
    ("class_marker", "<CLS>"),
    ("url", "[URL]"),
    ("email", "[EMAIL]"),
)
N_SPECIALS = len(SPECIAL_TOKENS)
PAD_ID = 0
MASK_ID = 1
SEPARATOR_ID = 2
CLASS_MARKER_ID = 3
URL_ID = 4
EMAIL_ID = 5

BYTE_BASE = N_SPECIALS  # byte value b encodes as id BYTE_BASE + b
MIN_VOCAB_SIZE = 256 + N_SPECIALS

_SPECIAL_LITERALS = tuple(lit for _, lit in SPECIAL_TOKENS)
_SPECIAL_SPLIT_BYTES = re.compile(
    b"(" + b"|".join(re.escape(lit.encode()) for lit in sorted(_SPECIAL_LITERALS, key=len, reverse=True)) + b")"
)
_SPECIAL_ID_BY_BYTES = {lit.encode(): i for i, (_, lit) in enumerate(SPECIAL_TOKENS)}
_DIGIT_BOUNDARY = re.compile(rb"(\d+)")

_MAGIC = b"SOVOC"
_VERSION = 1


@dataclass
class BpeVocab:
    """Learned merges plus the derived id <-> byte-sequence tables."""

    merges: list[tuple[bytes, bytes]]
    isolate_digits: bool = False
    rank: dict[tuple[bytes, bytes], int] = field(init=False, repr=False)
    token_bytes: list[bytes] = field(init=False, repr=False)
    _bytes_to_id: dict[bytes, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.rank = {pair: i for i, pair in enumerate(self.merges)}
        self.token_bytes = [lit.encode() for _, lit in SPECIAL_TOKENS]
        self.token_bytes += [bytes([b]) for b in range(256)]
        self._bytes_to_id = {bytes([b]): BYTE_BASE + b for b in range(256)}
        for left, right in self.merges:
            tok = left + right
            self._bytes_to_id[tok] = len(self.token_bytes)
            self.token_bytes.append(tok)

    @property
    def vocab_size(self) -> int:
        return len(self.token_bytes)

    @property
    def special_ids(self) -> frozenset[int]:
        return frozenset(range(N_SPECIALS))

    # -- encode/decode -----------------------------------------------------

    def encode(self, text: str | bytes) -> list[int]:
        """Tokenize arbitrary text/bytes; never yields an unknown id."""
        data = text.encode("utf-8") if isinstance(text, str) else bytes(text)
        ids: list[int] = []
        for piece in _SPECIAL_SPLIT_BYTES.split(data):
            if not piece:
                continue
            special = _SPECIAL_ID_BY_BYTES.get(piece)
            if special is not None:
                ids.append(special)
                continue
            for chunk in _pretoken_chunks(piece, self.isolate_digits):
                ids.extend(self._bytes_to_id[tok] for tok in _apply_merges(chunk, self.rank))
        return ids

    def decode_bytes(self, ids: Sequence[int]) -> bytes:
        out = []
        for i in ids:
            i = int(i)
            if not 0 <= i < self.vocab_size:
                raise VocabError(f"token id {i} out of range (vocab size {self.vocab_size})")
            out.append(self.token_bytes[i])
        return b"".join(out)

    def decode(self, ids: Sequence[int]) -> str:
        return self.decode_bytes(ids).decode("utf-8", errors="replace")

    # -- serialization -----------------------------------------------------

    def _serialize_body(self) -> bytes:
        parts = [_MAGIC, struct.pack("<H", _VERSION), struct.pack("<B", int(self.isolate_digits))]
        parts.append(struct.pack("<I", N_SPECIALS))
        for i, (name, literal) in enumerate(SPECIAL_TOKENS):
            nb, lb = name.encode(), literal.encode()
            parts.append(struct.pack("<HBB", i, len(nb), len(lb)))
            parts.append(nb)
            parts.append(lb)
        parts.append(struct.pack("<I", len(self.merges)))
        for left, right in self.merges:
            parts.append(struct.pack("<H", len(left)) + left)
            parts.append(struct.pack("<H", len(right)) + right)
        return b"".join(parts)

    @property
    def checksum(self) -> bytes:
        """8-byte digest binding shards to the vocabulary that made them."""
        return hashlib.sha256(self._serialize_body()).digest()[:8]

    def save(self, path: str | Path) -> None:
        body = self._serialize_body()
        Path(path).write_bytes(body + hashlib.sha256(body).digest()[:8])

    def __eq__(self, other) -> bool:
        return isinstance(other, BpeVocab) and (
            self.merges == other.merges and self.isolate_digits == other.isolate_digits
        )


def save_vocab(vocab: BpeVocab, path: str | Path) -> None:
    vocab.save(path)


def load_vocab(path: str | Path) -> BpeVocab:
    blob = Path(path).read_bytes()
    if len(blob) < len(_MAGIC) + 2 + 8 or blob[: len(_MAGIC)] != _MAGIC:
        raise VocabError(f"{path}: not a vocab file")
    body, trailer = blob[:-8], blob[-8:]
    if hashlib.sha256(body).digest()[:8] != trailer:
        raise ChecksumMismatchError(f"{path}: vocab checksum mismatch (truncated or corrupt)")
    pos = len(_MAGIC)
    (version,) = struct.unpack_from("<H", body, pos)
    pos += 2
    if version != _VERSION:
        raise VocabError(f"{path}: unsupported vocab version {version}")
    (isolate_digits,) = struct.unpack_from("<B", body, pos)
    pos += 1
    (n_specials,) = struct.unpack_from("<I", body, pos)
    pos += 4
    try:
        for _ in range(n_specials):
            _, name_len, lit_len = struct.unpack_from("<HBB", body, pos)
            pos += 4 + name_len + lit_len
        (n_merges,) = struct.unpack_from("<I", body, pos)
        pos += 4
        merges: list[tuple[bytes, bytes]] = []
        for _ in range(n_merges):
            (llen,) = struct.unpack_from("<H", body, pos)
            pos += 2
            left = body[pos : pos + llen]
            pos += llen
            (rlen,) = struct.unpack_from("<H", body, pos)
            pos += 2
            right = body[pos : pos + rlen]
            pos += rlen
            merges.append((left, right))
    except struct.error as exc:
        raise VocabError(f"{path}: malformed vocab file") from exc
    if pos != len(body):
        raise VocabError(f"{path}: trailing bytes in vocab file")
    return BpeVocab(merges=merges, isolate_digits=bool(isolate_digits))


# -- encoding core ----------------------------------------------------------


def _pretoken_chunks(piece: bytes, isolate_digits: bool) -> Iterator[bytes]:
    if not isolate_digits:
        yield piece
        return
    for chunk in _DIGIT_BOUNDARY.split(piece):
        if chunk:
            yield chunk


def _apply_merges(piece: bytes, rank: dict[tuple[bytes, bytes], int]) -> list[bytes]:
    """Merge byte symbols in learned priority order (linked list + heap).

    Equal-priority candidates apply left to right; merged nodes keep the
    left node's index, so index order stays consistent with text order.
    """
    n = len(piece)
    if n == 0:
        return []
    if not rank or n == 1:
        return [bytes([b]) for b in piece]

    toks: list[Optional[bytes]] = [bytes([b]) for b in piece]
    nxt = list(range(1, n)) + [-1]
    prv = [-1] + list(range(n - 1))

    heap: list[tuple[int, int, bytes, bytes]] = []
    for i in range(n - 1):
        r = rank.get((toks[i], toks[i + 1]))
        if r is not None:
            heap.append((r, i, toks[i], toks[i + 1]))
    heapq.heapify(heap)

    while heap:
        r, i, left, right = heapq.heappop(heap)
        if toks[i] != left:
            continue
        j = nxt[i]
        if j == -1 or toks[j] != right:
            continue
        toks[i] = left + right
        toks[j] = None
        nxt[i] = nxt[j]
        if nxt[j] != -1:
            prv[nxt[j]] = i
        k = prv[i]
        if k != -1:
            nr = rank.get((toks[k], toks[i]))
            if nr is not None:
                heapq.heappush(heap, (nr, k, toks[k], toks[i]))
        k = nxt[i]
        if k != -1:
            nr = rank.get((toks[i], toks[k]))
            if nr is not None:
                heapq.heappush(heap, (nr, i, toks[i], toks[k]))

    out = []
    i = 0
    while i != -1:
        out.append(toks[i])
        i = nxt[i]
    return out


# -- training ----------------------------------------------------------------


def train_bpe(
    corpus: Iterable[str],
    vocab_size: int,
    sample_fraction: float = 0.10,
    seed: int = 0,
    *,
    isolate_digits: bool = False,
) -> BpeVocab:
    """Learn merges by greedy most-frequent-pair merging.

    Each sample is kept with probability ``sample_fraction`` (seeded), and
    merging proceeds until ``vocab_size`` is reached or no adjacent pair
    occurs at least twice. Frequency ties break lexicographically on the
    pair's byte strings, which makes the merge list reproducible.

    All sampled pieces live in one doubly linked list of token ids, and each
    pair maps to the set of positions where it is the left token; a pair's
    count is the size of that set. A merge visits only the positions of its
    pair and updates the pairs on either side, so it costs time in the
    number of occurrences, not in the length of the samples holding them.
    """
    if not 0 < sample_fraction <= 1:
        raise VocabError(f"sample_fraction must be in (0, 1], got {sample_fraction}")
    if vocab_size < MIN_VOCAB_SIZE:
        raise VocabError(f"vocab_size must be at least {MIN_VOCAB_SIZE} (256 bytes + {N_SPECIALS} specials)")
    n_target_merges = vocab_size - MIN_VOCAB_SIZE

    # Token id t stands for tok[t]; ids 0-255 are the bytes themselves. -1
    # marks a piece boundary (including sentinels at both ends), and later
    # also a slot consumed by a merge. Pieces split at special literals and,
    # optionally, digit runs.
    rng = np.random.default_rng(seed)
    ids: list[int] = [-1]
    saw_any = False
    for text in corpus:
        saw_any = True
        if sample_fraction < 1 and rng.random() >= sample_fraction:
            continue
        for piece in _SPECIAL_SPLIT_BYTES.split(text.encode("utf-8")):
            if piece and piece not in _SPECIAL_ID_BY_BYTES:
                for chunk in _pretoken_chunks(piece, isolate_digits):
                    ids.extend(chunk)
                    ids.append(-1)
    if not saw_any:
        raise VocabError("corpus is empty")
    if len(ids) == 1:
        raise VocabError(f"corpus empty after sampling at fraction {sample_fraction}")
    # The links and position sets share one int object per position.
    index = list(range(len(ids) + 1))
    prv = [-1] + index[:-2]
    nxt = index[1:]

    where: dict[tuple[int, int], set[int]] = {}
    for i, a, j in zip(index, ids, nxt[:-1]):
        if a >= 0 and ids[j] >= 0:
            pair = (a, ids[j])
            at = where.get(pair)
            if at is None:
                where[pair] = {i}
            else:
                at.add(i)

    tok = [bytes([b]) for b in range(256)]
    tok_id = {t: i for i, t in enumerate(tok)}
    heap = [(-len(at), tok[a], tok[b], a, b) for (a, b), at in where.items()]
    heapq.heapify(heap)
    touched: set[tuple[int, int]] = set()

    def drop(pair: tuple[int, int], pos: int) -> None:
        at = where[pair]
        at.remove(pos)
        if not at:
            del where[pair]
        touched.add(pair)

    def add(pair: tuple[int, int], pos: int) -> None:
        at = where.get(pair)
        if at is None:
            where[pair] = {pos}
        else:
            at.add(pos)
        touched.add(pair)

    forbidden = {lit.encode() for _, lit in SPECIAL_TOKENS}
    merges: list[tuple[bytes, bytes]] = []
    while len(merges) < n_target_merges and heap:
        neg, left, right, a, b = heapq.heappop(heap)
        positions = where.get((a, b), ())
        if -neg != len(positions):
            continue  # stale entry
        if len(positions) < 2:
            break
        merged = left + right
        if merged in forbidden:
            continue  # a merge may not fabricate a special literal
        merges.append((left, right))
        # A token is its bytes: a merge that spells an existing token's
        # bytes yields that token, so their pairs are counted together.
        m = tok_id.get(merged)
        if m is None:
            m = tok_id[merged] = len(tok)
            tok.append(merged)

        # Left to right, so in a run like "aaa" the first match consumes
        # the middle token and the overlapping second one is skipped.
        for i in sorted(positions):
            if ids[i] != a:
                continue
            j = nxt[i]
            p, q = prv[i], nxt[j]
            drop((a, b), i)
            if ids[p] >= 0:
                drop((ids[p], a), p)
                add((ids[p], m), p)
            if ids[q] >= 0:
                drop((b, ids[q]), j)
                add((m, ids[q]), i)
            ids[i], ids[j] = m, -1
            nxt[i], prv[q] = q, i

        for pair in touched:
            at = where.get(pair)
            if at:
                heapq.heappush(heap, (-len(at), tok[pair[0]], tok[pair[1]], pair[0], pair[1]))
        touched.clear()

    return BpeVocab(merges=merges, isolate_digits=isolate_digits)
