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
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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

# encode_many merges texts in batches of about this many UTF-8 bytes: enough
# tokens to spread numpy's per-call cost, while the batch's state (int32 ids
# and links, int64 pair lookups: about 40 bytes per input byte at its peak)
# stays a few tens of MB.
_BATCH_BYTES = 512 * 1024


@dataclass
class BpeVocab:
    """Learned merges plus the derived id <-> byte-sequence tables."""

    merges: list[tuple[bytes, bytes]]
    isolate_digits: bool = False
    token_bytes: list[bytes] = field(init=False, repr=False)
    _bytes_to_id: dict[bytes, int] = field(init=False, repr=False)

    def __post_init__(self):
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

    # -- encode/decode -----------------------------------------------------

    def encode(self, text: str | bytes) -> list[int]:
        """Tokenize arbitrary text/bytes; never yields an unknown id.

        A batch of one: a lone short text costs a fraction of a millisecond,
        so streams of texts go through :meth:`encode_many`.
        """
        return next(self.encode_many((text,)))

    def encode_many(self, texts: Iterable[str | bytes]) -> Iterator[list[int]]:
        """Tokenize a stream of texts, yielding one id list per text, in order.

        Texts are read ahead in batches of about ``_BATCH_BYTES`` and each
        batch is merged at once (see :meth:`_merge`); the ids are those of
        applying the merges to every text on its own.
        """
        batch: list[bytes] = []
        size = 0
        for text in texts:
            data = text.encode("utf-8") if isinstance(text, str) else bytes(text)
            batch.append(data)
            size += len(data)
            if size >= _BATCH_BYTES:
                yield from self._encode_batch(batch)
                batch, size = [], 0
        if batch:
            yield from self._encode_batch(batch)

    def _encode_batch(self, datas: list[bytes]) -> Iterator[list[int]]:
        # One int32 token array for the batch: bytes as BYTE_BASE + b and each
        # special literal as its id, inline (no pair contains a special). The
        # prv/nxt links are -1 at text ends and, with isolate_digits, between
        # a digit and a non-digit. A slot consumed by a merge holds -1, and so
        # does a last, extra slot, which a -1 link reads.
        starts = np.zeros(len(datas) + 1, dtype=np.int64)
        np.cumsum([len(d) for d in datas], out=starts[1:])
        ids = np.full(int(starts[-1]) + 1, -1, dtype=np.int32)
        ids[:-1] = np.frombuffer(b"".join(datas), dtype=np.uint8)
        ids[:-1] += BYTE_BASE
        literal_tails: list[int] = []
        for start, data in zip(starts.tolist(), datas):
            for m in _SPECIAL_SPLIT_BYTES.finditer(data):
                at = start + m.start()
                ids[at] = _SPECIAL_ID_BY_BYTES[m.group()]
                literal_tails.extend(range(at + 1, start + m.end()))
        if literal_tails:
            keep = np.ones(len(ids), dtype=bool)
            keep[literal_tails] = False
            ids = ids[keep]
            kept_before = np.zeros(len(keep) + 1, dtype=np.int64)
            np.cumsum(keep, out=kept_before[1:])
            starts = kept_before[starts]
            del keep, kept_before

        n = len(ids)
        nxt = np.arange(1, n + 1, dtype=np.int32)
        prv = np.arange(-1, n - 1, dtype=np.int32)
        nonempty = starts[1:] > starts[:-1]
        nxt[starts[1:][nonempty] - 1] = -1
        prv[starts[:-1][nonempty]] = -1
        if self.isolate_digits:
            digit = (ids >= BYTE_BASE + ord("0")) & (ids <= BYTE_BASE + ord("9"))
            cut = np.flatnonzero(digit[:-1] != digit[1:])
            nxt[cut] = -1
            prv[cut + 1] = -1
            del digit, cut
        self._merge(ids, prv, nxt)

        bounds = starts.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            span = ids[lo:hi]
            yield span[span >= 0].tolist()

    def _merge(self, ids: np.ndarray, prv: np.ndarray, nxt: np.ndarray) -> None:
        """Apply the merges to a linked token array in place, by rank sweeps.

        Gives the segmentation of the per-piece heap encoder, which pops
        pending pairs in (rank, position) order (Sennrich et al. 2016 merge
        priority). A sweep takes every pending position of the lowest rank
        ``r`` = (A, B) -> M at once, keeps those still holding (A, B) and,
        when A == B, every other match of an overlapping run from its left,
        and merges them all. M's new neighbour pairs never rank ``r``; when
        one ranks below it (a vocab whose merges re-create an earlier token's
        bytes, or repeat a pair), the heap would take that pair next, so the
        sweep stops after the first merge creating one and re-queues every
        validated position to its right.
        """
        codes, code_ranks, pair_ids = self._pair_table
        # pair code a * w + b; a -1 side never matches (see _pair_table)
        w = self.vocab_size + 1
        no_rank = len(self.merges)

        def ranks_of(query: np.ndarray) -> np.ndarray:
            at = np.searchsorted(codes, query)
            return np.where(codes[at] == query, code_ranks[at], no_rank)

        pending: dict[int, list[np.ndarray]] = {}
        heap: list[int] = []

        def queue(pos: np.ndarray, ranks: np.ndarray) -> None:
            order = np.argsort(ranks, kind="stable")
            pos, ranks = pos[order], ranks[order]
            cuts = (np.flatnonzero(ranks[1:] != ranks[:-1]) + 1).tolist()
            for lo, hi in zip([0] + cuts, cuts + [len(ranks)]):
                r = int(ranks[lo])
                parts = pending.get(r)
                if parts is None:
                    pending[r] = [pos[lo:hi]]
                    heapq.heappush(heap, r)
                else:
                    parts.append(pos[lo:hi])

        ranks = ranks_of(ids[:-1].astype(np.int64) * w + ids[nxt[:-1]])
        pos = np.flatnonzero(ranks < no_rank).astype(np.int32)
        if len(pos):
            queue(pos, ranks[pos])
        del ranks

        while heap:
            r = heapq.heappop(heap)
            parts = pending.pop(r)
            # one filing holds a position at most once per rank
            pos = np.sort(parts[0]) if len(parts) == 1 else np.unique(np.concatenate(parts))
            a, b, m = pair_ids[r]
            right_of = nxt[pos]
            valid = (ids[pos] == a) & (ids[right_of] == b)
            pos, right_of = pos[valid], right_of[valid]
            if not len(pos):
                continue
            p, q = pos, right_of
            if a == b:
                chained = q[:-1] == p[1:]
                if chained.any():
                    at = np.arange(len(p))
                    run_start = np.where(np.concatenate(([True], ~chained)), at, 0)
                    np.maximum.accumulate(run_start, out=run_start)
                    take = (at - run_start) % 2 == 0
                    p, q = p[take], q[take]
            left, right = prv[p], nxt[q]
            # A left neighbour that is the right partner of the previous merge
            # is that merge's M, at its position.
            left_ids, left_pos = ids[left], left
            after = left[1:] == q[:-1]
            if after.any():
                left_ids[1:][after] = m
                left_pos = left.copy()
                left_pos[1:][after] = p[:-1][after]
            n_kept = len(p)
            new_ranks = ranks_of(np.concatenate((left_ids * np.int64(w) + m, ids[right] + np.int64(m * w))))
            inverted = new_ranks < r
            if inverted.any():
                c = int((inverted[:n_kept] | inverted[n_kept:]).argmax()) + 1
                rest = pos[pos > p[c - 1]]
                if len(rest):
                    pending[r] = [rest]
                    heapq.heappush(heap, r)
                p, q, left_pos, right = p[:c], q[:c], left_pos[:c], right[:c]
                new_ranks = np.concatenate((new_ranks[:c], new_ranks[n_kept : n_kept + c]))
            ids[p] = m
            ids[q] = -1
            nxt[p] = right
            prv[right] = p  # a -1 link writes the unused last slot
            found = new_ranks < no_rank
            if found.any():
                queue(np.concatenate((left_pos, p))[found], new_ranks[found])

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

    @cached_property
    def checksum(self) -> bytes:
        """8-byte digest binding shards to the vocabulary that made them."""
        return hashlib.sha256(self._serialize_body()).digest()[:8]

    @cached_property
    def _pair_table(self) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int, int]]]:
        """Sorted codes ``a * (vocab_size + 1) + b`` of the mergeable id pairs,
        the rank of each, and ``(a, b, merged)`` ids per rank.

        Ids are canonical: a token is its bytes, and bytes made by several
        merges take the last one's id, as encoding outputs. A repeated pair
        keeps its last rank. A side of -1 gives a negative code or one whose
        right part is ``vocab_size``, which no pair has. Built on the first
        encode, not on load.
        """
        w = self.vocab_size + 1
        rank_by_code: dict[int, int] = {}
        pair_ids = []
        for r, (left, right) in enumerate(self.merges):
            a, b = self._bytes_to_id.get(left, -1), self._bytes_to_id.get(right, -1)
            pair_ids.append((a, b, self._bytes_to_id[left + right]))
            if a >= 0 and b >= 0:  # otherwise no token ever spells a side
                rank_by_code[a * w + b] = r
        by_code = sorted(rank_by_code.items())
        # a final code above any query keeps searchsorted in range
        codes = np.array([c for c, _ in by_code] + [np.iinfo(np.int64).max], dtype=np.int64)
        ranks = np.array([r for _, r in by_code] + [len(self.merges)], dtype=np.int32)
        return codes, ranks, pair_ids

    def save(self, path: str | Path) -> None:
        body = self._serialize_body()
        Path(path).write_bytes(body + hashlib.sha256(body).digest()[:8])

    def __eq__(self, other) -> bool:
        return isinstance(other, BpeVocab) and (
            self.merges == other.merges and self.isolate_digits == other.isolate_digits
        )


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


# -- pre-tokenization -------------------------------------------------------


def _pretoken_chunks(piece: bytes, isolate_digits: bool) -> Iterator[bytes]:
    if not isolate_digits:
        yield piece
        return
    for chunk in _DIGIT_BOUNDARY.split(piece):
        if chunk:
            yield chunk


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
