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

from .atomic import replacing
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

_SPECIAL_ID_BY_BYTES = {lit.encode(): i for i, (_, lit) in enumerate(SPECIAL_TOKENS)}
_SPECIAL_SPLIT_BYTES = re.compile(
    b"(" + b"|".join(re.escape(lit) for lit in sorted(_SPECIAL_ID_BY_BYTES, key=len, reverse=True)) + b")"
)
# the bytes of the ids below MIN_VOCAB_SIZE, which no merge makes
_BASE_TOKENS = tuple(_SPECIAL_ID_BY_BYTES) + tuple(bytes([b]) for b in range(256))

_MAGIC = b"SOVOC"
_VERSION = 1

# encode_many merges texts in batches of about this many UTF-8 bytes: enough
# tokens to spread numpy's per-call cost, while the batch's state (int32 ids
# and links, the first rank lookup: about 26 bytes per input byte at its
# peak) stays a few tens of MB.
_BATCH_BYTES = 512 * 1024


@dataclass
class BpeVocab:
    """Learned merges plus the derived id <-> byte-sequence tables. Each
    merge joins two earlier tokens into new bytes; merge r's id is 262 + r."""

    merges: list[tuple[bytes, bytes]]
    isolate_digits: bool = False
    token_bytes: list[bytes] = field(init=False, repr=False, compare=False)
    _bytes_to_id: dict[bytes, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.token_bytes = list(_BASE_TOKENS)
        self._bytes_to_id = {bytes([b]): BYTE_BASE + b for b in range(256)}
        for r, (left, right) in enumerate(self.merges):
            tok = left + right
            if left not in self._bytes_to_id or right not in self._bytes_to_id or tok in self._bytes_to_id:
                raise VocabError(f"merge {r} ({left!r}, {right!r}) does not join two earlier tokens into a new one")
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
        ids, prv, nxt, starts = _links(datas, self.isolate_digits)
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
        and merges them all (:func:`_merge_at`). M's new neighbour pairs all rank above ``r``:
        a merge's sides are earlier tokens. So sweeps run in rank order, and
        a rank's positions are all queued at once, in the first lookup when
        both its sides are bytes, else in the sweep that makes its newer
        side: one pending array per rank, its positions ascending (the
        lookup and each side of a sweep list them in order). The sweeps walk
        the ranks upward until none is pending.

        Ranks are looked up, never searched (see :attr:`_pair_table`): the
        initial pairs, all of byte ids, in a dense table, and the pairs a
        sweep creates, all with M on one side, in a row of rank by partner
        that holds M's partners for the time of one gather.
        """
        byte_ranks, lefts, rights, pair_ids = self._pair_table
        no_rank = len(self.merges)
        # rank by partner id; the last slot, which an id of -1 reads, stays no_rank
        row = np.full(self.vocab_size + 1, no_rank, dtype=byte_ranks.dtype)

        def ranks_beside(csr: tuple[np.ndarray, ...], m: int, query: np.ndarray) -> np.ndarray:
            """The rank of m with each id of ``query``, on the side ``csr`` lists."""
            ptr, partner, rank = csr
            at = slice(ptr[m], ptr[m + 1])
            row[partner[at]] = rank[at]
            ranks = row[query]
            row[partner[at]] = no_rank
            return ranks

        pending: dict[int, np.ndarray] = {}

        def queue(pos: np.ndarray, ranks: np.ndarray) -> None:
            order = np.argsort(ranks, kind="stable")
            pos, ranks = pos[order], ranks[order]
            cuts = (np.flatnonzero(ranks[1:] != ranks[:-1]) + 1).tolist()
            for lo, hi in zip([0] + cuts, cuts + [len(ranks)]):
                pending[int(ranks[lo])] = pos[lo:hi]

        ranks = byte_ranks[ids[:-1], ids[nxt[:-1]]]
        pos = np.flatnonzero(ranks < no_rank).astype(np.int32)
        if len(pos):
            queue(pos, ranks[pos])
        del ranks

        for r in range(no_rank):
            if not pending:
                break  # only a sweep queues ranks
            if r not in pending:
                continue
            (a, b), m = pair_ids[r], MIN_VOCAB_SIZE + r
            p = _matches(nxt, _holding(ids, nxt, pending.pop(r), a, b), a == b)
            if not len(p):
                continue
            left, right = _merge_at(ids, prv, nxt, p, m)
            new_ranks = np.concatenate((ranks_beside(lefts, m, ids[left]), ranks_beside(rights, m, ids[right])))
            found = new_ranks < no_rank
            if found.any():
                queue(np.concatenate((left, p))[found], new_ranks[found])

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
    def _pair_table(self) -> tuple[np.ndarray, tuple[np.ndarray, ...], tuple[np.ndarray, ...], list]:
        """The rank of each mergeable id pair (a, b), looked up three ways,
        and ``(a, b)`` per rank.

        - ``byte_ranks[a, b]``, dense over the ids below ``MIN_VOCAB_SIZE``
          (specials and bytes), whose last row and column (index -1) read
          ``no_rank``: the pairs of a text before any merge.
        - ``lefts``: CSR arrays ``(ptr, partner, rank)``, where the slice
          ``ptr[b]:ptr[b + 1]`` lists each ``a`` with its rank.
        - ``rights``: the same keyed by ``a``, listing each ``b``.

        Ranks, and ``no_rank = len(merges)`` for a pair that never merges,
        are of the smallest unsigned dtype holding them: 16 bits up to
        65,535 merges, where a stable argsort is a radix sort.

        Built on the first encode, not on load.
        """
        pair_ids = [(self._bytes_to_id[left], self._bytes_to_id[right]) for left, right in self.merges]
        dtype = np.min_scalar_type(len(self.merges))
        a, b = np.array(pair_ids, dtype=np.intp).reshape(-1, 2).T
        ranks = np.arange(len(self.merges), dtype=dtype)

        byte_ranks = np.full((MIN_VOCAB_SIZE + 1, MIN_VOCAB_SIZE + 1), len(self.merges), dtype=dtype)
        small = (a < MIN_VOCAB_SIZE) & (b < MIN_VOCAB_SIZE)
        byte_ranks[a[small], b[small]] = ranks[small]

        def csr(key: np.ndarray, partner: np.ndarray) -> tuple[np.ndarray, ...]:
            order = np.argsort(key, kind="stable")
            ptr = np.zeros(self.vocab_size + 1, dtype=np.intp)
            np.cumsum(np.bincount(key, minlength=self.vocab_size), out=ptr[1:])
            return ptr, partner[order], ranks[order]

        return byte_ranks, csr(b, a), csr(a, b), pair_ids

    def save(self, path: str | Path) -> None:
        body = self._serialize_body()
        with replacing(path) as fh:
            fh.write(body)
            fh.write(hashlib.sha256(body).digest()[:8])


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
    try:
        (isolate_digits,) = struct.unpack_from("<B", body, pos)
        pos += 1
        if isolate_digits not in (0, 1):
            raise VocabError(f"{path}: digits flag is {isolate_digits}, expected 0 or 1")
        (n_specials,) = struct.unpack_from("<I", body, pos)
        pos += 4
        if n_specials != N_SPECIALS:
            raise VocabError(f"{path}: {n_specials} special tokens, expected {N_SPECIALS}")
        # ids are fixed, so a foreign table would re-map tokens silently
        for i, (want_name, want_lit) in enumerate(SPECIAL_TOKENS):
            sid, name_len, lit_len = struct.unpack_from("<HBB", body, pos)
            pos += 4
            name = body[pos : pos + name_len].decode("utf-8", errors="replace")
            pos += name_len
            literal = body[pos : pos + lit_len].decode("utf-8", errors="replace")
            pos += lit_len
            if (sid, name, literal) != (i, want_name, want_lit):
                raise VocabError(
                    f"{path}: special token {sid} {name!r} {literal!r}, expected {i} {want_name!r} {want_lit!r}"
                )
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
    try:
        vocab = BpeVocab(merges=merges, isolate_digits=bool(isolate_digits))
    except VocabError as exc:
        raise VocabError(f"{path}: {exc}") from None
    # every field above is checked, so the body is the one _serialize_body
    # would write, and the verified trailer is its checksum
    vocab.__dict__["checksum"] = trailer
    return vocab


# -- token arrays ----------------------------------------------------------


def _links(datas: list[bytes], isolate_digits: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One int32 token array for ``datas`` with its ``prv``/``nxt`` links,
    and each text's first slot.

    Bytes are ``BYTE_BASE + b`` and each special literal is its id, inline.
    The links are -1 at text ends, on both sides of a special (no pair has a
    special side) and, with ``isolate_digits``, between a digit and a
    non-digit. A slot consumed by a merge holds -1, and so does a last,
    extra slot, which a -1 link reads; ``starts`` ends with it.
    """
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
        # a tail lies inside its text, so a text's start moves back by the
        # tails before it
        tails = np.array(literal_tails)
        ids = np.delete(ids, tails)
        starts -= np.searchsorted(tails, starts)

    # cut[i]: slots i and i + 1 never pair. The extra slot counts as a
    # special, and the text starting at slot 0 cuts at -1, that same slot.
    special = ids < BYTE_BASE
    cut = special.copy()
    cut[:-1] |= special[1:]
    cut[starts[:-1] - 1] = True
    if isolate_digits:
        digit = (ids >= BYTE_BASE + ord("0")) & (ids <= BYTE_BASE + ord("9"))
        cut[:-1] |= digit[:-1] != digit[1:]
    n = len(ids)
    nxt = np.arange(1, n + 1, dtype=np.int32)
    prv = np.arange(-1, n - 1, dtype=np.int32)
    nxt[cut] = -1
    prv[1:][cut[:-1]] = -1
    return ids, prv, nxt, starts


def _holding(ids: np.ndarray, nxt: np.ndarray, pos: np.ndarray, a: int, b: int) -> np.ndarray:
    """The positions of ``pos`` that still hold the pair (a, b)."""
    return pos[(ids[pos] == a) & (ids[nxt[pos]] == b)]


def _matches(nxt: np.ndarray, p: np.ndarray, same: bool) -> np.ndarray:
    """The positions a left-to-right pass merges among the sorted positions
    ``p`` holding one pair: all of them, or when its two sides are the
    ``same`` token every other one of an overlapping run, from its left.
    """
    if same:
        overlap = nxt[p[:-1]] == p[1:]
        if overlap.any():
            at = np.arange(len(p))
            run_start = np.where(np.concatenate(([True], ~overlap)), at, 0)
            np.maximum.accumulate(run_start, out=run_start)
            p = p[(at - run_start) % 2 == 0]
    return p


def _merge_at(ids: np.ndarray, prv: np.ndarray, nxt: np.ndarray, p: np.ndarray, m: int) -> tuple[np.ndarray, ...]:
    """Merge each match at the sorted positions ``p`` into ``m``, in place,
    and return the slots before and after the merges. Read after the write,
    a slot the previous match consumed holds -1, as an end link's does, so
    two adjacent matches show their (m, m) only as the first one's right
    pair. The linked slots on each side ascend."""
    q = nxt[p]
    before, after = prv[p], nxt[q]
    ids[p] = m
    ids[q] = -1
    nxt[p] = after
    prv[after] = p  # a -1 link writes the unused last slot
    return before, after


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

    The sample is one linked token array, built as for encoding (see
    :func:`_links`). A slot comes to hold the pair (a, b) only at a step
    that makes a at the slot or b at its right neighbour, and each token is
    made by one merge (below). So all the positions of a pair arise at one
    step, the one that makes its newer side (at the start if both are
    bytes), and after that its count only falls. Each pair code
    ``a * (vocab_size + 1) + b`` is thus filed once, with the sorted int32
    array of its positions, and the heap holds one entry per filed pair,
    (count, bytes), whose count is an upper bound:

    - a pair seen once when it is filed never reaches 2, so it is neither
      filed nor pushed;
    - a popped pair is counted over its filed positions (:func:`_holding`).
      At its entry's count it is merged: every other pair counts at most
      its own entry, which is below that count or equal to it with later
      bytes, so this is the pair that recounting every pair would pick.
      Below its entry's count it keeps the positions that still hold it
      and is pushed again, or is dropped if fewer than 2 are left;
    - a merge counts none of the pairs it breaks. Those are found when they
      pop, and every position filed under the merged pair now holds the new
      token or has lost a side.

    A merge thus costs time in the number of places its pair arose, not in
    the length of the samples.

    Each merge makes a new token, id ``len(tok)``, as :class:`BpeVocab`
    requires. Locality: a stretch whose ends are token boundaries at step τ
    had them at every earlier step (boundaries only vanish), so no merge
    paired across them, the overlap rule's parity restarted at its left
    end, and digit and special cuts depend on its bytes: it is cut at τ as
    its bytes alone would be. So if merge t re-spelled (or repeated) the
    bytes S of token Z, first made at step s < t from a stretch reading
    [P, Q] at s - 1, the stretch reading [X, Y] at t - 1 has bytes S, so it
    read [P, Q] at s - 1 too, and step s merged it into Z, removing its
    X|Y boundary: a contradiction.
    """
    if not 0 < sample_fraction <= 1:
        raise VocabError(f"sample_fraction must be in (0, 1], got {sample_fraction}")
    if vocab_size < MIN_VOCAB_SIZE:
        raise VocabError(f"vocab_size must be at least {MIN_VOCAB_SIZE} (256 bytes + {N_SPECIALS} specials)")
    n_target_merges = vocab_size - MIN_VOCAB_SIZE

    rng = np.random.default_rng(seed)
    datas: list[bytes] = []
    saw_any = False
    for text in corpus:
        saw_any = True
        if sample_fraction < 1 and rng.random() >= sample_fraction:
            continue
        datas.append(text.encode("utf-8"))
    if not saw_any:
        raise VocabError("corpus is empty")
    ids, prv, nxt, _ = _links(datas, isolate_digits)
    del datas
    if ids.max() < BYTE_BASE:
        raise VocabError(f"corpus empty after sampling at fraction {sample_fraction}")

    w = vocab_size + 1  # ids stay below vocab_size
    tok = list(_BASE_TOKENS)
    filed: dict[int, np.ndarray] = {}

    def file(codes: np.ndarray, pos: np.ndarray, key: np.ndarray) -> list[tuple[int, bytes, bytes, int]]:
        """File the pairs ``codes`` that occur at least twice; return their
        heap entries. Each code's positions ascend in ``pos``, so a stable
        sort on ``key``, which orders as the codes do, sorts by code, then
        position."""
        order = np.argsort(key, kind="stable")
        codes, pos = codes[order], pos[order]
        firsts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
        sizes = np.concatenate((firsts[1:], [len(codes)])) - firsts
        twice = sizes >= 2
        pos = pos[np.repeat(twice, sizes)]
        entries = []
        lo = 0
        for code, k in zip(codes[firsts[twice]].tolist(), sizes[twice].tolist()):
            filed[code] = pos[lo : lo + k]
            lo += k
            entries.append((-k, tok[code // w], tok[code % w], code))
        return entries

    pos = np.flatnonzero(ids[nxt[:-1]] >= 0).astype(np.int32)
    # every linked pair is two bytes: a 16-bit key, which numpy radix-sorts
    key = ((ids[pos] - BYTE_BASE) << 8 | ids[nxt[pos]] - BYTE_BASE).astype(np.uint16)
    heap = file(ids[pos].astype(np.int64) * w + ids[nxt[pos]], pos, key)
    heapq.heapify(heap)
    del pos, key
    merges: list[tuple[bytes, bytes]] = []
    while len(merges) < n_target_merges and heap:
        neg, left, right, code = heapq.heappop(heap)
        a, b = divmod(code, w)
        held = _holding(ids, nxt, filed.pop(code), a, b)
        if len(held) < -neg:  # a bound left by a fall
            if len(held) >= 2:
                filed[code] = held
                heapq.heappush(heap, (-len(held), left, right, code))
            continue
        merges.append((left, right))
        m = len(tok)
        tok.append(left + right)

        p = _matches(nxt, held, a == b)
        before, after = _merge_at(ids, prv, nxt, p, m)
        before = before[ids[before] >= 0]
        p = p[ids[after] >= 0]
        gained = np.concatenate((ids[before].astype(np.int64) * w + m, ids[nxt[p]].astype(np.int64) + m * w))
        for entry in file(gained, np.concatenate((before, p)), gained):  # each code on one side only
            heapq.heappush(heap, entry)

    return BpeVocab(merges=merges, isolate_digits=isolate_digits)
