"""Byte-level BPE: training and encoding oracles, roundtrips, no-unknown guarantee."""

import hashlib
import heapq
import re
import struct
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from sopipeline import bpe
from sopipeline.bpe import (
    MIN_VOCAB_SIZE,
    N_SPECIALS,
    SEPARATOR_ID,
    SPECIAL_TOKENS,
    BpeVocab,
    load_vocab,
    train_bpe,
)
from sopipeline.cli import main
from sopipeline.errors import ChecksumMismatchError, VocabError


def brute_force_merges(texts, n_merges, isolate_digits=False):
    """Independent oracle: recount every pair from scratch at each step."""
    special_literals = [lit.encode() for _, lit in SPECIAL_TOKENS]

    def split_specials(data):
        pieces, i = [data], 0
        for lit in sorted(special_literals, key=len, reverse=True):
            nxt = []
            for piece in pieces:
                if isinstance(piece, int):
                    nxt.append(piece)
                    continue
                while lit in piece:
                    at = piece.index(lit)
                    if at:
                        nxt.append(piece[:at])
                    nxt.append(-1)  # special marker, never merged
                    piece = piece[at + len(lit):]
                if piece:
                    nxt.append(piece)
            pieces = nxt
        return [p for p in pieces if not isinstance(p, int)]

    seqs = []
    for text in texts:
        for piece in split_specials(text.encode()):
            chunks = re.split(rb"(\d+)", piece) if isolate_digits else [piece]
            seqs.extend([bytes([b]) for b in chunk] for chunk in chunks if chunk)

    merges = []
    while len(merges) < n_merges:
        counts = Counter()
        for seq in seqs:
            counts.update(zip(seq, seq[1:]))
        if not counts:
            break
        best_count = max(counts.values())
        if best_count < 2:
            break
        best = min(pair for pair, c in counts.items() if c == best_count)
        merges.append(best)
        merged = best[0] + best[1]
        for idx, seq in enumerate(seqs):
            out, i = [], 0
            while i < len(seq):
                if i + 1 < len(seq) and (seq[i], seq[i + 1]) == best:
                    out.append(merged)
                    i += 2
                else:
                    out.append(seq[i])
                    i += 1
            seqs[idx] = out
    return merges


def position_set_merges(corpus, vocab_size, sample_fraction, seed=0, isolate_digits=False):
    """Reference trainer: the merge list of greedy training over a Python
    linked list of byte ids, with the exact set of left positions per pair
    updated at every merge (the trainer's former design)."""
    n_target_merges = vocab_size - MIN_VOCAB_SIZE
    rng = np.random.default_rng(seed)
    ids = [-1]  # -1: piece boundary, or a slot consumed by a merge
    for text in corpus:
        if sample_fraction < 1 and rng.random() >= sample_fraction:
            continue
        for piece in bpe._SPECIAL_SPLIT_BYTES.split(text.encode("utf-8")):
            if piece and piece not in bpe._SPECIAL_ID_BY_BYTES:
                for chunk in re.split(rb"(\d+)", piece) if isolate_digits else [piece]:
                    if chunk:
                        ids.extend(chunk)
                        ids.append(-1)
    index = list(range(len(ids) + 1))
    prv = [-1] + index[:-2]
    nxt = index[1:]
    where = {}
    for i, a, j in zip(index, ids, nxt[:-1]):
        if a >= 0 and ids[j] >= 0:
            where.setdefault((a, ids[j]), set()).add(i)

    tok = [bytes([b]) for b in range(256)]
    tok_id = {t: i for i, t in enumerate(tok)}
    heap = [(-len(at), tok[a], tok[b], a, b) for (a, b), at in where.items()]
    heapq.heapify(heap)
    touched = set()

    def drop(pair, pos):
        where[pair].remove(pos)
        if not where[pair]:
            del where[pair]
        touched.add(pair)

    def add(pair, pos):
        where.setdefault(pair, set()).add(pos)
        touched.add(pair)

    forbidden = {lit.encode() for _, lit in SPECIAL_TOKENS}
    merges = []
    while len(merges) < n_target_merges and heap:
        neg, left, right, a, b = heapq.heappop(heap)
        positions = where.get((a, b), ())
        if -neg != len(positions):
            continue
        if len(positions) < 2:
            break
        if left + right in forbidden:
            continue
        merges.append((left, right))
        m = tok_id.get(left + right)
        if m is None:
            m = tok_id[left + right] = len(tok)
            tok.append(left + right)
        for i in sorted(positions):
            if ids[i] != a:
                continue  # consumed by the previous match of an overlapping run
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
            if where.get(pair):
                heapq.heappush(heap, (-len(where[pair]), tok[pair[0]], tok[pair[1]], pair[0], pair[1]))
        touched.clear()
    return merges


def _apply_merges(piece, rank):
    """Merge byte symbols in learned priority order (linked list + heap).

    Equal-priority candidates apply left to right; merged nodes keep the
    left node's index, so index order stays consistent with text order.
    """
    n = len(piece)
    if n == 0:
        return []
    if not rank or n == 1:
        return [bytes([b]) for b in piece]

    toks = [bytes([b]) for b in piece]
    nxt = list(range(1, n)) + [-1]
    prv = [-1] + list(range(n - 1))

    heap = []
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


def oracle_encode(vocab, text):
    """The per-piece heap encoder: split at special literals (and digit
    runs), then merge each piece on its own with ``_apply_merges``."""
    data = text.encode("utf-8") if isinstance(text, str) else bytes(text)
    rank = {pair: i for i, pair in enumerate(vocab.merges)}
    bytes_to_id = {tok: i for i, tok in enumerate(vocab.token_bytes[N_SPECIALS:], start=N_SPECIALS)}
    ids = []
    for piece in bpe._SPECIAL_SPLIT_BYTES.split(data):
        if not piece:
            continue
        special = bpe._SPECIAL_ID_BY_BYTES.get(piece)
        if special is not None:
            ids.append(special)
            continue
        chunks = re.split(rb"(\d+)", piece) if vocab.isolate_digits else [piece]
        for chunk in chunks:
            ids.extend(bytes_to_id[tok] for tok in _apply_merges(chunk, rank))
    return ids


class TestTrainBpe:
    def test_abab_example(self):
        vocab = train_bpe(["abab abab"], MIN_VOCAB_SIZE + 2, sample_fraction=1.0)
        assert vocab.merges == [(b"a", b"b"), (b"ab", b"ab")]

    def test_every_merge_makes_a_new_token(self):
        # BpeVocab refuses a merge list that re-spells a token or repeats a
        # pair; train_bpe's docstring argues it never writes one. Small
        # alphabets make one string reachable by several spellings.
        rng = np.random.default_rng(24)
        for trial in range(2_000):
            pieces = ["a", "b", "1", "<RS>"] if trial % 2 else ["a", "b", "c", "1", "<RS>"]
            texts = [
                "a" + "".join(rng.choice(pieces, size=int(rng.integers(0, 12))))
                for _ in range(int(rng.integers(1, 4)))
            ]
            isolate_digits = trial % 4 >= 2
            vocab = train_bpe(texts, MIN_VOCAB_SIZE + 12, sample_fraction=1.0, isolate_digits=isolate_digits)
            assert len(set(vocab.token_bytes)) == vocab.vocab_size, texts

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        alphabet = list("abcdef <RS>xyz.")
        for trial in range(8):
            texts = [
                "".join(rng.choice(alphabet, size=int(rng.integers(5, 60))))
                for _ in range(int(rng.integers(2, 8)))
            ]
            n_merges = int(rng.integers(1, 12))
            vocab = train_bpe(texts, MIN_VOCAB_SIZE + n_merges, sample_fraction=1.0, seed=0)
            assert vocab.merges == brute_force_merges(texts, n_merges), texts

    @pytest.mark.parametrize("isolate_digits", [False, True])
    def test_matches_brute_force_oracle_edge_cases(self, isolate_digits):
        # digit runs, overlapping same-byte runs and texts that are only
        # special literals, mixed into random corpora
        rng = np.random.default_rng(29)
        alphabet = list("ab 12<RS>[URL]")
        fixed = ["aaaaaaa", "abababa", "<RS><RS>", "[URL]<RS>[EMAIL]", "aaaa aaa a12a1212", "bbbbbbbbbbbb"]
        for trial in range(12):
            texts = fixed + [
                "".join(rng.choice(alphabet, size=int(rng.integers(0, 50))))
                for _ in range(int(rng.integers(1, 6)))
            ]
            n_merges = int(rng.integers(1, 25))
            vocab = train_bpe(
                texts, MIN_VOCAB_SIZE + n_merges, sample_fraction=1.0, isolate_digits=isolate_digits
            )
            assert vocab.merges == brute_force_merges(texts, n_merges, isolate_digits), texts

    def test_matches_position_set_trainer(self):
        # adversarial corpora: long same-byte runs, abab chains, specials
        # next to bytes and near-literals, digit runs, pieces that offer two
        # spellings of one string (ab|c, a|bc; aa|a after a left merge), and
        # sampling below 1
        rng = np.random.default_rng(1212)
        pieces = ["a" * 9, "b" * 6, "abababab", "ba", "<RS>", "[URL]", "[EMAIL]", "<R", "S>", "<", ">",
                  "[URL", "12", "1111", "9a9", "c", "abc", "bc", "baaa", "caa", " "]
        for trial in range(40):
            weights = rng.random(len(pieces)) ** 3
            texts = [
                "".join(rng.choice(pieces, p=weights / weights.sum(), size=int(rng.integers(0, 30))))
                for _ in range(int(rng.integers(1, 30)))
            ]
            vocab_size = MIN_VOCAB_SIZE + int(rng.integers(1, 80))
            fraction = 1.0 if trial % 2 else float(rng.uniform(0.2, 1.0))
            for isolate_digits in (False, True):
                want = position_set_merges(texts, vocab_size, fraction, trial, isolate_digits)
                try:
                    vocab = train_bpe(
                        texts, vocab_size, sample_fraction=fraction, seed=trial, isolate_digits=isolate_digits
                    )
                except VocabError:  # no byte outside a special was sampled
                    assert want == []
                    continue
                assert vocab.merges == want, (texts, fraction)

    @pytest.mark.parametrize(
        "texts, n_merges, fell_then_merged",
        [
            # (b, c) falls from 5 to 3 when (a, b) merges
            (["ab"] * 4 + ["abc"] * 2 + ["bc"] * 3, 3, [(b"b", b"c")]),
            # (w, x) and (z, v) fall from 6 to 2 as x and z join longer tokens
            (["wxyzv"] * 3 + ["wxyz", "xyzv"] + ["xyz"] * 2 + ["wx", "zv"] * 2, 8, [(b"w", b"x"), (b"z", b"v")]),
            # odd (a, a) runs: the merged pair also loses the place its last
            # match consumes, and its count reaches 0 there
            (["aaa aaa aaaaa", "xaaay", "aaaaaaa", "aa"], 8, []),
        ],
    )
    def test_lazy_heap_matches_brute_force(self, texts, n_merges, fell_then_merged, monkeypatch):
        # A pair's count rises once, when its later token is made, and then
        # only falls. A fall leaves the pair's entry above its count; when
        # that entry pops, the count is pushed again. Record each pair pushed
        # again from a stale entry that was its only one.
        popped, repushed = [], []

        def heappop(heap):
            entry = heapq.heappop(heap)
            popped.append((entry, all(e[3] != entry[3] for e in heap)))
            return entry

        def heappush(heap, entry):  # every push follows a pop
            last, only = popped[-1]
            if last[3] == entry[3] and last[0] < entry[0] and only:
                repushed.append(last[1:3])
            heapq.heappush(heap, entry)

        monkeypatch.setattr(bpe, "heapq", SimpleNamespace(heapify=heapq.heapify, heappop=heappop, heappush=heappush))
        vocab = train_bpe(texts, MIN_VOCAB_SIZE + n_merges, sample_fraction=1.0)
        assert vocab.merges == brute_force_merges(texts, n_merges), texts
        for pair in fell_then_merged:
            assert pair in repushed and pair in vocab.merges

    @pytest.mark.parametrize("isolate_digits", [False, True])
    def test_heap_takes_only_pairs_seen_twice(self, isolate_digits, monkeypatch):
        # A pair's positions all arise at one step, so a pair seen once
        # there never reaches 2 and is never filed or pushed.
        entries = []

        def heapify(heap):
            entries.extend(heap)
            heapq.heapify(heap)

        def heappush(heap, entry):
            entries.append(entry)
            heapq.heappush(heap, entry)

        monkeypatch.setattr(bpe, "heapq", SimpleNamespace(heapify=heapify, heappop=heapq.heappop, heappush=heappush))
        rng = np.random.default_rng(26)
        texts = ["".join(rng.choice(list("abcdefghijklmnop 0123<RS>"), size=int(rng.integers(0, 60))))
                 for _ in range(40)]
        vocab = train_bpe(texts, MIN_VOCAB_SIZE + 40, sample_fraction=1.0, isolate_digits=isolate_digits)
        assert vocab.merges == brute_force_merges(texts, 40, isolate_digits)
        pairs = Counter(pair for text in texts for pair in zip(text, text[1:]))
        assert sum(k == 1 for k in pairs.values()) > 200  # many pairs occur once
        assert len(entries) > 40
        assert min(-entry[0] for entry in entries) >= 2

    @staticmethod
    def peak_per_sampled_byte(texts, n_merges):
        size = sum(len(text.encode("utf-8")) for text in texts)
        tracemalloc.start()
        try:
            vocab = train_bpe(texts, MIN_VOCAB_SIZE + n_merges, sample_fraction=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(vocab.merges) == n_merges
        return peak / size

    def test_memory_per_sampled_byte(self):
        # ids, links and pair positions are int32 arrays; a trainer keeping
        # them as Python lists and sets peaks at about 117 bytes per byte here
        texts, size = [], 0
        rng = np.random.default_rng(77)
        words = ["def", "return", "self", "value", "the", "answer", "error", "<RS>", "été", "x", "=", "\n"]
        while size < 200_000:
            text = " ".join(
                str(int(rng.integers(0, 10_000))) if rng.random() < 0.1 else words[int(rng.integers(len(words)))]
                for _ in range(int(rng.integers(5, 80)))
            )
            texts.append(text)
            size += len(text.encode("utf-8"))
        per_byte = self.peak_per_sampled_byte(texts, 300)
        assert per_byte <= 50, f"{per_byte:.0f} bytes per sampled byte"

    def test_memory_per_sampled_byte_zipf_prose(self):
        # 2,000 words drawn by Zipf's law: many distinct pairs, most of them
        # seen once, where a trainer that keeps those peaks at about 79
        rng = np.random.default_rng(2026)
        letters = list("abcdefghijklmnopqrstuvwxyz")
        words = ["".join(rng.choice(letters, size=int(rng.integers(2, 9)))) for _ in range(2_000)]
        weights = 1 / np.arange(1, len(words) + 1) ** 1.1
        texts, size = [], 0
        while size < 200_000:
            drawn = rng.choice(len(words), size=int(rng.integers(5, 80)), p=weights / weights.sum())
            text = " ".join(words[i] for i in drawn)
            texts.append(text)
            size += len(text)
        per_byte = self.peak_per_sampled_byte(texts, 1_000)
        assert per_byte <= 50, f"{per_byte:.0f} bytes per sampled byte"

    @pytest.mark.parametrize(
        "isolate_digits, checksum", [(False, "ac0e1e8385674726"), (True, "17b5fccd78efac61")]
    )
    def test_golden_checksum(self, isolate_digits, checksum):
        # pins the full merge list of a ~50 KB corpus to the checksum the
        # original per-sample trainer produced
        rng = np.random.default_rng(20230605)
        words = ["def", "return", "self", "value", "the", "answer", "error", "import",
                 "numpy", "list", "x", "=", "(", ")", ":", "été", "中文", "<RS>"]
        texts, size = [], 0
        while size < 50_000:
            parts = []
            for _ in range(int(rng.integers(4, 30))):
                if rng.random() < 0.2:
                    parts.append(str(int(rng.integers(0, 100_000))))
                else:
                    parts.append(words[int(rng.integers(len(words)))])
            text = " ".join(parts)
            texts.append(text)
            size += len(text.encode("utf-8"))
        vocab = train_bpe(
            texts, MIN_VOCAB_SIZE + 400, sample_fraction=0.5, seed=7, isolate_digits=isolate_digits
        )
        assert len(vocab.merges) == 400
        assert vocab.checksum.hex() == checksum

    def test_minimum_vocab_identity(self):
        vocab = train_bpe(["anything"], MIN_VOCAB_SIZE, sample_fraction=1.0)
        assert vocab.merges == []
        assert vocab.vocab_size == 256 + N_SPECIALS

    def test_deterministic_across_runs(self):
        texts = ["the quick brown fox " * 10, "jumps over the lazy dog " * 8]
        a = train_bpe(texts, MIN_VOCAB_SIZE + 40, sample_fraction=1.0, seed=3)
        b = train_bpe(texts, MIN_VOCAB_SIZE + 40, sample_fraction=1.0, seed=3)
        assert a.merges == b.merges

    def test_sampling_is_seeded(self):
        texts = [f"document {i} " * 5 for i in range(50)]
        a = train_bpe(texts, MIN_VOCAB_SIZE + 10, sample_fraction=0.4, seed=9)
        b = train_bpe(texts, MIN_VOCAB_SIZE + 10, sample_fraction=0.4, seed=9)
        c = train_bpe(texts, MIN_VOCAB_SIZE + 10, sample_fraction=0.4, seed=10)
        assert a.merges == b.merges
        assert a.merges != c.merges or True  # different seeds may coincide, ok

    def test_vocab_too_small(self):
        with pytest.raises(VocabError) as exc_info:
            train_bpe(["x"], MIN_VOCAB_SIZE - 1, sample_fraction=1.0)
        assert str(MIN_VOCAB_SIZE) in str(exc_info.value)

    def test_empty_corpus(self):
        with pytest.raises(VocabError):
            train_bpe([], MIN_VOCAB_SIZE + 1, sample_fraction=1.0)

    def test_empty_after_sampling(self):
        with pytest.raises(VocabError):
            train_bpe(["abc"], MIN_VOCAB_SIZE + 1, sample_fraction=1e-12, seed=0)

    def test_stops_when_no_pair_repeats(self):
        vocab = train_bpe(["abcdefg"], MIN_VOCAB_SIZE + 50, sample_fraction=1.0)
        assert vocab.merges == []

    def test_vocab_size_invariant(self):
        vocab = train_bpe(["banana banana banana"], MIN_VOCAB_SIZE + 5, sample_fraction=1.0)
        assert vocab.vocab_size == 256 + N_SPECIALS + len(vocab.merges)
        assert len(vocab.token_bytes) == vocab.vocab_size


@pytest.fixture(scope="module")
def vocab():
    texts = ["the cat sat on the mat " * 6, "def f(x):\n    return x + 1\n" * 6]
    return train_bpe(texts, MIN_VOCAB_SIZE + 60, sample_fraction=1.0)


class TestEncodeDecode:
    def test_no_unknown_on_random_bytes(self, vocab):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            data = bytes(rng.integers(0, 256, size=int(rng.integers(0, 64))))
            ids = vocab.encode(data)
            assert all(0 <= i < vocab.vocab_size for i in ids)

    def test_separator_becomes_single_id(self, vocab):
        ids = vocab.encode("left <RS> right")
        assert ids.count(SEPARATOR_ID) == 1
        assert vocab.decode([SEPARATOR_ID]) == "<RS>"

    def test_empty_string(self, vocab):
        assert vocab.encode("") == []

    def test_roundtrip_random_utf8(self, vocab):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            points = rng.integers(1, 0x110000, size=int(rng.integers(0, 24)))
            text = "".join(chr(p) for p in points if not 0xD800 <= p < 0xE000)
            assert vocab.decode(vocab.encode(text)) == text

    def test_roundtrip_arbitrary_bytes(self, vocab):
        rng = np.random.default_rng(2)
        for _ in range(2000):
            data = bytes(rng.integers(0, 256, size=int(rng.integers(0, 48))))
            assert vocab.decode_bytes(vocab.encode(data)) == data

    def test_roundtrip_with_special_literals_in_bytes(self, vocab):
        data = b"abc<RS>def[URL]ghi<MASK>"
        assert vocab.decode_bytes(vocab.encode(data)) == data

    def test_out_of_range_id(self, vocab):
        with pytest.raises(VocabError):
            vocab.decode([vocab.vocab_size])

    def test_merge_validity_invariant(self, vocab):
        # re-encoding any learned token's bytes yields exactly that token
        for token_id in range(256 + N_SPECIALS, vocab.vocab_size):
            ids = vocab.encode(vocab.token_bytes[token_id])
            assert ids == [token_id]

    def test_specials_never_produced_by_merges(self, vocab):
        literals = {lit.encode() for _, lit in SPECIAL_TOKENS}
        for left, right in vocab.merges:
            assert left + right not in literals

    def test_encode_agrees_with_training_replay(self):
        # applying each merge globally in learned order must segment any
        # text exactly like the rank-priority encoder
        def replay(text, merges):
            import re as _re

            literals = sorted((lit.encode() for _, lit in SPECIAL_TOKENS), key=len, reverse=True)
            splitter = _re.compile(b"(" + b"|".join(_re.escape(l) for l in literals) + b")")
            out = []
            for piece in splitter.split(text.encode()):
                if not piece:
                    continue
                if piece in {l for l in literals}:
                    out.append(piece)
                    continue
                seq = [bytes([b]) for b in piece]
                for left, right in merges:
                    merged, i, new = left + right, 0, []
                    while i < len(seq):
                        if i + 1 < len(seq) and seq[i] == left and seq[i + 1] == right:
                            new.append(merged)
                            i += 2
                        else:
                            new.append(seq[i])
                            i += 1
                    seq = new
                out.extend(seq)
            return out

        rng = np.random.default_rng(21)
        corpus = ["".join(rng.choice(list("abcdef <RS>xy."), size=60)) for _ in range(6)]
        vocab = train_bpe(corpus, MIN_VOCAB_SIZE + 25, sample_fraction=1.0)
        for text in corpus + ["completely fresh abc input <RS> def"]:
            encoded = [vocab.token_bytes[i] for i in vocab.encode(text)]
            assert encoded == replay(text, vocab.merges), text

    def test_isolate_digits_flag(self):
        texts = ["ab12cd ab12cd ab12cd"]
        plain = train_bpe(texts, MIN_VOCAB_SIZE + 20, sample_fraction=1.0)
        isolated = train_bpe(texts, MIN_VOCAB_SIZE + 20, sample_fraction=1.0, isolate_digits=True)
        for left, right in isolated.merges:
            tok = (left + right).decode("latin1")
            digits = any(c.isdigit() for c in tok)
            letters = any(not c.isdigit() for c in tok)
            assert not (digits and letters), f"merge crossed digit boundary: {tok!r}"
        # plain training is allowed to cross; flag must change behavior here
        assert plain.merges != isolated.merges
        assert isolated.decode(isolated.encode("ab12cd")) == "ab12cd"


# A merge list no trainer writes: it repeats pairs, (b, b) first at rank 2.
COUNTEREXAMPLE_MERGES = [
    (b"a", b"a"), (b"b", b"b"), (b"b", b"b"), (b"bb", b"aa"), (b"aa", b"b"),
    (b"bb", b"bbaa"), (b"b", b"bbaa"), (b"aa", b"bb"), (b"b", b"aabb"), (b"aa", b"a"),
    (b"bbaa", b"bb"), (b"aaa", b"aa"), (b"b", b"aabb"), (b"aaa", b"bbaa"), (b"b", b"b"),
    (b"a", b"b"), (b"baabb", b"aab"), (b"aaa", b"b"), (b"a", b"a"), (b"bbbaa", b"b"),
]


def adversarial_vocab(rng):
    """Merges over a small alphabet, each joining two earlier tokens into new
    bytes: overlapping runs ((a, a), (aa, a), ...) and pairs across a digit
    boundary, which isolate_digits must never merge. A draw that re-spells
    a token is skipped."""
    toks, merges = [b"a", b"b", b"a", b"b", b"1"], []
    for _ in range(int(rng.integers(1, 25))):
        left, right = toks[int(rng.integers(len(toks)))], toks[int(rng.integers(len(toks)))]
        if left + right not in toks:
            merges.append((left, right))
            toks.append(left + right)
    return BpeVocab(merges, isolate_digits=bool(rng.random() < 0.3))


def adversarial_texts(rng):
    pieces = ["a", "b", "aa", "ab", "aaaa", "abab", "1", "12", "<RS>", "[URL]", "<", "S>", " "]
    weights = np.array([8, 6, 4, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1], dtype=float)
    return [
        "".join(rng.choice(pieces, p=weights / weights.sum(), size=int(rng.integers(0, 25))))
        for _ in range(int(rng.integers(1, 6)))
    ]


def golden_corpus():
    rng = np.random.default_rng(20231018)
    words = ["def", "return", "self", "value", "the", "answer", "error", "import", "numpy", "list",
             "x", "=", "(", ")", ":", "été", "中文", "<RS>", "[URL]", "aaaa", "abab", "  ", "\n"]
    texts, size = [], 0
    while size < 60_000:
        parts = []
        for _ in range(int(rng.integers(0, 40))):
            if rng.random() < 0.2:
                parts.append(str(int(rng.integers(0, 100_000))))
            else:
                parts.append(words[int(rng.integers(len(words)))])
        text = " ".join(parts)
        texts.append(text)
        size += len(text.encode("utf-8"))
    return texts


class TestEncodeMany:
    def test_counterexample(self):
        with pytest.raises(VocabError, match=r"^merge 2 \(b'b', b'b'\)"):
            BpeVocab(COUNTEREXAMPLE_MERGES)

    def test_matches_heap_oracle_on_adversarial_vocabs(self):
        rng = np.random.default_rng(404)
        for _ in range(600):
            vocab = adversarial_vocab(rng)
            texts = adversarial_texts(rng)
            want = [oracle_encode(vocab, t) for t in texts]
            assert list(vocab.encode_many(texts)) == want, (vocab.merges, vocab.isolate_digits, texts)

    def test_positions_reach_holding_strictly_ascending(self, monkeypatch):
        # the encoder's pending arrays (one per rank, queued once) and the
        # trainer's filed arrays go to _holding unsorted: each arrives in
        # ascending order, as _matches's left-to-right pass needs
        calls = []

        def holding(ids, nxt, pos, a, b):
            calls.append(len(pos))
            assert (np.diff(pos) > 0).all(), pos
            return held(ids, nxt, pos, a, b)

        held = bpe._holding
        monkeypatch.setattr(bpe, "_holding", holding)
        rng = np.random.default_rng(404)
        for _ in range(600):  # the draws of test_matches_heap_oracle_on_adversarial_vocabs
            vocab = adversarial_vocab(rng)
            list(vocab.encode_many(adversarial_texts(rng)))
        adversarial = len(calls)
        texts = golden_corpus()
        for isolate_digits in (False, True):  # the vocabs of test_golden_ids
            vocab = train_bpe(
                texts[::2], MIN_VOCAB_SIZE + 500, sample_fraction=0.5, seed=11, isolate_digits=isolate_digits
            )
            list(vocab.encode_many(texts))
        assert adversarial > 1_000 and len(calls) - adversarial > 2_000

    def test_batch_invariance(self, monkeypatch):
        rng = np.random.default_rng(5)
        texts = golden_corpus()[:80] + ["", "<RS>", "aaaa", b"\xff\xfe raw bytes"]
        vocab = train_bpe(texts[::2], MIN_VOCAB_SIZE + 200, sample_fraction=1.0)
        each = [vocab.encode(t) for t in texts]
        for budget in (1, 100, 3_000, 1 << 30):
            monkeypatch.setattr(bpe, "_BATCH_BYTES", budget)
            assert list(vocab.encode_many(texts)) == each
        cuts = sorted(rng.choice(np.arange(1, len(texts)), size=10, replace=False).tolist())
        split = []
        for lo, hi in zip([0] + cuts, cuts + [len(texts)]):
            split.extend(vocab.encode_many(texts[lo:hi]))
        assert split == each

    def test_pair_codes_past_int32_at_large_vocab(self):
        # A vocab of the paper's 50k size encodes as the oracle does. Its ids
        # reach past 46,341, where a pair code a * (V + 1) + b would overflow
        # int32: the encoder forms no such code, and the last merge, which
        # joins two late tokens, is the one whose code would.
        n_merges = 50_000 - MIN_VOCAB_SIZE
        pairs = [(bytes([i]), bytes([j])) for i in range(256) for j in range(256)][: n_merges - 1]
        # both formed late, and their inner pair (250, 181) is never merged
        left, right = bytes([180, 250]), bytes([181, 250])
        vocab = BpeVocab(pairs + [(left, right)])
        w = vocab.vocab_size + 1
        a, b = vocab._bytes_to_id[left], vocab._bytes_to_id[right]
        assert vocab.vocab_size > 46_341 and a * w > 2**31 and a < b
        texts = [b"xy" + (left + right) * 3 + b"z", left + right + left]
        want = [oracle_encode(vocab, t) for t in texts]
        assert want[0][1:4] == [vocab.vocab_size - 1] * 3  # the last merge applied
        assert list(vocab.encode_many(texts)) == want

    @pytest.mark.parametrize("n_merges, rank_dtype", [(65_535, np.uint16), (65_536, np.uint32)])
    def test_rank_dtype_boundary(self, n_merges, rank_dtype):
        # Ranks and no_rank = len(merges) take the smallest unsigned dtype:
        # at 65,535 merges the last rank is 65,534 and no_rank is uint16's
        # top; one merge more takes uint32. The last merge joins two late
        # tokens, so a sweep looks up the top rank.
        pairs = [(bytes([i]), bytes([j])) for i in range(256) for j in range(256)][: n_merges - 1]
        left, right = bytes([180, 250]), bytes([181, 250])
        vocab = BpeVocab(pairs + [(left, right)])
        assert vocab._pair_table[0].dtype == rank_dtype
        texts = [b"xy" + (left + right) * 3 + b"z", left + right + left, bytes(range(240, 256)) * 2, b"\xff" * 7]
        want = [oracle_encode(vocab, t) for t in texts]
        assert want[0][1:4] == [vocab.vocab_size - 1] * 3  # the last merge applied
        assert list(vocab.encode_many(texts)) == want

    def test_merge_side_no_token_spells(self):
        # no merge makes "xy", and "<RS>" is a special, never a side
        with pytest.raises(VocabError, match=r"merge 1 \(b'xy', b'ab'\)"):
            BpeVocab([(b"a", b"b"), (b"xy", b"ab"), (b"ab", b"c")])
        with pytest.raises(VocabError, match=r"merge 2 \(b'<RS>', b'a'\)"):
            BpeVocab([(b"a", b"b"), (b"ab", b"c"), (b"<RS>", b"a")])

    def test_repeated_pair_is_refused(self):
        # under a last-rank reading, "abc" would encode as a|bc
        with pytest.raises(VocabError, match=r"merge 2 \(b'a', b'b'\)"):
            BpeVocab([(b"a", b"b"), (b"b", b"c"), (b"a", b"b")])

    @pytest.mark.parametrize("merges", [[(b"a", b"b"), (b"ab", b"ab")]])
    def test_m_m_right_after_the_merge_creating_m(self, merges):
        # adjacent matches of one sweep: read after the sweep's merges are
        # written, the right neighbour of a match is the next match's M, so
        # (M, M) is looked up at the first of the two
        vocab = BpeVocab(merges)
        texts = ["ab" * n for n in range(1, 8)] + ["xabababy", "abab<RS>abab", "aabab"]
        want = [oracle_encode(vocab, t) for t in texts]
        assert [vocab.token_bytes[i] for i in want[3]] == [b"abab", b"abab"]
        assert list(vocab.encode_many(texts)) == want

    def test_merge_at_reads_neighbours_after_the_write(self):
        # (a, a) over "aaaa" and "xaaay": the overlap rule keeps 0 and 2 of
        # the run 0-2 and 5 of the run 5-6
        a, x, y = (bpe.BYTE_BASE + ord(c) for c in "axy")
        m = MIN_VOCAB_SIZE
        ids, prv, nxt, _ = bpe._links([b"aaaa", b"xaaay"], False)
        p = bpe._matches(nxt, bpe._holding(ids, nxt, np.flatnonzero(ids == a), a, a), True)
        assert p.tolist() == [0, 2, 5]
        before, after = bpe._merge_at(ids, prv, nxt, p, m)
        assert ids.tolist() == [m, -1, m, -1, x, m, -1, a, y, -1]
        assert (nxt[p].tolist(), prv[[2, 7]].tolist()) == ([2, -1, 7], [0, 5])
        assert (before.tolist(), after.tolist()) == ([-1, 1, 4], [2, -1, 7])
        # (m, m) shows once, right of the first match; the slot it consumed
        # and both end links read -1
        assert ids[before].tolist() == [-1, -1, x]
        assert ids[after].tolist() == [m, -1, a]
        for slots in (before, after):
            linked = slots[slots >= 0]
            assert (np.diff(linked) > 0).all()

    def test_lazy_over_a_stream(self, monkeypatch):
        monkeypatch.setattr(bpe, "_BATCH_BYTES", 10)
        vocab = BpeVocab([(b"a", b"b")])
        read = []

        def texts():
            for t in ["ab" * 5, "ab" * 5, "ab" * 5]:
                read.append(t)
                yield t

        out = vocab.encode_many(texts())
        assert next(out) == [MIN_VOCAB_SIZE] * 5
        assert len(read) == 1  # one batch read ahead, no more

    @pytest.mark.parametrize(
        "isolate_digits, digest",
        [
            (False, "9987019db0ad3473125c5c23722a4d74de9bc34ff14e269a13bae5e9fa7c8a8d"),
            (True, "18b144179f4c71ffdcf24aafc08eb846925c924291a276a3a16253a4fca83561"),
        ],
    )
    def test_golden_ids(self, isolate_digits, digest):
        # pins every id of a ~60 KB corpus (specials, digits, UTF-8, runs) to
        # the digest the per-piece heap encoder produced
        texts = golden_corpus()
        vocab = train_bpe(
            texts[::2], MIN_VOCAB_SIZE + 500, sample_fraction=0.5, seed=11, isolate_digits=isolate_digits
        )
        h = hashlib.sha256()
        for ids in vocab.encode_many(texts):
            h.update(struct.pack(f"<I{len(ids)}I", len(ids), *ids))
        assert h.hexdigest() == digest


def links_oracle(datas, isolate_digits):
    """``_links`` built one text at a time in Python: at each byte the
    longest special literal starting there, else the byte; a link between
    two neighbours unless one is a special or, with ``isolate_digits``,
    exactly one is a digit."""
    literals = sorted(bpe._SPECIAL_ID_BY_BYTES.items(), key=lambda item: -len(item[0]))
    ids, prv, nxt, starts = [], [], [], []
    for data in datas:
        starts.append(len(ids))
        toks, i = [], 0
        while i < len(data):
            lit = next((lit for lit, _ in literals if data.startswith(lit, i)), None)
            toks.append(bpe._SPECIAL_ID_BY_BYTES[lit] if lit else bpe.BYTE_BASE + data[i])
            i += len(lit) if lit else 1
        digit = [bpe.BYTE_BASE + ord("0") <= t <= bpe.BYTE_BASE + ord("9") for t in toks]
        base = len(ids)
        for j, t in enumerate(toks):
            linked = [
                0 <= k < len(toks) and t >= bpe.BYTE_BASE and toks[k] >= bpe.BYTE_BASE
                and not (isolate_digits and digit[j] != digit[k])
                for k in (j - 1, j + 1)
            ]
            ids.append(t)
            prv.append(base + j - 1 if linked[0] else -1)
            nxt.append(base + j + 1 if linked[1] else -1)
    starts.append(len(ids))
    return ids + [-1], prv + [-1], nxt + [-1], starts


class TestLinks:
    @pytest.mark.parametrize("isolate_digits", [False, True])
    @pytest.mark.parametrize(
        "texts",
        [
            [""],
            ["", "", "ab", ""],
            ["<RS>"],
            ["[URL]<RS>[EMAIL]", "<RS><RS>", "x<MASK><PAD>y"],
            ["<RS>ab", "ab<RS>", "<CLS>"],
            ["a<R", "S>b", "<", "RS>"],
            ["ab12cd3", "9", "x1y22z", "12<RS>34", "é1中2"],
            ["<RS", "[URL", "EMAIL]", "<<RS>>", "[[EMAIL]]"],
        ],
    )
    def test_matches_per_text_construction(self, texts, isolate_digits):
        datas = [text.encode("utf-8") for text in texts]
        got = [x.tolist() for x in bpe._links(datas, isolate_digits)]
        assert got == list(links_oracle(datas, isolate_digits))

    def test_random_texts(self):
        rng = np.random.default_rng(341)
        pieces = ["a", "b", "1", "22", " ", "<RS>", "[URL]", "[EMAIL]", "<PAD>", "<", "RS>", "[", "é"]
        for trial in range(200):
            texts = ["".join(rng.choice(pieces, size=int(rng.integers(0, 12)))) for _ in range(int(rng.integers(1, 6)))]
            datas = [text.encode("utf-8") for text in texts]
            isolate_digits = trial % 2 == 1
            got = [x.tolist() for x in bpe._links(datas, isolate_digits)]
            assert got == list(links_oracle(datas, isolate_digits)), texts


class TestSaveLoad:
    def test_roundtrip_equality(self, tmp_path):
        vocab = train_bpe(["roundtrip me " * 10], MIN_VOCAB_SIZE + 12, sample_fraction=1.0)
        path = tmp_path / "v.sovoc"
        vocab.save(path)
        loaded = load_vocab(path)
        assert loaded == vocab
        assert loaded.checksum == vocab.checksum
        assert loaded.encode("roundtrip me") == vocab.encode("roundtrip me")

    def test_checksum_is_cached_body_digest(self, tmp_path):
        vocab = train_bpe(["cache me " * 10], MIN_VOCAB_SIZE + 8, sample_fraction=1.0)
        assert vocab.checksum == hashlib.sha256(vocab._serialize_body()).digest()[:8]
        assert vocab.checksum is vocab.checksum
        path = tmp_path / "v.sovoc"
        vocab.save(path)
        assert path.read_bytes()[-8:] == vocab.checksum
        loaded = load_vocab(path)
        assert loaded.checksum == vocab.checksum
        loaded.save(tmp_path / "again.sovoc")
        assert (tmp_path / "again.sovoc").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "vocab",
        [
            bpe.BpeVocab(merges=[]),
            train_bpe(["load me 12 34 " * 10], MIN_VOCAB_SIZE + 8, sample_fraction=1.0),
            train_bpe(["load me 12 34 " * 10], MIN_VOCAB_SIZE + 8, sample_fraction=1.0, isolate_digits=True),
        ],
        ids=["no-merges", "merges", "isolate-digits"],
    )
    def test_loaded_checksum_is_canonical_body_digest(self, tmp_path, vocab):
        # load_vocab reuses the verified trailer instead of re-serializing
        path = tmp_path / "v.sovoc"
        vocab.save(path)
        loaded = load_vocab(path)
        assert loaded == vocab
        assert loaded.checksum == hashlib.sha256(loaded._serialize_body()).digest()[:8]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda body: body.replace(b"<MASK>", b"<MSK!>", 1),
             r"special token 1 'mask' '<MSK!>', expected 1 'mask' '<MASK>'"),
            (lambda body: body.replace(b"\x00\x00\x03\x05pad", b"\x07\x00\x03\x05pad", 1), "special token 7"),
            (lambda body: body.replace(b"class_marker", b"class_maker!", 1), "class_maker!"),
            (lambda body: body[:8] + struct.pack("<I", 5) + body[12:], "5 special tokens, expected 6"),
            (lambda body: body[:7] + b"\x02" + body[8:], "digits flag is 2"),
            (lambda body: body[:7], "malformed"),
        ],
        ids=["literal", "id", "name", "count", "digits-flag", "no-header"],
    )
    def test_non_canonical_header_refused(self, tmp_path, edit, message):
        # each edited body carries a valid trailer, so only the header check can refuse it
        path = tmp_path / "v.sovoc"
        body = edit(bpe.BpeVocab(merges=[(b"a", b"b")])._serialize_body())
        path.write_bytes(body + hashlib.sha256(body).digest()[:8])
        with pytest.raises(VocabError, match=message):
            load_vocab(path)

    @pytest.mark.parametrize(
        "merges, refused",
        [
            ([(b"a", b"b"), (b"xy", b"ab")], r"merge 1 \(b'xy', b'ab'\)"),
            ([(b"a", b"b"), (b"[URL]", b"ab")], r"merge 1 \(b'\[URL\]', b'ab'\)"),
            ([(b"a", b"b"), (b"b", b"c"), (b"a", b"b")], r"merge 2 \(b'a', b'b'\)"),
            ([(b"a", b"b"), (b"b", b"c"), (b"a", b"bc"), (b"ab", b"c")], r"merge 3 \(b'ab', b'c'\)"),
        ],
        ids=["side-no-token-spells", "special-side", "repeated-pair", "respelled-bytes"],
    )
    def test_malformed_merge_list_refused(self, capsys, tmp_path, merges, refused):
        # a well-formed vocab saved with its merges swapped, so the file's
        # trailer is valid and only the merge rule can refuse it
        vocab = BpeVocab([])
        vocab.merges = merges
        path = tmp_path / "v.sovoc"
        vocab.save(path)
        with pytest.raises(VocabError, match=rf"^{re.escape(str(path))}: {refused}"):
            load_vocab(path)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"answer_id": 1, "n_comments": 0, "text": "abc"}\n')
        assert main(["stats", "--corpus", str(corpus), "--vocab", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "merge" in err

    def test_truncated_file(self, tmp_path):
        vocab = train_bpe(["x y " * 8], MIN_VOCAB_SIZE + 4, sample_fraction=1.0)
        path = tmp_path / "v.sovoc"
        vocab.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises((VocabError, ChecksumMismatchError)):
            load_vocab(path)

    def test_not_a_vocab_file(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"hello world, definitely not a vocab")
        with pytest.raises(VocabError):
            load_vocab(path)

    def test_shard_checksum_binding(self, tmp_path):
        from sopipeline import shards

        vocab_a = train_bpe(["aaa bbb " * 5], MIN_VOCAB_SIZE + 3, sample_fraction=1.0)
        vocab_b = train_bpe(["ccc ddd " * 5], MIN_VOCAB_SIZE + 3, sample_fraction=1.0)
        assert vocab_a.checksum != vocab_b.checksum
        shard = tmp_path / "s.sotk"
        shards.write_token_shard(shard, [vocab_a.encode("aaa")], vocab_a.checksum)
        with pytest.raises(ChecksumMismatchError):
            shards.ShardReader(shard, expected_checksum=vocab_b.checksum)
