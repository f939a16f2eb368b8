"""Seeded inputs for the pipeline benchmark, plus the truth they plant.

Each workload's inputs are a pure function of ``--seed``. Sizes are fixed
multisets shuffled by the seed, so every seed asks for the same amount of
work and only the content changes. Next to the inputs, ``truth.json``
records what was planted: row counts, the answers that pass the corpus
filter, the candidate ids of each miner heuristic and the exact code edit
distances. The program under test only ever sees the inputs.

    python3 pipebench/gen.py --workload mine-history --seed 3 --out /tmp/in
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path
from xml.sax.saxutils import quoteattr

import numpy as np

# Bumped whenever the generated inputs change, so cached inputs are rebuilt.
GEN_VERSION = 5

EPOCH = datetime(2012, 1, 1, tzinfo=timezone.utc)
LATE_DAYS = 1.5 * 365.0  # the miner's default late-answer delay

# Prose vocabulary. It holds no obsoletion keyword, no part of "out of date"
# and no "answer", so background text can never match a miner by accident.
WORDS = (
    "the a to of and in is it you that for this with on be can use not if "
    "are as your but or have will from when value data file function list "
    "string error code type object method class array return call loop "
    "version python java script server client request query table index "
    "key map set get run build test module package import path line name "
    "example result number first second new old way need try should would "
    "also just then here there because same only each other more some "
    "into than like make work works working change changed problem issue "
    "case simple better using used check note instead without after before "
    "default option config window user input output read write open close "
    "start stop time thread process memory cache byte buffer stream event "
    "handler state node tree graph model view field column row record "
    "parse format print log debug release update install library framework"
).split()
IDENTS = (
    "foo bar baz value result items index count total config data node "
    "buf size left right key val acc tmp res arr obj ctx req resp cur nxt "
    "head tail root path name text line row col src dst lo hi mid step"
).split()
# Generated code is lower-case identifiers, digits and punctuation. Planted
# edits use only these characters, which never occur in it, so the edit
# distance equals the number of them planted.
EDIT_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
KEYWORDS = ("deprecated", "outdated", "obsolete", "out of date")
PHRASES = ("accepted answer", "answer by", "other answer", "'s answers")

WORKLOADS = ("dump-to-shards", "mine-history", "train-v50k")


def ts(days: float) -> str:
    """Dump timestamp ``days`` after the epoch, at millisecond precision."""
    t = EPOCH + timedelta(milliseconds=round(days * 86_400_000))
    return t.strftime("%Y-%m-%dT%H:%M:%S.") + f"{t.microsecond // 1000:03d}"


class Text:
    """Seeded generators for prose, comments and code."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        ranks = np.arange(1, len(WORDS) + 1, dtype=float)
        self.word_p = (1.0 / ranks) / (1.0 / ranks).sum()

    def words(self, n: int) -> str:
        picks = self.rng.choice(len(WORDS), size=n, p=self.word_p)
        return " ".join(WORDS[i] for i in picks)

    def url(self) -> str:
        host = self.rng.choice(["example.com", "docs.example.org", "www.example.net"])
        return f"https://{host}/{self.rng.choice(IDENTS)}/{int(self.rng.integers(1, 10**6))}"

    def email(self) -> str:
        return f"{self.rng.choice(IDENTS)}{int(self.rng.integers(1, 999))}@example.org"

    def code(self, n_chars: int) -> str:
        """Code-like text of exactly ``n_chars`` characters, with no upper case."""
        parts: list[str] = []
        size = 0
        while size < n_chars:
            a, b, c = self.rng.choice(IDENTS, size=3)
            line = f"{a} = {b}({c}, {int(self.rng.integers(0, 100))});\n"
            parts.append(line)
            size += len(line)
        return "".join(parts)[:n_chars]

    def prose_html(self, n_words: int, *, extras: bool = True) -> str:
        """HTML paragraphs with URLs, emails, entities and inline code."""
        paras = []
        left = n_words
        while left > 0:
            k = min(left, int(self.rng.integers(12, 40)))
            left -= k
            text = self.words(k)
            if extras:
                roll = self.rng.random()
                if roll < 0.25:
                    text += f" see {self.url()} for details"
                elif roll < 0.35:
                    text += f' (<a href="{self.url()}">link</a>)'
                elif roll < 0.45:
                    text += f" mail {self.email()}"
                elif roll < 0.55:
                    text += " &amp; it works &gt; before"
                if self.rng.random() < 0.3:
                    text += f" call <code>{self.rng.choice(IDENTS)}()</code> first"
            paras.append(f"<p>{text}</p>")
        return "".join(paras)

    def comment(self, n_words: int) -> str:
        text = self.words(n_words)
        roll = self.rng.random()
        if roll < 0.1:
            text += f" {self.url()}"
        elif roll < 0.15:
            text += f" ask {self.email()}"
        elif roll < 0.17:
            text += " <RS> marks it"
        return text


def rows_xml(rows: list[dict]) -> bytes:
    parts = ['<?xml version="1.0" encoding="utf-8"?>', "<rows>"]
    for row in rows:
        attrs = " ".join(f"{k}={quoteattr(str(v))}" for k, v in row.items())
        parts.append(f"  <row {attrs} />")
    parts.append("</rows>")
    return ("\n".join(parts) + "\n").encode("utf-8")


class Dump:
    """Accumulates Posts, Comments and PostHistory rows with fresh ids."""

    def __init__(self):
        self.posts: list[dict] = []
        self.comments: list[dict] = []
        self.history: list[dict] = []
        self._next = {"post": 0, "comment": 0, "history": 0}

    def _id(self, kind: str) -> int:
        self._next[kind] += 1
        return self._next[kind]

    def question(self, body: str, title: str, created: float, score: int = 3) -> int:
        qid = self._id("post")
        self.posts.append(
            {
                "Id": qid,
                "PostTypeId": 1,
                "Score": score,
                "Title": title,
                "Body": body,
                "Tags": "<python><benchmark>",
                "CreationDate": ts(created),
            }
        )
        return qid

    def answer(self, parent: int, body: str, created: float, score: int, last_edit=None) -> int:
        aid = self._id("post")
        row = {
            "Id": aid,
            "PostTypeId": 2,
            "ParentId": parent,
            "Score": score,
            "Body": body,
            "CreationDate": ts(created),
        }
        if last_edit is not None:
            row["LastEditDate"] = ts(last_edit)
        self.posts.append(row)
        return aid

    def comment(self, post: int, text: str, created: float) -> None:
        self.comments.append(
            {"Id": self._id("comment"), "PostId": post, "Text": text, "Score": 0, "CreationDate": ts(created)}
        )

    def revision(self, post: int, type_id: int, text: str, created: float) -> None:
        row = {"Id": self._id("history"), "PostId": post, "PostHistoryTypeId": type_id, "CreationDate": ts(created)}
        if text is not None:
            row["Text"] = text
        self.history.append(row)

    def write(self, out: Path) -> dict:
        sizes = {}
        for name, rows in (("Posts.xml", self.posts), ("Comments.xml", self.comments), ("PostHistory.xml", self.history)):
            blob = rows_xml(rows)
            (out / name).write_bytes(blob)
            sizes[name] = len(blob)
        return {
            "posts": len(self.posts),
            "comments": len(self.comments),
            "history": len(self.history),
            "xml_bytes": sizes,
        }


def spread(rng: np.random.Generator, total: int, buckets: int, lo: int, hi: int) -> list[int]:
    """``buckets`` counts in [lo, hi] summing exactly to ``total``, shuffled."""
    base = [lo] * buckets
    left = total - lo * buckets
    if left < 0 or left > (hi - lo) * buckets:
        raise ValueError("infeasible spread")
    order = rng.permutation(buckets)
    i = 0
    while left > 0:
        j = order[i % buckets]
        if base[j] < hi:
            base[j] += 1
            left -= 1
        i += 1
    return base


# -- dump-to-shards ----------------------------------------------------------

D2S_QUESTIONS = 250
D2S_CORPUS_ANSWERS = 420  # score >= 1 and at least one comment
D2S_LOW_SCORE = 90  # commented, score <= 0
D2S_UNCOMMENTED = 90  # score >= 1, no comment
D2S_CORPUS_COMMENTS = 1050
D2S_QUESTION_COMMENTS = 200
D2S_EDITED = 80  # answers with a light edit history


def make_dump_to_shards(rng: np.random.Generator, out: Path) -> dict:
    text = Text(rng)
    dump = Dump()
    qdays = rng.uniform(0, 2000, size=D2S_QUESTIONS)
    qids = [
        dump.question(text.prose_html(60), text.words(6), float(d)) for d in qdays
    ]
    kinds = ["corpus"] * D2S_CORPUS_ANSWERS + ["low"] * D2S_LOW_SCORE + ["bare"] * D2S_UNCOMMENTED
    kinds = [kinds[i] for i in rng.permutation(len(kinds))]
    n_comments = spread(rng, D2S_CORPUS_COMMENTS, D2S_CORPUS_ANSWERS, 1, 5)
    body_words = spread(rng, 110 * len(kinds), len(kinds), 70, 150)
    code_chars = spread(rng, 200 * len(kinds), len(kinds), 0, 400)
    edited = set(rng.choice(len(kinds), size=D2S_EDITED, replace=False).tolist())
    corpus: list[dict] = []
    next_corpus = 0
    for i, kind in enumerate(kinds):
        q = int(rng.integers(0, D2S_QUESTIONS))
        created = float(qdays[q]) + float(rng.uniform(0.01, 400))
        body = text.prose_html(body_words[i])
        if code_chars[i]:
            body += f"<pre><code>{text.code(code_chars[i])}</code></pre>"
            body += text.prose_html(8, extras=False)
        score = int(rng.integers(1, 40)) if kind != "low" else int(rng.integers(-3, 1))
        aid = dump.answer(qids[q], body, created, score)
        if i in edited:
            dump.revision(aid, 2, body, created)
            dump.revision(aid, 5, body + text.prose_html(10, extras=False), created + 3.0)
            dump.revision(aid, 24, None, created + 3.0)
        if kind == "bare":
            continue
        k = n_comments[next_corpus] if kind == "corpus" else int(rng.integers(1, 4))
        for j in range(k):
            dump.comment(aid, text.comment(int(rng.integers(5, 30))), created + 0.5 + j)
        if kind == "corpus":
            corpus.append({"answer_id": aid, "n_comments": k})
            next_corpus += 1
    for _ in range(D2S_QUESTION_COMMENTS):
        q = int(rng.integers(0, D2S_QUESTIONS))
        dump.comment(qids[q], text.comment(int(rng.integers(5, 20))), float(qdays[q]) + 1.0)
    counts = dump.write(out)
    corpus.sort(key=lambda c: c["answer_id"])
    return {"counts": counts, "corpus": corpus}


# -- mine-history ------------------------------------------------------------

MH_QUESTIONS = 900
MH_BACKGROUND = 2200
# (code length before the edit, planted distance) of the large planted edits.
# The same pairs for every seed keep the DP cell count fixed.
MH_BIG_EDITS = (
    (200, 99), (250, 100), (300, 101), (300, 150), (350, 60), (400, 99), (450, 300),
    (500, 100), (600, 250), (700, 1), (800, 101), (1000, 400), (2000, 500),
)
MH_SMALL_EDITS = 200  # background answers edited after a comment, small code
MH_KEYWORD_POS = 40
MH_LATE_POS = 30


def edit_code(rng: np.random.Generator, code: str, distance: int) -> str:
    """``code`` with ``distance`` planted characters from EDIT_ALPHABET:
    substitutions while the code is long enough, insertions beyond that."""
    chars = list(code)
    n_sub = min(distance, len(chars)) // 2
    for pos in rng.choice(len(chars), size=n_sub, replace=False) if n_sub else []:
        chars[int(pos)] = EDIT_ALPHABET[int(rng.integers(0, len(EDIT_ALPHABET)))]
    for _ in range(distance - n_sub):
        pos = int(rng.integers(0, len(chars) + 1))
        chars.insert(pos, EDIT_ALPHABET[int(rng.integers(0, len(EDIT_ALPHABET)))])
    return "".join(chars)


def code_answer_body(text: Text, code: str, words: int = 30, phrase: str | None = None) -> str:
    lead = text.words(words)
    if phrase:
        lead += f" unlike the {phrase} this one still runs"
    return f"<p>{lead}</p><pre><code>{code}</code></pre><p>{text.words(8)}</p>"


def make_mine_history(rng: np.random.Generator, out: Path) -> dict:
    text = Text(rng)
    dump = Dump()
    truth = {"keyword_comment": [], "edited_after_comment": [], "late_answer": [], "distances": {}}
    qdays = rng.uniform(0, 1500, size=MH_QUESTIONS)
    qids = [dump.question(text.prose_html(40), text.words(6), float(d)) for d in qdays]

    def new_q(body_extra: str = "") -> tuple[int, float]:
        d = float(rng.integers(0, 1500))  # whole days keep the late boundary exact
        return dump.question(text.prose_html(30) + body_extra, text.words(6), d), d

    def comments(aid: int, created: float, n: int, keyword: str | None = None) -> float:
        """Add ``n`` comments from ``created`` on; returns the first date."""
        for j in range(n):
            body = text.comment(int(rng.integers(5, 25)))
            if keyword and j == n - 1:
                body = f"{body} this is {keyword} now"
            dump.comment(aid, body, created + j)
        return created

    def edited_answer(qid, qday, code_len, distance, *, score, after_comment=True, n_comments=2,
                      created=None, phrase=None, keyword=None) -> int:
        created = qday + float(rng.uniform(1, 300)) if created is None else created
        before = text.code(code_len)
        after = edit_code(rng, before, distance)
        first_comment = created + 2.0
        edit_day = first_comment + 1.0 if after_comment else first_comment - 1.0
        aid = dump.answer(qid, code_answer_body(text, after, phrase=phrase), created, score, last_edit=edit_day)
        dump.revision(aid, 2, code_answer_body(text, before), created)
        dump.revision(aid, 5, code_answer_body(text, after, phrase=phrase), edit_day)
        if n_comments:
            comments(aid, first_comment, n_comments, keyword)
        return aid

    # Background: commented answers with an initial revision, other history
    # kinds, and for some an edit after the first comment with a small code
    # distance (below the threshold, so never a candidate).
    small = rng.choice(MH_BACKGROUND, size=MH_SMALL_EDITS, replace=False).tolist()
    small_edits = dict(zip(small, zip(spread(rng, 80 * MH_SMALL_EDITS, MH_SMALL_EDITS, 40, 120),
                                      spread(rng, 20 * MH_SMALL_EDITS, MH_SMALL_EDITS, 1, 39))))
    for i in range(MH_BACKGROUND):
        q = int(rng.integers(0, MH_QUESTIONS))
        score = int(rng.integers(0, 12))
        if i in small_edits:
            code_len, d = small_edits[i]
            aid = edited_answer(qids[q], float(qdays[q]), code_len, d, score=max(score, 1))
            truth["distances"][str(aid)] = d
            continue
        created = float(qdays[q]) + float(rng.uniform(0.1, 300))
        body = code_answer_body(text, text.code(int(rng.integers(100, 500))), words=40)
        aid = dump.answer(qids[q], body, created, score)
        dump.revision(aid, 2, body, created)
        dump.revision(aid, 1, None, created)
        dump.revision(aid, 16, None, created + 0.5)
        comments(aid, created + 1.0, int(rng.integers(0, 4)))

    # Keyword positives; a quarter also carry a large edit after the comment,
    # which precedence keeps out of the edited set.
    for i in range(MH_KEYWORD_POS):
        qid, qday = new_q()
        kw = KEYWORDS[i % len(KEYWORDS)]
        if i % 4 == 0:
            aid = edited_answer(qid, qday, 300, 200, score=1 + i % 3, keyword=kw)
        else:
            created = qday + 1.0
            aid = dump.answer(qid, text.prose_html(40), created, 1 + i % 3)
            comments(aid, created + 1.0, 2, kw)
        truth["keyword_comment"].append(aid)
    # Keyword distractors: keyword on the question, or a zero-score answer.
    for i in range(15):
        qid, qday = new_q(f"<p>is this {KEYWORDS[i % 4]}</p>")
        aid = dump.answer(qid, text.prose_html(30), qday + 1.0, 2)
        comments(aid, qday + 2.0, 2, KEYWORDS[(i + 1) % 4])
    for i in range(15):
        qid, qday = new_q()
        aid = dump.answer(qid, text.prose_html(30), qday + 1.0, 0)
        comments(aid, qday + 2.0, 1, KEYWORDS[i % 4])

    # Large planted edits after a comment: candidates when distance >= 100.
    # Two of them are also late referencing answers; precedence keeps them
    # in the edited set only.
    n_late = 0
    for k in rng.permutation(len(MH_BIG_EDITS)):
        qid, qday = new_q()
        code_len, d = MH_BIG_EDITS[k]
        late = d >= 100 and n_late < 2
        n_late += late
        created = qday + LATE_DAYS + 10.0 if late else None
        aid = edited_answer(qid, qday, code_len, d, score=3, created=created,
                            phrase=PHRASES[n_late % 4] if late else None)
        truth["distances"][str(aid)] = d
        if d >= 100:
            truth["edited_after_comment"].append(aid)
    # Edit distractors: edited before the first comment, or never commented.
    for _ in range(10):
        qid, qday = new_q()
        edited_answer(qid, qday, 300, 200, score=2, after_comment=False)
    for _ in range(10):
        qid, qday = new_q()
        edited_answer(qid, qday, 300, 200, score=2, n_comments=0)

    # Late referencing answers, one exactly at the boundary.
    for i in range(MH_LATE_POS):
        qid, qday = new_q()
        delay = LATE_DAYS if i == 0 else LATE_DAYS + float(rng.uniform(1, 900))
        aid = dump.answer(qid, code_answer_body(text, text.code(200), phrase=PHRASES[i % 4]), qday + delay, 2 + i % 5)
        truth["late_answer"].append(aid)
    # Late distractors: just early, score 1, or late without a phrase.
    for i in range(10):
        qid, qday = new_q()
        dump.answer(qid, code_answer_body(text, text.code(200), phrase=PHRASES[i % 4]),
                    qday + LATE_DAYS - 1 / 86_400_000, 5)
        qid, qday = new_q()
        dump.answer(qid, code_answer_body(text, text.code(200), phrase=PHRASES[i % 4]), qday + 900.0, 1)
        qid, qday = new_q()
        dump.answer(qid, code_answer_body(text, text.code(200)), qday + 900.0, 5)

    counts = dump.write(out)
    for key in ("keyword_comment", "edited_after_comment", "late_answer"):
        truth[key].sort()
    truth["counts"] = counts
    return truth


# -- train-v50k --------------------------------------------------------------

V50K_VOCAB = 50_000
V50K_SEQS = 3000
V50K_LABELED_TRAIN = 256
V50K_LABELED_EVAL = 256
V50K_LABELED_LEN = 32
SIGNAL_TOKENS = 1  # per class
SIGNAL_RATE = 0.5


def synthetic_vocab(rng: np.random.Generator, vocab_size: int):
    """A valid vocabulary of ``vocab_size`` tokens in the program's own
    format: each merge extends an existing token by one letter."""
    from sopipeline import bpe

    alphabet = [bytes([b]) for b in b"abcdefghijklmnopqrstuvwxyz "]
    tokens = list(alphabet)
    seen = {bytes([b]) for b in range(256)}
    merges: list[tuple[bytes, bytes]] = []
    n_merges = vocab_size - bpe.MIN_VOCAB_SIZE
    while len(merges) < n_merges:
        lefts = rng.integers(0, len(tokens), size=4096).tolist()
        rights = rng.integers(0, len(alphabet), size=4096).tolist()
        for i, j in zip(lefts, rights):
            tok = tokens[i] + alphabet[j]
            if tok in seen or len(tok) > 12:
                continue
            seen.add(tok)
            tokens.append(tok)
            merges.append((tokens[i], alphabet[j]))
            if len(merges) == n_merges:
                break
    return bpe.BpeVocab(merges=merges)


def zipf_ids(rng: np.random.Generator, n: int, perm: np.ndarray, cdf: np.ndarray, first_id: int) -> np.ndarray:
    ranks = np.searchsorted(cdf, rng.random(n), side="right")
    return perm[np.minimum(ranks, len(perm) - 1)] + first_id


def make_train_v50k(rng: np.random.Generator, out: Path) -> dict:
    from sopipeline import bpe, shards

    vocab = synthetic_vocab(rng, V50K_VOCAB)
    vocab.save(out / "vocab.sovoc")
    n_ids = V50K_VOCAB - bpe.N_SPECIALS
    weights = 1.0 / np.arange(1, n_ids + 1) ** 1.1
    cdf = np.cumsum(weights) / weights.sum()
    perm = rng.permutation(n_ids)
    lengths = spread(rng, 160 * V50K_SEQS, V50K_SEQS, 64, 256)
    seqs = [zipf_ids(rng, n, perm, cdf, bpe.N_SPECIALS).tolist() for n in lengths]
    n_samples, total = shards.write_token_shard(out / "corpus.sotk", seqs, vocab.checksum)

    # Labeled sequences: class c draws SIGNAL_RATE of its positions from its
    # own small token set, the rest from the shared Zipf background.
    signal = rng.choice(np.arange(bpe.N_SPECIALS, V50K_VOCAB), size=2 * SIGNAL_TOKENS, replace=False)
    labeled = {}
    for split, n in (("train", V50K_LABELED_TRAIN), ("eval", V50K_LABELED_EVAL)):
        labels = [i % 2 for i in range(n)]
        labels = [labels[i] for i in rng.permutation(n)]
        rows = []
        for lab in labels:
            ids = zipf_ids(rng, V50K_LABELED_LEN - 1, perm, cdf, bpe.N_SPECIALS)
            hit = rng.random(ids.size) < SIGNAL_RATE
            pool = signal[lab * SIGNAL_TOKENS : (lab + 1) * SIGNAL_TOKENS]
            ids[hit] = rng.choice(pool, size=int(hit.sum()))
            rows.append([bpe.CLASS_MARKER_ID] + ids.tolist())
        shards.write_token_shard(out / f"labeled_{split}.sotk", rows, vocab.checksum)
        (out / f"labeled_{split}.labels.json").write_text(json.dumps(labels) + "\n")
        labeled[split] = labels
    return {
        "vocab_size": vocab.vocab_size,
        "n_samples": n_samples,
        "total_tokens": total,
        "labels": labeled,
    }


MAKERS = {
    "dump-to-shards": make_dump_to_shards,
    "mine-history": make_mine_history,
    "train-v50k": make_train_v50k,
}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write ``workload``'s inputs for ``seed`` into ``out`` with truth.json."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([GEN_VERSION, WORKLOADS.index(workload), seed])
    truth = MAKERS[workload](rng, out)
    truth.update({"workload": workload, "seed": seed, "gen_version": GEN_VERSION})
    (out / "truth.json").write_text(json.dumps(truth, sort_keys=True) + "\n")
    return truth


def cached_inputs(workload: str, seed: int, cache_root: Path) -> Path:
    """Inputs for (workload, seed), generated once into ``cache_root``."""
    final = cache_root / f"{workload}-s{seed}-v{GEN_VERSION}"
    if (final / "truth.json").exists():
        return final
    tmp = cache_root / f".tmp-{final.name}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    generate(workload, seed, tmp)
    try:
        tmp.rename(final)
    except OSError:  # another run finished the same inputs first
        shutil.rmtree(tmp, ignore_errors=True)
    return final


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    truth = generate(args.workload, args.seed, Path(args.out))
    print(json.dumps({k: v for k, v in truth.items() if k in ("counts", "n_samples", "total_tokens")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
