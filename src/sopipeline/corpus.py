"""Build pre-training samples from a sealed record store.

A sample is one answer followed by all of its comments in creation-date
order, joined with the reserved ``<RS>`` separator. Cleaning abstracts URLs
and emails, strips markup, and keeps ``<code>`` span contents byte-for-byte.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import logging
import re
import statistics
from dataclasses import asdict, dataclass
from html import unescape
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from .atomic import replacing
from .bpe import SPECIAL_TOKENS
from .dump_ingest import CommentRecord, PostRecord
from .errors import UsageError
from .linefiles import read_jsonl, write_jsonl
from .record_store import RecordStore
from . import shards

logger = logging.getLogger(__name__)

SEPARATOR, URL_TOKEN, EMAIL_TOKEN = (dict(SPECIAL_TOKENS)[name] for name in ("separator", "url", "email"))

DEFAULT_MIN_SCORE = 1
DEFAULT_MIN_COMMENTS = 1
DEFAULT_BUCKET_EDGES = (512, 1024, 2048)

_CODE_OPEN = re.compile(r"<code\b[^>]*>", re.IGNORECASE)
_CODE_CLOSE = re.compile(r"</code\s*>", re.IGNORECASE)
_TAG = re.compile(r"<[^>]*>")
# Scheme-prefixed or www.-prefixed, running to the next whitespace.
_URL = re.compile(r"\b(?:(?:https?|ftp)://|www\.)\S+", re.IGNORECASE)
# An email is ``\b[\w.+-]+@[\w-]+(?:\.[\w-]+)+\b``, matched by _replace_emails.
# A run holds no "@", so backtracking into one finds no other match; the
# lookbehind admits only run starts, which keeps the scan linear.
_EMAIL_LOCAL_RUN = re.compile(r"(?<![\w.+-])[\w.+-]+@")
_EMAIL_LOCAL_START = re.compile(r"\b[\w.+-]")
_EMAIL_DOMAIN = re.compile(r"[\w-]+(?:\.[\w-]+)+\b")
# the tokenizer's <...> literals; [URL] and [EMAIL] stay, as cleaning makes them
_ANGLED_SPECIALS = tuple(lit for _, lit in SPECIAL_TOKENS if lit.startswith("<"))


@dataclass
class PretrainSample:
    answer_id: int
    text: str
    n_comments: int


@dataclass
class CorpusStats:
    n_samples: int
    n_comments_total: int
    comments_per_post_mean: float
    comments_per_post_median: float
    length_histogram: dict[str, int]
    total_tokens: Optional[int] = None

    def to_dict(self) -> dict:
        return asdict(self)


def _replace_emails(text: str) -> str:
    """Replace every email with EMAIL_TOKEN, in time linear in ``text``.

    As one regex, the email pattern retries every start in a long dotted run
    that lacks a domain (quadratic). But every start in a run of local-part
    characters reaches the same ``@`` and domain, so only the run's first
    word boundary past the previous match needs trying.
    """
    if "@" not in text:
        return text
    out: list[str] = []
    pos = 0
    for run in _EMAIL_LOCAL_RUN.finditer(text):
        at = run.end() - 1
        start = _EMAIL_LOCAL_START.search(text, max(run.start(), pos), at)
        if start is None:
            continue
        domain = _EMAIL_DOMAIN.match(text, at + 1)
        if domain is not None:
            out += [text[pos : start.start()], EMAIL_TOKEN]
            pos = domain.end()
    out.append(text[pos:])
    return "".join(out)


def _may_hold_url(text: str) -> bool:
    # every _URL match holds "://" or, as IGNORECASE folds only W to w, "www."
    return "://" in text or "www." in text.lower()


def _defuse_specials(text: str) -> str:
    """Lowercase each ``<...>`` special literal, which would encode as its
    reserved id; a lowercased one holds no capital, so makes no new one."""
    if "<" in text:
        for literal in _ANGLED_SPECIALS:
            text = text.replace(literal, literal.lower())
    return text


def _clean_fragment(fragment: str, replace_urls: bool, replace_emails: bool) -> str:
    """Non-code text: drop tags, decode entities, defuse special literals,
    abstract URLs/emails, and collapse each whitespace run to one space, an
    edge run included."""
    text = _TAG.sub(" ", fragment)
    text = _defuse_specials(unescape(text))
    if replace_urls and _may_hold_url(text):
        text = _URL.sub(URL_TOKEN, text)
    if replace_emails:
        text = _replace_emails(text)
    # str.split() splits at str.isspace(), the same set as re's \s
    body = " ".join(text.split())
    if not body:
        return " " if text else ""
    return " " * text[0].isspace() + body + " " * text[-1].isspace()


def clean_comment_text(text: str, *, replace_urls: bool = True, replace_emails: bool = True) -> str:
    """Comments are plain text: URL/email abstraction, special literals
    defused (so a sample holds one separator per comment) and whitespace
    collapse only, no tag or entity handling."""
    if replace_urls and _may_hold_url(text):
        text = _URL.sub(URL_TOKEN, text)
    if replace_emails:
        text = _replace_emails(text)
    text = _defuse_specials(text)
    return " ".join(text.split())


def split_code(body: str) -> list[str]:
    """``body`` cut at its ``<code>`` tags, which are dropped: markup at even
    indices, code span contents at odd ones.

    An open tag with no close makes the remainder of the body one code
    piece, so the list has even length exactly when a span is unclosed.
    """
    pieces: list[str] = []
    pos = 0
    while (open_m := _CODE_OPEN.search(body, pos)) is not None:
        pieces.append(body[pos : open_m.start()])
        close_m = _CODE_CLOSE.search(body, open_m.end())
        if close_m is None:
            pieces.append(body[open_m.end() :])
            return pieces
        pieces.append(body[open_m.end() : close_m.start()])
        pos = close_m.end()
    pieces.append(body[pos:])
    return pieces


def clean_text(
    body: str,
    *,
    replace_urls: bool = True,
    replace_emails: bool = True,
    post_id: Optional[int] = None,
) -> str:
    """Clean post HTML while keeping code span contents verbatim.

    ``<code>`` tags themselves are dropped; everything between an open and
    its close tag passes through untouched, URLs included. An open tag with
    no matching close treats the remainder of the body as code (logged with
    ``post_id``).
    """
    pieces = split_code(body)
    if len(pieces) % 2 == 0:
        logger.warning("post %s: unbalanced <code> tag; keeping remainder as code", post_id)
    pieces[::2] = [_clean_fragment(p, replace_urls, replace_emails) for p in pieces[::2]]
    return "".join(pieces).strip()


def filter_answers(
    store: RecordStore,
    *,
    min_score: int = DEFAULT_MIN_SCORE,
    min_comments: int = DEFAULT_MIN_COMMENTS,
) -> Iterator[tuple[PostRecord, list[CommentRecord]]]:
    """Yield answers meeting the score/comment floor with their comments.

    Comments come back creation-date-ascending. Questions and answers below
    either floor are never yielded; an empty result is valid.
    """
    for thread in store.iter_threads(min_score, comments=True):
        if len(thread.comments) >= min_comments:
            yield thread.answer, thread.comments


def assemble_sample(
    answer: PostRecord,
    comments: Sequence[CommentRecord],
    *,
    replace_urls: bool = True,
    replace_emails: bool = True,
) -> Optional[PretrainSample]:
    """Join cleaned answer text and comments with space-padded separators.

    Comments are re-sorted by (creation_date, id) defensively. Returns None
    (and logs) when every part cleans down to nothing.
    """
    if not comments:
        raise UsageError(f"answer {answer.id}: assemble_sample requires at least one comment")
    ordered = sorted(comments, key=lambda c: (c.creation_date, c.id))
    answer_text = clean_text(
        answer.body, replace_urls=replace_urls, replace_emails=replace_emails, post_id=answer.id
    )
    parts = [answer_text] + [
        clean_comment_text(c.text, replace_urls=replace_urls, replace_emails=replace_emails)
        for c in ordered
    ]
    if all(not p.strip() for p in parts):
        logger.info("answer %d: empty after cleaning, skipped", answer.id)
        return None
    text = f" {SEPARATOR} ".join(parts)
    return PretrainSample(answer_id=answer.id, text=text, n_comments=len(ordered))


def build_samples(
    store: RecordStore,
    *,
    min_score: int = DEFAULT_MIN_SCORE,
    min_comments: int = DEFAULT_MIN_COMMENTS,
    replace_urls: bool = True,
    replace_emails: bool = True,
    counters: Optional[dict] = None,
) -> Iterator[PretrainSample]:
    """Filter + assemble in one stream; skip counts land in ``counters``."""
    if counters is not None:
        counters.setdefault("skipped_empty", 0)
    for answer, comments in filter_answers(store, min_score=min_score, min_comments=min_comments):
        sample = assemble_sample(
            answer, comments, replace_urls=replace_urls, replace_emails=replace_emails
        )
        if sample is None:
            if counters is not None:
                counters["skipped_empty"] += 1
            continue
        yield sample


def _bucket_labels(edges: Sequence[int]) -> list[str]:
    labels = [f"0-{edges[0]}"]
    labels += [f"{lo + 1}-{hi}" for lo, hi in zip(edges, edges[1:])]
    labels.append(f">{edges[-1]}")
    return labels


def corpus_stats(
    samples: Iterable[PretrainSample],
    tokenizer=None,
    bucket_edges: Sequence[int] = DEFAULT_BUCKET_EDGES,
) -> CorpusStats:
    """Comment-count statistics plus a sequence-length histogram.

    With a tokenizer, buckets are over token counts; otherwise over
    character counts. An empty corpus gives all-zero stats.
    """
    edges = [int(e) for e in bucket_edges]
    if any(b <= a for a, b in zip(edges, edges[1:])) or not edges:
        raise UsageError(f"bucket_edges must be strictly increasing, got {bucket_edges}")
    if edges[0] <= 0:
        raise UsageError(f"bucket_edges must be positive, got first edge {edges[0]}")
    labels = _bucket_labels(edges)
    histogram = {label: 0 for label in labels}

    comment_counts: list[int] = []
    total_tokens = 0
    n_samples = 0
    if tokenizer is not None:
        samples, texts = itertools.tee(samples)
        lengths = map(len, tokenizer.encode_many(sample.text for sample in texts))
    for sample in samples:
        n_samples += 1
        comment_counts.append(sample.n_comments)
        if tokenizer is not None:
            length = next(lengths)
            total_tokens += length
        else:
            length = len(sample.text)
        histogram[labels[bisect.bisect_left(edges, length)]] += 1

    if n_samples == 0:
        return CorpusStats(0, 0, 0.0, 0.0, histogram, 0 if tokenizer else None)
    return CorpusStats(
        n_samples=n_samples,
        n_comments_total=sum(comment_counts),
        comments_per_post_mean=sum(comment_counts) / n_samples,
        # low median so the reported value is one the distribution attains
        comments_per_post_median=float(statistics.median_low(comment_counts)),
        length_histogram=histogram,
        total_tokens=total_tokens if tokenizer is not None else None,
    )


# in PretrainSample's field order
_CORPUS_FIELDS = {"answer_id": int, "text": str, "n_comments": int}


def read_corpus_jsonl(path: str | Path) -> Iterator[PretrainSample]:
    for _, values in read_jsonl(path, _CORPUS_FIELDS):
        yield PretrainSample(*values)


def write_corpus(
    samples: Iterable[PretrainSample],
    path: str | Path,
    fmt: str = "jsonl",
    tokenizer=None,
    manifest_extra: Optional[dict] = None,
) -> dict:
    """Serialize samples to JSON-Lines or binary token shards.

    Returns the manifest, which is renamed into place after the output, as
    ``<path>.manifest.json``: counts, a sha256 content checksum, and any
    ``manifest_extra`` entries, which are read *after* the sample stream is
    consumed so lazily-updated counters are final. Output bytes are a pure
    function of the input samples.
    """
    n_samples = 0
    n_comments = 0

    def counted() -> Iterator[PretrainSample]:
        nonlocal n_samples, n_comments
        for sample in samples:
            n_samples += 1
            n_comments += sample.n_comments
            yield sample

    extra = {}
    if fmt == "jsonl":
        write_jsonl(path, map(vars, counted()))
    elif fmt == "shards":
        if tokenizer is None:
            raise UsageError("shard output requires a tokenizer")
        texts = (sample.text for sample in counted())
        _, extra["total_tokens"] = shards.write_token_shard(path, tokenizer.encode_many(texts), tokenizer.checksum)
    else:
        raise UsageError(f"unknown corpus format {fmt!r} (expected 'jsonl' or 'shards')")

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    manifest = {
        "format": fmt,
        "n_samples": n_samples,
        "n_comments_total": n_comments,
        "sha256": digest.hexdigest(),
        **extra,
        **(manifest_extra or {}),
    }
    with replacing(f"{path}.manifest.json", "w") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
